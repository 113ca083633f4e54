(** The persistent heap: [pmalloc]/[pfree] of paper table 3.

    Combines the Hoard-style superblock allocator (requests up to one
    superblock class) with the dlmalloc-style {!Large_alloc} fallback,
    both made atomic by a shared {!Alloc_log}.  Allocated memory and
    allocation sizes persist across program invocations: memory
    allocated in one run can be freed in the next.

    Both [pmalloc] and [pfree] follow the paper's leak-avoidance
    calling convention: they take the {e address of a persistent
    pointer slot}.  [pmalloc] atomically sets the slot to the new block
    (so a crash right after allocation cannot leak it) and [pfree]
    atomically nullifies it (so a crash right after deallocation cannot
    leave it dangling).

    The [_raw] variants skip the slot write; they exist for the
    transaction system, which routes the pointer update through its own
    redo log and compensates allocations when a transaction aborts. *)

type t

val region_bytes_for : superblocks:int -> large_bytes:int -> int
(** Persistent size needed for a heap of that geometry (header page +
    allocation log + superblock area + large area). *)

val create :
  Region.Pmem.view -> base:int -> superblocks:int -> large_bytes:int -> t
(** Format a heap over fresh zeroed persistent memory. *)

val attach : Region.Pmem.view -> base:int -> t
(** Reincarnate an existing heap: replay the allocation log, then
    scavenge superblocks and the large-chunk chain to rebuild the
    volatile indexes (the dominant process-restart cost the paper
    measures in section 6.3.2). *)

exception Out_of_superblocks
(** The superblock area cannot serve a request of up to {!small_limit}
    bytes: every superblock is assigned and none of the size's class
    has a free block.  The same exception as
    {!Hoard.Out_of_superblocks}.  Nothing was allocated or written.
    Inside a transaction ([Mtm.Txn.alloc]) it aborts the transaction
    like any exception escaping its body: locks, reservations and
    earlier allocations of that attempt are released, and it propagates
    out of [Mtm.Txn.run] without a retry. *)

val pmalloc : t -> int -> slot:int -> int
(** [pmalloc t size ~slot] allocates [size] bytes, atomically storing
    the block address into the persistent word at [slot]; returns the
    address.  Raises {!Out_of_superblocks} when a small request cannot
    be served. *)

val pfree : t -> slot:int -> unit
(** Frees the block the slot points at and atomically nullifies the
    slot. *)

val pmalloc_raw : t -> int -> int
val pfree_raw : t -> int -> unit

(** {1 Transactional integration}

    {!Mtm} allocates by reserving a block here and routing the bitmap
    and pointer writes through its redo log, so allocation commits and
    aborts with the transaction (see {!Hoard}).  Only superblock-class
    sizes are supported; the transaction layer falls back to
    compensated [pmalloc_raw] above {!small_limit}. *)

val small_limit : int
(** Largest size the transactional path supports (= largest class). *)

val reserve_small : ?arena:int -> t -> int -> Hoard.reservation
val finalize_small : t -> Hoard.reservation -> unit
val cancel_small : t -> Hoard.reservation -> unit
val owns_small : t -> int -> bool
val free_prepare_small : t -> load:(int -> int64) -> int -> int * int
val free_commit_small : t -> int -> unit

val block_bytes : t -> int -> int
(** Usable bytes of an allocated block. *)

val set_exclusion : t -> ((unit -> unit) -> unit) -> unit
(** Install a mutual-exclusion wrapper around heap mutations (e.g. a
    simulator mutex) for multi-threaded use. *)

type reincarnation = {
  log_records_replayed : int;
  superblocks_scanned : int;
  large_chunks_scanned : int;
  scavenge_ns : int;  (** Modeled rebuild cost (paper: ~89 ms). *)
}

val reincarnation : t -> reincarnation
(** Statistics from the last {!attach} ({!create} reports zeros). *)

type occupancy = {
  superblocks : int;  (** Superblocks in the heap. *)
  assigned_superblocks : int;  (** Of which hold live size classes. *)
  large_bytes : int;  (** Size of the large-allocation area. *)
  large_free_bytes : int;  (** Unallocated bytes in that area. *)
}

val occupancy : t -> occupancy
(** Current space usage, for inspection tools ([regionctl stats]).
    Allocations and frees also feed the [heap.allocs]/[heap.frees]
    counters and emit [Heap_alloc]/[Heap_free] trace events on the
    machine's {!Obs.t}. *)

(** {1 On-SCM geometry introspection}

    The persistent layout of a heap image, exposed for the offline
    analyzer ({!Check.Pmfsck}): header page (magic at [base],
    superblock count at [sb_count_addr], large-area length at
    [large_len_addr]), then the allocation log at [alog_base], the
    superblock area at [sb_area_base], and the large area directly
    after the superblocks. *)

val base : t -> int
val magic : int64
val header_page : int
(** Bytes of the header page (4096). *)

val alog_bytes : int
(** Bytes reserved for the allocation log. *)

val sb_count_addr : int -> int
val large_len_addr : int -> int
val alog_base : int -> int
val sb_area_base : int -> int
(** Each takes the heap [base]. *)
