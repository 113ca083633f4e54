(** The four hardware primitives of paper table 3 (section 4.1), plus
    loads and multi-byte helpers.

    - [store]   — regular cached write ([mov]); volatile until flushed.
    - [wtstore] — streaming write-through store ([movntq] into the
                  write-combining buffers); durable after the next fence.
    - [flush]   — write a cache line back to SCM ([clflush]).
    - [fence]   — drain the write-combining buffers and stall until all
                  prior writes have reached SCM ([mfence]).

    Every operation charges its cost from the environment's latency
    model to the environment's clock, mirroring the delays the paper's
    emulator inserts (section 6.1).  Addresses are physical. *)

val load : Env.t -> int -> int64
(** Read an aligned word.  Sees this thread's pending streaming stores
    (store forwarding) and the shared cache. *)

val load_nt : Env.t -> int -> int64
(** Non-temporal read: coherent with pending streaming stores and
    resident cache lines, but never allocates a line (and so never
    evicts).  Charges no simulated time: a sequential sweep streams at
    bandwidth, and a delay per word would perturb every interleaving
    whenever a thread attaches its log.  Meant for recovery-time sweeps
    over whole regions. *)

val load_nt_into : Env.t -> int -> Bytes.t -> int -> int -> unit
(** [load_nt_into env addr dst off nwords] reads [nwords] aligned words
    from [addr] into [dst] at byte offset [off]: the same values and
    side effects as that many {!load_nt} calls in address order.  Each
    line read while the write-combining buffer is empty is one cache
    peek ({!Cache.peek_into}); otherwise the line goes word by word. *)

val store : Env.t -> int -> int64 -> unit
(** Cached write; durable only after [flush] + [fence] (or an unlucky
    eviction). *)

val wtstore : Env.t -> int -> int64 -> unit
(** Streaming write-through store.  Bypasses and invalidates the cache
    (after writing back a dirty line, so no earlier cached update is
    lost); durable after the next [fence]. *)

val flush : Env.t -> int -> unit
(** Write back and invalidate the cache line containing the address;
    charges PCM write latency when the line was dirty. *)

val fence : Env.t -> unit
(** Drain this thread's write-combining buffer; charges the
    bandwidth-limited drain cost. *)

val fence_group : Env.t list -> unit
(** One fence covering several threads' write-combining buffers (group
    commit): every listed buffer drains — the same durability
    postcondition as fencing each environment — but the head of the
    list pays a single fence base cost and one combined streaming
    burst.  The callers of the other environments must be parked while
    this runs. *)

val load_bytes : Env.t -> int -> Bytes.t -> int -> int -> unit
(** Cached multi-byte read (word loads under the hood, with store
    forwarding honoured). *)

val store_bytes : Env.t -> int -> Bytes.t -> int -> int -> unit
(** Cached multi-byte write. *)

val wtstore_bytes : Env.t -> int -> Bytes.t -> int -> int -> unit
(** Streaming multi-byte write of an 8-byte-aligned, 8-byte-multiple
    range. *)

val persist : Env.t -> int -> int -> unit
(** [persist env addr len] flushes every cache line covering
    [addr, addr+len) and fences: the "make this durable now" idiom. *)
