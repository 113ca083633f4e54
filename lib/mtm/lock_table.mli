(** The global array of volatile locks used for encounter-time locking
    (paper section 5): "a global array of volatile locks, with each lock
    covering a portion of the address space".

    Each entry holds a version (the commit timestamp of the last
    transaction to write a covered address), an owner (the transaction
    currently holding the lock, if any), the address the owner acquired
    it for (false-conflict attribution), and a reader timestamp
    watermark used when commit timestamps are leased out of arrival
    order.  The table is volatile: after a crash it is simply
    recreated, because recovery replays committed transactions
    single-threadedly.

    The table can be striped: entries are spread over [stripes]
    independent stripes so adjacent lines land on different stripes and
    lock metadata for disjoint address ranges stops sharing cache
    lines.  Handles returned by {!index_of} encode (entry, stripe);
    with one stripe (the default) the handle is exactly the historical
    flat index.

    Storage is allocated by touch: entries live in copy-on-write chunks
    that all start as one shared chunk of free entries, so creating a
    table costs its chunk directory, not [stripes * 2^bits] entries. *)

type t

val create : ?bits:int -> ?stripes:int -> unit -> t
(** [stripes * 2^bits] entries (default bits 18, stripes 1).
    @raise Invalid_argument unless [stripes] is a power of two. *)

val index_of : t -> int -> int
(** Map an address to a handle for its covering lock: one lock per
    64-byte line, wrapping around the table. *)

val version : t -> int -> int
val owner : t -> int -> int
(** Owning transaction id, or -1. *)

val rts : t -> int -> int
(** Reader watermark: the largest timestamp a validated reader has
    serialized at against this entry's current version. *)

val held_addr : t -> int -> int
(** The address the current owner acquired the entry for (0 when
    unknown); stale once the entry is free. *)

val aliased : t -> int -> addr:int -> bool
(** Whether the entry's current owner acquired it for a different
    address than [addr] — i.e. a conflict observed now would be a
    false (aliasing) conflict.  Only meaningful while held. *)

val try_acquire : t -> int -> owner:int -> addr:int -> bool
(** Acquire if free or already ours; false if another owner holds it.
    Records [addr] as the held address on a fresh acquire. *)

val release : t -> int -> unit
(** Release without changing the version (abort path). *)

val release_versioned : t -> int -> version:int -> unit
(** Release and publish a new version (commit path). *)

val bump_rts : t -> int -> int -> unit
(** Raise the reader watermark to at least the given timestamp. *)

val stripes : t -> int
val entries : t -> int

val set_race : t -> Race_api.hooks option -> unit
(** Race-detection hooks (DESIGN.md section 18).  Each entry is a
    single-word atomic and its own sync object: {!try_acquire} and
    {!bump_rts} are rmw edges, the releases publish, reads acquire.
    [None] (the default) keeps every site a single never-taken
    branch. *)
