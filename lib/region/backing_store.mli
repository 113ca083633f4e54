(** Backing files for persistent regions.

    Every region is associated with a file (paper section 4.2): the
    region manager swaps SCM pages out to it under memory pressure, and
    it is how a region survives replacement of the SCM device itself.
    Files live in a real directory — the analogue of the program's
    working directory / [MNEMOSYNE_REGION_PATH].

    Files are identified by inode number; a small persistent index file
    maps names ("static", region files) to inodes, standing in for the
    filesystem namespace.

    A store is its directory's only writer while open: it lists and
    [stat]s the files once at {!open_dir} and keeps their lengths in
    memory from then on, so reading a page a file does not have yet
    never opens the file. *)

type t

val open_dir : ?page_io_ns:int -> string -> t
(** Open (creating if needed) a backing directory.  [page_io_ns] is the
    charged cost of one 4-KiB page transfer to or from the file system
    (the swap path cost). *)

val dir : t -> string
val page_io_ns : t -> int

val create_file : t -> ?name:string -> unit -> int
(** Create an empty backing file; returns its inode.  A [name] makes the
    file findable with {!find} (used for the static region's file). *)

val find : t -> string -> int option

val delete_file : t -> int -> unit
val file_exists : t -> int -> bool

val list_inodes : t -> int list
(** Inodes of all files present in the directory (orphan-collection
    scan). *)

val read_page : t -> int -> int -> Bytes.t -> unit
(** [read_page t inode page_off buf] fills [buf] (one page) from page
    [page_off] of file [inode]; absent pages read as zeros. *)

val write_page : t -> int -> int -> Bytes.t -> unit

val sync : t -> unit
(** Flush the index; file data is written through. *)

val global_mutations : unit -> int
(** Monotone count of mutating operations ({!create_file},
    {!delete_file}, {!write_page}, {!sync}) across {e all} stores in the
    process.  The crash-point explorer reads it before and after a run
    to prove its scratch directory was left untouched — and, if so,
    skips re-seeding the directory from the pristine setup copy. *)
