(* The volatile lock array, optionally striped.

   A stripe owns its own entries: in a real runtime each stripe lives
   on its own cache lines, so threads working disjoint address ranges
   stop false-sharing lock metadata.  Adjacent 64-byte lines map to
   *different* stripes (the stripe index comes from the low line bits),
   and each stripe strides over the address space with its own entries
   — so striping also multiplies the total entry count, pushing the
   aliasing wrap out by the stripe factor.

   With [stripes = 1] (the default) the handle returned by
   {!index_of} is exactly the historical [(addr lsr 6) land mask]:
   every schedule, sim figure and regression trace recorded against
   the flat table replays unchanged.

   Each entry also carries:
   - [addr]: the address the current owner acquired it for — a
     conflicting acquirer with a *different* address never touched
     common data; the table aliased them together (a false conflict,
     which {!aliased} exposes so the STM can count them);
   - [rts]: the largest commit timestamp any validated reader has
     ordered itself at.  With leased (out-of-arrival-order) commit
     timestamps a writer must publish a version above every reader
     that already serialized against the old version; [rts] is where
     readers leave that watermark (TicToc-style). *)

(* Storage is paid for by touch, not by geometry.  The entries live in
   chunks of up to 4096 with the four fields interleaved (version,
   owner, addr, rts), reached through one flat directory indexed by
   [(chunk lsl sbits) lor stripe].  Every directory slot starts out as
   the one shared, never-written [default] chunk, which reads as a free
   entry (0, -1, 0, 0), so reads take no branch; the first write to a
   chunk copies it.  A run touching a few hundred lines allocates a few
   chunks, not 4 words per entry of the whole table. *)

let chunk_max_bits = 12

let default =
  Array.init (4 lsl chunk_max_bits) (fun i -> if i land 3 = 1 then -1 else 0)

type t = {
  dir : int array array;
  sbits : int; (* log2 stripes *)
  smask : int;
  mask : int; (* per-stripe entry count - 1 *)
  cbits : int; (* log2 entries per chunk *)
  cmask : int;
  cshift : int; (* sbits + cbits *)
  mutable race : Race_api.hooks option;
      (* Every entry is a single-word CAS-able atomic in a real
         runtime: acquisition is an rmw, releases publish, reads
         acquire.  Each entry is its own sync object, so HB flows
         per-stripe-entry, never through the table as a whole
         (DESIGN.md section 18). *)
}

let create ?(bits = 18) ?(stripes = 1) () =
  if stripes < 1 || stripes land (stripes - 1) <> 0 then
    invalid_arg "Lock_table.create: stripes must be a power of two";
  let sbits =
    let rec log2 acc = function 1 -> acc | k -> log2 (acc + 1) (k lsr 1) in
    log2 0 stripes
  in
  let cbits = min bits chunk_max_bits in
  {
    dir = Array.make (stripes lsl (bits - cbits)) default;
    sbits;
    smask = stripes - 1;
    mask = (1 lsl bits) - 1;
    cbits;
    cmask = (1 lsl cbits) - 1;
    cshift = sbits + cbits;
    race = None;
  }

let set_race t h = t.race <- h

let[@inline] entry_label h = "mtm.lock." ^ string_of_int h

let[@inline] race_acq t h =
  match t.race with
  | None -> ()
  | Some hk -> hk.Race_api.acquire (entry_label h)

let[@inline] race_rel t h =
  match t.race with
  | None -> ()
  | Some hk -> hk.Race_api.release (entry_label h)

let[@inline] race_rmw t h =
  match t.race with
  | None -> ()
  | Some hk -> hk.Race_api.rmw (entry_label h)

(* Each lock covers one 64-byte line of the address space (the paper:
   "each lock covering a portion of the address space").  Range
   striding, not hashing: contiguous writes take contiguous locks, so a
   large write set occupies few entries and disjoint structures rarely
   false-conflict.  The handle packs (entry, stripe); with one stripe
   it degenerates to the flat index. *)
let[@inline] index_of t addr =
  let line = addr lsr 6 in
  let s = line land t.smask in
  let slot = (line lsr t.sbits) land t.mask in
  (slot lsl t.sbits) lor s

(* Directory slot and field offset of handle [h]'s entry. *)
let[@inline] chunk_of t h =
  ((h lsr t.cshift) lsl t.sbits) lor (h land t.smask)

let[@inline] base_of t h = ((h lsr t.sbits) land t.cmask) lsl 2
let[@inline] get t h field = t.dir.(chunk_of t h).(base_of t h + field)

let copy_default t d =
  let c = Array.sub default 0 (4 lsl t.cbits) in
  t.dir.(d) <- c;
  c

let[@inline] writable t h =
  let d = chunk_of t h in
  let c = t.dir.(d) in
  if c != default then c else copy_default t d

let[@inline] version t h =
  race_acq t h;
  get t h 0

let[@inline] owner t h =
  race_acq t h;
  get t h 1

let[@inline] held_addr t h =
  race_acq t h;
  get t h 2

let[@inline] rts t h =
  race_acq t h;
  get t h 3

(* Only meaningful while the entry is held: conflicts are attributed at
   the moment they are observed, against the current owner. *)
let[@inline] aliased t h ~addr =
  let held = held_addr t h in
  held <> 0 && held <> addr

let[@inline] try_acquire t h ~owner ~addr =
  let d = chunk_of t h and i = base_of t h in
  let c = t.dir.(d) in
  let o = c.(i + 1) in
  if o = -1 then begin
    race_rmw t h;
    let c = if c != default then c else copy_default t d in
    c.(i + 1) <- owner;
    c.(i + 2) <- addr;
    true
  end
  else begin
    (* A failed (or re-entrant) probe still reads the word. *)
    race_acq t h;
    o = owner
  end

let[@inline] release t h =
  race_rel t h;
  (writable t h).(base_of t h + 1) <- -1

let[@inline] release_versioned t h ~version =
  race_rel t h;
  let c = writable t h in
  let i = base_of t h in
  c.(i) <- version;
  c.(i + 1) <- -1

(* Reader watermark: monotone, bumped inside the same atomic
   (yield-free) step as the validation that justifies it. *)
let[@inline] bump_rts t h v =
  race_rmw t h;
  if get t h 3 < v then (writable t h).(base_of t h + 3) <- v

let stripes t = t.smask + 1
let entries t = (t.mask + 1) * (t.smask + 1)
