(* Array-backed, open-addressed cache: the per-word load/store fast
   path is a handful of array reads with zero allocation.  Line
   addresses live in a linear-probing table (power-of-two size >= 2x
   capacity, so the load factor stays under 1/2); deletion is
   backward-shift, so there are no tombstones and probes stay short.
   Line bytes live in one flat buffer of [capacity] lines indexed by
   the line's position in [members], so the buffer is exactly the
   modelled cache and moving a table entry moves only ints.

   Eviction semantics are pinned: the victim is drawn uniformly from a
   dense insertion-ordered array of resident line addresses
   ([members], maintained by append + swap-remove exactly as the
   original Hashtbl-based cache did), and the rng is consumed ONLY for
   that draw.  Crash-point indices and eviction sequences are
   therefore bit-identical to the previous implementation — the
   cache-eviction determinism test in test_scm.ml checks the sequence
   against a reference model. *)

type t = {
  dev : Scm_device.t;
  line_size : int;
  capacity : int;
  mask : int;  (* table size - 1; table size is a power of two *)
  keys : int array;  (* line base address, or -1 for an empty slot *)
  data : Bytes.t;
      (* line bytes: the line of table slot [s] is at
         [mslot.(s) * line_size], its position in [members] *)
  dirty : bool array;
  mslot : int array;  (* index of this entry's base in [members] *)
  rng : Random.State.t;
  obs : Obs.t;
  cp : Crashpoint.t;
  evict_ctr : Obs.Metrics.counter;
  mutable evictions : int;
  mutable pmcheck : Pmcheck.t option;
      (* durability sanitizer, observing lines that reach the device;
         None (the default) costs one branch per write-back *)
  (* Dense array of resident line addresses for O(1) random victim
     selection; insertion-ordered, removal swaps the last entry in. *)
  members : int array;
  mutable nmembers : int;
  (* Causal attribution: [cur_owner] is the transaction id stamped by
     the access layer before each store; dirtying a line records it in
     [owner] so a later write-back can be attributed to the
     transaction that dirtied the line.  Plain int stores — never
     simulated time, rng draws, or allocation. *)
  mutable cur_owner : int;
  owner : int array;  (* per slot; 0 = unattributed *)
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let create ?(line_size = 64) ?(capacity_lines = 8192) ?(seed = 0xcafe) ?obs
    ?cp dev =
  if line_size <= 0 || line_size land 7 <> 0 then
    invalid_arg "Cache.create: line_size";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let cp = match cp with Some c -> c | None -> Crashpoint.create () in
  let size = next_pow2 (2 * max 8 capacity_lines) 16 in
  let nmembers_max = max 16 capacity_lines in
  let t =
    {
      dev;
      line_size;
      capacity = capacity_lines;
      mask = size - 1;
      keys = Array.make size (-1);
      data = Bytes.create (nmembers_max * line_size);
      dirty = Array.make size false;
      mslot = Array.make size 0;
      rng = Random.State.make [| seed |];
      obs;
      cp;
      evict_ctr = Obs.Metrics.counter obs.Obs.metrics "scm.cache.evictions";
      evictions = 0;
      pmcheck = None;
      members = Array.make nmembers_max (-1);
      nmembers = 0;
      cur_owner = 0;
      owner = Array.make size 0;
    }
  in
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge obs.Obs.metrics "scm.cache.resident_lines")
    (fun () -> t.nmembers);
  t

let line_size t = t.line_size
let line_base t addr = addr - (addr mod t.line_size)

(* Fibonacci hashing on the line base; any mix works (the table is an
   implementation detail), it just has to spread consecutive lines. *)
let[@inline] hash t base = (base * 0x2545F4914F6CDD1D) lsr 1 land t.mask

(* Slot holding [base], or -1 if not resident. *)
let[@inline] find_slot t base =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash t base) in
  let k = ref keys.(!i) in
  while !k <> base && !k <> -1 do
    i := (!i + 1) land mask;
    k := keys.(!i)
  done;
  if !k = base then !i else -1

(* First empty slot on [base]'s probe path (caller knows it's absent). *)
let[@inline] free_slot t base =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash t base) in
  while keys.(!i) <> -1 do
    i := (!i + 1) land mask
  done;
  !i

(* Byte offset of [slot]'s line in [data]. *)
let[@inline] line_off t slot = t.mslot.(slot) * t.line_size

let member_add t base slot =
  t.members.(t.nmembers) <- base;
  t.mslot.(slot) <- t.nmembers;
  t.nmembers <- t.nmembers + 1

(* Swap-remove: the last member, and its line bytes, move into the
   vacated position. *)
let member_remove t slot =
  let ms = t.mslot.(slot) in
  let last = t.nmembers - 1 in
  let moved = t.members.(last) in
  t.members.(ms) <- moved;
  t.nmembers <- last;
  if ms <> last then begin
    let moved_slot = find_slot t moved in
    t.mslot.(moved_slot) <- ms;
    Bytes.blit t.data (last * t.line_size) t.data (ms * t.line_size)
      t.line_size
  end

(* Backward-shift deletion: walk the cluster after [slot], moving back
   any entry whose home position does not lie cyclically inside
   (hole, entry].  The line bytes stay put: the moved entry keeps its
   [mslot]. *)
let table_delete t slot =
  let mask = t.mask in
  let hole = ref slot in
  t.keys.(!hole) <- -1;
  let j = ref ((slot + 1) land mask) in
  while t.keys.(!j) <> -1 do
    let home = hash t t.keys.(!j) in
    let dist_home = (!j - home) land mask in
    let dist_hole = (!j - !hole) land mask in
    if dist_home >= dist_hole then begin
      t.keys.(!hole) <- t.keys.(!j);
      t.dirty.(!hole) <- t.dirty.(!j);
      t.owner.(!hole) <- t.owner.(!j);
      t.mslot.(!hole) <- t.mslot.(!j);
      t.keys.(!j) <- -1;
      t.dirty.(!j) <- false;
      t.owner.(!j) <- 0;
      hole := !j
    end;
    j := (!j + 1) land mask
  done

let set_pmcheck t c = t.pmcheck <- c
let set_owner t txid = t.cur_owner <- txid

let write_back t base slot =
  Crashpoint.tick t.cp Crashpoint.Cache_writeback;
  Scm_device.write_from t.dev base t.data (line_off t slot) t.line_size;
  t.dirty.(slot) <- false;
  (* Attribute the deferred write-back to the transaction that dirtied
     the line; only when tracing, so the common path stays one
     branch. *)
  if t.owner.(slot) <> 0 then begin
    if Obs.tracing t.obs then Obs.flow t.obs ~phase:`Step ~id:t.owner.(slot);
    t.owner.(slot) <- 0
  end;
  match t.pmcheck with
  | None -> ()
  | Some chk -> Pmcheck.device_reach_line chk base t.line_size

let remove_line t slot =
  member_remove t slot;
  table_delete t slot

let evict_one t =
  if t.nmembers > 0 then begin
    let victim = t.members.(Random.State.int t.rng t.nmembers) in
    let slot = find_slot t victim in
    if t.dirty.(slot) then write_back t victim slot;
    remove_line t slot;
    t.evictions <- t.evictions + 1;
    Obs.Metrics.incr t.evict_ctr;
    Obs.instant t.obs Obs.Trace.Cache_evict ~arg:victim
  end

(* Returns the slot of [addr]'s line, filling it on a miss. *)
let get_line t base =
  let slot = find_slot t base in
  if slot >= 0 then slot
  else begin
    if t.nmembers >= t.capacity then evict_one t;
    let slot = free_slot t base in
    t.keys.(slot) <- base;
    t.dirty.(slot) <- false;
    t.owner.(slot) <- 0;
    member_add t base slot;
    Scm_device.read_into t.dev base t.data (line_off t slot) t.line_size;
    slot
  end

let read_word t addr =
  let base = line_base t addr in
  let slot = get_line t base in
  Word.get t.data (line_off t slot + addr - base)

(* Coherent read that never allocates a line (an uncached/non-temporal
   load): resident lines answer from the cache, everything else reads
   the device directly.  Recovery-time sweeps use this so scanning a
   whole region does not evict the working set or consume the eviction
   rng. *)
let peek_word t addr =
  let base = line_base t addr in
  let slot = find_slot t base in
  if slot >= 0 then Word.get t.data (line_off t slot + addr - base)
  else Scm_device.load64 t.dev (addr - (addr mod 8))

(* [peek_word] over a span within one line, with one probe. *)
let peek_into t addr dst off nbytes =
  let base = line_base t addr in
  if nbytes < 0 || addr - base + nbytes > t.line_size then
    invalid_arg "Cache.peek_into: span crosses a line";
  let slot = find_slot t base in
  if slot >= 0 then
    Bytes.blit t.data (line_off t slot + addr - base) dst off nbytes
  else Scm_device.read_into t.dev addr dst off nbytes

let write_word t addr v =
  let base = line_base t addr in
  let slot = get_line t base in
  Word.set t.data (line_off t slot + addr - base) v;
  t.dirty.(slot) <- true;
  t.owner.(slot) <- t.cur_owner

let rec read_into t addr buf off len =
  if len > 0 then begin
    let base = line_base t addr in
    let slot = get_line t base in
    let within = addr - base in
    let n = min len (t.line_size - within) in
    Bytes.blit t.data (line_off t slot + within) buf off n;
    read_into t (addr + n) buf (off + n) (len - n)
  end

let rec write_from t addr buf off len =
  if len > 0 then begin
    let base = line_base t addr in
    let slot = get_line t base in
    let within = addr - base in
    let n = min len (t.line_size - within) in
    Bytes.blit buf off t.data (line_off t slot + within) n;
    t.dirty.(slot) <- true;
    t.owner.(slot) <- t.cur_owner;
    write_from t (addr + n) buf (off + n) (len - n)
  end

let flush_line t addr =
  let base = line_base t addr in
  let slot = find_slot t base in
  if slot < 0 then false
  else begin
    let was_dirty = t.dirty.(slot) in
    if was_dirty then write_back t base slot;
    remove_line t slot;
    was_dirty
  end

let invalidate_line t addr =
  let base = line_base t addr in
  let slot = find_slot t base in
  if slot >= 0 then remove_line t slot

let is_dirty t addr =
  let slot = find_slot t (line_base t addr) in
  slot >= 0 && t.dirty.(slot)

(* Write-back (if dirty) and invalidate in one probe: the streaming
   store path runs this per word, and probing once instead of three
   times (is_dirty / writeback_line / invalidate_line) is visible on
   the commit microbench.  Semantics and crash-tick sequence are
   exactly the composition of those three calls. *)
let wt_invalidate t addr =
  let base = line_base t addr in
  let slot = find_slot t base in
  if slot >= 0 then begin
    if t.dirty.(slot) then write_back t base slot;
    remove_line t slot
  end

let dirty_lines t =
  let acc = ref [] in
  for m = t.nmembers - 1 downto 0 do
    let base = t.members.(m) in
    if t.dirty.(find_slot t base) then acc := base :: !acc
  done;
  List.sort (fun (a : int) b -> compare a b) !acc

let resident_lines t = t.nmembers
let evictions t = t.evictions

let writeback_line t addr =
  let base = line_base t addr in
  let slot = find_slot t base in
  if slot >= 0 && t.dirty.(slot) then write_back t base slot

let drop_all t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.nmembers <- 0
