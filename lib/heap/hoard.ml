module Pmem = Region.Pmem

let superblock_bytes = 8192
let header_bytes = 192
let bitmap_words = 16
let max_block_bytes = 4096
let size_classes = [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]
let nclasses = List.length size_classes
let sb_magic = 0x5BL

let class_of size =
  if size <= 0 then invalid_arg "Hoard.class_of: size";
  match List.find_opt (fun c -> c >= size) size_classes with
  | Some c -> c
  | None -> invalid_arg "Hoard.class_of: larger than a superblock class"

let class_index size =
  let rec go i = function
    | [] -> assert false
    | c :: rest -> if c >= size then i else go (i + 1) rest
  in
  go 0 size_classes

let blocks_per bsize = (superblock_bytes - header_bytes) / bsize

(* Volatile per-superblock state.  The persistent bitmap is the source
   of truth for which blocks are allocated; [free_count] additionally
   discounts in-flight reservations.  [arena] implements Hoard's
   per-processor heaps: each thread allocates from its own arena's
   superblocks, so concurrent transactions do not fight over the same
   bitmap words. *)
type sb_state = {
  mutable bsize : int;  (* 0 = unassigned *)
  mutable free_count : int;
  mutable header_persisted : bool;
  mutable arena : int;
}

let narenas = 8

type t = {
  v : Pmem.view;
  alog : Alloc_log.t;
  base : int;
  count : int;
  states : sb_state array;
  avail : int list array array;
      (* [class index].[arena]: superblocks with free blocks *)
  mutable unassigned : int list;
  reserved : (int * int, unit) Hashtbl.t;  (* (superblock, block idx) *)
  mutable scanned : int;
}

type reservation = {
  addr : int;
  bitmap_addr : int;
  bit : int;
  header_write : (int * int64) option;
}

let sb_base t sb = t.base + (sb * superblock_bytes)
let header_addr t sb = sb_base t sb
let bitmap_addr_of t sb word = sb_base t sb + 8 + (8 * word)

let pack_header bsize =
  Int64.logor (Int64.shift_left sb_magic 56) (Int64.of_int bsize)

let unpack_header w =
  if Int64.shift_right_logical w 56 <> sb_magic then None
  else
    let bsize = Int64.to_int (Int64.logand w 0xffffL) in
    if List.mem bsize size_classes then Some bsize else None

let popcount =
  let rec go acc w =
    if w = 0L then acc else go (acc + 1) (Int64.logand w (Int64.sub w 1L))
  in
  fun w -> go 0 w

let make v alog ~base ~count =
  {
    v;
    alog;
    base;
    count;
    states =
      Array.init count (fun _ ->
          { bsize = 0; free_count = 0; header_persisted = false; arena = 0 });
    avail = Array.init nclasses (fun _ -> Array.make narenas []);
    unassigned = [];
    reserved = Hashtbl.create 64;
    scanned = 0;
  }

let create v alog ~base ~count =
  let t = make v alog ~base ~count in
  t.unassigned <- List.init count Fun.id;
  t

let attach v alog ~base ~count =
  let t = make v alog ~base ~count in
  for sb = count - 1 downto 0 do
    let st = t.states.(sb) in
    match unpack_header (Pmem.load v (header_addr t sb)) with
    | None -> t.unassigned <- sb :: t.unassigned
    | Some bsize ->
        st.bsize <- bsize;
        st.header_persisted <- true;
        let allocated = ref 0 in
        for w = 0 to bitmap_words - 1 do
          allocated := !allocated + popcount (Pmem.load v (bitmap_addr_of t sb w))
        done;
        st.free_count <- blocks_per bsize - !allocated;
        st.arena <- sb mod narenas;
        if st.free_count > 0 then begin
          let ci = class_index bsize in
          t.avail.(ci).(st.arena) <- sb :: t.avail.(ci).(st.arena)
        end
  done;
  t.scanned <- count;
  t

(* Find a block index that is neither set in the persistent bitmap nor
   reserved by an in-flight operation. *)
let find_free_bit t sb bsize =
  let nblocks = blocks_per bsize in
  let rec word w =
    if w >= bitmap_words then None
    else
      let persisted = Pmem.load t.v (bitmap_addr_of t sb w) in
      if persisted = -1L then word (w + 1)
      else
        let rec bit b =
          if b >= 64 then word (w + 1)
          else
            let idx = (w * 64) + b in
            if idx >= nblocks then None
            else if
              (not (Scm.Word.bit persisted b))
              && not (Hashtbl.mem t.reserved (sb, idx))
            then Some (w, b)
            else bit (b + 1)
        in
        bit 0
  in
  word 0

let assign_superblock t ci arena bsize =
  match t.unassigned with
  | [] -> None
  | sb :: rest ->
      t.unassigned <- rest;
      let st = t.states.(sb) in
      st.bsize <- bsize;
      st.free_count <- blocks_per bsize;
      st.header_persisted <- false;
      st.arena <- arena;
      t.avail.(ci).(arena) <- sb :: t.avail.(ci).(arena);
      Some sb

exception Out_of_superblocks

let reserve ?(arena = 0) t size =
  let bsize = class_of size in
  let ci = class_index bsize in
  let arena = arena mod narenas in
  let in_arena a =
    List.find_opt (fun sb -> t.states.(sb).free_count > 0) t.avail.(ci).(a)
  in
  let sb =
    (* own arena first, then a fresh superblock, then steal *)
    match in_arena arena with
    | Some sb -> sb
    | None -> (
        match assign_superblock t ci arena bsize with
        | Some sb -> sb
        | None -> (
            let rec steal a =
              if a >= narenas then raise Out_of_superblocks
              else
                match in_arena a with
                | Some sb -> sb
                | None -> steal (a + 1)
            in
            steal 0))
  in
  let st = t.states.(sb) in
  match find_free_bit t sb bsize with
  | None -> assert false  (* free_count > 0 guarantees a bit *)
  | Some (w, b) ->
      let idx = (w * 64) + b in
      Hashtbl.replace t.reserved (sb, idx) ();
      st.free_count <- st.free_count - 1;
      if st.free_count = 0 then
        t.avail.(ci).(st.arena) <-
          List.filter (fun s -> s <> sb) t.avail.(ci).(st.arena);
      {
        addr = sb_base t sb + header_bytes + (idx * bsize);
        bitmap_addr = bitmap_addr_of t sb w;
        bit = b;
        header_write =
          (if st.header_persisted then None
           else Some (header_addr t sb, pack_header bsize));
      }

let owns t addr = addr >= t.base && addr < t.base + (t.count * superblock_bytes)

let locate t addr =
  if not (owns t addr) then invalid_arg "Hoard: address outside the heap";
  let sb = (addr - t.base) / superblock_bytes in
  let st = t.states.(sb) in
  if st.bsize = 0 then invalid_arg "Hoard: address in unassigned superblock";
  let off = addr - sb_base t sb - header_bytes in
  if off < 0 || off mod st.bsize <> 0 then
    invalid_arg "Hoard: address is not a block start";
  let idx = off / st.bsize in
  if idx >= blocks_per st.bsize then invalid_arg "Hoard: block out of range";
  (sb, st, idx)

let finalize t resv =
  let sb, st, idx = locate t resv.addr in
  Hashtbl.remove t.reserved (sb, idx);
  st.header_persisted <- true

let cancel t resv =
  let sb, st, idx = locate t resv.addr in
  Hashtbl.remove t.reserved (sb, idx);
  let ci = class_index st.bsize in
  st.free_count <- st.free_count + 1;
  if st.free_count = 1 then
    t.avail.(ci).(st.arena) <- sb :: t.avail.(ci).(st.arena);
  if st.free_count = blocks_per st.bsize && not st.header_persisted then begin
    (* This reservation assigned the superblock and nothing else ever
       committed in it: return it to the unassigned pool. *)
    st.bsize <- 0;
    st.free_count <- 0;
    t.avail.(ci).(st.arena) <-
      List.filter (fun s -> s <> sb) t.avail.(ci).(st.arena);
    t.unassigned <- sb :: t.unassigned
  end

let alloc ?arena t size ~extra =
  let resv = reserve ?arena t size in
  let new_word =
    Scm.Word.set_bit (Pmem.load t.v resv.bitmap_addr) resv.bit true
  in
  let writes =
    (match resv.header_write with Some hw -> [ hw ] | None -> [])
    @ ((resv.bitmap_addr, new_word) :: extra resv.addr)
  in
  Alloc_log.commit t.alog writes;
  finalize t resv;
  resv.addr

let block_size_of t addr =
  let _, st, _ = locate t addr in
  st.bsize

let check_live t ~load addr =
  let sb, st, idx = locate t addr in
  if Hashtbl.mem t.reserved (sb, idx) then
    invalid_arg "Hoard.free: block is only reserved, not committed";
  let w = idx / 64 and b = idx mod 64 in
  let word_addr = bitmap_addr_of t sb w in
  if not (Scm.Word.bit (load word_addr) b) then
    invalid_arg "Hoard.free: block is not allocated (double free?)";
  (sb, st, word_addr, b)

let release_accounting t sb st ~allow_unassign =
  let ci = class_index st.bsize in
  st.free_count <- st.free_count + 1;
  if st.free_count = 1 then
    t.avail.(ci).(st.arena) <- sb :: t.avail.(ci).(st.arena);
  if allow_unassign && st.free_count = blocks_per st.bsize then begin
    st.bsize <- 0;
    st.free_count <- 0;
    st.header_persisted <- false;
    t.avail.(ci).(st.arena) <-
      List.filter (fun s -> s <> sb) t.avail.(ci).(st.arena);
    t.unassigned <- sb :: t.unassigned
  end

let free t addr ~extra =
  let sb, st, word_addr, b = check_live t ~load:(Pmem.load t.v) addr in
  let new_word = Scm.Word.set_bit (Pmem.load t.v word_addr) b false in
  let fully_free = st.free_count + 1 = blocks_per st.bsize in
  let writes =
    (word_addr, new_word)
    :: (if fully_free then [ (header_addr t sb, 0L) ] else [])
    @ extra
  in
  Alloc_log.commit t.alog writes;
  release_accounting t sb st ~allow_unassign:true

let free_prepare t ~load addr =
  let _, _, word_addr, b = check_live t ~load addr in
  (word_addr, b)

let free_commit t addr =
  let sb, st, _ = locate t addr in
  (* Transactional frees never unassign the superblock: the header write
     would have to ride the transaction too, and keeping the superblock
     assigned is always safe. *)
  release_accounting t sb st ~allow_unassign:false

let free_blocks_in_class t bsize =
  let ci = class_index (class_of bsize) in
  Array.fold_left
    (fun acc lst ->
      List.fold_left (fun acc sb -> acc + t.states.(sb).free_count) acc lst)
    0 t.avail.(ci)

let assigned_superblocks t =
  Array.fold_left
    (fun acc st -> if st.bsize > 0 then acc + 1 else acc)
    0 t.states

let superblocks_scanned t = t.scanned
