open struct
  module P = Scm.Primitives
end

type region = { base : int; len : int; inode : int; slot : int }

type t = {
  mgr : Manager.t;
  backing : Backing_store.t;
  mutable regions : region list;  (* sorted by base, ascending *)
  by_inode : (int, region) Hashtbl.t;
  vpage_cache : Scm.Imap.Int.t;  (* vpage -> frame *)
  (* one-entry memo in front of [vpage_cache]: consecutive accesses
     overwhelmingly hit the same page, and a field compare beats even
     one table probe.  Must be dropped wherever a vpage_cache entry is
     removed. *)
  mutable memo_vpage : int;
  mutable memo_frame : int;
  mutable peek_inode : int;
  mutable peek_page_off : int;
  peek_buf : Bytes.t;
      (* one-page memo for {!load_nt} reads of non-resident pages:
         [peek_buf] holds page [peek_page_off] of [peek_inode] (-1 =
         empty).  Stale the moment the page regains and then loses a
         frame, so the eviction hook drops it. *)
  mutable next_dyn : int;
  default_env : Scm.Env.t;
  mutable remap_ns : int;
}

type view = { pmem : t; env : Scm.Env.t }

let manager t = t.mgr
let view t env = { pmem = t; env }
let default_view t = { pmem = t; env = t.default_env }
let remap_ns t = t.remap_ns
let is_persistent = Layout.is_persistent

(* ------------------------------------------------------------------ *)
(* Region bookkeeping                                                  *)

let register t r =
  t.regions <-
    List.sort (fun a b -> compare a.base b.base) (r :: t.regions);
  Hashtbl.replace t.by_inode r.inode r

let unregister t r =
  t.regions <- List.filter (fun r' -> r'.base <> r.base) t.regions;
  Hashtbl.remove t.by_inode r.inode;
  t.memo_vpage <- -1;
  let first = Layout.page_of r.base in
  let last = Layout.page_of (r.base + r.len - 1) in
  for vpage = first to last do
    Scm.Imap.Int.remove t.vpage_cache vpage
  done

let find_region t addr =
  let rec search = function
    | [] ->
        invalid_arg
          (Printf.sprintf "Pmem: address %#x is not in any persistent region"
             addr)
    | r :: rest ->
        if addr >= r.base && addr < r.base + r.len then r else search rest
  in
  search t.regions

let region_containing t addr =
  match List.find_opt (fun r -> addr >= r.base && addr < r.base + r.len)
          t.regions with
  | Some r -> Some (r.base, r.len)
  | None -> None

let regions t =
  List.filter_map
    (fun r ->
      if r.base = Layout.static_base then None else Some (r.base, r.len))
    t.regions

(* ------------------------------------------------------------------ *)
(* Address translation                                                 *)

(* The durability sanitizer (if installed) shadows words by VIRTUAL
   address; device-level hooks see physical frames, so every mapping
   this layer installs is reported to keep its reverse map current. *)
let[@inline] pmchk (v : view) = v.env.Scm.Env.machine.Scm.Env.pmcheck

let translate v addr =
  let t = v.pmem in
  if not (Layout.is_persistent addr) then
    invalid_arg (Printf.sprintf "Pmem: %#x is not a persistent address" addr);
  let vpage = Layout.page_of addr in
  let frame =
    if vpage = t.memo_vpage then t.memo_frame
    else begin
      let frame = Scm.Imap.Int.find t.vpage_cache vpage in
      let frame =
        if frame >= 0 then frame
        else begin
          let r = find_region t addr in
          let page_off = vpage - Layout.page_of r.base in
          let frame = Manager.fault_in t.mgr v.env ~inode:r.inode ~page_off in
          Scm.Imap.Int.set t.vpage_cache vpage frame;
          (match pmchk v with
          | None -> ()
          | Some chk -> Scm.Pmcheck.note_mapping chk ~vpage ~frame);
          frame
        end
      in
      t.memo_vpage <- vpage;
      t.memo_frame <- frame;
      frame
    end
  in
  (frame * Layout.page_size) + (addr land (Layout.page_size - 1))

let load v addr =
  (match pmchk v with
  | None -> ()
  | Some chk -> Scm.Pmcheck.check_load chk (addr land lnot 7));
  P.load v.env (translate v addr)

(* Non-temporal loads must not fault pages in.  A recovery-time sweep
   over a whole region would otherwise pull every page of the region
   into SCM at attach time — charging page I/O and consuming frames the
   working set never asked for.  A page that is not resident has its
   authoritative copy in the backing file, so it is read from there
   into the peek buffer without installing a frame.

   Resolves [addr]'s page for such a read: its frame when resident
   (installing the translation), else -1 with the page in [peek_buf]. *)
let nt_frame v addr =
  let t = v.pmem in
  if not (Layout.is_persistent addr) then
    invalid_arg (Printf.sprintf "Pmem: %#x is not a persistent address" addr);
  let vpage = Layout.page_of addr in
  let r = find_region t addr in
  let page_off = vpage - Layout.page_of r.base in
  match Manager.frame_of t.mgr ~inode:r.inode ~page_off with
  | Some frame ->
      Scm.Imap.Int.set t.vpage_cache vpage frame;
      (match pmchk v with
      | None -> ()
      | Some chk -> Scm.Pmcheck.note_mapping chk ~vpage ~frame);
      frame
  | None ->
      if t.peek_inode <> r.inode || t.peek_page_off <> page_off then begin
        t.peek_inode <- -1;
        Backing_store.read_page t.backing r.inode page_off t.peek_buf;
        t.peek_inode <- r.inode;
        t.peek_page_off <- page_off
      end;
      -1

let load_nt v addr =
  let frame = nt_frame v addr in
  let within = addr land (Layout.page_size - 1) in
  if frame >= 0 then P.load_nt v.env ((frame * Layout.page_size) + within)
  else Scm.Word.get v.pmem.peek_buf within

let load_nt_into v addr dst off nwords =
  let within = addr land (Layout.page_size - 1) in
  if nwords < 0 || within + (8 * nwords) > Layout.page_size then
    invalid_arg "Pmem.load_nt_into: span crosses a page";
  if nwords > 0 then begin
    let frame = nt_frame v addr in
    if frame >= 0 then
      P.load_nt_into v.env ((frame * Layout.page_size) + within) dst off nwords
    else Bytes.blit v.pmem.peek_buf within dst off (8 * nwords)
  end

let store v addr x =
  (match pmchk v with
  | None -> ()
  | Some chk -> Scm.Pmcheck.check_store chk (addr land lnot 7));
  P.store v.env (translate v addr) x

let wtstore v addr x =
  (match pmchk v with
  | None -> ()
  | Some chk -> Scm.Pmcheck.note_wtstore chk (addr land lnot 7));
  P.wtstore v.env (translate v addr) x
let flush v addr = P.flush v.env (translate v addr)
let fence v = P.fence v.env
let fence_many vs = P.fence_group (List.map (fun v -> v.env) vs)

(* Byte ranges may span pages; physical contiguity holds only within a
   page, so chunk at page boundaries. *)
let by_page v addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let in_page = Layout.page_size - (a land (Layout.page_size - 1)) in
    let n = min in_page (len - !pos) in
    f (translate v a) !pos n;
    pos := !pos + n
  done

(* Sanitizer hook for byte ranges: one shadow event per covered word,
   matching how the range reaches the device (word posts for streaming
   stores, line write-backs for cached ones). *)
let each_word addr len f =
  if len > 0 then begin
    let first = addr land lnot 7 in
    let last = (addr + len - 1) land lnot 7 in
    let a = ref first in
    while !a <= last do
      f !a;
      a := !a + 8
    done
  end

let load_bytes v addr buf off len =
  (match pmchk v with
  | None -> ()
  | Some chk -> each_word addr len (Scm.Pmcheck.check_load chk));
  by_page v addr len (fun pa rel n -> P.load_bytes v.env pa buf (off + rel) n)

let store_bytes v addr buf off len =
  (match pmchk v with
  | None -> ()
  | Some chk -> each_word addr len (Scm.Pmcheck.check_store chk));
  by_page v addr len (fun pa rel n -> P.store_bytes v.env pa buf (off + rel) n)

let wtstore_bytes v addr buf off len =
  (match pmchk v with
  | None -> ()
  | Some chk -> each_word addr len (Scm.Pmcheck.note_wtstore chk));
  by_page v addr len (fun pa rel n ->
      P.wtstore_bytes v.env pa buf (off + rel) n)

let persist v addr len =
  by_page v addr len (fun pa _ n ->
      let line = 64 in
      let first = pa land lnot (line - 1) in
      let last = (pa + n - 1) land lnot (line - 1) in
      let a = ref first in
      while !a <= last do
        P.flush v.env !a;
        a := !a + line
      done);
  P.fence v.env

(* ------------------------------------------------------------------ *)
(* Region table: 16 KiB at the base of the static region.              *)

let rt_magic = 0x4D4E4552_54424C31L
let rt_header_bytes = 64
let rt_entry_bytes = 32

let rt_capacity =
  (Layout.region_table_size - rt_header_bytes) / rt_entry_bytes

let entry_addr i =
  Layout.region_table_base + rt_header_bytes + (i * rt_entry_bytes)

let flag_intent = 1L
let flag_valid = 3L  (* intent | valid *)

let rt_read_entry v i =
  let a = entry_addr i in
  ( Int64.to_int (load v a),
    Int64.to_int (load v (a + 8)),
    Int64.to_int (load v (a + 16)),
    load v (a + 24) )

let rt_write_entry v i ~base ~len ~inode ~flags =
  let a = entry_addr i in
  wtstore v a (Int64.of_int base);
  wtstore v (a + 8) (Int64.of_int len);
  wtstore v (a + 16) (Int64.of_int inode);
  fence v;
  wtstore v (a + 24) flags;
  fence v

let rt_set_flags v i flags =
  wtstore v (entry_addr i + 24) flags;
  fence v

let rt_find_free_slot v =
  let rec go i =
    if i >= rt_capacity then failwith "Pmem: region table full"
    else
      let _, _, _, flags = rt_read_entry v i in
      if flags = 0L then i else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Instance bring-up                                                   *)

let open_instance machine backing =
  let mgr =
    match Manager.boot machine backing with
    | mgr -> mgr
    | exception Failure _ -> Manager.format machine backing
  in
  let default_env = Scm.Env.standalone machine in
  let fresh_static = Backing_store.find backing "static" = None in
  let static_inode =
    match Backing_store.find backing "static" with
    | Some i -> i
    | None -> Backing_store.create_file backing ~name:"static" ()
  in
  let t =
    {
      mgr;
      backing;
      regions = [];
      by_inode = Hashtbl.create 16;
      vpage_cache = Scm.Imap.Int.create ~initial:1024 ();
      memo_vpage = -1;
      memo_frame = 0;
      peek_inode = -1;
      peek_page_off = -1;
      peek_buf = Bytes.create Layout.page_size;
      next_dyn = Layout.dynamic_base;
      default_env;
      remap_ns = 0;
    }
  in
  Manager.on_evict mgr (fun ~inode ~page_off ->
      if t.peek_inode = inode && t.peek_page_off = page_off then
        t.peek_inode <- -1;
      match Hashtbl.find_opt t.by_inode inode with
      | None -> ()
      | Some r ->
          let vpage = Layout.page_of r.base + page_off in
          if vpage = t.memo_vpage then t.memo_vpage <- -1;
          Scm.Imap.Int.remove t.vpage_cache vpage);
  register t
    {
      base = Layout.static_base;
      len = Layout.static_size;
      inode = static_inode;
      slot = -1;
    };
  let v = default_view t in
  (* Initialize or validate the region table. *)
  if fresh_static || load v Layout.region_table_base <> rt_magic then begin
    for i = 0 to rt_capacity - 1 do
      rt_write_entry v i ~base:0 ~len:0 ~inode:0 ~flags:0L
    done;
    wtstore v (Layout.region_table_base + 8) (Int64.of_int rt_capacity);
    wtstore v Layout.region_table_base rt_magic;
    fence v
  end;
  (* Replay the intention log: recreate completed regions, destroy the
     partially created (paper section 4.2). *)
  let live_inodes = ref [ static_inode ] in
  for i = 0 to rt_capacity - 1 do
    let base, len, inode, flags = rt_read_entry v i in
    if flags = flag_valid then begin
      register t { base; len; inode; slot = i };
      live_inodes := inode :: !live_inodes;
      t.next_dyn <- max t.next_dyn (base + len)
    end
    else if flags = flag_intent then begin
      if inode > 0 && Backing_store.file_exists backing inode then
        Backing_store.delete_file backing inode;
      rt_write_entry v i ~base:0 ~len:0 ~inode:0 ~flags:0L
    end
  done;
  (* Garbage-collect orphaned backing files (a crash between file
     creation and the intent record). *)
  List.iter
    (fun inode ->
      if not (List.mem inode !live_inodes) then
        Backing_store.delete_file backing inode)
    (Backing_store.list_inodes backing);
  (* Modeled process-restart remap cost (paper section 6.3.2). *)
  t.remap_ns <- 400_000 + (60_000 * List.length t.regions);
  t

(* ------------------------------------------------------------------ *)
(* pmap / punmap                                                       *)

let pmap v ?addr len =
  let t = v.pmem in
  if len <= 0 then invalid_arg "Pmem.pmap: length";
  let len = Layout.pages_for len * Layout.page_size in
  let base =
    match addr with
    | Some a ->
        if a land (Layout.page_size - 1) <> 0 then
          invalid_arg "Pmem.pmap: unaligned address";
        if not (Layout.is_persistent a) then
          invalid_arg "Pmem.pmap: address outside the persistent range";
        (match region_containing t a with
        | Some _ -> invalid_arg "Pmem.pmap: address already mapped"
        | None -> a)
    | None -> t.next_dyn
  in
  let slot = rt_find_free_slot v in
  let inode = Backing_store.create_file t.backing () in
  rt_write_entry v slot ~base ~len ~inode ~flags:flag_intent;
  register t { base; len; inode; slot };
  rt_set_flags v slot flag_valid;
  t.next_dyn <- max t.next_dyn (base + len);
  base

let punmap v addr =
  let t = v.pmem in
  let r = find_region t addr in
  if r.base = Layout.static_base then
    invalid_arg "Pmem.punmap: cannot unmap the static region";
  if r.base <> addr then
    invalid_arg "Pmem.punmap: address is not a region base";
  rt_set_flags v r.slot 0L;
  Manager.release_pages t.mgr v.env ~inode:r.inode;
  Backing_store.delete_file t.backing r.inode;
  unregister t r

let wear_level ?max_moves (v : view) ~threshold =
  Manager.wear_level v.pmem.mgr ?max_moves v.env ~threshold

let close v =
  let t = v.pmem in
  List.iter
    (fun r -> Manager.sync_to_backing t.mgr v.env ~inode:r.inode)
    t.regions;
  Backing_store.sync t.backing
