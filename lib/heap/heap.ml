module Pmem = Region.Pmem

let magic = 0x4D4E4548_45415031L
let header_page = 4096

let alog_bytes =
  Region.Layout.pages_for Alloc_log.region_bytes * Region.Layout.page_size

type reincarnation = {
  log_records_replayed : int;
  superblocks_scanned : int;
  large_chunks_scanned : int;
  scavenge_ns : int;
}

type t = {
  v : Pmem.view;
  base : int;
  hoard : Hoard.t;
  large : Large_alloc.t;
  mutable exclusion : (unit -> unit) -> unit;
  reincarnation : reincarnation;
  obs : Obs.t;
  alloc_ctr : Obs.Metrics.counter;
  free_ctr : Obs.Metrics.counter;
}

let obs_fields v =
  let obs = v.Pmem.env.Scm.Env.machine.Scm.Env.obs in
  ( obs,
    Obs.Metrics.counter obs.Obs.metrics "heap.allocs",
    Obs.Metrics.counter obs.Obs.metrics "heap.frees" )

let region_bytes_for ~superblocks ~large_bytes =
  header_page + alog_bytes
  + (superblocks * Hoard.superblock_bytes)
  + ((large_bytes + 7) land lnot 7)

let sb_count_addr base = base + 8
let large_len_addr base = base + 16

let alog_base base = base + header_page
let sb_area_base base = alog_base base + alog_bytes

let no_reincarnation =
  {
    log_records_replayed = 0;
    superblocks_scanned = 0;
    large_chunks_scanned = 0;
    scavenge_ns = 0;
  }

let create v ~base ~superblocks ~large_bytes =
  if superblocks < 1 then invalid_arg "Heap.create: superblocks";
  let large_bytes = (large_bytes + 7) land lnot 7 in
  if large_bytes < Large_alloc.min_chunk_bytes then
    invalid_arg "Heap.create: large area too small";
  let alog = Alloc_log.create v ~base:(alog_base base) in
  let hoard = Hoard.create v alog ~base:(sb_area_base base) ~count:superblocks in
  let large_base = sb_area_base base + (superblocks * Hoard.superblock_bytes) in
  let large = Large_alloc.create v alog ~base:large_base ~len:large_bytes in
  Pmem.wtstore v (sb_count_addr base) (Int64.of_int superblocks);
  Pmem.wtstore v (large_len_addr base) (Int64.of_int large_bytes);
  Pmem.fence v;
  Pmem.wtstore v base magic;
  Pmem.fence v;
  let obs, alloc_ctr, free_ctr = obs_fields v in
  { v; base; hoard; large; exclusion = (fun f -> f ());
    reincarnation = no_reincarnation; obs; alloc_ctr; free_ctr }

let attach v ~base =
  if Pmem.load v base <> magic then failwith "Heap.attach: no heap here";
  let superblocks = Int64.to_int (Pmem.load v (sb_count_addr base)) in
  let large_bytes = Int64.to_int (Pmem.load v (large_len_addr base)) in
  let alog, replayed = Alloc_log.attach v ~base:(alog_base base) in
  let hoard = Hoard.attach v alog ~base:(sb_area_base base) ~count:superblocks in
  let large_base = sb_area_base base + (superblocks * Hoard.superblock_bytes) in
  let large = Large_alloc.attach v alog ~base:large_base ~len:large_bytes in
  (* Model the scavenge cost: the paper attributes its ~89 ms mostly to
     rebuilding the heap's volatile indexes at process start. *)
  let scavenge_ns =
    (Hoard.superblocks_scanned hoard * 2_000)
    + (Large_alloc.chunks_scanned large * 400)
    + (replayed * 1_000)
  in
  v.env.Scm.Env.delay scavenge_ns;
  let obs, alloc_ctr, free_ctr = obs_fields v in
  {
    v;
    base;
    hoard;
    large;
    exclusion = (fun f -> f ());
    obs;
    alloc_ctr;
    free_ctr;
    reincarnation =
      {
        log_records_replayed = replayed;
        superblocks_scanned = Hoard.superblocks_scanned hoard;
        large_chunks_scanned = Large_alloc.chunks_scanned large;
        scavenge_ns;
      };
  }

exception Out_of_superblocks = Hoard.Out_of_superblocks

let set_exclusion t f = t.exclusion <- f
let reincarnation t = t.reincarnation
let base t = t.base

let excl t f =
  let result = ref None in
  t.exclusion (fun () -> result := Some (f ()));
  match !result with Some r -> r | None -> assert false

let alloc ?arena t size ~extra =
  if size <= 0 then invalid_arg "Heap.pmalloc: size";
  Obs.Metrics.incr t.alloc_ctr;
  Obs.instant_at t.obs Obs.Trace.Heap_alloc
    ~ts:(t.v.Pmem.env.Scm.Env.now ()) ~arg:size;
  if size <= Hoard.max_block_bytes then Hoard.alloc ?arena t.hoard size ~extra
  else Large_alloc.alloc t.large size ~extra

let free t addr ~extra =
  Obs.Metrics.incr t.free_ctr;
  Obs.instant_at t.obs Obs.Trace.Heap_free
    ~ts:(t.v.Pmem.env.Scm.Env.now ()) ~arg:addr;
  if Hoard.owns t.hoard addr then Hoard.free t.hoard addr ~extra
  else if Large_alloc.owns t.large addr then
    Large_alloc.free t.large addr ~extra
  else invalid_arg "Heap.pfree: address not in this heap"

let pmalloc t size ~slot =
  excl t (fun () ->
      alloc t size ~extra:(fun addr -> [ (slot, Int64.of_int addr) ]))

let pfree t ~slot =
  excl t (fun () ->
      let addr = Int64.to_int (Pmem.load t.v slot) in
      if addr = 0 then invalid_arg "Heap.pfree: slot holds no block";
      free t addr ~extra:[ (slot, 0L) ])

let pmalloc_raw t size = excl t (fun () -> alloc t size ~extra:(fun _ -> []))
let pfree_raw t addr = excl t (fun () -> free t addr ~extra:[])

let block_bytes t addr =
  if Hoard.owns t.hoard addr then Hoard.block_size_of t.hoard addr
  else Large_alloc.payload_size_of t.large addr

let small_limit = Hoard.max_block_bytes

let reserve_small ?arena t size =
  excl t (fun () -> Hoard.reserve ?arena t.hoard size)
let finalize_small t resv = excl t (fun () -> Hoard.finalize t.hoard resv)
let cancel_small t resv = excl t (fun () -> Hoard.cancel t.hoard resv)
let owns_small t addr = Hoard.owns t.hoard addr

let free_prepare_small t ~load addr =
  excl t (fun () -> Hoard.free_prepare t.hoard ~load addr)

let free_commit_small t addr = excl t (fun () -> Hoard.free_commit t.hoard addr)

type occupancy = {
  superblocks : int;
  assigned_superblocks : int;
  large_bytes : int;
  large_free_bytes : int;
}

let occupancy t =
  {
    superblocks = Int64.to_int (Pmem.load t.v (sb_count_addr t.base));
    assigned_superblocks = Hoard.assigned_superblocks t.hoard;
    large_bytes = Int64.to_int (Pmem.load t.v (large_len_addr t.base));
    large_free_bytes = Large_alloc.free_bytes t.large;
  }
