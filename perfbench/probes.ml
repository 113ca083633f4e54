(* Layer probes for the traced run: bechamel microbenchmarks of single
   layer entry points, fed inputs shaped like the workload the figure is
   attributed to.  Every figure is host nanoseconds per operation,
   except [pstruct.sim_ns_per_put] (simulated) and
   [explore.setup_ms_per_schedule] (host milliseconds, timed directly:
   one set-up is too slow for bechamel's sampling). *)

open Util

type shape = {
  fibers : int;  (* Sim fibers the workload runs *)
  footprint_words : int;  (* words of persistent memory it touches *)
  write_pct : int;  (* share of its cache accesses that are writes *)
  record_words : int;  (* typical redo record appended per commit *)
  log_cap_words : int;
  lock_stripes : int;
  lease : int;
}

(* Serve's request shape: 128-byte values into per-tenant B+ trees of
   the reference step's population. *)
let value_bytes = 128
let users = 50_000
let tree_population = 512
let sim_puts = 256
let accesses = 1024

let estimate ~quota tests =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:false ~quota:(Time.second quota) ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"p" tests) in
  let results = Analyze.all ols instance raw in
  fun name ->
    match Hashtbl.find_opt results ("p/" ^ name) with
    | Some r -> (
        match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> nan)
    | None -> nan

let run ~dir ~seed ~quota shape =
  let open Bechamel in
  reset_dir dir;
  let inst = Mnemosyne.open_instance ~geometry ~seed ~dir () in
  let view = Mnemosyne.view inst in
  let env = view.Region.Pmem.env in
  let rng = Random.State.make [| seed; 0x9b |] in
  (* The workload's footprint as a mapped region: word addresses for
     the region probe, their physical addresses for the cache probe. *)
  let region = Mnemosyne.pmap inst (8 * shape.footprint_words) in
  let vaddrs =
    Array.init accesses (fun _ ->
        region + (8 * Random.State.int rng shape.footprint_words))
  in
  let paddrs = Array.map (Region.Pmem.translate view) vaddrs in
  let is_write = Array.init accesses (fun _ -> Random.State.int rng 100 < shape.write_pct) in
  let cache = (Mnemosyne.machine inst).Scm.Env.cache in
  let sim_delay =
    Test.make ~name:"sim"
      (Staged.stage (fun () ->
           let sim = Sim.create () in
           for k = 1 to shape.fibers do
             Sim.spawn sim (fun () ->
                 for j = 1 to 64 do
                   Sim.delay sim (1 + ((k + j) mod 7))
                 done)
           done;
           Sim.run sim))
  in
  let cache_access =
    Test.make ~name:"cache"
      (Staged.stage (fun () ->
           for i = 0 to accesses - 1 do
             if is_write.(i) then Scm.Cache.write_word cache paddrs.(i) 1L
             else ignore (Scm.Cache.read_word cache paddrs.(i))
           done))
  in
  let translate =
    Test.make ~name:"translate"
      (Staged.stage (fun () ->
           for i = 0 to accesses - 1 do
             ignore (Region.Pmem.translate view vaddrs.(i))
           done))
  in
  let log =
    let base = Mnemosyne.pmap inst (Pmlog.Rawl.region_bytes_for ~cap_words:shape.log_cap_words) in
    let rawl = Pmlog.Rawl.create view ~base ~cap_words:shape.log_cap_words in
    let record = Array.init shape.record_words (fun i -> Int64.of_int (i * 977)) in
    Test.make ~name:"append"
      (Staged.stage (fun () ->
           match Pmlog.Rawl.append rawl record with
           | Pmlog.Rawl.Appended _ -> ()
           | Pmlog.Rawl.Full ->
               Pmlog.Rawl.truncate_all rawl;
               ignore (Pmlog.Rawl.append rawl record)))
  in
  let locks = Mtm.Lock_table.create ~stripes:shape.lock_stripes () in
  let handles = Array.map (Mtm.Lock_table.index_of locks) vaddrs in
  let lock =
    Test.make ~name:"lock"
      (Staged.stage (fun () ->
           for i = 0 to accesses - 1 do
             if Mtm.Lock_table.try_acquire locks handles.(i) ~owner:1 ~addr:vaddrs.(i)
             then Mtm.Lock_table.release locks handles.(i)
           done))
  in
  let ts = Mtm.Timestamp.create () and lease = Mtm.Timestamp.lease_create () in
  let ts_draw =
    Test.make ~name:"ts"
      (Staged.stage (fun () ->
           for _ = 1 to accesses do
             ignore (Mtm.Timestamp.draw ts env lease ~size:shape.lease ~floor:0)
           done))
  in
  let heap = Mnemosyne.heap inst in
  let blocks = Array.make 16 0 in
  let alloc =
    Test.make ~name:"alloc"
      (Staged.stage (fun () ->
           for i = 0 to 15 do
             blocks.(i) <-
               Pmheap.Heap.pmalloc_raw heap
                 (if i land 1 = 0 then value_bytes else Pstruct.Bp_tree.node_bytes)
           done;
           Array.iter (Pmheap.Heap.pfree_raw heap) blocks))
  in
  (* B+ tree put: the simulated cost is measured once, deterministically,
     on a fixed key sequence; bechamel then times further puts. *)
  let slot = Mnemosyne.pstatic inst "perfbench.tree" 8 in
  let tree = Mnemosyne.atomically inst (fun tx -> Pstruct.Bp_tree.create tx ~slot) in
  let value = Bytes.make value_bytes 'v' in
  let key () = Int64.of_int (Random.State.int rng users) in
  for _ = 1 to tree_population do
    let k = key () in
    Mnemosyne.atomically inst (fun tx -> Pstruct.Bp_tree.put tx tree k value)
  done;
  let s0 = env.Scm.Env.now () in
  for _ = 1 to sim_puts do
    let k = key () in
    Mnemosyne.atomically inst (fun tx -> Pstruct.Bp_tree.put tx tree k value)
  done;
  let sim_per_put = float_of_int (env.Scm.Env.now () - s0) /. float_of_int sim_puts in
  let keys = Array.init 4096 (fun _ -> key ()) in
  let next = ref 0 in
  let put =
    Test.make ~name:"put"
      (Staged.stage (fun () ->
           let k = keys.(!next land 4095) in
           incr next;
           Mnemosyne.atomically inst (fun tx -> Pstruct.Bp_tree.put tx tree k value)))
  in
  let est =
    estimate ~quota [ sim_delay; cache_access; translate; log; lock; ts_draw; alloc; put ]
  in
  let per name n = est name /. float_of_int n in
  let setups =
    List.init 5 (fun _ ->
        let h = now_ns () in
        Sched_sweep.setup dir;
        secs_between h (now_ns ()) *. 1e3)
  in
  [
    host "sim.host_ns_per_event" "ns" (per "sim" (shape.fibers * 64));
    host "scm.host_ns_per_access" "ns" (per "cache" accesses);
    host "region.host_ns_per_translate" "ns" (per "translate" accesses);
    host "log.host_ns_per_append" "ns" (per "append" 1);
    host "mtm.host_ns_per_lock" "ns" (per "lock" accesses);
    host "mtm.host_ns_per_ts_draw" "ns" (per "ts" accesses);
    host "heap.host_ns_per_alloc" "ns" (per "alloc" 16);
    host "pstruct.host_ns_per_put" "ns" (per "put" 1);
    exact "pstruct.sim_ns_per_put" "sim_ns" sim_per_put;
    host "explore.setup_ms_per_schedule" "ms" (median_float setups);
  ]
