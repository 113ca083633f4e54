(* mt-pipeline: 16 closed-loop simulated threads (Sim fibers) on the
   pipelined configuration — timestamp leases, a striped lock table,
   group commit, sharded Sim.Service write-back drainers and the
   adaptive contention manager.  Each thread updates its own
   line-aligned window; 15% of transactions move an amount between two
   words of a small shared hot set (so conflicts happen while the hot
   set's sum stays fixed) and a quarter are read-only, each of which
   also reads the whole hot set and must see the fixed sum. *)

open Util

let threads = 16
let txns = 512 (* per thread *)
let window_words = 256 (* per thread: 32 lines *)
let hot_words = 8 (* one per cache line *)
let hot_init = 1000L
let hot_sum = Int64.mul hot_init (Int64.of_int hot_words)
let drainers = threads / 4
let fibers = threads + drainers

(* Slot 0 belongs to the set-up fiber, slots 1..16 to the workers. *)
let mtm_config =
  {
    Mtm.Txn.default_config with
    nthreads = threads + 1;
    log_cap_words = 4096;
    ts_lease = 32;
    lock_stripes = 8;
    group_commit = true;
    gc_trunc_batch = 32;
    pipeline = true;
    pipe_window = 32;
    cm = Mtm.Txn.Cm_adaptive;
  }

type kind = Update | Transfer | Read_only

(* One thread's seeded stream.  Update: 4 reads then 8 writes of window
   offsets.  Transfer: [offs] holds the two hot indices and the amount.
   Read-only: 4 window reads plus the whole hot set. *)
type stream = { kinds : kind array; first : int array; offs : int array }

let width = function Update -> 12 | Transfer -> 3 | Read_only -> 4

let input seed =
  Array.init threads (fun th ->
      let rng = Random.State.make [| seed; th; 0x3e |] in
      let kinds =
        Array.init txns (fun _ ->
            let r = Random.State.int rng 100 in
            if r < 25 then Read_only else if r < 40 then Transfer else Update)
      in
      let first = Array.make (txns + 1) 0 in
      Array.iteri (fun i k -> first.(i + 1) <- first.(i) + width k) kinds;
      let offs = Array.make first.(txns) 0 in
      Array.iteri
        (fun i k ->
          let o = first.(i) in
          match k with
          | Transfer ->
              let a = Random.State.int rng hot_words in
              let b = (a + 1 + Random.State.int rng (hot_words - 1)) mod hot_words in
              offs.(o) <- a;
              offs.(o + 1) <- b;
              offs.(o + 2) <- 1 + Random.State.int rng 50
          | Update | Read_only ->
              for j = 0 to width k - 1 do
                offs.(o + j) <- Random.State.int rng window_words
              done)
        kinds;
      { kinds; first; offs })

let value th i j acc =
  Int64.logxor acc (Int64.of_int ((th * 7_919) + (i * 1_000_003) + j))

let initial th k = Int64.of_int ((th * window_words) + k)

(* Run transaction [i] of thread [th]'s stream against [load]/[store]
   over (window, hot) word indices; returns the hot-set sum a read-only
   transaction saw (0 otherwise). *)
let body s th i ~win ~hot ~load ~store tx =
  let o = s.first.(i) in
  match s.kinds.(i) with
  | Update ->
      let acc = ref 0L in
      for j = 0 to 3 do
        acc := Int64.logxor !acc (load tx (win s.offs.(o + j)))
      done;
      for j = 0 to 7 do
        store tx (win s.offs.(o + 4 + j)) (value th i j !acc)
      done;
      0L
  | Transfer ->
      let a = hot s.offs.(o) and b = hot s.offs.(o + 1) in
      let amt = Int64.of_int s.offs.(o + 2) in
      let va = load tx a and vb = load tx b in
      store tx a (Int64.sub va amt);
      store tx b (Int64.add vb amt);
      0L
  | Read_only ->
      for j = 0 to 3 do
        ignore (load tx (win s.offs.(o + j)))
      done;
      let sum = ref 0L in
      for h = 0 to hot_words - 1 do
        sum := Int64.add !sum (load tx (hot h))
      done;
      !sum

(* Each thread's window evolves only through its own updates, in
   program order, so a per-thread replay is the model. *)
let model s th =
  let m = Array.init window_words (initial th) in
  for i = 0 to txns - 1 do
    ignore
      (body s th i ~win:Fun.id ~hot:(fun h -> -1 - h)
         ~load:(fun () w -> if w >= 0 then m.(w) else hot_init)
         ~store:(fun () w v -> if w >= 0 then m.(w) <- v)
         ())
  done;
  m

type layout = { windows : int; hot : int }

let win_addr l th k = l.windows + (8 * ((th * window_words) + k))
let hot_addr l h = l.hot + (64 * h)

let check ~what view l streams =
  let load = Region.Pmem.load view in
  let errors = ref [] in
  Array.iteri
    (fun th s ->
      let m = model s th in
      let bad = ref 0 in
      Array.iteri (fun k v -> if load (win_addr l th k) <> v then incr bad) m;
      if !bad > 0 then
        errors :=
          Printf.sprintf "mt-pipeline: thread %d: %d window words differ from the model %s"
            th !bad what
          :: !errors)
    streams;
  let sum = ref 0L in
  for h = 0 to hot_words - 1 do
    sum := Int64.add !sum (load (hot_addr l h))
  done;
  if !sum <> hot_sum then
    errors :=
      Printf.sprintf "mt-pipeline: hot-set sum %Ld, expected %Ld %s" !sum hot_sum what
      :: !errors;
  List.rev !errors

let run ctx streams =
  let t0 = now_ns () in
  reset_dir ctx.dir;
  let inst =
    Mnemosyne.open_instance ~geometry ~mtm:mtm_config ~seed:ctx.seed ~dir:ctx.dir ()
  in
  let machine = Mnemosyne.machine inst in
  let pool = Mnemosyne.pool inst in
  let metrics = (Mnemosyne.obs inst).Obs.metrics in
  let sim = Sim.create () in
  let svcs =
    Array.init drainers (fun k ->
        let dview = Region.Pmem.view (Mtm.Txn.pmem pool) (sim_env sim machine) in
        Sim.Service.spawn sim ~work:(fun () ->
            Mtm.Txn.drain_pipeline ~shard:(k, drainers) pool dview))
  in
  Mtm.Txn.set_drain_wake pool
    (Some (fun tid -> Sim.Service.wake svcs.(tid mod drainers)));
  let lat = Array.make (threads * txns) 0 in
  let layout = ref { windows = 0; hot = 0 } in
  let t1 = ref t0 and sim0 = ref 0 and sim_end = ref 0 in
  (* The steady window: until the first worker finishes, all sixteen
     are running. *)
  let done_commits = ref 0 and steady = ref None in
  let contention = ref 0 and bad_sums = ref 0 in
  let c0 = ref [] and minor0 = ref 0.0 in
  let tp = ref None in
  let running = ref threads in
  let worker th () =
    let env = sim_env sim machine in
    let t = Mnemosyne.thread inst (th + 1) env in
    let s = streams.(th) in
    let l = !layout in
    let win k = win_addr l th k and hot h = hot_addr l h in
    let rec with_retry f =
      try Mtm.Txn.run t f
      with Mtm.Txn.Contention ->
        incr contention;
        Sim.delay sim 2_000;
        with_retry f
    in
    for i = 0 to txns - 1 do
      let start = Sim.now sim in
      let span =
        Option.map
          (fun sp -> (sp, Spans.start sp ~id:((th * txns) + i) ~sim:start "mtm.run"))
          ctx.spans
      in
      let sum =
        with_retry (body s th i ~win ~hot ~load:Mtm.Txn.load ~store:Mtm.Txn.store)
      in
      let e = Sim.now sim in
      Option.iter (fun (sp, h) -> Spans.stop sp ~sim:e h) span;
      lat.((th * txns) + i) <- e - start;
      incr done_commits;
      if s.kinds.(i) = Read_only && sum <> hot_sum then incr bad_sums
    done;
    if !steady = None then steady := Some (!done_commits, Sim.now sim);
    sim_end := max !sim_end (Sim.now sim);
    decr running;
    if !running = 0 then Array.iter Sim.Service.stop svcs
  in
  (* The set-up fiber allocates and initializes the windows and the hot
     set, then starts the workers; the measured window begins there. *)
  Sim.spawn sim (fun () ->
      let t = Mnemosyne.thread inst 0 (sim_env sim machine) in
      let slot = Mnemosyne.pstatic inst "perfbench.mt" 8 in
      let bytes = 8 * ((threads * window_words) + (8 * hot_words)) in
      let base = Mtm.Txn.run t (fun tx -> Mtm.Txn.alloc tx (bytes + 64) ~slot) in
      let base = (base + 63) land lnot 63 in
      let l = { windows = base; hot = base + (8 * threads * window_words) } in
      layout := l;
      for th = 0 to threads - 1 do
        Mtm.Txn.run t (fun tx ->
            for k = 0 to window_words - 1 do
              Mtm.Txn.store tx (win_addr l th k) (initial th k)
            done)
      done;
      Mtm.Txn.run t (fun tx ->
          for h = 0 to hot_words - 1 do
            Mtm.Txn.store tx (hot_addr l h) hot_init
          done);
      Mtm.Txn.reset_stats pool;
      (match ctx.spans with
      | Some _ ->
          let p = Obs.Txprof.create metrics in
          Mtm.Txn.set_txprof pool (Some p);
          tp := Some p
      | None -> ());
      c0 := snapshot_counters metrics;
      minor0 := Gc.minor_words ();
      sim0 := Sim.now sim;
      t1 := now_ns ();
      for th = 0 to threads - 1 do
        Sim.spawn sim (worker th)
      done);
  let run_span = Option.map (fun sp -> (sp, Spans.start sp ~sim:0 "sim.run")) ctx.spans in
  Sim.run sim;
  Option.iter (fun (sp, h) -> Spans.stop sp ~sim:(Sim.now sim) h) run_span;
  let t2 = now_ns () in
  let minor = Gc.minor_words () -. !minor0 in
  let st = Mtm.Txn.stats pool in
  let c1 = snapshot_counters metrics in
  let ops = threads * txns in
  let view = Mnemosyne.view inst in
  let errors = check ~what:"after the run" view !layout streams in
  let errors =
    if !bad_sums > 0 then
      Printf.sprintf "mt-pipeline: %d read-only transactions saw a wrong hot-set sum"
        !bad_sums
      :: errors
    else errors
  in
  let errors =
    if commits st <> ops then
      Printf.sprintf "mt-pipeline: %d commits for %d transactions" (commits st) ops
      :: errors
    else errors
  in
  let errors =
    if ctx.durability then
      let inst' = Mnemosyne.reincarnate inst in
      errors @ check ~what:"after crash and recovery" (Mnemosyne.view inst') !layout streams
    else errors
  in
  let ro = ref [] and upd = ref [] in
  Array.iteri
    (fun k l ->
      if streams.(k / txns).kinds.(k mod txns) = Read_only then ro := l :: !ro
      else upd := l :: !upd)
    lat;
  let sim_s = float_of_int (!sim_end - !sim0) /. 1e9 in
  let steady_commits, steady_end = Option.get !steady in
  let steady_s = float_of_int (steady_end - !sim0) /. 1e9 in
  let figures =
    sim_latency ~prefix:"sim_" lat
    @ sim_latency ~prefix:"sim_read_" (Array.of_list !ro)
    @ sim_latency ~prefix:"sim_write_" (Array.of_list !upd)
    @ [
        exact "sim_ops_per_s" "1/sim_s" (float_of_int steady_commits /. steady_s);
        exact "sim_window_ops_per_s" "1/sim_s" (float_of_int ops /. sim_s);
        exact "commits" "count" (float_of_int (commits st));
        exact "mtm.contention" "count" (float_of_int !contention);
        exact "fail_ratio" "ratio" (per_op ops !contention);
        exact "sim.processes" "count" (float_of_int (Sim.processes_run sim));
        host "mtm.minor_words_per_op" "words/op" (minor /. float_of_int ops);
      ]
    @ counter_figures ~ops !c0 c1
    @ txn_figures st ~cm_waits:(Mtm.Txn.cm_waits pool)
  in
  let figures, errors =
    match !tp with
    | Some tp ->
        let tf, total, e = txprof_figures tp in
        let outside = Array.fold_left ( + ) 0 lat in
        ( figures @ tf
          @ [ exact "mtm.outside_total_ns" "sim_ns" (float_of_int outside) ]
          @ (if total = outside then []
             else [ exact "mtm.txprof_gap_ns" "sim_ns" (float_of_int (outside - total)) ]),
          errors @ e )
    | None -> (figures, errors)
  in
  {
    setup_s = secs_between t0 !t1;
    host_s = secs_between !t1 t2;
    sim_s;
    ops;
    failed = !contention;
    errors;
    figures;
    snapshots = instance_snapshots ctx metrics st;
  }
