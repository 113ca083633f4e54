(* Multi-tenant KV serving front-end; see serve.mli and DESIGN.md
   section 17. *)

(* Re-exported: this module is the library's interface, so the policy
   is reached as [Serve.Admission]. *)
module Admission = Admission

type config = {
  tenants : int;
  workers : int;
  users : int;
  duration_ns : int;
  arrival : Sim.Arrival.kind;
  admission : Admission.config;
  value_bytes : int;
  get_pct : int;
  theta : float;
  seed : int;
  request_ns : int;
  log_cap_words : int;
  workers_per_drainer : int;
  drain_period_ns : int;
  slo_ns : int;
}

let default_config =
  {
    tenants = 4;
    workers = 8;
    users = 1_000_000;
    duration_ns = 2_000_000;
    arrival = Sim.Arrival.Poisson 400_000.0;
    admission = Admission.default;
    value_bytes = 64;
    get_pct = 50;
    theta = 0.9;
    seed = 42;
    request_ns = 2_000;
    log_cap_words = 2048;
    workers_per_drainer = 4;
    drain_period_ns = 0;
    slo_ns = 1_000_000;
  }

type stats = {
  offered : int;
  completed : int;
  slo_ok : int;
  shed_queue : int;
  shed_log : int;
  max_queue_depth : int;
  drain_boosts : int;
  log_full_stalls : int;
  aborts : int;
  contention : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  goodput_per_s : float;
  shed_rate : float;
  window_ns : int;
  tenant_completed : int array;
  tenant_p99_us : float array;
}

let tenant_root t = Printf.sprintf "serve.tenant.%02d" t
let tenant_root_prefix = "serve.tenant."

type req = { key : int64; is_get : bool; arrival_ns : int }

(* The per-worker STM configuration: the pipelined commit path (the
   one whose log-full stall this module's admission policy bounds),
   with the same scalable-knob settings as the pipeline arm of
   scale_bench. *)
let mtm_config cfg =
  {
    Mtm.Txn.default_config with
    nthreads = cfg.workers;
    log_cap_words = cfg.log_cap_words;
    ts_lease = 32;
    lock_stripes = 8;
    group_commit = true;
    gc_trunc_batch = 32;
    pipeline = true;
    pipe_window = 32;
    cm = Mtm.Txn.Cm_adaptive;
  }

let us_of_ns ns = float_of_int ns /. 1e3

let run ?sim ?geometry ~dir cfg =
  if cfg.tenants < 1 then invalid_arg "Serve.run: tenants < 1";
  if cfg.workers < 1 then invalid_arg "Serve.run: workers < 1";
  let sim = match sim with Some s -> s | None -> Sim.create () in
  let inst = Mnemosyne.open_instance ?geometry ~mtm:(mtm_config cfg) ~dir () in
  let machine = Mnemosyne.machine inst in
  let env_of () =
    Scm.Env.view machine
      ~delay:(fun ns -> Sim.delay sim ns)
      ~now:(fun () -> Sim.now sim)
  in
  let heap_mu = Sim.Mutex_r.create sim in
  Pmheap.Heap.set_exclusion (Mnemosyne.heap inst) (fun f ->
      Sim.Mutex_r.with_lock heap_mu f);
  (* One persistent root per tenant, created before the simulation so
     workers only ever bind existing trees. *)
  let stores =
    Array.init cfg.tenants (fun t ->
        Apps.Tc_store.create_mnemosyne ~request_ns:cfg.request_ns
          ~root:(tenant_root t) inst)
  in
  let obs = Mnemosyne.obs inst in
  let metrics = obs.Obs.metrics in
  let hist = Obs.Metrics.histogram metrics "serve.latency_ns" in
  let tenant_hists =
    Array.init cfg.tenants (fun t ->
        Obs.Metrics.histogram metrics
          (Printf.sprintf "serve.tenant%d.latency_ns" t))
  in
  let c_completed = Obs.Metrics.counter metrics "serve.completed" in
  let c_shed_queue = Obs.Metrics.counter metrics "serve.shed.queue_full" in
  let c_shed_log = Obs.Metrics.counter metrics "serve.shed.log_pressure" in
  let adm = Admission.make cfg.admission in
  let queues = Array.init cfg.tenants (fun _ -> Queue.create ()) in
  let idle : (unit -> unit) Queue.t = Queue.create () in
  let offered = ref 0 in
  let completed = ref 0 in
  let slo_ok = ref 0 in
  let max_depth = ref 0 in
  let boosts = ref 0 in
  let contention = ref 0 in
  let producers_live = ref cfg.tenants in
  let workers_live = ref cfg.workers in
  let tenant_completed = Array.make cfg.tenants 0 in
  (* Sharded write-back drainers, as in the pipelined scale bench: the
     admission policy's boost path and the STM's wake hook both land on
     the daemon owning the committing thread's shard. *)
  (* [drain_period_ns > 0] models the paper's scarce log manager: the
     daemon only gets the CPU once per period, so under a burst the log
     genuinely fills and the two policies differ in what happens next
     (shed vs stall). *)
  let pool = Mnemosyne.pool inst in
  let nshards = max 1 (cfg.workers / max 1 cfg.workers_per_drainer) in
  let svcs =
    Mnemosyne.start_drainers ~drain_period_ns:cfg.drain_period_ns
      ~shards:nshards sim pool
  in
  let wake_shard tid = Sim.Service.wake svcs.(tid mod nshards) in
  (* Open-loop sources: one arrival process per tenant, sleeping seeded
     inter-arrival gaps and never waiting on service.  "Millions of
     simulated users" appear as the aggregate arrival process of a
     [users]-key population, not as a process per user: an open-loop
     source is exactly the limit of many independent users, and the DES
     only needs the arrival instants. *)
  for t = 0 to cfg.tenants - 1 do
    Sim.spawn sim (fun () ->
        let arr = Sim.Arrival.make ~seed:(cfg.seed + (7919 * t)) cfg.arrival in
        let kg = Workload.Keygen.create ~seed:(cfg.seed + (131 * t)) () in
        let zipf = Workload.Keygen.Zipf.make kg ~n:cfg.users ~theta:cfg.theta in
        let continue = ref true in
        while !continue do
          let gap = Sim.Arrival.next_gap_ns arr in
          if Sim.now sim + gap > cfg.duration_ns then continue := false
          else begin
            Sim.delay sim gap;
            incr offered;
            let q = queues.(t) in
            match Admission.admit_enqueue adm ~queue_len:(Queue.length q) with
            | Error _ ->
                Obs.Metrics.incr c_shed_queue;
                Obs.instant obs Obs.Trace.Req_shed ~arg:t
            | Ok () ->
                let key =
                  Int64.of_int (Workload.Keygen.Zipf.draw zipf)
                in
                let is_get =
                  Workload.Keygen.uniform_int kg 100 < cfg.get_pct
                in
                Queue.push { key; is_get; arrival_ns = Sim.now sim } q;
                if Queue.length q > !max_depth then
                  max_depth := Queue.length q;
                (match Queue.take_opt idle with
                | Some resume -> resume ()
                | None -> ())
          end
        done;
        decr producers_live;
        (* the last source releases every parked worker so it can
           observe completion and exit (a parked process at sim end
           would deadlock the run) *)
        if !producers_live = 0 then
          while not (Queue.is_empty idle) do
            (Queue.pop idle) ()
          done)
  done;
  (* Workers: simulator processes bound to STM thread slots, pulling
     round-robin across the tenant queues so one bursty tenant cannot
     monopolize the pool. *)
  for w = 0 to cfg.workers - 1 do
    Sim.spawn sim (fun () ->
        let env = env_of () in
        let th = Mnemosyne.thread inst w env in
        let tworkers =
          Array.map (fun s -> Apps.Tc_store.worker_of_thread s th env) stores
        in
        let kg = Workload.Keygen.create ~seed:(cfg.seed + 977 + w) () in
        let cursor = ref 0 in
        let next () =
          let found = ref None in
          let i = ref 0 in
          while !found = None && !i < cfg.tenants do
            let t = (!cursor + !i) mod cfg.tenants in
            (match Queue.take_opt queues.(t) with
            | Some r ->
                found := Some (t, r);
                cursor := (t + 1) mod cfg.tenants
            | None -> ());
            incr i
          done;
          !found
        in
        let rec with_retry f =
          try f ()
          with Mtm.Txn.Contention ->
            incr contention;
            Sim.delay sim 2_000;
            with_retry f
        in
        let rec loop () =
          match next () with
          | Some (t, r) ->
              let used, cap = Mtm.Txn.log_occupancy th in
              (match Admission.admit_dispatch adm ~used ~cap with
              | Error _ ->
                  (* shed before the transaction exists — and kick the
                     drainer so pressure is already easing when the
                     next request is dispatched *)
                  Obs.Metrics.incr c_shed_log;
                  Obs.instant obs Obs.Trace.Req_shed ~arg:t;
                  wake_shard w
              | Ok () ->
                  if Admission.should_boost adm ~used ~cap then begin
                    incr boosts;
                    wake_shard w
                  end;
                  (if r.is_get then
                     ignore
                       (with_retry (fun () ->
                            Apps.Tc_store.get tworkers.(t) r.key))
                   else
                     let v = Workload.Keygen.value kg cfg.value_bytes in
                     with_retry (fun () ->
                         Apps.Tc_store.put tworkers.(t) r.key v));
                  let lat = Sim.now sim - r.arrival_ns in
                  incr completed;
                  if lat <= cfg.slo_ns then incr slo_ok;
                  tenant_completed.(t) <- tenant_completed.(t) + 1;
                  Obs.Metrics.incr c_completed;
                  Obs.Metrics.record hist lat;
                  Obs.Metrics.record tenant_hists.(t) lat);
              loop ()
          | None ->
              if !producers_live > 0 then begin
                Sim.suspend sim (fun resume -> Queue.push resume idle);
                loop ()
              end
        in
        loop ();
        decr workers_live;
        if !workers_live = 0 then Array.iter Sim.Service.stop svcs)
  done;
  Sim.run sim;
  let mstats = Mtm.Txn.stats pool in
  let window_ns = max 1 (Sim.now sim) in
  let pct h p = us_of_ns (Obs.Metrics.percentile h p) in
  let st =
    {
      offered = !offered;
      completed = !completed;
      slo_ok = !slo_ok;
      shed_queue = Admission.shed_queue adm;
      shed_log = Admission.shed_log adm;
      max_queue_depth = !max_depth;
      drain_boosts = !boosts;
      log_full_stalls = mstats.Mtm.Txn.log_full_stalls;
      aborts = mstats.Mtm.Txn.aborts;
      contention = !contention;
      p50_us = pct hist 50.0;
      p99_us = pct hist 99.0;
      p999_us = pct hist 99.9;
      goodput_per_s =
        float_of_int !slo_ok /. float_of_int (max 1 cfg.duration_ns) *. 1e9;
      shed_rate =
        float_of_int (Admission.shed adm) /. float_of_int (max 1 !offered);
      window_ns;
      tenant_completed;
      tenant_p99_us = Array.map (fun h -> pct h 99.0) tenant_hists;
    }
  in
  Mnemosyne.close inst;
  st
