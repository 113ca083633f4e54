(* sched-sweep: a fixed set of schedule seeds x the three tiebreak
   policies through [Explore.Sched_harness.run], on the CI admission
   sweep's configuration (lease 4, stripes 4, group commit, pipeline,
   adaptive contention manager, admission) with pmcheck and racecheck
   armed.  Each schedule commits a couple of dozen transactions, so the
   check and explore layers and the per-run instance reset and open
   dominate. *)

open Util

let seeds = 10
let policies = Sim.Schedule.[ Fifo; Seeded_shuffle; Priority ]
let fibers = 4 (* three workers and the drainer *)

(* Sched_harness's own instance geometry. *)
let harness_geometry =
  { Mnemosyne.scm_frames = 2048; heap_superblocks = 64; heap_large_bytes = 256 * 1024 }

let config ~dir ~seed ~pmcheck ~race policy =
  {
    (Explore.Sched_harness.default_cfg ~dir) with
    Explore.Sched_harness.seed;
    policy;
    threads = 3;
    txns = 8;
    lease = 4;
    stripes = 4;
    group_commit = true;
    pipeline = true;
    cm_adaptive = true;
    admission = true;
    pmcheck;
    race;
  }

(* The per-schedule set-up the harness repeats: reset the directory,
   open a fresh instance, close it. *)
let setup dir =
  reset_dir dir;
  Mnemosyne.close (Mnemosyne.open_instance ~geometry:harness_geometry ~dir ())

let schedule_seeds seed = List.init seeds (fun k -> (seed * seeds) + k)

(* What a figure needs from one schedule's outcome.  The outcome itself
   is dropped at once: its observability handle reaches the whole
   machine, device image included. *)
type schedule = {
  policy : Sim.Schedule.policy;
  sseed : int;
  violations : string list;
  commits : int;
  aborts : int;
  contention : int;
  sim_ns : int;
  race_ops : int;
  counters : int list;
  metrics : string;  (* the metrics registry as JSON, traced sweeps only *)
}

(* Host seconds of one sweep with the given checkers armed. *)
let sweep ?spans ~dir ~seed ~pmcheck ~race () =
  let module H = Explore.Sched_harness in
  let h0 = now_ns () in
  let outs =
    List.concat_map
      (fun policy ->
        List.map
          (fun s ->
            let span =
              Option.map
                (fun sp -> (sp, Spans.start sp ~id:s ~sim:0 "explore.sched_harness.run"))
                spans
            in
            let o = H.run (config ~dir ~seed:s ~pmcheck ~race policy) in
            Option.iter (fun (sp, h) -> Spans.stop sp ~sim:o.H.sim_ns h) span;
            {
              policy;
              sseed = s;
              violations = o.H.violations;
              commits = o.H.commits + o.H.ro_commits;
              aborts = o.H.aborts;
              contention = o.H.contention;
              sim_ns = o.H.sim_ns;
              race_ops = o.H.race_ops;
              counters = snapshot_counters o.H.obs.Obs.metrics;
              metrics =
                (if spans = None then "" else Obs.Metrics.to_json o.H.obs.Obs.metrics);
            })
          (schedule_seeds seed))
      policies
  in
  (secs_between h0 (now_ns ()), outs)

let run ctx () =
  let t0 = now_ns () in
  setup ctx.dir;
  let t1 = now_ns () in
  let minor0 = Gc.minor_words () in
  let host_s, outs =
    sweep ?spans:ctx.spans ~dir:ctx.dir ~seed:ctx.seed ~pmcheck:true ~race:true ()
  in
  let minor = Gc.minor_words () -. minor0 in
  let n = List.length outs in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
  let commits = sum (fun o -> o.commits) in
  let violating = List.filter (fun o -> o.violations <> []) outs in
  let errors =
    List.map
      (fun o ->
        Printf.sprintf "sched-sweep %s seed %d: %s" (Sim.Schedule.policy_name o.policy)
          o.sseed (String.concat "; " o.violations))
      violating
  in
  let contention = sum (fun o -> o.contention) in
  let sim_ns = Array.of_list (List.map (fun o -> o.sim_ns) outs) in
  let total_sim = Array.fold_left ( + ) 0 sim_ns in
  let counters =
    List.fold_left
      (fun acc o -> List.map2 ( + ) acc o.counters)
      (List.map (fun _ -> 0) (List.hd outs).counters)
      outs
  in
  let s = sorted_ints sim_ns in
  let us q = float_of_int (quantile s q) /. 1e3 in
  let figures =
    [
      exact ~samples:n "sim_p50_us" "sim_us" (us 0.5);
      exact ~samples:n "sim_p99_us" "sim_us" (us 0.99);
      exact "sim_ops_per_s" "1/sim_s" (float_of_int commits /. (float_of_int total_sim /. 1e9));
      exact "fail_ratio" "ratio" (per_op n (List.length violating + contention));
      exact "check.violations" "count" (float_of_int (sum (fun o -> List.length o.violations)));
      exact "commits" "count" (float_of_int commits);
      exact "schedules" "count" (float_of_int n);
      exact "mtm.abort_ratio" "ratio" (per_op commits (sum (fun o -> o.aborts)));
      exact "check.race_ops" "count" (float_of_int (sum (fun o -> o.race_ops)));
      host "explore.host_ms_per_schedule" "ms" (host_s *. 1e3 /. float_of_int n);
      host "mtm.minor_words_per_op" "words/op" (minor /. float_of_int (max 1 commits));
    ]
    @ counter_figures ~ops:commits (List.map (fun _ -> 0) counters) counters
  in
  {
    setup_s = secs_between t0 t1;
    host_s;
    sim_s = float_of_int total_sim /. 1e9;
    ops = n;
    failed = List.length violating + contention;
    errors;
    figures;
    snapshots =
      List.filter_map
        (fun o ->
          if o.metrics = "" then None
          else
            Some
              ( Printf.sprintf "metrics.%s.%d" (Sim.Schedule.policy_name o.policy) o.sseed,
                o.metrics ))
        outs;
  }

(* Traced-run extra: sweep host time with each checker armed alone,
   relative to neither, on the same seeds. *)
let checker_ratios ctx =
  let time ~pmcheck ~race =
    fst (sweep ~dir:ctx.dir ~seed:ctx.seed ~pmcheck ~race ())
  in
  let off = time ~pmcheck:false ~race:false in
  let pm = time ~pmcheck:true ~race:false in
  let rc = time ~pmcheck:false ~race:true in
  [
    host "check.pmcheck_host_ratio" "ratio" (pm /. off);
    host "check.racecheck_host_ratio" "ratio" (rc /. off);
  ]
