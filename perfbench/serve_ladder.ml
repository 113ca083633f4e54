(* serve-ladder: open-loop serving through [Serve.run] with
   [Admission.default].  serve_bench's configuration (4 tenants x 8
   workers, 20% GETs, request_ns 2000, log_cap_words 256, a 500 us SLO)
   and bench/main.ml's geometry, but with Poisson arrivals stepping
   through a fixed ladder of offered rates below, near and above the
   measured capacity.  The only workload where heap, pstruct, apps,
   serve queueing and admission do work. *)

open Util

(* Offered rates in requests per simulated second, all tenants
   together; [reference] carries the headline figures. *)
let rates = [ 100_000; 150_000; 200_000; 250_000; 300_000 ]
let reference = 200_000
let horizon_ns = 10_000_000
let tenants = 4
let workers = 8
let fibers = tenants + workers + 1 (* sources, workers, one drainer *)

(* A step counts towards [sim_max_rate_per_s] when its p99 meets the
   SLO and it sheds at most this share of what it was offered. *)
let shed_limit = 0.01
let slo_ns = 500_000

let step_name rate = Printf.sprintf "rate%dk" (rate / 1000)

let config ~seed rate =
  {
    Serve.tenants;
    workers;
    users = 50_000;
    duration_ns = horizon_ns;
    arrival = Sim.Arrival.Poisson (float_of_int rate /. float_of_int tenants);
    admission = Serve.Admission.default;
    value_bytes = 128;
    get_pct = 20;
    theta = 0.2;
    seed;
    request_ns = 2_000;
    log_cap_words = 256;
    workers_per_drainer = 8;
    drain_period_ns = 60_000;
    slo_ns;
  }

let check_step name (st : Serve.stats) =
  let e = ref [] in
  if st.Serve.offered <> st.Serve.completed + st.Serve.shed_queue + st.Serve.shed_log
  then
    e :=
      Printf.sprintf "serve-ladder %s: offered %d <> completed %d + shed %d + %d" name
        st.Serve.offered st.Serve.completed st.Serve.shed_queue st.Serve.shed_log
      :: !e;
  let per_tenant = Array.fold_left ( + ) 0 st.Serve.tenant_completed in
  if per_tenant <> st.Serve.completed then
    e :=
      Printf.sprintf "serve-ladder %s: tenant completions sum to %d, completed %d" name
        per_tenant st.Serve.completed
      :: !e;
  !e

let horizon_s = float_of_int horizon_ns /. 1e9

let stats_json (st : Serve.stats) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") a)) in
  Printf.sprintf
    "{\"offered\":%d,\"completed\":%d,\"slo_ok\":%d,\"shed_queue\":%d,\"shed_log\":%d,     \"max_queue_depth\":%d,\"drain_boosts\":%d,\"log_full_stalls\":%d,\"aborts\":%d,     \"contention\":%d,\"p50_us\":%.17g,\"p99_us\":%.17g,\"p999_us\":%.17g,     \"goodput_per_s\":%.17g,\"shed_rate\":%.17g,\"window_ns\":%d,     \"tenant_completed\":[%s],\"tenant_p99_us\":[%s]}"
    st.Serve.offered st.Serve.completed st.Serve.slo_ok st.Serve.shed_queue st.Serve.shed_log
    st.Serve.max_queue_depth st.Serve.drain_boosts st.Serve.log_full_stalls st.Serve.aborts
    st.Serve.contention st.Serve.p50_us st.Serve.p99_us st.Serve.p999_us st.Serve.goodput_per_s
    st.Serve.shed_rate st.Serve.window_ns (ints st.Serve.tenant_completed)
    (floats st.Serve.tenant_p99_us)

type step = {
  rate : int;
  st : Serve.stats;
  setup_s : float;
  host_s : float;
  procs : int;
}

let run ctx () =
  let minor0 = Gc.minor_words () in
  let steps =
    List.map
      (fun rate ->
        reset_dir ctx.dir;
        (* Each step starts from a collected heap, as each repetition
           does: the previous step's instance is garbage by now. *)
        Gc.full_major ();
        let sim = Sim.create () in
        (* A marker process at simulated time 0 records the host clock
           and touches nothing else.  It runs once [Serve.run] starts its
           simulation, so the host time before it is the step's set-up
           (instance open, tenant trees). *)
        let started = ref 0 in
        Sim.spawn_at sim 0 (fun () -> started := now_ns ());
        let span =
          Option.map (fun sp -> (sp, Spans.start sp ~id:rate ~sim:0 "serve.run")) ctx.spans
        in
        let h0 = now_ns () in
        (* A step that runs out of heap raises here and fails the run. *)
        let st = Serve.run ~sim ~geometry ~dir:ctx.dir (config ~seed:ctx.seed rate) in
        let h1 = now_ns () in
        Option.iter (fun (sp, h) -> Spans.stop sp ~sim:st.Serve.window_ns h) span;
        {
          rate;
          st;
          setup_s = secs_between h0 !started;
          host_s = secs_between !started h1;
          procs = Sim.processes_run sim - 1;
        })
      rates
  in
  let minor = Gc.minor_words () -. minor0 in
  let sum f = List.fold_left (fun a s -> a + f s.st) 0 steps in
  let offered = sum (fun st -> st.Serve.offered) in
  let completed = sum (fun st -> st.Serve.completed) in
  let shed_q = sum (fun st -> st.Serve.shed_queue) in
  let shed_l = sum (fun st -> st.Serve.shed_log) in
  let contention = sum (fun st -> st.Serve.contention) in
  let reference = List.find (fun s -> s.rate = reference) steps in
  let ref_st = reference.st in
  let errors = List.concat_map (fun s -> check_step (step_name s.rate) s.st) steps in
  let capacity =
    List.fold_left
      (fun a s -> max a (float_of_int s.st.Serve.completed /. horizon_s))
      0.0 steps
  in
  let shed st = st.Serve.shed_queue + st.Serve.shed_log in
  let meets s =
    s.st.Serve.p99_us *. 1e3 <= float_of_int slo_ns
    && per_op s.st.Serve.offered (shed s.st) <= shed_limit
  in
  let max_rate = List.fold_left (fun a s -> if meets s then max a s.rate else a) 0 steps in
  let per_step =
    List.concat_map
      (fun { rate; st; _ } ->
        let n = "serve." ^ step_name rate in
        [
          exact ~samples:st.Serve.completed (n ^ ".sim_p50_us") "sim_us" st.Serve.p50_us;
          exact ~samples:st.Serve.completed (n ^ ".sim_p99_us") "sim_us" st.Serve.p99_us;
          exact (n ^ ".fail_ratio") "ratio"
            (per_op st.Serve.offered (shed st + st.Serve.contention));
          exact (n ^ ".offered") "count" (float_of_int st.Serve.offered);
          exact (n ^ ".offered_per_s") "1/sim_s" (float_of_int rate);
          exact (n ^ ".capacity_share") "ratio" (float_of_int rate /. capacity);
        ])
      steps
  in
  let aborts = sum (fun st -> st.Serve.aborts) in
  let figures =
    [
      exact ~samples:ref_st.Serve.completed "sim_p50_us" "sim_us" ref_st.Serve.p50_us;
      exact ~samples:ref_st.Serve.completed "sim_p99_us" "sim_us" ref_st.Serve.p99_us;
      exact ~samples:ref_st.Serve.completed "sim_p999_us" "sim_us" ref_st.Serve.p999_us;
      exact "sim_ops_per_s" "1/sim_s" (float_of_int ref_st.Serve.completed /. horizon_s);
      exact "sim_goodput_per_s" "1/sim_s" (float_of_int ref_st.Serve.slo_ok /. horizon_s);
      exact "sim_max_rate_per_s" "1/sim_s" (float_of_int max_rate);
      exact "sim_capacity_per_s" "1/sim_s" capacity;
      exact "fail_ratio" "ratio" (per_op offered (shed_q + shed_l + contention));
      exact "serve.shed_queue_ratio" "ratio" (per_op offered shed_q);
      exact "serve.shed_log_ratio" "ratio" (per_op offered shed_l);
      exact "serve.max_queue_depth" "count"
        (float_of_int (List.fold_left (fun a s -> max a s.st.Serve.max_queue_depth) 0 steps));
      exact "serve.drain_boosts" "count" (float_of_int (sum (fun st -> st.Serve.drain_boosts)));
      exact "serve.aborts" "count" (float_of_int aborts);
      exact "serve.contention" "count" (float_of_int contention);
      exact "mtm.abort_ratio" "ratio" (per_op completed aborts);
      exact "log.full_stalls" "count" (float_of_int (sum (fun st -> st.Serve.log_full_stalls)));
      exact "sim.processes" "count" (float_of_int reference.procs);
      exact "completed" "count" (float_of_int completed);
      host "mtm.minor_words_per_op" "words/op" (minor /. float_of_int (max 1 offered));
    ]
    @ per_step
  in
  {
    setup_s = median_float (List.map (fun s -> s.setup_s) steps);
    host_s = List.fold_left (fun a s -> a +. s.host_s) 0.0 steps;
    sim_s = float_of_int (sum (fun st -> st.Serve.window_ns)) /. 1e9;
    ops = offered;
    failed = contention;
    errors;
    figures;
    snapshots =
      (match ctx.spans with
      | None -> []
      | Some _ -> List.map (fun s -> ("serve_stats." ^ step_name s.rate, stats_json s.st)) steps);
  }
