(* Host clock, order statistics and the records every workload returns. *)

let now_ns = Spans.now_ns
let secs_between t0 t1 = float_of_int (t1 - t0) /. 1e9

(* Nearest-rank quantile of an ascending array, [q] in [0, 1]. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Util.quantile: no samples";
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) k))

let sorted_ints a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One reported number.  [exact] figures are simulated time or counts:
   deterministic for a seed, so every repetition of a run must give the
   same value at [%.6g]. *)
type figure = {
  name : string;
  value : float;
  unit : string;
  samples : int;  (* samples behind an order statistic; 0 otherwise *)
  exact : bool;
}

let exact ?(samples = 0) name unit value =
  { name; value; unit; samples; exact = true }

let host ?(samples = 0) name unit value =
  { name; value; unit; samples; exact = false }

let per_op n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n

(* p50 and p99 (plus the highest percentile with ten samples beyond it)
   of simulated nanosecond samples, as [sim_us] figures. *)
let sim_latency ~prefix samples =
  let s = sorted_ints samples in
  let n = Array.length s in
  let us q = float_of_int (quantile s q) /. 1e3 in
  let base =
    [ exact ~samples:n (prefix ^ "p50_us") "sim_us" (us 0.5) ]
  in
  let p99 =
    if n >= 1000 then [ exact ~samples:n (prefix ^ "p99_us") "sim_us" (us 0.99) ]
    else []
  in
  (* the highest percentile that still has ten samples beyond it *)
  let tail =
    if n < 20 then []
    else
      let q = 1.0 -. (10.0 /. float_of_int n) in
      [ exact ~samples:n (Printf.sprintf "%sp%g_us" prefix (100.0 *. q)) "sim_us" (us q) ]
  in
  base @ p99 @ tail

(* What one repetition of a workload produced. *)
type rep = {
  setup_s : float;  (* host seconds of this repetition's set-up *)
  host_s : float;  (* host seconds of the timed operations *)
  sim_s : float;  (* simulated seconds the timed operations covered *)
  ops : int;  (* committed transactions, offered requests or schedules *)
  failed : int;  (* operations that failed outright *)
  errors : string list;  (* output checks that did not hold *)
  figures : figure list;
  snapshots : (string * string) list;
      (* traced repetition only: named JSON snapshots of the layers'
         own statistics, written out with the spans *)
}

type ctx = {
  seed : int;
  dir : string;  (* scratch directory for instance state *)
  spans : Spans.t option;  (* Some = the traced repetition *)
  durability : bool;  (* also crash, recover and re-check the output *)
}

let fmt6 v = Printf.sprintf "%.6g" v

(* bench/main.ml's instance geometry: 64 MiB of SCM, 768 superblocks. *)
let geometry =
  {
    Mnemosyne.scm_frames = 16384;
    heap_superblocks = 768;
    heap_large_bytes = 24 * 1024 * 1024;
  }

let sim_env sim machine =
  Scm.Env.view machine
    ~delay:(fun ns -> Sim.delay sim ns)
    ~now:(fun () -> Sim.now sim)

let reset_dir dir =
  match Mnemosyne.reset_dir dir with
  | Ok () -> ()
  | Error msg -> failwith ("perfbench: " ^ msg)

(* Peak resident set size of this process in MiB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* Counters of the [Obs.Metrics] registry a machine records into. *)
let counter m name = Obs.Metrics.counter_value (Obs.Metrics.counter m name)

(* Registry counter, figure name, and whether the figure is per
   committed operation (else a plain count). *)
let counted =
  [
    ("scm.flushes", "scm.flushes_per_op", true);
    ("scm.fences", "scm.fences_per_op", true);
    ("scm.wc.drains", "scm.wc_drains_per_op", true);
    ("scm.cache.evictions", "scm.evictions_per_op", true);
    ("log.appends", "log.appends_per_op", true);
    ("log.truncations", "log.truncations_per_op", true);
    ("heap.allocs", "heap.allocs_per_op", true);
    ("heap.frees", "heap.frees_per_op", true);
    ("mtm.lock.false_conflicts", "mtm.false_conflicts", false);
  ]

let snapshot_counters m = List.map (fun (c, _, _) -> counter m c) counted

(* Layer counts between two {!snapshot_counters}. *)
let counter_figures ~ops before after =
  List.map2
    (fun (_, name, per) (b, a) ->
      if per then exact name "count/op" (per_op ops (a - b))
      else exact name "count" (float_of_int (a - b)))
    counted (List.combine before after)

(* The nine-phase ledger as per-op simulated figures.  The phase sums
   must add up to the ledger's total exactly. *)
let txprof_figures tp =
  let open Obs in
  let n = Txprof.count tp in
  let sum ph = Metrics.hsum (Txprof.phase_histogram tp ph) in
  let total = Metrics.hsum (Txprof.total_histogram tp) in
  let phase_total = ref 0 in
  for ph = 0 to Txprof.nphases - 1 do
    phase_total := !phase_total + sum ph
  done;
  let fig name ph = exact name "sim_ns/op" (per_op n (sum ph)) in
  let figures =
    [
      fig "mtm.sim_exec_ns_per_op" Txprof.ph_exec;
      fig "mtm.sim_validate_ns_per_op" Txprof.ph_validate;
      fig "log.sim_log_ns_per_op" Txprof.ph_log;
      fig "scm.sim_fence_ns_per_op" Txprof.ph_fence;
      fig "scm.sim_write_back_ns_per_op" Txprof.ph_write_back;
      fig "log.sim_trunc_wait_ns_per_op" Txprof.ph_trunc_wait;
      fig "mtm.sim_backoff_ns_per_op" Txprof.ph_backoff;
      fig "mtm.sim_drain_wait_ns_per_op" Txprof.ph_drain_wait;
      fig "mtm.sim_other_ns_per_op" Txprof.ph_other;
      exact "mtm.txprof_total_ns" "sim_ns" (float_of_int total);
    ]
  in
  let errors =
    if !phase_total = total then []
    else
      [ Printf.sprintf "txprof: phases sum to %d ns, total is %d ns"
          !phase_total total ]
  in
  (figures, total, errors)

(* Update and read-only commits together. *)
let commits (st : Mtm.Txn.stats) = st.Mtm.Txn.commits + st.Mtm.Txn.read_only_commits

let txn_stats_json (st : Mtm.Txn.stats) =
  Printf.sprintf
    "{\"commits\":%d,\"aborts\":%d,\"read_only_commits\":%d,\"retries\":%d,\"contention_failures\":%d,\"log_full_stalls\":%d}"
    st.Mtm.Txn.commits st.Mtm.Txn.aborts st.Mtm.Txn.read_only_commits st.Mtm.Txn.retries
    st.Mtm.Txn.contention_failures st.Mtm.Txn.log_full_stalls

(* The traced repetition's snapshots of an instance's metrics registry
   and transaction statistics. *)
let instance_snapshots ctx metrics st =
  match ctx.spans with
  | None -> []
  | Some _ -> [ ("metrics", Obs.Metrics.to_json metrics); ("txn_stats", txn_stats_json st) ]

let txn_figures (st : Mtm.Txn.stats) ~cm_waits =
  let commits = commits st in
  [
    exact "mtm.abort_ratio" "ratio" (per_op commits st.Mtm.Txn.aborts);
    exact "mtm.retries_per_op" "count/op" (per_op commits st.Mtm.Txn.retries);
    exact "mtm.cm_waits" "count" (float_of_int cm_waits);
    exact "log.full_stalls" "count" (float_of_int st.Mtm.Txn.log_full_stalls);
  ]

(* A fixed piece of host work that calls nothing in the library: a
   seeded mix of integer work, scattered reads and writes over 512 KiB
   and short-lived minor allocation.  Its buffers live for the whole
   process, fit in a core's L2 cache, and nothing it allocates survives
   a minor collection, so its time depends neither on the heap a
   workload leaves behind nor on what other processes keep in the
   shared cache, only on how fast the host runs the process at the
   moment. *)
let reference_arena = Bytes.make (1 lsl 18) '\000'
let reference_table = Array.make 32768 0

let reference_work () =
  let st = Random.State.make [| 42 |] in
  let acc = ref 0 in
  for i = 0 to 199_999 do
    let k = Random.State.bits st land 0x7fff in
    let off = (k lsl 3) land (Bytes.length reference_arena - 8) in
    Bytes.set_int64_le reference_arena off
      (Int64.add (Bytes.get_int64_le reference_arena off) 1L);
    reference_table.(k) <- reference_table.(k) + i;
    acc := !acc + reference_table.(k lxor 1) + List.length (List.init 4 (fun j -> (j, i)))
  done;
  ignore (Sys.opaque_identity !acc)

(* Host seconds of [reference_work] on the host the figures are scaled
   to.  Only a scale: a host-time figure is what it would read on a host
   that runs [reference_work] in this time. *)
let reference_s = 0.005

(* Median host seconds of five runs of [reference_work].  The median,
   not the minimum: the workloads' host time includes the host's
   slow moments, and the first run after a repetition finds the cache
   cold. *)
let calibrate () =
  let once () =
    let t0 = now_ns () in
    reference_work ();
    secs_between t0 (now_ns ())
  in
  median_float (List.init 5 (fun _ -> once ()))
