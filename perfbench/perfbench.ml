(* The repository benchmark's measuring program; see NOTES.md.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it repeats the workload (fresh instance each time)
   until S seconds have passed and reports host medians over the
   repetitions, scaled to a fixed host speed by calibrations run
   between them, plus the simulated figures, which every repetition
   must reproduce exactly.  With --trace 1 it makes untraced repetitions,
   one traced repetition (spans, Txprof, metric snapshots) and the
   layer probes.  It prints a report and, as its last line, one
   machine-readable line "PERFBENCH {json}" for run.py. *)

open Util

let process_start = now_ns ()

type workload = {
  name : string;
  run : ctx -> rep;
  shape : Probes.shape;
}

let workloads seed =
  [
    {
      name = "commit-1t";
      run =
        (let inp = lazy (Commit_1t.input seed) in
         fun ctx -> Commit_1t.run ctx (Lazy.force inp));
      shape =
        {
          Probes.fibers = Commit_1t.fibers;
          footprint_words = Commit_1t.slab_words;
          write_pct = 67;
          record_words = 36;
          log_cap_words = Mtm.Txn.default_config.Mtm.Txn.log_cap_words;
          lock_stripes = 1;
          lease = 1;
        };
    };
    {
      name = "mt-pipeline";
      run =
        (let inp = lazy (Mt_pipeline.input seed) in
         fun ctx -> Mt_pipeline.run ctx (Lazy.force inp));
      shape =
        {
          Probes.fibers = Mt_pipeline.fibers;
          footprint_words =
            (Mt_pipeline.threads * Mt_pipeline.window_words) + (8 * Mt_pipeline.hot_words);
          write_pct = 55;
          record_words = 18;
          log_cap_words = Mt_pipeline.mtm_config.Mtm.Txn.log_cap_words;
          lock_stripes = 8;
          lease = 32;
        };
    };
    {
      name = "serve-ladder";
      run = (fun ctx -> Serve_ladder.run ctx ());
      shape =
        {
          Probes.fibers = Serve_ladder.fibers;
          footprint_words = 131_072 (* 1 MiB of tree nodes, twice the cache *);
          write_pct = 50;
          record_words = 40;
          log_cap_words = 256;
          lock_stripes = 8;
          lease = 32;
        };
    };
    {
      name = "sched-sweep";
      run = (fun ctx -> Sched_sweep.run ctx ());
      shape =
        {
          Probes.fibers = Sched_sweep.fibers;
          footprint_words = 16;
          write_pct = 50;
          record_words = 10;
          log_cap_words = 8192;
          lock_stripes = 4;
          lease = 4;
        };
    };
  ]

(* Every exact figure a repetition shares with [first] must agree at
   %.6g. *)
let compare_exact ~what first rep =
  List.filter_map
    (fun (f : figure) ->
      if not f.exact then None
      else
        match List.find_opt (fun (g : figure) -> g.name = f.name) first.figures with
        | Some g when fmt6 g.value <> fmt6 f.value ->
            Some
              (Printf.sprintf "%s: %s is %s, first repetition had %s" what f.name
                 (fmt6 f.value) (fmt6 g.value))
        | _ -> None)
    rep.figures

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let emit ~workload ~seed ~trace ~attempted ~failed ~errors figures =
  List.iter
    (fun (f : figure) ->
      Printf.printf "  %-36s %16s %-10s %s%s\n" f.name (fmt6 f.value) f.unit
        (if f.exact then "exact" else "host")
        (if f.samples > 0 then Printf.sprintf "  n=%d" f.samples else ""))
    figures;
  List.iter (fun e -> Printf.printf "ERROR %s\n" e) errors;
  let fig (f : figure) =
    Printf.sprintf "{\"name\":%S,\"value\":%s,\"unit\":%S,\"samples\":%d,\"exact\":%b}"
      f.name (json_float f.value) f.unit f.samples f.exact
  in
  Printf.printf
    "PERFBENCH {\"workload\":%S,\"seed\":%d,\"trace\":%d,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"errors\":[%s],\"figures\":[%s]}\n%!"
    workload seed trace (errors = []) attempted failed
    (String.concat "," (List.map (Printf.sprintf "%S") errors))
    (String.concat "," (List.map fig figures))

let ops_per_s r = float_of_int r.ops /. r.host_s

(* One repetition, then a full major collection outside the timed
   part, so each repetition starts from the same heap and the peak
   resident set is one instance's, not the collector's backlog. *)
let repetition w ctx =
  let r = w.run ctx in
  Gc.full_major ();
  r

let timed ~w ~seed ~seconds ~dir =
  let deadline = process_start + int_of_float (seconds *. 1e9) in
  let before_first = secs_between process_start (now_ns ()) in
  (* first touch of the reference work's memory, outside every figure *)
  reference_work ();
  (* Each repetition is bracketed by two calibrations; it is paired
     with their mean. *)
  let rec loop acc before =
    let durability = acc = [] in
    let r = repetition w { seed; dir; spans = None; durability } in
    let after = calibrate () in
    let acc = (r, (before +. after) /. 2.0) :: acc in
    if now_ns () < deadline || List.length acc < 3 then loop acc after else List.rev acc
  in
  let reps = loop [] (calibrate ()) in
  let first = fst (List.hd reps) in
  let errors =
    first.errors
    @ List.concat_map
        (fun (r, _) -> r.errors @ compare_exact ~what:"repetition" first r)
        (List.tl reps)
  in
  let n = List.length reps in
  Printf.printf "host ops/s by repetition: %s\n"
    (String.concat " " (List.map (fun (r, _) -> Printf.sprintf "%.0f" (ops_per_s r)) reps));
  Printf.printf "reference work ms by repetition: %s\n"
    (String.concat " " (List.map (fun (_, c) -> Printf.sprintf "%.2f" (c *. 1e3)) reps));
  (* Host speed on a shared VM moves by tens of percent in phases of
     seconds to minutes, and one run sits inside one phase, so neither
     the median nor the minimum of a run's repetitions is steady from
     run to run.  The reference work slows with the host: scaling each
     repetition's host times by reference_s over its calibration gives
     the times at a fixed host speed, and the run reports their median. *)
  let scaled f = median_float (List.map (fun (r, c) -> f r *. reference_s /. c) reps) in
  let unscaled f = median_float (List.map (fun (r, _) -> f r) reps) in
  let ops = float_of_int first.ops in
  let figures =
    [
      host ~samples:n "host_ops_per_s" "1/s" (ops /. scaled (fun r -> r.host_s));
      host ~samples:n "setup_s" "s" (scaled (fun r -> r.setup_s));
      host ~samples:n "host_ops_per_s_unscaled" "1/s" (ops /. unscaled (fun r -> r.host_s));
      host ~samples:n "setup_s_unscaled" "s" (unscaled (fun r -> r.setup_s));
      host ~samples:n "reference_work_s" "s" (median_float (List.map snd reps));
      host "first_op_s" "s" (before_first +. first.setup_s);
      host "peak_rss_mb" "MiB" (peak_rss_mb ());
      exact "ops_per_repetition" "count" ops;
    ]
    @ first.figures
  in
  let attempted = List.fold_left (fun a (r, _) -> a + r.ops) 0 reps in
  let failed = List.fold_left (fun a (r, _) -> a + r.failed) 0 reps in
  (figures, attempted, failed, errors)

let traced ~w ~seed ~dir ~out =
  let untraced =
    List.init 3 (fun i -> repetition w { seed; dir; spans = None; durability = i = 0 })
  in
  let base = List.hd untraced in
  let host_s = median_float (List.map (fun r -> r.host_s) untraced) in
  let sp = Spans.create () in
  let r = repetition w { seed; dir; spans = Some sp; durability = false } in
  let probe_span = Spans.start sp "probes" in
  let probes = Probes.run ~dir ~seed ~quota:0.25 w.shape in
  Spans.stop sp probe_span;
  let checkers =
    if w.name = "sched-sweep" then Sched_sweep.checker_ratios { seed; dir; spans = None; durability = false }
    else []
  in
  let errors =
    List.concat_map (fun u -> u.errors @ compare_exact ~what:"untraced repetition" base u) untraced
    @ r.errors
    @ compare_exact ~what:"traced repetition" base r
  in
  let figures =
    [
      host "obs.trace_overhead_ratio" "ratio" (r.host_s /. host_s);
      host "sim.host_s_per_sim_s" "s/sim_s" (host_s /. base.sim_s);
      exact "spans" "count" (float_of_int (Spans.count sp));
      host "peak_rss_mb" "MiB" (peak_rss_mb ());
    ]
    @ r.figures @ probes @ checkers
  in
  Spans.write sp ~snapshots:r.snapshots out;
  let attempted = List.fold_left (fun a u -> a + u.ops) r.ops untraced in
  let failed = List.fold_left (fun a u -> a + u.failed) r.failed untraced in
  (figures, attempted, failed, errors)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" and seed = int "seed" and trace = int "trace" in
  let seconds = float_of_int (int "seconds") in
  (* instance state and the traced run's output, inside the checkout *)
  let state = ".perfbench" in
  let w =
    match List.find_opt (fun w -> w.name = name) (workloads seed) with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2
  in
  if not (Sys.file_exists state) then Sys.mkdir state 0o755;
  let dir = Filename.concat state name in
  Printf.printf "perfbench %s seed %d trace %d\n%!" name seed trace;
  match
    if trace = 0 then timed ~w ~seed ~seconds ~dir
    else
      traced ~w ~seed ~dir
        ~out:(Filename.concat state (Printf.sprintf "spans-%s.json" name))
  with
  | figures, attempted, failed, errors ->
      reset_dir dir;
      emit ~workload:name ~seed ~trace ~attempted ~failed ~errors figures;
      exit (if errors = [] then 0 else 1)
  | exception e ->
      (* Running out of a resource (heap superblocks, log, timestamps)
         fails the run: no result line. *)
      Printf.printf "FAILED %s seed %d: %s\n%!" name seed (Printexc.to_string e);
      exit 1
