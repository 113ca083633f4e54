(* Tests for the observability layer: histogram accuracy against a
   brute-force oracle, counter registry, trace-ring overflow semantics,
   Chrome JSON export round-trip, and the one-fence-per-commit
   durability guarantee of redo logging. *)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let oracle_percentile sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.round (p /. 100.0 *. float_of_int (n - 1))) in
  sorted.(max 0 (min (n - 1) idx))

let test_histogram_oracle () =
  let rng = Random.State.make [| 0xbeef |] in
  let h = Obs.Metrics.make_histogram "test" in
  let samples =
    Array.init 5000 (fun i ->
        (* mix of exact small values and log-spread large ones *)
        if i land 1 = 0 then Random.State.int rng 512
        else 1 lsl (9 + Random.State.int rng 20) lor Random.State.int rng 4096)
  in
  Array.iter (fun s -> Obs.Metrics.record h s) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length samples in
  Alcotest.(check int) "count" n (Obs.Metrics.hcount h);
  Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 samples)
    (Obs.Metrics.hsum h);
  Alcotest.(check int) "min exact" sorted.(0) (Obs.Metrics.hmin h);
  Alcotest.(check int) "max exact" sorted.(n - 1) (Obs.Metrics.hmax h);
  List.iter
    (fun p ->
      let want = oracle_percentile sorted p in
      let got = Obs.Metrics.percentile h p in
      if want < 512 then
        Alcotest.(check int) (Printf.sprintf "p%.0f exact" p) want got
      else begin
        (* log-linear quantization: the bucket's lower bound, within
           1/512 relative error *)
        if got > want || want - got > (want / 512) + 1 then
          Alcotest.failf "p%.0f: got %d for oracle %d (error > 1/512)" p got
            want
      end)
    [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ]

let test_histogram_small_exact () =
  (* every value below 2^sub_bits has its own bucket: percentiles are
     the exact order statistics *)
  let h = Obs.Metrics.make_histogram "exact" in
  for v = 100 downto 1 do
    Obs.Metrics.record h v
  done;
  (* rank round(0.5 * 99) = 50, so the 51st smallest — the same
     convention the list-backed Workload.Stats used *)
  Alcotest.(check int) "p50" 51 (Obs.Metrics.percentile h 50.0);
  Alcotest.(check int) "p0" 1 (Obs.Metrics.percentile h 0.0);
  Alcotest.(check int) "p100" 100 (Obs.Metrics.percentile h 100.0);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Obs.Metrics.hmean h)

(* Buckets are allocated on demand, up to the highest one recorded.
   Recording the same samples smallest-first (many growth steps) or
   largest-first (one) must give the same histogram, and a reset one
   must read like a fresh one. *)
let test_histogram_growth_invisible () =
  let rng = Random.State.make [| 0x6a0 |] in
  let samples =
    Array.init 2000 (fun _ ->
        Random.State.full_int rng (1 lsl (1 + Random.State.int rng 40)))
  in
  let ascending = Array.copy samples in
  Array.sort compare ascending;
  let descending = Array.of_list (List.rev (Array.to_list ascending)) in
  let registry order =
    let m = Obs.Metrics.create () in
    let h = Obs.Metrics.histogram m "lat_ns" in
    Array.iter (Obs.Metrics.record h) order;
    (m, h)
  in
  let m_up, h_up = registry ascending and m_down, _ = registry descending in
  let m_fresh, h_fresh = registry [| 7; 300; 5_000_000 |] in
  Alcotest.(check int) "full range reported" (55 * 512)
    (Obs.Metrics.nbuckets h_fresh);
  Alcotest.(check string) "growth order invisible in json"
    (Obs.Metrics.to_json m_up) (Obs.Metrics.to_json m_down);
  Obs.Metrics.hreset h_up;
  Array.iter (Obs.Metrics.record h_up) [| 7; 300; 5_000_000 |];
  Alcotest.(check string) "reset reads like fresh" (Obs.Metrics.to_json m_fresh)
    (Obs.Metrics.to_json m_up)

let test_counters () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "a.b" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  Alcotest.(check int) "value" 42 (Obs.Metrics.counter_value c);
  (* get-or-create returns the same counter *)
  let c' = Obs.Metrics.counter m "a.b" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "shared" 43 (Obs.Metrics.counter_value c);
  let names = ref [] in
  Obs.Metrics.iter_counters m (fun c ->
      names := Obs.Metrics.counter_name c :: !names);
  Alcotest.(check (list string)) "registry" [ "a.b" ] !names

(* ------------------------------------------------------------------ *)
(* Trace ring *)

let test_ring_overflow () =
  let tr = Obs.Trace.create ~capacity:8 () in
  for i = 0 to 11 do
    Obs.Trace.instant tr ~tid:0 ~ts:i Obs.Trace.Fence ~arg:i
  done;
  Alcotest.(check int) "held" 8 (Obs.Trace.length tr);
  Alcotest.(check int) "dropped" 4 (Obs.Trace.dropped tr);
  let ts = List.map (fun e -> e.Obs.Trace.ts) (Obs.Trace.events tr) in
  Alcotest.(check (list int)) "oldest dropped first" [ 4; 5; 6; 7; 8; 9; 10; 11 ]
    ts

(* ------------------------------------------------------------------ *)
(* Chrome JSON round-trip, via a minimal JSON parser *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < String.length s then
      match peek () with ' ' | '\n' | '\t' | '\r' -> advance (); skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    advance ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | 'n' -> Buffer.add_char buf '\n'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              Buffer.add_char buf (Char.chr (code land 0xff))
          | c -> Buffer.add_char buf c);
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            if peek () = ',' then begin advance (); members ((key, v) :: acc) end
            else begin expect '}'; List.rev ((key, v) :: acc) end
          in
          Obj (members [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Arr [] end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            if peek () = ',' then begin advance (); elems (v :: acc) end
            else begin expect ']'; List.rev (v :: acc) end
          in
          Arr (elems [])
        end
    | '"' -> Str (parse_string ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
        let start = !pos in
        while !pos < String.length s
              && (match peek () with
                  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
                  | _ -> false)
        do advance () done;
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  v

let field name = function
  | Obj kvs -> List.assoc name kvs
  | _ -> failwith "not an object"

let ns_of_us = function
  | Num us -> int_of_float (Float.round (us *. 1000.0))
  | _ -> failwith "not a number"

(* ------------------------------------------------------------------ *)
(* Snapshot / JSON export *)

let test_snapshot_json () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "scm.fences" in
  Obs.Metrics.incr ~by:3 c;
  Obs.Metrics.set_gauge (Obs.Metrics.gauge m "cache.lines") (fun () -> 42);
  let h = Obs.Metrics.histogram m "lat_ns" in
  List.iter (fun v -> Obs.Metrics.record h v) [ 10; 20; 30; 40 ];
  let snap = Obs.Metrics.snapshot m in
  Alcotest.(check (list (pair string int)))
    "counters" [ ("scm.fences", 3) ] snap.Obs.Metrics.snap_counters;
  Alcotest.(check (list (pair string int)))
    "gauges sampled at snapshot time" [ ("cache.lines", 42) ]
    snap.Obs.Metrics.snap_gauges;
  (match snap.Obs.Metrics.snap_histograms with
  | [ hs ] ->
      Alcotest.(check string) "hist name" "lat_ns" hs.Obs.Metrics.hs_name;
      Alcotest.(check int) "hist count" 4 hs.Obs.Metrics.hs_count;
      Alcotest.(check int) "hist sum" 100 hs.Obs.Metrics.hs_sum;
      Alcotest.(check int) "hist min" 10 hs.Obs.Metrics.hs_min;
      Alcotest.(check int) "hist max" 40 hs.Obs.Metrics.hs_max;
      Alcotest.(check (float 1e-9)) "hist mean" 25.0 hs.Obs.Metrics.hs_mean
  | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l));
  (* the JSON document round-trips through a real parser *)
  let doc = parse_json (Obs.Metrics.to_json m) in
  (match field "scm.fences" (field "counters" doc) with
  | Num 3.0 -> ()
  | _ -> Alcotest.fail "json counter");
  (match field "cache.lines" (field "gauges" doc) with
  | Num 42.0 -> ()
  | _ -> Alcotest.fail "json gauge");
  let hist = field "lat_ns" (field "histograms" doc) in
  (match (field "count" hist, field "mean" hist) with
  | Num 4.0, Num 25.0 -> ()
  | _ -> Alcotest.fail "json histogram");
  (* OpenMetrics text: counter suffixed _total, dots sanitized *)
  let om = Obs.Metrics.to_openmetrics m in
  let contains needle =
    let n = String.length needle and hn = String.length om in
    let rec go i =
      i + n <= hn && (String.sub om i n = needle || go (i + 1))
    in
    if not (go 0) then Alcotest.failf "openmetrics missing %S in:\n%s" needle om
  in
  contains "scm_fences_total 3";
  contains "cache_lines 42";
  contains "lat_ns_count 4";
  contains "# EOF"

let test_chrome_roundtrip () =
  let tr = Obs.Trace.create () in
  Obs.Trace.complete tr ~tid:3 ~ts:1_234_567 ~dur:89 Obs.Trace.Txn_commit
    ~arg:7;
  Obs.Trace.instant tr ~tid:1 ~ts:2_000_001 Obs.Trace.Log_truncate ~arg:64;
  let doc = parse_json (Obs.Trace.to_chrome_json tr) in
  (match field "displayTimeUnit" doc with
  | Str "ns" -> ()
  | _ -> Alcotest.fail "displayTimeUnit");
  let evs = match field "traceEvents" doc with Arr l -> l | _ -> [] in
  Alcotest.(check int) "event count" 2 (List.length evs);
  let commit = List.nth evs 0 and trunc = List.nth evs 1 in
  (match field "name" commit with
  | Str "Txn_commit" -> ()
  | _ -> Alcotest.fail "name");
  (match field "ph" commit with Str "X" -> () | _ -> Alcotest.fail "ph X");
  Alcotest.(check int) "ts ns preserved" 1_234_567 (ns_of_us (field "ts" commit));
  Alcotest.(check int) "dur ns preserved" 89 (ns_of_us (field "dur" commit));
  (match field "args" commit with
  | Obj [ ("writes", Num 7.0) ] -> ()
  | _ -> Alcotest.fail "args");
  (match field "ph" trunc with Str "i" -> () | _ -> Alcotest.fail "ph i");
  Alcotest.(check int) "instant ts" 2_000_001 (ns_of_us (field "ts" trunc))

(* The causal flow stitching: a transaction id stamped into flow
   start/step/end events must survive the Chrome export as both the
   binding id and the args payload, or the arrows in the viewer would
   connect the wrong transactions. *)
let test_flow_roundtrip () =
  let tr = Obs.Trace.create () in
  Obs.Trace.flow tr ~tid:0 ~ts:100 ~phase:`Start ~id:77;
  Obs.Trace.flow tr ~tid:1 ~ts:200 ~phase:`Step ~id:77;
  Obs.Trace.flow tr ~tid:2 ~ts:300 ~phase:`End ~id:77;
  let doc = parse_json (Obs.Trace.to_chrome_json tr) in
  let evs = match field "traceEvents" doc with Arr l -> l | _ -> [] in
  Alcotest.(check int) "event count" 3 (List.length evs);
  let ph e = match field "ph" e with Str s -> s | _ -> "?" in
  Alcotest.(check (list string)) "flow phases" [ "s"; "t"; "f" ]
    (List.map ph evs);
  List.iter
    (fun e ->
      (match field "name" e with
      | Str "txn" -> ()
      | _ -> Alcotest.fail "flow name");
      (match field "cat" e with
      | Str "flow" -> ()
      | _ -> Alcotest.fail "flow cat");
      (* Chrome binds flow arrows on (cat, name, id): the id IS the
         transaction id, and it is repeated in args for hovering *)
      (match field "id" e with
      | Num 77.0 -> ()
      | _ -> Alcotest.fail "flow id = txid");
      match field "txid" (field "args" e) with
      | Num 77.0 -> ()
      | _ -> Alcotest.fail "args txid")
    evs;
  (* the end event binds to the enclosing slice *)
  (match field "bp" (List.nth evs 2) with
  | Str "e" -> ()
  | _ -> Alcotest.fail "end binding point");
  (match List.assoc_opt "bp" (match List.hd evs with Obj o -> o | _ -> []) with
  | None -> ()
  | Some _ -> Alcotest.fail "start has no binding point")

(* ------------------------------------------------------------------ *)
(* Transaction profile ledger *)

(* Top-K admission is a min-heap: feed totals in an adversarial order
   (ascending run, then descending, duplicates of the cut boundary)
   and the capture must still hold exactly the K largest, slowest
   first. *)
let test_topk_adversarial () =
  let tp = Obs.Txprof.create ~k:4 (Obs.Metrics.create ()) in
  let totals = [ 5; 100; 3; 98; 99; 1; 97; 102; 2; 98 ] in
  List.iteri
    (fun i total ->
      let phases = Array.make Obs.Txprof.nphases 0 in
      phases.(Obs.Txprof.ph_exec) <- total;
      Obs.Txprof.record tp ~txid:(i + 1) ~tid:0 ~start_ts:0 ~total_ns:total
        ~retries:0 ~bytes_logged:0 ~writes:0 ~phases)
    totals;
  Alcotest.(check int) "count sees everything" (List.length totals)
    (Obs.Txprof.count tp);
  Alcotest.(check int) "capture is bounded" 4 (Obs.Txprof.captured tp);
  let got = List.map (fun e -> e.Obs.Txprof.total_ns) (Obs.Txprof.top tp) in
  Alcotest.(check (list int)) "four largest, slowest first"
    [ 102; 100; 99; 98 ] got

(* ------------------------------------------------------------------ *)
(* Integration: redo logging commits with exactly one fence *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemobs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_one_fence_per_commit () =
  with_tmpdir (fun dir ->
      let m = Scm.Env.make_machine ~seed:3 ~nframes:4096 () in
      let backing = Region.Backing_store.open_dir dir in
      let pmem = Region.Pmem.open_instance m backing in
      let config =
        {
          Mtm.Txn.default_config with
          nthreads = 1;
          log_cap_words = 4096;
          truncation = Mtm.Txn.Async;
        }
      in
      let pool = Mtm.Txn.create_pool ~config pmem None in
      let v = Region.Pmem.default_view pmem in
      let slot = Region.Pstatic.get v "test.data" 8 in
      let base = Region.Pmem.pmap v 4096 in
      Region.Pmem.wtstore v slot (Int64.of_int base);
      Region.Pmem.fence v;
      (* fault the data page in now, or commit write-back would take a
         demand fault whose durable mapping-table update also fences *)
      ignore (Region.Pmem.load v base);
      let th = Mtm.Txn.thread pool 0 v.env in
      (* all the setup fences and faults are behind us: watch one commit *)
      let obs = Mtm.Txn.obs pool in
      Obs.enable_trace obs;
      Mtm.Txn.run th (fun tx ->
          Mtm.Txn.store tx base 1L;
          Mtm.Txn.store tx (base + 8) 2L;
          Mtm.Txn.store tx (base + 16) 3L);
      let events =
        match obs.Obs.trace with
        | Some tr -> Obs.Trace.events tr
        | None -> []
      in
      let count k =
        List.length (List.filter (fun e -> e.Obs.Trace.kind = k) events)
      in
      (* the durability point of lazy redo logging is the single tornbit
         flush+fence after the log append (paper section 5); with async
         truncation nothing else orders *)
      Alcotest.(check int) "exactly one fence" 1 (count Obs.Trace.Fence);
      Alcotest.(check int) "one commit" 1 (count Obs.Trace.Txn_commit);
      Alcotest.(check int) "one log append" 1 (count Obs.Trace.Log_append);
      let s = Mtm.Txn.stats pool in
      Alcotest.(check int) "committed" 1 s.Mtm.Txn.commits)

(* Shared pool setup for the profiling tests: one simulated machine,
   one instance, a mapped data page, [nthreads] transaction threads. *)
let with_pool ?(nthreads = 1) dir f =
  let m = Scm.Env.make_machine ~seed:7 ~nframes:4096 () in
  let backing = Region.Backing_store.open_dir dir in
  let pmem = Region.Pmem.open_instance m backing in
  let config =
    {
      Mtm.Txn.default_config with
      nthreads;
      log_cap_words = 4096;
      truncation = Mtm.Txn.Async;
    }
  in
  let pool = Mtm.Txn.create_pool ~config pmem None in
  let v = Region.Pmem.default_view pmem in
  let base = Region.Pmem.pmap v 4096 in
  ignore (Region.Pmem.load v base);
  f pool v base

(* The mark-chain invariant: the instrumented commit path advances one
   thread-local mark through the phase boundaries, attributing every
   interval to exactly one phase — so each ledger entry's phase sum
   must equal its total duration exactly, not just account for 95% of
   it. *)
let test_phase_sum_invariant () =
  with_tmpdir (fun dir ->
      with_pool dir (fun pool v base ->
          let tp =
            Obs.Txprof.create (Mtm.Txn.obs pool).Obs.metrics
          in
          Mtm.Txn.set_txprof pool (Some tp);
          let th = Mtm.Txn.thread pool 0 v.env in
          let n = 20 in
          for i = 1 to n do
            Mtm.Txn.run th (fun tx ->
                (* vary the write-set size so totals differ *)
                for w = 0 to i mod 5 do
                  Mtm.Txn.store tx (base + (8 * w)) (Int64.of_int i)
                done)
          done;
          Alcotest.(check int) "every commit recorded" n (Obs.Txprof.count tp);
          Alcotest.(check int) "tail captured" (min n (Obs.Txprof.k tp))
            (Obs.Txprof.captured tp);
          List.iter
            (fun e ->
              if e.Obs.Txprof.total_ns <= 0 then
                Alcotest.failf "txid %d: empty duration" e.Obs.Txprof.txid;
              if Obs.Txprof.phase_sum e <> e.Obs.Txprof.total_ns then
                Alcotest.failf
                  "txid %d: phase sum %d <> total %d (unattributed time)"
                  e.Obs.Txprof.txid (Obs.Txprof.phase_sum e)
                  e.Obs.Txprof.total_ns;
              if e.Obs.Txprof.txid <= 0 || e.Obs.Txprof.txid > n then
                Alcotest.failf "txid %d out of range" e.Obs.Txprof.txid)
            (Obs.Txprof.top tp);
          (* the phase histograms fed one sample per commit *)
          Alcotest.(check int) "total histogram count" n
            (Obs.Metrics.hcount (Obs.Txprof.total_histogram tp));
          (* the always-on flight ring saw the run without tracing *)
          let dump = Obs.flight_dump (Mtm.Txn.obs pool) in
          let contains needle =
            let nl = String.length needle and hl = String.length dump in
            let rec go i =
              i + nl <= hl && (String.sub dump i nl = needle || go (i + 1))
            in
            if not (go 0) then
              Alcotest.failf "flight dump missing %S in:\n%s" needle dump
          in
          contains "Txn_commit";
          contains "Flow_start"))

(* Regression: log-full stall time is charged to exactly one phase of
   the transaction that suffered it.  The stall accumulator lives on
   the thread and is drained by the instrumented commit path; a stall
   served while no profiler was installed must not leak into the first
   instrumented commit — [run] resets the accumulator unconditionally,
   not only when a ledger is attached.  The leak shows up as a phase
   sum exceeding the entry's total. *)
let test_stall_not_leaked_across_install () =
  with_tmpdir (fun dir ->
      let m = Scm.Env.make_machine ~seed:7 ~nframes:4096 () in
      let backing = Region.Backing_store.open_dir dir in
      let pmem = Region.Pmem.open_instance m backing in
      let config =
        {
          Mtm.Txn.default_config with
          nthreads = 1;
          truncation = Mtm.Txn.Async;
          log_cap_words = 64;
        }
      in
      let pool = Mtm.Txn.create_pool ~config pmem None in
      let v = Region.Pmem.default_view pmem in
      let base = Region.Pmem.pmap v 65536 in
      ignore (Region.Pmem.load v base);
      let th = Mtm.Txn.thread pool 0 v.env in
      (* fill the 64-word log until the producer stalls and
         self-drains, repeatedly — all before any profiler exists *)
      for k = 0 to 19 do
        Mtm.Txn.run th (fun tx ->
            for j = 0 to 3 do
              Mtm.Txn.store tx (base + (k * 256) + (j * 8)) 1L
            done)
      done;
      let tp = Obs.Txprof.create (Mtm.Txn.obs pool).Obs.metrics in
      Mtm.Txn.set_txprof pool (Some tp);
      Mtm.Txn.run th (fun tx -> Mtm.Txn.store tx base 9L);
      Alcotest.(check int) "one instrumented commit" 1 (Obs.Txprof.count tp);
      List.iter
        (fun e ->
          if Obs.Txprof.phase_sum e <> e.Obs.Txprof.total_ns then
            Alcotest.failf
              "pre-install stall leaked into the ledger: phase sum %d <> \
               total %d (trunc_wait %d)"
              (Obs.Txprof.phase_sum e) e.Obs.Txprof.total_ns
              e.Obs.Txprof.phases.(Obs.Txprof.ph_trunc_wait))
        (Obs.Txprof.top tp))

(* The pipelined commit's ninth phase: time blocked in the in-flight
   window (backpressure waiting for — or inline running — the deferred
   write-back drain) is charged to [ph_drain_wait], and the mark chain
   still partitions the commit exactly: phase sum == total for every
   entry.  A 1-deep window with no drainer daemon forces every commit
   after the first through the backpressure path. *)
let test_drain_wait_phase () =
  with_tmpdir (fun dir ->
      let m = Scm.Env.make_machine ~seed:7 ~nframes:4096 () in
      let backing = Region.Backing_store.open_dir dir in
      let pmem = Region.Pmem.open_instance m backing in
      let config =
        {
          Mtm.Txn.default_config with
          nthreads = 1;
          log_cap_words = 4096;
          pipeline = true;
          pipe_window = 1;
        }
      in
      let pool = Mtm.Txn.create_pool ~config pmem None in
      let v = Region.Pmem.default_view pmem in
      let base = Region.Pmem.pmap v 4096 in
      ignore (Region.Pmem.load v base);
      let tp = Obs.Txprof.create (Mtm.Txn.obs pool).Obs.metrics in
      Mtm.Txn.set_txprof pool (Some tp);
      let th = Mtm.Txn.thread pool 0 v.env in
      let n = 10 in
      for i = 1 to n do
        Mtm.Txn.run th (fun tx ->
            for w = 0 to 3 do
              Mtm.Txn.store tx (base + (8 * w)) (Int64.of_int i)
            done)
      done;
      Alcotest.(check int) "every commit recorded" n (Obs.Txprof.count tp);
      let drain_wait = ref 0 in
      List.iter
        (fun e ->
          drain_wait := !drain_wait + e.Obs.Txprof.phases.(Obs.Txprof.ph_drain_wait);
          if Obs.Txprof.phase_sum e <> e.Obs.Txprof.total_ns then
            Alcotest.failf
              "txid %d: phase sum %d <> total %d (drain_wait %d \
               unattributed)"
              e.Obs.Txprof.txid (Obs.Txprof.phase_sum e)
              e.Obs.Txprof.total_ns
              e.Obs.Txprof.phases.(Obs.Txprof.ph_drain_wait))
        (Obs.Txprof.top tp);
      Alcotest.(check bool) "backpressure time lands in drain_wait" true
        (!drain_wait > 0))

(* The compound case the two previous tests take separately (ISSUE 9,
   satellite 2): one commit whose append stalls on a full log
   ([ph_trunc_wait], subtracted from the log phase) AND whose push then
   blocks in the in-flight window ([ph_drain_wait]) — the regime a
   serving workload hits under a real drainer daemon.  Construction: a
   1-deep window over a log that fits exactly one wide record, with a
   daemon on the simulator.  Commit 1 pushes and backpressures; the
   daemon pops the queue and starts flushing its 16 data lines, so
   commit 2's append finds the log full with the head not yet advanced
   (empty queue, [draining] set) — the stall path — and its own push
   then waits for the daemon again.  Both phases land in one ledger
   entry, and the mark chain must still partition the commit exactly:
   any double-count (the stall charged to trunc_wait but not subtracted
   from the log phase, or drain-wait overlapping it) breaks
   phase_sum == total. *)
let test_stall_and_drain_wait_same_commit () =
  with_tmpdir (fun dir ->
      let m = Scm.Env.make_machine ~seed:7 ~nframes:4096 () in
      let backing = Region.Backing_store.open_dir dir in
      let pmem = Region.Pmem.open_instance m backing in
      let config =
        {
          Mtm.Txn.default_config with
          nthreads = 1;
          (* one 16-write record (36 stored words) fits; nothing more *)
          log_cap_words = 40;
          pipeline = true;
          pipe_window = 1;
        }
      in
      let pool = Mtm.Txn.create_pool ~config pmem None in
      let v = Region.Pmem.default_view pmem in
      let base = Region.Pmem.pmap v 4096 in
      ignore (Region.Pmem.load v base);
      let tp = Obs.Txprof.create (Mtm.Txn.obs pool).Obs.metrics in
      Mtm.Txn.set_txprof pool (Some tp);
      let sim = Sim.create () in
      let sim_env =
        Scm.Env.view m
          ~delay:(fun ns -> Sim.delay sim ns)
          ~now:(fun () -> Sim.now sim)
      in
      Sim.spawn sim (fun () ->
          let th = Mtm.Txn.thread pool 0 sim_env in
          let svcs = Mnemosyne.start_drainers sim pool in
          let wide i =
            Mtm.Txn.run th (fun tx ->
                (* 16 distinct cache lines: the daemon's write-back
                   sweep is long enough to still be in flight when the
                   next append runs *)
                for w = 0 to 15 do
                  Mtm.Txn.store tx (base + (64 * w)) (Int64.of_int i)
                done)
          in
          wide 1;
          wide 2;
          Array.iter Sim.Service.stop svcs);
      Sim.run sim;
      Alcotest.(check int) "commits recorded" 2 (Obs.Txprof.count tp);
      Alcotest.(check int) "the second commit stalled" 1
        (Mtm.Txn.stats pool).Mtm.Txn.log_full_stalls;
      let compound = ref false in
      List.iter
        (fun e ->
          let stall = e.Obs.Txprof.phases.(Obs.Txprof.ph_trunc_wait) in
          let dwait = e.Obs.Txprof.phases.(Obs.Txprof.ph_drain_wait) in
          if stall > 0 && dwait > 0 then compound := true;
          if Obs.Txprof.phase_sum e <> e.Obs.Txprof.total_ns then
            Alcotest.failf
              "txid %d: phase sum %d <> total %d (trunc_wait %d, \
               drain_wait %d: stall/drain-wait double-count)"
              e.Obs.Txprof.txid (Obs.Txprof.phase_sum e)
              e.Obs.Txprof.total_ns stall dwait)
        (Obs.Txprof.top tp);
      Alcotest.(check bool) "one commit carries both phases" true !compound)

(* The disabled path must stay allocation-free: with no trace and no
   ledger installed every hook is one branch, and a commit's footprint
   stays within the perf baseline's minor-words budget. *)
let test_disabled_path_allocation () =
  with_tmpdir (fun dir ->
      with_pool dir (fun pool v base ->
          Alcotest.(check bool) "profiling off" true
            (Mtm.Txn.txprof pool = None);
          let th = Mtm.Txn.thread pool 0 v.env in
          let commit i =
            Mtm.Txn.run th (fun tx ->
                Mtm.Txn.store tx base (Int64.of_int i);
                Mtm.Txn.store tx (base + 8) (Int64.of_int (i * 3)))
          in
          (* warm up: first commits pay one-time cache/log growth *)
          for i = 1 to 100 do
            commit i
          done;
          let n = 500 in
          let before = Gc.minor_words () in
          for i = 1 to n do
            commit i
          done;
          let per_commit = (Gc.minor_words () -. before) /. float_of_int n in
          if per_commit > 512.0 then
            Alcotest.failf "disabled path allocates %.1f minor words/commit"
              per_commit))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram vs oracle" `Quick
            test_histogram_oracle;
          Alcotest.test_case "small values exact" `Quick
            test_histogram_small_exact;
          Alcotest.test_case "buckets grow invisibly" `Quick
            test_histogram_growth_invisible;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "snapshot and json export" `Quick
            test_snapshot_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "chrome json round-trip" `Quick
            test_chrome_roundtrip;
          Alcotest.test_case "flow events carry txid" `Quick
            test_flow_roundtrip;
        ] );
      ( "txprof",
        [
          Alcotest.test_case "top-k adversarial order" `Quick
            test_topk_adversarial;
          Alcotest.test_case "phase sum equals duration" `Quick
            test_phase_sum_invariant;
          Alcotest.test_case "stall not leaked across install" `Quick
            test_stall_not_leaked_across_install;
          Alcotest.test_case "stall and drain wait in one commit" `Quick
            test_stall_and_drain_wait_same_commit;
          Alcotest.test_case "drain wait phase partitions exactly" `Quick
            test_drain_wait_phase;
        ] );
      ( "integration",
        [
          Alcotest.test_case "one fence per redo commit" `Quick
            test_one_fence_per_commit;
          Alcotest.test_case "disabled path stays allocation-free" `Quick
            test_disabled_path_allocation;
        ] );
    ]
