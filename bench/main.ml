(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 6).

   All headline measurements are in SIMULATED time: the SCM latency
   model charges each memory primitive exactly the delays the paper's
   DRAM-based emulator inserted, so latencies and throughputs are
   functions of the modeled PCM, not of this machine's CPU.  Absolute
   numbers therefore differ from the paper's 2.5 GHz Core 2 testbed;
   EXPERIMENTS.md compares the shapes (who wins, by what factor, where
   the crossovers fall), and each section prints the paper's reference
   values alongside.

   Run everything:          dune exec bench/main.exe
   Run selected sections:   dune exec bench/main.exe -- table6 figure4
   Wall-clock microbenches: dune exec bench/main.exe -- --wallclock
   (Bechamel measures host-CPU time, which is only meaningful for the
   CPU-bound kernels, not for the simulated-time experiments.) *)

let tmp_root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mnemosyne-bench-%d" (Unix.getpid ()))

(* ------------------------------------------------------------------ *)
(* JSON perf output (--json FILE, --baseline FILE)                     *)

(* Sections register wall-clock/simulated figures here; --json dumps
   them under a stable schema (documented in EXPERIMENTS.md) so CI can
   track the perf trajectory across PRs and fail on regressions. *)
let json_schema = "mnemosyne-bench/1"
let json_sections : (string * (string * float) list) list ref = ref []

let json_add section kvs =
  json_sections := !json_sections @ [ (section, kvs) ]

let json_write file =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"schema\": %S,\n  \"sections\": {\n" json_schema);
  List.iteri
    (fun i (name, kvs) ->
      Buffer.add_string buf (Printf.sprintf "    %S: {\n" name);
      List.iteri
        (fun j (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf "      %S: %.6g%s\n" k v
               (if j = List.length kvs - 1 then "" else ",")))
        kvs;
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n"
           (if i = List.length !json_sections - 1 then "" else ",")))
    !json_sections;
  Buffer.add_string buf "  }\n}\n";
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))

(* Minimal extraction of ["sections"][section][key] from a bench JSON
   file: the schema above is flat enough that locating the section
   object and scanning it for the key is exact.  No JSON library is
   available in the container, and the schema is ours. *)
let json_find ~section ~key text =
  let find_from pat pos =
    let plen = String.length pat in
    let n = String.length text in
    let rec go i =
      if i + plen > n then None
      else if String.sub text i plen = pat then Some (i + plen)
      else go (i + 1)
    in
    go pos
  in
  match find_from (Printf.sprintf "%S: {" section) 0 with
  | None -> None
  | Some sec_start -> (
      let sec_end =
        match String.index_from_opt text sec_start '}' with
        | Some e -> e
        | None -> String.length text
      in
      match find_from (Printf.sprintf "%S:" key) sec_start with
      | Some vpos when vpos < sec_end ->
          let rec skip i =
            if i < sec_end && (text.[i] = ' ' || text.[i] = '\t') then
              skip (i + 1)
            else i
          in
          let s = skip vpos in
          let e = ref s in
          while
            !e < sec_end
            && (match text.[!e] with
               | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
               | _ -> false)
          do
            incr e
          done;
          float_of_string_opt (String.sub text s (!e - s))
      | _ -> None)

let has_prefix p key =
  String.length key >= String.length p
  && String.sub key 0 (String.length p) = p

(* Compare the just-measured host wall-clock throughputs against a
   committed baseline; returns the failures (section, key, baseline,
   current).  Only [wall_*_per_s] figures are gated here, within the
   --max-regress noise tolerance: every other figure is deterministic
   and exact-matched by {!json_check_invariants}. *)
let json_check_baseline file ~max_regress_pct =
  let text = In_channel.with_open_text file In_channel.input_all in
  let failures = ref [] in
  List.iter
    (fun (section, kvs) ->
      List.iter
        (fun (key, cur) ->
          if
            has_prefix "wall_" key
            && String.length key > 6
            && String.sub key (String.length key - 6) 6 = "_per_s"
          then
            match json_find ~section ~key text with
            | Some base when base > 0.0 ->
                let drop = (base -. cur) /. base *. 100.0 in
                if drop > max_regress_pct then
                  failures := (section, key, base, cur) :: !failures
            | Some _ | None -> ())
        kvs)
    !json_sections;
  List.rev !failures

(* Every figure but host wall-clock ([wall_*]) and allocation
   ([minor_words_*]) is deterministic: simulated times and throughputs,
   latency percentiles, event counts, workload shape.  The harness never
   installs the sanitizer, so a build must reproduce every such figure
   of the committed baseline bit-for-bit (at the "%.6g" precision the
   JSON carries), and hold the default commit case inside its
   minor-word allocation budget.  Drift here means modeled behaviour
   changed, which is rebaselined on purpose — a much stronger claim
   than the wall-clock gate above, which only bounds host-CPU noise. *)
let minor_words_budget = 512.0

let json_check_invariants file =
  let text = In_channel.with_open_text file In_channel.input_all in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (section, kvs) ->
      List.iter
        (fun (key, cur) ->
          (if not (has_prefix "wall_" key || has_prefix "minor_words_" key)
           then
             match json_find ~section ~key text with
             | Some base
               when Printf.sprintf "%.6g" base <> Printf.sprintf "%.6g" cur ->
                 fail "%s.%s: deterministic figure %.6g differs from \
                       baseline %.6g"
                   section key cur base
             | Some _ -> ()
             | None ->
                 fail "%s.%s: figure missing from the baseline" section key);
          if
            key = "minor_words_per_commit" && section = "commit"
            && cur > minor_words_budget
          then
            fail "%s.%s: %.1f minor words/commit exceeds the %.0f-word budget"
              section key cur minor_words_budget)
        kvs)
    !json_sections;
  List.rev !failures

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat tmp_root (Printf.sprintf "%s-%03d" name !n)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --sched-policy/--sched-seed: run the whole harness under a non-Fifo
   same-time tiebreak (see Sim.Schedule) to check the figures are not
   artifacts of one particular interleaving.  Fifo is the default and
   keeps every section bit-identical to the historical scheduler. *)
let sched_policy = ref Sim.Schedule.Fifo
let sched_seed = ref 0

let bench_sim () =
  Sim.create ~schedule:(Sim.Schedule.make ~seed:!sched_seed !sched_policy) ()

let sim_env sim (m : Scm.Env.machine) =
  Scm.Env.view m ~delay:(fun ns -> Sim.delay sim ns)
    ~now:(fun () -> Sim.now sim)

let sizes = [ 8; 64; 256; 1024; 2048; 4096 ]

(* ------------------------------------------------------------------ *)
(* Hash table runners (figures 4, 5 and 7)                             *)

type ht_result = {
  write_lat_us : float;
  delete_lat_us : float;
  tput_kops : float;  (* inserts + deletes per second, thousands *)
  aborts : int;
}

let geometry =
  {
    Mnemosyne.scm_frames = 16384;
    heap_superblocks = 768;
    heap_large_bytes = 24 * 1024 * 1024;
  }

(* Mnemosyne transactions over the persistent chained hash table.  Each
   thread inserts fresh keys and deletes the key it inserted [lag]
   operations ago, so deletes happen at the same rate as writes and the
   table stays in steady state (paper section 6.3). *)
let run_mtm_hashtable ?(latency = Scm.Latency_model.default) ~threads
    ~value_bytes ~ops_per_thread () =
  let dir = fresh_dir "ht-mtm" in
  let inst = Mnemosyne.open_instance ~geometry ~latency ~dir () in
  let machine = Mnemosyne.machine inst in
  let sim = bench_sim () in
  let heap_mu = Sim.Mutex_r.create sim in
  Pmheap.Heap.set_exclusion (Mnemosyne.heap inst) (fun f ->
      Sim.Mutex_r.with_lock heap_mu f);
  let slot = Mnemosyne.pstatic inst "bench.ht" 8 in
  let table =
    Mnemosyne.atomically inst (fun tx ->
        Pstruct.Phashtable.create tx ~slot ~buckets:1024)
  in
  let wlat = Workload.Stats.create () in
  let dlat = Workload.Stats.create () in
  let lag = 16 in
  for i = 0 to threads - 1 do
    Sim.spawn sim (fun () ->
        let env = sim_env sim machine in
        let th = Mnemosyne.thread inst i env in
        let kg = Workload.Keygen.create ~seed:(1000 + i) () in
        let keyname k = Bytes.of_string (Printf.sprintf "t%d-%06d" i k) in
        for k = 0 to ops_per_thread - 1 do
          let value = Workload.Keygen.value kg value_bytes in
          let t0 = Sim.now sim in
          Mtm.Txn.run th (fun tx ->
              Pstruct.Phashtable.put tx table (keyname k) value);
          Workload.Stats.add wlat (Sim.now sim - t0);
          if k >= lag then begin
            let t0 = Sim.now sim in
            Mtm.Txn.run th (fun tx ->
                ignore
                  (Pstruct.Phashtable.remove tx table (keyname (k - lag))));
            Workload.Stats.add dlat (Sim.now sim - t0)
          end
        done)
  done;
  Sim.run sim;
  let ops = Workload.Stats.count wlat + Workload.Stats.count dlat in
  let result =
    {
      write_lat_us = Workload.Stats.mean_us wlat;
      delete_lat_us = Workload.Stats.mean_us dlat;
      tput_kops =
        Workload.Stats.throughput_per_s ~ops ~elapsed_ns:(Sim.now sim)
        /. 1000.0;
      aborts = (Mtm.Txn.stats (Mnemosyne.pool inst)).aborts;
    }
  in
  rm_rf dir;
  result

(* Berkeley DB on PCM-disk, committing every update. *)
let run_bdb_hashtable ?(latency = Scm.Latency_model.default) ~threads
    ~value_bytes ~ops_per_thread () =
  let disk = Baseline.Pcm_disk.create ~latency ~nblocks:4096 () in
  let sim = bench_sim () in
  let bdb = Baseline.Bdb.create ~sim ~cache_pages:512 disk in
  let machine = Scm.Env.make_machine ~latency ~nframes:16 () in
  let wlat = Workload.Stats.create () in
  let dlat = Workload.Stats.create () in
  let lag = 16 in
  for i = 0 to threads - 1 do
    Sim.spawn sim (fun () ->
        let env = sim_env sim machine in
        let kg = Workload.Keygen.create ~seed:(2000 + i) () in
        let keyname k = Bytes.of_string (Printf.sprintf "t%d-%06d" i k) in
        for k = 0 to ops_per_thread - 1 do
          let value = Workload.Keygen.value kg value_bytes in
          let t0 = Sim.now sim in
          Baseline.Bdb.put bdb env (keyname k) value;
          Workload.Stats.add wlat (Sim.now sim - t0);
          if k >= lag then begin
            let t0 = Sim.now sim in
            ignore (Baseline.Bdb.delete bdb env (keyname (k - lag)));
            Workload.Stats.add dlat (Sim.now sim - t0)
          end
        done)
  done;
  Sim.run sim;
  let ops = Workload.Stats.count wlat + Workload.Stats.count dlat in
  {
    write_lat_us = Workload.Stats.mean_us wlat;
    delete_lat_us = Workload.Stats.mean_us dlat;
    tput_kops =
      Workload.Stats.throughput_per_s ~ops ~elapsed_ns:(Sim.now sim) /. 1000.0;
    aborts = 0;
  }

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5                                                     *)

let figures_4_and_5 () =
  let thread_counts = [ 1; 2; 4 ] in
  let results = Hashtbl.create 64 in
  List.iter
    (fun threads ->
      List.iter
        (fun size ->
          let ops = if size >= 2048 then 120 else 250 in
          Hashtbl.replace results ("MTM", threads, size)
            (run_mtm_hashtable ~threads ~value_bytes:size ~ops_per_thread:ops
               ());
          Hashtbl.replace results ("BDB", threads, size)
            (run_bdb_hashtable ~threads ~value_bytes:size ~ops_per_thread:ops
               ()))
        sizes)
    thread_counts;
  let cell f sys threads size = f (Hashtbl.find results (sys, threads, size)) in
  let matrix f =
    List.map
      (fun size ->
        string_of_int size
        :: List.concat_map
             (fun t ->
               [
                 Printf.sprintf "%.1f" (cell f "BDB" t size);
                 Printf.sprintf "%.1f" (cell f "MTM" t size);
               ])
             thread_counts)
      sizes
  in
  let header =
    "value size"
    :: List.concat_map
         (fun t -> [ Printf.sprintf "BDB-%dT" t; Printf.sprintf "MTM-%dT" t ])
         thread_counts
  in
  Workload.Report.section "figure4"
    "hashtable write latency, Mnemosyne transactions vs Berkeley DB (us)";
  Workload.Report.table ~header (matrix (fun r -> r.write_lat_us));
  Workload.Report.note
    "paper: MTM ~6x lower latency than BDB-1T below 2048 B; BDB lower above";
  Workload.Report.note
    (Printf.sprintf
       "MTM delete latency stays flat as values grow: %.1f us at 64 B vs %.1f us at 4096 B"
       (cell (fun r -> r.delete_lat_us) "MTM" 1 64)
       (cell (fun r -> r.delete_lat_us) "MTM" 1 4096));
  Workload.Report.section "figure5"
    "hashtable update throughput, inserts+deletes (kops/s)";
  Workload.Report.table ~header (matrix (fun r -> r.tput_kops));
  let scaling sys size =
    cell (fun r -> r.tput_kops) sys 4 size
    /. cell (fun r -> r.tput_kops) sys 1 size
  in
  Workload.Report.note
    (Printf.sprintf
       "scaling 1T->4T at 64 B: MTM %.2fx (paper: near-linear), BDB %.2fx (paper: stops at 2T)"
       (scaling "MTM" 64) (scaling "BDB" 64));
  Workload.Report.note
    (Printf.sprintf "MTM aborts at 4T/64B: %d (encounter-time conflicts)"
       (cell (fun r -> r.aborts) "MTM" 4 64))

(* ------------------------------------------------------------------ *)
(* Figure 7: sensitivity to SCM write latency                          *)

let figure7 () =
  Workload.Report.section "figure7"
    "Mnemosyne speedup over Berkeley DB vs SCM write latency (1 thread)";
  let lats = [ 150; 1000; 2000 ] in
  let rows =
    List.map
      (fun size ->
        string_of_int size
        :: List.map
             (fun l ->
               let latency =
                 Scm.Latency_model.with_pcm_write_ns Scm.Latency_model.default
                   l
               in
               let ops = if size >= 2048 then 120 else 200 in
               let mtm =
                 run_mtm_hashtable ~latency ~threads:1 ~value_bytes:size
                   ~ops_per_thread:ops ()
               in
               let bdb =
                 run_bdb_hashtable ~latency ~threads:1 ~value_bytes:size
                   ~ops_per_thread:ops ()
               in
               Printf.sprintf "%.2fx" (bdb.write_lat_us /. mtm.write_lat_us))
             lats)
      sizes
  in
  Workload.Report.table
    ~header:("value size" :: List.map (fun l -> Printf.sprintf "%d ns" l) lats)
    rows;
  Workload.Report.note
    "paper: always faster at small sizes; advantage shrinks with latency,";
  Workload.Report.note
    "break-even around 1024 B at 2000 ns (>1x = Mnemosyne faster)"

(* ------------------------------------------------------------------ *)
(* Table 4: OpenLDAP and Tokyo Cabinet                                 *)

let run_ldap backend_name =
  let threads = 4 and adds_per_thread = 250 in
  let dir = fresh_dir "ldap" in
  let sim = bench_sim () in
  let latency = Scm.Latency_model.default in
  let server, machine, cleanup =
    match backend_name with
    | `Bdb ->
        let disk = Baseline.Pcm_disk.create ~latency ~nblocks:4096 () in
        ( Apps.Ldap_server.create_bdb ~sim disk,
          Scm.Env.make_machine ~latency ~nframes:16 (),
          fun () -> () )
    | `Ldbm ->
        let disk = Baseline.Pcm_disk.create ~latency ~nblocks:4096 () in
        ( Apps.Ldap_server.create_ldbm ~sim disk,
          Scm.Env.make_machine ~latency ~nframes:16 (),
          fun () -> () )
    | `Mnemosyne ->
        let inst = Mnemosyne.open_instance ~geometry ~latency ~dir () in
        let heap_mu = Sim.Mutex_r.create sim in
        Pmheap.Heap.set_exclusion (Mnemosyne.heap inst) (fun f ->
            Sim.Mutex_r.with_lock heap_mu f);
        ( Apps.Ldap_server.create_mnemosyne inst,
          Mnemosyne.machine inst,
          fun () -> rm_rf dir )
  in
  for i = 0 to threads - 1 do
    Sim.spawn sim (fun () ->
        let w = Apps.Ldap_server.worker server i (sim_env sim machine) in
        let kg = Workload.Keygen.create ~seed:(3000 + i) () in
        for k = 0 to adds_per_thread - 1 do
          Apps.Ldap_server.add_entry w
            ~dn:(Int64.of_int ((i * 1_000_000) + k))
            ~attr_id:(Workload.Keygen.uniform_int kg 7)
            ~payload:(Workload.Keygen.value kg 256)
        done)
  done;
  Sim.run sim;
  let tput =
    Workload.Stats.throughput_per_s
      ~ops:(threads * adds_per_thread)
      ~elapsed_ns:(Sim.now sim)
  in
  cleanup ();
  tput

let run_tc ?(threads = 1) ?request_ns backend_name ~value_bytes =
  let ops = 400 / threads in
  let dir = fresh_dir "tc" in
  let sim = bench_sim () in
  let store, machine, cleanup =
    match backend_name with
    | `Msync ->
        let disk = Baseline.Pcm_disk.create ~nblocks:4096 () in
        ( Apps.Tc_store.create_msync ~sim ?request_ns disk,
          Scm.Env.make_machine ~nframes:16 (),
          fun () -> () )
    | `Mnemosyne ->
        let inst = Mnemosyne.open_instance ~geometry ~dir () in
        let heap_mu = Sim.Mutex_r.create sim in
        Pmheap.Heap.set_exclusion (Mnemosyne.heap inst) (fun f ->
            Sim.Mutex_r.with_lock heap_mu f);
        ( Apps.Tc_store.create_mnemosyne ?request_ns inst,
          Mnemosyne.machine inst,
          fun () -> rm_rf dir )
  in
  for i = 0 to threads - 1 do
    Sim.spawn sim (fun () ->
        let w = Apps.Tc_store.worker store i (sim_env sim machine) in
        let kg = Workload.Keygen.create ~seed:(7 + i) () in
        let lag = 16 in
        (* threads share the key space, as the paper's TC run did —
           contention on the tree is the point of its aside; under heavy
           conflict the STM can give up a batch of retries, so keep
           retrying like TinySTM would *)
        let rec with_retry f =
          try f () with Mtm.Txn.Contention ->
            Sim.delay sim 2_000;
            with_retry f
        in
        for k = 0 to ops - 1 do
          let key = (k * threads) + i in
          with_retry (fun () ->
              Apps.Tc_store.put w (Int64.of_int key)
                (Workload.Keygen.value kg value_bytes));
          if k >= lag then
            with_retry (fun () ->
                ignore
                  (Apps.Tc_store.delete w
                     (Int64.of_int (((k - lag) * threads) + i))))
        done)
  done;
  Sim.run sim;
  let total_ops = threads * (ops + max 0 (ops - 16)) in
  let tput =
    Workload.Stats.throughput_per_s ~ops:total_ops ~elapsed_ns:(Sim.now sim)
  in
  cleanup ();
  tput

let table4 () =
  Workload.Report.section "table4"
    "application update throughput (OpenLDAP: 4 server threads; TC: 1 thread)";
  let ldap_bdb = run_ldap `Bdb in
  let ldap_ldbm = run_ldap `Ldbm in
  let ldap_mnemo = run_ldap `Mnemosyne in
  let tc_msync_64 = run_tc `Msync ~value_bytes:64 in
  let tc_msync_1k = run_tc `Msync ~value_bytes:1024 in
  let tc_mnemo_64 = run_tc `Mnemosyne ~value_bytes:64 in
  let tc_mnemo_1k = run_tc `Mnemosyne ~value_bytes:1024 in
  Workload.Report.table
    ~header:[ "application"; "backend"; "workload"; "updates/s"; "paper" ]
    [
      [ "OpenLDAP"; "back-bdb on PCM-disk"; "SLAMD adds";
        Workload.Report.ops ldap_bdb; "5,428/s" ];
      [ "OpenLDAP"; "back-ldbm on PCM-disk"; "SLAMD adds";
        Workload.Report.ops ldap_ldbm; "6,024/s" ];
      [ "OpenLDAP"; "back-mnemosyne"; "SLAMD adds";
        Workload.Report.ops ldap_mnemo; "7,350/s" ];
      [ "Tokyo Cabinet"; "msync on PCM-disk"; "64B";
        Workload.Report.ops tc_msync_64; "19,382/s" ];
      [ "Tokyo Cabinet"; "msync on PCM-disk"; "1024B";
        Workload.Report.ops tc_msync_1k; "2,044/s" ];
      [ "Tokyo Cabinet"; "Mnemosyne"; "64B";
        Workload.Report.ops tc_mnemo_64; "42,057/s" ];
      [ "Tokyo Cabinet"; "Mnemosyne"; "1024B";
        Workload.Report.ops tc_mnemo_1k; "30,361/s" ];
    ];
  Workload.Report.note
    (Printf.sprintf
       "back-mnemosyne/back-bdb = %.2fx (paper 1.35x); TC Mnemosyne/msync = %.1fx at 64B, %.1fx at 1024B (paper ~2.2x, ~14.9x)"
       (ldap_mnemo /. ldap_bdb)
       (tc_mnemo_64 /. tc_msync_64)
       (tc_mnemo_1k /. tc_msync_1k));
  (* The paper's multi-thread aside: TC/Mnemosyne degrades from tree
     contention (-9%); TC/msync gains little (+10%) because msync
     serializes in the kernel.  To expose the storage-layer effect we
     strip the per-request library cost and saturate with 4 threads. *)
  let probe backend =
    let t1 = run_tc ~threads:1 ~request_ns:500 backend ~value_bytes:64 in
    let t4 = run_tc ~threads:4 ~request_ns:500 backend ~value_bytes:64 in
    t4 /. t1
  in
  let m_scale = probe `Mnemosyne and s_scale = probe `Msync in
  Workload.Report.note
    (Printf.sprintf
       "storage-bound 4-thread scaling at 64B: Mnemosyne %.2fx (paper: degrades ~9%%, tree contention)"
       m_scale);
  Workload.Report.note
    (Printf.sprintf
       "                                       msync %.2fx (paper: ~+10%%, msync serializes in the kernel)"
       s_scale)

(* ------------------------------------------------------------------ *)
(* Table 5: red-black tree updates vs Boost serialization              *)

let table5 () =
  Workload.Report.section "table5"
    "red-black tree updates (Mnemosyne) vs whole-tree serialization (Boost style)";
  let tree_sizes =
    [ (1024, "1 K"); (8192, "8 K"); (65536, "64 K"); (262144, "256 K") ]
  in
  (* 256 Ki nodes of 128 B live entirely in superblocks: size the heap
     for them (36 MiB of superblocks inside a 96 MiB device). *)
  let rb_geometry =
    {
      Mnemosyne.scm_frames = 24576;
      heap_superblocks = 4608;
      heap_large_bytes = 1 lsl 20;
    }
  in
  let rows =
    List.map
      (fun (n, label) ->
        let dir = fresh_dir "rbt" in
        let inst = Mnemosyne.open_instance ~geometry:rb_geometry ~dir () in
        let slot = Mnemosyne.pstatic inst "bench.rb" 8 in
        let tree =
          Mnemosyne.atomically inst (fun tx ->
              Pstruct.Rb_tree.create tx ~slot ())
        in
        let kg = Workload.Keygen.create ~seed:n () in
        let mirror = ref [] in
        let lat = Workload.Stats.create () in
        let env = (Mnemosyne.view inst).Region.Pmem.env in
        let measured = min 400 (n / 4) in
        for i = 0 to n - 1 do
          let key = Int64.of_int (i * 2654435761 land 0x3fff_ffff) in
          let payload = Workload.Keygen.value kg 88 in
          let t0 = env.now () in
          Mnemosyne.atomically inst (fun tx ->
              Pstruct.Rb_tree.put tx tree key payload);
          if i >= n - measured then Workload.Stats.add lat (env.now () - t0);
          mirror := (key, payload) :: !mirror
        done;
        (* the Boost-style alternative: DRAM tree serialized to a file *)
        let disk = Baseline.Pcm_disk.create ~nblocks:16384 () in
        let senv = Scm.Env.standalone (Mnemosyne.machine inst) in
        let t0 = senv.now () in
        ignore
          (Baseline.Serializer.serialize disk senv ~start_block:0 !mirror);
        let ser_us = float_of_int (senv.now () - t0) /. 1000.0 in
        let ins_us = Workload.Stats.mean_us lat in
        rm_rf dir;
        [ label; Printf.sprintf "%.1f us" ins_us;
          Printf.sprintf "%.0f us" ser_us;
          Printf.sprintf "%.0f" (ser_us /. ins_us) ])
      tree_sizes
  in
  Workload.Report.table
    ~header:
      [ "tree size"; "insert latency"; "serialize latency";
        "inserts per serialization" ]
    rows;
  Workload.Report.note
    "paper: 4.7-5.8 us inserts; 517 us - 144 ms serializations; 189-24,788 inserts/serialization"

(* ------------------------------------------------------------------ *)
(* Table 6: base vs tornbit RAWL throughput                            *)

let table6 () =
  Workload.Report.section "table6"
    "log append throughput: base (commit record) vs tornbit RAWL";
  let dir = fresh_dir "rawl" in
  let inst = Mnemosyne.open_instance ~geometry ~dir () in
  let v = Mnemosyne.view inst in
  let cap_words = 262144 in
  let run_one kind size =
    let words = max 1 (size / 8) in
    let record = Array.init words (fun i -> Int64.of_int ((i * 17) + size)) in
    let iters = max 1000 (min 20000 (4_000_000 / size)) in
    let env = v.Region.Pmem.env in
    let t0 = env.now () in
    (match kind with
    | `Tornbit ->
        let base =
          Mnemosyne.pmap inst (Pmlog.Rawl.region_bytes_for ~cap_words)
        in
        let log = Pmlog.Rawl.create v ~base ~cap_words in
        for _ = 1 to iters do
          (match Pmlog.Rawl.append log record with
          | Pmlog.Rawl.Appended _ -> ()
          | Pmlog.Rawl.Full ->
              Pmlog.Rawl.truncate_all log;
              ignore (Pmlog.Rawl.append log record));
          Pmlog.Rawl.flush log
        done
    | `Base ->
        let base =
          Mnemosyne.pmap inst (Pmlog.Commit_log.region_bytes_for ~cap_words)
        in
        let log = Pmlog.Commit_log.create v ~base ~cap_words in
        for _ = 1 to iters do
          match Pmlog.Commit_log.append log record with
          | Pmlog.Commit_log.Appended _ -> ()
          | Pmlog.Commit_log.Full ->
              Pmlog.Commit_log.truncate_all log;
              ignore (Pmlog.Commit_log.append log record)
        done);
    let elapsed = env.now () - t0 in
    (* bytes/ns x 1000 = MB/s *)
    float_of_int (iters * size) *. 1000.0 /. float_of_int elapsed
  in
  let rows =
    [
      "Base (MB/s)"
      :: List.map (fun s -> Printf.sprintf "%.0f" (run_one `Base s)) sizes;
      "Tornbit (MB/s)"
      :: List.map (fun s -> Printf.sprintf "%.0f" (run_one `Tornbit s)) sizes;
    ]
  in
  Workload.Report.table
    ~header:("record size (B)" :: List.map string_of_int sizes)
    rows;
  Workload.Report.note
    "paper: base 17/128/416/881/1088/1244; tornbit 34/227/591/929/1045/1093";
  Workload.Report.note
    "shape: tornbit ~2x better at small records, worse above ~2 KB";
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Figure 6: asynchronous vs synchronous log truncation                *)

let run_truncation_mode ~mode ~value_bytes ~idle_pct =
  let dir = fresh_dir "trunc" in
  let mtm =
    { Mtm.Txn.default_config with truncation = mode; log_cap_words = 65536 }
  in
  let inst = Mnemosyne.open_instance ~geometry ~mtm ~dir () in
  let machine = Mnemosyne.machine inst in
  let sim = bench_sim () in
  let heap_mu = Sim.Mutex_r.create sim in
  Pmheap.Heap.set_exclusion (Mnemosyne.heap inst) (fun f ->
      Sim.Mutex_r.with_lock heap_mu f);
  let slot = Mnemosyne.pstatic inst "bench.ht" 8 in
  let table =
    Mnemosyne.atomically inst (fun tx ->
        Pstruct.Phashtable.create tx ~slot ~buckets:512)
  in
  let lat = Workload.Stats.create () in
  let done_flag = ref false in
  let producer_thread = ref None in
  (* The truncation thread shares the machine with the producer: it only
     gets CPU during the producer's idle windows (the paper runs both on
     the same loaded box, which is why async loses at 10% idle).  The
     producer deposits its idle time into a token bucket; the daemon
     spends measured processing time from it. *)
  let idle_tokens = ref 0 in
  Sim.spawn sim (fun () ->
      let env = sim_env sim machine in
      let th = Mnemosyne.thread inst 0 env in
      producer_thread := Some th;
      let kg = Workload.Keygen.create ~seed:5 () in
      for k = 0 to 199 do
        let t0 = Sim.now sim in
        Mtm.Txn.run th (fun tx ->
            Pstruct.Phashtable.put tx table
              (Bytes.of_string (Printf.sprintf "k%06d" k))
              (Workload.Keygen.value kg value_bytes));
        let op_ns = Sim.now sim - t0 in
        Workload.Stats.add lat op_ns;
        (* duty cycle: idle_pct percent of wall time idle *)
        let idle_ns = op_ns * idle_pct / (100 - idle_pct) in
        idle_tokens := !idle_tokens + idle_ns;
        Sim.delay sim idle_ns
      done;
      done_flag := true);
  if mode = Mtm.Txn.Async then
    Sim.spawn sim (fun () ->
        let dview = Region.Pmem.view (Mnemosyne.pmem inst) (sim_env sim machine) in
        while not !done_flag do
          (match !producer_thread with
          | Some th when !idle_tokens > 0 ->
              let t0 = Sim.now sim in
              if Mtm.Txn.process_one_truncation th dview then
                idle_tokens := !idle_tokens - (Sim.now sim - t0)
              else Sim.delay sim 1_000
          | Some _ | None -> Sim.delay sim 1_000)
        done;
        (* once the workload ends the machine is idle: drain *)
        match !producer_thread with
        | Some th -> ignore (Mtm.Txn.process_truncations th dview)
        | None -> ());
  Sim.run sim;
  rm_rf dir;
  Workload.Stats.mean_us lat

let figure6 () =
  Workload.Report.section "figure6"
    "write-latency change, asynchronous vs synchronous truncation (%)";
  let idles = [ 90; 50; 10 ] in
  let rows =
    List.map
      (fun size ->
        string_of_int size
        :: List.map
             (fun idle ->
               let sync =
                 run_truncation_mode ~mode:Mtm.Txn.Sync ~value_bytes:size
                   ~idle_pct:idle
               in
               let async =
                 run_truncation_mode ~mode:Mtm.Txn.Async ~value_bytes:size
                   ~idle_pct:idle
               in
               Printf.sprintf "%+.0f%%" ((sync -. async) /. sync *. 100.0))
             idles)
      sizes
  in
  Workload.Report.table
    ~header:
      ("value size" :: List.map (fun i -> Printf.sprintf "%d%% idle" i) idles)
    rows;
  Workload.Report.note
    "positive = async is faster.  paper: +7..31% at 90/50% idle;";
  Workload.Report.note
    "negative at 10% idle for large values (up to -42%): the truncation";
  Workload.Report.note
    "daemon's flushes contend for PCM write bandwidth with the producer"

(* ------------------------------------------------------------------ *)
(* Reincarnation costs (section 6.3.2)                                 *)

let reincarnation () =
  Workload.Report.section "reincarnation"
    "cost of coming back: boot scan, region remap, heap scavenge, log replay";
  let dir = fresh_dir "reinc" in
  let mtm = { Mtm.Txn.default_config with truncation = Mtm.Txn.Async } in
  let inst = Mnemosyne.open_instance ~geometry ~mtm ~dir () in
  (* populate a hash table; with async truncation and no daemon the
     final transactions are committed but never flushed, so recovery
     has work to do *)
  let slot = Mnemosyne.pstatic inst "bench.ht" 8 in
  let table =
    Mnemosyne.atomically inst (fun tx ->
        Pstruct.Phashtable.create tx ~slot ~buckets:1024)
  in
  let kg = Workload.Keygen.create () in
  for k = 0 to 1999 do
    Mnemosyne.atomically inst (fun tx ->
        Pstruct.Phashtable.put tx table (Workload.Keygen.seq_key k)
          (Workload.Keygen.value kg 64))
  done;
  let inst = Mnemosyne.reincarnate inst in
  let stats = Mnemosyne.reincarnation_stats inst in
  let frames = geometry.Mnemosyne.scm_frames in
  let per_frame = stats.boot_ns / frames in
  let gb_frames = 1 lsl 18 in
  Workload.Report.table
    ~header:[ "cost"; "measured"; "paper" ]
    [
      [ "OS boot: mapping-table scan";
        Printf.sprintf "%.1f ms (%d frames)"
          (float_of_int stats.boot_ns /. 1e6)
          frames;
        "734 ms for 1 GB" ];
      [ "  extrapolated to 1 GB SCM";
        Printf.sprintf "%.0f ms" (float_of_int (per_frame * gb_frames) /. 1e6);
        "734 ms" ];
      [ "process start: region remap";
        Printf.sprintf "%.2f ms" (float_of_int stats.remap_ns /. 1e6);
        "~1.1 ms" ];
      [ "process start: heap scavenge";
        Printf.sprintf "%.2f ms" (float_of_int stats.heap_scavenge_ns /. 1e6);
        "~89 ms (their larger heap)" ];
      [ "transactions replayed"; string_of_int stats.txns_replayed;
        "bounded by threads (sync)" ];
      [ "replay cost";
        (if stats.txns_replayed = 0 then "0 us"
         else
           Printf.sprintf "%.1f us total, %.1f us/txn"
             (float_of_int stats.txn_replay_ns /. 1e3)
             (float_of_int stats.txn_replay_ns
              /. float_of_int stats.txns_replayed /. 1e3));
        "3-76 us per txn" ];
    ];
  (* verify the reincarnated data is intact *)
  let ok =
    Mnemosyne.atomically inst (fun tx ->
        let table =
          Pstruct.Phashtable.attach tx
            ~root:(Int64.to_int (Mtm.Txn.load tx slot))
        in
        Pstruct.Phashtable.length tx table = 2000)
  in
  Workload.Report.note
    (if ok then
       "post-reincarnation integrity check: 2000/2000 entries present"
     else "post-reincarnation integrity check FAILED");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)

(* Redo vs undo logging (paper section 5's discussion): same hashtable
   workload under both version-management policies. *)
let ablation_undo () =
  Workload.Report.section "ablation_undo"
    "durable transactions: lazy redo (Mnemosyne) vs eager undo logging (us/insert)";
  let run mode value_bytes =
    let dir = fresh_dir "undo" in
    let mtm = { Mtm.Txn.default_config with version_mgmt = mode } in
    let inst = Mnemosyne.open_instance ~geometry ~mtm ~dir () in
    let slot = Mnemosyne.pstatic inst "bench.ht" 8 in
    let table =
      Mnemosyne.atomically inst (fun tx ->
          Pstruct.Phashtable.create tx ~slot ~buckets:512)
    in
    let env = (Mnemosyne.view inst).Region.Pmem.env in
    let kg = Workload.Keygen.create () in
    let lat = Workload.Stats.create () in
    for k = 0 to 149 do
      let t0 = env.now () in
      Mnemosyne.atomically inst (fun tx ->
          Pstruct.Phashtable.put tx table
            (Bytes.of_string (Printf.sprintf "k%06d" k))
            (Workload.Keygen.value kg value_bytes));
      Workload.Stats.add lat (env.now () - t0)
    done;
    rm_rf dir;
    Workload.Stats.mean_us lat
  in
  let rows =
    List.map
      (fun size ->
        let redo = run Mtm.Txn.Lazy_redo size in
        let undo = run Mtm.Txn.Eager_undo size in
        [ string_of_int size; Printf.sprintf "%.1f" redo;
          Printf.sprintf "%.1f" undo; Printf.sprintf "%.2fx" (undo /. redo) ])
      sizes
  in
  Workload.Report.table
    ~header:[ "value size"; "redo"; "undo"; "undo/redo" ]
    rows;
  Workload.Report.note
    "the paper chooses redo because undo \"would require ordering a log";
  Workload.Report.note
    "write before every memory update\": each first write to a word costs";
  Workload.Report.note "a fence, so undo degrades as the write set grows"

(* Wear leveling (paper section 4.5): a skewed transactional workload
   concentrates media writes; one leveling pass spreads them. *)
let ablation_wear () =
  Workload.Report.section "ablation_wear"
    "wear leveling: per-frame write concentration under a skewed workload";
  let run ~level =
    let dir = fresh_dir "wear" in
    let inst = Mnemosyne.open_instance ~geometry ~dir () in
    let v = Mnemosyne.view inst in
    let r = Mnemosyne.pmap inst (16 * 4096) in
    let kg = Workload.Keygen.create () in
    let zipf = Workload.Keygen.Zipf.make kg ~n:16 ~theta:1.2 in
    for i = 0 to 3999 do
      let page = Workload.Keygen.Zipf.draw zipf in
      Region.Pmem.wtstore v
        (r + (page * 4096) + (8 * (i mod 512)))
        (Int64.of_int i);
      Region.Pmem.fence v;
      if level && i mod 500 = 499 then
        ignore (Region.Pmem.wear_level v ~threshold:2.0)
    done;
    let dev = (Mnemosyne.machine inst).dev in
    let writes =
      List.init (Scm.Scm_device.nframes dev) (fun f ->
          Scm.Scm_device.write_count dev f)
    in
    let hottest = List.fold_left max 0 writes in
    let total = List.fold_left ( + ) 0 writes in
    rm_rf dir;
    (hottest, total)
  in
  let hot0, total0 = run ~level:false in
  let hot1, total1 = run ~level:true in
  Workload.Report.table
    ~header:[ "configuration"; "hottest frame"; "total writes"; "peak share" ]
    [
      [ "no leveling"; string_of_int hot0; string_of_int total0;
        Printf.sprintf "%.1f%%" (100. *. float_of_int hot0 /. float_of_int total0) ];
      [ "leveling every 500 txns"; string_of_int hot1; string_of_int total1;
        Printf.sprintf "%.1f%%" (100. *. float_of_int hot1 /. float_of_int total1) ];
    ];
  Workload.Report.note
    "paper section 4.5: \"virtualization enables remapping heavily used";
  Workload.Report.note
    "virtual pages to spread writes to different physical PCM frames\"";
  Workload.Report.note
    "(leveling costs extra copy writes, so total writes rise slightly)"

(* Torn-bit rotation (paper section 4.5): how concentrated are the
   always-flipping bits without rotation. *)
let ablation_tornbit_rotation () =
  Workload.Report.section "ablation_tornbit"
    "torn-bit rotation: flips absorbed by the hottest bit column";
  let run ~rotate =
    let dir = fresh_dir "torn" in
    let inst = Mnemosyne.open_instance ~geometry ~dir () in
    let v = Mnemosyne.view inst in
    let cap_words = 32 in
    let base = Mnemosyne.pmap inst (Pmlog.Rawl.region_bytes_for ~cap_words) in
    let log = Pmlog.Rawl.create ~rotate_torn_bit:rotate v ~base ~cap_words in
    (* per-bit-position flip counters, updated by diffing buffer
       snapshots around every append *)
    let flips = Array.make 64 0 in
    let snapshot () =
      Array.init cap_words (fun i ->
          Region.Pmem.load v (base + 64 + (8 * i)))
    in
    let prev = ref (snapshot ()) in
    let record = Array.make 12 0x5555_5555L in
    for round = 1 to 40 * Pmlog.Rawl.rotate_period do
      record.(0) <- Int64.of_int round;
      (match Pmlog.Rawl.append log record with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> failwith "unexpected Full");
      Pmlog.Rawl.flush log;
      Pmlog.Rawl.truncate_all log;
      let cur = snapshot () in
      Array.iteri
        (fun i w ->
          let diff = Int64.logxor w !prev.(i) in
          for b = 0 to 63 do
            if Scm.Word.bit diff b then flips.(b) <- flips.(b) + 1
          done)
        cur;
      prev := cur
    done;
    let total = Array.fold_left ( + ) 0 flips in
    let hottest = Array.fold_left max 0 flips in
    rm_rf dir;
    (hottest, total)
  in
  let h0, t0 = run ~rotate:false in
  let h1, t1 = run ~rotate:true in
  Workload.Report.table
    ~header:
      [ "configuration"; "hottest bit column flips"; "all flips";
        "peak share" ]
    [
      [ "fixed torn bit (bit 63)"; string_of_int h0; string_of_int t0;
        Printf.sprintf "%.1f%%" (100. *. float_of_int h0 /. float_of_int t0) ];
      [ Printf.sprintf "rotated every %d passes" Pmlog.Rawl.rotate_period;
        string_of_int h1; string_of_int t1;
        Printf.sprintf "%.1f%%" (100. *. float_of_int h1 /. float_of_int t1) ];
    ];
  Workload.Report.note
    "paper section 4.5: \"RAWL's tornbits may periodically be shifted to";
  Workload.Report.note "avoid writing 0's and 1's continuously to the same bits\""

(* The four consistency mechanisms of paper table 2, measured on one
   logical update each: "the more specific mechanisms can provide higher
   performance for certain data structures, while the more general
   mechanisms support a wider range of usage patterns." *)
let ablation_mechanisms () =
  Workload.Report.section "ablation_mechanisms"
    "cost per update under table 2's four consistency mechanisms (us)";
  let value_sizes = [ 8; 64; 256; 1024 ] in
  let dir = fresh_dir "mech" in
  let inst = Mnemosyne.open_instance ~geometry ~dir () in
  let v = Mnemosyne.view inst in
  let env = v.Region.Pmem.env in
  let kg = Workload.Keygen.create () in
  let time_ops f =
    let t0 = env.now () in
    let n = 150 in
    for i = 0 to n - 1 do
      f i
    done;
    float_of_int (env.now () - t0) /. float_of_int n /. 1000.0
  in
  (* single variable: one atomic word, write-through + fence *)
  let counter = Mnemosyne.pstatic inst "mech.counter" 8 in
  let single _size =
    time_ops (fun i ->
        Region.Pmem.wtstore v counter (Int64.of_int i);
        Region.Pmem.fence v)
  in
  (* append: a RAWL record per update, one tornbit fence *)
  let append size =
    let cap_words = 65536 in
    let base = Mnemosyne.pmap inst (Pmlog.Rawl.region_bytes_for ~cap_words) in
    let log = Pmlog.Rawl.create v ~base ~cap_words in
    let record = Array.make (max 1 (size / 8)) 7L in
    time_ops (fun _ ->
        (match Pmlog.Rawl.append log record with
        | Pmlog.Rawl.Appended _ -> ()
        | Pmlog.Rawl.Full -> Pmlog.Rawl.truncate_all log);
        Pmlog.Rawl.flush log)
  in
  (* shadow: copy the path, fence, swing the root atomically *)
  let shadow size =
    let bytes =
      Pstruct.Shadow_tree.region_bytes_for ~payload_bytes:size ~capacity:2048
    in
    let base = Mnemosyne.pmap inst bytes in
    let st =
      Pstruct.Shadow_tree.create v ~base ~payload_bytes:size ~capacity:2048
    in
    (* a realistic working tree *)
    for i = 0 to 255 do
      Pstruct.Shadow_tree.put st
        (Int64.of_int ((i * 2654435761) land 0xffff))
        (Workload.Keygen.value kg size)
    done;
    time_ops (fun i ->
        Pstruct.Shadow_tree.put st
          (Int64.of_int (((i + 999) * 2654435761) land 0xffff))
          (Workload.Keygen.value kg size))
  in
  (* in place: a durable memory transaction on the hash table *)
  let in_place size =
    let slot = Mnemosyne.pstatic inst (Printf.sprintf "mech.ht%d" size) 8 in
    let table =
      Mnemosyne.atomically inst (fun tx ->
          Pstruct.Phashtable.create tx ~slot ~buckets:512)
    in
    time_ops (fun i ->
        Mnemosyne.atomically inst (fun tx ->
            Pstruct.Phashtable.put tx table
              (Bytes.of_string (Printf.sprintf "m%06d" i))
              (Workload.Keygen.value kg size)))
  in
  let rows =
    List.map
      (fun size ->
        [ string_of_int size;
          Printf.sprintf "%.2f" (single size);
          Printf.sprintf "%.2f" (append size);
          Printf.sprintf "%.2f" (shadow size);
          Printf.sprintf "%.2f" (in_place size) ])
      value_sizes
  in
  Workload.Report.table
    ~header:
      [ "update size"; "single variable"; "append (RAWL)"; "shadow (tree)";
        "in-place (txn)" ]
    rows;
  Workload.Report.note
    "table 2's ordering-constraint count (0 / 0 / 1 / N-1) shows up as cost:";
  Workload.Report.note
    "in-place transactions pay twice per update (log + data, section 5's";
  Workload.Report.note
    "discussion) but are the only mechanism that handles any structure";
  rm_rf dir

(* Memory-controller parallelism: what bank-level parallelism buys
   multi-threaded commit throughput. *)
let ablation_banks () =
  Workload.Report.section "ablation_banks"
    "4-thread hashtable throughput vs PCM bank parallelism (kops/s, 64 B)";
  let rows =
    List.map
      (fun banks ->
        let latency = { Scm.Latency_model.default with media_banks = banks } in
        let r =
          run_mtm_hashtable ~latency ~threads:4 ~value_bytes:64
            ~ops_per_thread:200 ()
        in
        [ string_of_int banks; Printf.sprintf "%.1f" r.tput_kops ])
      [ 1; 2; 4; 16 ]
  in
  Workload.Report.table ~header:[ "banks"; "throughput" ] rows;
  Workload.Report.note
    "with one bank every flush serializes at the controller; the paper's";
  Workload.Report.note
    "near-linear scaling presumes device-level write parallelism"

(* ------------------------------------------------------------------ *)
(* kvstore: the instrumented run behind --trace / --metrics            *)

let trace_file = ref None
let show_metrics = ref false
let metrics_json_file = ref None

(* --metrics-json: the JSON snapshot of the most recent instrumented
   registry (kvstore's, or commit_bench's last case), captured as each
   section finishes and written once at program end. *)
let metrics_json_data = ref None
let capture_metrics m = metrics_json_data := Some (Obs.Metrics.to_json m)

(* A steady-state hashtable workload with the observability layer
   surfaced: the per-phase commit-latency breakdown (paper table 5's
   spirit: where does a durable transaction spend its time), optionally
   a Chrome trace of every event and the metrics registry dump. *)
let kvstore () =
  Workload.Report.section "kvstore"
    "instrumented key-value store: commit-phase breakdown (us)";
  let dir = fresh_dir "kvstore" in
  let obs = Obs.create ~tracing:(!trace_file <> None) () in
  let inst = Mnemosyne.open_instance ~geometry ~obs ~dir () in
  let tp = Obs.Txprof.create (Mnemosyne.obs inst).Obs.metrics in
  Mtm.Txn.set_txprof (Mnemosyne.pool inst) (Some tp);
  let slot = Mnemosyne.pstatic inst "bench.kv" 8 in
  let table =
    Mnemosyne.atomically inst (fun tx ->
        Pstruct.Phashtable.create tx ~slot ~buckets:1024)
  in
  let env = (Mnemosyne.view inst).Region.Pmem.env in
  let kg = Workload.Keygen.create ~seed:11 () in
  let lat = Workload.Stats.create () in
  let lag = 16 in
  for k = 0 to 499 do
    let key k = Bytes.of_string (Printf.sprintf "kv%06d" k) in
    let t0 = env.now () in
    Mnemosyne.atomically inst (fun tx ->
        Pstruct.Phashtable.put tx table (key k) (Workload.Keygen.value kg 256));
    Workload.Stats.add lat (env.now () - t0);
    if k >= lag then
      Mnemosyne.atomically inst (fun tx ->
          ignore (Pstruct.Phashtable.remove tx table (key (k - lag))))
  done;
  let m = (Mnemosyne.obs inst).Obs.metrics in
  let h name = Obs.Metrics.histogram m name in
  let total = h "mtm.commit.total_ns" in
  let total_mean = Obs.Metrics.hmean total in
  let row label hist =
    let mean = Obs.Metrics.hmean hist in
    [ label;
      Printf.sprintf "%.2f" (mean /. 1000.0);
      Printf.sprintf "%.2f"
        (float_of_int (Obs.Metrics.percentile hist 50.0) /. 1000.0);
      Printf.sprintf "%.2f"
        (float_of_int (Obs.Metrics.percentile hist 99.0) /. 1000.0);
      Printf.sprintf "%.1f%%"
        (if total_mean = 0.0 then 0.0 else 100.0 *. mean /. total_mean) ]
  in
  Workload.Report.table
    ~header:[ "commit phase"; "mean"; "p50"; "p99"; "share" ]
    [
      row "log write" (h "mtm.commit.log_write_ns");
      row "fence (durability)" (h "mtm.commit.fence_ns");
      row "write-back + truncate" (h "mtm.commit.write_back_ns");
      row "stm bookkeeping" (h "mtm.commit.stm_ns");
      row "total" total;
    ];
  Workload.Report.note
    (Printf.sprintf "%d commits; whole-txn latency %.2f us mean, %.2f us p99"
       (Obs.Metrics.hcount total) (Workload.Stats.mean_us lat)
       (float_of_int (Workload.Stats.percentile_ns lat 99.0) /. 1000.0));
  (match (!trace_file, (Mnemosyne.obs inst).Obs.trace) with
  | Some file, Some tr ->
      Obs.Trace.save_chrome tr file;
      Workload.Report.note
        (Printf.sprintf
           "chrome trace: %d events -> %s (%d dropped); load in \
            chrome://tracing or Perfetto"
           (Obs.Trace.length tr) file (Obs.Trace.dropped tr));
      print_string (Obs.Trace.summary tr)
  | _ -> ());
  if !show_metrics then begin
    Printf.printf "\ntail attribution (slowest %d of %d transactions):\n%s"
      (Obs.Txprof.captured tp) (Obs.Txprof.count tp) (Obs.Txprof.table tp);
    print_string (Obs.Metrics.dump m)
  end;
  capture_metrics m;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Commit-path wall-clock microbenchmark (the perf-trajectory anchor)  *)

(* Unlike every section above, this one measures HOST time: the cost of
   the simulator itself on the per-operation and per-commit fast paths.
   Simulated-time figures are reported alongside as a cross-check that
   wall-clock optimizations did not shift modeled results. *)
let commit_bench () =
  Workload.Report.section "commit_bench"
    "commit-path wall-clock microbenchmark (host time; sim figures as \
     cross-check)";
  let nslots = 512 in
  let run_case ~name ~writes_per_txn ~reads_per_txn ~iters =
    let dir = fresh_dir "commitb" in
    let inst = Mnemosyne.open_instance ~geometry ~dir () in
    (* Profiling is only installed for the explicit --metrics tail
       table: the ledger charges no simulated time, but its host-CPU
       cost would pollute the wall columns this section exists to
       guard.  --metrics-json alone captures the (free, always-on)
       registry below without touching the measured path. *)
    let tp =
      if !show_metrics then begin
        let tp = Obs.Txprof.create (Mnemosyne.obs inst).Obs.metrics in
        Mtm.Txn.set_txprof (Mnemosyne.pool inst) (Some tp);
        Some tp
      end
      else None
    in
    let slot = Mnemosyne.pstatic inst "bench.commit" 8 in
    let data =
      Mnemosyne.atomically inst (fun tx ->
          let a = Mtm.Txn.alloc tx (nslots * 8) ~slot in
          for i = 0 to nslots - 1 do
            Mtm.Txn.store tx (a + (8 * i)) 0L
          done;
          a)
    in
    let env = (Mnemosyne.view inst).Region.Pmem.env in
    let body i =
      Mnemosyne.atomically inst (fun tx ->
          for j = 0 to reads_per_txn - 1 do
            ignore
              (Mtm.Txn.load tx
                 (data + (8 * (((i * 7) + (j * 13)) mod nslots))))
          done;
          for j = 0 to writes_per_txn - 1 do
            Mtm.Txn.store tx
              (data + (8 * (((i * 11) + (j * 17)) mod nslots)))
              (Int64.of_int ((i * 31) + j))
          done)
    in
    (* warm the caches, the heap indexes and the lock table *)
    for i = 1 to 500 do
      body i
    done;
    let sim0 = env.now () in
    let minor0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 1 to iters do
      body i
    done;
    let wall_s = Unix.gettimeofday () -. t0 in
    let minor = Gc.minor_words () -. minor0 in
    let sim_ns = env.now () - sim0 in
    rm_rf dir;
    let per_commit_ns = wall_s *. 1e9 /. float_of_int iters in
    let commits_per_s = float_of_int iters /. wall_s in
    let sim_us = float_of_int sim_ns /. float_of_int iters /. 1000.0 in
    let minor_per_commit = minor /. float_of_int iters in
    (match tp with
    | None -> ()
    | Some tp ->
        Printf.printf
          "\n%s: tail attribution (slowest %d of %d transactions):\n%s\n"
          name (Obs.Txprof.captured tp) (Obs.Txprof.count tp)
          (Obs.Txprof.table tp));
    if !show_metrics || !metrics_json_file <> None then
      capture_metrics (Mnemosyne.obs inst).Obs.metrics;
    json_add name
      [
        ("wall_commits_per_s", commits_per_s);
        ("wall_ns_per_commit", per_commit_ns);
        ("sim_us_per_commit", sim_us);
        ("minor_words_per_commit", minor_per_commit);
        ("iters", float_of_int iters);
        ("writes_per_txn", float_of_int writes_per_txn);
        ("reads_per_txn", float_of_int reads_per_txn);
      ];
    [ name;
      Printf.sprintf "%.0f" commits_per_s;
      Printf.sprintf "%.2f" (per_commit_ns /. 1000.0);
      Printf.sprintf "%.2f" sim_us;
      Printf.sprintf "%.0f" minor_per_commit ]
  in
  let rows =
    [
      run_case ~name:"commit" ~writes_per_txn:8 ~reads_per_txn:4
        ~iters:20_000;
      run_case ~name:"commit_wide" ~writes_per_txn:64 ~reads_per_txn:0
        ~iters:4_000;
      run_case ~name:"readonly" ~writes_per_txn:0 ~reads_per_txn:8
        ~iters:20_000;
    ]
  in
  Workload.Report.table
    ~header:
      [ "case"; "commits/s (wall)"; "us/commit (wall)"; "us/commit (sim)";
        "minor words/commit" ]
    rows;
  Workload.Report.note
    "host-CPU figures; the sim column must be invariant across PRs"

(* ------------------------------------------------------------------ *)
(* scale_bench: the high-thread-count commit collapse and its fix      *)

(* Every commit in the shared configuration serializes through three
   global points: the timestamp counter (a draw costs [timestamp_ns x
   active threads] of coherence traffic), the per-commit durability
   fence whose media burst serializes through the device, and a flat
   lock table small enough that distinct lines alias under a large
   footprint.  The scalable configuration leases timestamps in blocks,
   stripes the lock table, and shares one fence per group-commit drain
   window.  Both run the same workloads at 1..64 simulated threads;
   figures are simulated time, so they are deterministic and
   baseline-tracked in BENCH_scale.json like BENCH_commit.json. *)

let scale_threads = [ 1; 2; 4; 8; 16; 64 ]
let scale_txns = 128 (* per thread *)

(* The three measured configurations: [`Shared] is the original
   serialize-on-everything protocol, [`Scalable] is PR 7's leases +
   stripes + group commit, [`Pipeline] adds this PR's pipelined commit
   (write-back handed to a drainer daemon, locks released at the
   durability fence) and the adaptive contention manager. *)
let scale_cfg ~threads ~mode =
  let scalable = mode <> `Shared in
  {
    Mtm.Txn.default_config with
    nthreads = threads;
    log_cap_words = 4096;
    (* a deliberately undersized flat table (2^10 entries): at 64
       threads the disjoint working set spans ~2k cache lines, so
       index aliasing manufactures conflicts between threads that
       never touch the same data *)
    lock_bits = 10;
    ts_lease = (if scalable then 32 else 1);
    lock_stripes = (if scalable then 8 else 1);
    group_commit = scalable;
    (* a deep truncation batch: a thread's stores revisit its working
       set, so the per-drain flush of the line *union* retires many
       commits' write-back with one media write per hot line *)
    gc_trunc_batch = (if scalable then 32 else Mtm.Txn.default_config.gc_trunc_batch);
    pipeline = (mode = `Pipeline);
    (* a deep in-flight window so each drainer sweep retires many of a
       thread's commits at once and the line-union flush dedupes as
       well as the scalable config's 32-deep inline batch *)
    pipe_window = 32;
    cm = (if mode = `Pipeline then Mtm.Txn.Cm_adaptive else Mtm.Txn.Cm_legacy);
  }

type scale_result = {
  sc_per_s : float;  (* committed txns per simulated second *)
  sc_aborts : int;
  sc_retries : int;
  sc_contention : int;  (* run calls that gave up (Txn.Contention) *)
  sc_stalls : int;  (* log-full stalls *)
  sc_false_conflicts : int;  (* mtm.lock.false_conflicts *)
  sc_backoff_ns : int;  (* retry backoff + contention-manager waits *)
}

let run_scale ~threads ~mode ~contended =
  let dir = fresh_dir "scale" in
  let sim = bench_sim () in
  let inst =
    Mnemosyne.open_instance ~geometry ~mtm:(scale_cfg ~threads ~mode) ~dir ()
  in
  let machine = Mnemosyne.machine inst in
  let heap_mu = Sim.Mutex_r.create sim in
  Pmheap.Heap.set_exclusion (Mnemosyne.heap inst) (fun f ->
      Sim.Mutex_r.with_lock heap_mu f);
  let nslots = if contended then 64 else 256 (* per thread *) in
  let slab_words = if contended then nslots else threads * nslots in
  (* One root slot, one slab: the first worker to commit allocates it
     (the slot write makes the race transactional), everyone else binds
     it; disjoint mode carves thread-private windows out of the slab.
     The words start device-zeroed, so nobody initializes them — setup
     is a single tiny transaction and no handle but the workers' ever
     touches the logs. *)
  let slot = Mnemosyne.pstatic inst "scale.slab" 8 in
  (* Thread 0 allocates and publishes the slab; the rest poll a
     volatile cell.  Racing the binding transactionally instead would
     have 15+ threads hammering [slot]'s lock while the allocator
     commits, and that startup churn — hundreds of aborts — would
     drown the steady-state figures this bench is after. *)
  let published = ref 0 in
  let t0 = ref 0 in
  let t_end = ref 0 in
  let contention = ref 0 in
  (* The pipelined config's first-class drainers: DES daemons sweeping
     the workers' pending write-backs, woken by commits, stopped by
     the last finishing worker (stop drains leftovers first, so no
     parked process survives to deadlock the run).  One daemon
     serializes every producer's flush traffic through a single fiber
     and caps the whole pool at its throughput, so the drainer is
     sharded — one per 4 workers, each sweeping the threads whose
     [id mod shards] it owns and woken only by their commits. *)
  let pool = Mnemosyne.pool inst in
  let services =
    if mode = `Pipeline then
      Mnemosyne.start_drainers ~shards:(max 1 (threads / 4)) sim pool
    else [||]
  in
  let running = ref threads in
  for i = 0 to threads - 1 do
    Sim.spawn sim (fun () ->
        let env = sim_env sim machine in
        let th = Mnemosyne.thread inst i env in
        let rec with_retry f =
          try Mtm.Txn.run th f
          with Mtm.Txn.Contention ->
            incr contention;
            Sim.delay sim 2_000;
            with_retry f
        in
        let base =
          if i = 0 then begin
            let b =
              with_retry (fun tx ->
                  Mtm.Txn.alloc tx ((slab_words * 8) + 64) ~slot)
            in
            published := b;
            t0 := Sim.now sim;
            b
          end
          else begin
            while !published = 0 do
              Sim.delay sim 1_000
            done;
            !published
          end
        in
        (* Round up to a 64-byte line so thread windows share no cache
           line: one lock covers one line, and a boundary line shared
           by two windows would couple "disjoint" threads through that
           lock (conflicts, and version floors from the neighbour's
           lease window). *)
        let base = (base + 63) land lnot 63 in
        let data = if contended then base else base + (8 * nslots * i) in
        for k = 1 to scale_txns do
          with_retry (fun tx ->
              for j = 0 to 3 do
                ignore
                  (Mtm.Txn.load tx
                     (data + (8 * (((k * 7) + (j * 13) + (i * 29)) mod nslots))))
              done;
              for j = 0 to 7 do
                Mtm.Txn.store tx
                  (data + (8 * (((k * 11) + (j * 17) + (i * 41)) mod nslots)))
                  (Int64.of_int ((k * 31) + j))
              done)
        done;
        (* the workload window closes at the last commit: the drainer's
           tail sweep after the final worker exits is deferred work the
           scalable config also leaves unpriced (its leftover queued
           truncations are simply dropped) *)
        t_end := max !t_end (Sim.now sim);
        decr running;
        if !running = 0 then Array.iter Sim.Service.stop services)
  done;
  Sim.run sim;
  let stats = Mtm.Txn.stats pool in
  let fc =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter
         (Mnemosyne.obs inst).Obs.metrics
         "mtm.lock.false_conflicts")
  in
  let backoff = Mtm.Txn.backoff_ns pool in
  rm_rf dir;
  {
    (* Rate over the workload window — from slab publication to the
       last commit — so the one-time setup (allocation, first-touch
       page faults of the slab) prices neither configuration. *)
    sc_per_s =
      float_of_int (threads * scale_txns)
      /. float_of_int (max 1 (!t_end - !t0))
      *. 1e9;
    sc_aborts = stats.Mtm.Txn.aborts;
    sc_retries = stats.Mtm.Txn.retries;
    sc_contention = !contention;
    sc_stalls = stats.Mtm.Txn.log_full_stalls;
    sc_false_conflicts = fc;
    sc_backoff_ns = backoff;
  }

let scale_bench () =
  Workload.Report.section "scale_bench"
    "commit scalability: shared vs scalable vs pipelined commit path \
     (simulated time)";
  List.iter
    (fun contended ->
      let case = if contended then "contended" else "disjoint" in
      let kvs = ref [] in
      let rows =
        List.map
          (fun n ->
            let sh = run_scale ~threads:n ~mode:`Shared ~contended in
            let sc = run_scale ~threads:n ~mode:`Scalable ~contended in
            let pi = run_scale ~threads:n ~mode:`Pipeline ~contended in
            let speedup = sc.sc_per_s /. sh.sc_per_s in
            let pi_speedup = pi.sc_per_s /. sh.sc_per_s in
            kvs :=
              !kvs
              @ [
                  (Printf.sprintf "sim_shared_t%d_commits_per_s" n, sh.sc_per_s);
                  ( Printf.sprintf "sim_scalable_t%d_commits_per_s" n,
                    sc.sc_per_s );
                  ( Printf.sprintf "sim_pipeline_t%d_commits_per_s" n,
                    pi.sc_per_s );
                  (Printf.sprintf "speedup_t%d" n, speedup);
                  (Printf.sprintf "pipeline_speedup_t%d" n, pi_speedup);
                  ( Printf.sprintf "shared_aborts_t%d" n,
                    float_of_int sh.sc_aborts );
                  ( Printf.sprintf "scalable_aborts_t%d" n,
                    float_of_int sc.sc_aborts );
                  ( Printf.sprintf "pipeline_aborts_t%d" n,
                    float_of_int pi.sc_aborts );
                ];
            (* The contended sections carry the contention-manager
               attribution: time burnt backing off, attempts retried,
               and lock-table false conflicts, per configuration —
               which policy wins and why. *)
            if contended then
              kvs :=
                !kvs
                @ List.concat_map
                    (fun (tag, r) ->
                      [
                        ( Printf.sprintf "%s_backoff_ns_t%d" tag n,
                          float_of_int r.sc_backoff_ns );
                        ( Printf.sprintf "%s_retries_t%d" tag n,
                          float_of_int r.sc_retries );
                        ( Printf.sprintf "%s_false_conflicts_t%d" tag n,
                          float_of_int r.sc_false_conflicts );
                      ])
                    [ ("shared", sh); ("scalable", sc); ("pipeline", pi) ];
            [
              string_of_int n;
              Printf.sprintf "%.0f" sh.sc_per_s;
              Printf.sprintf "%.0f" sc.sc_per_s;
              Printf.sprintf "%.0f" pi.sc_per_s;
              Printf.sprintf "%.2fx" speedup;
              Printf.sprintf "%.2fx" pi_speedup;
              Printf.sprintf "%d/%d/%d" sc.sc_aborts sc.sc_retries
                sc.sc_stalls;
              Printf.sprintf "%d/%d/%d" pi.sc_aborts pi.sc_retries
                pi.sc_stalls;
              string_of_int pi.sc_false_conflicts;
            ])
          scale_threads
      in
      json_add ("scale_" ^ case) !kvs;
      Workload.Report.table
        ~header:
          [
            case ^ " thr";
            "shared c/s";
            "scalable c/s";
            "pipeline c/s";
            "scal x";
            "pipe x";
            "sc ab/rt/st";
            "pi ab/rt/st";
            "pi falseconf";
          ]
        rows)
    [ false; true ];
  Workload.Report.note
    "simulated-time figures (deterministic), workload window only: shared = \
     lease 1, flat locks, fence + truncation per commit; scalable = lease 32, \
     8 stripes, group commit, 32-deep truncation batches; pipeline = \
     scalable + write-back drainer daemon (locks released at the durability \
     fence) + adaptive contention manager.  Speedups are vs shared."

(* ------------------------------------------------------------------ *)
(* serve_bench: multi-tenant serving under open-loop load              *)

(* The serving flagship (ROADMAP item 1): the same bursty open-loop
   traffic is offered to two configurations of the Serve front-end.
   "legacy" has every admission gate off — requests queue without
   bound and a full RAWL is discovered by the producer wedging inline
   (the paper's figure-6 stall regime) — while "admission" runs the
   per-tenant queue caps, the RAWL-occupancy dispatch gate and the
   drainer boost.  The MMPP ON-state rate is provisioned well above
   the worker pool's service capacity, so every burst overloads the
   system and the difference between the two policies is exactly what
   the tail percentiles report.  Figures are simulated time, hence
   deterministic, and baseline-tracked in BENCH_serve.json: goodput is
   regression-gated like every *_per_s key, while the latency
   percentiles and shed counts ride along unGated for trend review. *)

let serve_base_cfg =
  {
    Serve.default_config with
    tenants = 4;
    workers = 8;
    users = 50_000;
    duration_ns = 3_000_000;
    arrival =
      Sim.Arrival.Mmpp
        {
          on_rate_per_s = 600_000.0;
          off_rate_per_s = 40_000.0;
          mean_on_ns = 400_000.0;
          mean_off_ns = 400_000.0;
        };
    value_bytes = 128;
    get_pct = 20;
    (* near-uniform keys: distinct cache lines defeat the drainer's
       line-union dedup, so write-back genuinely costs media time *)
    theta = 0.2;
    seed = 7;
    request_ns = 2_000;
    (* a tight per-worker RAWL and one drainer for the whole pool:
       truncation genuinely races arrivals, so bursts fill the log *)
    log_cap_words = 256;
    workers_per_drainer = 8;
    (* the drainer daemon gets the CPU once per 60 us — the paper's
       "log manager unable to execute" regime *)
    drain_period_ns = 60_000;
    slo_ns = 500_000;
  }

let run_serve name admission =
  let dir = fresh_dir ("serve-" ^ name) in
  let sim = bench_sim () in
  let st = Serve.run ~sim ~geometry ~dir { serve_base_cfg with admission } in
  rm_rf dir;
  (st, sim)

let serve_bench () =
  Workload.Report.section "serve_bench"
    "multi-tenant KV serving under open-loop bursts: admission control vs \
     the legacy log-full stall";
  let legacy, legacy_sim = run_serve "legacy" Serve.Admission.legacy in
  let admit, admit_sim = run_serve "admission" Serve.Admission.default in
  let row name (st : Serve.stats) =
    [
      name;
      string_of_int st.Serve.offered;
      string_of_int st.Serve.completed;
      string_of_int st.Serve.slo_ok;
      Printf.sprintf "%d/%d" st.Serve.shed_queue st.Serve.shed_log;
      Workload.Report.ops st.Serve.goodput_per_s;
      Printf.sprintf "%.1f" st.Serve.p50_us;
      Printf.sprintf "%.1f" st.Serve.p99_us;
      Printf.sprintf "%.1f" st.Serve.p999_us;
      string_of_int st.Serve.log_full_stalls;
      string_of_int st.Serve.max_queue_depth;
    ]
  in
  Workload.Report.table
    ~header:
      [
        "config"; "offered"; "done"; "slo ok"; "shed q/log"; "goodput";
        "p50 us";
        "p99 us"; "p999 us"; "stalls"; "max q";
      ]
    [ row "legacy (stall)" legacy; row "admission" admit ];
  let f = float_of_int in
  json_add "serve"
    [
      ("sim_admission_goodput_per_s", admit.Serve.goodput_per_s);
      ("sim_legacy_goodput_per_s", legacy.Serve.goodput_per_s);
      ("admission_p50_us", admit.Serve.p50_us);
      ("admission_p99_us", admit.Serve.p99_us);
      ("admission_p999_us", admit.Serve.p999_us);
      ("legacy_p50_us", legacy.Serve.p50_us);
      ("legacy_p99_us", legacy.Serve.p99_us);
      ("legacy_p999_us", legacy.Serve.p999_us);
      ("admission_shed_queue", f admit.Serve.shed_queue);
      ("admission_shed_log", f admit.Serve.shed_log);
      ("admission_shed_rate", admit.Serve.shed_rate);
      ("admission_stalls", f admit.Serve.log_full_stalls);
      ("legacy_stalls", f legacy.Serve.log_full_stalls);
      ("admission_max_queue", f admit.Serve.max_queue_depth);
      ("legacy_max_queue", f legacy.Serve.max_queue_depth);
      ("admission_drain_boosts", f admit.Serve.drain_boosts);
      ("admission_completed", f admit.Serve.completed);
      ("legacy_completed", f legacy.Serve.completed);
      ("admission_slo_ok", f admit.Serve.slo_ok);
      ("legacy_slo_ok", f legacy.Serve.slo_ok);
      ("legacy_window_ns", f legacy.Serve.window_ns);
      ("admission_window_ns", f admit.Serve.window_ns);
      (* simulator dispatch: events run off the queue, and delays that
         continued inline because nothing was due first *)
      ("admission_sim_events", f (Sim.events admit_sim));
      ("legacy_sim_events", f (Sim.events legacy_sim));
      ("admission_sim_inline_delays", f (Sim.inline_delays admit_sim));
      ("legacy_sim_inline_delays", f (Sim.inline_delays legacy_sim));
    ];
  Workload.Report.note
    (Printf.sprintf
       "open-loop MMPP bursts (ON %.0fk/s per tenant) over 4 tenants x 8 \
        workers; legacy = no admission (unbounded queues, inline log-full \
        stalls), admission = queue cap %d + shed at %d%% RAWL occupancy + \
        drainer boost at %d%%.  p999 is arrival-to-completion, queueing \
        included: bounded under admission, collapsed under legacy."
       600.0 Serve.Admission.default.Serve.Admission.queue_cap
       Serve.Admission.default.Serve.Admission.log_high_pct
       Serve.Admission.default.Serve.Admission.boost_pct)

(* ------------------------------------------------------------------ *)
(* Table 1 (context)                                                   *)

let table1 () =
  Workload.Report.section "table1" "storage-class memory technologies";
  Workload.Report.table
    ~header:[ "technology"; "availability"; "read"; "write"; "endurance" ]
    (List.map
       (fun t ->
         Scm.Latency_model.
           [ t.name; t.availability; t.read_latency; t.write_latency;
             t.endurance ])
       Scm.Latency_model.technologies)

(* ------------------------------------------------------------------ *)
(* Wall-clock microbenches (bechamel)                                  *)

let wallclock () =
  let open Bechamel in
  let pack_words = Array.init 256 (fun i -> Int64.of_int (i * 2654435761)) in
  let tornbit_pack =
    Test.make ~name:"tornbit pack 256 words"
      (Staged.stage (fun () ->
           let sink = ref 0L in
           let packer =
             Pmlog.Bitstream.Packer.create ~emit:(fun c ->
                 sink := Int64.logxor !sink c)
           in
           Array.iter (Pmlog.Bitstream.Packer.push packer) pack_words;
           Pmlog.Bitstream.Packer.flush packer;
           !sink))
  in
  let lock_hash =
    let locks = Mtm.Lock_table.create () in
    Test.make ~name:"lock-table hash 1k addrs"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to 999 do
             acc := !acc + Mtm.Lock_table.index_of locks (i * 8)
           done;
           !acc))
  in
  let zipf =
    let kg = Workload.Keygen.create () in
    let dist = Workload.Keygen.Zipf.make kg ~n:100_000 ~theta:0.99 in
    Test.make ~name:"zipf draw x1k"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for _ = 1 to 1000 do
             acc := !acc + Workload.Keygen.Zipf.draw dist
           done;
           !acc))
  in
  let tests =
    Test.make_grouped ~name:"kernels" [ tornbit_pack; lock_hash; zipf ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  Workload.Report.section "wallclock" "host-CPU microbenchmarks (bechamel)";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("commit_bench", commit_bench);
    ("scale_bench", scale_bench);
    ("serve_bench", serve_bench);
    ("table1", table1);
    ("figure4+5", figures_4_and_5);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("figure6", figure6);
    ("figure7", figure7);
    ("reincarnation", reincarnation);
    ("ablation_undo", ablation_undo);
    ("ablation_mechanisms", ablation_mechanisms);
    ("ablation_wear", ablation_wear);
    ("ablation_tornbit", ablation_tornbit_rotation);
    ("ablation_banks", ablation_banks);
    ("kvstore", kvstore);
  ]

let () =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  (* Exception-safe scratch cleanup: at_exit also covers [exit] calls
     (argument errors, --baseline failures) and uncaught exceptions
     from a raising section, which a [Fun.protect] around the run body
     would miss on the [exit] paths.  [rm_rf] itself must not raise or
     it would mask the real failure. *)
  at_exit (fun () -> try rm_rf tmp_root with Sys_error _ -> ());
  let json_file = ref None in
  let baseline = ref None in
  let max_regress = ref 30.0 in
  let rec parse = function
    | [] -> []
    | "--trace" :: file :: rest when String.length file > 0 && file.[0] <> '-'
      ->
        (* fail before the run, not after a few minutes of benching *)
        (try close_out (open_out file)
         with Sys_error msg ->
           Printf.eprintf "bench: cannot write trace file: %s\n" msg;
           exit 2);
        trace_file := Some file;
        parse rest
    | "--trace" :: _ ->
        prerr_endline "bench: --trace requires a FILE argument";
        exit 2
    | "--json" :: file :: rest when String.length file > 0 && file.[0] <> '-'
      ->
        (try close_out (open_out file)
         with Sys_error msg ->
           Printf.eprintf "bench: cannot write json file: %s\n" msg;
           exit 2);
        json_file := Some file;
        parse rest
    | "--json" :: _ ->
        prerr_endline "bench: --json requires a FILE argument";
        exit 2
    | "--baseline" :: file :: rest
      when String.length file > 0 && file.[0] <> '-' ->
        if not (Sys.file_exists file) then begin
          Printf.eprintf "bench: baseline file %s does not exist\n" file;
          exit 2
        end;
        baseline := Some file;
        parse rest
    | "--baseline" :: _ ->
        prerr_endline "bench: --baseline requires a FILE argument";
        exit 2
    | "--max-regress" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some p when p > 0.0 ->
            max_regress := p;
            parse rest
        | _ ->
            prerr_endline "bench: --max-regress requires a positive number";
            exit 2)
    | "--metrics" :: rest ->
        show_metrics := true;
        parse rest
    | "--metrics-json" :: file :: rest
      when String.length file > 0 && file.[0] <> '-' ->
        (try close_out (open_out file)
         with Sys_error msg ->
           Printf.eprintf "bench: cannot write metrics-json file: %s\n" msg;
           exit 2);
        metrics_json_file := Some file;
        parse rest
    | "--metrics-json" :: _ ->
        prerr_endline "bench: --metrics-json requires a FILE argument";
        exit 2
    | "--sched-policy" :: p :: rest -> (
        match Sim.Schedule.policy_of_string p with
        | Ok policy ->
            sched_policy := policy;
            parse rest
        | Error msg ->
            Printf.eprintf "bench: %s\n" msg;
            exit 2)
    | "--sched-policy" :: [] ->
        prerr_endline "bench: --sched-policy requires fifo|shuffle|priority";
        exit 2
    | "--sched-seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some s ->
            sched_seed := s;
            parse rest
        | None ->
            prerr_endline "bench: --sched-seed requires an integer";
            exit 2)
    | "--sched-seed" :: [] ->
        prerr_endline "bench: --sched-seed requires an integer";
        exit 2
    | a :: rest -> a :: parse rest
  in
  let args = parse (List.tl (Array.to_list Sys.argv)) in
  if List.mem "--wallclock" args then wallclock ()
  else begin
    let wanted = List.filter (fun a -> a <> "--wallclock") args in
    let selected =
      if wanted = [] then
        (* --trace/--metrics/--metrics-json alone mean "show me the
           instrumented run", not "trace all thirteen sections" *)
        if !trace_file <> None || !show_metrics || !metrics_json_file <> None
        then [ ("kvstore", kvstore) ]
        else all_sections
      else
        List.filter
          (fun (name, _) ->
            List.exists
              (fun w ->
                name = w
                || (name = "figure4+5" && (w = "figure4" || w = "figure5")))
              wanted)
          all_sections
    in
    Printf.printf
      "Mnemosyne benchmark harness (simulated time; see EXPERIMENTS.md)\n";
    List.iter (fun (_, f) -> f ()) selected;
    (match !json_file with Some f -> json_write f | None -> ());
    (match (!metrics_json_file, !metrics_json_data) with
    | Some f, Some data ->
        Out_channel.with_open_text f (fun oc ->
            Out_channel.output_string oc data)
    | Some f, None ->
        Printf.eprintf
          "bench: --metrics-json %s: no instrumented section ran (kvstore \
           and commit_bench capture metrics)\n"
          f
    | None, _ -> ());
    match !baseline with
    | None -> ()
    | Some f ->
        let broken = json_check_invariants f in
        let failures = json_check_baseline f ~max_regress_pct:!max_regress in
        List.iter
          (fun m -> Printf.eprintf "perf INVARIANT BROKEN: %s\n" m)
          broken;
        List.iter
          (fun (section, key, base, cur) ->
            Printf.eprintf
              "perf REGRESSION: %s.%s fell %.1f%% (baseline %.0f, now %.0f)\n"
              section key
              ((base -. cur) /. base *. 100.0)
              base cur)
          failures;
        if broken = [] && failures = [] then
          Printf.printf
            "perf check: wall-clock throughput within %.0f%% of %s; \
             deterministic figures bit-identical; commit allocation budget \
             held\n"
            !max_regress f
        else exit 1
  end
