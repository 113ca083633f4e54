(* commit-1t: one closed-loop client on the paper's default transaction
   configuration, timed on the instance's own view clock (no Sim
   scheduler).  A seeded mix over a preallocated slab that fits in the
   512 KiB modelled cache: 50% updates (4 reads, 8 writes), 10% wide
   updates (64 writes) and 40% read-only transactions (8 reads).  Only
   mtm, log, scm and region do work here. *)

open Util

let slab_words = 8192 (* 64 KiB *)
let txns = 20_000 (* per repetition *)
let fibers = 1

type kind = Update | Wide | Read_only

let reads = function Update -> 4 | Wide -> 0 | Read_only -> 8
let writes = function Update -> 8 | Wide -> 64 | Read_only -> 0

(* The seeded stream: transaction [i] reads then writes the slab words
   [offs.(first.(i)) ...], in that order. *)
type input = { kinds : kind array; first : int array; offs : int array }

let input seed =
  let rng = Random.State.make [| seed; 0xc1 |] in
  let kinds =
    Array.init txns (fun _ ->
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 -> Update
        | 5 -> Wide
        | _ -> Read_only)
  in
  let first = Array.make (txns + 1) 0 in
  Array.iteri
    (fun i k -> first.(i + 1) <- first.(i) + reads k + writes k)
    kinds;
  let offs = Array.init first.(txns) (fun _ -> Random.State.int rng slab_words) in
  { kinds; first; offs }

(* A written value depends on everything the transaction read, so a
   lost or misordered update changes the final slab. *)
let value i j acc = Int64.logxor acc (Int64.of_int ((i * 1_000_003) + j))
let initial k = Int64.of_int (k * 7)

let body inp i ~load ~store tx =
  let k = inp.kinds.(i) and o = inp.first.(i) in
  let nr = reads k in
  let acc = ref 0L in
  for j = 0 to nr - 1 do
    acc := Int64.logxor !acc (load tx inp.offs.(o + j))
  done;
  for j = 0 to writes k - 1 do
    store tx inp.offs.(o + nr + j) (value i j !acc)
  done

(* The volatile model: the same stream replayed on an array. *)
let model inp =
  let m = Array.init slab_words initial in
  for i = 0 to txns - 1 do
    body inp i ~load:(fun () w -> m.(w)) ~store:(fun () w v -> m.(w) <- v) ()
  done;
  m

let check_slab ~what view slab m =
  let bad = ref 0 in
  Array.iteri
    (fun k v -> if Region.Pmem.load view (slab + (8 * k)) <> v then incr bad)
    m;
  if !bad = 0 then []
  else [ Printf.sprintf "commit-1t: %d slab words differ from the model %s" !bad what ]

(* Allocate the slab and write its initial image, 256 words per
   transaction. *)
let setup inst =
  let slot = Mnemosyne.pstatic inst "perfbench.slab" 8 in
  let slab =
    Mnemosyne.atomically inst (fun tx -> Mtm.Txn.alloc tx (slab_words * 8) ~slot)
  in
  for c = 0 to (slab_words / 256) - 1 do
    Mnemosyne.atomically inst (fun tx ->
        for k = c * 256 to (c * 256) + 255 do
          Mtm.Txn.store tx (slab + (8 * k)) (initial k)
        done)
  done;
  slab

let run ctx inp =
  let t0 = now_ns () in
  reset_dir ctx.dir;
  let inst = Mnemosyne.open_instance ~geometry ~seed:ctx.seed ~dir:ctx.dir () in
  let slab = setup inst in
  let pool = Mnemosyne.pool inst in
  let view = Mnemosyne.view inst in
  let env = view.Region.Pmem.env in
  let metrics = (Mnemosyne.obs inst).Obs.metrics in
  Mtm.Txn.reset_stats pool;
  let tp =
    Option.map
      (fun _ ->
        let tp = Obs.Txprof.create metrics in
        Mtm.Txn.set_txprof pool (Some tp);
        tp)
      ctx.spans
  in
  let c0 = snapshot_counters metrics in
  let lat = Array.make txns 0 in
  let word w = slab + (8 * w) in
  let t1 = now_ns () in
  let sim0 = env.Scm.Env.now () in
  let minor0 = Gc.minor_words () in
  (match ctx.spans with
  | None ->
      let load tx w = Mtm.Txn.load tx (word w)
      and store tx w v = Mtm.Txn.store tx (word w) v in
      for i = 0 to txns - 1 do
        let s = env.Scm.Env.now () in
        Mnemosyne.atomically inst (body inp i ~load ~store);
        lat.(i) <- env.Scm.Env.now () - s
      done
  | Some sp ->
      for i = 0 to txns - 1 do
        let s = env.Scm.Env.now () in
        let span = Spans.start sp ~id:i ~sim:s "mtm.atomically" in
        let load tx w =
          let c = Spans.start sp ~parent:span ~id:i "mtm.load" in
          let v = Mtm.Txn.load tx (word w) in
          Spans.stop sp c;
          v
        and store tx w v =
          let c = Spans.start sp ~parent:span ~id:i "mtm.store" in
          Mtm.Txn.store tx (word w) v;
          Spans.stop sp c
        in
        Mnemosyne.atomically inst (body inp i ~load ~store);
        let e = env.Scm.Env.now () in
        Spans.stop sp ~sim:e span;
        lat.(i) <- e - s
      done);
  let minor = Gc.minor_words () -. minor0 in
  let sim_ns = env.Scm.Env.now () - sim0 in
  let t2 = now_ns () in
  let st = Mtm.Txn.stats pool in
  let c1 = snapshot_counters metrics in
  let m = model inp in
  let errors = check_slab ~what:"after the run" view slab m in
  let errors =
    if commits st <> txns then
      Printf.sprintf "commit-1t: %d commits for %d transactions" (commits st) txns
      :: errors
    else errors
  in
  let errors =
    if ctx.durability then begin
      let inst' = Mnemosyne.reincarnate inst in
      let e = check_slab ~what:"after crash and recovery" (Mnemosyne.view inst') slab m in
      errors @ e
    end
    else errors
  in
  let ro = ref [] and upd = ref [] in
  Array.iteri
    (fun i l -> if inp.kinds.(i) = Read_only then ro := l :: !ro else upd := l :: !upd)
    lat;
  let sim_s = float_of_int sim_ns /. 1e9 in
  let figures =
    sim_latency ~prefix:"sim_" lat
    @ sim_latency ~prefix:"sim_read_" (Array.of_list !ro)
    @ sim_latency ~prefix:"sim_write_" (Array.of_list !upd)
    @ [
        exact "sim_ops_per_s" "1/sim_s" (float_of_int txns /. sim_s);
        exact "commits" "count" (float_of_int (commits st));
        exact "fail_ratio" "ratio" 0.0;
        exact "sim.processes" "count" 0.0;
        host "mtm.minor_words_per_op" "words/op" (minor /. float_of_int txns);
      ]
    @ counter_figures ~ops:txns c0 c1
    @ txn_figures st ~cm_waits:(Mtm.Txn.cm_waits pool)
  in
  let figures, errors =
    match (tp, ctx.spans) with
    | Some tp, Some sp ->
        let tf, total, e = txprof_figures tp in
        let outside = Array.fold_left ( + ) 0 lat in
        let e =
          if total = outside then e
          else
            Printf.sprintf
              "commit-1t: txprof total %d ns, measured from outside %d ns"
              total outside
            :: e
        in
        let loads, nl = Spans.host_total sp "mtm.load" in
        let stores, ns = Spans.host_total sp "mtm.store" in
        let whole, _ = Spans.host_total sp "mtm.atomically" in
        ( figures @ tf
          @ [
              host "mtm.host_ns_per_load" "ns" (per_op nl loads);
              host "mtm.host_ns_per_store" "ns" (per_op ns stores);
              host "mtm.host_ns_per_commit" "ns"
                (per_op txns (whole - loads - stores));
            ],
          errors @ e )
    | _ -> (figures, errors)
  in
  {
    setup_s = secs_between t0 t1;
    host_s = secs_between t1 t2;
    sim_s;
    ops = txns;
    failed = 0;
    errors;
    figures;
    snapshots = instance_snapshots ctx metrics st;
  }
