type machine = {
  dev : Scm_device.t;
  cache : Cache.t;
  latency : Latency_model.t;
  crash_rng : Random.State.t;
  obs : Obs.t;
  crash_point : Crashpoint.t;
  mutable pmcheck : Pmcheck.t option;
      (* durability sanitizer; None (default) keeps every hook a single
         branch so sim figures and crash-point indices are unchanged *)
  mutable wc_buffers : Wc_buffer.t list;
  mutable media_busy_until : int;
  flush_ctr : Obs.Metrics.counter;
  fence_ctr : Obs.Metrics.counter;
  pcm_occ : int;
      (* [latency.pcm_write_ns / media_banks], precomputed: the flush
         path charges it per dirty line and the division is visible
         there *)
}

type t = {
  machine : machine;
  wc : Wc_buffer.t;
  delay : int -> unit;
  now : unit -> int;
  mutable cur_txid : int;
      (* the transaction currently running on this thread, stamped by
         the STM layer; 0 = none.  Per-thread (unlike the shared
         machine), so causal attribution of stores is race-free under
         any interleaving *)
}

(* Point-in-time device gauges: wear is sampled on demand by
   snapshots (an O(nframes) sweep then, nothing in the steady state).
   The cache registers its own occupancy gauge at creation. *)
let register_dev_gauges obs dev =
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge obs.Obs.metrics "scm.dev.max_wear")
    (fun () ->
      let worst = ref 0 in
      for f = 0 to Scm_device.nframes dev - 1 do
        let w = Scm_device.write_count dev f in
        if w > !worst then worst := w
      done;
      !worst)

let machine_of_device ?(latency = Latency_model.default) ?cache_capacity_lines
    ?(seed = 42) ?obs ?crash_point dev =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let cp =
    match crash_point with Some c -> c | None -> Crashpoint.create ()
  in
  let cache =
    Cache.create ?capacity_lines:cache_capacity_lines ~seed ~obs ~cp dev
  in
  register_dev_gauges obs dev;
  {
    dev;
    cache;
    latency;
    crash_rng = Random.State.make [| seed; 0x5eed |];
    obs;
    crash_point = cp;
    pmcheck = None;
    wc_buffers = [];
    media_busy_until = 0;
    flush_ctr = Obs.Metrics.counter obs.Obs.metrics "scm.flushes";
    fence_ctr = Obs.Metrics.counter obs.Obs.metrics "scm.fences";
    pcm_occ =
      latency.Latency_model.pcm_write_ns
      / max 1 latency.Latency_model.media_banks;
  }

let make_machine ?latency ?cache_capacity_lines ?seed ?obs ?crash_point
    ~nframes () =
  machine_of_device ?latency ?cache_capacity_lines ?seed ?obs ?crash_point
    (Scm_device.create ~nframes ())

let attach_wc machine =
  let wc =
    Wc_buffer.create ~obs:machine.obs ~cp:machine.crash_point machine.dev
  in
  (match machine.pmcheck with
  | None -> ()
  | Some _ as c -> Wc_buffer.set_pmcheck wc c);
  machine.wc_buffers <- wc :: machine.wc_buffers;
  wc

(* Install the durability sanitizer on a machine: the cache and every
   write-combining buffer (present and future) report device-reach
   events to it.  Installation is expected before the workload starts;
   it never charges simulated time. *)
let install_pmcheck ?lint_fences m =
  let chk =
    Pmcheck.create ?lint_fences ~obs:m.obs ~cp:m.crash_point
      ~nframes:(Scm_device.nframes m.dev) ()
  in
  m.pmcheck <- Some chk;
  Cache.set_pmcheck m.cache (Some chk);
  List.iter (fun wc -> Wc_buffer.set_pmcheck wc (Some chk)) m.wc_buffers;
  chk

(* Detach without losing accumulated state: crash injection applies
   wc/cache residue policies that must not be mistaken for program
   behaviour, so {!Crash.inject} calls this first. *)
let detach_pmcheck m =
  m.pmcheck <- None;
  Cache.set_pmcheck m.cache None;
  List.iter (fun wc -> Wc_buffer.set_pmcheck wc None) m.wc_buffers

(* Creating an environment points the machine's observability clock at
   this environment's clock.  Every view of one simulation shares one
   clock, so last-wins is correct there; mixing standalone clocks only
   matters when tracing, and traced runs use a single time source. *)
let standalone machine =
  let clock = ref 0 in
  let now () = !clock in
  Obs.set_clock machine.obs now;
  {
    machine;
    wc = attach_wc machine;
    delay = (fun ns -> clock := !clock + ns);
    now;
    cur_txid = 0;
  }

let view machine ~delay ~now =
  Obs.set_clock machine.obs now;
  { machine; wc = attach_wc machine; delay; now; cur_txid = 0 }

let elapsed_ns t = t.now ()
