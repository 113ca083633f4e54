exception Deadlock of string

(* ------------------------------------------------------------------ *)
(* Same-time tiebreak policy (schedule exploration)                    *)

module Schedule = struct
  type policy = Fifo | Seeded_shuffle | Priority

  let policy_name = function
    | Fifo -> "fifo"
    | Seeded_shuffle -> "shuffle"
    | Priority -> "priority"

  let policy_of_string = function
    | "fifo" -> Ok Fifo
    | "shuffle" | "seeded_shuffle" -> Ok Seeded_shuffle
    | "priority" | "pct" -> Ok Priority
    | s -> Error (Printf.sprintf "unknown schedule policy %S" s)

  (* Growable int buffer: the recorded decision streams. *)
  module Ibuf = struct
    type t = { mutable a : int array; mutable n : int }

    let create () = { a = Array.make 64 0; n = 0 }
    let of_array a = { a; n = Array.length a }

    let push b x =
      if b.n = Array.length b.a then begin
        let bigger = Array.make (2 * b.n) 0 in
        Array.blit b.a 0 bigger 0 b.n;
        b.a <- bigger
      end;
      b.a.(b.n) <- x;
      b.n <- b.n + 1

    let get b i = b.a.(i)
    let length b = b.n
  end

  type t = {
    policy : policy;
    seed : int;
    replay : bool;
    rng : Random.State.t;
    keys : Ibuf.t;  (* one tiebreak key per event push (non-Fifo) *)
    draw_bounds : Ibuf.t;  (* captured client rng draws (retry backoff) *)
    draw_vals : Ibuf.t;
    mutable ki : int;  (* replay cursors *)
    mutable di : int;
    mutable extra : int;  (* fresh decisions made after replay diverged *)
    mutable draws_diverged : bool;  (* a draw bound mismatched: stop
                                       consuming the recorded stream *)
    mutable meta : (string * string) list;
    (* PCT-style per-process priorities, re-drawn at seeded change
       points *)
    mutable prio : int array;
    mutable until_change : int;
    mutable observer : (index:int -> key:int -> unit) option;
  }

  (* Keys stay well below [max_int] so (time, key, seq) comparisons
     cannot overflow, and 0 is reserved as the Fifo key. *)
  let key_range = 0x3FFFFFFF

  let make ?(seed = 0) policy =
    {
      policy;
      seed;
      replay = false;
      rng = Random.State.make [| 0x5c4ed; seed |];
      keys = Ibuf.create ();
      draw_bounds = Ibuf.create ();
      draw_vals = Ibuf.create ();
      ki = 0;
      di = 0;
      extra = 0;
      draws_diverged = false;
      meta = [];
      prio = Array.make 64 (-1);
      until_change = 0;
      observer = None;
    }

  let fifo () = make Fifo

  let policy t = t.policy
  let seed t = t.seed
  let is_replay t = t.replay
  let decisions t = if t.replay then t.ki else Ibuf.length t.keys
  let rng_draws t = if t.replay then t.di else Ibuf.length t.draw_vals

  let replay_leftover t =
    if not t.replay then 0
    else Ibuf.length t.keys - t.ki + (Ibuf.length t.draw_vals - t.di)

  let replay_extra t = t.extra

  let set_meta t k v = t.meta <- (k, v) :: List.remove_assoc k t.meta
  let meta t k = List.assoc_opt k t.meta
  let set_observer t f = t.observer <- f

  let notify t key =
    match t.observer with
    | None -> ()
    | Some f -> f ~index:(decisions t - 1) ~key

  let ensure_prio t proc =
    if proc >= Array.length t.prio then begin
      let bigger = Array.make (2 * (proc + 1)) (-1) in
      Array.blit t.prio 0 bigger 0 (Array.length t.prio);
      t.prio <- bigger
    end;
    if t.prio.(proc) < 0 then
      t.prio.(proc) <- 1 + Random.State.int t.rng key_range

  (* PCT-flavoured: every process carries a seeded priority; after a
     seeded number of scheduling decisions the deciding process's
     priority is re-drawn (the "priority change point"), so one process
     dominates for a stretch and then the balance shifts. *)
  let priority_key t proc =
    ensure_prio t proc;
    if t.until_change <= 0 then
      t.until_change <- 1 + Random.State.int t.rng 63;
    t.until_change <- t.until_change - 1;
    if t.until_change = 0 then
      t.prio.(proc) <- 1 + Random.State.int t.rng key_range;
    t.prio.(proc)

  let fresh_key t ~proc =
    match t.policy with
    | Fifo -> 0
    | Seeded_shuffle -> 1 + Random.State.int t.rng key_range
    | Priority -> priority_key t proc

  (* The key of the event being pushed, for the heap's same-time
     ordering: lower keys run first; equal keys fall back to FIFO
     [seq].  [Fifo] always answers 0 (bit-identical to the historical
     behaviour); the other policies draw from the seeded rng and record
     the value, or consume the recorded stream when replaying.

     A replay that outlives its recorded stream is not an error: the
     code under replay may legitimately diverge from the code that
     recorded the trace — a regression trace captured against pre-fix
     code makes the fixed code abort a transaction the recording
     committed, after which the two runs make different numbers of
     decisions.  Past the end of the stream we fall back to fresh
     policy draws (still deterministic: same trace, same fallback) and
     count them in [replay_extra]; bit-exact replay is [replay_leftover
     = 0 && replay_extra = 0]. *)
  let next_key t ~proc =
    match t.policy with
    | Fifo -> 0
    | Seeded_shuffle | Priority ->
        let k =
          if t.replay then
            if t.ki >= Ibuf.length t.keys then begin
              t.extra <- t.extra + 1;
              fresh_key t ~proc
            end
            else begin
              let k = Ibuf.get t.keys t.ki in
              t.ki <- t.ki + 1;
              k
            end
          else begin
            let k = fresh_key t ~proc in
            Ibuf.push t.keys k;
            k
          end
        in
        notify t k;
        k

  let draw t ~bound =
    if bound <= 0 then invalid_arg "Schedule.draw: bound must be positive";
    if t.replay then
      if
        t.draws_diverged
        || t.di >= Ibuf.length t.draw_vals
        || Ibuf.get t.draw_bounds t.di <> bound
      then begin
        (* Exhausted, or the caller asked with a different bound than
           the recording paired with this position: the replayed run
           took a different retry path.  Re-syncing after a mismatch
           would pair recorded draws with the wrong call sites, so stop
           consuming the stream and fall back to fresh draws. *)
        if t.di < Ibuf.length t.draw_vals then t.draws_diverged <- true;
        t.extra <- t.extra + 1;
        Random.State.int t.rng bound
      end
      else begin
        let v = Ibuf.get t.draw_vals t.di in
        t.di <- t.di + 1;
        v
      end
    else begin
      let v = Random.State.int t.rng bound in
      Ibuf.push t.draw_bounds bound;
      Ibuf.push t.draw_vals v;
      v
    end

  (* ---------------------------------------------------------------- *)
  (* Trace files: a replayable record of every decision               *)

  let save t path =
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "mnemosyne-sched-trace 1\n";
        Printf.fprintf oc "policy %s\n" (policy_name t.policy);
        Printf.fprintf oc "seed %d\n" t.seed;
        List.iter
          (fun (k, v) -> Printf.fprintf oc "meta %s %s\n" k v)
          (List.rev t.meta);
        let nkeys = Ibuf.length t.keys in
        Printf.fprintf oc "keys %d\n" nkeys;
        for i = 0 to nkeys - 1 do
          Printf.fprintf oc "%d%c" (Ibuf.get t.keys i)
            (if i mod 16 = 15 || i = nkeys - 1 then '\n' else ' ')
        done;
        let ndraws = Ibuf.length t.draw_vals in
        Printf.fprintf oc "draws %d\n" ndraws;
        for i = 0 to ndraws - 1 do
          Printf.fprintf oc "%d %d\n" (Ibuf.get t.draw_bounds i)
            (Ibuf.get t.draw_vals i)
        done)

  let load path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | content -> (
        let toks =
          String.split_on_char '\n' content
          |> List.concat_map (String.split_on_char ' ')
          |> List.filter (fun s -> s <> "")
          |> Array.of_list
        in
        let pos = ref 0 in
        let exception Parse of string in
        let tok what =
          if !pos >= Array.length toks then
            raise (Parse (Printf.sprintf "truncated trace: expected %s" what));
          let t = toks.(!pos) in
          incr pos;
          t
        in
        let int what =
          let t = tok what in
          match int_of_string_opt t with
          | Some i -> i
          | None ->
              raise (Parse (Printf.sprintf "expected %s, got %S" what t))
        in
        let expect lit =
          let t = tok lit in
          if t <> lit then
            raise (Parse (Printf.sprintf "expected %S, got %S" lit t))
        in
        try
          expect "mnemosyne-sched-trace";
          let version = int "version" in
          if version <> 1 then
            raise (Parse (Printf.sprintf "unknown version %d" version));
          expect "policy";
          let policy =
            match policy_of_string (tok "policy name") with
            | Ok p -> p
            | Error e -> raise (Parse e)
          in
          expect "seed";
          let seed = int "seed" in
          let meta = ref [] in
          while !pos < Array.length toks && toks.(!pos) = "meta" do
            incr pos;
            let k = tok "meta key" in
            let v = tok "meta value" in
            meta := (k, v) :: !meta
          done;
          expect "keys";
          let nkeys = int "key count" in
          let keys = Array.init nkeys (fun _ -> int "key") in
          expect "draws";
          let ndraws = int "draw count" in
          let draw_bounds = Array.make ndraws 0 in
          let draw_vals = Array.make ndraws 0 in
          for i = 0 to ndraws - 1 do
            draw_bounds.(i) <- int "draw bound";
            draw_vals.(i) <- int "draw value"
          done;
          Ok
            {
              policy;
              seed;
              replay = true;
              rng = Random.State.make [| 0x5c4ed; seed |];
              keys = Ibuf.of_array keys;
              draw_bounds = Ibuf.of_array draw_bounds;
              draw_vals = Ibuf.of_array draw_vals;
              ki = 0;
              di = 0;
              extra = 0;
              draws_diverged = false;
              meta = !meta;
              prio = Array.make 64 (-1);
              until_change = 0;
              observer = None;
            }
        with Parse msg -> Error (Printf.sprintf "%s: %s" path msg))
end

(* Binary min-heap of events keyed by (time, key, seq): [key] is the
   schedule policy's same-time tiebreak (always 0 under Fifo), [seq]
   gives FIFO order among same-time same-key events.  [seq] is unique
   per entry, so the order is total and the pop order does not depend
   on the heap's shape.

   Struct of arrays, so push and pop allocate nothing: one int array
   per field, and [pop] leaves the entry it removed in the [top_*]
   fields instead of returning it.  Thunks stay put in a side table
   indexed by a slot number the entry carries, so sifting moves only
   ints and pays no write barrier. *)
module Heap = struct
  type t = {
    mutable time : int array;
    mutable key : int array;
    mutable seq : int array;
    mutable proc : int array;
    mutable slot : int array;
    mutable thunk : (unit -> unit) array;  (* indexed by slot *)
    mutable free : int array;  (* free slots, a stack *)
    mutable nfree : int;
    mutable n : int;
    mutable top_time : int;
    mutable top_key : int;
    mutable top_seq : int;
    mutable top_proc : int;
    mutable top_thunk : unit -> unit;
  }

  let create () =
    {
      time = Array.make 256 0;
      key = Array.make 256 0;
      seq = Array.make 256 0;
      proc = Array.make 256 0;
      slot = Array.make 256 0;
      thunk = Array.make 256 ignore;
      free = Array.init 256 (fun i -> 255 - i);
      nfree = 256;
      n = 0;
      top_time = 0;
      top_key = 0;
      top_seq = 0;
      top_proc = 0;
      top_thunk = ignore;
    }

  let[@inline] before (t1 : int) (k1 : int) (s1 : int) (t2 : int) (k2 : int)
      (s2 : int) =
    t1 < t2 || (t1 = t2 && (k1 < k2 || (k1 = k2 && s1 < s2)))

  let[@inline] before_at h i j =
    before h.time.(i) h.key.(i) h.seq.(i) h.time.(j) h.key.(j) h.seq.(j)

  let[@inline] first h ~time ~key ~seq =
    h.n = 0 || before time key seq h.time.(0) h.key.(0) h.seq.(0)

  let[@inline] move h ~src ~dst =
    h.time.(dst) <- h.time.(src);
    h.key.(dst) <- h.key.(src);
    h.seq.(dst) <- h.seq.(src);
    h.proc.(dst) <- h.proc.(src);
    h.slot.(dst) <- h.slot.(src)

  let[@inline] set h i ~time ~key ~seq ~proc ~slot =
    h.time.(i) <- time;
    h.key.(i) <- key;
    h.seq.(i) <- seq;
    h.proc.(i) <- proc;
    h.slot.(i) <- slot

  let grow h =
    let n = h.n in
    let cap = 2 * n in
    let g a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    h.time <- g h.time 0;
    h.key <- g h.key 0;
    h.seq <- g h.seq 0;
    h.proc <- g h.proc 0;
    h.slot <- g h.slot 0;
    h.thunk <- g h.thunk ignore;
    (* every slot below [n] is in use: the new ones are all free *)
    h.free <- Array.init cap (fun i -> cap - 1 - i);
    h.nfree <- n

  (* Slot where an entry (time, key, seq) rising from the hole at [i]
     comes to rest; the parents it passes move down into the hole. *)
  let rec sift_up h i ~time ~key ~seq =
    if i = 0 then 0
    else
      let p = (i - 1) / 2 in
      if before time key seq h.time.(p) h.key.(p) h.seq.(p) then begin
        move h ~src:p ~dst:i;
        sift_up h p ~time ~key ~seq
      end
      else i

  (* Slot where an entry sinking from the hole at [i] comes to rest;
     the smaller children it passes move up into the hole. *)
  let rec sift_down h i ~time ~key ~seq =
    let l = (2 * i) + 1 in
    if l >= h.n then i
    else
      let c = if l + 1 < h.n && before_at h (l + 1) l then l + 1 else l in
      if before h.time.(c) h.key.(c) h.seq.(c) time key seq then begin
        move h ~src:c ~dst:i;
        sift_down h c ~time ~key ~seq
      end
      else i

  let push h ~time ~key ~seq ~proc thunk =
    if h.n = Array.length h.time then grow h;
    h.nfree <- h.nfree - 1;
    let slot = h.free.(h.nfree) in
    h.thunk.(slot) <- thunk;
    let i = sift_up h h.n ~time ~key ~seq in
    h.n <- h.n + 1;
    set h i ~time ~key ~seq ~proc ~slot

  (* Remove the least entry into the [top_*] fields; [false] when
     empty. *)
  let pop h =
    if h.n = 0 then false
    else begin
      h.top_time <- h.time.(0);
      h.top_key <- h.key.(0);
      h.top_seq <- h.seq.(0);
      h.top_proc <- h.proc.(0);
      let s = h.slot.(0) in
      h.top_thunk <- h.thunk.(s);
      h.thunk.(s) <- ignore;
      h.free.(h.nfree) <- s;
      h.nfree <- h.nfree + 1;
      let last = h.n - 1 in
      h.n <- last;
      if last > 0 then begin
        let time = h.time.(last) and key = h.key.(last)
        and seq = h.seq.(last) in
        let i = sift_down h 0 ~time ~key ~seq in
        set h i ~time ~key ~seq ~proc:h.proc.(last) ~slot:h.slot.(last)
      end;
      true
    end

  let size h = h.n
  let top_time h = h.top_time
  let top_key h = h.top_key
  let top_seq h = h.top_seq
  let top_proc h = h.top_proc
  let top_thunk h = h.top_thunk
end

type t = {
  mutable clock : int;
  mutable seq : int;
  events : Heap.t;
  mutable until : int;  (* [run ?until]'s bound; max_int when unbounded *)
  mutable dispatched : int;  (* events popped and run *)
  mutable inline_delays : int;  (* delays that continued without a pop *)
  mutable started : int;
  mutable suspended : int;  (* processes parked via [suspend] *)
  sched : Schedule.t;
  mutable cur_proc : int;  (* process whose event is executing;
                              -1 = outside any process (the root) *)
  mutable next_proc : int;
  mutable nsync : int;  (* labels for anonymous sync objects *)
  mutable race : Race_api.hooks option;
      (* Happens-before edge hooks (DESIGN.md section 18).  The
         simulator's synchronization vocabulary — spawn, suspend/resume
         delivery, mutex ownership, service wake tokens — is where HB
         edges come from; plain [yield]/[delay] deliberately fire
         nothing. *)
}

(* [Delay] carries the wake-up entry [delay] already drew:
   (sim, time, key, seq). *)
type _ Effect.t +=
  | Delay : t * int * int * int -> unit Effect.t
  | Suspend : t * ((unit -> unit) -> unit) -> unit Effect.t

let create ?schedule () =
  let sched =
    match schedule with Some s -> s | None -> Schedule.fifo ()
  in
  {
    clock = 0;
    seq = 0;
    events = Heap.create ();
    until = max_int;
    dispatched = 0;
    inline_delays = 0;
    started = 0;
    suspended = 0;
    sched;
    cur_proc = -1;
    next_proc = 0;
    nsync = 0;
    race = None;
  }

let now t = t.clock
let schedule_of t = t.sched
let current_proc t = t.cur_proc
let events t = t.dispatched
let inline_delays t = t.inline_delays
let set_race t h = t.race <- h
let race_of t = t.race

let sync_label t prefix =
  let n = t.nsync in
  t.nsync <- n + 1;
  Printf.sprintf "sim.%s.%d" prefix n

let schedule_for t ~proc time thunk =
  let seq = t.seq in
  t.seq <- seq + 1;
  let key = Schedule.next_key t.sched ~proc in
  Heap.push t.events ~time ~key ~seq ~proc thunk

(* Run-ahead: the wake-up entry is drawn exactly as [schedule_for]
   would draw it.  When it orders before every queued event and within
   [run]'s bound, pushing it would only have had [run] pop it straight
   back — same clock, same [cur_proc], same continuation, nothing
   observable in between — so the process just continues.  Otherwise
   it parks on the heap with the entry already drawn. *)
let delay t ns =
  if ns < 0 then invalid_arg "Sim.delay: negative";
  let time = t.clock + ns in
  (* outside a process: what performing with no handler raises, before
     any decision is drawn *)
  if t.cur_proc < 0 then raise (Effect.Unhandled (Delay (t, time, 0, -1)));
  let seq = t.seq in
  t.seq <- seq + 1;
  let key = Schedule.next_key t.sched ~proc:t.cur_proc in
  if time <= t.until && Heap.first t.events ~time ~key ~seq then begin
    t.clock <- time;
    t.inline_delays <- t.inline_delays + 1
  end
  else Effect.perform (Delay (t, time, key, seq))

let yield t = delay t 0

let suspend t register = Effect.perform (Suspend (t, register))

let run_process t body =
  let open Effect.Deep in
  t.started <- t.started + 1;
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay (sim, time, key, seq) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  Heap.push sim.events ~time ~key ~seq ~proc:sim.cur_proc
                    (fun () -> continue k ()))
          | Suspend (sim, register) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let proc = sim.cur_proc in
                  sim.suspended <- sim.suspended + 1;
                  let resumed = ref false in
                  register (fun () ->
                      if !resumed then
                        failwith "Sim.suspend: resume called twice";
                      resumed := true;
                      sim.suspended <- sim.suspended - 1;
                      (* Resume delivery is a direct fiber-to-fiber HB
                         edge: the resumer's history happens-before
                         everything the parked process does next. *)
                      (match sim.race with
                      | Some h -> h.transfer ~src:sim.cur_proc ~dst:proc
                      | None -> ());
                      schedule_for sim ~proc sim.clock (fun () ->
                          continue k ())))
          | _ -> None);
    }

let spawn_at ?name:_ t time body =
  let proc = t.next_proc in
  t.next_proc <- proc + 1;
  (* Spawn seeds the child's clock with the parent's: everything the
     parent did before the spawn happens-before the child's body. *)
  (match t.race with
  | Some h -> h.fork ~parent:t.cur_proc ~child:proc
  | None -> ());
  schedule_for t ~proc time (fun () -> run_process t body)

let spawn ?name t body = spawn_at ?name t t.clock body

let run ?until t =
  let h = t.events in
  t.until <- Option.value until ~default:max_int;
  let rec loop () =
    if Heap.pop h then begin
      if h.Heap.top_time > t.until then begin
        (* Put it back and stop: caller may resume later.  The entry
           keeps its tiebreak key (no schedule decision is spent),
           matching the historical re-push under Fifo. *)
        let seq = t.seq in
        t.seq <- seq + 1;
        Heap.push h ~time:h.top_time ~key:h.top_key ~seq ~proc:h.top_proc
          h.top_thunk;
        t.clock <- t.until
      end
      else begin
        t.clock <- h.top_time;
        t.cur_proc <- h.top_proc;
        t.dispatched <- t.dispatched + 1;
        h.top_thunk ();
        loop ()
      end
    end
    else if t.suspended > 0 then
      raise
        (Deadlock
           (Printf.sprintf "%d process(es) suspended with no events"
              t.suspended))
  in
  (* Every exit, a process's escaping exception included, leaves the
     root outside any process and unbounded. *)
  let exit () =
    t.cur_proc <- -1;
    t.until <- max_int
  in
  match loop () with
  | () -> exit ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      exit ();
      Printexc.raise_with_backtrace e bt

let processes_run t = t.started

module Mutex_r = struct
  type sim = t

  type t = {
    sim : sim;
    label : string;  (* race-detector sync object *)
    mutable locked : bool;
    waiters : (unit -> unit) Queue.t;
    mutable contentions : int;
  }

  let create sim =
    {
      sim;
      label = sync_label sim "mutex";
      locked = false;
      waiters = Queue.create ();
      contentions = 0;
    }

  (* HB edges: [unlock] releases the holder's clock into the mutex's
     sync clock, [lock]/[try_lock] acquire it on success.  The
     contended handoff additionally rides the suspend/resume transfer
     edge, but the release/acquire pair is what orders a later
     uncontended lock after an earlier unlocker. *)
  let acquired m =
    match m.sim.race with Some h -> h.acquire m.label | None -> ()

  let lock m =
    if not m.locked then m.locked <- true
    else begin
      m.contentions <- m.contentions + 1;
      suspend m.sim (fun resume -> Queue.push resume m.waiters)
      (* The unlocker hands us ownership directly: [locked] stays true. *)
    end;
    acquired m

  let try_lock m =
    if m.locked then false
    else begin
      m.locked <- true;
      acquired m;
      true
    end

  let unlock m =
    if not m.locked then invalid_arg "Mutex_r.unlock: not locked";
    (match m.sim.race with Some h -> h.release m.label | None -> ());
    match Queue.take_opt m.waiters with
    | Some resume -> resume ()  (* ownership transfers; stays locked *)
    | None -> m.locked <- false

  let holder_waiters m = (if m.locked then 1 else 0) + Queue.length m.waiters
  let contentions m = m.contentions

  let with_lock m f =
    lock m;
    Fun.protect ~finally:(fun () -> unlock m) f
end

(* A background daemon: a process that repeatedly performs units of
   work and parks itself when none is available, to be re-armed by
   [wake] from a producer.  This is the substrate for the pipelined
   commit's write-back drainer: modelled as first-class DES work, its
   memory traffic is charged to its own fiber, not to the transaction
   that produced it.

   The lost-wakeup race (producer wakes while the daemon is mid-round,
   daemon then parks on stale information) is closed by [wakes_pending]:
   a wake against a running daemon leaves a token the daemon consumes
   before parking. *)
module Service = struct
  type sim = t

  type t = {
    sim : sim;
    label : string;  (* race-detector sync object: the wake token *)
    work : unit -> bool;
    mutable parked : (unit -> unit) option;
    mutable wakes_pending : bool;
    mutable stopping : bool;
    mutable stopped : bool;
  }

  (* HB edges: every [wake] releases the producer's clock into the
     token's sync clock; the daemon acquires it when it consumes a
     pending token and when it unparks (the parked path additionally
     rides the resume transfer edge).  So whatever a producer
     published before [wake] happens-before the daemon round that the
     wake triggers — on both the parked and the token path. *)
  let consumed s =
    match s.sim.race with Some h -> h.acquire s.label | None -> ()

  let rec loop s =
    if s.work () then begin
      (* one unit done; yield so same-time producers interleave *)
      yield s.sim;
      loop s
    end
    else if s.stopping then s.stopped <- true
    else if s.wakes_pending then begin
      s.wakes_pending <- false;
      consumed s;
      loop s
    end
    else begin
      suspend s.sim (fun resume -> s.parked <- Some resume);
      consumed s;
      loop s
    end

  let spawn sim ~work =
    let s =
      {
        sim;
        label = sync_label sim "service";
        work;
        parked = None;
        wakes_pending = false;
        stopping = false;
        stopped = false;
      }
    in
    spawn sim (fun () -> loop s);
    s

  let wake s =
    (match s.sim.race with Some h -> h.release s.label | None -> ());
    match s.parked with
    | Some resume ->
        s.parked <- None;
        s.wakes_pending <- false;
        resume ()
    | None -> s.wakes_pending <- true

  let stop s =
    s.stopping <- true;
    wake s

  let stopped s = s.stopped
end

module Cond_r = struct
  type sim = t

  type t = { sim : sim; waiters : (unit -> unit) Queue.t }

  let create sim = { sim; waiters = Queue.create () }

  let wait c m =
    (* Release, park, re-acquire: the classic monitor protocol. *)
    Mutex_r.unlock m;
    suspend c.sim (fun resume -> Queue.push resume c.waiters);
    Mutex_r.lock m

  let signal c = match Queue.take_opt c.waiters with
    | Some resume -> resume ()
    | None -> ()

  let broadcast c =
    let all = Queue.to_seq c.waiters |> List.of_seq in
    Queue.clear c.waiters;
    List.iter (fun resume -> resume ()) all
end

(* Open-loop arrival generators, re-exported so harness code reaches
   them as [Sim.Arrival] (the library's interface is this module). *)
module Arrival = Arrival
