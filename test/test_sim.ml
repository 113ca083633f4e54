(* Tests for the discrete-event simulator: ordering, mutexes, condition
   variables, determinism and deadlock detection. *)

let test_delay_ordering () =
  let sim = Sim.create () in
  let trace = ref [] in
  let note tag = trace := (tag, Sim.now sim) :: !trace in
  Sim.spawn sim (fun () ->
      Sim.delay sim 100;
      note "a";
      Sim.delay sim 200;
      note "a2");
  Sim.spawn sim (fun () ->
      Sim.delay sim 150;
      note "b");
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "interleaved by time"
    [ ("a", 100); ("b", 150); ("a2", 300) ]
    (List.rev !trace)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.spawn sim (fun () ->
        Sim.delay sim 10;
        order := i :: !order)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.spawn sim (fun () ->
      Sim.delay sim 100;
      incr fired;
      Sim.delay sim 100;
      incr fired);
  Sim.run ~until:150 sim;
  Alcotest.(check int) "only first event" 1 !fired;
  Alcotest.(check int) "clock clamped" 150 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "rest completes" 2 !fired;
  Alcotest.(check int) "final clock" 200 (Sim.now sim)

let test_mutex_serializes () =
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  let in_cs = ref 0 and max_in_cs = ref 0 and done_count = ref 0 in
  for _ = 1 to 4 do
    Sim.spawn sim (fun () ->
        Sim.Mutex_r.lock m;
        incr in_cs;
        max_in_cs := max !max_in_cs !in_cs;
        Sim.delay sim 50;
        decr in_cs;
        Sim.Mutex_r.unlock m;
        incr done_count)
  done;
  Sim.run sim;
  Alcotest.(check int) "mutual exclusion" 1 !max_in_cs;
  Alcotest.(check int) "all finished" 4 !done_count;
  Alcotest.(check int) "serialized time" 200 (Sim.now sim);
  Alcotest.(check int) "three waited" 3 (Sim.Mutex_r.contentions m)

let test_mutex_fifo_handoff () =
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.delay sim i;  (* arrive in order 1, 2, 3 *)
        Sim.Mutex_r.lock m;
        order := i :: !order;
        Sim.delay sim 100;
        Sim.Mutex_r.unlock m)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO grant order" [ 1; 2; 3 ]
    (List.rev !order)

let test_try_lock () =
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  let results = ref [] in
  Sim.spawn sim (fun () ->
      Alcotest.(check bool) "first try succeeds" true (Sim.Mutex_r.try_lock m);
      Sim.delay sim 100;
      Sim.Mutex_r.unlock m);
  Sim.spawn sim (fun () ->
      Sim.delay sim 50;
      results := Sim.Mutex_r.try_lock m :: !results;
      Sim.delay sim 100;
      results := Sim.Mutex_r.try_lock m :: !results;
      Sim.Mutex_r.unlock m);
  Sim.run sim;
  Alcotest.(check (list bool)) "busy then free" [ false; true ]
    (List.rev !results)

let test_cond_group_commit_pattern () =
  (* The group-commit shape used by the Berkeley DB baseline: followers
     wait on a condition; the leader flushes once and broadcasts. *)
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  let c = Sim.Cond_r.create sim in
  let flushed = ref false and leader_flushes = ref 0 in
  let commits = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.delay sim i;
        Sim.Mutex_r.lock m;
        if i = 1 then begin
          (* leader: simulate a long flush, then release the group *)
          Sim.delay sim 1000;
          incr leader_flushes;
          flushed := true;
          Sim.Cond_r.broadcast c
        end
        else
          while not !flushed do
            Sim.Cond_r.wait c m
          done;
        commits := (i, Sim.now sim) :: !commits;
        Sim.Mutex_r.unlock m)
  done;
  Sim.run sim;
  Alcotest.(check int) "one flush for the group" 1 !leader_flushes;
  List.iter
    (fun (i, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "thread %d commits after the flush" i)
        true (t >= 1001))
    !commits;
  Alcotest.(check int) "all committed" 3 (List.length !commits)

let test_deadlock_detection () =
  let sim = Sim.create () in
  let m = Sim.Mutex_r.create sim in
  Sim.spawn sim (fun () ->
      Sim.Mutex_r.lock m;
      Sim.Mutex_r.lock m (* self-deadlock *));
  Alcotest.check_raises "deadlock raises"
    (Sim.Deadlock "1 process(es) suspended with no events") (fun () ->
      Sim.run sim)

let test_spawn_from_process () =
  let sim = Sim.create () in
  let child_ran = ref false in
  Sim.spawn sim (fun () ->
      Sim.delay sim 10;
      Sim.spawn sim (fun () ->
          Sim.delay sim 5;
          child_ran := true));
  Sim.run sim;
  Alcotest.(check bool) "child ran" true !child_ran;
  Alcotest.(check int) "time includes child" 15 (Sim.now sim);
  Alcotest.(check int) "two processes" 2 (Sim.processes_run sim)

let test_determinism () =
  let run () =
    let sim = Sim.create () in
    let m = Sim.Mutex_r.create sim in
    let trace = Buffer.create 64 in
    for i = 1 to 5 do
      Sim.spawn sim (fun () ->
          Sim.delay sim (i * 7 mod 3);
          Sim.Mutex_r.with_lock m (fun () ->
              Sim.delay sim i;
              Buffer.add_string trace (Printf.sprintf "%d@%d;" i (Sim.now sim))))
    done;
    Sim.run sim;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Schedule policies, trace save/load, replay divergence *)

(* Six processes all due at the same instant: the policy owns the
   order. *)
let order_under schedule =
  let sim = Sim.create ~schedule () in
  let order = ref [] in
  for i = 1 to 6 do
    Sim.spawn sim (fun () ->
        Sim.delay sim 10;
        order := i :: !order)
  done;
  Sim.run sim;
  List.rev !order

let test_fifo_schedule_identical () =
  Alcotest.(check (list int))
    "explicit fifo = historical order" [ 1; 2; 3; 4; 5; 6 ]
    (order_under (Sim.Schedule.fifo ()))

let check_policy_permutes policy =
  let mk seed = Sim.Schedule.make ~seed policy in
  let o1 = order_under (mk 1) in
  Alcotest.(check (list int)) "same seed reproduces" o1 (order_under (mk 1));
  Alcotest.(check (list int))
    "a permutation: contents unchanged" [ 1; 2; 3; 4; 5; 6 ]
    (List.sort compare o1);
  let some_differ =
    List.exists (fun s -> order_under (mk s) <> o1) [ 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check bool) "seeds disagree on the order" true some_differ

let test_shuffle_permutes () =
  check_policy_permutes Sim.Schedule.Seeded_shuffle

let test_priority_permutes () = check_policy_permutes Sim.Schedule.Priority

let load_ok path =
  match Sim.Schedule.load path with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* A workload whose control flow depends on schedule-routed rng draws:
   replay must reproduce both the event order and the draws. *)
let draw_workload schedule =
  let sim = Sim.create ~schedule () in
  let trace = Buffer.create 64 in
  for i = 1 to 4 do
    Sim.spawn sim (fun () ->
        Sim.delay sim 10;
        let d = Sim.Schedule.draw schedule ~bound:50 in
        Buffer.add_string trace
          (Printf.sprintf "%d:%d@%d;" i d (Sim.now sim));
        Sim.delay sim (10 + d);
        Buffer.add_string trace (Printf.sprintf "%d@%d;" i (Sim.now sim)))
  done;
  Sim.run sim;
  Buffer.contents trace

let test_schedule_replay_roundtrip () =
  let rec_sched = Sim.Schedule.make ~seed:9 Sim.Schedule.Seeded_shuffle in
  let recorded = draw_workload rec_sched in
  Sim.Schedule.set_meta rec_sched "shape" "test";
  let path = Filename.temp_file "sched" ".trace" in
  Sim.Schedule.save rec_sched path;
  let loaded = load_ok path in
  Sys.remove path;
  Alcotest.(check bool) "loaded schedule replays" true
    (Sim.Schedule.is_replay loaded);
  Alcotest.(check (option string))
    "meta survives the round trip" (Some "test")
    (Sim.Schedule.meta loaded "shape");
  Alcotest.(check string) "bit-exact replay" recorded (draw_workload loaded);
  Alcotest.(check int) "nothing left over" 0
    (Sim.Schedule.replay_leftover loaded);
  Alcotest.(check int) "nothing invented" 0 (Sim.Schedule.replay_extra loaded)

let test_replay_outliving_trace_falls_back () =
  (* Replay a run that makes more decisions than the recording (the
     regression-trace-against-fixed-code situation): the schedule must
     serve fresh draws past the end of the stream, not die, and count
     them. *)
  let run schedule rounds =
    let sim = Sim.create ~schedule () in
    for _ = 1 to 3 do
      Sim.spawn sim (fun () ->
          for _ = 1 to rounds do
            Sim.delay sim 10;
            ignore (Sim.Schedule.draw schedule ~bound:8)
          done)
    done;
    Sim.run sim
  in
  let rec_sched = Sim.Schedule.make ~seed:3 Sim.Schedule.Seeded_shuffle in
  run rec_sched 2;
  let path = Filename.temp_file "sched" ".trace" in
  Sim.Schedule.save rec_sched path;
  let loaded = load_ok path in
  Sys.remove path;
  run loaded 4;
  Alcotest.(check int) "recorded stream fully consumed" 0
    (Sim.Schedule.replay_leftover loaded);
  Alcotest.(check bool) "fresh decisions counted" true
    (Sim.Schedule.replay_extra loaded > 0)

let test_draw_bound_mismatch_falls_back () =
  let rec_sched = Sim.Schedule.make ~seed:5 Sim.Schedule.Seeded_shuffle in
  for _ = 1 to 4 do
    ignore (Sim.Schedule.draw rec_sched ~bound:8)
  done;
  let path = Filename.temp_file "sched" ".trace" in
  Sim.Schedule.save rec_sched path;
  let loaded = load_ok path in
  Sys.remove path;
  ignore (Sim.Schedule.draw loaded ~bound:8);
  Alcotest.(check int) "matching draw consumed" 0
    (Sim.Schedule.replay_extra loaded);
  let v = Sim.Schedule.draw loaded ~bound:9 in
  Alcotest.(check bool) "mismatched draw in caller's range" true
    (v >= 0 && v < 9);
  Alcotest.(check int) "mismatch counted" 1 (Sim.Schedule.replay_extra loaded);
  ignore (Sim.Schedule.draw loaded ~bound:8);
  Alcotest.(check int) "stream stays abandoned after a mismatch" 2
    (Sim.Schedule.replay_extra loaded);
  Alcotest.(check bool) "abandoned draws reported as leftover" true
    (Sim.Schedule.replay_leftover loaded > 0)

(* The service wake-token protocol cannot lose a wakeup.  Audit of the
   three windows: (1) a wake during the daemon's work phase finds it
   unparked and leaves a token ([wakes_pending]) the loop consumes
   before parking; (2) the stretch between the last [work () = false]
   check and the park is yield-free under the DES, so no wake can land
   "between" them; (3) [stop] wakes the daemon and the loop keeps
   running work units until dry before honoring [stopping].  This
   deterministic two-fiber program pins all three, including a wake at
   the same simulated instant as the park decision. *)
let test_service_no_lost_wakeup () =
  let sim = Sim.create () in
  let pending = ref 0 in
  let processed = ref 0 in
  let svc =
    Sim.Service.spawn sim ~work:(fun () ->
        if !pending > 0 then begin
          decr pending;
          incr processed;
          true
        end
        else false)
  in
  Sim.spawn sim (fun () ->
      (* t=0: the daemon, spawned first, has already run work() = false
         and parked within this same instant — a wake racing the park
         decision at t=0 must not be lost *)
      pending := 1;
      Sim.Service.wake svc;
      Sim.delay sim 50;
      (* parked again; first wake unparks it, the second lands before
         the daemon runs and must persist as a token *)
      pending := 2;
      Sim.Service.wake svc;
      Sim.Service.wake svc;
      Sim.delay sim 50;
      (* leftover work enqueued with no wake at all: stop must drain
         it before the daemon exits *)
      incr pending;
      Sim.Service.stop svc);
  Sim.run sim;
  Alcotest.(check int) "no queued item stranded" 0 !pending;
  Alcotest.(check int) "every item processed exactly once" 4 !processed;
  Alcotest.(check bool) "daemon exited" true (Sim.Service.stopped svc)

let prop_delays_accumulate =
  QCheck.Test.make ~name:"sum of delays equals final clock" ~count:100
    QCheck.(list (int_bound 1000))
    (fun delays ->
      let sim = Sim.create () in
      Sim.spawn sim (fun () -> List.iter (Sim.delay sim) delays);
      Sim.run sim;
      Sim.now sim = List.fold_left ( + ) 0 delays)

(* ------------------------------------------------------------------ *)
(* Run-ahead dispatch: exits, equivalence, allocation                 *)

(* A process's exception escaping [run] must leave the root outside
   any process: a stale [current_proc] would pin root-side accesses on
   a dead fiber and let a root [delay] run ahead instead of raising. *)
let test_escaping_exception_resets () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      Sim.delay sim 5;
      failwith "boom");
  (match Sim.run ~until:100 sim with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "the process's exception should escape run");
  Alcotest.(check int) "current_proc reset" (-1) (Sim.current_proc sim);
  (match Sim.delay sim 10 with
  | exception Effect.Unhandled _ -> ()
  | () -> Alcotest.fail "a root delay should raise Effect.Unhandled");
  Alcotest.(check int) "root delay left the clock alone" 5 (Sim.now sim);
  let sched = Sim.Schedule.make ~seed:1 Sim.Schedule.Seeded_shuffle in
  let sim = Sim.create ~schedule:sched () in
  (match Sim.delay sim 10 with
  | exception Effect.Unhandled _ -> ()
  | () -> Alcotest.fail "a delay before run should raise Effect.Unhandled");
  Alcotest.(check int) "a root delay draws nothing" 0
    (Sim.Schedule.decisions sched);
  Sim.spawn sim (fun () -> Sim.delay sim 7);
  Sim.run sim;
  Alcotest.(check int) "a later run is unaffected" 7 (Sim.now sim)

(* The reference model: the push-every-delay scheduler, in which every
   delay queues its continuation and [run] pops it back.  Run-ahead
   dispatch must be indistinguishable from it. *)
module type SIM = sig
  type t

  val create : Sim.Schedule.t -> t
  val now : t -> int
  val current_proc : t -> int
  val spawn : t -> (unit -> unit) -> unit
  val delay : t -> int -> unit
  val yield : t -> unit
  val suspend : t -> ((unit -> unit) -> unit) -> unit
  val run : ?until:int -> t -> unit
end

module Ref_core = struct
  type t = {
    mutable clock : int;
    mutable seq : int;
    mutable events : (int * int * int * int * (unit -> unit)) list;
        (* sorted by (time, key, seq) *)
    mutable suspended : int;
    sched : Sim.Schedule.t;
    mutable cur_proc : int;
    mutable next_proc : int;
  }

  type _ Effect.t +=
    | Delay : t * int -> unit Effect.t
    | Suspend : t * ((unit -> unit) -> unit) -> unit Effect.t

  let create sched =
    {
      clock = 0;
      seq = 0;
      events = [];
      suspended = 0;
      sched;
      cur_proc = -1;
      next_proc = 0;
    }

  let now t = t.clock
  let current_proc t = t.cur_proc

  let insert t ((time, key, seq, _, _) as e) =
    let rec go = function
      | [] -> [ e ]
      | ((t2, k2, s2, _, _) as x) :: rest ->
          if compare (time, key, seq) (t2, k2, s2) < 0 then e :: x :: rest
          else x :: go rest
    in
    t.events <- go t.events

  let schedule_for t ~proc time thunk =
    let seq = t.seq in
    t.seq <- seq + 1;
    let key = Sim.Schedule.next_key t.sched ~proc in
    insert t (time, key, seq, proc, thunk)

  let delay t ns = Effect.perform (Delay (t, ns))
  let yield t = delay t 0
  let suspend t register = Effect.perform (Suspend (t, register))

  let run_process body =
    let open Effect.Deep in
    match_with body ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Delay (sim, ns) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    schedule_for sim ~proc:sim.cur_proc (sim.clock + ns)
                      (fun () -> continue k ()))
            | Suspend (sim, register) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let proc = sim.cur_proc in
                    sim.suspended <- sim.suspended + 1;
                    register (fun () ->
                        sim.suspended <- sim.suspended - 1;
                        schedule_for sim ~proc sim.clock (fun () ->
                            continue k ())))
            | _ -> None);
      }

  let spawn t body =
    let proc = t.next_proc in
    t.next_proc <- proc + 1;
    schedule_for t ~proc t.clock (fun () -> run_process body)

  let run ?until t =
    let rec loop () =
      match t.events with
      | [] ->
          if t.suspended > 0 then
            raise
              (Sim.Deadlock
                 (Printf.sprintf "%d process(es) suspended with no events"
                    t.suspended))
      | (time, key, _, proc, thunk) :: rest -> (
          t.events <- rest;
          match until with
          | Some limit when time > limit ->
              let seq = t.seq in
              t.seq <- seq + 1;
              insert t (time, key, seq, proc, thunk);
              t.clock <- limit
          | _ ->
              t.clock <- time;
              t.cur_proc <- proc;
              thunk ();
              loop ())
    in
    Fun.protect ~finally:(fun () -> t.cur_proc <- -1) loop
end

(* The simulator's synchronization objects, rebuilt over a [SIM] core
   exactly as [Sim] builds them (race hooks aside). *)
module Sync (S : SIM) = struct
  module Mutex_r = struct
    type t = { sim : S.t; mutable locked : bool; waiters : (unit -> unit) Queue.t }

    let create sim = { sim; locked = false; waiters = Queue.create () }

    let lock m =
      if not m.locked then m.locked <- true
      else S.suspend m.sim (fun resume -> Queue.push resume m.waiters)

    let try_lock m =
      if m.locked then false
      else begin
        m.locked <- true;
        true
      end

    let unlock m =
      match Queue.take_opt m.waiters with
      | Some resume -> resume ()
      | None -> m.locked <- false
  end

  module Cond_r = struct
    type t = { sim : S.t; waiters : (unit -> unit) Queue.t }

    let create sim = { sim; waiters = Queue.create () }

    let wait c m =
      Mutex_r.unlock m;
      S.suspend c.sim (fun resume -> Queue.push resume c.waiters);
      Mutex_r.lock m

    let signal c =
      match Queue.take_opt c.waiters with Some resume -> resume () | None -> ()

    let broadcast c =
      let all = Queue.to_seq c.waiters |> List.of_seq in
      Queue.clear c.waiters;
      List.iter (fun resume -> resume ()) all
  end

  module Service = struct
    type t = {
      sim : S.t;
      work : unit -> bool;
      mutable parked : (unit -> unit) option;
      mutable wakes_pending : bool;
      mutable stopping : bool;
    }

    let rec loop s =
      if s.work () then begin
        S.yield s.sim;
        loop s
      end
      else if s.stopping then ()
      else if s.wakes_pending then begin
        s.wakes_pending <- false;
        loop s
      end
      else begin
        S.suspend s.sim (fun resume -> s.parked <- Some resume);
        loop s
      end

    let spawn sim ~work =
      let s =
        { sim; work; parked = None; wakes_pending = false; stopping = false }
      in
      S.spawn sim (fun () -> loop s);
      s

    let wake s =
      match s.parked with
      | Some resume ->
          s.parked <- None;
          s.wakes_pending <- false;
          resume ()
      | None -> s.wakes_pending <- true

    let stop s =
      s.stopping <- true;
      wake s
  end
end

(* What a process program runs against: a core and its sync objects. *)
module type TARGET = sig
  include SIM

  module Mutex_r : sig
    type sim := t
    type t

    val create : sim -> t
    val lock : t -> unit
    val unlock : t -> unit
    val try_lock : t -> bool
  end

  module Cond_r : sig
    type sim := t
    type t

    val create : sim -> t
    val wait : t -> Mutex_r.t -> unit
    val signal : t -> unit
    val broadcast : t -> unit
  end

  module Service : sig
    type sim := t
    type t

    val spawn : sim -> work:(unit -> bool) -> t
    val wake : t -> unit
    val stop : t -> unit
  end
end

module Real : TARGET = struct
  include Sim

  let create schedule = Sim.create ~schedule ()
  let spawn t body = Sim.spawn t body
end

module Reference : TARGET = struct
  include Ref_core
  include Sync (Ref_core)
end

type op =
  | Delay of int
  | Yield
  | Spawn of op list
  | Crit of int * int  (* lock mutex [m], hold it [d] ns, unlock *)
  | Try of int * int  (* try_lock mutex [m]; on success hold [d] ns *)
  | Wait of int  (* under mutex 0, wait on cond [c] *)
  | Signal of int
  | Broadcast of int
  | Wake  (* hand the service one unit of work *)
  | Draw  (* delay by a schedule-routed rng draw *)

let rec pp_op = function
  | Delay d -> Printf.sprintf "D%d" d
  | Yield -> "Y"
  | Spawn ops -> "S[" ^ String.concat " " (List.map pp_op ops) ^ "]"
  | Crit (m, d) -> Printf.sprintf "C%d/%d" m d
  | Try (m, d) -> Printf.sprintf "T%d/%d" m d
  | Wait c -> Printf.sprintf "W%d" c
  | Signal c -> Printf.sprintf "G%d" c
  | Broadcast c -> Printf.sprintf "B%d" c
  | Wake -> "K"
  | Draw -> "R"

let pp_program procs =
  String.concat " | " (List.map (fun ops -> String.concat " " (List.map pp_op ops)) procs)

let gen_program =
  let open QCheck.Gen in
  let delay = oneof [ return 0; return 1; int_range 0 3; int_range 0 40 ] in
  let leaf =
    frequency
      [
        (6, map (fun d -> Delay d) delay);
        (2, return Yield);
        (2, map2 (fun m d -> Crit (m, d)) (int_bound 1) delay);
        (1, map2 (fun m d -> Try (m, d)) (int_bound 1) delay);
        (1, map (fun c -> Wait c) (int_bound 1));
        (1, map (fun c -> Signal c) (int_bound 1));
        (1, map (fun c -> Broadcast c) (int_bound 1));
        (2, return Wake);
        (1, return Draw);
      ]
  in
  let script = list_size (int_range 1 10) leaf in
  let op =
    frequency [ (12, leaf); (1, map (fun ops -> Spawn ops) script) ]
  in
  list_size (int_range 1 5) (list_size (int_range 1 12) op)

type result = {
  steps : (int * int) list;  (* (process, clock) after every op *)
  clock : int;
  failure : string option;
  decisions : int;
  draws : int;
  extra : int;
  leftover : int;
  saved : string;
}

(* Run a program on [T] under [sched]; [slice] > 0 drives [run ~until]
   in slices of that many ns before the final unbounded run. *)
let run_program (module T : TARGET) sched ~slice procs =
  let sim = T.create sched in
  let steps = ref [] in
  let note () = steps := (T.current_proc sim, T.now sim) :: !steps in
  let mutexes = Array.init 2 (fun _ -> T.Mutex_r.create sim) in
  let conds = Array.init 2 (fun _ -> T.Cond_r.create sim) in
  let pending = ref 0 in
  let svc =
    T.Service.spawn sim ~work:(fun () ->
        if !pending > 0 then begin
          decr pending;
          T.delay sim 3;
          note ();
          true
        end
        else false)
  in
  let live = ref (List.length procs) in
  let rec exec = function
    | Delay d -> T.delay sim d
    | Yield -> T.yield sim
    | Spawn ops -> T.spawn sim (fun () -> List.iter step ops)
    | Crit (m, d) ->
        T.Mutex_r.lock mutexes.(m);
        T.delay sim d;
        T.Mutex_r.unlock mutexes.(m)
    | Try (m, d) ->
        if T.Mutex_r.try_lock mutexes.(m) then begin
          T.delay sim d;
          T.Mutex_r.unlock mutexes.(m)
        end
    | Wait c ->
        T.Mutex_r.lock mutexes.(0);
        T.Cond_r.wait conds.(c) mutexes.(0);
        T.Mutex_r.unlock mutexes.(0)
    | Signal c -> T.Cond_r.signal conds.(c)
    | Broadcast c -> T.Cond_r.broadcast conds.(c)
    | Wake ->
        incr pending;
        T.Service.wake svc
    | Draw -> T.delay sim (Sim.Schedule.draw sched ~bound:8)
  and step op =
    exec op;
    note ()
  in
  List.iter
    (fun ops ->
      T.spawn sim (fun () ->
          List.iter step ops;
          (* wake whoever still waits, so most programs run to the end *)
          Array.iter T.Cond_r.broadcast conds;
          decr live;
          if !live = 0 then T.Service.stop svc))
    procs;
  let failure =
    match
      if slice > 0 then
        for i = 1 to 200 / slice do
          T.run ~until:(i * slice) sim
        done;
      T.run sim
    with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let path = Filename.temp_file "runahead" ".trace" in
  Sim.Schedule.save sched path;
  let saved = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  {
    steps = List.rev !steps;
    clock = T.now sim;
    failure;
    decisions = Sim.Schedule.decisions sched;
    draws = Sim.Schedule.rng_draws sched;
    extra = Sim.Schedule.replay_extra sched;
    leftover = Sim.Schedule.replay_leftover sched;
    saved;
  }

(* Every schedule a program runs under: Fifo, both recording policies,
   and replays of both recordings.  Each yields a fresh schedule per
   call so the two schedulers never share a cursor. *)
let schedules_for procs seed =
  let recording policy () = Sim.Schedule.make ~seed policy in
  let replay policy () =
    let rec_sched = recording policy () in
    ignore (run_program (module Real) rec_sched ~slice:0 procs);
    let path = Filename.temp_file "runahead" ".trace" in
    Sim.Schedule.save rec_sched path;
    let s = load_ok path in
    Sys.remove path;
    s
  in
  Sim.Schedule.
    [
      ("fifo", fun () -> fifo ());
      ("shuffle", recording Seeded_shuffle);
      ("priority", recording Priority);
      ("shuffle replay", replay Seeded_shuffle);
      ("priority replay", replay Priority);
    ]

let prop_runahead_matches_reference =
  QCheck.Test.make ~name:"run-ahead dispatch = push-every-delay reference"
    ~count:150
    QCheck.(
      pair (make ~print:pp_program gen_program) (make ~print:string_of_int Gen.(int_bound 1000)))
    (fun (procs, seed) ->
      List.for_all
        (fun (name, mk) ->
          List.for_all
            (fun slice ->
              let real = run_program (module Real) (mk ()) ~slice procs in
              let reference =
                run_program (module Reference) (mk ()) ~slice procs
              in
              if real <> reference then
                QCheck.Test.fail_reportf
                  "%s, slice %d: trace %d vs %d steps, clock %d vs %d, \
                   failure %s vs %s, decisions %d vs %d, draws %d vs %d"
                  name slice (List.length real.steps)
                  (List.length reference.steps)
                  real.clock reference.clock
                  (Option.value real.failure ~default:"-")
                  (Option.value reference.failure ~default:"-")
                  real.decisions reference.decisions real.draws
                  reference.draws;
              true)
            [ 0; 7 ])
        (schedules_for procs seed))

(* The event heap against a sorted-list model: same pop order, same
   [first] answers, with ties on time and key and growth past the
   initial 256 slots. *)
type heap_op = Push of int * int | Pop | First of int * int

let prop_heap_matches_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 900)
        (frequency
           [
             (5, map2 (fun t k -> Push (t, k)) (int_bound 6) (int_bound 2));
             (2, return Pop);
             (1, map2 (fun t k -> First (t, k)) (int_bound 6) (int_bound 2));
           ]))
  in
  QCheck.Test.make ~name:"event heap = sorted-list model" ~count:200
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       gen)
    (fun ops ->
      let h = Sim.Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      (* each entry's thunk records its seq: the heap must hand back the
         thunk pushed with the entry *)
      let ran = ref (-1) in
      let thunk_of s () = ran := s in
      let thunk_is s =
        Sim.Heap.top_thunk h ();
        !ran = s
      in
      List.for_all
        (fun op ->
          match op with
          | Push (time, key) ->
              let s = !seq in
              incr seq;
              Sim.Heap.push h ~time ~key ~seq:s ~proc:(s * 3) (thunk_of s);
              model := List.merge compare !model [ (time, key, s) ];
              Sim.Heap.size h = List.length !model
          | First (time, key) ->
              let s = !seq in
              incr seq;
              let expect =
                match !model with [] -> true | e :: _ -> (time, key, s) < e
              in
              Sim.Heap.first h ~time ~key ~seq:s = expect
          | Pop -> (
              match !model with
              | [] -> not (Sim.Heap.pop h)
              | (time, key, s) :: rest ->
                  model := rest;
                  Sim.Heap.pop h
                  && Sim.Heap.top_time h = time
                  && Sim.Heap.top_key h = key
                  && Sim.Heap.top_seq h = s
                  && Sim.Heap.top_proc h = s * 3
                  && thunk_is s
                  && Sim.Heap.size h = List.length rest))
        ops
      &&
      (* drain what is left: the rest comes out in model order *)
      List.for_all
        (fun (time, key, s) ->
          Sim.Heap.pop h
          && (Sim.Heap.top_time h, Sim.Heap.top_key h, Sim.Heap.top_seq h)
             = (time, key, s)
          && thunk_is s)
        !model
      && not (Sim.Heap.pop h))

(* Allocation gate: minor words per [delay], deterministic whatever the
   host.  A delay that nothing else precedes must not allocate at all;
   one that has to wait pays one effect, one continuation and a closure,
   but no heap record or option (queueing every delay costs 25). *)
let words_per_delay ~sleeper ~runners n =
  let sim = Sim.create () in
  if sleeper then Sim.spawn sim (fun () -> Sim.delay sim 1_000_000_000);
  for _ = 1 to runners do
    Sim.spawn sim (fun () ->
        for _ = 1 to n do
          Sim.delay sim 1
        done)
  done;
  let w0 = Gc.minor_words () in
  Sim.run sim;
  (Gc.minor_words () -. w0) /. float_of_int (runners * n)

let test_delay_allocation () =
  let inline = words_per_delay ~sleeper:true ~runners:1 100_000 in
  let lockstep = words_per_delay ~sleeper:false ~runners:2 100_000 in
  if inline > 1.0 then
    Alcotest.failf "an inline delay allocates %.2f words (gate: 1)" inline;
  if lockstep >= 25.0 then
    Alcotest.failf "a queued delay allocates %.2f words (gate: < 25)"
      lockstep

let () =
  Alcotest.run "sim"
    [
      ( "scheduling",
        [
          Alcotest.test_case "delay ordering" `Quick test_delay_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "spawn from process" `Quick
            test_spawn_from_process;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "serializes" `Quick test_mutex_serializes;
          Alcotest.test_case "FIFO handoff" `Quick test_mutex_fifo_handoff;
          Alcotest.test_case "try_lock" `Quick test_try_lock;
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detection;
        ] );
      ( "cond",
        [
          Alcotest.test_case "group commit pattern" `Quick
            test_cond_group_commit_pattern;
        ] );
      ( "service",
        [
          Alcotest.test_case "no lost wakeup" `Quick
            test_service_no_lost_wakeup;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "explicit fifo identical" `Quick
            test_fifo_schedule_identical;
          Alcotest.test_case "shuffle permutes deterministically" `Quick
            test_shuffle_permutes;
          Alcotest.test_case "priority permutes deterministically" `Quick
            test_priority_permutes;
          Alcotest.test_case "save/load/replay round trip" `Quick
            test_schedule_replay_roundtrip;
          Alcotest.test_case "replay outliving trace falls back" `Quick
            test_replay_outliving_trace_falls_back;
          Alcotest.test_case "draw bound mismatch falls back" `Quick
            test_draw_bound_mismatch_falls_back;
        ] );
      ( "run-ahead",
        [
          Alcotest.test_case "escaping exception resets the root" `Quick
            test_escaping_exception_resets;
          Alcotest.test_case "delay allocation gate" `Quick
            test_delay_allocation;
          QCheck_alcotest.to_alcotest prop_runahead_matches_reference;
          QCheck_alcotest.to_alcotest prop_heap_matches_model;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_delays_accumulate ]);
    ]
