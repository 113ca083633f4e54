(** The schedule-exploration harness shared by [bin/sched_explore] and
    the test suite.

    One {!run} executes a deterministic multi-threaded read-write
    workload ({!Workload.Stress_model.txn_rw}) over a fresh Mnemosyne
    instance under a {!Sim.Schedule} — recording every same-time
    tiebreak and backoff draw — then checks the collected transaction
    {!Mtm.History} for conflict serializability against the final
    memory image.  A violating run's schedule can be {!save_schedule}d
    and replayed bit-exactly. *)

type cfg = {
  seed : int;
  threads : int;
  txns : int;  (** Per thread. *)
  nslots : int;  (** Shared 8-byte slots the transactions fight over. *)
  policy : Sim.Schedule.policy;
  undo : bool;  (** Run under [Eager_undo] instead of [Lazy_redo]. *)
  zero_lat : bool;
      (** Zero every software-overhead latency, collapsing code paths
          onto single simulated ticks: every yield becomes a same-time
          tie the policy gets to order.  The adversarial mode — races
          whose windows the default costs keep closed open up here. *)
  lease : int;
      (** {!Mtm.Txn.config.ts_lease}: commit timestamps leased per
          shared-counter refill (1 = the legacy protocol).  Fuzzing
          with a small lease makes lease-boundary interleavings —
          refills racing other commits — common. *)
  stripes : int;  (** {!Mtm.Txn.config.lock_stripes}. *)
  group_commit : bool;  (** {!Mtm.Txn.config.group_commit}. *)
  pipeline : bool;
      (** {!Mtm.Txn.config.pipeline}: pipelined commit, with a
          {!Sim.Service} drainer daemon woken by commits and stopped by
          the last finishing worker.  Fuzzing this covers the new
          release-at-fence window (a reader acquiring a line between
          lock release and deferred write-back). *)
  cm_adaptive : bool;
      (** Run under {!Mtm.Txn.Cm_adaptive} instead of the legacy
          contention manager. *)
  admission : bool;
      (** Route every transaction through a {!Serve.Admission} policy
          with synthetic queue depths: a deterministic mix of requests
          is shed before any transaction exists, another slice is
          cancelled mid-flight after staging (distinctively mangled)
          writes, and the rest commit.  The serializability check plus
          the sanitizer then prove a rejected request leaves zero
          persistent side effects under every explored interleaving. *)
  trace : bool;  (** Record an observability trace during the run. *)
  pmcheck : bool;
      (** Install the {!Scm.Pmcheck} durability sanitizer before the
          run; any violations it records are appended (rendered) to the
          outcome's [violations]. *)
  race : bool;
      (** Install the {!Check.Racecheck} happens-before race detector
          over the run's annotated volatile coordination state; any
          races it records are appended (rendered) to the outcome's
          [violations], so they fail runs — and save replayable traces
          — exactly like serializability violations.  HB edges come
          only from real synchronization (fiber spawn, service
          wake→unpark, queue push/pop, lock hand-offs), never plain
          yields, so one schedule flags every race any schedule could
          exhibit on the same access pairs. *)
  dir : string;  (** Scratch instance directory (reset on each run). *)
}

val default_cfg : dir:string -> cfg
(** 3 threads, 8 transactions each, 16 slots, shuffle policy, seed 0. *)

val geometry : Mnemosyne.geometry
(** The instance geometry every run opens: 2048 SCM frames, 64 heap
    superblocks, 256 KiB of large-object heap. *)

val mtm_config : cfg -> Mtm.Txn.config
(** The STM configuration a run of [cfg] opens its instance with. *)

type outcome = {
  schedule : Sim.Schedule.t;  (** As recorded (or replayed). *)
  history : Mtm.History.t;
  violations : string list;  (** [[]] = conflict-serializable. *)
  commits : int;
  ro_commits : int;
  aborts : int;
  contention : int;  (** [run] calls that gave up ({!Mtm.Txn.Contention}). *)
  sim_ns : int;
  replay_leftover : int;  (** Recorded decisions left unconsumed. *)
  replay_extra : int;
      (** Decisions invented past the recorded streams.  A replay is
          bit-exact iff both divergence counters are 0; a regression
          trace recorded against since-fixed code legitimately
          diverges (the fix changes a transaction's fate) while still
          exercising the schedule prefix that tripped the bug. *)
  race_ops : int;
      (** Annotated accesses the armed race detector processed (0 with
          [race = false]) — lets a test distinguish "no races" from "the
          detector never saw an event". *)
  obs : Obs.t;
}

val run : ?schedule:Sim.Schedule.t -> cfg -> outcome
(** Run the workload once.  Without [schedule], a recording schedule is
    built from [cfg.policy] and [cfg.seed]; pass a {!Sim.Schedule.load}ed
    one to replay. *)

val save_schedule : outcome -> cfg -> string -> unit
(** Write the outcome's schedule trace, stamping the workload shape
    (threads/txns/nslots/undo) into the header so the file alone
    reconstructs the run. *)

val cfg_of_schedule : dir:string -> Sim.Schedule.t -> cfg
(** Rebuild the run configuration recorded in a trace's header. *)
