module Pmem = Region.Pmem

type truncation = Sync | Async
type version_mgmt = Lazy_redo | Eager_undo

(* Conflict-management policy.  [Cm_legacy] is the historical behaviour
   (abort on any foreign owner, linear randomized backoff),
   bit-identical to before the knob existed.  [Cm_adaptive] adds
   timestamp-priority waiting (wait-die: an older transaction waits a
   bounded time for a younger lock owner; a younger one aborts at once,
   so wait chains run strictly old-to-young and cannot cycle) and
   capped exponential backoff scaled by how contended the aborting
   line has been. *)
type cm = Cm_legacy | Cm_adaptive

type config = {
  nthreads : int;
  log_cap_words : int;
  truncation : truncation;
  version_mgmt : version_mgmt;
  lock_bits : int;
  max_attempts : int;
  (* Scalable-commit knobs.  The defaults (lease 1, one stripe, no
     group commit) reproduce the original shared-point protocol
     bit-identically: sim figures, crash-point indices and recorded
     schedules are all pinned against them. *)
  ts_lease : int;  (* cts values leased per shared-counter refill *)
  lock_stripes : int;  (* lock-table stripes (power of two) *)
  group_commit : bool;  (* share one log-flush fence per drain window *)
  gc_trunc_batch : int;  (* sync truncations retired per batch *)
  (* Pipelined-commit knobs.  Off by default: with [pipeline = false]
     the path below the durability point is the scalable protocol,
     bit-identical. *)
  pipeline : bool;
      (* release write locks right after the durability fence and hand
         data-line flushing + log truncation to a drainer *)
  pipe_window : int;  (* commits in flight awaiting write-back, per thread *)
  cm : cm;
}

let default_config =
  {
    nthreads = 4;
    log_cap_words = 65536;
    truncation = Sync;
    version_mgmt = Lazy_redo;
    lock_bits = 18;
    max_attempts = 64;
    ts_lease = 1;
    lock_stripes = 1;
    group_commit = false;
    gc_trunc_batch = 8;
    pipeline = false;
    pipe_window = 8;
    cm = Cm_legacy;
  }

exception Contention
exception Cancelled
exception Abort_internal

(* A commit whose log span is awaiting asynchronous truncation; the
   daemon only needs the record's span and its write addresses (sorted
   ascending) to flush lines and advance the head.  The owning
   transaction id rides along so the deferred work can close the
   commit's causal flow in the trace. *)
type pending = { span : int; addrs : int array; txid : int }

type pool = {
  pmem : Region.Pmem.t;
  heap : Pmheap.Heap.t option;
  locks : Lock_table.t;
  ts : Timestamp.t;
  cfg : config;
  log_bases : int array;
  mutable logs : Pmlog.Rawl.t array;
      (* recovery-time handles, for inspection *)
  obs : Obs.t;
  (* per-phase commit-latency breakdown (paper table 5's spirit) *)
  h_total : Obs.Metrics.histogram;
  h_log_write : Obs.Metrics.histogram;
  h_fence : Obs.Metrics.histogram;
  h_write_back : Obs.Metrics.histogram;
  h_stm : Obs.Metrics.histogram;
  h_gc_group : Obs.Metrics.histogram;  (* group-commit members per fence *)
  fc_aliased : Obs.Metrics.counter;
      (* aborts where the conflicting owner held the lock for a
         different address: lock-table aliasing, not a data conflict *)
  mutable recovered : int;
  mutable commits : int;
  mutable aborts : int;
  mutable ro_commits : int;
  mutable retries : int;
  mutable contention_failures : int;
  mutable log_full_stalls : int;
  (* Exploration hooks, both [None] by default so the hot paths cost
     one branch and the default schedule stays bit-identical. *)
  mutable history : (History.event -> unit) option;
  mutable backoff_draw : (int -> int) option;
  (* Per-transaction profile ledger, [None] by default under the same
     one-branch discipline as the exploration hooks. *)
  mutable txprof : Obs.Txprof.t option;
  mutable next_txid : int;
      (* pool-wide transaction id source; ids stamp causal flows and
         profile entries, 0 meaning "no transaction" *)
  (* Group-commit rendezvous: members whose records await the shared
     fence, and whether a leader is currently draining a window. *)
  mutable gc_waiters : thread list;
  mutable gc_leading : bool;
  (* Pipelined commit: every bound thread, for the drainer's sweep, and
     the hook that wakes a drainer daemon when work is queued.  The
     hook receives the committing thread's id so a sharded deployment
     (one daemon per group of threads, see {!drain_pipeline}'s [shard])
     wakes only the daemon responsible for that thread. *)
  mutable threads : thread list;
  mutable drain_wake : (int -> unit) option;
  (* Contention manager: the priority stamp each thread slot publishes
     while a transaction runs there (its txid; [max_int] when idle —
     stable across retries, so a long-retrying transaction ages into
     higher priority), per-line abort attribution, and accumulated
     backoff/wait time for the benchmark breakdowns. *)
  cm_stamps : int array;
  abort_lines : (int, int ref) Hashtbl.t;
  mutable backoff_ns : int;
  mutable cm_waits : int;
  (* Race-detection hooks (DESIGN.md section 18), [None] by default
     under the same one-branch discipline as the exploration hooks.
     {!set_race} forwards them to the lock table, the timestamp
     counter and every thread log, so the whole coordination surface
     reports to one detector. *)
  mutable race : Race_api.hooks option;
}

and thread = {
  id : int;
  pool : pool;
  view : Pmem.view;
  log : Pmlog.Rawl.t;
  pending_q : pending Queue.t;
  rng : Random.State.t;
  lease : Timestamp.lease;  (* thread-private block of cts values *)
  mutable gc_done : bool;  (* this thread's record fenced by a leader *)
  mutable current : txn option;
  (* Reusable per-thread transaction state: one transaction runs at a
     time per thread (flat nesting), so every attempt recycles these
     tables and scratch buffers instead of allocating.  The steady-state
     commit path touches only preallocated arrays. *)
  t_wset : Wset.t;  (* redo: buffered new values *)
  t_old_vals : Wset.t;  (* undo: first-write old values, insert order *)
  mutable wlocks : int array;  (* acquired lock indices *)
  mutable nwlocks : int;
  mutable rset_idx : int array;  (* read-set lock indices... *)
  mutable rset_ver : int array;  (* ...and the versions read *)
  mutable nrset : int;
  mutable sorted : int array;  (* scratch: write addresses, sorted *)
  mutable enc_buf : Bytes.t;  (* scratch: redo-record encoding, raw LE bytes *)
  undo_buf : int64 array;  (* scratch: one [addr, old] undo record *)
  (* first-read (addr, value) capture, only filled when the pool has a
     history hook *)
  mutable r_addrs : int array;
  mutable r_vals : int64 array;
  mutable nreads : int;
  mutable cur_txid : int;  (* id of the transaction running here, 0 = none *)
  mutable draining : bool;
      (* a retirer ({!retire}) claimed this queue and has not yet
         advanced the head: other retirers skip it, and a producer
         waits instead of double-retiring *)
  mutable race_pushes : int;
      (* detector bookkeeping: descriptors pushed/popped through
         [pending_q], numbering the per-item plain-access labels so
         each delivered descriptor is its own checked location *)
  mutable race_pops : int;
  mutable last_conflict_addr : int;
      (* address whose lock conflict caused the latest abort, for the
         adaptive backoff's per-line contention scaling *)
  (* Per-transaction profile scratch, only maintained when the pool has
     a {!Obs.Txprof} ledger installed.  [prof_mark] is a running
     timestamp: each phase boundary attributes [now - prof_mark] to one
     phase and advances the mark, so the phases partition the
     transaction's interval exactly. *)
  prof_phases : int array;
  mutable prof_start : int;
  mutable prof_mark : int;
  mutable prof_stall_ns : int;  (* log-full stall inside the current append *)
  mutable prof_retries : int;
  mutable prof_bytes : int;
}

and txn = {
  th : thread;
  mutable rv : int;
  wset : Wset.t;  (* == th.t_wset, cleared by fresh_txn *)
  old_vals : Wset.t;  (* == th.t_old_vals *)
  mutable resvs : Pmheap.Hoard.reservation list;
  mutable freed_small : int list;
  mutable large_allocs : int list;
  mutable large_frees : int list;
}

type t = txn

type stats = {
  commits : int;
  aborts : int;
  read_only_commits : int;
  retries : int;
  contention_failures : int;
  log_full_stalls : int;
}

let config pool = pool.cfg
let pmem pool = pool.pmem
let recovered_txns pool = pool.recovered
let obs pool = pool.obs

let stats (pool : pool) =
  { commits = pool.commits; aborts = pool.aborts;
    read_only_commits = pool.ro_commits; retries = pool.retries;
    contention_failures = pool.contention_failures;
    log_full_stalls = pool.log_full_stalls }

let reset_stats (pool : pool) =
  pool.commits <- 0;
  pool.aborts <- 0;
  pool.ro_commits <- 0;
  pool.retries <- 0;
  pool.contention_failures <- 0;
  pool.log_full_stalls <- 0;
  pool.backoff_ns <- 0;
  pool.cm_waits <- 0;
  Hashtbl.reset pool.abort_lines

let backoff_ns (pool : pool) = pool.backoff_ns
let cm_waits (pool : pool) = pool.cm_waits

(* Per-line abort attribution, hottest line first: which addresses the
   contention manager is actually fighting over. *)
let abort_attribution (pool : pool) =
  Hashtbl.fold (fun line r acc -> (line, !r) :: acc) pool.abort_lines []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let set_drain_wake pool w = pool.drain_wake <- w

type log_usage = { slot : int; base : int; cap_words : int; used : int }

(* Occupancy as of the recovery-time attach (thread-local handles made
   by {!thread} advance independently); regionctl reads this right
   after opening an instance, where it is exact. *)
let log_usage pool =
  Array.to_list
    (Array.mapi
       (fun i log ->
         { slot = i; base = pool.log_bases.(i);
           cap_words = Pmlog.Rawl.capacity log;
           used = Pmlog.Rawl.used_words log })
       pool.logs)

(* ------------------------------------------------------------------ *)
(* Pool creation and recovery                                          *)

let log_region_bytes cfg =
  Pmlog.Rawl.region_bytes_for ~cap_words:cfg.log_cap_words

let log_base_of v cfg i =
  let slot = Region.Pstatic.get v (Printf.sprintf "mtm.log.%02d" i) 8 in
  let recorded = Int64.to_int (Pmem.load v slot) in
  let valid =
    recorded <> 0
    && Region.Pmem.region_containing v.Pmem.pmem recorded <> None
  in
  if valid then recorded
  else begin
    let base = Pmem.pmap v (log_region_bytes cfg) in
    ignore (Pmlog.Rawl.create v ~base ~cap_words:cfg.log_cap_words);
    Pmem.wtstore v slot (Int64.of_int base);
    Pmem.fence v;
    base
  end

let create_pool ?(config = default_config) pmem heap =
  if config.version_mgmt = Eager_undo && config.truncation = Async then
    invalid_arg
      "Txn.create_pool: undo logging commits by truncation and cannot be \
       asynchronous";
  if config.version_mgmt = Eager_undo && config.group_commit then
    invalid_arg
      "Txn.create_pool: group commit amortizes the redo-log flush and \
       requires redo logging";
  if config.ts_lease < 1 then invalid_arg "Txn.create_pool: ts_lease < 1";
  if config.pipeline && config.version_mgmt = Eager_undo then
    invalid_arg
      "Txn.create_pool: the pipelined commit defers data write-back \
       behind a durable redo record and requires redo logging";
  if config.pipeline && config.pipe_window < 1 then
    invalid_arg "Txn.create_pool: pipe_window < 1";
  let v = Pmem.default_view pmem in
  let obs = v.Pmem.env.Scm.Env.machine.Scm.Env.obs in
  let m = obs.Obs.metrics in
  let pool =
    {
      pmem;
      heap;
      locks =
        Lock_table.create ~bits:config.lock_bits ~stripes:config.lock_stripes
          ();
      ts = Timestamp.create ();
      cfg = config;
      log_bases = Array.make config.nthreads 0;
      logs = [||];
      obs;
      h_total = Obs.Metrics.histogram m "mtm.commit.total_ns";
      h_log_write = Obs.Metrics.histogram m "mtm.commit.log_write_ns";
      h_fence = Obs.Metrics.histogram m "mtm.commit.fence_ns";
      h_write_back = Obs.Metrics.histogram m "mtm.commit.write_back_ns";
      h_stm = Obs.Metrics.histogram m "mtm.commit.stm_ns";
      h_gc_group = Obs.Metrics.histogram m "mtm.gc.group_size";
      fc_aliased = Obs.Metrics.counter m "mtm.lock.false_conflicts";
      recovered = 0;
      commits = 0;
      aborts = 0;
      ro_commits = 0;
      retries = 0;
      contention_failures = 0;
      log_full_stalls = 0;
      history = None;
      backoff_draw = None;
      txprof = None;
      next_txid = 0;
      gc_waiters = [];
      gc_leading = false;
      threads = [];
      drain_wake = None;
      cm_stamps = Array.make config.nthreads max_int;
      abort_lines = Hashtbl.create 64;
      backoff_ns = 0;
      cm_waits = 0;
      race = None;
    }
  in
  (* Recovery: gather complete records from every thread log, replay in
     global-timestamp order, then truncate.  Replay is idempotent redo,
     so a crash during recovery just redoes it. *)
  let logs_and_records =
    Array.to_list
      (Array.init config.nthreads (fun i ->
           let base = log_base_of v config i in
           pool.log_bases.(i) <- base;
           Pmlog.Rawl.attach v ~base))
  in
  pool.logs <- Array.of_list (List.map fst logs_and_records);
  (match config.version_mgmt with
  | Lazy_redo ->
      (* Redo: every surviving record is a committed transaction; replay
         all of them in global-timestamp order. *)
      let records =
        List.concat_map (fun (_, records) -> records) logs_and_records
        |> List.filter_map Redo_log.decode
        |> List.sort (fun a b -> compare a.Redo_log.ts b.Redo_log.ts)
      in
      List.iter
        (fun { Redo_log.ts; writes } ->
          Obs.instant_at obs Obs.Trace.Recovery_replay
            ~ts:(v.Pmem.env.Scm.Env.now ()) ~arg:ts;
          List.iter (fun (addr, value) -> Pmem.wtstore v addr value) writes)
        records;
      if records <> [] then begin
        Pmem.fence v;
        pool.recovered <- List.length records;
        (* New transactions must commit with later timestamps than
           anything a leftover log record could carry. *)
        let max_ts =
          List.fold_left (fun acc r -> max acc r.Redo_log.ts) 0 records
        in
        (* Same simulated cost as the historical bump-per-value loop
           (recovery is single-threaded, so each bump cost exactly one
           [timestamp_ns]), without O(max_ts) counter transactions. *)
        v.Pmem.env.delay (v.Pmem.env.machine.latency.timestamp_ns * max_ts);
        Timestamp.advance_to pool.ts max_ts
      end
  | Eager_undo ->
      (* Undo: each log holds the [addr, old] records of at most one
         in-flight (uncommitted) transaction; roll it back by restoring
         old values in reverse order. *)
      List.iter
        (fun (_, records) ->
          let undo_entries =
            List.filter_map
              (fun r ->
                if Array.length r = 2 then
                  Some (Int64.to_int r.(0), r.(1))
                else None)
              records
          in
          if undo_entries <> [] then begin
            Obs.instant_at obs Obs.Trace.Recovery_replay
              ~ts:(v.Pmem.env.Scm.Env.now ())
              ~arg:(List.length undo_entries);
            List.iter
              (fun (addr, old) -> Pmem.wtstore v addr old)
              (List.rev undo_entries);
            Pmem.fence v;
            pool.recovered <- pool.recovered + 1
          end)
        logs_and_records);
  List.iter (fun (log, _) -> Pmlog.Rawl.truncate_all log) logs_and_records;
  pool

let thread pool i env =
  if i < 0 || i >= pool.cfg.nthreads then invalid_arg "Txn.thread: slot";
  let view = Pmem.view pool.pmem env in
  let log, records = Pmlog.Rawl.attach view ~base:pool.log_bases.(i) in
  (* A previous handle on this slot (e.g. the instance's main thread)
     may have gone away with truncations still deferred: its committed
     records survive in the shared log and the lines they cover may
     still be cache-dirty.  Retire them now — flush every covered line,
     fence, truncate — so this handle's own head advances stay aligned
     with the records it appends itself.  Configurations that truncate
     at commit leave the log empty, making this free. *)
  (match pool.cfg.version_mgmt with
  | Lazy_redo when records <> [] ->
      let last = ref (-1) in
      List.iter
        (fun r ->
          match Redo_log.decode r with
          | None -> ()
          | Some { Redo_log.writes; _ } ->
              List.iter
                (fun (addr, _) ->
                  let line = addr land lnot 63 in
                  if line <> !last then begin
                    Pmem.flush view line;
                    last := line
                  end)
                writes)
        records;
      Pmem.fence view;
      Pmlog.Rawl.truncate_all log
  | _ -> ());
  Timestamp.register_thread pool.ts;
  let th =
  {
    id = i;
    pool;
    view;
    log;
    pending_q = Queue.create ();
    rng = Random.State.make [| 0x7a11; i |];
    lease = Timestamp.lease_create ();
    gc_done = false;
    current = None;
    t_wset = Wset.create ();
    t_old_vals = Wset.create ();
    wlocks = Array.make 64 0;
    nwlocks = 0;
    rset_idx = Array.make 64 0;
    rset_ver = Array.make 64 0;
    nrset = 0;
    sorted = Array.make 64 0;
    enc_buf = Bytes.create (160 * 8);
    undo_buf = Array.make 2 0L;
    r_addrs = Array.make 8 0;
    r_vals = Array.make 8 0L;
    nreads = 0;
    cur_txid = 0;
    draining = false;
    race_pushes = 0;
    race_pops = 0;
    last_conflict_addr = 0;
    prof_phases = Array.make Obs.Txprof.nphases 0;
    prof_start = 0;
    prof_mark = 0;
    prof_stall_ns = 0;
    prof_retries = 0;
    prof_bytes = 0;
  }
  in
  pool.threads <- th :: pool.threads;
  (* a detector installed before this thread was bound covers its log *)
  (match pool.race with
  | None -> ()
  | Some _ as h -> Pmlog.Rawl.set_race th.log h);
  th

let set_history_hook pool h = pool.history <- h
let set_backoff_draw pool d = pool.backoff_draw <- d
let set_txprof pool tp = pool.txprof <- tp
let txprof pool = pool.txprof

let set_race pool h =
  pool.race <- h;
  Lock_table.set_race pool.locks h;
  Timestamp.set_race pool.ts h;
  Array.iter (fun l -> Pmlog.Rawl.set_race l h) pool.logs;
  List.iter (fun th -> Pmlog.Rawl.set_race th.log h) pool.threads

(* ---------------------------------------------------------------- *)
(* Race-detector annotations (DESIGN.md section 18).

   Classification: [pending_q] is an mpsc channel (push = release,
   pop = acquire) and every descriptor delivered through it is its own
   plain checked location — the channel edge is exactly what makes the
   descriptor handoff race-free, so a broken wake/drain protocol shows
   up as a read/write race on the descriptor.  [draining], [gc_done],
   [gc_leading] and the waiter list are single-word flags
   (test-and-set = rmw, clear = release, poll = acquire); [cm_stamps]
   slots are publish/observe words (release/acquire); [abort_lines]
   and [next_txid] are shared rmw words.  Each helper is one branch
   when no detector is installed; label strings are only built when
   one is. *)

let[@inline] race_q_push th =
  match th.pool.race with
  | None -> ()
  | Some h ->
      let k = th.race_pushes in
      th.race_pushes <- k + 1;
      h.Race_api.write (Printf.sprintf "mtm.th.%d.pending.%d" th.id k);
      h.Race_api.release ("mtm.th." ^ string_of_int th.id ^ ".pending_q")

let[@inline] race_q_pop th =
  match th.pool.race with
  | None -> ()
  | Some h ->
      let k = th.race_pops in
      th.race_pops <- k + 1;
      h.Race_api.acquire ("mtm.th." ^ string_of_int th.id ^ ".pending_q");
      h.Race_api.read (Printf.sprintf "mtm.th.%d.pending.%d" th.id k)

let[@inline] race_q_probe th =
  (* Queue.length / Queue.is_empty: reads the channel's state word. *)
  match th.pool.race with
  | None -> ()
  | Some h ->
      h.Race_api.acquire ("mtm.th." ^ string_of_int th.id ^ ".pending_q")

(* Per-id labels are only built under [Some]: the stamp publish sits
   on every transaction's commit path, so an eager [^] there would
   allocate with the detector off. *)
let[@inline] race_on pool event label x =
  match pool.race with None -> () | Some h -> event h (label x)

let rel h = h.Race_api.release
let acq h = h.Race_api.acquire
let rmw h = h.Race_api.rmw

let[@inline] draining_label th = "mtm.th." ^ string_of_int th.id ^ ".draining"
let[@inline] gc_done_label th = "mtm.th." ^ string_of_int th.id ^ ".gc_done"
let[@inline] cm_stamp_label i = "mtm.cm.stamp." ^ string_of_int i
let[@inline] race_draining_set th = race_on th.pool rmw draining_label th
let[@inline] race_draining_clear th = race_on th.pool rel draining_label th
let[@inline] race_draining_read th = race_on th.pool acq draining_label th
let[@inline] race_rel_stamp pool i = race_on pool rel cm_stamp_label i
let[@inline] race_acq_stamp pool i = race_on pool acq cm_stamp_label i
let[@inline] race_rel_gc_done pool th = race_on pool rel gc_done_label th
let[@inline] race_acq_gc_done pool th = race_on pool acq gc_done_label th
let[@inline] race_rmw_gc_done pool th = race_on pool rmw gc_done_label th
let[@inline] race_rmw pool label = race_on pool rmw Fun.id label
let[@inline] race_acq pool label = race_on pool acq Fun.id label
let[@inline] race_rel_label pool label = race_on pool rel Fun.id label

(* Attribute everything since the last mark to [phase] and advance the
   mark.  Only called when the pool has a ledger; reads the clock but
   never charges simulated time. *)
let[@inline] prof_phase th phase =
  let now = th.view.Pmem.env.Scm.Env.now () in
  th.prof_phases.(phase) <- th.prof_phases.(phase) + (now - th.prof_mark);
  th.prof_mark <- now

(* ------------------------------------------------------------------ *)
(* Scratch-buffer management (amortized: grow once, reuse forever)     *)

let push_wlock th idx =
  if th.nwlocks = Array.length th.wlocks then
    th.wlocks <- Array.append th.wlocks (Array.make (Array.length th.wlocks) 0);
  th.wlocks.(th.nwlocks) <- idx;
  th.nwlocks <- th.nwlocks + 1

let push_read th idx ver =
  if th.nrset = Array.length th.rset_idx then begin
    let n = Array.length th.rset_idx in
    th.rset_idx <- Array.append th.rset_idx (Array.make n 0);
    th.rset_ver <- Array.append th.rset_ver (Array.make n 0)
  end;
  th.rset_idx.(th.nrset) <- idx;
  th.rset_ver.(th.nrset) <- ver;
  th.nrset <- th.nrset + 1

(* First-read (addr, value) capture for the serializability oracle;
   only called when the pool has a history hook, so growth here never
   charges the default hot path. *)
let record_read th addr v =
  if th.nreads = Array.length th.r_addrs then begin
    let n = Array.length th.r_addrs in
    th.r_addrs <- Array.append th.r_addrs (Array.make n 0);
    th.r_vals <- Array.append th.r_vals (Array.make n 0L)
  end;
  th.r_addrs.(th.nreads) <- addr;
  th.r_vals.(th.nreads) <- v;
  th.nreads <- th.nreads + 1

let ensure_sorted th n =
  if Array.length th.sorted < n then th.sorted <- Array.make (2 * n) 0;
  th.sorted

let ensure_enc th n =
  if Bytes.length th.enc_buf < 8 * n then th.enc_buf <- Bytes.create (16 * n);
  th.enc_buf

(* Write addresses of [ws], sorted ascending, in [th.sorted]; returns
   the count. *)
let sorted_addrs_of th ws =
  let n = Wset.blit_keys ws (ensure_sorted th (Wset.size ws)) in
  Wset.sort_prefix th.sorted ~len:n;
  n

(* ------------------------------------------------------------------ *)
(* Transactional accesses                                              *)

let latency (tx : txn) = tx.th.view.Pmem.env.machine.latency
let delay (tx : txn) ns = tx.th.view.Pmem.env.delay ns

let validate tx =
  let th = tx.th in
  let locks = th.pool.locks in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < th.nrset do
    let idx = th.rset_idx.(!i) in
    (if Lock_table.version locks idx <> th.rset_ver.(!i) then ok := false
     else
       let o = Lock_table.owner locks idx in
       if o <> -1 && o <> th.id then ok := false);
    incr i
  done;
  !ok

let extend tx =
  (* Raising [rv] after revalidation only widens what this transaction
     may read; its serialization point is fixed at commit (and reserved
     on the read locks there), so no watermarks move here. *)
  if validate tx then tx.rv <- Timestamp.now tx.th.pool.ts
  else raise Abort_internal

(* A conflicting owner that acquired the lock for a different address
   never touched our data: the table aliased two addresses onto one
   entry (same 64-byte line, or a table-size wrap).  Counted so the
   striped table's effect is observable. *)
let[@inline] note_false_conflict tx locks idx ~addr =
  if Lock_table.aliased locks idx ~addr then
    Obs.Metrics.incr tx.th.pool.fc_aliased

(* ------------------------------------------------------------------ *)
(* Contention management                                               *)

(* Abort on a lock conflict at [addr]: remember the address (the
   adaptive backoff scales with how contended its line has been) and
   attribute the abort to its 64-byte line.  Plain table ops — no
   simulated time, no rng — so the legacy schedule is untouched. *)
let abort_on_conflict tx addr =
  let th = tx.th in
  race_rmw th.pool "mtm.cm.abort_lines";
  th.last_conflict_addr <- addr;
  let line = addr land lnot 63 in
  (match Hashtbl.find_opt th.pool.abort_lines line with
  | Some r -> incr r
  | None -> Hashtbl.add th.pool.abort_lines line (ref 1));
  raise Abort_internal

let line_abort_count pool addr =
  race_acq pool "mtm.cm.abort_lines";
  match Hashtbl.find_opt pool.abort_lines (addr land lnot 63) with
  | Some r -> !r
  | None -> 0

(* Wait-die: only an older transaction (smaller published stamp) ever
   waits, so wait chains run strictly old-to-young and cannot cycle;
   the bounded budget makes that doubly safe.  Only reachable under
   [Cm_adaptive]. *)
let cm_poll_ns = 80
let cm_wait_ns = 800  (* bounded wait on a younger lock owner *)
let cm_backoff_cap_ns = 12800  (* ceiling of the exponential retry backoff *)

let[@inline] cm_should_wait th o =
  th.pool.cfg.cm == Cm_adaptive
  && o >= 0
  && o < Array.length th.pool.cm_stamps
  && begin
       race_acq_stamp th.pool th.id;
       race_acq_stamp th.pool o;
       th.pool.cm_stamps.(th.id) < th.pool.cm_stamps.(o)
     end

(* Poll (bounded by [cm_wait_ns]) for the younger owner to release;
   true when the lock changed hands, i.e. the access is worth
   retrying instead of aborting the whole attempt. *)
let cm_wait_for_release th locks idx ~owner =
  let pool = th.pool in
  let env = th.view.Pmem.env in
  pool.cm_waits <- pool.cm_waits + 1;
  let budget = ref cm_wait_ns in
  let freed = ref false in
  while (not !freed) && !budget > 0 do
    let q = min cm_poll_ns !budget in
    env.Scm.Env.delay q;
    pool.backoff_ns <- pool.backoff_ns + q;
    budget := !budget - q;
    freed := Lock_table.owner locks idx <> owner
  done;
  !freed

let rec load tx addr =
  delay tx (latency tx).stm_access_ns;
  let slot = Wset.find_slot tx.wset addr in
  if slot >= 0 then Wset.value_at tx.wset slot
  else begin
    let locks = tx.th.pool.locks in
    let idx = Lock_table.index_of locks addr in
    let o = Lock_table.owner locks idx in
    if o = tx.th.id then begin
      let value = Pmem.load tx.th.view addr in
      (match tx.th.pool.history with
      | None -> ()
      | Some _ ->
          (* under eager undo an in-place write of ours reads back our
             own value: internal to the transaction, not a history read *)
          if
            not
              (tx.th.pool.cfg.version_mgmt = Eager_undo
              && Wset.mem tx.old_vals addr)
          then record_read tx.th addr value);
      value
    end
    else if o <> -1 then begin
      note_false_conflict tx locks idx ~addr;
      if cm_should_wait tx.th o && cm_wait_for_release tx.th locks idx ~owner:o
      then load tx addr
      else abort_on_conflict tx addr
    end
    else begin
      let v1 = Lock_table.version locks idx in
      let value = Pmem.load tx.th.view addr in
      (* The load yields in the simulator; re-check for a racing
         commit before trusting the value. *)
      if Lock_table.owner locks idx <> -1
         || Lock_table.version locks idx <> v1
      then begin
        if Lock_table.owner locks idx <> -1 then
          note_false_conflict tx locks idx ~addr;
        abort_on_conflict tx addr
      end;
      if v1 > tx.rv then begin
        extend tx;
        (* [extend] validated the read set, but this slot is not in it
           yet: confirm no commit slipped onto this lock while the
           timestamp was re-read, or [value] may be newer than the
           version we are about to record. *)
        if Lock_table.owner locks idx <> -1
           || Lock_table.version locks idx <> v1
        then abort_on_conflict tx addr
      end;
      push_read tx.th idx v1;
      (* No watermark here: the commit that justifies this read — the
         only point whose position later writers must exceed — leaves
         its reservation on the lock inside the same yield-free step as
         its validation.  Stamping [rv] per load instead would leak the
         global-counter snapshot into every later writer's cts floor
         and defeat the timestamp lease. *)
      (match tx.th.pool.history with
      | None -> ()
      | Some _ -> record_read tx.th addr value);
      value
    end
  end

(* Durability-sanitizer hooks: the commit protocol announces write-set
   coverage so the checker can verify the write-ahead rule.  Each site
   is one branch when no sanitizer is installed. *)
let[@inline] pmchk th = th.view.Pmem.env.Scm.Env.machine.Scm.Env.pmcheck
let[@inline] th_log_base th = th.pool.log_bases.(th.id)

(* Stream one undo record ([addr, old value]) and fence: with eager
   version management "undo logging would require ordering a log write
   before every memory update" (paper section 5) — this fence is that
   ordering, and the cost the redo design avoids. *)
let log_undo tx addr old =
  let buf = tx.th.undo_buf in
  buf.(0) <- Int64.of_int addr;
  buf.(1) <- old;
  (match Pmlog.Rawl.append_sub tx.th.log buf ~len:2 with
  | Pmlog.Rawl.Appended _ -> ()
  | Pmlog.Rawl.Full -> failwith "Txn: undo log full (transaction too large)");
  Pmlog.Rawl.flush tx.th.log

let rec store tx addr v =
  delay tx (latency tx).stm_access_ns;
  if not (Region.Layout.is_persistent addr) then
    invalid_arg "Txn.store: address outside the persistent range";
  let locks = tx.th.pool.locks in
  let idx = Lock_table.index_of locks addr in
  let o = Lock_table.owner locks idx in
  if o <> tx.th.id && o <> -1 then begin
    note_false_conflict tx locks idx ~addr;
    if cm_should_wait tx.th o && cm_wait_for_release tx.th locks idx ~owner:o
    then store tx addr v
    else abort_on_conflict tx addr
  end
  else begin
  (if o = -1 then begin
     if Lock_table.version locks idx > tx.rv then extend tx;
     if not (Lock_table.try_acquire locks idx ~owner:tx.th.id ~addr) then
       abort_on_conflict tx addr;
     push_wlock tx.th idx
   end);
  match tx.th.pool.cfg.version_mgmt with
  | Lazy_redo ->
      (match pmchk tx.th with
      | None -> ()
      | Some chk -> Scm.Pmcheck.note_txn_store chk addr);
      Wset.set tx.wset addr v
  | Eager_undo ->
      if not (Wset.mem tx.old_vals addr) then begin
        (* a store's old-value read is transaction bookkeeping, not a
           program read: clear the never-written mark before loading *)
        (match pmchk tx.th with
        | None -> ()
        | Some chk -> Scm.Pmcheck.note_txn_store chk addr);
        let old = Pmem.load tx.th.view addr in
        Wset.set tx.old_vals addr old;
        log_undo tx addr old;
        (match pmchk tx.th with
        | None -> ()
        | Some chk ->
            Scm.Pmcheck.note_covered chk ~log:(th_log_base tx.th) addr)
      end;
      (* eager: the new value goes straight to memory; isolation holds
         because the lock is owned until commit *)
      Pmem.store tx.th.view addr v
  end

let read_bytes tx addr len =
  if addr land 7 <> 0 then invalid_arg "Txn.read_bytes: alignment";
  let buf = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let w = load tx (addr + !pos) in
    let n = min 8 (len - !pos) in
    Scm.Word.blit_to_bytes w buf !pos n;
    pos := !pos + n
  done;
  buf

let write_bytes tx addr b =
  if addr land 7 <> 0 then invalid_arg "Txn.write_bytes: alignment";
  let len = Bytes.length b in
  let s = Bytes.unsafe_to_string b in
  let pos = ref 0 in
  while !pos < len do
    store tx (addr + !pos) (Scm.Word.of_string_chunk s !pos);
    pos := !pos + 8
  done

(* ------------------------------------------------------------------ *)
(* Transactional allocation                                            *)

let heap_of tx =
  match tx.th.pool.heap with
  | Some h -> h
  | None -> invalid_arg "Txn.alloc: pool has no heap"

let alloc tx size ~slot =
  let heap = heap_of tx in
  if size <= Pmheap.Heap.small_limit then begin
    let resv = Pmheap.Heap.reserve_small ~arena:tx.th.id heap size in
    tx.resvs <- resv :: tx.resvs;
    (match pmchk tx.th with
    | None -> ()
    | Some chk -> Scm.Pmcheck.mark_undef chk resv.addr ~len:size);
    (match resv.header_write with
    | Some (a, v) -> store tx a v
    | None -> ());
    let w = load tx resv.bitmap_addr in
    store tx resv.bitmap_addr (Scm.Word.set_bit w resv.bit true);
    store tx slot (Int64.of_int resv.addr);
    resv.addr
  end
  else begin
    (* Large blocks: allocate immediately through the heap's own log and
       compensate on abort.  A crash between the heap's commit and this
       transaction's commit can leak the block — the price of dlmalloc
       fallback, see DESIGN.md. *)
    let addr = Pmheap.Heap.pmalloc_raw heap size in
    tx.large_allocs <- addr :: tx.large_allocs;
    (match pmchk tx.th with
    | None -> ()
    | Some chk -> Scm.Pmcheck.mark_undef chk addr ~len:size);
    store tx slot (Int64.of_int addr);
    addr
  end

let free_addr tx addr =
  let heap = heap_of tx in
  if addr = 0 then invalid_arg "Txn.free: null address";
  match
    List.partition (fun r -> r.Pmheap.Hoard.addr = addr) tx.resvs
  with
  | [ resv ], rest ->
      (* The block was allocated earlier in this same transaction: undo
         the transactional bit write and return the reservation. *)
      tx.resvs <- rest;
      let w = load tx resv.bitmap_addr in
      store tx resv.bitmap_addr (Scm.Word.set_bit w resv.bit false);
      Pmheap.Heap.cancel_small heap resv
  | _ ->
  if Pmheap.Heap.owns_small heap addr then begin
    let word_addr, bit =
      Pmheap.Heap.free_prepare_small heap ~load:(fun a -> load tx a) addr
    in
    let w = load tx word_addr in
    store tx word_addr (Scm.Word.set_bit w bit false);
    tx.freed_small <- addr :: tx.freed_small
  end
  else tx.large_frees <- addr :: tx.large_frees

let free tx ~slot =
  let addr = Int64.to_int (load tx slot) in
  if addr = 0 then invalid_arg "Txn.free: slot holds no block";
  free_addr tx addr;
  store tx slot 0L

(* ------------------------------------------------------------------ *)
(* Truncation                                                          *)

(* Flush each distinct cache line touched by [addrs.(0 .. n-1)] (which
   must be sorted ascending) exactly once, ascending — duplicates are
   adjacent after the sort, so dedup is one comparison per address
   instead of a [sort_uniq] over freshly consed line lists — then
   fence. *)
let flush_sorted_lines view (addrs : int array) n =
  let last = ref (-1) in
  for i = 0 to n - 1 do
    let line = addrs.(i) land lnot 63 in
    if line <> !last then begin
      Pmem.flush view line;
      last := line
    end
  done;
  Pmem.fence view

let pending_truncations th = Queue.length th.pending_q

(* Volatile occupancy probe for admission control: how full this
   thread's RAWL is right now.  Reads only the DRAM-side cursors, so an
   admission gate can consult it per request without charging SCM
   traffic or taking a yield point. *)
let log_occupancy th =
  (Pmlog.Rawl.used_words th.log, Pmlog.Rawl.capacity th.log)

(* The log manager "consumes the log and forces values out to memory":
   it re-reads the record from SCM (the streamed log words were never
   cached) to learn which addresses to flush.  That read traffic is the
   dominant per-record cost for large transactions and is what makes
   asynchronous truncation lose under low idle time (paper figure 6). *)
let charge_log_read (dview : Pmem.view) ~nwrites =
  let words = 2 + (2 * nwrites) in
  (* sequential scan: prefetching roughly halves the per-word miss *)
  dview.Pmem.env.delay
    (words * dview.Pmem.env.machine.latency.dram_read_ns / 2)

(* How a retirer learns which lines a deferred record covers.
   [Log_read] is the paper's truncation daemon, paying
   {!charge_log_read} per record (figure 6 depends on it).
   [Descriptor] is the pipelined commit's drainer: the commit handed the
   write-set addresses over in a volatile descriptor while they were in
   registers, so the sweep touches DRAM once per record and the log is
   only ever re-read by recovery. *)
type charge = Log_read | Descriptor

(* The one retire path for deferred records.  Sweep [ths] in order and
   claim every queue nobody else is retiring through [draining] (inline
   drains, truncation daemons and pipeline drainers all exclude each
   other there, so no record is retired twice and no head advance
   overtakes another retirer's flush), popping up to [batch]
   descriptors per thread in one yield-free snapshot: producers pushing
   while the memory traffic below is charged land in the next round.
   Then charge the reads to [dview]'s fiber, flush the sorted union of
   the popped records' data lines (lines hot across records or threads
   flushed once) under one fence, and advance every claimed log's head
   with one combined fence ({!Pmlog.Rawl.advance_head_group}).  The
   popped records all sit in their log at once, so each summed span is
   at most the capacity and each advance wraps at most once.  Returns
   the number of records retired. *)
let retire ~charge ~batch (dview : Pmem.view) ths =
  let claimed = ref [] and work = ref [] and naddrs = ref 0 in
  List.iter
    (fun th ->
      race_draining_read th;
      race_q_probe th;
      if (not th.draining) && not (Queue.is_empty th.pending_q) then begin
        race_draining_set th;
        th.draining <- true;
        let records = ref 0 and words = ref 0 in
        while !records < batch && not (Queue.is_empty th.pending_q) do
          race_q_pop th;
          let p = Queue.pop th.pending_q in
          incr records;
          words := !words + p.span;
          naddrs := !naddrs + Array.length p.addrs;
          work := p :: !work
        done;
        claimed := (th, !records, !words) :: !claimed
      end)
    ths;
  match !claimed with
  | [] -> 0
  | (th0, _, _) :: _ as claimed ->
      let work = List.rev !work in
      let nrecords = List.length work in
      (match charge with
      | Log_read ->
          List.iter
            (fun p -> charge_log_read dview ~nwrites:(Array.length p.addrs))
            work
      | Descriptor ->
          dview.Pmem.env.delay
            (nrecords * dview.Pmem.env.machine.latency.dram_read_ns));
      (match work with
      | [ p ] -> flush_sorted_lines dview p.addrs (Array.length p.addrs)
      | _ ->
          let all = Array.make (max 1 !naddrs) 0 in
          let off = ref 0 in
          List.iter
            (fun p ->
              Array.blit p.addrs 0 all !off (Array.length p.addrs);
              off := !off + Array.length p.addrs)
            work;
          Wset.sort_prefix all ~len:!naddrs;
          flush_sorted_lines dview all !naddrs);
      Pmlog.Rawl.advance_head_group
        (List.map (fun (th, records, words) -> (th.log, records, words))
           claimed);
      (* the deferred tail of each retired commit's causal flow *)
      List.iter
        (fun p ->
          if p.txid <> 0 then Obs.flow th0.pool.obs ~phase:`End ~id:p.txid)
        work;
      List.iter
        (fun (th, _, _) ->
          race_draining_clear th;
          th.draining <- false)
        claimed;
      nrecords

let process_one_truncation th dview =
  retire ~charge:Log_read ~batch:1 dview [ th ] > 0

let process_truncations th dview =
  let rec go n = if process_one_truncation th dview then go (n + 1) else n in
  go 0

(* ------------------------------------------------------------------ *)
(* Pipelined commit: the write-back drainer                            *)

(* One sweep of the pool-level drainer: {!retire} over every bound
   thread (in [pool.threads] order) with the descriptor charge and no
   batch bound.  False when no thread had work.  This is the
   asynchronous stage that lets transaction [n+1] run while transaction
   [n]'s write-back drains.

   [shard = (k, n)] sweeps only threads with [id mod n = k]: one
   drainer fiber serializes every producer's flush traffic through
   itself, so deployments with many threads shard the pool across
   several daemons (see [Mnemosyne.start_drainers]) and wake the
   responsible one via the thread id passed to the [drain_wake]
   hook. *)
let drain_pipeline ?shard pool (dview : Pmem.view) =
  let ths =
    match shard with
    | None -> pool.threads
    | Some (k, n) -> List.filter (fun th -> th.id mod n = k) pool.threads
  in
  retire ~charge:Descriptor ~batch:max_int dview ths > 0

let drain_poll_ns = 60

(* Retire this thread's own queue inline, the producer-side fallback
   when no daemon keeps up: per record under plain asynchronous
   truncation, as one batch under group commit or the pipeline.  If a
   retirer already claimed the queue, wait for its head advance
   instead. *)
let retire_own th =
  race_draining_read th;
  if th.draining then begin
    let env = th.view.Pmem.env in
    while th.draining do
      env.Scm.Env.delay drain_poll_ns;
      race_draining_read th
    done
  end
  else begin
    let cfg = th.pool.cfg in
    let batch = if cfg.pipeline || cfg.group_commit then max_int else 1 in
    while retire ~charge:Log_read ~batch th.view [ th ] > 0 do
      ()
    done
  end

(* The one bounded drainer wait: wake the daemon owning this thread and
   poll until [busy th] clears, re-waking every 64 polls.  The producer
   never wedges: with no daemon installed, or once 4096 polls pass with
   the daemon starved or gone, it retires its own queue inline. *)
let await_drainer th busy =
  (match th.pool.drain_wake with
  | None -> ()
  | Some wake ->
      wake th.id;
      let env = th.view.Pmem.env in
      let polls = ref 0 in
      while busy th && !polls < 4096 do
        env.Scm.Env.delay drain_poll_ns;
        incr polls;
        if !polls land 63 = 0 then wake th.id
      done);
  if busy th then retire_own th

(* A retire is owed on this thread: records are queued, or a retirer
   has popped some and not yet advanced the head. *)
let retire_owed th =
  race_q_probe th;
  race_draining_read th;
  (not (Queue.is_empty th.pending_q)) || th.draining

let window_full th =
  race_q_probe th;
  Queue.length th.pending_q >= max 1 th.pool.cfg.pipe_window

(* The in-flight window: a pipelined commit returns with its data
   write-back still pending; once [pipe_window] commits are pending on
   this thread the producer blocks here until the drainer retires
   some.  Time blocked is the profiler's drain-wait phase.  With no
   daemon installed the producer clears its own window — the pipeline
   degrades to batched inline truncation rather than deadlocking. *)
let pipe_backpressure th =
  if window_full th then begin
    await_drainer th window_full;
    if th.pool.txprof != None then prof_phase th Obs.Txprof.ph_drain_wait
  end

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)

(* Transactions reaching the durability point in the same drain window
   share one fence.  A retiring member registers itself and either
   leads — performing one combined {!Pmlog.Rawl.flush_group} over every
   member registered by flush time — or parks, polling until a leader
   marks its record durable.  Registration, leader election and the
   waiter takeover are yield-free sections, so exactly one leader
   drains each window; a waiter that wakes to find no active leader
   and its record still pending leads the next window itself (its
   registration is still queued), so nobody is orphaned. *)

let gc_poll_ns = 40

let gc_lead th pool =
  race_rmw pool "mtm.gc.lead";
  pool.gc_leading <- true;
  race_rmw pool "mtm.gc.waiters";
  let members = pool.gc_waiters in
  pool.gc_waiters <- [];
  (* the leader's log first: the running thread pays the shared cost *)
  let members = th :: List.filter (fun m -> m != th) members in
  Pmlog.Rawl.flush_group (List.map (fun m -> m.log) members);
  List.iter
    (fun m ->
      race_rel_gc_done pool m;
      m.gc_done <- true)
    members;
  race_rel_label pool "mtm.gc.lead";
  pool.gc_leading <- false;
  Obs.Metrics.record pool.h_gc_group (List.length members)

let rec gc_wait th pool (env : Scm.Env.t) =
  race_acq_gc_done pool th;
  if not th.gc_done then begin
    race_acq pool "mtm.gc.lead";
    if not pool.gc_leading then gc_lead th pool
    else begin
      env.delay gc_poll_ns;
      gc_wait th pool env
    end
  end

let gc_retire th =
  let pool = th.pool in
  race_rmw_gc_done pool th;
  th.gc_done <- false;
  race_rmw pool "mtm.gc.waiters";
  pool.gc_waiters <- th :: pool.gc_waiters;
  gc_wait th pool th.view.Pmem.env

(* ------------------------------------------------------------------ *)
(* Commit / abort                                                      *)

let release_locks tx ~committed ~version =
  let th = tx.th in
  let locks = th.pool.locks in
  for i = 0 to th.nwlocks - 1 do
    let idx = th.wlocks.(i) in
    if committed then Lock_table.release_versioned locks idx ~version
    else Lock_table.release locks idx
  done;
  th.nwlocks <- 0

let rollback tx =
  (if tx.th.pool.cfg.version_mgmt = Eager_undo && Wset.size tx.old_vals > 0
   then begin
     (* restore the old values, newest write first, durably, then drop
        the undo records *)
     let n = Wset.size tx.old_vals in
     for i = n - 1 downto 0 do
       let addr = Wset.key tx.old_vals i in
       Pmem.store tx.th.view addr (Wset.get tx.old_vals addr)
     done;
     let ns = sorted_addrs_of tx.th tx.old_vals in
     flush_sorted_lines tx.th.view tx.th.sorted ns;
     Pmlog.Rawl.truncate_all tx.th.log
   end);
  release_locks tx ~committed:false ~version:0;
  (match tx.th.pool.heap with
  | Some heap ->
      List.iter (fun resv -> Pmheap.Heap.cancel_small heap resv) tx.resvs;
      List.iter (fun addr -> Pmheap.Heap.pfree_raw heap addr) tx.large_allocs
  | None -> ());
  (* close any sanitizer coverage the aborted attempt opened (undo
     records, or a redo record staged by a commit that then died) *)
  (match pmchk tx.th with
  | None -> ()
  | Some chk -> Scm.Pmcheck.commit_end chk ~log:(th_log_base tx.th));
  tx.th.pool.aborts <- tx.th.pool.aborts + 1

(* A record that still does not fit after truncation can never fit:
   say how far over the structural limit it is, so the failure points
   at the fix (shrink the transaction or raise [log_cap_words]). *)
let record_capacity_msg tx ~context ~len =
  let log = tx.th.log in
  Printf.sprintf
    "Txn: %s: record of %d words exceeds what a log of %d words can \
     hold (max record: %d words; see Rawl.max_record_words_for)"
    context len
    (Pmlog.Rawl.capacity log)
    (Pmlog.Rawl.max_record_words log)

let append_record tx buf ~len =
  let rec try_append retried =
    match Pmlog.Rawl.append_bytes tx.th.log buf ~len with
    | Pmlog.Rawl.Appended span -> span
    | Pmlog.Rawl.Full ->
        if not (retire_owed tx.th) then
          failwith
            (record_capacity_msg tx ~context:"transaction record larger \
                                              than the log" ~len)
        else begin
          (* "If the log manager thread is unable to execute, program
             threads may stall until there is free log space."  The log
             can only be full because commits are parked in [pending_q]
             or mid-retire (checked above): wait for the drainer daemon
             owning them, which clears [draining] only after the head
             advance, or retire them inline. *)
          let pool = tx.th.pool in
          pool.log_full_stalls <- pool.log_full_stalls + 1;
          let env = tx.th.view.Pmem.env in
          let t0 = env.Scm.Env.now () in
          await_drainer tx.th retire_owed;
          let dur = env.Scm.Env.now () - t0 in
          (* let the profiler split the stall out of the log phase *)
          tx.th.prof_stall_ns <- tx.th.prof_stall_ns + dur;
          Obs.complete pool.obs Obs.Trace.Log_stall ~ts:t0 ~dur
            ~arg:(Queue.length tx.th.pending_q);
          if retried > 1 then
            failwith
              (record_capacity_msg tx
                 ~context:"log full and nothing left to truncate" ~len);
          try_append (retried + 1)
        end
  in
  try_append 0

let finalize_heap_effects tx =
  match tx.th.pool.heap with
  | Some heap ->
      List.iter (fun resv -> Pmheap.Heap.finalize_small heap resv) tx.resvs;
      List.iter (fun addr -> Pmheap.Heap.free_commit_small heap addr)
        tx.freed_small;
      List.iter (fun addr -> Pmheap.Heap.pfree_raw heap addr) tx.large_frees
  | None -> ()

(* The smallest value this commit's timestamp must exceed when
   timestamps are leased: the version of every value read (this commit
   serializes after those writers), plus — for every lock about to
   publish a new version — the version being replaced and the watermark
   of every reader that validated against it.  The write locks are
   held, so both are frozen (a conflicting validator fails on the owner
   check before it could bump).  Deliberately NOT the begin-time
   snapshot [tx.rv]: rv tracks the global counter, which every refill
   inflates by a whole lease, so a floor of rv would invalidate the
   thread's lease on nearly every commit and re-serialize all threads
   on the shared counter.  Only what was actually read and what is
   actually held constrains the serialization order. *)
let cts_floor tx =
  let th = tx.th in
  let locks = th.pool.locks in
  let f = ref 0 in
  for i = 0 to th.nrset - 1 do
    let v = th.rset_ver.(i) in
    if v > !f then f := v
  done;
  for i = 0 to th.nwlocks - 1 do
    let idx = th.wlocks.(i) in
    let v = Lock_table.version locks idx in
    if v > !f then f := v;
    let r = Lock_table.rts locks idx in
    if r > !f then f := r
  done;
  !f

(* Draw the commit timestamp, then re-validate under it.  The draw can
   yield (always, for the shared bump; on lease refill otherwise): a
   transaction that validated in {!commit} can have its read set
   overwritten by a commit slipping into that window, yet still
   serialize *after* it at [cts] — re-validate under the fresh
   timestamp so cts order matches what was read (race found by
   bin/sched_explore; regression traces in test/schedules/).  With
   leased timestamps, additionally bump each read lock's watermark to
   [cts] in the same yield-free step as that validation: any later
   writer of those addresses must draw a larger cts, which is the
   anti-dependency ordering that keeps recovery's cts-sorted replay
   equal to the serialization order. *)
let draw_cts_validated tx =
  let th = tx.th in
  let pool = th.pool in
  let env = th.view.Pmem.env in
  let cts =
    if pool.cfg.ts_lease <= 1 then Timestamp.next pool.ts env
    else
      Timestamp.draw pool.ts env th.lease ~size:pool.cfg.ts_lease
        ~floor:(cts_floor tx)
  in
  if not (validate tx) then raise Abort_internal;
  (if pool.cfg.ts_lease > 1 then
     let locks = pool.locks in
     for i = 0 to th.nrset - 1 do
       Lock_table.bump_rts locks th.rset_idx.(i) cts
     done);
  cts

(* Each commit path returns its (log_write, fence, write_back)
   simulated-ns breakdown; {!commit} charges the remainder to the STM
   bookkeeping bucket so the four phases sum to the total exactly. *)
let commit_redo tx =
  let th = tx.th in
  let pool = th.pool in
  let env = th.view.Pmem.env in
  let cts = draw_cts_validated tx in
  if pool.txprof != None then prof_phase th Obs.Txprof.ph_validate;
  (* Ascending-address write order, encoded into the thread's reusable
     buffer: no per-commit lists, arrays, or boxed values. *)
  let n = sorted_addrs_of th tx.wset in
  let len = Redo_log.encoded_words ~nwrites:n in
  let enc = ensure_enc th len in
  Redo_log.encode_header_bytes enc ~ts:cts ~nwrites:n;
  for i = 0 to n - 1 do
    let addr = th.sorted.(i) in
    let slot = Wset.find_slot tx.wset addr in
    Bytes.set_int64_le enc (8 * ((2 * i) + 2)) (Int64.of_int addr);
    Wset.blit_value tx.wset slot enc (8 * ((2 * i) + 3))
  done;
  let t0 = env.Scm.Env.now () in
  (match pmchk th with
  | None -> ()
  | Some chk ->
      Scm.Pmcheck.commit_begin chk ~log:(th_log_base th) th.sorted n);
  let span = append_record tx enc ~len in
  let t1 = env.Scm.Env.now () in
  (if pool.txprof != None then begin
     (* log phase up to t1, minus any log-full stall drained inline,
        which is its own phase (truncation wait) *)
     let stall = th.prof_stall_ns in
     th.prof_stall_ns <- 0;
     th.prof_phases.(Obs.Txprof.ph_trunc_wait) <-
       th.prof_phases.(Obs.Txprof.ph_trunc_wait) + stall;
     th.prof_phases.(Obs.Txprof.ph_log) <-
       th.prof_phases.(Obs.Txprof.ph_log) + (t1 - th.prof_mark) - stall;
     th.prof_mark <- t1;
     th.prof_bytes <- th.prof_bytes + (8 * len)
   end);
  (* the durability point: one fence — shared with the other
     transactions retiring in the same drain window under group commit *)
  if pool.cfg.group_commit then gc_retire th else Pmlog.Rawl.flush th.log;
  (match pmchk th with
  | None -> ()
  | Some chk -> Scm.Pmcheck.commit_logged chk ~log:(th_log_base th));
  let t2 = env.Scm.Env.now () in
  if pool.txprof != None then prof_phase th Obs.Txprof.ph_fence;
  for i = 0 to n - 1 do
    (* the ascending write-back reads each value back out of the staged
       record, so the write set is probed once per write, not twice *)
    Pmem.store th.view th.sorted.(i)
      (Bytes.get_int64_le enc (8 * ((2 * i) + 3)))
  done;
  (if pool.cfg.truncation = Sync
      && not (pool.cfg.group_commit || pool.cfg.pipeline)
   then begin
     (* synchronous truncation retires the commit's own log record
        inline ([truncate_all] also owns torn-bit rotation): the causal
        flow ends here, not on a deferred retire *)
     flush_sorted_lines th.view th.sorted n;
     Pmlog.Rawl.truncate_all th.log;
     if th.cur_txid <> 0 then Obs.flow pool.obs ~phase:`End ~id:th.cur_txid
   end
   else begin
     (* Defer the retire.  Pipelined: the record is durable and the new
        values are in the cache, so the drainer takes the expensive
        tail — data-line flushing and log truncation — and the locks
        release right away; readers that acquire these lines before the
        write-back lands observe the committed values through the cache
        at version [cts], and a crash is covered because recovery
        replays the still unretired record.  Group commit: retire a
        whole batch at once, so the data-line flush dedupes lines hot
        across the batch and the head advances once per batch.  Async:
        the truncation daemon's work. *)
     race_q_push th;
     Queue.push
       { span; addrs = Array.sub th.sorted 0 n; txid = th.cur_txid }
       th.pending_q;
     if pool.cfg.pipeline then
       (match pool.drain_wake with Some wake -> wake th.id | None -> ())
     else if
       pool.cfg.truncation = Sync
       && Queue.length th.pending_q >= max 1 pool.cfg.gc_trunc_batch
     then ignore (retire ~charge:Log_read ~batch:max_int th.view [ th ])
   end);
  let t3 = env.Scm.Env.now () in
  if pool.txprof != None then prof_phase th Obs.Txprof.ph_write_back;
  release_locks tx ~committed:true ~version:cts;
  (match pmchk th with
  | None -> ()
  | Some chk -> Scm.Pmcheck.commit_end chk ~log:(th_log_base th));
  if pool.cfg.pipeline then pipe_backpressure th;
  (cts, t1 - t0, t2 - t1, t3 - t2)

let commit_undo tx =
  let th = tx.th in
  let pool = th.pool in
  let env = th.view.Pmem.env in
  (* same validate-before-cts window (and lease floor) as {!commit_redo} *)
  let cts = draw_cts_validated tx in
  if pool.txprof != None then prof_phase th Obs.Txprof.ph_validate;
  (* new values are already in place; make them durable, then the
     atomic log truncation is the commit point.  The per-store log
     appends were charged eagerly in {!store}, so log_write is 0. *)
  let t0 = env.Scm.Env.now () in
  let n = sorted_addrs_of th tx.old_vals in
  flush_sorted_lines th.view th.sorted n;
  let t1 = env.Scm.Env.now () in
  if pool.txprof != None then prof_phase th Obs.Txprof.ph_write_back;
  Pmlog.Rawl.truncate_all th.log;
  if th.cur_txid <> 0 then Obs.flow pool.obs ~phase:`End ~id:th.cur_txid;
  let t2 = env.Scm.Env.now () in
  if pool.txprof != None then prof_phase th Obs.Txprof.ph_fence;
  release_locks tx ~committed:true ~version:cts;
  (match pmchk th with
  | None -> ()
  | Some chk -> Scm.Pmcheck.commit_end chk ~log:(th_log_base th));
  (cts, 0, t2 - t1, t1 - t0)

(* The oracle's view of a committed transaction: first-read values, the
   write set with its final values, and the commit timestamp.  Only
   built when a history hook is installed, so the allocation is free on
   the default path.  Under eager undo the committed values live in
   memory; [load_nt] reads them back without charging simulated time,
   so no yield separates lock release from the record. *)
let history_record tx ~cts ~read_only =
  let th = tx.th in
  let reads =
    Array.init th.nreads (fun i -> (th.r_addrs.(i), th.r_vals.(i)))
  in
  let writes =
    if read_only then [||]
    else
      match th.pool.cfg.version_mgmt with
      | Lazy_redo ->
          Array.init (Wset.size tx.wset) (fun i ->
              let addr = Wset.key tx.wset i in
              (addr, Wset.get tx.wset addr))
      | Eager_undo ->
          Array.init (Wset.size tx.old_vals) (fun i ->
              let addr = Wset.key tx.old_vals i in
              (addr, Pmem.load_nt th.view addr))
  in
  History.Commit { History.tid = th.id; cts; read_only; reads; writes }

(* Close the ledger entry: the residual since the last mark is commit
   bookkeeping ("other"), so the phases partition [start, mark] exactly
   and the entry's phase sum equals its total. *)
let prof_record tx ~writes =
  match tx.th.pool.txprof with
  | None -> ()
  | Some tp ->
      let th = tx.th in
      prof_phase th Obs.Txprof.ph_other;
      Obs.Txprof.record tp ~txid:th.cur_txid ~tid:th.id
        ~start_ts:th.prof_start
        ~total_ns:(th.prof_mark - th.prof_start)
        ~retries:th.prof_retries ~bytes_logged:th.prof_bytes ~writes
        ~phases:th.prof_phases

let commit tx =
  let pool = tx.th.pool in
  let env = tx.th.view.Pmem.env in
  let t0 = env.Scm.Env.now () in
  if pool.txprof != None then prof_phase tx.th Obs.Txprof.ph_exec;
  delay tx (latency tx).txn_commit_ns;
  let read_only =
    match pool.cfg.version_mgmt with
    | Lazy_redo -> Wset.size tx.wset = 0
    | Eager_undo -> Wset.size tx.old_vals = 0
  in
  if read_only then begin
    (* With the shared counter, TL2's validation-free read-only commit
       is sound as-is: every writer that committed after this
       transaction began drew a timestamp above [rv], so the loads'
       version checks against [rv] already prove the snapshot.  Leased
       timestamps break that argument — a writer can commit *below*
       [rv] — so the read-only commit serializes TicToc-style at the
       newest version it read instead: revalidate the read set and
       reserve that position on each read lock in the same yield-free
       step, forcing later writers of those addresses above it. *)
    if pool.cfg.ts_lease > 1 && not (validate tx) then false
    else begin
      let cts =
        if pool.cfg.ts_lease <= 1 then tx.rv
        else begin
          let th = tx.th in
          let locks = pool.locks in
          let p = ref 0 in
          for i = 0 to th.nrset - 1 do
            if th.rset_ver.(i) > !p then p := th.rset_ver.(i)
          done;
          for i = 0 to th.nrset - 1 do
            Lock_table.bump_rts locks th.rset_idx.(i) !p
          done;
          !p
        end
      in
      pool.ro_commits <- pool.ro_commits + 1;
      (match pool.history with
      | None -> ()
      | Some emit ->
          (* a read-only commit orders directly after the writer whose
             cts it validated against *)
          emit (history_record tx ~cts ~read_only:true));
      prof_record tx ~writes:0;
      true
    end
  end
  else if not (validate tx) then false
  else begin
    let ws_size =
      match pool.cfg.version_mgmt with
      | Lazy_redo -> Wset.size tx.wset
      | Eager_undo -> Wset.size tx.old_vals
    in
    let cts, lw, fe, wb =
      match pool.cfg.version_mgmt with
      | Lazy_redo -> commit_redo tx
      | Eager_undo -> commit_undo tx
    in
    finalize_heap_effects tx;
    let total = env.Scm.Env.now () - t0 in
    Obs.Metrics.record pool.h_total total;
    Obs.Metrics.record pool.h_log_write lw;
    Obs.Metrics.record pool.h_fence fe;
    Obs.Metrics.record pool.h_write_back wb;
    Obs.Metrics.record pool.h_stm (max 0 (total - lw - fe - wb));
    Obs.complete pool.obs Obs.Trace.Txn_commit ~ts:t0 ~dur:total ~arg:ws_size;
    prof_record tx ~writes:ws_size;
    pool.commits <- pool.commits + 1;
    (match pool.history with
    | None -> ()
    | Some emit -> emit (history_record tx ~cts ~read_only:false));
    true
  end

(* Recycle the thread's tables: after [clear] the attempt starts from
   empty state without having allocated anything but this record. *)
let fresh_txn th =
  Wset.clear th.t_wset;
  Wset.clear th.t_old_vals;
  th.nwlocks <- 0;
  th.nrset <- 0;
  th.nreads <- 0;
  {
    th;
    rv = Timestamp.now th.pool.ts;
    wset = th.t_wset;
    old_vals = th.t_old_vals;
    resvs = [];
    freed_small = [];
    large_allocs = [];
    large_frees = [];
  }

let cancel (_ : t) = raise Cancelled

let thread_id (tx : t) = tx.th.id

(* Stamp transaction [txid] (0 = none) down the stack: the log and the
   access layer attribute appends — and the write-backs and drains they
   later cause — to it.  Plain int stores: no simulated time, no rng, no
   allocation, so the default schedule and sim figures are untouched.
   Also publish the matching contention-manager priority stamp, [max_int]
   when idle: assigned once per [run], not per attempt, so a transaction
   that keeps retrying keeps its (low, old) stamp and ages into
   priority. *)
let set_running th txid =
  th.cur_txid <- txid;
  th.view.Pmem.env.Scm.Env.cur_txid <- txid;
  Pmlog.Rawl.set_owner th.log txid;
  race_rel_stamp th.pool th.id;
  th.pool.cm_stamps.(th.id) <- (if txid = 0 then max_int else txid)

let run th f =
  match th.current with
  | Some tx -> f tx  (* flat nesting *)
  | None ->
      let pool = th.pool in
      let env = th.view.Pmem.env in
      Obs.set_tid pool.obs th.id;
      race_rmw pool "mtm.txid";
      pool.next_txid <- pool.next_txid + 1;
      set_running th pool.next_txid;
      (* [prof_stall_ns] accumulates in [append_record] whether or not a
         ledger is installed, so it must start clean unconditionally: a
         stale stall from an unprofiled transaction leaking into the
         first profiled one would land in its truncation-wait phase AND
         be subtracted from its log phase — double-counted against the
         phase-sum invariant (regression in test_obs.ml). *)
      th.prof_stall_ns <- 0;
      (if pool.txprof != None then begin
         Array.fill th.prof_phases 0 Obs.Txprof.nphases 0;
         let now = env.Scm.Env.now () in
         th.prof_start <- now;
         th.prof_mark <- now;
         th.prof_retries <- 0;
         th.prof_bytes <- 0
       end);
      let rec attempt n =
        if n > pool.cfg.max_attempts then begin
          pool.contention_failures <- pool.contention_failures + 1;
          set_running th 0;
          raise Contention
        end;
        th.view.Pmem.env.delay (th.view.Pmem.env.machine.latency.txn_begin_ns);
        Obs.instant pool.obs Obs.Trace.Txn_begin ~arg:n;
        let tx = fresh_txn th in
        th.current <- Some tx;
        let finish_abort () =
          th.current <- None;
          (if pool.txprof != None then begin
             (* the failed attempt's work was execution; rollback and
                the delay below are backoff *)
             prof_phase th Obs.Txprof.ph_exec;
             th.prof_retries <- th.prof_retries + 1
           end);
          rollback tx;
          Obs.instant pool.obs Obs.Trace.Txn_abort ~arg:n;
          (match pool.history with
          | None -> ()
          | Some emit -> emit (History.Abort { tid = th.id; attempt = n }));
          pool.retries <- pool.retries + 1;
          Obs.instant pool.obs Obs.Trace.Txn_retry ~arg:(n + 1);
          (* Randomized backoff before retrying.  The jitter draw is the
             one control-flow-relevant random number in the STM; routing
             it through the schedule (when one is recording) is what
             makes [sched_explore --replay] bit-exact across aborts —
             both policies draw from the same 4-way stream, so traces
             stay comparable across contention managers. *)
          let jitter =
            match pool.backoff_draw with
            | Some draw -> draw 4
            | None -> Random.State.int th.rng 4
          in
          let backoff =
            match pool.cfg.cm with
            | Cm_legacy -> 100 * n * (1 + jitter)
            | Cm_adaptive ->
                (* capped exponential, scaled by how contended the line
                   that killed this attempt has been: hot lines back off
                   harder and desynchronize, cold conflicts retry fast *)
                let hits = line_abort_count pool th.last_conflict_addr in
                let shift = min (n - 1 + min hits 3) 7 in
                min cm_backoff_cap_ns (50 * (1 lsl shift) * (1 + jitter))
          in
          pool.backoff_ns <- pool.backoff_ns + backoff;
          th.view.Pmem.env.delay backoff;
          if pool.txprof != None then prof_phase th Obs.Txprof.ph_backoff;
          attempt (n + 1)
        in
        match f tx with
        | result ->
            let committed =
              try commit tx with
              | Abort_internal -> false
              | Scm.Crashpoint.Simulated_crash _ as e ->
                  th.current <- None;
                  raise e
            in
            if committed then begin
              th.current <- None;
              set_running th 0;
              result
            end
            else finish_abort ()
        | exception Abort_internal -> finish_abort ()
        | exception (Scm.Crashpoint.Simulated_crash _ as e) ->
            (* The machine is dead mid-transaction: do NOT roll back —
               rollback touches persistent state through the crashed
               machine and must not run.  Recovery after reopen is what
               undoes (or completes) this transaction. *)
            th.current <- None;
            raise e
        | exception e ->
            th.current <- None;
            rollback tx;
            set_running th 0;
            raise e
      in
      attempt 1
