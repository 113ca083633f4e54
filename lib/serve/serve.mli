(** A multi-tenant KV serving front-end over {!Apps.Tc_store}.

    This is the harness that turns the benchmark kernel into a {e
    served} system (ROADMAP item 1): per-tenant open-loop arrival
    processes ({!Sim.Arrival}) feed per-tenant request queues; a pool
    of worker processes — each a bound STM thread slot on the pipelined
    commit path — pulls round-robin across tenants and runs each
    request as one durable transaction against that tenant's own
    persistent B+ tree (pstatic root ["serve.tenant.NN"]).

    The point of the module is the {!Admission} policy wired through
    it: per-tenant queue caps shed at arrival, a RAWL-occupancy gate
    sheds at dispatch before a transaction can wedge in the log-full
    append path, and a drainer boost wakes the write-back daemons while
    pressure is still building.  A shed request gets a typed rejection
    and leaves zero persistent side effects.  With the policy disabled
    ({!Admission.legacy}) the same harness reproduces the unbounded
    stall regime, so the two configurations measure the fix against the
    bug (bench section [serve_bench], baseline BENCH_serve.json).

    Latency is measured arrival-to-completion (queueing included) into
    {!Obs.Metrics} histograms — ["serve.latency_ns"] aggregate plus one
    per tenant — which is what makes the stall regime visible as a
    p999 blowup rather than a throughput footnote. *)

(** The admission/backpressure policy; see [admission.mli]. *)
module Admission : module type of Admission

type config = {
  tenants : int;
  workers : int;  (** STM thread slots; also the worker process count. *)
  users : int;  (** Key-space population per tenant (Zipf-ranked). *)
  duration_ns : int;  (** Open-loop arrival horizon (completions may
                          run past it while the backlog drains). *)
  arrival : Sim.Arrival.kind;  (** Per-tenant arrival process. *)
  admission : Admission.config;
  value_bytes : int;
  get_pct : int;  (** Percentage of requests that are point reads. *)
  theta : float;  (** Zipf skew of the key popularity. *)
  seed : int;
  request_ns : int;  (** Front-end parse/dispatch cost per request. *)
  log_cap_words : int;  (** Per-worker RAWL capacity — the pressured
                            resource. *)
  workers_per_drainer : int;  (** Drainer-daemon sharding factor. *)
  drain_period_ns : int;
      (** 0 = drainers sweep as soon as woken.  Positive = each sweep
          waits this long first, modeling the paper's scarce log
          manager CPU — the regime where the RAWL actually fills. *)
  slo_ns : int;  (** Latency objective a completion must meet to count
                     as goodput. *)
}

val default_config : config

type stats = {
  offered : int;  (** Requests the arrival processes generated. *)
  completed : int;
  slo_ok : int;  (** Completions within [slo_ns] of arrival. *)
  shed_queue : int;  (** Rejected at enqueue (queue cap). *)
  shed_log : int;  (** Rejected at dispatch (log occupancy). *)
  max_queue_depth : int;
  drain_boosts : int;  (** Dispatches that pre-woke their drainer. *)
  log_full_stalls : int;  (** Producers that still wedged inline. *)
  aborts : int;
  contention : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;  (** Arrival-to-completion, queueing included. *)
  goodput_per_s : float;  (** Within-SLO completions per simulated
                              second of the offered arrival horizon
                              ([duration_ns]), so two configurations
                              offered the same load compare directly
                              whatever backlog each leaves to drain.
                              Late answers are not goodput, which is
                              what lets an unbounded-stall config
                              "complete" everything yet still
                              collapse. *)
  shed_rate : float;  (** Shed fraction of offered load. *)
  window_ns : int;  (** Simulated span measured over (arrival horizon
                        plus backlog drain). *)
  tenant_completed : int array;
  tenant_p99_us : float array;
}

val tenant_root : int -> string
(** The pstatic name rooting tenant [t]'s B+ tree, ["serve.tenant.NN"]
    — the per-tenant region layout contract shared with
    [regionctl stats]. *)

val tenant_root_prefix : string
(** ["serve.tenant."], for offline discovery of tenant roots. *)

val run :
  ?sim:Sim.t -> ?geometry:Mnemosyne.geometry -> dir:string -> config -> stats
(** Build the instance in [dir], serve the configured open-loop load to
    completion (offered = completed + shed, always — every admitted
    request is drained even past the arrival horizon) and return the
    tally.  Deterministic given [config] and the simulator's schedule.
    The instance is closed before returning, so [dir] can be inspected
    offline ([regionctl stats] reports per-tenant occupancy from the
    ["serve.tenant.NN"] roots). *)
