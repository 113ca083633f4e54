(** Execution environment: the handle through which one simulated thread
    touches storage-class memory.

    An environment bundles the shared machine state (device, cache,
    latency model) with per-thread state (write-combining buffer, a
    simulated clock).  In standalone use the clock is a plain counter;
    under the discrete-event simulator each thread's [delay] yields to
    the scheduler, so contention interleavings happen at memory
    operations — where they happen on real hardware. *)

type machine = {
  dev : Scm_device.t;
  cache : Cache.t;
  latency : Latency_model.t;
  crash_rng : Random.State.t;
      (** Randomness for crash injection and cache eviction decisions,
          seeded for reproducibility. *)
  obs : Obs.t;
      (** This machine's observability handle: a metrics registry plus
          an optional event trace.  Instrumentation throughout the
          stack reaches it through the environment, so a disabled
          trace costs one branch per hook. *)
  crash_point : Crashpoint.t;
      (** Persistence-operation counter shared by the cache, every WC
          buffer, and the fence path.  Disarmed it only counts; armed
          (the crash-schedule explorer) it turns one exact operation
          index into a {!Crashpoint.Simulated_crash}. *)
  mutable pmcheck : Pmcheck.t option;
      (** Optional durability sanitizer (see {!Pmcheck}).  [None] — the
          default — keeps every hook site a single branch, so simulated
          time, allocation budgets, and crash-point indices are exactly
          those of a build without the sanitizer. *)
  mutable wc_buffers : Wc_buffer.t list;
      (** Every live write-combining buffer; crash injection must see
          them all. *)
  mutable media_busy_until : int;
      (** The single memory controller's occupancy horizon: PCM media
          writes from different threads serialize here, so a background
          flusher genuinely steals bandwidth from the foreground thread
          (the effect behind paper figure 6's low-idle slowdown). *)
  flush_ctr : Obs.Metrics.counter;
      (** [scm.flushes], resolved once at machine creation so the flush
          path does not look counters up by name per call. *)
  fence_ctr : Obs.Metrics.counter;  (** [scm.fences], likewise. *)
  pcm_occ : int;
      (** [latency.pcm_write_ns / media_banks], precomputed once: the
          per-dirty-line flush path charges this serialized share on
          every write-back. *)
}

type t = {
  machine : machine;
  wc : Wc_buffer.t;
  delay : int -> unit;   (** Charge simulated nanoseconds. *)
  now : unit -> int;     (** Current simulated time. *)
  mutable cur_txid : int;
      (** The transaction currently running on this thread (0 = none),
          stamped by the STM layer so the access layer can attribute
          stores — and the deferred write-backs and drains they cause —
          to their owning transaction.  Per-thread, hence race-free
          under any simulated interleaving; maintaining it is plain int
          stores, never simulated time. *)
}

val make_machine :
  ?latency:Latency_model.t ->
  ?cache_capacity_lines:int ->
  ?seed:int ->
  ?obs:Obs.t ->
  ?crash_point:Crashpoint.t ->
  nframes:int ->
  unit ->
  machine
(** {!machine_of_device} over a fresh zeroed device of [nframes] 4-KiB
    frames. *)

val machine_of_device :
  ?latency:Latency_model.t ->
  ?cache_capacity_lines:int ->
  ?seed:int ->
  ?obs:Obs.t ->
  ?crash_point:Crashpoint.t ->
  Scm_device.t ->
  machine
(** Wrap a device (e.g. one reloaded from a crash image) in fresh
    volatile machine state: cache, write-combining buffers, counters.
    [obs] defaults to a fresh handle with tracing disabled;
    [crash_point] to a fresh disarmed counter. *)

val standalone : machine -> t
(** An environment with its own private clock starting at 0. *)

val view : machine -> delay:(int -> unit) -> now:(unit -> int) -> t
(** A per-thread view with caller-supplied time accounting (the DES
    integration point). *)

val install_pmcheck : ?lint_fences:bool -> machine -> Pmcheck.t
(** Create a {!Pmcheck} sanitizer and attach it to the machine, its
    cache, and every current and future write-combining buffer.
    Install before running the workload; costs no simulated time. *)

val detach_pmcheck : machine -> unit
(** Detach the sanitizer everywhere without discarding its accumulated
    violations.  {!Crash.inject} calls this before applying crash
    residue policies, which must not be attributed to the program. *)

val elapsed_ns : t -> int
(** Shorthand for [t.now ()]. *)
