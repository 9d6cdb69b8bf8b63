(** The elastic core controller: closed-loop autoscaling (paper §3.4).

    One controller per TAS instance. On every slow-path scaling tick the
    caller gathers {!Policy.signals} (per-core idle, slow-path backlog,
    flow/arena/shard occupancy, optionally windowed p99 latency) and calls
    {!tick}; the configured {!Policy.spec} proposes a target core count,
    the controller clamps it to [[min_cores, max_cores]] and — only when
    the target differs from the current count — invokes the actuation
    callback (which drives [Fast_path.set_active_cores] → batched RSS
    rewrites with drain-in-place flow migration).

    Every decision is auditable: a bounded decision history (oldest
    dropped), [ctl_*] metrics, and a structured [Ctl_scale] trace event per
    actuation (core = new core count, flow = {!Policy.verdict_code}). *)

type t

val create :
  ?policy:Policy.spec ->
  ?trace:Tas_telemetry.Trace.t ->
  min_cores:int ->
  max_cores:int ->
  actuate:(int -> unit) ->
  unit ->
  t
(** [policy] defaults to {!Policy.paper_default}; [trace] to a disabled
    ring. The decision history keeps the last 256 decisions. [actuate n]
    is called only when a tick changes the core count, with [n] already
    clamped to [[min_cores, max_cores]].
    @raise Invalid_argument when [min_cores < 1] or [max_cores < min_cores]. *)

val set_p99_probe : t -> (unit -> float) -> unit
(** Wire a latency probe (windowed p99 in microseconds, negative = no
    samples this window). Substituted into any tick whose signals carry a
    negative [s_p99_us] — how the [Slo] policy sees application latency
    without the slow path depending on application metrics. *)

val tick : t -> Policy.signals -> Policy.decision
(** Run one closed-loop iteration; returns the recorded decision. *)

val policy : t -> Policy.spec
val min_cores : t -> int
val max_cores : t -> int

val target_cores : t -> int
(** The last actuated/held target (initially [min_cores], updated by every
    tick). *)

val ticks : t -> int
val scale_ups : t -> int
val scale_downs : t -> int
val denied_cooldown : t -> int
val held_confirm : t -> int

val decisions : t -> Policy.decision list
(** Bounded history, oldest first (at most 256). *)

val register : t -> Tas_telemetry.Metrics.t -> unit
(** Register [ctl_ticks] / [ctl_scale_ups] / [ctl_scale_downs] /
    [ctl_denied_cooldown] / [ctl_held_confirm] counters and the
    [ctl_target_cores] gauge. *)

val to_json : t -> Tas_telemetry.Json.t
(** Policy spec, counters, and the decision history — the audit record
    experiments attach to BENCH artifacts. *)
