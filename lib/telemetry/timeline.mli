(** Sim-clock-driven flight recorder: time-resolved telemetry frames.

    End-of-run snapshots ({!Metrics.snapshot}) answer "how much, in total";
    the timeline answers "when". Every [interval_ns] of simulated time a
    {e frame} is captured into a bounded ring: the per-interval {e delta} of
    every registered counter, the current value of every gauge, per-core
    busy/idle utilization over exactly that interval (from
    {!Tas_cpu.Core.enable_util_buckets}-style per-interval accounting,
    probed through closures so this module stays below the cpu/core
    layers), per-shard flow occupancy, and flow-arena occupancy. When the
    ring is full the oldest frame is evicted and counted — recording never
    grows without bound and never perturbs the simulation.

    Determinism: frames hold only sim-time data, counters are emitted in
    the sorted (name, labels) order of {!Metrics.snapshot}, and probe
    registration order is construction order — two same-seed runs produce
    byte-identical timeline JSON, and {!merge} makes a parallel batch's
    timelines identical to the serial run's. *)

type labels = (string * string) list

type core_sample = {
  c_role : string;  (** "fp" | "sp" | app role, as registered *)
  c_id : int;
  c_busy_ns : int;  (** busy ns inside the sampled interval *)
  c_util : float;   (** [c_busy_ns / interval_ns], in [0, 1] *)
  c_backlog_ns : int;  (** queue depth behind the core at frame time *)
}

type frame = {
  seq : int;  (** capture sequence number (survives ring eviction) *)
  ts : int;   (** sim time at capture — the interval [[ts - interval, ts)] *)
  counters : (string * labels * int) list;
      (** per-interval deltas, sorted by (name, labels); zero deltas kept so
          every frame has the same series — consumers index, not search *)
  gauges : (string * labels * float) list;  (** current values, sorted *)
  cores : core_sample list;  (** in probe registration order *)
  shard_flows : int array;  (** per-shard live flows, [] when unprobed *)
  arena : (int * int) option;  (** (live, capacity) when an arena is probed *)
}

type t

val create : interval_ns:int -> capacity:int -> metrics:Metrics.t -> unit -> t
(** A recorder sampling [metrics] every [interval_ns]; the ring holds the
    last [capacity] frames.
    @raise Invalid_argument when [interval_ns <= 0] or [capacity <= 0]. *)

val interval_ns : t -> int
val capacity : t -> int

val add_core :
  t -> role:string -> id:int -> busy_in:(int -> int) -> backlog:(unit -> int) -> unit
(** Register a core probe: [busy_in bucket] returns busy ns inside interval
    [bucket] (see {!Tas_cpu.Core.util_busy_ns}), [backlog ()] the current
    backlog. Sampled in registration order. *)

val set_shard_probe : t -> (unit -> int array) -> unit
val set_arena_probe : t -> (unit -> (int * int) option) -> unit

val capture : t -> ts:int -> unit
(** Record the frame for the interval ending at [ts] (so core utilization
    reads bucket [(ts - 1) / interval_ns]). Call from a sim-periodic
    event. *)

val frames : t -> frame list
(** Buffered frames, oldest first (non-consuming). *)

val length : t -> int
val captured : t -> int
(** Total frames ever captured (buffered + evicted). *)

val evicted : t -> int
(** Frames dropped off the old end of the full ring. *)

val merge : frame list list -> frame list
(** Merge per-instance frame streams into one timestamp-ordered stream.
    Stable like {!Trace.merge}: equal-[ts] frames order by their stream's
    position in the argument, so a parallel batch merged in submission
    order is byte-identical to the serial run. *)

(** {2 Export / import} *)

val frame_to_json : frame -> Json.t

val to_json : t -> Json.t
(** [{"interval_ns", "capacity", "captured", "evicted", "frames": [...]}] —
    deterministic, the shape stored in [TIMELINE_<id>.json] artifacts. *)

val frames_of_json : Json.t -> frame list
(** Parse frames back from {!to_json} output (or its ["frames"] list) —
    the CLI reads artifacts with this.
    @raise Json.Parse_error on a shape mismatch. *)
