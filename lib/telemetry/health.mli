(** Rule-based health watchdog over timeline frames.

    Runs a fixed set of rules across a {!Timeline.frame} stream and reports
    every violation with the frame it fired on. Pure over its input —
    deterministic given the same frames — and optionally mirrors each
    violation into a {!Trace.t} as a structured [Health_*] event so
    watchdog findings interleave with data-path events in trace dumps.

    The rules, with their default thresholds:
    - {b Retransmit storm}: fast + slow path retransmits in one frame
      ≥ [retransmit_burst] (8).
    - {b Arena pressure}: flow-arena occupancy ≥ [arena_occupancy] (0.9)
      of capacity.
    - {b Shard imbalance}: max/mean per-shard flows ≥ [shard_imbalance]
      (3.0) while at least [shard_min_flows] (16) flows are live — small
      populations are inherently lumpy.
    - {b Backlog growth}: slow-path core backlog strictly grows over
      [backlog_frames] (3) consecutive frames ending ≥ [backlog_min_ns]
      (1 ms) — the precursor of slow-path convoy collapse.
    - {b Ring drops}: trace/span rings dropped ≥ [ring_drops] (1) events
      in a frame — the flight recorder itself is losing data.
    - {b Core flap}: the summed [fp_active_cores] gauge reversed direction
      ≥ [flap_changes] (3) times within a trailing window of
      [flap_window] (16) frames — the elastic controller is oscillating
      instead of converging. Monotonic ramps never fire; each oscillation
      episode fires once (the window restarts after a violation). *)

type rule =
  | Rexmit_storm
  | Arena_pressure
  | Shard_imbalance
  | Backlog_growth
  | Ring_drops
  | Core_flap

val rule_name : rule -> string
val all_rules : rule list

type thresholds = {
  retransmit_burst : int;
  arena_occupancy : float;
  shard_imbalance : float;
  shard_min_flows : int;
  backlog_frames : int;
  backlog_min_ns : int;
  ring_drops : int;
  flap_window : int;
  flap_changes : int;
}

val default_thresholds : thresholds

val frame_ns : int
(** 1 ms: the timeline frame interval the default thresholds are written
    for — bursts and drops are counted per frame. Every experiment that
    runs the watchdog records its timelines at this interval. *)

type violation = {
  v_rule : rule;
  v_seq : int;  (** frame sequence number the rule fired on *)
  v_ts : int;   (** frame timestamp *)
  v_value : float;  (** observed value (burst size, occupancy, ratio…) *)
  v_limit : float;  (** the threshold it crossed *)
  v_detail : string;  (** human-readable one-liner *)
}

type report = {
  frames : int;  (** frames examined *)
  violations : violation list;  (** in frame order, then rule order *)
  by_rule : (rule * int) list;  (** firing counts, zero entries omitted *)
  passed : bool;  (** no violations *)
}

val check : ?thresholds:thresholds -> ?trace:Trace.t -> Timeline.frame list -> report
(** Evaluate every rule on every frame (in order). When [trace] is given,
    each violation records a [Health_*] event at the frame's timestamp
    (core -1, flow -1). *)

val report_to_json : report -> Json.t
