(** Interval-based congestion control — the TAS slow-path control loop
    (paper §3.2).

    The fast path gathers per-flow feedback counters ([cnt_ackb], [cnt_ecnb],
    [cnt_frexmits], [rtt_est]); every control interval (2 RTTs by default)
    the slow path runs one iteration of the algorithm and installs a new
    rate (or window) in fast-path state. *)

type feedback = {
  mutable acked_bytes : int;
  mutable ecn_bytes : int;
  mutable fast_retransmits : int;
  mutable timeouts : int;
  mutable rtt_ns : int;  (** fast-path RTT estimate; 0 when unknown *)
  mutable interval_ns : int;  (** elapsed time this iteration covers *)
}
(** Mutable so that the slow path refills one record per iteration instead
    of allocating one. *)

type algorithm =
  | Fixed_rate
      (** Hold the initial rate regardless of feedback — for experiments
          isolating loss-recovery efficiency from congestion control. *)
  | Dctcp_rate of { step_bps : float }
      (** The paper's deliberate default: DCTCP's control law applied to
          rates. Slow start doubles the rate each interval; additive
          increase adds [step_bps] (10 Mbps default); decrease is
          proportional to the EWMA-marked fraction; the rate is capped at
          1.2× the measured achieved rate to stop unbounded growth in the
          absence of congestion. *)
  | Timely of { t_low_ns : int; t_high_ns : int; addstep_bps : float }
      (** RTT-gradient control (TIMELY), adapted with slow start. *)
  | Window_dctcp of { mss : int }
      (** Window-based DCTCP enforced by the fast path (TAS supports both
          rate and window enforcement). *)

(** What the fast path should enforce. *)
type control = Rate_bps of float | Window_bytes of int

type t
(** The controller's state lives in place: the rate and the DCTCP/TIMELY
    [alpha] in flat float cells, the window in an int field, so an
    iteration allocates nothing. *)

val create : algorithm -> initial:control -> t

val update : t -> feedback -> unit
(** One control-loop iteration: updates the rate or window in place.
    Allocates nothing. *)

val current : t -> control
(** The rate or window to enforce, as a fresh value (cold readers; the
    slow path installs it with {!load_rate} / {!window} instead). *)

val is_rate : t -> bool
(** Whether the controller sets a rate (otherwise a window). Fixed at
    {!create} by the initial control. *)

val window : t -> int
(** The window to enforce, bytes. Meaningless when {!is_rate}. *)

val load_rate : t -> floatarray -> int -> unit
(** [load_rate t cells i] stores the rate to enforce, bits per second, in
    [cells.(i)] without boxing it. Meaningless unless {!is_rate}. *)
