(** Per-flow recovery state: the configured policy plus the sender
    scoreboard and the episode/timer scalars shared by the SACK and
    RACK-TLP engines.

    This is a boxed companion of the flow's arena record (see
    {!Scoreboard}), created once at connection establishment. The [Reno] policy never touches it beyond carrying the
    kind — Reno's two scalars stay in the Table-3 record itself. *)

type t = {
  kind : Policy.kind;
  sb : Scoreboard.t;
  mutable recovery_point : Tas_proto.Seq32.t;
      (** [snd_nxt] when the current episode began; the episode ends when
          the cumulative ACK reaches it *)
  mutable in_rec : bool;  (** inside a SACK/RACK recovery episode *)
  mutable rack_ts : int;
      (** transmit timestamp of the most recently delivered
          never-retransmitted segment (Karn-filtered); [-1] before any *)
  mutable reo_armed : bool;  (** a RACK reordering timer is pending *)
  mutable tlp_armed : bool;  (** a tail-loss-probe timer is pending *)
  mutable gen : int;
      (** timer generation: bumped on cumulative progress and on RTO
          reset, invalidating pending timers *)
}

val create : Policy.kind -> t

val bump_gen : t -> unit

val reset : t -> unit
(** RTO rewind: clear the scoreboard and the episode, invalidate timers.
    Cumulative counters survive (they feed telemetry). *)

val to_json : t -> Tas_telemetry.Json.t
