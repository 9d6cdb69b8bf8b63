(** Per-flow recovery state: the configured policy plus the sender
    scoreboard and the episode/timer scalars shared by the SACK and
    RACK-TLP engines.

    This is a boxed companion of the flow's arena record (see
    {!Scoreboard}), created once at connection establishment. The [Reno]
    policy never touches it beyond carrying the kind — Reno's two scalars
    stay in the Table-3 record itself — so every Reno flow shares one
    state that nothing writes. *)

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
      (** timer generation, bumped by {!disarm}: a pending timer whose
          generation is older dissolves when it fires *)
  mutable tlp_timer : int -> unit;
  mutable reo_timer : int -> unit;
      (** the flow's timer events, made by the fast path at each timer's
          first arm ({!no_timer} until then) and posted with the
          generation of every later arm as their argument *)
  mutable tlp_core : int;
  mutable reo_core : int;
      (** index of the fast-path core the pending timer was armed on *)
  (* The last [Rack_tlp.on_ack] outcome. *)
  mutable newly_sacked : int;  (** segments first marked sacked *)
  mutable newly_lost : int;  (** segments first marked lost *)
  mutable rack_lost : int;
      (** the subset of [newly_lost] marked by RACK's time rule (0 under
          [Sack]) *)
  mutable entered : bool;  (** a new recovery episode began *)
  mutable exited : bool;  (** the previous episode completed *)
}

val no_timer : int -> unit
(** The timer fields' value before the fast path installs a timer. *)

val create : Policy.kind -> t
(** A fresh state; for [Reno], the one shared state (never written). *)

val disarm : t -> unit
(** Invalidate the pending tail-loss-probe and reordering timers: bump the
    generation, so their events dissolve when they fire, and mark both
    unarmed, so the next arm posts a fresh event. Cumulative progress,
    an RTO rewind and teardown all disarm. *)

val reset : t -> unit
(** RTO rewind: clear the scoreboard and the episode, and {!disarm}.
    Cumulative counters survive (they feed telemetry). *)

val to_json : t -> Tas_telemetry.Json.t
