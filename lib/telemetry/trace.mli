(** Bounded structured trace-event ring.

    A flight recorder for the simulated stack: every interesting data-path or
    control-path step can log a fixed-shape event (sim timestamp, event kind,
    core id, flow id). Events are stored unboxed in an {!Event_ring}; when
    it is full, new events are dropped and counted rather than blocking or
    growing — tracing must never perturb the simulation.

    Cost when disabled: {!record} tests one immutable boolean and returns.
    When enabled and warm it allocates nothing; {!drain} builds the
    {!event} records. *)

type kind =
  | Rx_data         (** fast path received a data segment *)
  | Rx_ack          (** fast path received a pure ACK *)
  | Tx_data         (** fast path transmitted a data segment *)
  | Ack_tx          (** fast path generated an ACK *)
  | Ooo_store       (** out-of-order segment buffered *)
  | Payload_drop    (** receive payload dropped (window/ooo limits) *)
  | Fast_rexmit     (** triple-duplicate-ACK fast retransmit *)
  | Timeout_rexmit  (** slow-path timeout retransmit *)
  | Conn_setup      (** slow path established a connection *)
  | Conn_teardown   (** slow path removed a connection *)
  | Exception_fwd   (** fast path forwarded a packet to the slow path *)
  | Core_scale      (** workload-proportionality changed the core count *)
  | Fault_drop      (** fault stage dropped a packet (loss/blackout) *)
  | Fault_dup       (** fault stage delivered a duplicate copy *)
  | Fault_corrupt   (** fault stage damaged a payload or header *)
  | Fault_hold      (** fault stage held a packet back for reordering *)
  | Malformed_drop  (** fast path dropped a length-inconsistent packet *)
  | Csum_drop       (** NIC dropped a checksum-failing frame *)
  | Rst_tx          (** slow path generated an RST *)
  | Shard_migrate   (** RSS rewrite moved a flow group between shards *)
  | Ctl_scale       (** elastic controller actuated a core-count change
                        ([core] = new count, [flow] = verdict code) *)
  | Health_rexmit_storm    (** watchdog: retransmit burst above threshold *)
  | Health_arena_pressure  (** watchdog: flow arena near exhaustion *)
  | Health_shard_imbalance (** watchdog: shard occupancy skew above bound *)
  | Health_backlog_growth  (** watchdog: slow-path backlog growing frames in a row *)
  | Health_ring_drops      (** watchdog: trace/span ring dropped events *)
  | Health_core_flap       (** watchdog: active-core count oscillating *)
  | Rec_enter       (** SACK/RACK recovery episode began *)
  | Rec_exit        (** recovery episode completed (cum. ACK past point) *)
  | Rec_mark_lost   (** scoreboard marked one or more segments lost *)
  | Rec_retransmit  (** selective retransmission of a lost segment *)
  | Rec_tlp_probe   (** tail-loss probe fired *)
  | Rec_reo_timeout (** RACK reordering timer fired and marked losses *)

val kind_name : kind -> string
val all_kinds : kind list

type event = {
  ts : Tas_engine.Time_ns.t;
  kind : kind;
  core : int;  (** simulated core id, -1 when not core-attributed *)
  flow : int;  (** application-opaque flow id, -1 when not flow-attributed *)
}

type t

val create : capacity:int -> unit -> t
(** An enabled ring of [capacity] events (at least 1). *)

val disabled : unit -> t
(** A permanently-off ring (capacity 1); the default wired into components
    when no tracing is requested. *)

val enabled : t -> bool
val length : t -> int

val record : t -> ts:Tas_engine.Time_ns.t -> kind:kind -> core:int -> flow:int -> unit
(** O(1); a single boolean test when disabled; drops (and counts) when the
    ring is full. *)

val dropped : t -> int
(** Events discarded because the ring was full. *)

val recorded : t -> int
(** Events offered while enabled (accepted + dropped). *)

val drain : t -> event list
(** Pop all buffered events in record order (consuming). *)

val merge : event list list -> event list
(** Merge several drained streams into one timestamp-ordered stream.
    Deterministic: the sort is stable, so events of one stream keep their
    record order and equal-timestamp events across streams order by their
    stream's position in the argument. *)

val counts_by_kind : event list -> (kind * int) list
(** Histogram of event kinds, in declaration order, zero entries omitted. *)
