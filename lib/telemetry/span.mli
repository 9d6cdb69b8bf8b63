(** Causal span tracing: per-packet latency decomposition across the stack.

    A span follows one sampled packet from its origin (a libTAS send or a
    NIC receive) through every crossing point of the simulated stack —
    context queues, fast-path TX, NIC, switch/port queues, fast-path RX,
    context queue, application — as a sequence of timestamped hop events
    sharing a trace id. Adjacent hop deltas decompose the packet's
    end-to-end latency into per-stage queueing and processing components,
    the span-level analogue of the paper's per-module cycle tables
    (Tables 1–3).

    Sampling is deterministic: every [sample_every]-th origin attempt
    starts a span (counter-based, no RNG), so two same-seed simulation runs
    produce byte-identical span streams. Hops are stored unboxed in a
    bounded {!Event_ring}; when full, events are dropped and counted, never
    blocking or growing.

    Cost when disabled: {!record} tests one boolean (and callers typically
    guard on a packet's span id, [-1] when unsampled — a single integer
    test on the hot path). When enabled and warm, {!start} and {!record}
    allocate nothing; {!drain} builds the {!event} records. *)

(** Crossing points, in path order for a libTAS-originated packet. *)
type hop =
  | App_send  (** libTAS accepted payload from the application *)
  | Fp_tx  (** fast path segmented and committed the packet for TX *)
  | Nic_tx  (** NIC handed the packet to its egress port *)
  | Port_q  (** packet entered a link's egress queue *)
  | Port_out  (** packet finished serialization and left the queue *)
  | Switch_fwd  (** switch made its forwarding decision *)
  | Nic_rx  (** destination NIC delivered the packet to the host *)
  | Fp_rx  (** fast-path core processed the packet *)
  | Ctx_notify  (** readable notification posted to a context queue *)
  | App_deliver  (** application consumed the payload *)

val hop_name : hop -> string
val all_hops : hop list

type event = {
  ts : Tas_engine.Time_ns.t;
  id : int;  (** span (trace) id, unique per collector *)
  hop : hop;
  core : int;  (** simulated core id, -1 when not core-attributed *)
  flow : int;  (** application-opaque flow id, -1 when unknown *)
}

type t

val create : ?enabled:bool -> ?sample_every:int -> capacity:int -> unit -> t
(** [sample_every] (default 1) samples every n-th origin attempt. *)

val disabled : unit -> t
(** A permanently-off collector (capacity 1); the default wired into
    components when span tracing is not requested. *)

val enabled : t -> bool
val length : t -> int

val start :
  t -> ts:Tas_engine.Time_ns.t -> hop:hop -> core:int -> flow:int -> int
(** Origin attempt: returns a fresh span id (recording [hop] as the span's
    first event) when this attempt is sampled, and -1 otherwise. Always -1
    when disabled. *)

val record :
  t -> ts:Tas_engine.Time_ns.t -> id:int -> hop:hop -> core:int -> flow:int -> unit
(** Append a hop to span [id]; no-op when disabled or [id < 0]. Drops (and
    counts) when the ring is full. *)

val offered : t -> int
(** Origin attempts seen while enabled (sampled or not). *)

val started : t -> int
(** Spans begun (= sampled origins). *)

val recorded : t -> int
(** Hop events offered to the ring (accepted + dropped). *)

val dropped : t -> int
(** Hop events discarded because the ring was full. *)

val drain : t -> event list
(** Pop all buffered events in record order (consuming). *)

(** {2 Analysis} *)

val group : event list -> (int * event list) list
(** Events grouped by span id (ascending); within a span, by timestamp
    (stable, so record order breaks ties). *)

type segment = {
  seg_from : hop;
  seg_to : hop;
  seg_hist : Tas_engine.Stats.Hist.t;  (** per-hop latency, nanoseconds *)
}

type breakdown = {
  segments : segment list;
      (** adjacent-hop latency histograms, ordered by path position *)
  end_to_end : Tas_engine.Stats.Hist.t;
      (** first-hop → last-hop latency per span (ns), spans with ≥ 2 events *)
  spans : int;  (** distinct span ids in the input *)
  complete : int;  (** spans covering App_send → App_deliver *)
}

val breakdown : event list -> breakdown
(** Per-span segment durations sum exactly to that span's end-to-end
    latency, so segment histogram totals decompose the end-to-end
    histogram total (within histogram quantization). *)
