(** Per-flow fast-path state — the 102-byte record of paper Table 3.

    The record lives in a 102-byte slot of a {!Flow_arena} — off-heap,
    fixed field offsets, free-list reuse. Every getter/setter below
    reads/writes the slot directly, so a flow's scalar state costs exactly
    [state_bytes] bytes and is invisible to the GC.

    On {!release} the record moves out of the shared arena into a private
    copy and the slot returns to the free list, so handles retained past
    teardown (sockets, queued context events, pacing or TLP timers) keep
    reading and writing their own final state and can never observe a
    recycled slot. The payload rings go back to the slow path's ring pool,
    replaced by {!Tas_buffers.Ring_buffer.closed}.

    Companion structures that are pointers in the paper's record (payload
    rings, the out-of-order interval, the rate bucket) remain OCaml values
    owned by the handle; their positions are mirrored into the slot's
    shadow fields by {!sync_shadow} at snapshot time. *)

type t

exception Arena_exhausted
(** Raised by {!create} when the arena free list is empty. Callers check
    {!Flow_arena.available} (or catch this) and refuse the connection —
    there is no silent heap fallback. *)

val create :
  arena:Flow_arena.t ->
  pool:Tas_buffers.Ring_buffer.Pool.t ->
  ?recovery:Tas_recovery.Policy.kind ->
  ?ooo_ranges:int ->
  opaque:int ->
  context:int ->
  bucket:Rate_bucket.t ->
  rx_buf_size:int ->
  tx_buf_size:int ->
  local_port:Tas_proto.Addr.port ->
  peer_ip:Tas_proto.Addr.ipv4 ->
  peer_port:Tas_proto.Addr.port ->
  peer_mac:Tas_proto.Addr.mac ->
  tx_iss:Tas_proto.Seq32.t ->
  rx_next:Tas_proto.Seq32.t ->
  window:int ->
  peer_wscale:int ->
  unit ->
  t
(** [tx_iss] is the sequence number of the first data byte to send (stream
    offset 0 of [tx_buf]); [rx_next] the first expected data byte. The
    record occupies a slot of [arena]. The two payload rings are taken from [pool], fresh only when it has
    none of that capacity.
    [?recovery] selects the loss-recovery policy (default [Reno], the
    paper's go-back-N); [?ooo_ranges] sizes the receiver's out-of-order
    interval set (default 1, the paper's single interval; 0 is the
    go-back-N receiver). *)

val release :
  sim:Tas_engine.Sim.t -> pool:Tas_buffers.Ring_buffer.Pool.t -> t -> unit
(** Teardown:
    - both payload rings are given to [pool], and
      {!rx_buf} and {!tx_buf} read {!Tas_buffers.Ring_buffer.closed} from
      then on: [used = free = 0], so a stale handle (a late pacing timer, a
      queued context event, a socket's [tx_free]) transmits, delivers and
      accepts nothing, and never reaches a ring a newer flow now owns;
    - the record is copied into a private one-slot arena
      ({!Flow_arena.detach}) and the shared slot is freed. The handle
      keeps reading and writing that copy; a flow later allocated into
      the same slot never sees those writes;
    - a pending tail-loss probe or RACK reordering timer is cancelled on
      [sim] ({!Tas_recovery.State.disarm}), so a flow torn down with data
      in flight stops probing.

    A second [release] is harmless: the closed rings are never pooled and
    the private copy is never freed. *)

val absent : t
(** The handle a flow-table miss returns ({!Flow_table.find}):
    never installed, with closed rings and a private one-slot arena, so it
    is only ever compared with [==]. *)

val slot : t -> int option
(** Arena slot index while live; [None] after {!release}. *)

(** {2 Table-3 fields} *)

val opaque : t -> int
(** Application-defined flow identifier, relayed verbatim. *)

val local_port : t -> Tas_proto.Addr.port
val peer_ip : t -> Tas_proto.Addr.ipv4
val peer_port : t -> Tas_proto.Addr.port

val peer_mac : t -> Tas_proto.Addr.mac
(** For segmentation without ARP lookups. *)

val peer_wscale : t -> int
(** Negotiated peer window-scale shift. *)

val context : t -> int
(** RX/TX context queue number. *)

val set_context : t -> int -> unit

val seq : t -> Tas_proto.Seq32.t
(** Next local sequence number to send. *)

val set_seq : t -> Tas_proto.Seq32.t -> unit

val ack : t -> Tas_proto.Seq32.t
(** Next expected peer sequence number. *)

val set_ack : t -> Tas_proto.Seq32.t -> unit

val tx_sent : t -> int
(** Sent-but-unacked bytes from the tx tail. *)

val set_tx_sent : t -> int -> unit

val window : t -> int
(** Remote TCP receive window (already scaled). *)

val set_window : t -> int -> unit
val dupack_cnt : t -> int
val set_dupack_cnt : t -> int -> unit

val in_recovery : t -> bool
(** Fast recovery triggered; further duplicate ACKs are ignored until
    snd_una advances. *)

val set_in_recovery : t -> bool -> unit

val cnt_ackb : t -> int
(** Acked bytes since last slow-path collection. *)

val set_cnt_ackb : t -> int -> unit

val cnt_ecnb : t -> int
(** ECN-marked acked bytes since collection. *)

val set_cnt_ecnb : t -> int -> unit

val cnt_frexmits : t -> int
(** Fast retransmits since collection. *)

val set_cnt_frexmits : t -> int -> unit

val rtt_est : t -> int
(** EWMA RTT estimate, ns. *)

val set_rtt_est : t -> int -> unit

(** {2 Implementation bookkeeping outside the paper's table} *)

val ts_recent : t -> int
(** Peer timestamp to echo. *)

val set_ts_recent : t -> int -> unit

val rx_notified : t -> bool
(** A Readable event is pending in the context queue. *)

val set_rx_notified : t -> bool -> unit
val tx_notified : t -> bool
val set_tx_notified : t -> bool -> unit

val tx_interest : t -> bool
(** The application wants a Writable notification (EPOLLOUT armed). *)

val set_tx_interest : t -> bool -> unit

val tx_timer_armed : t -> bool
(** A paced transmit event is scheduled. *)

val set_tx_timer_armed : t -> bool -> unit
val fin_received : t -> bool
val set_fin_received : t -> bool -> unit
val fin_sent : t -> bool
val set_fin_sent : t -> bool -> unit

val tx_span : t -> int
(** Pending latency-span id carried from the app's send across the
    coalesced context-queue boundary to the next data transmit; [-1] when
    none. *)

val set_tx_span : t -> int -> unit

val rx_span : t -> int
(** Likewise, fast-path delivery to app read. *)

val set_rx_span : t -> int -> unit

(** {2 Companion structures} *)

val rx_buf : t -> Tas_buffers.Ring_buffer.t
(** Table 3 [rx_start|size|head|tail]. *)

val tx_buf : t -> Tas_buffers.Ring_buffer.t
val ooo : t -> Tas_buffers.Ooo_interval.t
val tx_timer_thunk : t -> unit -> unit
(** The pacing timer's event thunk: a no-op until the fast path first arms
    the timer and installs one, which every later arm reuses. *)

val has_tx_timer_thunk : t -> bool

val set_tx_timer_thunk : t -> (unit -> unit) -> unit

val tx_timer_core : t -> int
(** Index of the fast-path core the pending pacing timer was armed on. *)

val set_tx_timer_core : t -> int -> unit

val bucket : t -> Rate_bucket.t

val recovery : t -> Tas_recovery.State.t
(** Loss-recovery companion: policy kind, episode flag, and (for SACK-class
    policies) the sender scoreboard. *)

val recovery_kind : t -> Tas_recovery.Policy.kind

(** {2 Derived views} *)

val tuple : t -> local_ip:Tas_proto.Addr.ipv4 -> Tas_proto.Addr.Four_tuple.t

val snd_una : t -> Tas_proto.Seq32.t
(** First unacknowledged sequence number. *)

val seq_of_rx_offset : t -> int -> Tas_proto.Seq32.t
val rx_offset_of_seq : t -> Tas_proto.Seq32.t -> int

val tx_available : t -> int
(** Bytes in the transmit buffer not yet (re)transmitted. *)

val state_bytes : int
(** Size of the paper's per-flow record: 102 bytes. *)

val sync_shadow : t -> unit
(** Mirror ring positions and the out-of-order interval into the arena
    slot's shadow fields. Called by dump paths so the slot is a complete
    Table-3 image; never on the packet hot path. *)

val to_json : t -> Tas_telemetry.Json.t
(** Snapshot of the Table-3 record (sequence/ack state, buffer occupancy,
    rate bucket, dup-ACK and recovery state, out-of-order interval,
    slow-path collection counters, RTT estimate) as a deterministic JSON
    object, read straight from the arena record. *)
