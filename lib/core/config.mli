(** TAS configuration knobs, with the paper's defaults. *)

(** Workload-proportional core scaling (§3.4): the elastic controller
    evaluates [policy] every [check_interval_ns]. *)
type autoscale = {
  policy : Tas_control.Policy.spec;
      (** e.g. {!Tas_control.Policy.paper_default}, the paper's 1.25/0.2
          idle-core thresholds *)
  check_interval_ns : int;
}

type t = {
  rx_buf_size : int;  (** per-flow receive payload buffer (fixed, §4.1) *)
  tx_buf_size : int;
  max_fast_path_cores : int;
  cc : Tas_tcp.Interval_cc.algorithm;
  initial_rate_bps : float;  (** starting rate for new flows *)
  control_interval_min_ns : int;
      (** floor of the slow-path CC loop period, which is otherwise 2 RTTs
          ([Slow_path]'s [control_interval_rtts]); used when the RTT is
          tiny or unknown *)
  control_interval_fixed_ns : int option;
      (** force a fixed control interval τ (the Fig. 11 sweep) *)
  timeout_intervals : int;
      (** control intervals without snd_una progress before the slow path
          triggers a retransmission (default 2, §3.2) *)
  dead_flow_timeout_ns : int option;
      (** reap established flows that have in-flight or queued data but make
          no sequence progress for this long (the peer is gone and not even
          RST-ing). [None] (default) disables reaping; idle-but-healthy
          flows are never reaped *)
  rx_ooo_enabled : bool;
      (** receiver out-of-order interval tracking; [false] = the "simple
          go-back-N recovery" ablation of Fig. 7: the flow's interval set
          is made with no slot, so every out-of-order segment is dropped.
          Read once, when a flow is created *)
  recovery_policy : Tas_recovery.Policy.kind;
      (** loss-recovery policy for both flow directions. Every policy runs
          the same receive and ACK paths; the policy decides only what
          cumulative progress and duplicate ACKs do. [Reno] (default) is
          the paper's triple-dup-ACK go-back-N, byte-identical to the
          seed. [Sack] tracks 4 out-of-order intervals per flow,
          advertises up to 3 of them as SACK blocks beside the timestamp
          option and drives a sender scoreboard with selective
          retransmit. [Rack_tlp] adds time-based loss detection (reordering
          window srtt/4) and tail-loss probes on top of [Sack] *)
  autoscale : autoscale option;
      (** [Some] runs the elastic core controller, starting from one
          active fast-path core; [None] (default) keeps every core active *)
  idle_block_ns : int;
      (** fast-path thread blocks after this idle time; waking it again
          costs a fixed 5 us ([Fast_path]'s [wakeup_ns]) *)
  (* Fast-path per-packet CPU costs (cycles), calibrated to Table 1. *)
  fp_driver_cycles : int;
  fp_rx_cycles : int;  (** receive data segment, including ACK generation *)
  fp_tx_cycles : int;  (** segmentation + transmit *)
  fp_ack_rx_cycles : int;  (** process incoming ACK, reclaim tx buffer *)
  fp_burst_size : int;
      (** max packets per vector pass: fast-path receive batches each
          core's backlog DPDK-burst style (default 32). Batching amortizes
          event dispatch and flow lookup; per-packet cycle charges are
          unchanged by it *)
  flow_arena_capacity : int;
      (** slots of the off-heap {!Flow_arena} of 102-byte Table-3 records
          that holds all per-flow state; connections beyond this are
          refused (default 4096). The one capacity an experiment sizes:
          context queues grow on demand, and the segment size, window
          scale and handshake timeout are constants
          ({!Tas_proto.Tcp_header.mss}, {!Tas_proto.Tcp_header.wscale},
          [Fast_path.handshake_rto_ns]) *)
  sp_conn_cycles : int;  (** slow-path connection setup/teardown handling *)
  sp_flow_control_cycles : int;  (** slow-path CC loop, per flow *)
  trace_capacity : int option;
      (** [Some n] records structured telemetry trace events into a bounded
          ring of [n] events; [None] (default) costs one boolean test per
          would-be event *)
  timeline_interval_ns : int;
      (** capture a {!Tas_telemetry.Timeline} frame (counter deltas, gauges,
          per-core utilization, shard/arena occupancy) every this many ns of
          sim time; 0 (default) disables the flight recorder entirely — no
          periodic event, no per-interval core accounting *)
}

val default : t

val rate_mode : t -> bool
(** Whether the configured congestion control is rate-based. *)
