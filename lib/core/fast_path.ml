module Sim = Tas_engine.Sim
module Nic = Tas_netsim.Nic
module Core = Tas_cpu.Core
module Addr = Tas_proto.Addr
module Seq32 = Tas_proto.Seq32
module Packet = Tas_proto.Packet
module Tcp_header = Tas_proto.Tcp_header
module Ipv4_header = Tas_proto.Ipv4_header
module Ring = Tas_buffers.Ring_buffer
module Ooo = Tas_buffers.Ooo_interval
module Buf_pool = Tas_buffers.Buf_pool
module Fifo = Tas_buffers.Fifo
module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace
module Span = Tas_telemetry.Span
module Rec = Tas_recovery

type stats = {
  mutable rx_data_packets : int;
  mutable rx_ack_packets : int;
  mutable tx_data_packets : int;
  mutable acks_sent : int;
  mutable ooo_stored : int;
  mutable payload_drops : int;
  mutable fast_retransmits : int;
  mutable exceptions_forwarded : int;
  mutable malformed_drops : int;
  mutable rx_bursts : int;
  mutable rx_burst_packets : int;
}

(* Loss-recovery subsystem counters, live only under a SACK-class policy
   ([Config.recovery_policy] <> [Reno]); all zero — and their metrics not
   even registered — under the default Reno policy, keeping the seed's
   telemetry byte-identical. *)
type rec_stats = {
  mutable rec_episodes : int;
  mutable rec_sacked_segments : int;
  mutable rec_lost_marked : int;
  mutable rec_selective_retransmits : int;
  mutable rec_tlp_probes : int;
  mutable rec_reo_timeouts : int;
}

(* One-entry flow memo for the duration of a single vector pass: bursts are
   dominated by runs of segments of the same flow, so the common case skips
   the hash lookup (and its modeled lock acquisition) entirely. Reset at
   every pass; flow installs/removes are deferred events and cannot land
   mid-pass. *)
type memo = {
  mutable m_flow : Flow_state.t;  (* [Flow_state.absent]: no memo *)
  mutable m_src_ip : int;
  mutable m_src_port : int;
  mutable m_dst_ip : int;
  mutable m_dst_port : int;
}

type t = {
  sim : Sim.t;
  nic : Nic.t;
  cores : Core.t array;
  config : Config.t;
  flows : Flow_table.t;
  contexts : (int, Context.t) Hashtbl.t;
  pkt_pool : Packet.Pool.t;  (* the NIC's: where segments are taken from *)
  mutable next_context_id : int;
  mutable active : int;
  (* Whether [set_active_cores] has pushed [active] into the NIC's RSS
     table at least once. The fast path starts with [active] = core count
     while the RSS table starts spread over all queues; the first
     actuation must always apply even when the counts coincide, after
     which unchanged counts are no-ops (no spurious nic_rss_rewrites). *)
  mutable rss_synced : bool;
  mutable exception_handler : Packet.t -> unit;
  stats : stats;
  rec_stats : rec_stats;
  trace : Trace.t;
  span : Span.t;
  mutable busy_snapshot : int array;
  mutable last_rx_time : int array;  (* per-core, for idle blocking *)
  backlogs : Packet.t Fifo.t array;
      (* per core: packets accepted from the NIC queue but not yet run
         through the vector pass *)
  drain_armed : bool array;
  mutable drain_thunks : (unit -> unit) array;
  (* Per-core work queues: data segments for the NIC, TX commands
     ([notify_tx]), RTO rewinds ([trigger_retransmit]) and packets the
     slow path hands back ([reinject]). *)
  tx_queues : Packet.t Core.queue array;
  tx_cmds : Flow_state.t Core.queue array;
  rto_cmds : Flow_state.t Core.queue array;
  reinjects : Packet.t Core.queue array;
  memo : memo;
  probe : Addr.Four_tuple.t;
      (* scratch lookup key of [lookup_flow] and [reinject]; never stored *)
  scratch : Packet.t array;  (* vector-pass staging, fp_burst_size slots *)
}

let flows t = t.flows
let stats t = t.stats
let rec_stats t = t.rec_stats
let config t = t.config
let nic t = t.nic
let trace t = t.trace
let span t = t.span
let set_exception_handler t f = t.exception_handler <- f
let active_cores t = t.active

(* One boolean test when tracing is off; event construction only when on. *)
let trace_ev t kind ~core ~flow =
  if Trace.enabled t.trace then
    Trace.record t.trace ~ts:(Sim.now t.sim) ~kind ~core ~flow

let register t m =
  let s = t.stats in
  let c name help f = Metrics.counter_fn m ~help name f in
  c "fp_rx_data_packets" "data segments processed by the fast path" (fun () ->
      s.rx_data_packets);
  c "fp_rx_ack_packets" "pure ACKs processed by the fast path" (fun () ->
      s.rx_ack_packets);
  c "fp_tx_data_packets" "data segments transmitted" (fun () ->
      s.tx_data_packets);
  c "fp_acks_sent" "ACKs generated" (fun () -> s.acks_sent);
  c "fp_ooo_stored" "out-of-order segments buffered" (fun () -> s.ooo_stored);
  c "fp_payload_drops" "receive payload drops" (fun () -> s.payload_drops);
  c "fp_fast_retransmits" "triple-dupACK fast retransmits" (fun () ->
      s.fast_retransmits);
  c "fp_exceptions_forwarded" "packets punted to the slow path" (fun () ->
      s.exceptions_forwarded);
  c "fp_malformed_drops" "length-inconsistent packets dropped on receive"
    (fun () -> s.malformed_drops);
  c "fp_rx_bursts" "vector passes over the receive backlog" (fun () ->
      s.rx_bursts);
  c "fp_rx_burst_packets" "packets processed through vector passes" (fun () ->
      s.rx_burst_packets);
  Metrics.gauge_fn m ~help:"fast-path cores currently active" "fp_active_cores"
    (fun () -> float_of_int t.active);
  Metrics.gauge_fn m ~help:"flows installed in the fast-path flow table"
    "fp_flows" (fun () -> float_of_int (Flow_table.count t.flows));
  c "fp_lock_cycles"
    "flow-table spinlock cycles charged across all shards (cost model only)"
    (fun () -> Flow_table.lock_cycles t.flows);
  c "fp_flow_migrations" "flows moved between shards by RSS rewrites"
    (fun () -> Flow_table.migrated_flows t.flows);
  (* Recovery-subsystem counters exist only when a SACK-class policy is
     configured; under the default Reno policy the registry output stays
     byte-identical to the pre-recovery seed. *)
  if t.config.Config.recovery_policy <> Rec.Policy.Reno then begin
    let r = t.rec_stats in
    c "rec_episodes" "SACK/RACK recovery episodes entered" (fun () ->
        r.rec_episodes);
    c "rec_sacked_segments" "segments newly marked sacked by ACK blocks"
      (fun () -> r.rec_sacked_segments);
    c "rec_lost_marked" "segments marked lost (dupthresh + RACK rules)"
      (fun () -> r.rec_lost_marked);
    c "rec_selective_retransmits" "lost segments selectively retransmitted"
      (fun () -> r.rec_selective_retransmits);
    c "rec_tlp_probes" "tail-loss probes transmitted" (fun () ->
        r.rec_tlp_probes);
    c "rec_reo_timeouts" "RACK reordering timers that marked losses"
      (fun () -> r.rec_reo_timeouts)
  end;
  Flow_table.register t.flows m ()

let set_active_cores t n =
  (* Bounded by both the configured cores and the NIC's RSS queues. *)
  let n = max 1 (min n (min (Array.length t.cores) (Nic.num_queues t.nic))) in
  (* Idempotent after the first sync: repeated controller ticks with an
     unchanged target must not rewrite the redirection table (every
     [Rss_table.set_active] bumps nic_rss_rewrites). *)
  if n <> t.active || not t.rss_synced then begin
    t.active <- n;
    t.rss_synced <- true;
    Nic.set_active_queues t.nic n
  end

let fresh_context_id t =
  let id = t.next_context_id in
  t.next_context_id <- id + 1;
  id

let register_context t ctx =
  let id = Context.id ctx in
  if Hashtbl.mem t.contexts id then
    invalid_arg "Fast_path.register_context: duplicate context id";
  Hashtbl.replace t.contexts id ctx

let unregister_context t id = Hashtbl.remove t.contexts id

let find_context t id = Hashtbl.find_opt t.contexts id

(* Per-segment notifications: [Hashtbl.find] allocates no option. A flow
   whose application exited (teardown in progress) has no context. *)
let post_readable t flow =
  match Hashtbl.find t.contexts (Flow_state.context flow) with
  | ctx -> Context.post_readable ctx flow
  | exception Not_found -> ()

let post_writable t flow =
  match Hashtbl.find t.contexts (Flow_state.context flow) with
  | ctx -> Context.post_writable ctx flow
  | exception Not_found -> ()

let context t id =
  match Hashtbl.find_opt t.contexts id with
  | Some ctx -> ctx
  | None -> invalid_arg "Fast_path.context: unknown context id"

let core_index_of_flow t flow =
  let queue =
    Nic.queue_for_hash t.nic
      (Addr.Four_tuple.sym_hash_fields ~local_ip:(Nic.ip t.nic)
         ~local_port:(Flow_state.local_port flow)
         ~peer_ip:(Flow_state.peer_ip flow)
         ~peer_port:(Flow_state.peer_port flow))
  in
  queue mod Array.length t.cores

let install_flow t ~tuple flow = Flow_table.add t.flows tuple flow
let remove_flow t ~tuple = Flow_table.remove t.flows tuple

let now_us t = Sim.now t.sim / 1000
let handshake_rto_ns = Tas_engine.Time_ns.ms 20

(* --- Packet construction ---------------------------------------------- *)

(* A segment from the NIC's packet pool, headers rewritten in place: no
   allocation once the pool is warm. *)
let build_packet t flow ~(flags : Tcp_header.flags) ~seq ~payload ~sack =
  let pkt = Packet.take t.pkt_pool in
  Tcp_header.fill pkt.Packet.tcp ~src_port:(Flow_state.local_port flow)
    ~dst_port:(Flow_state.peer_port flow) ~seq
    ~ack:(if flags.Tcp_header.ack then Flow_state.ack flow else 0)
    ~flags
    ~window:
      (min 65535
         (Ring.free (Flow_state.rx_buf flow) asr Tcp_header.wscale))
    ~ts_val:(now_us t land 0xFFFF_FFFF) ~ts_ecr:(Flow_state.ts_recent flow);
  (* Before [Packet.fill]: the blocks count in the packet's lengths. *)
  if sack then Ooo.write_sack (Flow_state.ooo flow) pkt.Packet.tcp;
  let ecn =
    if Bytes.length payload > 0 then Ipv4_header.Ect0 else Ipv4_header.Not_ect
  in
  Packet.fill pkt ~src_mac:(Nic.mac t.nic) ~dst_mac:(Flow_state.peer_mac flow)
    ~src_ip:(Nic.ip t.nic) ~dst_ip:(Flow_state.peer_ip flow) ~ecn ~payload;
  pkt

let send_raw t pkt = Nic.transmit t.nic pkt

(* [maybe_send]'s core is always an element of [t.cores] (the flow's or
   the drain pass's core); the scan is over at most a handful of cores. *)
let rec core_index_from t core i =
  if i >= Array.length t.cores - 1 || t.cores.(i) == core then i
  else core_index_from t core (i + 1)

(* A top-level loop: a local [let rec] would capture [core] in a fresh
   closure on every segment. *)
let core_index t core = core_index_from t core 0

(* Both ACK-flag shapes, precomputed: the per-ACK [{ack_flags with ece}]
   record allocation used to show up in the bulk words/packet profile. *)
let ack_flags_ece = { Tcp_header.ack_flags with Tcp_header.ece = true }

let send_ack t flow ~ece =
  let flags = if ece then ack_flags_ece else Tcp_header.ack_flags in
  t.stats.acks_sent <- t.stats.acks_sent + 1;
  if Trace.enabled t.trace then
    Trace.record t.trace ~ts:(Sim.now t.sim) ~kind:Trace.Ack_tx
      ~core:(Core.id t.cores.(core_index_of_flow t flow))
      ~flow:(Flow_state.opaque flow);
  (* Under a SACK-class policy advertise the out-of-order intervals (at
     most 3 blocks beside the 10-byte timestamp option); Reno flows emit
     no SACK bytes and the ACK stays byte-identical to the seed. *)
  let sack =
    match Flow_state.recovery_kind flow with
    | Rec.Policy.Reno -> false
    | Rec.Policy.Sack | Rec.Policy.Rack_tlp -> true
  in
  Nic.transmit t.nic
    (build_packet t flow ~flags ~seq:(Flow_state.seq flow)
       ~payload:Bytes.empty ~sack)

let fin_ack_flags = { Tcp_header.ack_flags with Tcp_header.fin = true }

let emit_fin t flow =
  Flow_state.set_fin_sent flow true;
  Nic.transmit t.nic
    (build_packet t flow ~flags:fin_ack_flags ~seq:(Flow_state.seq flow)
       ~payload:Bytes.empty ~sack:false)

(* --- Transmission ------------------------------------------------------ *)

let tx_cycles t = t.config.Config.fp_driver_cycles + t.config.Config.fp_tx_cycles

(* Scoreboard bookkeeping for fresh transmissions: only SACK-class flows
   track per-segment state; Reno pays one variant test. *)
let rec_on_transmit t flow ~seq ~len =
  let st = Flow_state.recovery flow in
  match st.Rec.State.kind with
  | Rec.Policy.Reno -> ()
  | Rec.Policy.Sack | Rec.Policy.Rack_tlp ->
    Rec.Scoreboard.on_transmit st.Rec.State.sb ~seq ~len ~now_ns:(Sim.now t.sim)

(* Emit [len] bytes of the transmit buffer, starting [off] bytes past its
   tail, as one data segment at [seq] through [core]'s transmit FIFO; a
   [span] id of -1 means the segment is not span-sampled. Pool-recycled
   payload staging: [Ring.read_at ~len] overwrites the full (exact-length)
   buffer, so stale contents of a recycled buffer are never observable. *)
let emit_segment t flow core ~seq ~off ~len ~span =
  let payload = Buf_pool.take (Buf_pool.local ()) len in
  let tx_buf = Flow_state.tx_buf flow in
  Ring.read_at tx_buf ~pos:(Ring.tail tx_buf + off) ~dst:payload ~dst_off:0
    ~len;
  t.stats.tx_data_packets <- t.stats.tx_data_packets + 1;
  trace_ev t Trace.Tx_data ~core:(Core.id core) ~flow:(Flow_state.opaque flow);
  let pkt =
    build_packet t flow ~flags:Tcp_header.data_flags ~seq ~payload ~sack:false
  in
  (* Small payloads bypassed the buffer pool: nothing to recycle. *)
  if len >= Buf_pool.min_len then Packet.mark_pooled pkt;
  if span >= 0 then begin
    pkt.Packet.span <- span;
    Span.record t.span ~ts:(Sim.now t.sim) ~id:span ~hop:Span.Fp_tx
      ~core:(Core.id core) ~flow:(Flow_state.opaque flow)
  end;
  Core.submit t.tx_queues.(core_index t core) ~cat:Core.Tx
    ~cycles:(tx_cycles t) pkt

(* Drain the flow's bucket: segment and transmit as much buffered payload as
   congestion/flow control allows; in rate mode arm a pacing timer when the
   bucket runs dry. Runs on [core]. *)
let rec maybe_send t flow core =
  let avail = Flow_state.tx_available flow in
  if avail > 0 && not (Flow_state.fin_sent flow) then begin
    let peer_budget = Flow_state.window flow - Flow_state.tx_sent flow in
    if peer_budget > 0 then begin
      let want = min Tcp_header.mss (min avail peer_budget) in
      (* Pace whole segments: a rate bucket with only a few tokens must not
         emit tiny packets — wait until a full [want] accumulates. *)
      let granted =
        if Rate_bucket.ns_until_bytes_int (Flow_state.bucket flow) want >= 0
        then 0
        else
          Rate_bucket.tx_budget (Flow_state.bucket flow)
            ~in_flight:(Flow_state.tx_sent flow) ~want
      in
      if granted > 0 then begin
        let seq = Flow_state.seq flow and off = Flow_state.tx_sent flow in
        let span = Flow_state.tx_span flow in
        if span >= 0 then Flow_state.set_tx_span flow (-1);
        Flow_state.set_seq flow (Seq32.add seq granted);
        Flow_state.set_tx_sent flow (off + granted);
        rec_on_transmit t flow ~seq ~len:granted;
        emit_segment t flow core ~seq ~off ~len:granted ~span;
        maybe_send t flow core
      end
      else arm_pacing_timer t flow core ~want
    end
  end

(* The pacing timer's event is the flow's own persistent thunk, made at
   its first arm, so re-arming allocates nothing. It runs [maybe_send] on
   the core the arm captured, as a per-arm closure would. *)
and arm_pacing_timer t flow core ~want =
  if not (Flow_state.tx_timer_armed flow) then begin
    let delay = Rate_bucket.ns_until_bytes_int (Flow_state.bucket flow) want in
    if delay < 0 then () (* window mode / available now: an ACK reopens *)
    else if delay = max_int then () (* rate is zero; slow path will update *)
    else begin
      Flow_state.set_tx_timer_armed flow true;
      Flow_state.set_tx_timer_core flow (core_index t core);
      if not (Flow_state.has_tx_timer_thunk flow) then
        Flow_state.set_tx_timer_thunk flow (fun () ->
            Flow_state.set_tx_timer_armed flow false;
            maybe_send t flow t.cores.(Flow_state.tx_timer_core flow));
      Sim.post t.sim (max delay 1) (Flow_state.tx_timer_thunk flow)
    end
  end

(* --- SACK / RACK-TLP recovery engine ----------------------------------- *)

(* Re-read a still-unacked segment out of the transmit buffer and emit it
   without rewinding [seq]/[tx_sent] — the selective retransmission the
   Reno path cannot do. Bypasses the rate bucket: recovery traffic replaces
   segments whose tokens were already spent, so re-pacing it would only
   delay repair (the slow path still sees the episode via cnt_frexmits and
   cuts the rate). *)
let send_segment t flow core ~seq ~len =
  let off = Seq32.diff seq (Flow_state.snd_una flow) in
  if len > 0 && off >= 0 && off + len <= Ring.used (Flow_state.tx_buf flow)
  then begin
    emit_segment t flow core ~seq ~off ~len ~span:(-1);
    true
  end
  else false

(* Retransmit every segment the scoreboard currently marks lost, lowest
   first. [on_retransmit] clears the marking (and refreshes the RACK
   timestamp) before the send, so the scan always terminates. *)
let retransmit_lost t flow core =
  let st = Flow_state.recovery flow in
  let sb = st.Rec.State.sb in
  let continue = ref true in
  while !continue do
    let i = Rec.Scoreboard.next_lost sb in
    if i < 0 then continue := false
    else begin
      let seq = Rec.Scoreboard.seg_seq sb i
      and len = Rec.Scoreboard.seg_len sb i in
      ignore (Rec.Scoreboard.on_retransmit sb ~seq ~now_ns:(Sim.now t.sim));
      if send_segment t flow core ~seq ~len then begin
        t.rec_stats.rec_selective_retransmits <-
          t.rec_stats.rec_selective_retransmits + 1;
        trace_ev t Trace.Rec_retransmit ~core:(Core.id core)
          ~flow:(Flow_state.opaque flow)
      end
      else continue := false
    end
  done

let reo_wnd_of flow = Rec.Rack_tlp.reo_wnd_ns ~srtt_ns:(Flow_state.rtt_est flow)

(* Tail-loss probe: one PTO hangs over the connection while data is in
   flight; on expiry the highest unsacked segment is re-sent to
   manufacture the ACK/SACK feedback RACK needs. Each timer is one
   [Sim.schedule] handle in the flow's recovery state, [Sim.no_event]
   while unarmed: cumulative progress, an RTO rewind and teardown cancel
   it ({!Rec.State.disarm}), and a firing clears it first. The event's
   action is the flow's own, made at its first arm, and the arming core's
   index waits in the recovery state. *)
let rec arm_tlp t flow core =
  let st = Flow_state.recovery flow in
  if
    st.Rec.State.kind = Rec.Policy.Rack_tlp
    && st.Rec.State.tlp_ev == Sim.no_event
    && Flow_state.tx_sent flow > 0
  then begin
    st.Rec.State.tlp_core <- core_index t core;
    let pto =
      (* Before the first RTT sample the 2*srtt formula would collapse to
         its 1 ms floor and probe ahead of the genuine first ACK; fall
         back to the handshake RTO until the estimator warms up. *)
      let srtt = Flow_state.rtt_est flow in
      if srtt = 0 then handshake_rto_ns else Rec.Rack_tlp.pto_ns ~srtt_ns:srtt
    in
    if st.Rec.State.tlp_fire == Rec.State.no_action then
      st.Rec.State.tlp_fire <- (fun () -> tlp_expired t flow st);
    st.Rec.State.tlp_ev <- Sim.schedule t.sim pto st.Rec.State.tlp_fire
  end

and tlp_expired t flow st =
  st.Rec.State.tlp_ev <- Sim.no_event;
  if Flow_state.tx_sent flow > 0 then
    fire_tlp t flow t.cores.(st.Rec.State.tlp_core)

and fire_tlp t flow core =
  let st = Flow_state.recovery flow in
  let sb = st.Rec.State.sb in
  let i = Rec.Scoreboard.last_unsacked sb in
  if i >= 0 then begin
    let seq = Rec.Scoreboard.seg_seq sb i
    and len = Rec.Scoreboard.seg_len sb i in
    t.rec_stats.rec_tlp_probes <- t.rec_stats.rec_tlp_probes + 1;
    trace_ev t Trace.Rec_tlp_probe ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow);
    if send_segment t flow core ~seq ~len then
      ignore (Rec.Scoreboard.on_retransmit sb ~seq ~now_ns:(Sim.now t.sim))
  end;
  arm_tlp t flow core

(* RACK reordering timer: loss evidence exists (something above the hole
   was sacked) but the reordering window has not elapsed yet; wake up when
   the oldest candidate crosses it and mark whatever still qualifies. *)
let reo_expired t flow st =
  st.Rec.State.reo_ev <- Sim.no_event;
  let core = t.cores.(st.Rec.State.reo_core) in
  let n =
    Rec.Rack_tlp.on_reo_timer st ~now_ns:(Sim.now t.sim)
      ~reo_wnd:(reo_wnd_of flow) ~srtt_ns:(Flow_state.rtt_est flow)
  in
  if n > 0 then begin
    t.rec_stats.rec_reo_timeouts <- t.rec_stats.rec_reo_timeouts + 1;
    t.rec_stats.rec_lost_marked <- t.rec_stats.rec_lost_marked + n;
    trace_ev t Trace.Rec_reo_timeout ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow);
    retransmit_lost t flow core
  end

let arm_reo t flow core =
  let st = Flow_state.recovery flow in
  if
    st.Rec.State.kind = Rec.Policy.Rack_tlp
    && st.Rec.State.reo_ev == Sim.no_event
  then begin
    let tx = Rec.Scoreboard.oldest_unsacked_tx st.Rec.State.sb in
    if tx >= 0 then begin
      st.Rec.State.reo_core <- core_index t core;
      let srtt = max 1 (Flow_state.rtt_est flow) in
      let due = tx + reo_wnd_of flow + srtt in
      let delay = max 1 (due - Sim.now t.sim) in
      if st.Rec.State.reo_fire == Rec.State.no_action then
        st.Rec.State.reo_fire <- (fun () -> reo_expired t flow st);
      st.Rec.State.reo_ev <- Sim.schedule t.sim delay st.Rec.State.reo_fire
    end
  end

(* Digest one ACK of a SACK-class flow through the scoreboard engine and
   act on the verdict: mirror the episode flag into the Table-3 record,
   signal the slow path's rate cut once per episode (cnt_frexmits, like
   Reno), and selectively retransmit whatever was marked lost. *)
let recovery_on_ack t flow core ~una ~sack ~dup_acks =
  let st = Flow_state.recovery flow in
  Rec.Rack_tlp.on_ack st ~una ~snd_nxt:(Flow_state.seq flow) ~sack ~dup_acks
    ~reo_wnd:(reo_wnd_of flow);
  let newly_sacked = st.Rec.State.newly_sacked
  and newly_lost = st.Rec.State.newly_lost in
  Flow_state.set_in_recovery flow st.Rec.State.in_rec;
  if st.Rec.State.exited then
    trace_ev t Trace.Rec_exit ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow);
  if st.Rec.State.entered then begin
    (* One rate-cut signal per episode: the slow path reads cnt_frexmits
       exactly as it does for Reno fast retransmits. *)
    Flow_state.set_cnt_frexmits flow (Flow_state.cnt_frexmits flow + 1);
    t.stats.fast_retransmits <- t.stats.fast_retransmits + 1;
    t.rec_stats.rec_episodes <- t.rec_stats.rec_episodes + 1;
    trace_ev t Trace.Rec_enter ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow)
  end;
  if newly_sacked > 0 then
    t.rec_stats.rec_sacked_segments <-
      t.rec_stats.rec_sacked_segments + newly_sacked;
  if newly_lost > 0 then begin
    t.rec_stats.rec_lost_marked <- t.rec_stats.rec_lost_marked + newly_lost;
    trace_ev t Trace.Rec_mark_lost ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow)
  end;
  retransmit_lost t flow core

let run_tx_cmd t core flow =
  maybe_send t flow core;
  arm_tlp t flow core

let run_rto_cmd t core flow =
  (* RTO-class rewind: forget the scoreboard (segments re-register as
     they are re-sent) and invalidate pending RACK/TLP timers. *)
  (match Flow_state.recovery_kind flow with
  | Rec.Policy.Reno -> ()
  | Rec.Policy.Sack | Rec.Policy.Rack_tlp ->
    Rec.State.reset t.sim (Flow_state.recovery flow));
  (* Reset sender state as if the unacked segments were never sent. *)
  Flow_state.set_seq flow (Flow_state.snd_una flow);
  Flow_state.set_tx_sent flow 0;
  Flow_state.set_dupack_cnt flow 0;
  Flow_state.set_in_recovery flow false;
  maybe_send t flow core;
  arm_tlp t flow core

(* The TX command costs a few cycles of fast-path attention. *)
let notify_tx t flow =
  Core.submit t.tx_cmds.(core_index_of_flow t flow) ~cat:Core.Tx ~cycles:50
    flow

let trigger_retransmit t flow =
  Core.submit t.rto_cmds.(core_index_of_flow t flow) ~cat:Core.Tx
    ~cycles:100 flow

(* --- Receive processing ------------------------------------------------ *)

let sample_rtt t flow (tcp : Tcp_header.t) =
  let ecr = tcp.Tcp_header.ts_ecr in
  if tcp.Tcp_header.has_ts && ecr > 0 then begin
    let rtt = (now_us t - ecr) * 1000 in
    if rtt >= 0 then
      Flow_state.set_rtt_est flow
        (if Flow_state.rtt_est flow = 0 then rtt
         else ((7 * Flow_state.rtt_est flow) + rtt) / 8)
  end

(* The cumulative advance every policy shares: reclaim [acked] bytes of
   the transmit buffer, fast-forward [seq] when the ACK covers everything
   sent (after a go-back-N rewind the receiver can cumulatively ACK past
   snd_nxt: it had the later segments buffered), and feed the slow path's
   byte counters and the RTT estimate. *)
let advance_una t flow (tcp : Tcp_header.t) acked =
  Ring.advance_tail (Flow_state.tx_buf flow) acked;
  if acked >= Flow_state.tx_sent flow then begin
    Flow_state.set_seq flow tcp.Tcp_header.ack;
    Flow_state.set_tx_sent flow 0
  end
  else Flow_state.set_tx_sent flow (Flow_state.tx_sent flow - acked);
  Flow_state.set_dupack_cnt flow 0;
  Flow_state.set_cnt_ackb flow (Flow_state.cnt_ackb flow + acked);
  if tcp.Tcp_header.flags.Tcp_header.ece then
    Flow_state.set_cnt_ecnb flow (Flow_state.cnt_ecnb flow + acked);
  sample_rtt t flow tcp

(* One ACK path for every recovery policy: cumulative advance, or a
   duplicate ACK (§3.1 exception 1). The policy decides only what those
   two mean. Under [Reno], progress ends the recovery episode and the
   third duplicate ACK rewinds the sender go-back-N ({!Tas_recovery.Reno},
   byte-identical to the seed's fast path). Under a SACK-class policy both
   feed the scoreboard engine, which repairs losses selectively. The probe
   and reordering timers arm only under [Rack_tlp]. *)
let process_ack t flow pkt core =
  let tcp = pkt.Packet.tcp in
  let acked = Seq32.diff tcp.Tcp_header.ack (Flow_state.snd_una flow) in
  Flow_state.set_window flow
    (tcp.Tcp_header.window lsl Flow_state.peer_wscale flow);
  if acked > 0 then begin
    (* Accept any ACK covering bytes still in the transmit buffer. *)
    if acked <= Ring.used (Flow_state.tx_buf flow) then begin
      advance_una t flow tcp acked;
      (match Flow_state.recovery_kind flow with
      | Rec.Policy.Reno -> Flow_state.set_in_recovery flow false
      | Rec.Policy.Sack | Rec.Policy.Rack_tlp ->
        (* Cumulative progress restarts the probe/reorder clocks: cancel
           the pending timers, then re-arm below. *)
        let st = Flow_state.recovery flow in
        Rec.State.disarm t.sim st;
        recovery_on_ack t flow core ~una:tcp.Tcp_header.ack ~sack:tcp
          ~dup_acks:0);
      if Flow_state.tx_interest flow then begin
        Flow_state.set_tx_interest flow false;
        post_writable t flow
      end;
      maybe_send t flow core;
      arm_tlp t flow core;
      arm_reo t flow core
    end
    else begin
      (* ACK beyond what the fast path sent (e.g. of a slow-path FIN). *)
      t.stats.exceptions_forwarded <- t.stats.exceptions_forwarded + 1;
      t.exception_handler pkt
    end
  end
  else if
    acked = 0
    && Flow_state.tx_sent flow > 0
    && Bytes.length pkt.Packet.payload = 0
  then begin
    (match Flow_state.recovery_kind flow with
    | Rec.Policy.Reno -> (
      match
        Rec.Reno.on_dup_ack ~dupack_cnt:(Flow_state.dupack_cnt flow)
          ~in_recovery:(Flow_state.in_recovery flow)
      with
      | Rec.Reno.Count cnt -> Flow_state.set_dupack_cnt flow cnt
      | Rec.Reno.Enter_recovery ->
        Flow_state.set_in_recovery flow true;
        (* Fast recovery: rewind the sender as if the segments beyond the
           duplicate ACK had not been sent; the slow path sees
           cnt_frexmits and cuts the flow's rate. *)
        Flow_state.set_cnt_frexmits flow (Flow_state.cnt_frexmits flow + 1);
        t.stats.fast_retransmits <- t.stats.fast_retransmits + 1;
        trace_ev t Trace.Fast_rexmit ~core:(Core.id core)
          ~flow:(Flow_state.opaque flow);
        Flow_state.set_seq flow (Flow_state.snd_una flow);
        Flow_state.set_tx_sent flow 0;
        Flow_state.set_dupack_cnt flow 0;
        maybe_send t flow core)
    | Rec.Policy.Sack | Rec.Policy.Rack_tlp ->
      Flow_state.set_dupack_cnt flow (Flow_state.dupack_cnt flow + 1);
      recovery_on_ack t flow core ~una:(Flow_state.snd_una flow) ~sack:tcp
        ~dup_acks:(Flow_state.dupack_cnt flow));
    arm_tlp t flow core;
    arm_reo t flow core
  end

(* Deposit [write_len] bytes of the segment at [write_at] and advance the
   in-order stream by [advance] bytes: the [Ooo.Deliver] verdict. *)
let deliver_data t flow pkt core ~write_at ~write_len ~advance ~ce =
  let rx_buf = Flow_state.rx_buf flow in
  if write_len > 0 then begin
    let src_off = Seq32.diff write_at pkt.Packet.tcp.Tcp_header.seq in
    Ring.write_at rx_buf
      ~pos:(Flow_state.rx_offset_of_seq flow write_at)
      pkt.Packet.payload ~off:src_off ~len:write_len
  end;
  Ring.advance_head rx_buf advance;
  Flow_state.set_ack flow (Seq32.add (Flow_state.ack flow) advance);
  if pkt.Packet.span >= 0 then begin
    Span.record t.span ~ts:(Sim.now t.sim) ~id:pkt.Packet.span
      ~hop:Span.Ctx_notify ~core:(Core.id core)
      ~flow:(Flow_state.opaque flow);
    (* Carry the span across the coalesced context queue to the app's
       read; first sampled packet wins until delivery clears it. *)
    if Flow_state.rx_span flow < 0 then
      Flow_state.set_rx_span flow pkt.Packet.span
  end;
  post_readable t flow;
  send_ack t flow ~ece:ce

let drop_payload t flow core ~ce =
  t.stats.payload_drops <- t.stats.payload_drops + 1;
  trace_ev t Trace.Payload_drop ~core:(Core.id core)
    ~flow:(Flow_state.opaque flow);
  send_ack t flow ~ece:ce

let process_data t flow pkt core =
  let payload = pkt.Packet.payload in
  let seg_len = Bytes.length payload in
  let ce = pkt.Packet.ip.Ipv4_header.ecn = Ipv4_header.Ce in
  let rx_buf = Flow_state.rx_buf flow in
  let window = Ring.free rx_buf in
  let seq = pkt.Packet.tcp.Tcp_header.seq in
  let ooo = Flow_state.ooo flow in
  (* The exact next segment with nothing stored: [handle]'s verdict,
     without asking for it. The go-back-N receiver of Fig. 7 is an
     interval set with no slot, whose [handle] drops what this misses. *)
  let n =
    Ooo.in_order ooo ~exp:(Flow_state.ack flow) ~window ~seg_start:seq
      ~seg_len
  in
  if n > 0 then
    deliver_data t flow pkt core ~write_at:seq ~write_len:n ~advance:n ~ce
  else
    match
      Ooo.handle ooo ~exp:(Flow_state.ack flow) ~window ~seg_start:seq
        ~seg_len
    with
    | Ooo.Deliver ->
      deliver_data t flow pkt core ~write_at:(Ooo.write_at ooo)
        ~write_len:(Ooo.write_len ooo) ~advance:(Ooo.advance ooo) ~ce
    | Ooo.Store ->
      let write_at = Ooo.write_at ooo in
      Ring.write_at rx_buf
        ~pos:(Flow_state.rx_offset_of_seq flow write_at)
        payload ~off:(Seq32.diff write_at seq) ~len:(Ooo.write_len ooo);
      t.stats.ooo_stored <- t.stats.ooo_stored + 1;
      trace_ev t Trace.Ooo_store ~core:(Core.id core)
        ~flow:(Flow_state.opaque flow);
      (* Duplicate ACK tells the sender what we are still waiting for. *)
      send_ack t flow ~ece:ce
    | Ooo.Duplicate -> send_ack t flow ~ece:ce
    | Ooo.Drop -> drop_payload t flow core ~ce

(* Flow lookup with the vector-pass memo: consecutive same-flow segments
   hit the memoized entry and skip the table (and its lock cost) the way a
   batched DPDK loop keeps the previous flow's state hot. A miss returns
   [Flow_state.absent]; neither path allocates. *)
let memo_reset t = t.memo.m_flow <- Flow_state.absent

let lookup_flow t pkt =
  let m = t.memo in
  let ip = pkt.Packet.ip and tcp = pkt.Packet.tcp in
  if
    m.m_flow != Flow_state.absent
    && m.m_src_ip = ip.Ipv4_header.src
    && m.m_src_port = tcp.Tcp_header.src_port
    && m.m_dst_ip = ip.Ipv4_header.dst
    && m.m_dst_port = tcp.Tcp_header.dst_port
  then m.m_flow
  else begin
    Packet.write_tuple_at_receiver pkt t.probe;
    let flow = Flow_table.find t.flows t.probe in
    m.m_flow <- flow;
    if flow != Flow_state.absent then begin
      m.m_src_ip <- ip.Ipv4_header.src;
      m.m_src_port <- tcp.Tcp_header.src_port;
      m.m_dst_ip <- ip.Ipv4_header.dst;
      m.m_dst_port <- tcp.Tcp_header.dst_port
    end;
    flow
  end

let rec process t pkt core =
  (if not (Packet.well_formed pkt) then begin
     (* Header-corrupted frame (IP length inconsistent with the actual
        headers + payload): drop before touching any flow state. *)
     t.stats.malformed_drops <- t.stats.malformed_drops + 1;
     trace_ev t Trace.Malformed_drop ~core:(Core.id core) ~flow:(-1)
   end
   else process_valid t pkt core);
  (* The last consumer: back to the packet's home pool. Safe only because
     every delivery path out of [process] (ring writes, exception
     handling, reinjection) either copies the bytes out or takes its own
     reference before this runs. *)
  Packet.release pkt

and process_valid t pkt core =
  if pkt.Packet.span >= 0 then
    Span.record t.span ~ts:(Sim.now t.sim) ~id:pkt.Packet.span
      ~hop:Span.Fp_rx ~core:(Core.id core) ~flow:(-1);
  let tcp = pkt.Packet.tcp in
  let flags = tcp.Tcp_header.flags in
  if flags.Tcp_header.syn || flags.Tcp_header.rst || flags.Tcp_header.fin then begin
    t.stats.exceptions_forwarded <- t.stats.exceptions_forwarded + 1;
    trace_ev t Trace.Exception_fwd ~core:(Core.id core) ~flow:(-1);
    t.exception_handler pkt
  end
  else begin
    let flow = lookup_flow t pkt in
    if flow == Flow_state.absent then begin
      t.stats.exceptions_forwarded <- t.stats.exceptions_forwarded + 1;
      trace_ev t Trace.Exception_fwd ~core:(Core.id core) ~flow:(-1);
      t.exception_handler pkt
    end
    else begin
      if tcp.Tcp_header.has_ts then
        Flow_state.set_ts_recent flow tcp.Tcp_header.ts_val;
      if Bytes.length pkt.Packet.payload = 0 then begin
        t.stats.rx_ack_packets <- t.stats.rx_ack_packets + 1;
        trace_ev t Trace.Rx_ack ~core:(Core.id core)
          ~flow:(Flow_state.opaque flow);
        process_ack t flow pkt core
      end
      else begin
        t.stats.rx_data_packets <- t.stats.rx_data_packets + 1;
        trace_ev t Trace.Rx_data ~core:(Core.id core)
          ~flow:(Flow_state.opaque flow);
        process_ack t flow pkt core;
        process_data t flow pkt core
      end
    end
  end

(* --- Burst (vector) receive -------------------------------------------- *)

(* One vector pass over [count] packets of [pkts]: flow lookup, seq/ack
   update and emission run per segment as in [process], but the pass-local
   flow memo amortizes the table lookup across runs of same-flow segments —
   the DPDK-burst discipline of the paper's poll loop. Order within the
   burst is arrival order, so per-flow ordering is preserved for any
   interleaving of flows. *)
let process_burst t pkts ~count core =
  if count < 0 || count > Array.length pkts then
    invalid_arg "Fast_path.process_burst: count out of range";
  if count > 0 then begin
    memo_reset t;
    t.stats.rx_bursts <- t.stats.rx_bursts + 1;
    t.stats.rx_burst_packets <- t.stats.rx_burst_packets + count;
    for k = 0 to count - 1 do
      process t pkts.(k) core
    done;
    memo_reset t
  end

(* Drain the backlog in bursts of at most [fp_burst_size]: packets keep
   arriving while the core works off earlier ones, so under load each
   drain finds a naturally formed batch — exactly how a DPDK poll loop
   sees deeper bursts as it falls behind. *)
let drain_backlog t idx core =
  t.drain_armed.(idx) <- false;
  let b = t.backlogs.(idx) in
  let burst_cap = Array.length t.scratch in
  while Fifo.length b > 0 do
    let n = min (Fifo.length b) burst_cap in
    for i = 0 to n - 1 do
      t.scratch.(i) <- Fifo.pop b
    done;
    process_burst t t.scratch ~count:n core;
    Array.fill t.scratch 0 n Packet.sentinel
  done

let rx_cost t pkt =
  let c = t.config in
  if Bytes.length pkt.Packet.payload = 0 then
    c.Config.fp_driver_cycles + c.Config.fp_ack_rx_cycles
  else c.Config.fp_driver_cycles + c.Config.fp_rx_cycles

(* [Core.run]'s category argument is optional: passing a per-packet [cat]
   as [~cat] would box a fresh [Some] each time. *)
let some_ack_rx = Some Core.Ack_rx
let some_driver_rx = Some Core.Driver_rx

(* Cost of waking a blocked fast-path thread, charged before a core that
   idled past [Config.idle_block_ns] polls again. *)
let wakeup_ns = 5_000

let attach t =
  t.drain_thunks <-
    Array.init (Array.length t.cores) (fun idx ->
        let core = t.cores.(idx) in
        fun () -> drain_backlog t idx core);
  Nic.set_rx_handler t.nic (fun ~queue pkt ->
      let idx = queue mod Array.length t.cores in
      let core = t.cores.(idx) in
      let now = Sim.now t.sim in
      (* A core that has been idle long enough has blocked (§3.4); charge
         the kernel wakeup latency before it starts polling again. *)
      let asleep = now - t.last_rx_time.(idx) > t.config.Config.idle_block_ns in
      t.last_rx_time.(idx) <- now;
      let cycles = rx_cost t pkt in
      let ack = Bytes.length pkt.Packet.payload = 0 in
      let cat = if ack then Core.Ack_rx else Core.Driver_rx in
      let some_cat = if ack then some_ack_rx else some_driver_rx in
      (* Enqueue, charge the packet's cycles, and make sure one drain pass
         is scheduled. Packets charged behind an armed drain are picked up
         by it — the cost model is per packet while the processing pass is
         batched. *)
      Fifo.push t.backlogs.(idx) pkt;
      if t.drain_armed.(idx) then Core.charge core ~cat ~cycles
      else begin
        t.drain_armed.(idx) <- true;
        if asleep then
          Core.run_after core ?cat:some_cat ~delay:wakeup_ns
            ~cycles t.drain_thunks.(idx)
        else Core.run core ?cat:some_cat ~cycles t.drain_thunks.(idx)
      end)

let reinject t pkt =
  Packet.write_tuple_at_receiver pkt t.probe;
  let flow = Flow_table.find t.flows t.probe in
  if flow != Flow_state.absent then begin
    let cat =
      if Bytes.length pkt.Packet.payload = 0 then some_ack_rx
      else some_driver_rx
    in
    (* The reinjected packet goes through [process] (and its release) a
       second time; hold a reference across the scheduling gap. *)
    Packet.retain pkt;
    Core.submit t.reinjects.(core_index_of_flow t flow) ?cat
      ~cycles:(rx_cost t pkt) pkt
  end

let create ?trace ?span sim ~nic ~cores ~config =
  if Array.length cores = 0 then invalid_arg "Fast_path.create: no cores";
  let flows = Flow_table.create ~rss:(Nic.rss nic) in
  let n = Array.length cores in
  let t =
  {
    sim;
    nic;
    cores;
    config;
    flows;
    contexts = Hashtbl.create 16;
    pkt_pool = Nic.packet_pool nic;
    next_context_id = 0;
    active = n;
    rss_synced = false;
    exception_handler = ignore;
    stats =
      {
        rx_data_packets = 0;
        rx_ack_packets = 0;
        tx_data_packets = 0;
        acks_sent = 0;
        ooo_stored = 0;
        payload_drops = 0;
        fast_retransmits = 0;
        exceptions_forwarded = 0;
        malformed_drops = 0;
        rx_bursts = 0;
        rx_burst_packets = 0;
      };
    rec_stats =
      {
        rec_episodes = 0;
        rec_sacked_segments = 0;
        rec_lost_marked = 0;
        rec_selective_retransmits = 0;
        rec_tlp_probes = 0;
        rec_reo_timeouts = 0;
      };
    trace = (match trace with Some tr -> tr | None -> Trace.disabled ());
    span = (match span with Some sp -> sp | None -> Span.disabled ());
    busy_snapshot = Array.make n 0;
    last_rx_time = Array.make n 0;
    backlogs = Array.init n (fun _ -> Fifo.create Packet.sentinel);
    drain_armed = Array.make n false;
    drain_thunks = [||];
    tx_queues = Array.map (Core.queue ~dummy:Packet.sentinel) cores;
    tx_cmds = Array.map (Core.queue ~dummy:Flow_state.absent) cores;
    rto_cmds = Array.map (Core.queue ~dummy:Flow_state.absent) cores;
    reinjects = Array.map (Core.queue ~dummy:Packet.sentinel) cores;
    memo =
      {
        m_flow = Flow_state.absent;
        m_src_ip = -1;
        m_src_port = -1;
        m_dst_ip = -1;
        m_dst_port = -1;
      };
    probe = Addr.Four_tuple.probe ();
    scratch = Array.make (max 1 config.Config.fp_burst_size) Packet.sentinel;
  }
  in
  Tas_netsim.Rss_table.set_on_move (Nic.rss nic) (fun ~group ~from_q ~to_q ->
      (* One event per remapped flow group that holds flows; [core] is the
         destination queue, [flow] the group id. *)
      let moved = Flow_table.move_group flows ~group ~from_q ~to_q in
      if moved > 0 && Trace.enabled t.trace then
        Trace.record t.trace ~ts:(Sim.now t.sim) ~kind:Trace.Shard_migrate
          ~core:to_q ~flow:group);
  Array.iteri
    (fun idx core ->
      Core.set_handler t.tx_queues.(idx) (Nic.transmit nic);
      Core.set_handler t.tx_cmds.(idx) (run_tx_cmd t core);
      Core.set_handler t.rto_cmds.(idx) (run_rto_cmd t core);
      Core.set_handler t.reinjects.(idx) (fun pkt -> process t pkt core))
    cores;
  t

(* Per-core idle fraction over the window since the previous call, for
   every configured core. Active cores report clamped [0,1] idle from
   their busy-ns delta; inactive cores read 1.0 (their snapshot still
   refreshes so reactivation starts clean). One consumer per instance:
   each call advances the shared snapshots. *)
let core_idle_fractions t ~window_ns =
  Array.init (Array.length t.cores) (fun i ->
      let busy = Core.busy_ns t.cores.(i) in
      let delta = busy - t.busy_snapshot.(i) in
      t.busy_snapshot.(i) <- busy;
      if i < t.active then
        max 0.0
          (min 1.0 (1.0 -. (float_of_int delta /. float_of_int window_ns)))
      else 1.0)
