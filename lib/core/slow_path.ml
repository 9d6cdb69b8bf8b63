module Sim = Tas_engine.Sim
module Nic = Tas_netsim.Nic
module Core = Tas_cpu.Core
module Addr = Tas_proto.Addr
module Seq32 = Tas_proto.Seq32
module Packet = Tas_proto.Packet
module Tcp_header = Tas_proto.Tcp_header
module Ring = Tas_buffers.Ring_buffer
module Fifo = Tas_buffers.Fifo
module Interval_cc = Tas_tcp.Interval_cc
module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace

(* Connection-control events are logged under this source (cold path only;
   the fast path stays log-free). Enable with
   [Logs.Src.set_level Slow_path.log_src (Some Logs.Debug)]. *)
let log_src = Logs.Src.create "tas.slow_path" ~doc:"TAS slow path"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* [Log.debug (fun m -> ...)] builds its closure before it looks at the
   level: test the level first, so a run without debug logging builds
   none. *)
let debug_on () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

type conn_error = Timeout | Refused | Reset

let conn_error_name = function
  | Timeout -> "timeout"
  | Refused -> "refused"
  | Reset -> "reset"

type conn_callbacks = {
  established : Flow_state.t -> unit;
  failed : int -> conn_error -> unit;
  reset : Flow_state.t -> unit;
  peer_closed : Flow_state.t -> unit;
  closed : Flow_state.t -> unit;
}

module Tbl = Addr.Four_tuple.Tbl

type pending_state = Syn_sent | Syn_received

(* A connection's one tuple: its pending record, its entry and the fast
   path's flow table all share it, and it is never mutated. *)
type pending = {
  p_tuple : Addr.Four_tuple.t;
  p_opaque : int;
  p_context : int;
  p_iss : Seq32.t;
  mutable p_peer_isn : Seq32.t;
  mutable p_peer_window : int;
  mutable p_peer_wscale : int;
  mutable p_peer_ts : int;
  mutable p_state : pending_state;
  mutable p_retries : int;
  mutable p_timer : Sim.event option;
  p_cb : conn_callbacks;
}

type flow_entry = {
  flow : Flow_state.t;
  f_tuple : Addr.Four_tuple.t;  (* the pending record's [p_tuple] *)
  cc : Interval_cc.t;
  f_cb : conn_callbacks;
  self : flow_entry option;
      (* [Some] of this entry, built once: what [control_tick]'s walk
         returns and snapshots *)
  mutable last_una : Seq32.t;
  mutable stall_since : int;  (* -1 = not currently stalled *)
  mutable next_cc_due : int;
  mutable last_collect : int;
  mutable close_requested : bool;
  mutable fin_acked : bool;
  mutable fin_timer : Sim.event option;
  mutable fin_retries : int;
  mutable reap_una : Seq32.t;  (* snd_una at the last observed progress *)
  mutable reap_ack : Seq32.t;  (* rcv ack at the last observed progress *)
  mutable progress_since : int;  (* timestamp of the last observed progress *)
  mutable removed : bool;
}

(* Lifecycle log events. A module of their own: [Syn_sent] and
   [Syn_received] also name handshake states. *)
module Event = struct
  type t =
    | Syn_sent
    | Syn_received
    | Established
    | Close_requested
    | Fin_acked
    | Peer_fin
    | Closed
    | Handshake_failed
    | Rst
    | Rst_sent
    | Fin_retry_exhausted
    | Flow_reaped
    | Arena_exhausted

  let name = function
    | Syn_sent -> "syn_sent"
    | Syn_received -> "syn_received"
    | Established -> "established"
    | Close_requested -> "close_requested"
    | Fin_acked -> "fin_acked"
    | Peer_fin -> "peer_fin"
    | Closed -> "closed"
    | Handshake_failed -> "handshake_failed"
    | Rst -> "rst"
    | Rst_sent -> "rst_sent"
    | Fin_retry_exhausted -> "fin_retry_exhausted"
    | Flow_reaped -> "flow_reaped"
    | Arena_exhausted -> "arena_exhausted"
end

let lifecycle_limit = 1024

(* The lifecycle log: a fixed ring of [lifecycle_limit] events in parallel
   arrays, the oldest overwritten once full. *)
type lifecycle = {
  lc_ts : int array;
  lc_event : Event.t array;
  lc_local_ip : int array;
  lc_local_port : int array;
  lc_peer_ip : int array;
  lc_peer_port : int array;
  mutable lc_head : int;  (* oldest event *)
  mutable lc_len : int;
  mutable lc_dropped : int;
}

type t = {
  sim : Sim.t;
  fp : Fast_path.t;
  core : Core.t;
  config : Config.t;
  pkt_pool : Packet.Pool.t;  (* the NIC's: control segments are pooled too *)
  arena : Flow_arena.t;
      (* off-heap Table-3 records of every established flow *)
  rings : Ring.Pool.t;
      (* payload rings of torn-down flows, handed to the next setups *)
  listeners : (int, Addr.Four_tuple.t -> (int * int * conn_callbacks) option) Hashtbl.t;
  pending : pending Tbl.t;
  entries : flow_entry Tbl.t;
  probe : Addr.Four_tuple.t;
      (* scratch lookup key, written from packet headers or a flow; only
         ever passed to lookups, never stored *)
  feedback : Interval_cc.feedback;  (* refilled by every control iteration *)
  lifecycle : lifecycle;
  exceptions : Packet.t Fifo.t;  (* handed over, awaiting [exception_step] *)
  mutable exception_step : unit -> unit;
  closes : Flow_state.t Fifo.t;  (* close requests awaiting [close_step] *)
  mutable close_step : unit -> unit;
  due : flow_entry option Fifo.t;
      (* control iterations snapshotted by ticks, as each entry's [self] *)
  due_batches : int Fifo.t;  (* entries per tick snapshot, oldest first *)
  mutable cc_step : unit -> unit;
  mutable collect_due : Addr.Four_tuple.t -> flow_entry -> flow_entry option;
      (* the tick's table-walk callback, built once *)
  mutable tick_now : int;  (* the running tick's clock, for [collect_due] *)
  mutable next_due : int;
      (* at most every entry's [next_cc_due]: a tick before it finds no
         due entry, so it skips the table walk *)
  mutable walk_min : int;  (* the walk's running minimum [next_cc_due] *)
  mutable next_iss : int;
  mutable conn_setups : int;
  mutable conn_teardowns : int;
  mutable timeout_retransmits : int;
  mutable rsts_sent : int;
  mutable fin_retry_exhausted : int;
  mutable flows_reaped : int;
  mutable arena_refusals : int;
  mutable port_exhaustions : int;
  (* The registry [register] filled, for the counters that appear only once
     they first count (so a run that never reaches them exports the same
     registry as before they existed). *)
  mutable registry : Metrics.t option;
  mutable scale_observer : Tas_engine.Time_ns.t -> int -> unit;
  mutable controller : Tas_control.Controller.t option;
      (* the elastic core controller; [Some] iff [Config.dynamic_scaling] *)
}

let lifecycle_create () =
  let ints () = Array.make lifecycle_limit 0 in
  {
    lc_ts = ints ();
    lc_event = Array.make lifecycle_limit Event.Syn_sent;
    lc_local_ip = ints ();
    lc_local_port = ints ();
    lc_peer_ip = ints ();
    lc_peer_port = ints ();
    lc_head = 0;
    lc_len = 0;
    lc_dropped = 0;
  }

(* Bounded so the slow path stays allocation-free: once full, each event
   overwrites the oldest — recent history matters most for post-hoc
   diagnosis. *)
let lifecycle_ev t event (k : Addr.Four_tuple.t) =
  let l = t.lifecycle in
  let i =
    if l.lc_len = lifecycle_limit then begin
      let i = l.lc_head in
      l.lc_head <- (i + 1) mod lifecycle_limit;
      l.lc_dropped <- l.lc_dropped + 1;
      i
    end
    else begin
      let i = (l.lc_head + l.lc_len) mod lifecycle_limit in
      l.lc_len <- l.lc_len + 1;
      i
    end
  in
  l.lc_ts.(i) <- Sim.now t.sim;
  l.lc_event.(i) <- event;
  l.lc_local_ip.(i) <- k.local_ip;
  l.lc_local_port.(i) <- k.local_port;
  l.lc_peer_ip.(i) <- k.peer_ip;
  l.lc_peer_port.(i) <- k.peer_port

let lifecycle_json t =
  let module J = Tas_telemetry.Json in
  let l = t.lifecycle in
  let ev n =
    let i = (l.lc_head + n) mod lifecycle_limit in
    let tuple =
      {
        Addr.Four_tuple.local_ip = l.lc_local_ip.(i);
        local_port = l.lc_local_port.(i);
        peer_ip = l.lc_peer_ip.(i);
        peer_port = l.lc_peer_port.(i);
      }
    in
    J.Obj
      [
        ("ts_ns", J.Int l.lc_ts.(i));
        ("event", J.Str (Event.name l.lc_event.(i)));
        ("tuple", J.Str (Format.asprintf "%a" Addr.Four_tuple.pp tuple));
      ]
  in
  J.Obj
    [
      ("dropped", J.Int l.lc_dropped);
      ("events", J.List (List.init l.lc_len ev));
    ]

let flow_count t = Tbl.length t.entries
let conn_setups t = t.conn_setups
let conn_teardowns t = t.conn_teardowns
let timeout_retransmits t = t.timeout_retransmits
let rsts_sent t = t.rsts_sent
let fin_retry_exhausted t = t.fin_retry_exhausted
let flows_reaped t = t.flows_reaped
let arena_refusals t = t.arena_refusals
let port_exhaustions t = t.port_exhaustions
let arena t = t.arena
let ring_pool t = t.rings
let set_scale_observer t f = t.scale_observer <- f
let controller t = t.controller

(* The slow path shares the fast path's trace ring: one totally-ordered
   event stream per TAS instance. *)
let trace_ev t kind ~flow =
  let tr = Fast_path.trace t.fp in
  if Trace.enabled tr then
    Trace.record tr ~ts:(Sim.now t.sim) ~kind ~core:(Core.id t.core) ~flow

let register t m =
  t.registry <- Some m;
  let c name help f = Metrics.counter_fn m ~help name f in
  c "sp_conn_setups" "connections established" (fun () -> t.conn_setups);
  c "sp_conn_teardowns" "connections removed" (fun () -> t.conn_teardowns);
  c "sp_timeout_retransmits" "slow-path timeout retransmissions" (fun () ->
      t.timeout_retransmits);
  c "sp_rsts_sent" "RST segments generated" (fun () -> t.rsts_sent);
  c "sp_fin_retry_exhausted" "flows torn down after the FIN retry cap"
    (fun () -> t.fin_retry_exhausted);
  c "sp_flows_reaped" "dead flows reaped for lack of sequence progress"
    (fun () -> t.flows_reaped);
  c "sp_arena_refusals" "connections refused because the flow arena was full"
    (fun () -> t.arena_refusals);
  c "sp_lock_cycles"
    "spinlock cycles charged for the slow path's cross-core flow-table \
     touches (installs, removals, migrations; cost model only)"
    (fun () -> Flow_table.remote_lock_cycles (Fast_path.flows t.fp));
  Metrics.gauge_fn m ~help:"established flows tracked by the slow path"
    "sp_flows" (fun () -> float_of_int (Tbl.length t.entries));
  Metrics.gauge_fn m ~help:"handshakes in progress" "sp_pending_handshakes"
    (fun () -> float_of_int (Tbl.length t.pending))

let now_us t = Sim.now t.sim / 1000

(* --- Slow-path packet construction ------------------------------------ *)

(* The SYN options, held once so that refilling a pooled header boxes
   nothing. *)
let syn_mss = Some Tcp_header.mss
let syn_wscale = Some Tcp_header.wscale

(* A control segment from the NIC's packet pool, headers rewritten in
   place as [Fast_path.build_packet] does: no allocation once the pool is
   warm. *)
let build t (k : Addr.Four_tuple.t) ~(flags : Tcp_header.flags) ~seq ~ack_no
    ~window ~with_mss ~ts_ecr =
  let pkt = Packet.take t.pkt_pool in
  Tcp_header.fill pkt.Packet.tcp
    ?mss:(if with_mss then syn_mss else None)
    ?wscale:(if flags.Tcp_header.syn then syn_wscale else None)
    ~src_port:k.local_port ~dst_port:k.peer_port ~seq ~ack:ack_no ~flags
    ~window ~ts_val:(now_us t land 0xFFFF_FFFF) ~ts_ecr;
  Packet.fill pkt
    ~src_mac:(Nic.mac (Fast_path.nic t.fp))
    ~dst_mac:(Addr.host_mac (Addr.host_id_of_ip k.peer_ip))
    ~src_ip:k.local_ip ~dst_ip:k.peer_ip
    ~ecn:Tas_proto.Ipv4_header.Not_ect ~payload:Bytes.empty;
  pkt

(* RFC 7323: the window field of a non-SYN segment is read shifted left by
   the scale we advertised, so it carries the buffer shifted right (as
   [Fast_path.build_packet] does); SYN and SYN-ACK windows are unscaled. *)
let scaled_window t =
  min 65535 (t.config.Config.rx_buf_size asr Tcp_header.wscale)

let syn_flags = { Tcp_header.no_flags with Tcp_header.syn = true }
let synack_flags = { Tcp_header.no_flags with Tcp_header.syn = true; ack = true }
let rst_flags = { Tcp_header.no_flags with Tcp_header.rst = true; ack = true }

(* Segments for tuples with no local state (no listener, no pending
   handshake, no flow) are answered with an RST so the peer aborts promptly
   instead of retransmitting into the void. *)
let send_rst t k ~seq ~ack_no =
  t.rsts_sent <- t.rsts_sent + 1;
  lifecycle_ev t Event.Rst_sent k;
  trace_ev t Trace.Rst_tx ~flow:(-1);
  Fast_path.send_raw t.fp
    (build t k ~flags:rst_flags ~seq ~ack_no ~window:0 ~with_mss:false
       ~ts_ecr:0)

let send_syn t p =
  Fast_path.send_raw t.fp
    (build t p.p_tuple ~flags:syn_flags ~seq:p.p_iss ~ack_no:0
       ~window:(min 65535 t.config.Config.rx_buf_size)
       ~with_mss:true ~ts_ecr:0)

let send_synack t p =
  Fast_path.send_raw t.fp
    (build t p.p_tuple ~flags:synack_flags ~seq:p.p_iss
       ~ack_no:(Seq32.add p.p_peer_isn 1)
       ~window:(min 65535 t.config.Config.rx_buf_size)
       ~with_mss:true ~ts_ecr:p.p_peer_ts)

(* An ACK of a handshake or a FIN, from the flow's own sequence state. *)
let send_flow_ack t k flow ~ts_ecr =
  Fast_path.send_raw t.fp
    (build t k ~flags:Tcp_header.ack_flags ~seq:(Flow_state.seq flow)
       ~ack_no:(Flow_state.ack flow) ~window:(scaled_window t) ~with_mss:false
       ~ts_ecr)

(* --- Handshake timers --------------------------------------------------- *)

let cancel_pending_timer t p =
  match p.p_timer with
  | Some ev ->
    Sim.cancel t.sim ev;
    p.p_timer <- None
  | None -> ()

(* SYN / SYN-ACK retransmissions before the connection attempt is failed
   with [Timeout]. *)
let handshake_retries = 5

let rec arm_pending_timer t p =
  cancel_pending_timer t p;
  p.p_timer <-
    Some
      (Sim.schedule t.sim Fast_path.handshake_rto_ns (fun () ->
           p.p_timer <- None;
           if Tbl.mem t.pending p.p_tuple then begin
             if p.p_retries >= handshake_retries then begin
               Tbl.remove t.pending p.p_tuple;
               lifecycle_ev t Event.Handshake_failed p.p_tuple;
               p.p_cb.failed p.p_opaque Timeout
             end
             else begin
               p.p_retries <- p.p_retries + 1;
               (match p.p_state with
               | Syn_sent -> send_syn t p
               | Syn_received -> send_synack t p);
               arm_pending_timer t p
             end
           end))

(* --- Establishment ------------------------------------------------------ *)

let fresh_iss t =
  t.next_iss <- t.next_iss + 1;
  Seq32.of_int (t.next_iss * 83777)

let make_bucket t =
  let initial =
    if Config.rate_mode t.config then
      Interval_cc.Rate_bps t.config.Config.initial_rate_bps
    else Interval_cc.Window_bytes (10 * Tcp_header.mss)
  in
  let bucket =
    Rate_bucket.create t.sim
      (match initial with
      | Interval_cc.Rate_bps r -> Rate_bucket.Rate r
      | Interval_cc.Window_bytes w -> Rate_bucket.Window w)
      ~burst_bytes:(2 * Tcp_header.mss)
  in
  (bucket, Interval_cc.create t.config.Config.cc ~initial)

let establish t p =
  cancel_pending_timer t p;
  Tbl.remove t.pending p.p_tuple;
  if Flow_arena.available t.arena = 0 then begin
    (* No slot for the flow's state: refuse cleanly rather than fall back
       to heap allocation — exactly what a full C flow-state array does. *)
    t.arena_refusals <- t.arena_refusals + 1;
    lifecycle_ev t Event.Arena_exhausted p.p_tuple;
    if debug_on () then
      Log.debug (fun m ->
          m "arena exhausted, refusing %a" Addr.Four_tuple.pp p.p_tuple);
    send_rst t p.p_tuple ~seq:(Seq32.add p.p_iss 1)
      ~ack_no:(Seq32.add p.p_peer_isn 1);
    p.p_cb.failed p.p_opaque Refused;
    None
  end
  else begin
    let bucket, cc = make_bucket t in
    let tuple = p.p_tuple in
    let flow =
      Flow_state.create ~arena:t.arena ~pool:t.rings
        ~recovery:t.config.Config.recovery_policy
        ~ooo_ranges:
          (* No slot is the go-back-N receiver: the only place
             [rx_ooo_enabled] is read. SACK-class flows track 4 intervals,
             at most 3 of which fit an ACK beside the timestamp option. *)
          (if not t.config.Config.rx_ooo_enabled then 0
           else
             match t.config.Config.recovery_policy with
             | Tas_recovery.Policy.Reno -> 1
             | Tas_recovery.Policy.Sack | Tas_recovery.Policy.Rack_tlp -> 4)
        ~opaque:p.p_opaque ~context:p.p_context ~bucket
        ~rx_buf_size:t.config.Config.rx_buf_size
        ~tx_buf_size:t.config.Config.tx_buf_size ~local_port:tuple.local_port
        ~peer_ip:tuple.peer_ip ~peer_port:tuple.peer_port
        ~peer_mac:(Addr.host_mac (Addr.host_id_of_ip tuple.peer_ip))
        ~tx_iss:(Seq32.add p.p_iss 1)
        ~rx_next:(Seq32.add p.p_peer_isn 1)
        ~window:p.p_peer_window ~peer_wscale:p.p_peer_wscale ()
    in
    Flow_state.set_ts_recent flow p.p_peer_ts;
    let una = Flow_state.snd_una flow and now = Sim.now t.sim in
    let rec entry =
      {
        flow;
        f_tuple = tuple;
        cc;
        f_cb = p.p_cb;
        self = Some entry;
        last_una = una;
        stall_since = -1;
        next_cc_due = 0;
        last_collect = now;
        close_requested = false;
        fin_acked = false;
        fin_timer = None;
        fin_retries = 0;
        reap_una = una;
        reap_ack = Flow_state.ack flow;
        progress_since = now;
        removed = false;
      }
    in
    Tbl.add t.entries tuple entry;
    t.next_due <- 0 (* the new entry is due at once *);
    Fast_path.install_flow t.fp ~tuple flow;
    t.conn_setups <- t.conn_setups + 1;
    trace_ev t Trace.Conn_setup ~flow:(Flow_state.opaque flow);
    lifecycle_ev t Event.Established tuple;
    if debug_on () then
      Log.debug (fun m -> m "established %a" Addr.Four_tuple.pp tuple);
    p.p_cb.established flow;
    entry.self
  end

let remove_entry t entry =
  if not entry.removed then begin
    entry.removed <- true;
    (match entry.fin_timer with
    | Some ev -> Sim.cancel t.sim ev
    | None -> ());
    Fast_path.remove_flow t.fp ~tuple:entry.f_tuple;
    Tbl.remove t.entries entry.f_tuple;
    t.conn_teardowns <- t.conn_teardowns + 1;
    trace_ev t Trace.Conn_teardown ~flow:(Flow_state.opaque entry.flow);
    lifecycle_ev t Event.Closed entry.f_tuple;
    if debug_on () then
      Log.debug (fun m -> m "removed %a" Addr.Four_tuple.pp entry.f_tuple);
    entry.f_cb.closed entry.flow;
    (* Recycle the flow's payload rings and return its arena slot; stale
       handles (sockets, queued context events, pacing timers) keep a
       private copy of the final state and read closed rings. *)
    Flow_state.release ~pool:t.rings entry.flow
  end

(* --- Teardown ----------------------------------------------------------- *)

let fin_seq entry = Flow_state.seq entry.flow

(* FIN retransmissions, one per [fin_rto_ns], before the flow is forcibly
   torn down: unbounded FIN retry would leak flow state when the peer
   vanishes mid-close. *)
let fin_retries = 8
let fin_rto_ns = 20_000_000

let rec try_emit_fin t entry =
  let flow = entry.flow in
  if
    entry.close_requested
    && (not (Flow_state.fin_sent flow))
    && Ring.used (Flow_state.tx_buf flow) = 0
    && Flow_state.tx_sent flow = 0
  then begin
    Fast_path.emit_fin t.fp flow;
    arm_fin_timer t entry
  end

and arm_fin_timer t entry =
  (match entry.fin_timer with
  | Some ev -> Sim.cancel t.sim ev
  | None -> ());
  entry.fin_timer <-
    Some
      (Sim.schedule t.sim fin_rto_ns (fun () ->
           entry.fin_timer <- None;
           if (not entry.removed) && not entry.fin_acked then begin
             if entry.fin_retries >= fin_retries then begin
               (* The peer stopped acknowledging mid-close: force teardown
                  rather than retransmitting the FIN forever. *)
               t.fin_retry_exhausted <- t.fin_retry_exhausted + 1;
               lifecycle_ev t Event.Fin_retry_exhausted entry.f_tuple;
               if debug_on () then
                 Log.debug (fun m ->
                     m "fin retry exhausted %a" Addr.Four_tuple.pp
                       entry.f_tuple);
               remove_entry t entry
             end
             else begin
               entry.fin_retries <- entry.fin_retries + 1;
               Flow_state.set_fin_sent entry.flow false;
               try_emit_fin t entry
             end
           end))

let maybe_finish_teardown t entry =
  if entry.fin_acked && Flow_state.fin_received entry.flow then
    (* Abbreviated TIME_WAIT (1 ms). *)
    ignore (Sim.schedule t.sim 1_000_000 (fun () -> remove_entry t entry))

(* --- Exception processing ----------------------------------------------- *)

(* The handlers below look the packet's tuple up through [t.probe], which
   [process_exception] has written; nothing they call synchronously
   rewrites it (callbacks defer onto other cores). *)

(* No listener (or the listener refused): RST so the connecting peer fails
   fast instead of retrying the SYN to exhaustion. *)
let refuse_syn t k (tcp : Tcp_header.t) =
  send_rst t k ~seq:0 ~ack_no:(Seq32.add tcp.Tcp_header.seq 1)

let handle_syn t pkt k =
  let tcp = pkt.Packet.tcp in
  match Tbl.find t.pending k with
  | p ->
    (* Duplicate SYN: resend the SYN-ACK. *)
    if p.p_state = Syn_received then send_synack t p
  | exception Not_found ->
    if not (Tbl.mem t.entries k) then begin
      match Hashtbl.find t.listeners k.Addr.Four_tuple.local_port with
      | exception Not_found -> refuse_syn t k tcp
      | accept_fn -> begin
        let tuple = Addr.Four_tuple.copy k in
        match accept_fn tuple with
        | None -> refuse_syn t k tcp
        | Some (opaque, context_id, cb) ->
          let p =
            {
              p_tuple = tuple;
              p_opaque = opaque;
              p_context = context_id;
              p_iss = fresh_iss t;
              p_peer_isn = tcp.Tcp_header.seq;
              p_peer_window = tcp.Tcp_header.window;
              p_peer_wscale =
                (match tcp.Tcp_header.wscale with
                | Some w -> w
                | None -> 0);
              p_peer_ts =
                (if tcp.Tcp_header.has_ts then tcp.Tcp_header.ts_val else 0);
              p_state = Syn_received;
              p_retries = 0;
              p_timer = None;
              p_cb = cb;
            }
          in
          Tbl.add t.pending p.p_tuple p;
          lifecycle_ev t Event.Syn_received p.p_tuple;
          send_synack t p;
          arm_pending_timer t p
      end
    end

let handle_synack t pkt k =
  let tcp = pkt.Packet.tcp in
  match Tbl.find t.pending k with
  | p when p.p_state = Syn_sent && tcp.Tcp_header.ack = Seq32.add p.p_iss 1
    -> (
    p.p_peer_isn <- tcp.Tcp_header.seq;
    p.p_peer_window <- tcp.Tcp_header.window;
    (match tcp.Tcp_header.wscale with
    | Some w -> p.p_peer_wscale <- w
    | None -> p.p_peer_wscale <- 0);
    if tcp.Tcp_header.has_ts then p.p_peer_ts <- tcp.Tcp_header.ts_val;
    match establish t p with
    | None -> () (* arena full; the peer got an RST *)
    | Some entry ->
      (* Complete the handshake: ACK the SYN-ACK. *)
      send_flow_ack t entry.f_tuple entry.flow ~ts_ecr:p.p_peer_ts;
      (* Data may already be queued by an eager application. *)
      if Flow_state.tx_available entry.flow > 0 then
        Fast_path.notify_tx t.fp entry.flow)
  | _ | (exception Not_found) -> ()

let handle_handshake_ack t pkt k =
  let tcp = pkt.Packet.tcp in
  match Tbl.find t.pending k with
  | p
    when p.p_state = Syn_received && tcp.Tcp_header.ack = Seq32.add p.p_iss 1
    -> (
    p.p_peer_window <- tcp.Tcp_header.window lsl p.p_peer_wscale;
    match establish t p with
    | None -> ()
    | Some _ ->
      if Bytes.length pkt.Packet.payload > 0 then Fast_path.reinject t.fp pkt)
  | _ | (exception Not_found) -> (
    (* Possibly an ACK of our FIN. *)
    match Tbl.find t.entries k with
    | entry
      when Flow_state.fin_sent entry.flow
           && tcp.Tcp_header.ack = Seq32.add (fin_seq entry) 1 ->
      entry.fin_acked <- true;
      lifecycle_ev t Event.Fin_acked entry.f_tuple;
      if not (Flow_state.fin_received entry.flow) then
        (* Half-closed: wait for the peer's FIN. *)
        ()
      else maybe_finish_teardown t entry
    | _ -> ()
    | exception Not_found ->
      (* Neither a handshake in progress nor an installed flow: the tuple is
         unknown here (e.g. state already reclaimed). RST so the peer stops
         retransmitting. *)
      if not (Tbl.mem t.pending k) then
        send_rst t k ~seq:tcp.Tcp_header.ack
          ~ack_no:
            (Seq32.add tcp.Tcp_header.seq (Bytes.length pkt.Packet.payload)))

let handle_fin t pkt k =
  let tcp = pkt.Packet.tcp in
  match Tbl.find t.entries k with
  | exception Not_found ->
    if not (Tbl.mem t.pending k) then
      send_rst t k ~seq:tcp.Tcp_header.ack
        ~ack_no:
          (Seq32.add tcp.Tcp_header.seq (Bytes.length pkt.Packet.payload + 1))
  | entry ->
    let flow = entry.flow in
    let fin_pos = Seq32.add tcp.Tcp_header.seq (Bytes.length pkt.Packet.payload) in
    (* Accept the FIN only when all preceding data has been received;
       otherwise the peer retransmits. *)
    if fin_pos = Flow_state.ack flow && not (Flow_state.fin_received flow)
    then begin
      Flow_state.set_fin_received flow true;
      Flow_state.set_ack flow (Seq32.add (Flow_state.ack flow) 1);
      send_flow_ack t entry.f_tuple flow ~ts_ecr:(Flow_state.ts_recent flow);
      lifecycle_ev t Event.Peer_fin entry.f_tuple;
      entry.f_cb.peer_closed flow;
      maybe_finish_teardown t entry
    end
    else if
      Flow_state.fin_received flow
      && fin_pos = Seq32.add (Flow_state.ack flow) (-1)
    then
      (* Duplicate FIN: re-ack. *)
      send_flow_ack t entry.f_tuple flow ~ts_ecr:(Flow_state.ts_recent flow)

let handle_rst t pkt k =
  let tcp = pkt.Packet.tcp in
  lifecycle_ev t Event.Rst k;
  (match Tbl.find t.pending k with
  | p ->
    cancel_pending_timer t p;
    Tbl.remove t.pending k;
    (* An RST during SYN_SENT is a refusal (nobody listening); during
       SYN_RECEIVED the peer aborted its own half-open attempt. *)
    p.p_cb.failed p.p_opaque
      (match p.p_state with Syn_sent -> Refused | Syn_received -> Reset)
  | exception Not_found -> ());
  match Tbl.find t.entries k with
  | entry ->
    (* Light in-window validation: an RST whose sequence is nowhere near
       what we expect next is a stray (or spoofed) segment and is ignored,
       the standard mitigation against blind-reset injection. *)
    let flow = entry.flow in
    let diff = Seq32.diff tcp.Tcp_header.seq (Flow_state.ack flow) in
    if diff >= -1 && diff <= t.config.Config.rx_buf_size then begin
      entry.f_cb.reset flow;
      remove_entry t entry
    end
  | exception Not_found -> ()

let process_exception t pkt =
  let tcp = pkt.Packet.tcp in
  let flags = tcp.Tcp_header.flags in
  let k = t.probe in
  Packet.write_tuple_at_receiver pkt k;
  if flags.Tcp_header.rst then handle_rst t pkt k
  else if flags.Tcp_header.syn && flags.Tcp_header.ack then
    handle_synack t pkt k
  else if flags.Tcp_header.syn then handle_syn t pkt k
  else if flags.Tcp_header.fin then handle_fin t pkt k
  else if flags.Tcp_header.ack then begin
    if Bytes.length pkt.Packet.payload > 0 && Tbl.mem t.entries k then
      (* The flow was installed between fast-path lookup and now: a data
         packet racing connection setup. Put it back on the fast path. *)
      Fast_path.reinject t.fp pkt
    else handle_handshake_ack t pkt k
  end

(* --- Congestion-control loop -------------------------------------------- *)

(* The CC loop period in RTTs, above [Config.control_interval_min_ns]. *)
let control_interval_rtts = 2

let control_interval_ns t entry =
  match t.config.Config.control_interval_fixed_ns with
  | Some fixed -> fixed
  | None ->
    let rtt = Flow_state.rtt_est entry.flow in
    max t.config.Config.control_interval_min_ns
      (control_interval_rtts * rtt)

(* A flow is only declared timed out when snd_una has been frozen for at
   least [timeout_intervals] control intervals AND longer than a few RTTs
   AND longer than its own pacing gap — otherwise a paced low-rate flow or
   queueing delay beyond tau triggers spurious retransmissions that halve
   the rate and spiral. *)
let stall_threshold_ns t entry =
  let flow = entry.flow in
  let base =
    t.config.Config.timeout_intervals * control_interval_ns t entry
  in
  (* New flows have no RTT estimate yet; assume a conservative 250 us so
     the effective minimum RTO is ~1 ms (datacenter-tuned Linux uses more). *)
  let rtt_guard = 4 * max (Flow_state.rtt_est flow) 250_000 in
  let pacing_guard =
    Rate_bucket.ns_to_send (Flow_state.bucket flow) (4 * Tcp_header.mss)
  in
  max base (max rtt_guard pacing_guard)

(* Dead-flow reaping: a flow with work outstanding (in-flight data, queued
   payload, or a close in progress) whose sequence state makes no progress
   for [dead_flow_timeout_ns] has lost its peer without so much as an RST.
   Reap it: reset the peer (in case it comes back), notify the owner, free
   the state. Quiescent-but-healthy flows refresh the timer and are never
   reaped. *)
let reap_check t entry now =
  match t.config.Config.dead_flow_timeout_ns with
  | None -> ()
  | Some dt ->
    let flow = entry.flow in
    let quiescent =
      Flow_state.tx_sent flow = 0
      && Ring.used (Flow_state.tx_buf flow) = 0
      && (not entry.close_requested)
      && (not (Flow_state.fin_sent flow))
      && not (Flow_state.fin_received flow)
    in
    let una = Flow_state.snd_una flow in
    let progressed =
      una <> entry.reap_una || Flow_state.ack flow <> entry.reap_ack
    in
    if quiescent || progressed then begin
      entry.reap_una <- una;
      entry.reap_ack <- Flow_state.ack flow;
      entry.progress_since <- now
    end
    else if now - entry.progress_since >= dt then begin
      t.flows_reaped <- t.flows_reaped + 1;
      lifecycle_ev t Event.Flow_reaped entry.f_tuple;
      if debug_on () then
        Log.debug (fun m -> m "reaped %a" Addr.Four_tuple.pp entry.f_tuple);
      send_rst t entry.f_tuple ~seq:(Flow_state.seq flow)
        ~ack_no:(Flow_state.ack flow);
      entry.f_cb.reset flow;
      remove_entry t entry
    end

let run_control_iteration t entry =
  let flow = entry.flow in
  let now = Sim.now t.sim in
  let interval = now - entry.last_collect in
  entry.last_collect <- now;
  (* Timeout detection: unacked data stuck across control intervals. *)
  let una = Flow_state.snd_una flow in
  let timeouts =
    if Flow_state.tx_sent flow > 0 && una = entry.last_una then begin
      if entry.stall_since < 0 then entry.stall_since <- now;
      if now - entry.stall_since >= stall_threshold_ns t entry then begin
        entry.stall_since <- -1;
        t.timeout_retransmits <- t.timeout_retransmits + 1;
        trace_ev t Trace.Timeout_rexmit ~flow:(Flow_state.opaque flow);
        if debug_on () then
          Log.debug (fun m ->
              m "timeout retransmit %a" Addr.Four_tuple.pp entry.f_tuple);
        Fast_path.trigger_retransmit t.fp flow;
        1
      end
      else 0
    end
    else begin
      entry.stall_since <- -1;
      0
    end
  in
  entry.last_una <- una;
  let fb = t.feedback in
  fb.Interval_cc.acked_bytes <- Flow_state.cnt_ackb flow;
  fb.Interval_cc.ecn_bytes <- Flow_state.cnt_ecnb flow;
  fb.Interval_cc.fast_retransmits <- Flow_state.cnt_frexmits flow;
  fb.Interval_cc.timeouts <- timeouts;
  fb.Interval_cc.rtt_ns <- Flow_state.rtt_est flow;
  fb.Interval_cc.interval_ns <- interval;
  Flow_state.set_cnt_ackb flow 0;
  Flow_state.set_cnt_ecnb flow 0;
  Flow_state.set_cnt_frexmits flow 0;
  Interval_cc.update entry.cc fb;
  Rate_bucket.set_control (Flow_state.bucket flow) entry.cc;
  (* A higher rate or wider window may unblock transmission. *)
  if Flow_state.tx_available flow > 0 && not (Flow_state.tx_timer_armed flow)
  then Fast_path.notify_tx t.fp flow;
  (* Teardown progress. *)
  if entry.close_requested && not (Flow_state.fin_sent flow) then
    try_emit_fin t entry;
  if not entry.removed then reap_check t entry now

(* One tick's snapshot of due flows, run as one batch on the slow-path
   core; see [control_tick]. *)
let cc_step t =
  for _ = 1 to Fifo.pop t.due_batches do
    match Fifo.pop t.due with
    | Some entry when not entry.removed ->
      run_control_iteration t entry;
      entry.next_cc_due <- Sim.now t.sim + control_interval_ns t entry
    | _ -> ()
  done

(* Snapshot the due flows into [t.due] and queue one batch for them. The
   batch runs once the slow-path core gets to it, possibly after the next
   tick has queued another: batches pop their entries in tick order, since
   one core's queued work runs in the order it was queued. Entries run in
   the reverse of the table's iteration order (the order of the list this
   snapshot replaced).

   The table walk is [filter_map_inplace] keeping every binding: it visits
   the bindings in [iter]'s order, but through a top-level function, where
   [iter] builds a closure per call; [collect_due] returns each entry's own
   preallocated [Some], so the walk allocates nothing. It rewrites every
   bucket and link in place, though, which costs more than [iter]'s reads:
   ticks before [next_due] skip it, so flows with long control intervals
   (wide-area RTTs) are walked about when one is due, not on every tick. *)
let control_tick t =
  let now = Sim.now t.sim in
  if now >= t.next_due then begin
    t.tick_now <- now;
    t.walk_min <- max_int;
    let before = Fifo.length t.due in
    Tbl.filter_map_inplace t.collect_due t.entries;
    (* Entries the batch below will run still count with their current
       due time, so the next tick walks again and finds them rescheduled
       (or still due, as a walk of every tick would). *)
    t.next_due <- t.walk_min;
    let n = Fifo.length t.due - before in
    if n > 0 then begin
      Fifo.reverse_last t.due n;
      Fifo.push t.due_batches n;
      Core.run t.core ~cat:Core.Cc
        ~cycles:(n * t.config.Config.sp_flow_control_cycles)
        t.cc_step
    end
  end

(* --- Workload proportionality -------------------------------------------- *)

(* All dynamic scaling routes through the elastic controller
   (lib/control): this tick only gathers the per-interval signals; the
   policy decides and the controller actuates via the closure wired in
   [create] (Fast_path.set_active_cores -> RSS rewrite -> migration). *)
let scale_tick t ctl =
  let window = t.config.Config.scale_check_interval_ns in
  let core_idle = Fast_path.core_idle_fractions t.fp ~window_ns:window in
  let active = Fast_path.active_cores t.fp in
  let idle = ref 0.0 in
  for i = 0 to active - 1 do
    idle := !idle +. core_idle.(i)
  done;
  let ft = Fast_path.flows t.fp in
  let arena_occupancy =
    float_of_int (Flow_arena.live t.arena)
    /. float_of_int (Flow_arena.capacity t.arena)
  in
  let flows = Flow_table.count ft in
  let shard_imbalance =
    let n = Flow_table.num_shards ft in
    if n <= 1 || flows = 0 then 1.0
    else begin
      let max_s = ref 0 in
      for i = 0 to n - 1 do
        let s = (Flow_table.shard_stats ft i).Tas_shard.Flow_shards.flows in
        if s > !max_s then max_s := s
      done;
      float_of_int !max_s /. (float_of_int flows /. float_of_int n)
    end
  in
  let signals =
    {
      Tas_control.Policy.s_ts = Sim.now t.sim;
      s_active = active;
      s_max_cores = t.config.Config.max_fast_path_cores;
      s_idle_cores = !idle;
      s_core_idle = core_idle;
      s_sp_backlog_ns = Core.backlog_ns t.core;
      s_flows = flows;
      s_arena_occupancy = arena_occupancy;
      s_shard_imbalance = shard_imbalance;
      s_p99_us = -1.0 (* substituted by the controller's probe, if wired *);
    }
  in
  ignore (Tas_control.Controller.tick ctl signals)

(* --- Close -------------------------------------------------------------- *)

let close_step t =
  let flow = Fifo.pop t.closes in
  let k = t.probe in
  k.local_ip <- Nic.ip (Fast_path.nic t.fp);
  k.local_port <- Flow_state.local_port flow;
  k.peer_ip <- Flow_state.peer_ip flow;
  k.peer_port <- Flow_state.peer_port flow;
  match Tbl.find t.entries k with
  | exception Not_found -> ()
  | entry ->
    if not entry.close_requested then begin
      entry.close_requested <- true;
      lifecycle_ev t Event.Close_requested entry.f_tuple;
      try_emit_fin t entry
    end

(* --- Construction -------------------------------------------------------- *)

let create sim ~fast_path ~core ~config =
  let t =
    {
      sim;
      fp = fast_path;
      core;
      config;
      pkt_pool = Nic.packet_pool (Fast_path.nic fast_path);
      arena = Flow_arena.create ~capacity:config.Config.flow_arena_capacity ();
      rings = Ring.Pool.create ();
      listeners = Hashtbl.create 16;
      pending = Tbl.create 64;
      entries = Tbl.create 1024;
      probe = Addr.Four_tuple.probe ();
      feedback =
        {
          Interval_cc.acked_bytes = 0;
          ecn_bytes = 0;
          fast_retransmits = 0;
          timeouts = 0;
          rtt_ns = 0;
          interval_ns = 0;
        };
      lifecycle = lifecycle_create ();
      exceptions = Fifo.create Packet.sentinel;
      exception_step = ignore;
      closes = Fifo.create Flow_state.absent;
      close_step = ignore;
      due = Fifo.create None;
      due_batches = Fifo.create 0;
      cc_step = ignore;
      collect_due = (fun _ e -> e.self);
      tick_now = 0;
      next_due = max_int;
      walk_min = max_int;
      next_iss = 7;
      conn_setups = 0;
      conn_teardowns = 0;
      timeout_retransmits = 0;
      rsts_sent = 0;
      fin_retry_exhausted = 0;
      flows_reaped = 0;
      arena_refusals = 0;
      port_exhaustions = 0;
      registry = None;
      scale_observer = (fun _ _ -> ());
      controller = None;
    }
  in
  (* The persistent thunks and the table-walk callback: built once here,
     so neither a packet, a close, nor a tick builds a closure. *)
  t.exception_step <-
    (fun () ->
      let pkt = Fifo.pop t.exceptions in
      process_exception t pkt;
      Packet.release pkt);
  t.close_step <- (fun () -> close_step t);
  t.cc_step <- (fun () -> cc_step t);
  t.collect_due <-
    (fun _ entry ->
      let due = entry.next_cc_due in
      if due < t.walk_min then t.walk_min <- due;
      if (not entry.removed) && due <= t.tick_now then
        Fifo.push t.due entry.self;
      entry.self);
  Fast_path.set_exception_handler t.fp (fun pkt ->
      (* The handler returns before the deferred work runs; hold a reference
         so the fast path's own release cannot recycle the payload under the
         pending slow-path processing. The FIFO hands the packets to
         [exception_step] in arrival order: the core runs queued work in
         the order it was queued. *)
      Packet.retain pkt;
      Fifo.push t.exceptions pkt;
      Core.run t.core ~cat:Core.Conn ~cycles:config.Config.sp_conn_cycles
        t.exception_step);
  let tick_interval =
    match config.Config.control_interval_fixed_ns with
    | Some fixed -> max fixed 10_000
    | None -> config.Config.control_interval_min_ns
  in
  ignore (Sim.periodic sim tick_interval (fun () -> control_tick t));
  if config.Config.dynamic_scaling then begin
    let ctl =
      Tas_control.Controller.create ~policy:config.Config.scale_policy
        ~trace:(Fast_path.trace fast_path) ~min_cores:1
        ~max_cores:config.Config.max_fast_path_cores
        ~actuate:(fun n ->
          Fast_path.set_active_cores t.fp n;
          trace_ev t Trace.Core_scale ~flow:(-1);
          t.scale_observer (Sim.now t.sim) n)
        ()
    in
    t.controller <- Some ctl;
    ignore
      (Sim.periodic sim config.Config.scale_check_interval_ns (fun () ->
           scale_tick t ctl))
  end;
  t

let listen t ~port accept_fn = Hashtbl.replace t.listeners port accept_fn

let connect t ~opaque ~context_id ~dst_ip ~dst_port cb =
  Core.run t.core ~cat:Core.Conn ~cycles:t.config.Config.sp_conn_cycles
    (fun () ->
      let k = t.probe in
      k.local_ip <- Nic.ip (Fast_path.nic t.fp);
      k.peer_ip <- dst_ip;
      k.peer_port <- dst_port;
      (* Ephemeral port allocation: scan from a rotating base. The stride
         is coprime with the 63,000-port range, so 65,536 probes visit
         every port. *)
      let rec pick_port attempt =
        if attempt > 65535 then false
        else begin
          t.next_iss <- t.next_iss + 1;
          k.local_port <- 2048 + ((t.next_iss * 7919) mod 63000);
          if Tbl.mem t.pending k || Tbl.mem t.entries k then
            pick_port (attempt + 1)
          else true
        end
      in
      if not (pick_port 0) then begin
        (* Every ephemeral port toward this peer is taken: refuse the
           connect, as a full arena does. *)
        t.port_exhaustions <- t.port_exhaustions + 1;
        (match t.registry with
        | Some m when t.port_exhaustions = 1 ->
          Metrics.counter_fn m
            ~help:"connects refused: every ephemeral port toward the peer \
                   was taken"
            "sp_port_exhaustions" (fun () -> t.port_exhaustions)
        | _ -> ());
        cb.failed opaque Refused
      end
      else begin
        let p =
          {
            p_tuple = Addr.Four_tuple.copy k;
            p_opaque = opaque;
            p_context = context_id;
            p_iss = fresh_iss t;
            p_peer_isn = 0;
            p_peer_window = Tcp_header.mss;
            p_peer_wscale = 0;
            p_peer_ts = 0;
            p_state = Syn_sent;
            p_retries = 0;
            p_timer = None;
            p_cb = cb;
          }
        in
        Tbl.add t.pending p.p_tuple p;
        lifecycle_ev t Event.Syn_sent p.p_tuple;
        send_syn t p;
        arm_pending_timer t p
      end)

let close t flow =
  Fifo.push t.closes flow;
  Core.run t.core ~cat:Core.Conn ~cycles:t.config.Config.sp_conn_cycles
    t.close_step

let kick_control_loop t = control_tick t
