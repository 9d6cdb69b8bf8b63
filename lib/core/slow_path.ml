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

type conn_callbacks = {
  established : Flow_state.t -> unit;
  failed : int -> conn_error -> unit;
  reset : Flow_state.t -> unit;
  peer_closed : Flow_state.t -> unit;
  closed : Flow_state.t -> unit;
}

module Tbl = Addr.Four_tuple.Tbl

type state = Syn_sent | Syn_received | Established | Closed

(* One record per connection, from its SYN to its removal, in one table.
   The flow and its controller are set in place at establishment; until
   then they are [Flow_state.absent] and [no_cc]. The tuple is shared with
   the fast path's flow table and never mutated once in the table. *)
type conn = {
  tuple : Addr.Four_tuple.t;
  opaque : int;
  context : int;
  cb : conn_callbacks;
  mutable state : state;
  mutable iss : Seq32.t;
  mutable peer_isn : Seq32.t;
  mutable peer_window : int;
  mutable peer_wscale : int;
  mutable peer_ts : int;
  mutable retries : int;  (* SYN or SYN-ACK, then FIN, retransmissions *)
  mutable timer : Sim.event;  (* [Sim.no_event] while unarmed *)
  mutable fire : unit -> unit;  (* the timer's action *)
  mutable self : conn option;
      (* [Some] of this record: what [control_tick]'s walk returns and
         snapshots. [fire] and [self] are set once, by [make_conn]: a
         [let rec] record is allocated twice. *)
  mutable flow : Flow_state.t;
  mutable cc : Interval_cc.t;
  mutable last_una : Seq32.t;
  mutable stall_since : int;  (* -1 = not currently stalled *)
  mutable next_cc_due : int;
  mutable last_collect : int;
  mutable close_requested : bool;
  mutable fin_acked : bool;
  mutable reap_una : Seq32.t;  (* snd_una at the last observed progress *)
  mutable reap_ack : Seq32.t;  (* rcv ack at the last observed progress *)
  mutable progress_since : int;  (* timestamp of the last observed progress *)
}

(* Placeholders of a record that is not established, and of the connect
   queue's vacated slots. Never updated. *)
let no_cc = Interval_cc.create Interval_cc.Fixed_rate ~initial:(Window_bytes 0)

let no_callbacks =
  {
    established = ignore;
    failed = (fun _ _ -> ());
    reset = ignore;
    peer_closed = ignore;
    closed = ignore;
  }

let make_conn tuple ~opaque ~context ~cb ~state on_timer =
  let c =
    {
      tuple;
      opaque;
      context;
      cb;
      state;
      iss = 0;
      peer_isn = 0;
      peer_window = Tcp_header.mss;
      peer_wscale = 0;
      peer_ts = 0;
      retries = 0;
      timer = Sim.no_event;
      fire = ignore;
      self = None;
      flow = Flow_state.absent;
      cc = no_cc;
      last_una = 0;
      stall_since = -1;
      next_cc_due = 0;
      last_collect = 0;
      close_requested = false;
      fin_acked = false;
      reap_una = 0;
      reap_ack = 0;
      progress_since = 0;
    }
  in
  c.fire <- (fun () -> on_timer c);
  c.self <- Some c;
  c

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
  conns : conn Tbl.t;
      (* every connection; established ones in establishment order within
         a bucket, which is the order the control tick walks them *)
  mutable handshakes : int;  (* records of [conns] not yet established *)
  mutable on_timer : conn -> unit;  (* every record's timer action *)
  probe : Addr.Four_tuple.t;
      (* scratch lookup key, written from packet headers or a flow; only
         ever passed to lookups, never stored *)
  feedback : Interval_cc.feedback;  (* refilled by every control iteration *)
  lifecycle : lifecycle;
  exceptions : Packet.t Core.queue;  (* packets the fast path handed over *)
  connects : conn Core.queue;  (* connect requests *)
  closes : Flow_state.t Core.queue;  (* close requests *)
  due : conn option Fifo.t;
      (* control iterations snapshotted by ticks, as each record's [self] *)
  due_batches : int Core.queue;  (* records per tick snapshot *)
  mutable collect_due : Addr.Four_tuple.t -> conn -> conn option;
      (* the tick's table-walk callback, built once *)
  mutable tick_now : int;  (* the running tick's clock, for [collect_due] *)
  mutable next_due : int;
      (* at most every established record's [next_cc_due]: a tick before
         it finds none due, so it skips the table walk *)
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
      (* the elastic core controller; [Some] iff [Config.autoscale] is *)
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

let flow_count t = Tbl.length t.conns - t.handshakes
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
    "sp_flows" (fun () -> float_of_int (flow_count t));
  Metrics.gauge_fn m ~help:"handshakes in progress" "sp_pending_handshakes"
    (fun () -> float_of_int t.handshakes)

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

(* The handshake's SYN, or on the passive side its SYN-ACK. *)
let send_syn t c =
  let synack = c.state = Syn_received in
  Fast_path.send_raw t.fp
    (build t c.tuple
       ~flags:(if synack then synack_flags else syn_flags)
       ~seq:c.iss
       ~ack_no:(if synack then Seq32.add c.peer_isn 1 else 0)
       ~window:(min 65535 t.config.Config.rx_buf_size)
       ~with_mss:true ~ts_ecr:c.peer_ts)

(* An ACK of a handshake or a FIN, from the flow's own sequence state. *)
let send_flow_ack t k flow ~ts_ecr =
  Fast_path.send_raw t.fp
    (build t k ~flags:Tcp_header.ack_flags ~seq:(Flow_state.seq flow)
       ~ack_no:(Flow_state.ack flow) ~window:(scaled_window t) ~with_mss:false
       ~ts_ecr)

(* What the peer's SYN or SYN-ACK says. *)
let read_peer_syn c (tcp : Tcp_header.t) =
  c.peer_isn <- tcp.Tcp_header.seq;
  c.peer_window <- tcp.Tcp_header.window;
  c.peer_wscale <- (match tcp.Tcp_header.wscale with Some w -> w | None -> 0);
  if tcp.Tcp_header.has_ts then c.peer_ts <- tcp.Tcp_header.ts_val

(* --- The connection timer ------------------------------------------------ *)

(* A record's one timer, re-armed in place: its action is the record's own
   [fire], so arming allocates nothing. *)
let arm t c dt =
  Sim.cancel t.sim c.timer;
  c.timer <- Sim.schedule t.sim dt c.fire

(* SYN / SYN-ACK retransmissions before the connection attempt is failed
   with [Timeout]. *)
let handshake_retries = 5

(* FIN retransmissions, one per [fin_rto_ns], before the flow is forcibly
   torn down: unbounded FIN retry would leak flow state when the peer
   vanishes mid-close. *)
let fin_retries = 8
let fin_rto_ns = 20_000_000

let time_wait_ns = 1_000_000 (* abbreviated, once both FINs are acked *)

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

(* The handshake is over: the record leaves the table. *)
let drop_handshake t c =
  Sim.cancel t.sim c.timer;
  Tbl.remove t.conns c.tuple;
  t.handshakes <- t.handshakes - 1;
  c.state <- Closed

(* The handshake completed: set the flow and its controller in place and
   re-add the record, so that within its bucket it sits where a flow
   established now belongs. False when the arena refused the flow. *)
let establish t c =
  drop_handshake t c;
  if Flow_arena.available t.arena = 0 then begin
    (* No slot for the flow's state: refuse cleanly rather than fall back
       to heap allocation — exactly what a full C flow-state array does. *)
    t.arena_refusals <- t.arena_refusals + 1;
    lifecycle_ev t Event.Arena_exhausted c.tuple;
    if debug_on () then
      Log.debug (fun m ->
          m "arena exhausted, refusing %a" Addr.Four_tuple.pp c.tuple);
    send_rst t c.tuple ~seq:(Seq32.add c.iss 1)
      ~ack_no:(Seq32.add c.peer_isn 1);
    c.cb.failed c.opaque Refused;
    false
  end
  else begin
    let bucket, cc = make_bucket t in
    let tuple = c.tuple in
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
        ~opaque:c.opaque ~context:c.context ~bucket
        ~rx_buf_size:t.config.Config.rx_buf_size
        ~tx_buf_size:t.config.Config.tx_buf_size ~local_port:tuple.local_port
        ~peer_ip:tuple.peer_ip ~peer_port:tuple.peer_port
        ~peer_mac:(Addr.host_mac (Addr.host_id_of_ip tuple.peer_ip))
        ~tx_iss:(Seq32.add c.iss 1)
        ~rx_next:(Seq32.add c.peer_isn 1)
        ~window:c.peer_window ~peer_wscale:c.peer_wscale ()
    in
    Flow_state.set_ts_recent flow c.peer_ts;
    let una = Flow_state.snd_una flow and now = Sim.now t.sim in
    c.state <- Established;
    c.flow <- flow;
    c.cc <- cc;
    c.retries <- 0;
    c.last_una <- una;
    c.last_collect <- now;
    c.reap_una <- una;
    c.reap_ack <- Flow_state.ack flow;
    c.progress_since <- now;
    Tbl.add t.conns tuple c;
    t.next_due <- 0 (* the new flow is due at once *);
    Fast_path.install_flow t.fp ~tuple flow;
    t.conn_setups <- t.conn_setups + 1;
    trace_ev t Trace.Conn_setup ~flow:(Flow_state.opaque flow);
    lifecycle_ev t Event.Established tuple;
    if debug_on () then
      Log.debug (fun m -> m "established %a" Addr.Four_tuple.pp tuple);
    c.cb.established flow;
    true
  end

(* Remove an established flow; a no-op on any other record. *)
let remove t c =
  if c.state = Established then begin
    c.state <- Closed;
    Sim.cancel t.sim c.timer;
    Fast_path.remove_flow t.fp ~tuple:c.tuple;
    Tbl.remove t.conns c.tuple;
    t.conn_teardowns <- t.conn_teardowns + 1;
    trace_ev t Trace.Conn_teardown ~flow:(Flow_state.opaque c.flow);
    lifecycle_ev t Event.Closed c.tuple;
    if debug_on () then
      Log.debug (fun m -> m "removed %a" Addr.Four_tuple.pp c.tuple);
    c.cb.closed c.flow;
    (* Recycle the flow's payload rings and return its arena slot; stale
       handles (sockets, queued context events, pacing timers) keep a
       private copy of the final state and read closed rings. *)
    Flow_state.release ~sim:t.sim ~pool:t.rings c.flow
  end

(* --- Teardown ----------------------------------------------------------- *)

let try_emit_fin t c =
  let flow = c.flow in
  if
    c.close_requested
    && (not (Flow_state.fin_sent flow))
    && Ring.used (Flow_state.tx_buf flow) = 0
    && Flow_state.tx_sent flow = 0
  then begin
    Fast_path.emit_fin t.fp flow;
    arm t c fin_rto_ns
  end

(* The one timer's action, by state: a handshake's SYN or SYN-ACK
   retransmission, then [Timeout]; an established flow's FIN
   retransmission, then forced teardown, or once both FINs are acknowledged
   the end of TIME_WAIT. A FIN timer that outlives the ACK of our FIN does
   nothing. *)
let timer_fire t c =
  match c.state with
  | Syn_sent | Syn_received ->
    if c.retries >= handshake_retries then begin
      drop_handshake t c;
      lifecycle_ev t Event.Handshake_failed c.tuple;
      c.cb.failed c.opaque Timeout
    end
    else begin
      c.retries <- c.retries + 1;
      send_syn t c;
      arm t c Fast_path.handshake_rto_ns
    end
  | Established when c.fin_acked ->
    if Flow_state.fin_received c.flow then remove t c
  | Established ->
    if c.retries >= fin_retries then begin
      (* The peer stopped acknowledging mid-close: force teardown rather
         than retransmitting the FIN forever. *)
      t.fin_retry_exhausted <- t.fin_retry_exhausted + 1;
      lifecycle_ev t Event.Fin_retry_exhausted c.tuple;
      if debug_on () then
        Log.debug (fun m ->
            m "fin retry exhausted %a" Addr.Four_tuple.pp c.tuple);
      remove t c
    end
    else begin
      c.retries <- c.retries + 1;
      Flow_state.set_fin_sent c.flow false;
      try_emit_fin t c
    end
  | Closed -> ()

(* --- Exception processing ----------------------------------------------- *)

(* [process_exception] writes the packet's tuple into [t.probe] and looks
   it up; nothing the handlers call synchronously rewrites it (callbacks
   defer onto other cores). *)

(* A SYN for a tuple with no record goes to the listener. No listener, or
   a refusal, is answered with an RST so the connecting peer fails fast
   instead of retrying the SYN to exhaustion. *)
let refuse_syn t k (tcp : Tcp_header.t) =
  send_rst t k ~seq:0 ~ack_no:(Seq32.add tcp.Tcp_header.seq 1)

let accept_syn t k (tcp : Tcp_header.t) =
  match Hashtbl.find t.listeners k.Addr.Four_tuple.local_port with
  | exception Not_found -> refuse_syn t k tcp
  | accept_fn -> (
    let tuple = Addr.Four_tuple.copy k in
    match accept_fn tuple with
    | None -> refuse_syn t k tcp
    | Some (opaque, context, cb) ->
      let c =
        make_conn tuple ~opaque ~context ~cb ~state:Syn_received t.on_timer
      in
      c.iss <- fresh_iss t;
      read_peer_syn c tcp;
      Tbl.add t.conns tuple c;
      t.handshakes <- t.handshakes + 1;
      lifecycle_ev t Event.Syn_received tuple;
      send_syn t c;
      arm t c Fast_path.handshake_rto_ns)

let handle_synack t c (tcp : Tcp_header.t) =
  if c.state = Syn_sent && tcp.Tcp_header.ack = Seq32.add c.iss 1 then begin
    read_peer_syn c tcp;
    if establish t c then begin
      (* Complete the handshake: ACK the SYN-ACK. *)
      send_flow_ack t c.tuple c.flow ~ts_ecr:c.peer_ts;
      (* Data may already be queued by an eager application. *)
      if Flow_state.tx_available c.flow > 0 then Fast_path.notify_tx t.fp c.flow
    end
  end

(* A pure ACK or a data segment: the handshake's last ACK, possibly with
   data; data racing the flow's installation; or the ACK of our FIN, after
   which TIME_WAIT is armed once both FINs are acknowledged. *)
let handle_ack t c pkt =
  let tcp = pkt.Packet.tcp in
  let has_data = Bytes.length pkt.Packet.payload > 0 in
  match c.state with
  | Syn_received when tcp.Tcp_header.ack = Seq32.add c.iss 1 ->
    c.peer_window <- tcp.Tcp_header.window lsl c.peer_wscale;
    if establish t c && has_data then Fast_path.reinject t.fp pkt
  | Established when has_data ->
    (* The flow was installed between fast-path lookup and now: a data
       packet racing connection setup. Put it back on the fast path. *)
    Fast_path.reinject t.fp pkt
  | Established
    when Flow_state.fin_sent c.flow
         && tcp.Tcp_header.ack = Seq32.add (Flow_state.seq c.flow) 1 ->
    let first = not c.fin_acked in
    c.fin_acked <- true;
    lifecycle_ev t Event.Fin_acked c.tuple;
    if first && Flow_state.fin_received c.flow then arm t c time_wait_ns
  | _ -> ()

let handle_fin t c pkt =
  let tcp = pkt.Packet.tcp in
  if c.state = Established then begin
    let flow = c.flow in
    let fin_pos = Seq32.add tcp.Tcp_header.seq (Bytes.length pkt.Packet.payload) in
    (* Accept the FIN only when all preceding data has been received;
       otherwise the peer retransmits. *)
    if fin_pos = Flow_state.ack flow && not (Flow_state.fin_received flow)
    then begin
      Flow_state.set_fin_received flow true;
      Flow_state.set_ack flow (Seq32.add (Flow_state.ack flow) 1);
      send_flow_ack t c.tuple flow ~ts_ecr:(Flow_state.ts_recent flow);
      lifecycle_ev t Event.Peer_fin c.tuple;
      c.cb.peer_closed flow;
      if c.fin_acked then arm t c time_wait_ns
    end
    else if
      Flow_state.fin_received flow
      && fin_pos = Seq32.add (Flow_state.ack flow) (-1)
    then
      (* Duplicate FIN: re-ack. *)
      send_flow_ack t c.tuple flow ~ts_ecr:(Flow_state.ts_recent flow)
  end

let handle_rst t c (tcp : Tcp_header.t) =
  match c.state with
  | Syn_sent | Syn_received ->
    (* An RST during SYN_SENT is a refusal (nobody listening); during
       SYN_RECEIVED the peer aborted its own half-open attempt. *)
    let err = if c.state = Syn_sent then Refused else Reset in
    drop_handshake t c;
    c.cb.failed c.opaque err
  | Established ->
    (* Light in-window validation: an RST whose sequence is nowhere near
       what we expect next is a stray (or spoofed) segment and is ignored,
       the standard mitigation against blind-reset injection. *)
    let flow = c.flow in
    let diff = Seq32.diff tcp.Tcp_header.seq (Flow_state.ack flow) in
    if diff >= -1 && diff <= t.config.Config.rx_buf_size then begin
      c.cb.reset flow;
      remove t c
    end
  | Closed -> ()

(* One lookup per exception, then one match on what the record is. A
   segment for a tuple with no record is answered with an RST (no
   listener, no handshake, no flow), so the peer aborts promptly instead
   of retransmitting into the void; a SYN goes to the listener. *)
let process_exception t pkt =
  let tcp = pkt.Packet.tcp in
  let flags = tcp.Tcp_header.flags in
  let k = t.probe in
  Packet.write_tuple_at_receiver pkt k;
  if flags.Tcp_header.rst then lifecycle_ev t Event.Rst k;
  match Tbl.find t.conns k with
  | c ->
    if flags.Tcp_header.rst then handle_rst t c tcp
    else if flags.Tcp_header.syn && flags.Tcp_header.ack then
      handle_synack t c tcp
    else if flags.Tcp_header.syn then begin
      (* Duplicate SYN: resend the SYN-ACK. *)
      if c.state = Syn_received then send_syn t c
    end
    else if flags.Tcp_header.fin then handle_fin t c pkt
    else if flags.Tcp_header.ack then handle_ack t c pkt
  | exception Not_found ->
    let len = Bytes.length pkt.Packet.payload in
    if flags.Tcp_header.rst then ()
    else if flags.Tcp_header.syn then begin
      if not flags.Tcp_header.ack then accept_syn t k tcp
    end
    else if flags.Tcp_header.fin then
      send_rst t k ~seq:tcp.Tcp_header.ack
        ~ack_no:(Seq32.add tcp.Tcp_header.seq (len + 1))
    else if flags.Tcp_header.ack then
      send_rst t k ~seq:tcp.Tcp_header.ack
        ~ack_no:(Seq32.add tcp.Tcp_header.seq len)

(* --- Congestion-control loop -------------------------------------------- *)

(* The CC loop period in RTTs, above [Config.control_interval_min_ns]. *)
let control_interval_rtts = 2

let control_interval_ns t c =
  match t.config.Config.control_interval_fixed_ns with
  | Some fixed -> fixed
  | None ->
    let rtt = Flow_state.rtt_est c.flow in
    max t.config.Config.control_interval_min_ns
      (control_interval_rtts * rtt)

(* A flow is only declared timed out when snd_una has been frozen for at
   least [timeout_intervals] control intervals AND longer than a few RTTs
   AND longer than its own pacing gap — otherwise a paced low-rate flow or
   queueing delay beyond tau triggers spurious retransmissions that halve
   the rate and spiral. *)
let stall_threshold_ns t c =
  let flow = c.flow in
  let base =
    t.config.Config.timeout_intervals * control_interval_ns t c
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
let reap_check t c now =
  match t.config.Config.dead_flow_timeout_ns with
  | None -> ()
  | Some dt ->
    let flow = c.flow in
    let quiescent =
      Flow_state.tx_sent flow = 0
      && Ring.used (Flow_state.tx_buf flow) = 0
      && (not c.close_requested)
      && (not (Flow_state.fin_sent flow))
      && not (Flow_state.fin_received flow)
    in
    let una = Flow_state.snd_una flow in
    let progressed =
      una <> c.reap_una || Flow_state.ack flow <> c.reap_ack
    in
    if quiescent || progressed then begin
      c.reap_una <- una;
      c.reap_ack <- Flow_state.ack flow;
      c.progress_since <- now
    end
    else if now - c.progress_since >= dt then begin
      t.flows_reaped <- t.flows_reaped + 1;
      lifecycle_ev t Event.Flow_reaped c.tuple;
      if debug_on () then
        Log.debug (fun m -> m "reaped %a" Addr.Four_tuple.pp c.tuple);
      send_rst t c.tuple ~seq:(Flow_state.seq flow)
        ~ack_no:(Flow_state.ack flow);
      c.cb.reset flow;
      remove t c
    end

let run_control_iteration t c =
  let flow = c.flow in
  let now = Sim.now t.sim in
  let interval = now - c.last_collect in
  c.last_collect <- now;
  (* Timeout detection: unacked data stuck across control intervals. *)
  let una = Flow_state.snd_una flow in
  let timeouts =
    if Flow_state.tx_sent flow > 0 && una = c.last_una then begin
      if c.stall_since < 0 then c.stall_since <- now;
      if now - c.stall_since >= stall_threshold_ns t c then begin
        c.stall_since <- -1;
        t.timeout_retransmits <- t.timeout_retransmits + 1;
        trace_ev t Trace.Timeout_rexmit ~flow:(Flow_state.opaque flow);
        if debug_on () then
          Log.debug (fun m ->
              m "timeout retransmit %a" Addr.Four_tuple.pp c.tuple);
        Fast_path.trigger_retransmit t.fp flow;
        1
      end
      else 0
    end
    else begin
      c.stall_since <- -1;
      0
    end
  in
  c.last_una <- una;
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
  Interval_cc.update c.cc fb;
  Rate_bucket.set_control (Flow_state.bucket flow) c.cc;
  (* A higher rate or wider window may unblock transmission. *)
  if Flow_state.tx_available flow > 0 && not (Flow_state.tx_timer_armed flow)
  then Fast_path.notify_tx t.fp flow;
  (* Teardown progress. *)
  if c.close_requested && not (Flow_state.fin_sent flow) then
    try_emit_fin t c;
  if c.state = Established then reap_check t c now

(* One tick's snapshot of due flows, run as one batch on the slow-path
   core; see [control_tick]. *)
let run_due_batch t n =
  for _ = 1 to n do
    match Fifo.pop t.due with
    | Some c when c.state = Established ->
      run_control_iteration t c;
      c.next_cc_due <- Sim.now t.sim + control_interval_ns t c
    | _ -> ()
  done

(* Snapshot the due flows into [t.due] and queue one batch for them. The
   batch runs once the slow-path core gets to it, possibly after the next
   tick has queued another: batches pop their flows in tick order, the
   order of their submissions (see [Core.queue]). Flows run in the reverse
   of the table's iteration order (the order of the list this snapshot
   replaced).

   The table walk is [filter_map_inplace] keeping every binding: it visits
   the bindings in [iter]'s order, but through a top-level function, where
   [iter] builds a closure per call; [collect_due] skips handshakes and
   returns each record's own preallocated [Some], so the walk allocates
   nothing. It rewrites every
   bucket and link in place, though, which costs more than [iter]'s reads:
   ticks before [next_due] skip it, so flows with long control intervals
   (wide-area RTTs) are walked about when one is due, not on every tick. *)
let control_tick t =
  let now = Sim.now t.sim in
  if now >= t.next_due then begin
    t.tick_now <- now;
    t.walk_min <- max_int;
    let before = Fifo.length t.due in
    Tbl.filter_map_inplace t.collect_due t.conns;
    (* Flows the batch below will run still count with their current
       due time, so the next tick walks again and finds them rescheduled
       (or still due, as a walk of every tick would). *)
    t.next_due <- t.walk_min;
    let n = Fifo.length t.due - before in
    if n > 0 then begin
      Fifo.reverse_last t.due n;
      Core.submit t.due_batches ~cat:Core.Cc
        ~cycles:(n * t.config.Config.sp_flow_control_cycles)
        n
    end
  end

(* --- Workload proportionality -------------------------------------------- *)

(* All dynamic scaling routes through the elastic controller
   (lib/control): this tick only gathers the per-interval signals; the
   policy decides and the controller actuates via the closure wired in
   [create] (Fast_path.set_active_cores -> RSS rewrite -> migration). *)
let scale_tick t ctl ~window =
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
        let s = Flow_table.shard_count ft i in
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

let close_flow t flow =
  let k = t.probe in
  k.local_ip <- Nic.ip (Fast_path.nic t.fp);
  k.local_port <- Flow_state.local_port flow;
  k.peer_ip <- Flow_state.peer_ip flow;
  k.peer_port <- Flow_state.peer_port flow;
  match Tbl.find t.conns k with
  | c when c.state = Established && not c.close_requested ->
    c.close_requested <- true;
    lifecycle_ev t Event.Close_requested c.tuple;
    try_emit_fin t c
  | _ | (exception Not_found) -> ()

(* --- Connect -------------------------------------------------------------- *)

(* Ephemeral port allocation into the record's own tuple, which no table
   holds yet: scan from a rotating base. The stride is coprime with the
   63,000-port range, so 65,536 probes visit every port. *)
let rec pick_port t (k : Addr.Four_tuple.t) attempt =
  if attempt > 65535 then false
  else begin
    t.next_iss <- t.next_iss + 1;
    k.local_port <- 2048 + ((t.next_iss * 7919) mod 63000);
    if Tbl.mem t.conns k then pick_port t k (attempt + 1) else true
  end

let open_conn t c =
  if not (pick_port t c.tuple 0) then begin
    (* Every ephemeral port toward this peer is taken: refuse the connect,
       as a full arena does. *)
    t.port_exhaustions <- t.port_exhaustions + 1;
    (match t.registry with
    | Some m when t.port_exhaustions = 1 ->
      Metrics.counter_fn m
        ~help:"connects refused: every ephemeral port toward the peer was \
               taken"
        "sp_port_exhaustions" (fun () -> t.port_exhaustions)
    | _ -> ());
    c.cb.failed c.opaque Refused
  end
  else begin
    c.iss <- fresh_iss t;
    Tbl.add t.conns c.tuple c;
    t.handshakes <- t.handshakes + 1;
    lifecycle_ev t Event.Syn_sent c.tuple;
    send_syn t c;
    arm t c Fast_path.handshake_rto_ns
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
      conns = Tbl.create 1024;
      handshakes = 0;
      on_timer = ignore;
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
      exceptions = Core.queue core ~dummy:Packet.sentinel;
      connects =
        Core.queue core
          ~dummy:
            (make_conn (Addr.Four_tuple.probe ()) ~opaque:0 ~context:0
               ~cb:no_callbacks ~state:Closed ignore);
      closes = Core.queue core ~dummy:Flow_state.absent;
      due = Fifo.create None;
      due_batches = Core.queue core ~dummy:0;
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
  (* The queue handlers, the timer action and the table-walk callback:
     built once here, so neither a packet, a connect, a close, a timer nor
     a tick builds a closure. *)
  Core.set_handler t.exceptions (fun pkt ->
      process_exception t pkt;
      Packet.release pkt);
  Core.set_handler t.connects (open_conn t);
  Core.set_handler t.closes (close_flow t);
  Core.set_handler t.due_batches (run_due_batch t);
  t.on_timer <- timer_fire t;
  t.collect_due <-
    (fun _ c ->
      if c.state = Established then begin
        let due = c.next_cc_due in
        if due < t.walk_min then t.walk_min <- due;
        if due <= t.tick_now then Fifo.push t.due c.self
      end;
      c.self);
  Fast_path.set_exception_handler t.fp (fun pkt ->
      (* The handler returns before the deferred work runs; hold a reference
         so the fast path's own release cannot recycle the payload under the
         pending slow-path processing. *)
      Packet.retain pkt;
      Core.submit t.exceptions ~cat:Core.Conn
        ~cycles:config.Config.sp_conn_cycles pkt);
  let tick_interval =
    match config.Config.control_interval_fixed_ns with
    | Some fixed -> max fixed 10_000
    | None -> config.Config.control_interval_min_ns
  in
  Sim.periodic sim tick_interval (fun () -> control_tick t);
  (match config.Config.autoscale with
  | None -> ()
  | Some { Config.policy; check_interval_ns } ->
    let ctl =
      Tas_control.Controller.create ~policy
        ~trace:(Fast_path.trace fast_path) ~min_cores:1
        ~max_cores:config.Config.max_fast_path_cores
        ~actuate:(fun n ->
          Fast_path.set_active_cores t.fp n;
          trace_ev t Trace.Core_scale ~flow:(-1);
          t.scale_observer (Sim.now t.sim) n)
        ()
    in
    t.controller <- Some ctl;
    Sim.periodic sim check_interval_ns (fun () ->
        scale_tick t ctl ~window:check_interval_ns));
  t

let listen t ~port accept_fn = Hashtbl.replace t.listeners port accept_fn

let connect t ~opaque ~context_id ~dst_ip ~dst_port cb =
  let tuple =
    {
      Addr.Four_tuple.local_ip = Nic.ip (Fast_path.nic t.fp);
      local_port = 0;
      peer_ip = dst_ip;
      peer_port = dst_port;
    }
  in
  Core.submit t.connects ~cat:Core.Conn ~cycles:t.config.Config.sp_conn_cycles
    (make_conn tuple ~opaque ~context:context_id ~cb ~state:Syn_sent t.on_timer)

let close t flow =
  Core.submit t.closes ~cat:Core.Conn ~cycles:t.config.Config.sp_conn_cycles
    flow
