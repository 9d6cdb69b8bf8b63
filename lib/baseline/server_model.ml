module Sim = Tas_engine.Sim
module Nic = Tas_netsim.Nic
module Core = Tas_cpu.Core
module Cost_model = Tas_cpu.Cost_model
module Packet = Tas_proto.Packet
module Addr = Tas_proto.Addr

type placement = Inline | Split of { stack_cores : Tas_cpu.Core.t array }

type t = {
  sim : Sim.t;
  engine : Tcp_engine.t;
  profile : Cost_model.t;
  app_cores : Core.t array;
  placement : placement;
  (* The cache penalty depends on the live connection count; recomputing a
     log per packet is wasteful, so refresh it lazily. *)
  mutable cached_extra : int;
  mutable extra_refresh : int;
  (* Connections with sends accepted from the app but not yet pushed into
     the engine (the charge is still queued on a core): concurrent sends
     cannot overcommit the transmit buffer, and a close waits for them. *)
  committed : (Addr.Four_tuple.t, in_flight) Hashtbl.t;
}

and in_flight = { mutable bytes : int; mutable close_after : bool }

let create sim ~nic ~config ~profile ~app_cores ?(placement = Inline) () =
  if Array.length app_cores = 0 then
    invalid_arg "Server_model.create: no app cores";
  let engine = Tcp_engine.create sim nic config in
  let t =
    {
      sim;
      engine;
      profile;
      app_cores;
      placement;
      cached_extra = 0;
      extra_refresh = 0;
      committed = Hashtbl.create 64;
    }
  in
  (* Data packets run on the flow's app core (inline) or stack core. *)
  let rx_queues =
    Array.map
      (fun core ->
        let q = Core.queue core ~dummy:Packet.sentinel in
        Core.set_handler q (Tcp_engine.handle_packet engine);
        q)
      (match placement with
      | Inline -> app_cores
      | Split { stack_cores } -> stack_cores)
  in
  Nic.set_rx_handler nic (fun ~queue:_ pkt ->
      if Bytes.length pkt.Packet.payload = 0 then
        (* Pure ACKs ride along for free: their processing share is folded
           into the per-request calibration (Table 1 is cycles/request). *)
        Tcp_engine.handle_packet engine pkt
      else begin
        if t.extra_refresh <= 0 then begin
          t.cached_extra <-
            Cost_model.cache_extra_cycles profile
              ~conns:(Tcp_engine.connection_count engine)
              ~cache_bytes:Cost_model.l3_cache_bytes;
          t.extra_refresh <- 1024
        end;
        t.extra_refresh <- t.extra_refresh - 1;
        let cycles =
          profile.Cost_model.driver_cycles
          + (profile.Cost_model.ip_cycles / 2)
          + profile.Cost_model.tcp_rx_cycles
          + (t.cached_extra / 2)
        in
        let h = Packet.flow_hash pkt in
        Core.submit rx_queues.(h mod Array.length rx_queues) ~cycles pkt
      end);
  t

let engine t = t.engine

let core_of_conn t conn =
  let h = Addr.Four_tuple.sym_hash (Tcp_engine.tuple conn) in
  t.app_cores.(h mod Array.length t.app_cores)

let stack_core_of_conn _t conn stack_cores =
  let h = Addr.Four_tuple.sym_hash (Tcp_engine.tuple conn) in
  stack_cores.(h mod Array.length stack_cores)

let api_cycles t =
  t.profile.Cost_model.sockets_cycles + t.profile.Cost_model.other_cycles
  + t.profile.Cost_model.syscall_cycles

let delay_to_flush t =
  let flush_ns = t.profile.Cost_model.batch_flush_us * 1000 in
  if flush_ns = 0 then 0 else flush_ns - (Sim.now t.sim mod flush_ns)

let deliver_to_app t conn k =
  let core = core_of_conn t conn in
  match t.placement with
  | Inline ->
    (* Waking a blocked thread (epoll) costs interrupt + scheduling
       latency; a busy core is already awake. run_after only delays when
       the core is idle enough for the delay to matter. *)
    let wake = t.profile.Cost_model.wakeup_ns in
    if wake > 0 && Core.backlog_ns core = 0 then
      Core.run_after core ~delay:wake ~cycles:(api_cycles t) k
    else Core.run core ~cycles:(api_cycles t) k
  | Split _ ->
    Core.run_after core ~delay:(delay_to_flush t) ~cycles:(api_cycles t) k

let charge_app t conn ~cycles k = Core.run (core_of_conn t conn) ~cycles k

let tx_cycles t =
  t.profile.Cost_model.driver_cycles
  + (t.profile.Cost_model.ip_cycles / 2)
  + t.profile.Cost_model.tcp_tx_cycles
  + (t.cached_extra / 2)

let send t conn data =
  (* Respect transmit-buffer backpressure at call time so applications see
     partial sends and wait for on_sendable, as with a real socket. In-flight
     (charged but not yet executed) sends count against the free space. *)
  let tuple = Tcp_engine.tuple conn in
  let pending = Hashtbl.find_opt t.committed tuple in
  let in_flight = match pending with Some p -> p.bytes | None -> 0 in
  let n = min (Bytes.length data) (Tcp_engine.tx_free conn - in_flight) in
  if n <= 0 then 0
  else begin
    let p =
      match pending with
      | Some p -> p
      | None ->
        let p = { bytes = 0; close_after = false } in
        Hashtbl.replace t.committed tuple p;
        p
    in
    p.bytes <- p.bytes + n;
    let slice = if n = Bytes.length data then data else Bytes.sub data 0 n in
    (* Commits run in send order: the one that empties [p] is the last. *)
    let commit () =
      p.bytes <- p.bytes - n;
      if p.bytes = 0 then Hashtbl.remove t.committed tuple;
      ignore (Tcp_engine.send conn slice);
      if p.bytes = 0 && p.close_after then Tcp_engine.close conn
    in
    (match t.placement with
    | Inline ->
      (* The transmit-side charge lands on the same core that is running
         the application; queue it ahead of the actual send. *)
      let core = core_of_conn t conn in
      Core.run core ~cycles:(tx_cycles t) commit
    | Split { stack_cores } ->
      let core = stack_core_of_conn t conn stack_cores in
      Core.run_after core ~delay:(delay_to_flush t) ~cycles:(tx_cycles t)
        commit);
    n
  end

let close t conn =
  match Hashtbl.find_opt t.committed (Tcp_engine.tuple conn) with
  | Some p -> p.close_after <- true
  | None -> Tcp_engine.close conn
