(* Multiple applications sharing one TAS instance: context isolation,
   independent ports, and slow-path cleanup on application exit. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Nic = Tas_netsim.Nic
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Slow_path = Tas_core.Slow_path
module E = Tas_baseline.Tcp_engine

let setup () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  (sim, net, tas, peer)

let test_two_apps_one_tas () =
  let sim, net, tas, peer = setup () in
  (* Two applications, each with its own core and context, on one TAS. *)
  let app1 =
    Tas.app tas ~app_cores:[| Core.create sim ~id:101 () |] ~api:Libtas.Sockets
  in
  let app2 =
    Tas.app tas ~app_cores:[| Core.create sim ~id:102 () |] ~api:Libtas.Lowlevel
  in
  let served1 = ref 0 and served2 = ref 0 in
  Libtas.listen app1 ~port:7001 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data =
          (fun sock d ->
            incr served1;
            ignore (Libtas.send sock d));
      });
  Libtas.listen app2 ~port:7002 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data =
          (fun sock d ->
            incr served2;
            ignore (Libtas.send sock d));
      });
  let echoes = ref 0 in
  List.iter
    (fun port ->
      for _ = 1 to 5 do
        ignore
          (E.connect peer ~dst_ip:(Nic.ip net.Topology.a.Topology.nic)
             ~dst_port:port
             {
               E.null_callbacks with
               E.on_connected =
                 (fun c -> ignore (E.send c (Bytes.make 32 'z')));
               E.on_receive = (fun _ _ -> incr echoes);
             })
      done)
    [ 7001; 7002 ];
  Sim.run ~until:(Time_ns.ms 50) sim;
  Alcotest.(check int) "all echoes returned" 10 !echoes;
  Alcotest.(check int) "app1 served its port" 5 !served1;
  Alcotest.(check int) "app2 served its port" 5 !served2

let test_app_shutdown_cleans_flows () =
  let sim, net, tas, peer = setup () in
  let app =
    Tas.app tas ~app_cores:[| Core.create sim ~id:101 () |] ~api:Libtas.Sockets
  in
  Libtas.listen app ~port:7001 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      Libtas.null_handlers);
  let closed_at_peer = ref 0 in
  for _ = 1 to 8 do
    ignore
      (E.connect peer ~dst_ip:(Nic.ip net.Topology.a.Topology.nic)
         ~dst_port:7001
         {
           E.null_callbacks with
           E.on_closed = (fun c -> incr closed_at_peer; E.close c);
         })
  done;
  Sim.run ~until:(Time_ns.ms 50) sim;
  Alcotest.(check int) "8 flows established" 8
    (Slow_path.flow_count (Tas.slow_path tas));
  (* Application exits: the slow path tears everything down. *)
  Libtas.shutdown app;
  Sim.run ~until:(Sim.now sim + Time_ns.ms 200) sim;
  Alcotest.(check int) "flows cleaned up after app exit" 0
    (Slow_path.flow_count (Tas.slow_path tas));
  Alcotest.(check int) "peers saw FINs" 8 !closed_at_peer

let open_sockets tas =
  let module Metrics = Tas_telemetry.Metrics in
  List.fold_left
    (fun acc smp ->
      match smp.Metrics.s_value with
      | Metrics.Gauge v when smp.Metrics.s_name = "lt_open_sockets" -> acc +. v
      | _ -> acc)
    0. (Metrics.snapshot (Tas.metrics tas))

(* Connects to a port nobody listens on: the handshake times out, and a
   socket whose connect failed is gone from libTAS's table whether or not
   its handler closes it. *)
let test_failed_connect_forgets_socket () =
  let sim, net, tas, _peer = setup () in
  let app =
    Tas.app tas ~app_cores:[| Core.create sim ~id:101 () |] ~api:Libtas.Sockets
  in
  let failed = ref [] in
  for i = 1 to 3 do
    ignore
      (Libtas.connect app ~ctx:0 ~dst_ip:(Nic.ip net.Topology.b.Topology.nic)
         ~dst_port:9
         {
           Libtas.null_handlers with
           Libtas.on_connect_failed =
             (fun sock err ->
               failed := err :: !failed;
               if i <> 3 then Libtas.close sock);
         })
  done;
  Sim.run ~until:(Time_ns.ms 300) sim;
  Alcotest.(check int) "three timeouts" 3
    (List.length (List.filter (( = ) Slow_path.Timeout) !failed));
  Alcotest.(check (float 0.)) "no socket left open" 0. (open_sockets tas)

(* A close issued while the handshake is still pending: the flow is closed
   once it is established, so its state goes and the peer sees a FIN. *)
let test_close_before_established () =
  let sim, net, tas, peer = setup () in
  let app =
    Tas.app tas ~app_cores:[| Core.create sim ~id:101 () |] ~api:Libtas.Sockets
  in
  let connected = ref 0 and closed_at_peer = ref 0 and closed = ref 0 in
  E.listen peer ~port:7001 (fun _ ->
      {
        E.null_callbacks with
        E.on_closed =
          (fun c ->
            incr closed_at_peer;
            E.close c);
      });
  let sock =
    Libtas.connect app ~ctx:0 ~dst_ip:(Nic.ip net.Topology.b.Topology.nic)
      ~dst_port:7001
      {
        Libtas.null_handlers with
        Libtas.on_connected = (fun _ -> incr connected);
        Libtas.on_closed = (fun _ -> incr closed);
      }
  in
  Libtas.close sock;
  Sim.run ~until:(Time_ns.ms 300) sim;
  let sp = Tas.slow_path tas in
  Alcotest.(check int) "flow removed" 0 (Slow_path.flow_count sp);
  Alcotest.(check int) "arena slot returned" 0
    (Tas_core.Flow_arena.live (Slow_path.arena sp));
  Alcotest.(check int) "peer saw the FIN" 1 !closed_at_peer;
  Alcotest.(check int) "no on_connected after close" 0 !connected;
  Alcotest.(check int) "on_closed delivered" 1 !closed;
  Alcotest.(check (float 0.)) "no socket left open" 0. (open_sockets tas)

let suite =
  [
    Alcotest.test_case "two apps share one TAS" `Quick test_two_apps_one_tas;
    Alcotest.test_case "app shutdown cleans flows" `Quick
      test_app_shutdown_cleans_flows;
    Alcotest.test_case "failed connects forget their sockets" `Quick
      test_failed_connect_forgets_socket;
    Alcotest.test_case "close before the handshake closes the flow" `Quick
      test_close_before_established;
  ]
