(* End-to-end tests of the TAS stack: TAS host as server, the baseline TCP
   engine as an ideal client peer — exercising interoperability with
   "legacy" TCP endpoints at the same time (paper Table 4). *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Fault = Tas_netsim.Fault
module E = Tas_baseline.Tcp_engine
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Config = Tas_core.Config

type setup = {
  sim : Sim.t;
  tas : Tas.t;
  lt : Libtas.t;
  client : E.t;
  client_ip : Tas_proto.Addr.ipv4;
  server_ip : Tas_proto.Addr.ipv4;
}

let make ?(config = Config.default) ?(api = Libtas.Sockets) ?fault ?rng
    ?(app_cores = 1) () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ?fault_ab:fault ?fault_ba:fault ?rng
      ~queues_per_nic:8 () in
  let tas = Tas.create sim ~nic:net.Topology.a.Topology.nic ~config () in
  let cores = Array.init app_cores (fun i -> Core.create sim ~id:(100 + i) ()) in
  let lt = Tas.app tas ~app_cores:cores ~api in
  let client = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach client;
  {
    sim;
    tas;
    lt;
    client;
    client_ip = Tas_netsim.Nic.ip net.Topology.b.Topology.nic;
    server_ip = Tas_netsim.Nic.ip net.Topology.a.Topology.nic;
  }

(* TAS echo server on port 7. *)
let tas_echo_server s =
  Libtas.listen s.lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _sock ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock data -> ignore (Libtas.send sock data));
      })

let test_client_to_tas_echo () =
  let s = make () in
  tas_echo_server s;
  let got = Buffer.create 64 in
  let cb =
    {
      E.null_callbacks with
      E.on_connected = (fun c -> ignore (E.send c (Bytes.of_string "ping-tas")));
      E.on_receive = (fun _ d -> Buffer.add_bytes got d);
    }
  in
  ignore (E.connect s.client ~dst_ip:s.server_ip ~dst_port:7 cb);
  Sim.run ~until:(Time_ns.sec 2) s.sim;
  Alcotest.(check string) "echo through TAS" "ping-tas" (Buffer.contents got)

let test_tas_connect_out () =
  (* TAS as the client: connect to an engine server and exchange data. *)
  let s = make () in
  let got_at_server = Buffer.create 64 and got_at_tas = Buffer.create 64 in
  E.listen s.client ~port:9 (fun _ ->
      {
        E.null_callbacks with
        E.on_receive =
          (fun c d ->
            Buffer.add_bytes got_at_server d;
            ignore (E.send c d));
      });
  let handlers =
    {
      Libtas.null_handlers with
      Libtas.on_connected =
        (fun sock -> ignore (Libtas.send sock (Bytes.of_string "hello-from-tas")));
      Libtas.on_data = (fun _ d -> Buffer.add_bytes got_at_tas d);
    }
  in
  ignore (Libtas.connect s.lt ~ctx:0 ~dst_ip:s.client_ip ~dst_port:9 handlers);
  Sim.run ~until:(Time_ns.sec 2) s.sim;
  Alcotest.(check string) "server received" "hello-from-tas"
    (Buffer.contents got_at_server);
  Alcotest.(check string) "tas received echo" "hello-from-tas"
    (Buffer.contents got_at_tas)

let test_many_rpcs () =
  let s = make () in
  tas_echo_server s;
  let completed = ref 0 in
  let n_rpcs = 500 in
  let cb =
    {
      E.null_callbacks with
      E.on_connected = (fun c -> ignore (E.send c (Bytes.make 64 'q')));
      E.on_receive =
        (fun c d ->
          assert (Bytes.length d > 0);
          incr completed;
          if !completed < n_rpcs then ignore (E.send c (Bytes.make 64 'q')));
    }
  in
  ignore (E.connect s.client ~dst_ip:s.server_ip ~dst_port:7 cb);
  Sim.run ~until:(Time_ns.sec 5) s.sim;
  Alcotest.(check int) "all RPCs completed" n_rpcs !completed

let test_bulk_to_tas () =
  (* Bulk transfer into TAS exercises flow control against the fixed-size
     per-flow receive buffer. *)
  let n = 1_000_000 in
  let s = make () in
  let received = Buffer.create n in
  Libtas.listen s.lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun _ d -> Buffer.add_bytes received d);
      });
  let payload = Bytes.init n (fun i -> Char.chr ((i * 13) land 0xff)) in
  let sent = ref 0 in
  let push c =
    while
      !sent < n
      &&
      let chunk = Bytes.sub payload !sent (min 8192 (n - !sent)) in
      let accepted = E.send c chunk in
      sent := !sent + accepted;
      accepted > 0
    do
      ()
    done
  in
  let cb =
    {
      E.null_callbacks with
      E.on_connected = (fun c -> push c);
      E.on_sendable = (fun c _ -> push c);
    }
  in
  ignore (E.connect s.client ~dst_ip:s.server_ip ~dst_port:7 cb);
  Sim.run ~until:(Time_ns.sec 10) s.sim;
  Alcotest.(check int) "all bytes delivered" n (Buffer.length received);
  Alcotest.(check string)
    "stream intact" (Bytes.to_string payload) (Buffer.contents received)

let test_bulk_from_tas () =
  (* Bulk transfer out of TAS: rate-based pacing + slow-start must still
     reach full delivery. *)
  let n = 1_000_000 in
  let s = make () in
  let received = Buffer.create n in
  E.listen s.client ~port:9 (fun _ ->
      {
        E.null_callbacks with
        E.on_receive = (fun _ d -> Buffer.add_bytes received d);
      });
  let payload = Bytes.init n (fun i -> Char.chr ((i * 31) land 0xff)) in
  let sent = ref 0 in
  let push sock =
    while
      !sent < n
      &&
      let chunk = Bytes.sub payload !sent (min 8192 (n - !sent)) in
      let accepted = Libtas.send sock chunk in
      sent := !sent + accepted;
      accepted > 0
    do
      ()
    done
  in
  let handlers =
    {
      Libtas.null_handlers with
      Libtas.on_connected = (fun sock -> push sock);
      Libtas.on_sendable = (fun sock -> push sock);
    }
  in
  ignore (Libtas.connect s.lt ~ctx:0 ~dst_ip:s.client_ip ~dst_port:9 handlers);
  Sim.run ~until:(Time_ns.sec 10) s.sim;
  Alcotest.(check int) "all bytes delivered" n (Buffer.length received);
  Alcotest.(check string)
    "stream intact" (Bytes.to_string payload) (Buffer.contents received)

let test_loss_recovery () =
  (* TAS sender under 2% loss: slow-path timeouts + fast-path dup-ACK
     recovery must still deliver the whole stream. *)
  let n = 300_000 in
  let rng = Rng.create 7 in
  let s = make ~fault:(Fault.uniform_loss 0.02) ~rng () in
  let received = Buffer.create n in
  E.listen s.client ~port:9 (fun _ ->
      {
        E.null_callbacks with
        E.on_receive = (fun _ d -> Buffer.add_bytes received d);
      });
  let payload = Bytes.init n (fun i -> Char.chr ((i * 3) land 0xff)) in
  let sent = ref 0 in
  let push sock =
    while
      !sent < n
      &&
      let chunk = Bytes.sub payload !sent (min 8192 (n - !sent)) in
      let accepted = Libtas.send sock chunk in
      sent := !sent + accepted;
      accepted > 0
    do
      ()
    done
  in
  let handlers =
    {
      Libtas.null_handlers with
      Libtas.on_connected = (fun sock -> push sock);
      Libtas.on_sendable = (fun sock -> push sock);
    }
  in
  ignore (Libtas.connect s.lt ~ctx:0 ~dst_ip:s.client_ip ~dst_port:9 handlers);
  Sim.run ~until:(Time_ns.sec 30) s.sim;
  Alcotest.(check int) "all bytes delivered" n (Buffer.length received);
  Alcotest.(check string)
    "stream intact under loss" (Bytes.to_string payload)
    (Buffer.contents received)

let test_close_from_client () =
  let s = make () in
  let eof_seen = ref false in
  Libtas.listen s.lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_peer_closed =
          (fun sock ->
            eof_seen := true;
            Libtas.close sock);
      });
  let closed = ref false in
  let cb =
    {
      E.null_callbacks with
      E.on_connected = (fun c -> E.close c);
      E.on_closed = (fun _ -> closed := true);
    }
  in
  ignore (E.connect s.client ~dst_ip:s.server_ip ~dst_port:7 cb);
  Sim.run ~until:(Time_ns.sec 2) s.sim;
  Alcotest.(check bool) "TAS app saw EOF" true !eof_seen;
  Alcotest.(check int) "TAS flow table drained" 0
    (Tas_core.Slow_path.flow_count (Tas.slow_path s.tas));
  Alcotest.(check int) "client table drained" 0 (E.connection_count s.client)

let test_tas_to_tas () =
  (* Two TAS hosts talking to each other. *)
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:8 () in
  let config = Config.default in
  let tas_a = Tas.create sim ~nic:net.Topology.a.Topology.nic ~config () in
  let tas_b = Tas.create sim ~nic:net.Topology.b.Topology.nic ~config () in
  let core_a = [| Core.create sim ~id:100 () |] in
  let core_b = [| Core.create sim ~id:200 () |] in
  let lt_a = Tas.app tas_a ~app_cores:core_a ~api:Libtas.Sockets in
  let lt_b = Tas.app tas_b ~app_cores:core_b ~api:Libtas.Sockets in
  let got = Buffer.create 64 in
  Libtas.listen lt_b ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock d -> ignore (Libtas.send sock d));
      });
  let handlers =
    {
      Libtas.null_handlers with
      Libtas.on_connected =
        (fun sock -> ignore (Libtas.send sock (Bytes.of_string "tas-to-tas")));
      Libtas.on_data = (fun _ d -> Buffer.add_bytes got d);
    }
  in
  ignore
    (Libtas.connect lt_a ~ctx:0
       ~dst_ip:(Tas_netsim.Nic.ip net.Topology.b.Topology.nic)
       ~dst_port:7 handlers);
  Sim.run ~until:(Time_ns.sec 2) sim;
  Alcotest.(check string) "echo between two TAS hosts" "tas-to-tas"
    (Buffer.contents got)

let suite =
  [
    Alcotest.test_case "engine client -> TAS echo" `Quick test_client_to_tas_echo;
    Alcotest.test_case "TAS connects out" `Quick test_tas_connect_out;
    Alcotest.test_case "500 closed-loop RPCs" `Quick test_many_rpcs;
    Alcotest.test_case "bulk 1MB into TAS" `Quick test_bulk_to_tas;
    Alcotest.test_case "bulk 1MB out of TAS" `Quick test_bulk_from_tas;
    Alcotest.test_case "TAS sender under 2% loss" `Quick test_loss_recovery;
    Alcotest.test_case "client-initiated close" `Quick test_close_from_client;
    Alcotest.test_case "TAS to TAS" `Quick test_tas_to_tas;
  ]
