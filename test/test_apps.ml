(* Tests for the application layer: KV codec/parser, message framing,
   transports over the cost-charged server models, and the apps end-to-end
   on both TAS and the baseline stacks. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Cost_model = Tas_cpu.Cost_model
module Topology = Tas_netsim.Topology
module E = Tas_baseline.Tcp_engine
module SM = Tas_baseline.Server_model
module Transport = Tas_apps.Transport
module Rpc_echo = Tas_apps.Rpc_echo
module Kv_store = Tas_apps.Kv_store

(* --- KV store over a raw engine pair ------------------------------------ *)

let kv_pair () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim () in
  let server_engine = E.create sim net.Topology.a.Topology.nic E.default_config in
  let client_engine = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach server_engine;
  E.attach client_engine;
  ( sim,
    Transport.of_engine server_engine,
    Transport.of_engine client_engine,
    Tas_netsim.Nic.ip net.Topology.a.Topology.nic )

let test_kv_get_set () =
  let sim, server_t, client_t, server_ip = kv_pair () in
  let kv = Kv_store.create_server server_t ~port:11211 ~app_cycles:0 () in
  let stats = Rpc_echo.make_stats () in
  let rng = Rng.create 1 in
  Kv_store.Client.run sim client_t ~rng ~n_conns:4 ~dst_ip:server_ip
    ~dst_port:11211
    ~workload:
      {
        Kv_store.Client.n_keys = 50;
        key_size = 16;
        value_size = 32;
        get_fraction = 0.5;
        zipf_s = 0.9;
      }
    ~stats ();
  Sim.run ~until:(Time_ns.ms 50) sim;
  let done_ops = Stats.Counter.value stats.Rpc_echo.completed in
  Alcotest.(check bool)
    (Printf.sprintf "many requests completed (%d)" done_ops)
    true (done_ops > 1000);
  Alcotest.(check bool) "server saw gets and sets" true
    (Kv_store.gets kv > 0 && Kv_store.sets kv > 0);
  Alcotest.(check bool) "keys stored" true (Kv_store.stored_keys kv > 0);
  (* GET misses only before first SET of a key. *)
  Alcotest.(check bool) "misses bounded by key count" true
    (Kv_store.misses kv <= 50 + Kv_store.sets kv)

let test_kv_value_roundtrip () =
  (* A SET followed by a GET of the same key returns the stored value. *)
  let sim, server_t, client_t, server_ip = kv_pair () in
  ignore (Kv_store.create_server server_t ~port:11211 ~app_cycles:0 ());
  let got = ref None in
  Transport.connect client_t ~dst_ip:server_ip ~dst_port:11211 (fun _ ->
      let responses = ref 0 in
      {
        Transport.null_handlers with
        Transport.on_connected =
          (fun conn ->
            (* SET k=hello, then GET k: encode both requests back to back. *)
            let set = Bytes.of_string "\x01\x00\x01k\x00\x05hello" in
            let get = Bytes.of_string "\x00\x00\x01k\x00\x00" in
            ignore (Transport.send conn (Bytes.cat set get)));
        Transport.on_data =
          (fun _ data ->
            incr responses;
            if !responses >= 1 then begin
              (* Last response in the stream carries the value. *)
              let len = Bytes.length data in
              if len >= 8 then got := Some (Bytes.sub_string data (len - 5) 5)
            end);
      });
  Sim.run ~until:(Time_ns.ms 10) sim;
  Alcotest.(check (option string)) "GET returns stored value" (Some "hello")
    !got

(* --- RPC echo framing across fragmentation -------------------------------- *)

let test_echo_reassembles_messages () =
  (* Messages larger than the MSS must still be counted correctly. *)
  let sim, server_t, client_t, server_ip = kv_pair () in
  Rpc_echo.server server_t ~port:7 ~msg_size:4000 ~app_cycles:0;
  let stats = Rpc_echo.make_stats () in
  Rpc_echo.closed_loop_clients sim client_t ~n:2 ~dst_ip:server_ip ~dst_port:7
    ~msg_size:4000 ~stats ();
  Sim.run ~until:(Time_ns.ms 20) sim;
  Alcotest.(check bool) "multi-segment RPCs complete" true
    (Stats.Counter.value stats.Rpc_echo.completed > 100)

(* --- Server model charging -------------------------------------------------- *)

let test_server_model_charges_cores () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim () in
  let app_cores = [| Core.create sim ~id:0 () |] in
  let sm =
    SM.create sim ~nic:net.Topology.a.Topology.nic ~config:E.default_config
      ~profile:Cost_model.linux ~app_cores ()
  in
  let server_t = Transport.of_server_model sm in
  Rpc_echo.server server_t ~port:7 ~msg_size:64 ~app_cycles:500;
  let client_engine = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach client_engine;
  let client_t = Transport.of_engine client_engine in
  let stats = Rpc_echo.make_stats () in
  Rpc_echo.closed_loop_clients sim client_t ~n:4 ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic)
    ~dst_port:7 ~msg_size:64 ~stats ();
  Sim.run ~until:(Time_ns.ms 20) sim;
  let reqs = Stats.Counter.value stats.Rpc_echo.completed in
  Alcotest.(check bool) "requests completed" true (reqs > 100);
  (* The app core must have been charged roughly the profile cost/request. *)
  let cycles_per_req =
    float_of_int (Core.busy_ns app_cores.(0)) *. 2.1 /. float_of_int reqs
  in
  Alcotest.(check bool)
    (Printf.sprintf "per-request cycles ~10kc (got %.0f)" cycles_per_req)
    true
    (cycles_per_req > 8_000.0 && cycles_per_req < 12_000.0)

let test_mtcp_split_adds_batching_delay () =
  (* The mTCP placement delays app delivery to flush boundaries: median RPC
     latency should exceed the Inline placement's. *)
  let run placement_of =
    let sim = Sim.create () in
    let net = Topology.point_to_point sim () in
    let app_cores = [| Core.create sim ~id:0 () |] in
    let stack_cores = [| Core.create sim ~id:1 () |] in
    let sm =
      SM.create sim ~nic:net.Topology.a.Topology.nic ~config:E.default_config
        ~profile:Cost_model.mtcp ~app_cores
        ~placement:(placement_of stack_cores) ()
    in
    let server_t = Transport.of_server_model sm in
    Rpc_echo.server server_t ~port:7 ~msg_size:64 ~app_cycles:300;
    let client_engine =
      E.create sim net.Topology.b.Topology.nic E.default_config
    in
    E.attach client_engine;
    let client_t = Transport.of_engine client_engine in
    let stats = Rpc_echo.make_stats () in
    Rpc_echo.closed_loop_clients sim client_t ~n:2
      ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
      ~msg_size:64 ~stats ();
    Sim.run ~until:(Time_ns.ms 50) sim;
    Stats.Hist.percentile stats.Rpc_echo.latency_us 50.0
  in
  let inline = run (fun _ -> SM.Inline) in
  let split = run (fun cores -> SM.Split { stack_cores = cores }) in
  Alcotest.(check bool)
    (Printf.sprintf "batching adds latency (%.1f vs %.1f us)" split inline)
    true (split > inline +. 50.0)

(* --- Zipf key generator ------------------------------------------------------- *)

let test_kv_key_padding () =
  let w = { Kv_store.Client.default_workload with Kv_store.Client.key_size = 32 } in
  ignore w;
  (* keys are fixed-size: verified indirectly through the codec tests. *)
  ()

(* --- RPC echo on TAS: closing on EOF ------------------------------------ *)

(* 128 clients one after another, each connecting, doing one RPC and
   closing, against a TAS echo server whose arena has 32 slots. A client
   starts 100 us after the previous one closed, so the server's 1 ms
   TIME_WAIT keeps at most about ten slots. Only a server that closes when
   its client does gives each slot back: one that stays half-open fills
   the arena and refuses the 33rd client. After the drain no arena slot is
   live and the ring pool holds every ring. *)
let test_rpc_echo_server_closes_on_eof () =
  let module Config = Tas_core.Config in
  let module Slow_path = Tas_core.Slow_path in
  let module Ring_pool = Tas_buffers.Ring_buffer.Pool in
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let config = { Config.default with Config.flow_arena_capacity = 32 } in
  let tas =
    Tas_core.Tas.create sim ~nic:net.Topology.a.Topology.nic ~config ()
  in
  let lt =
    Tas_core.Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |]
      ~api:Tas_core.Libtas.Sockets
  in
  Rpc_echo.server
    (Transport.of_libtas lt ~ctx_of_conn:(fun _ -> 0))
    ~port:7 ~msg_size:64 ~app_cycles:0;
  let engine = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach engine;
  let client = Transport.of_engine engine in
  let server_ip = Tas_netsim.Nic.ip net.Topology.a.Topology.nic in
  let served = ref 0 in
  let rec next () =
    if !served < 128 then
      Transport.connect client ~dst_ip:server_ip ~dst_port:7 (fun _ ->
          let got = ref 0 in
          {
            Transport.null_handlers with
            Transport.on_connected =
              (fun conn -> ignore (Transport.send conn (Bytes.make 64 'q')));
            Transport.on_data =
              (fun conn data ->
                got := !got + Bytes.length data;
                if !got = 64 then begin
                  incr served;
                  Transport.close conn;
                  ignore (Sim.schedule sim (Time_ns.us 100) next)
                end);
          })
  in
  next ();
  Sim.run ~until:(Time_ns.ms 200) sim;
  let sp = Tas_core.Tas.slow_path tas in
  Alcotest.(check int) "every client served" 128 !served;
  Alcotest.(check int) "no connection refused" 0 (Slow_path.arena_refusals sp);
  Alcotest.(check int) "no arena slot live" 0
    (Tas_core.Flow_arena.live (Slow_path.arena sp));
  let rings = Slow_path.ring_pool sp in
  Alcotest.(check int) "the ring pool holds every ring"
    (Ring_pool.allocated rings) (Ring_pool.held rings)

(* --- Transport's handler contract on every stack ------------------------ *)

type stack = Engine | Sm_inline | Sm_split | Libtas

let stack_name = function
  | Engine -> "engine"
  | Sm_inline -> "server model Inline"
  | Sm_split -> "server model Split"
  | Libtas -> "libTAS"

let transport_of sim nic = function
  | Engine ->
    let engine = E.create sim nic E.default_config in
    E.attach engine;
    Transport.of_engine engine
  | (Sm_inline | Sm_split) as s ->
    let app_cores = [| Core.create sim ~id:0 () |] in
    let placement, profile =
      if s = Sm_split then
        ( SM.Split { stack_cores = [| Core.create sim ~id:1 () |] },
          Cost_model.mtcp )
      else (SM.Inline, Cost_model.linux)
    in
    Transport.of_server_model
      (SM.create sim ~nic ~config:E.default_config ~profile ~app_cores
         ~placement ())
  | Libtas ->
    let tas = Tas_core.Tas.create sim ~nic ~config:Tas_core.Config.default () in
    let lt =
      Tas_core.Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |]
        ~api:Tas_core.Libtas.Sockets
    in
    Transport.of_libtas lt ~ctx_of_conn:(fun _ -> 0)

(* One connection from a [client]-stack host to a [server]-stack host. The
   client sends 64 B once connected and closes once 64 B came back. The
   server echoes what it receives; with [reply_close] it closes in the same
   handler and tries one more send, otherwise it closes on the client's
   EOF. Returns both sides' handler sequences and the bytes the client
   received. *)
let run_echo ~client ~server ~reply_close =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let server_t = transport_of sim net.Topology.a.Topology.nic server in
  let client_t = transport_of sim net.Topology.b.Topology.nic client in
  let recorder log =
    let note s = log := s :: !log in
    ( note,
      {
        Transport.on_connected = (fun _ -> note "connected");
        on_data = (fun _ d -> note (Printf.sprintf "data %d" (Bytes.length d)));
        on_sendable = (fun _ -> note "sendable");
        on_peer_closed = (fun _ -> note "peer_closed");
        on_closed = (fun _ -> note "closed");
      } )
  in
  let server_log = ref [] and client_log = ref [] and got = ref 0 in
  Transport.listen server_t ~port:7 (fun _ ->
      let note, h = recorder server_log in
      {
        h with
        Transport.on_data =
          (fun conn d ->
            h.Transport.on_data conn d;
            note (Printf.sprintf "sent %d" (Transport.send conn d));
            if reply_close then begin
              Transport.close conn;
              note
                (Printf.sprintf "sent after close %d" (Transport.send conn d))
            end);
        on_peer_closed =
          (fun conn ->
            h.Transport.on_peer_closed conn;
            Transport.close conn);
      });
  Transport.connect client_t
    ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
    (fun _ ->
      let note, h = recorder client_log in
      {
        h with
        Transport.on_connected =
          (fun conn ->
            h.Transport.on_connected conn;
            note
              (Printf.sprintf "sent %d"
                 (Transport.send conn (Bytes.make 64 'q'))));
        on_data =
          (fun conn d ->
            h.Transport.on_data conn d;
            got := !got + Bytes.length d;
            if !got >= 64 then Transport.close conn);
      });
  Sim.run ~until:(Time_ns.ms 50) sim;
  (List.rev !client_log, List.rev !server_log, !got)

let all_stacks = [ Engine; Sm_inline; Sm_split; Libtas ]

(* A [client]-stack connect to a [server]-stack host with no listener: an
   engine host drops the SYN, a TAS host answers it with an RST. Returns
   the client's handler sequence and when its last handler fired. *)
let run_refused ~client ~server =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  ignore (transport_of sim net.Topology.a.Topology.nic server);
  let client_t = transport_of sim net.Topology.b.Topology.nic client in
  let log = ref [] and at = ref 0 in
  let note s _ =
    log := s :: !log;
    at := Sim.now sim
  in
  Transport.connect client_t
    ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
    (fun _ ->
      {
        Transport.on_connected = note "connected";
        on_data = (fun c _ -> note "data" c);
        on_sendable = note "sendable";
        on_peer_closed = note "peer_closed";
        on_closed = note "closed";
      });
  Sim.run ~until:(Time_ns.sec 3) sim;
  (List.rev !log, !at)

(* Which handler fires when, on each stack, as transport.mli states it. The
   client closes first, once its echo is back; the server closes on its EOF.
   The engine fires [on_sendable] on every ACK that frees transmit space,
   the other stacks only after a short send. On the engine and server-model
   stacks [on_peer_closed] is the peer's FIN before this side closed, and
   [on_closed] never fires; on TAS [on_peer_closed] is the EOF on either
   side, and [on_closed] follows once the flow is gone. *)
let expected_log ~side stack =
  match (side, stack) with
  | `Client, Engine -> [ "connected"; "sent 64"; "sendable"; "data 64" ]
  | `Client, (Sm_inline | Sm_split) -> [ "connected"; "sent 64"; "data 64" ]
  | `Client, Libtas ->
    [ "connected"; "sent 64"; "data 64"; "peer_closed"; "closed" ]
  | `Server, Engine ->
    [ "connected"; "data 64"; "sent 64"; "sendable"; "peer_closed" ]
  | `Server, (Sm_inline | Sm_split) ->
    [ "connected"; "data 64"; "sent 64"; "peer_closed" ]
  | `Server, Libtas ->
    [ "connected"; "data 64"; "sent 64"; "peer_closed"; "closed" ]

let test_handler_contract () =
  let check what expected got =
    Alcotest.(check (list string)) what expected got
  in
  List.iter
    (fun stack ->
      (* The stack under test connects to an engine host... *)
      let c, s, _ = run_echo ~client:stack ~server:Engine ~reply_close:false in
      check (stack_name stack ^ " connecting") (expected_log ~side:`Client stack) c;
      check (stack_name stack ^ "'s engine peer") (expected_log ~side:`Server Engine) s;
      (* ...and accepts from one. *)
      let c, s, _ = run_echo ~client:Engine ~server:stack ~reply_close:false in
      check (stack_name stack ^ " listening") (expected_log ~side:`Server stack) s;
      check (stack_name stack ^ "'s engine client") (expected_log ~side:`Client Engine) c;
      (* A failed connect is one [on_closed], to an unanswering host after
         the SYN retries and to a refusing one at once. *)
      let log, at = run_refused ~client:stack ~server:Engine in
      check (stack_name stack ^ " to a silent host") [ "closed" ] log;
      (* The engine's SYN retries at the 10 ms initial RTO end 1270 ms
         in; TAS retries on its own, shorter schedule. *)
      Alcotest.(check bool) (stack_name stack ^ " retried the SYN first") true
        (at >= if stack = Libtas then Time_ns.ms 10 else Time_ns.ms 1270);
      let log, at = run_refused ~client:stack ~server:Libtas in
      check (stack_name stack ^ " to a refusing host") [ "closed" ] log;
      Alcotest.(check bool) (stack_name stack ^ " refused without retrying")
        true
        (at < Time_ns.ms 10))
    all_stacks

(* A reply followed by [close] in the same handler reaches the client on
   every stack, and a send after the close takes nothing. *)
let test_reply_then_close () =
  List.iter
    (fun stack ->
      let _, s, got = run_echo ~client:Engine ~server:stack ~reply_close:true in
      Alcotest.(check bool) (stack_name stack ^ ": send took 64 B") true
        (List.mem "sent 64" s);
      Alcotest.(check bool) (stack_name stack ^ ": send after close took 0 B")
        true
        (List.mem "sent after close 0" s);
      Alcotest.(check int) (stack_name stack ^ ": client got the reply") 64 got)
    all_stacks

let suite =
  [
    Alcotest.test_case "kv get/set workload" `Quick test_kv_get_set;
    Alcotest.test_case "kv value round-trip" `Quick test_kv_value_roundtrip;
    Alcotest.test_case "echo reassembles multi-segment messages" `Quick
      test_echo_reassembles_messages;
    Alcotest.test_case "server model charges app cores" `Quick
      test_server_model_charges_cores;
    Alcotest.test_case "mTCP split placement adds batching delay" `Quick
      test_mtcp_split_adds_batching_delay;
    Alcotest.test_case "kv key padding" `Quick test_kv_key_padding;
    Alcotest.test_case "rpc echo server closes on peer EOF" `Quick
      test_rpc_echo_server_closes_on_eof;
    Alcotest.test_case "transport handler contract on every stack" `Quick
      test_handler_contract;
    Alcotest.test_case "transport reply then close reaches the client" `Quick
      test_reply_then_close;
  ]
