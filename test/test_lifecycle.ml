(* The connection lifecycle at data-path cost.

   - Equivalence, pinned: the wire bytes of a short TAS<->TAS lifecycle run
     (handshakes with their MSS, window-scale and timestamp options, data,
     FINs and their ACKs, a refused connect's RST), the lifecycle log of a
     run past its 1024-event capacity, and the rate/window sequence of the
     interval congestion controllers over 1,000 feedback steps. Each digest
     was captured before the slow path went allocation-free.
   - Allocation: a warm control tick over 64 flows (running one control
     iteration per flow, with feedback), and a warm exception path that
     answers stray segments with pooled RSTs, allocate nothing; a warm
     connect / 64 B echo / close loop is pinned at its minor and major
     words per connection.
   - Integrity: after connection churn over a lossy link, every tuple the
     flow table stores still names and finds its own flow. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Core = Tas_cpu.Core
module Packet = Tas_proto.Packet
module Tcp = Tas_proto.Tcp_header
module Ipv4 = Tas_proto.Ipv4_header
module Nic = Tas_netsim.Nic
module Port = Tas_netsim.Port
module Tap = Tas_netsim.Tap
module Pcap = Tas_netsim.Pcap
module Topology = Tas_netsim.Topology
module Fault = Tas_netsim.Fault
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Slow_path = Tas_core.Slow_path
module Flow_state = Tas_core.Flow_state
module Flow_table = Tas_core.Flow_table
module Fast_path = Tas_core.Fast_path
module Four_tuple = Tas_proto.Addr.Four_tuple
module Rng = Tas_engine.Rng
module Transport = Tas_apps.Transport
module Interval_cc = Tas_tcp.Interval_cc
module J = Tas_telemetry.Json

let md5 s = Digest.to_hex (Digest.string s)

(* Two TAS hosts with the default configuration, one app core each. *)
let tas_pair sim net =
  let mk nic core_id =
    let tas = Tas.create sim ~nic ~config:Config.default () in
    let lt =
      Tas.app tas ~app_cores:[| Core.create sim ~id:core_id () |]
        ~api:Libtas.Sockets
    in
    (tas, Transport.of_libtas lt ~ctx_of_conn:(fun _ -> 0))
  in
  let a = mk net.Topology.a.Topology.nic 500 in
  let b = mk net.Topology.b.Topology.nic 600 in
  (a, b)

(* Port 7 echoes and closes once the client has closed. *)
let echo_server server =
  Transport.listen server ~port:7 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_data = (fun conn d -> ignore (Transport.send conn d));
        Transport.on_peer_closed = Transport.close;
      })

(* A client that connects, sends [msg], closes once the echo is back and
   then calls [k]. *)
let echo_once client ~dst_ip ~msg k =
  let got = ref 0 in
  Transport.connect client ~dst_ip ~dst_port:7 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_connected = (fun conn -> ignore (Transport.send conn msg));
        Transport.on_data =
          (fun conn d ->
            got := !got + Bytes.length d;
            if !got = Bytes.length msg then Transport.close conn);
        Transport.on_closed = (fun _ -> k ());
      })

(* --- Equivalence -------------------------------------------------------- *)

(* Three sequential echo connections and one connect to a port nobody
   listens on, every frame of both directions tapped. *)
let lifecycle_pcap_digest () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let tap = Tap.create () in
  let nic_a = net.Topology.a.Topology.nic
  and nic_b = net.Topology.b.Topology.nic in
  Port.set_deliver net.Topology.a.Topology.uplink
    (Tap.wrap tap sim (Nic.input nic_b));
  Port.set_deliver net.Topology.b.Topology.uplink
    (Tap.wrap tap sim (Nic.input nic_a));
  let (_, client), (_, server) = tas_pair sim net in
  echo_server server;
  let dst_ip = Nic.ip nic_b in
  let done_ = ref 0 in
  let rec go n =
    if n > 0 then
      echo_once client ~dst_ip ~msg:(Bytes.make 64 'p') (fun () ->
          incr done_;
          go (n - 1))
  in
  go 3;
  let refused = ref false in
  Transport.connect client ~dst_ip ~dst_port:9 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_closed = (fun _ -> refused := true);
      });
  Sim.run ~until:(Time_ns.ms 50) sim;
  Alcotest.(check int) "three echoes" 3 !done_;
  let flags p = p.Packet.tcp.Tcp.flags in
  let count f = List.length (Tap.matching tap f) in
  Alcotest.(check int) "syns and syn-acks" 7
    (count (fun p -> (flags p).Tcp.syn));
  Alcotest.(check int) "fins" 6 (count (fun p -> (flags p).Tcp.fin));
  Alcotest.(check int) "the refusal" 1 (count (fun p -> (flags p).Tcp.rst));
  Alcotest.(check bool) "syn options on the wire" true
    (List.for_all
       (fun r ->
         let h = r.Tap.pkt.Packet.tcp in
         h.Tcp.mss = Some 1460 && h.Tcp.wscale = Some 4 && h.Tcp.has_ts)
       (Tap.matching tap (fun p -> (flags p).Tcp.syn)));
  let d = Digest.to_hex (Digest.bytes (Pcap.to_bytes (Tap.records tap))) in
  Tap.clear tap;
  d

let test_lifecycle_pcap_pinned () =
  Alcotest.(check string) "control-segment pcap as before pooling"
    "9b7de2c10d8fc43ae8c5e57dbb2468b7" (lifecycle_pcap_digest ())

(* 200 sequential echo connections: six lifecycle events per connection on
   each host, so both logs wrap and drop their oldest events. *)
let test_lifecycle_log_pinned () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let (tas_a, client), (tas_b, server) = tas_pair sim net in
  echo_server server;
  let dst_ip = Nic.ip net.Topology.b.Topology.nic in
  let done_ = ref 0 in
  let rec go n =
    if n > 0 then
      echo_once client ~dst_ip ~msg:(Bytes.make 64 'l') (fun () ->
          incr done_;
          go (n - 1))
  in
  go 200;
  Transport.connect client ~dst_ip ~dst_port:9 (fun _ ->
      Transport.null_handlers);
  Sim.run ~until:(Time_ns.ms 400) sim;
  Alcotest.(check int) "every echo done" 200 !done_;
  let log tas = J.to_string (Slow_path.lifecycle_json (Tas.slow_path tas)) in
  let dropped tas =
    match J.member "dropped" (Slow_path.lifecycle_json (Tas.slow_path tas)) with
    | Some (J.Int n) -> n
    | _ -> -1
  in
  Alcotest.(check bool) "the client log wrapped" true (dropped tas_a > 0);
  Alcotest.(check bool) "the server log wrapped" true (dropped tas_b > 0);
  Alcotest.(check string) "client lifecycle log"
    "b0792250f9ba6cb3deb227a592387241" (md5 (log tas_a));
  Alcotest.(check string) "server lifecycle log"
    "82d601d31fd899d574270c771a625d03" (md5 (log tas_b))

(* A deterministic feedback stream (a 31-bit LCG) driving each controller;
   the digest covers every installed rate (as exact hex floats) or
   window. *)
let control_sequence algorithm ~initial =
  let cc = Interval_cc.create algorithm ~initial in
  let seed = ref 12345 in
  let next bound =
    seed := ((!seed * 1103515245) + 12345) land 0x7FFF_FFFF;
    !seed mod bound
  in
  let out = Buffer.create 16384 in
  for _ = 1 to 1000 do
    let acked = if next 8 = 0 then 0 else next 2_000_000 in
    let ecn = if next 3 = 0 then next (acked + 1) else 0 in
    let frexmits = if next 40 = 0 then 1 else 0 in
    let timeouts = if next 90 = 0 then 1 else 0 in
    let rtt = if next 10 = 0 then 0 else 20_000 + next 900_000 in
    let interval = if next 50 = 0 then 0 else 50_000 + next 500_000 in
    let fb =
      {
        Interval_cc.acked_bytes = acked;
        ecn_bytes = ecn;
        fast_retransmits = frexmits;
        timeouts;
        rtt_ns = rtt;
        interval_ns = interval;
      }
    in
    ignore (Interval_cc.update cc fb);
    (match Interval_cc.current cc with
    | Interval_cc.Rate_bps r -> Buffer.add_string out (Printf.sprintf "%h;" r)
    | Interval_cc.Window_bytes w ->
      Buffer.add_string out (Printf.sprintf "%d;" w))
  done;
  md5 (Buffer.contents out)

let test_control_sequence_pinned () =
  Alcotest.(check string) "dctcp-rate" "585d1ce5e2f1305aeba039f998263bec"
    (control_sequence
       (Interval_cc.Dctcp_rate { step_bps = 10e6 })
       ~initial:(Interval_cc.Rate_bps 100e6));
  Alcotest.(check string) "timely" "5277b07f5b146e43acf99324cda5a4ac"
    (control_sequence
       (Interval_cc.Timely
          { t_low_ns = 50_000; t_high_ns = 500_000; addstep_bps = 10e6 })
       ~initial:(Interval_cc.Rate_bps 100e6));
  Alcotest.(check string) "window-dctcp" "9afc7aa76a8e5502e46b9345606eddb2"
    (control_sequence
       (Interval_cc.Window_dctcp { mss = 1460 })
       ~initial:(Interval_cc.Window_bytes 14_600))

(* --- Allocation ---------------------------------------------------------- *)

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* [Sim.run ~until] would box its limit in an option on every call: step
   up to a sentinel event instead. *)
let stop = ref false
let set_stop () = stop := true

let run_for sim dt =
  stop := false;
  Sim.post sim dt set_stop;
  while (not !stop) && Sim.step sim do
    ()
  done

(* 64 idle established flows under the default rate-based DCTCP control
   loop. Each round writes fresh feedback into every flow's counters (acked
   bytes, some ECN marks, an occasional fast retransmit) and lets a few
   control intervals pass: ticks snapshot the due flows and their batches
   run one control iteration per due flow — the feedback record refill,
   the in-place controller update and the rate install. *)
let test_control_tick_allocation () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let (tas_a, client), (_, server) = tas_pair sim net in
  Transport.listen server ~port:7 (fun _ -> Transport.null_handlers);
  let dst_ip = Nic.ip net.Topology.b.Topology.nic in
  for _ = 1 to 64 do
    Transport.connect client ~dst_ip ~dst_port:7 (fun _ ->
        Transport.null_handlers)
  done;
  Sim.run ~until:(Time_ns.ms 5) sim;
  let flows = ref [] in
  Tas_core.Flow_table.iter
    (Tas_core.Fast_path.flows (Tas.fast_path tas_a))
    (fun _ f -> flows := f :: !flows);
  let flows = Array.of_list !flows in
  Alcotest.(check int) "64 flows established" 64 (Array.length flows);
  let iterations () =
    (* Every iteration clears the flow's counters: count those it read. *)
    Array.fold_left
      (fun n f -> if Flow_state.cnt_ackb f = 0 then n + 1 else n)
      0 flows
  in
  (* A few control intervals (max of 50 us and two RTTs) per round. *)
  let round_ns = Time_ns.us 200 in
  let round r =
    for i = 0 to Array.length flows - 1 do
      let f = flows.(i) in
      Flow_state.set_cnt_ackb f (20_000 + (97 * i));
      Flow_state.set_cnt_ecnb f (if (r + i) mod 3 = 0 then 3_000 else 0);
      Flow_state.set_cnt_frexmits f (if (r + i) mod 11 = 0 then 1 else 0)
    done;
    run_for sim round_ns
  in
  for r = 1 to 50 do
    round r
  done;
  Alcotest.(check bool) "every flow iterated each interval" true
    (iterations () = 64);
  Alcotest.(check (float 0.)) "calibration" 0. (minor_words_during ignore);
  Alcotest.(check (float 0.)) "200 rounds allocate nothing" 0.
    (minor_words_during (fun () ->
         for r = 51 to 250 do
           round r
         done))

(* Stray pure ACKs for tuples the host has no state for, each answered with
   a pooled RST ([Slow_path.build]): the exception handoff, the table
   probes, the segment build and the lifecycle ring (which wraps) run
   without allocating. *)
let test_rst_answer_allocation () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let nic_a = net.Topology.a.Topology.nic
  and nic_b = net.Topology.b.Topology.nic in
  let tas = Tas.create sim ~nic:nic_a ~config:Config.default () in
  let rsts = ref 0 in
  Nic.set_rx_handler nic_b (fun ~queue:_ pkt ->
      if pkt.Packet.tcp.Tcp.flags.Tcp.rst then incr rsts;
      Packet.release pkt);
  let stray i =
    let pkt = Packet.take (Nic.packet_pool nic_b) in
    Tcp.fill pkt.Packet.tcp ~src_port:(20_000 + (i land 1023)) ~dst_port:80
      ~seq:(1000 * i) ~ack:(77 * i) ~flags:Tcp.ack_flags ~window:1024
      ~ts_val:i ~ts_ecr:0;
    Packet.fill pkt ~src_mac:(Nic.mac nic_b) ~dst_mac:(Nic.mac nic_a)
      ~src_ip:(Nic.ip nic_b) ~dst_ip:(Nic.ip nic_a) ~ecn:Ipv4.Not_ect
      ~payload:Bytes.empty;
    Nic.transmit nic_b pkt;
    run_for sim (Time_ns.us 20)
  in
  for i = 1 to 1100 do
    stray i
  done;
  Alcotest.(check int) "every stray answered" 1100 !rsts;
  Alcotest.(check int) "counted" 1100 (Slow_path.rsts_sent (Tas.slow_path tas));
  Alcotest.(check (float 0.)) "1000 RST answers allocate nothing" 0.
    (minor_words_during (fun () ->
         for i = 1101 to 2100 do
           stray i
         done));
  Alcotest.(check int) "all answered" 2100 !rsts

(* TAS<->TAS closed-loop connection churn: 16 clients that connect, echo
   64 B and close, then reconnect, on [Test_pool.wide_pair]. The words per
   connection (both hosts, the test's own handlers included) are pinned at
   the measured values, 612.0625 minor and 0 major: per-connection state
   (flow record, entry, pending record, tuple, bucket, controller, socket,
   handlers) and the timer closures of the handshake and teardown; the
   connection events reach the app cores through work queues
   ([Core.queue]). The client's handlers are part of the figure, which is why
   it does not go through [echo_once] (whose continuation adds 3 words). *)
let churn_minor_words_per_conn = 612.0625
let churn_major_words_per_conn = 0.0

let test_churn_words_per_connection () =
  let sim = Sim.create () in
  let net, (_, client), (_, server) = Test_pool.wide_pair sim in
  echo_server server;
  let dst_ip = Nic.ip net.Topology.b.Topology.nic in
  let msg = Bytes.make 64 'c' in
  let closed = ref 0 in
  let rec cycle () =
    let got = ref 0 in
    Transport.connect client ~dst_ip ~dst_port:7 (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_connected =
            (fun conn -> ignore (Transport.send conn msg));
          Transport.on_data =
            (fun conn d ->
              got := !got + Bytes.length d;
              if !got = Bytes.length msg then Transport.close conn);
          Transport.on_closed =
            (fun _ ->
              incr closed;
              cycle ());
        })
  in
  for _ = 1 to 16 do
    cycle ()
  done;
  Sim.run ~until:(Time_ns.ms 10) sim;
  let c0 = !closed in
  let minor, major = Test_pool.words_per_op sim ~ops:(fun () -> !closed) in
  Alcotest.(check bool) "connections churned" true (!closed - c0 > 150);
  Alcotest.(check (float 0.)) "minor words per connection"
    churn_minor_words_per_conn minor;
  Alcotest.(check (float 0.)) "major words per connection"
    churn_major_words_per_conn major

(* Stored-key integrity. Every table keyed by a 4-tuple probes with one
   scratch tuple that is rewritten for each lookup; a table that kept a
   probe as a stored key would see that key change under it. TAS<->TAS
   echo churn over a link dropping 5% each way makes SYN and FIN
   retransmissions, RSTs and exception packets rewrite every probe many
   times; afterwards each stored tuple must still name its own flow and
   find it. *)
let test_stored_keys_survive_probes () =
  let sim = Sim.create () in
  let net =
    Topology.point_to_point sim ~queues_per_nic:2
      ~fault_ab:(Fault.uniform_loss 0.05) ~fault_ba:(Fault.uniform_loss 0.05)
      ~rng:(Rng.create 25) ()
  in
  let (tas_a, client), (tas_b, server) = tas_pair sim net in
  echo_server server;
  let dst_ip = Nic.ip net.Topology.b.Topology.nic in
  let closed = ref 0 in
  let rec loop () =
    echo_once client ~dst_ip ~msg:(Bytes.make 64 'k') (fun () ->
        incr closed;
        loop ())
  in
  for _ = 1 to 16 do
    loop ()
  done;
  Sim.run ~until:(Time_ns.ms 300) sim;
  Alcotest.(check bool) "connections churned" true (!closed > 100);
  let sp tas = Tas.slow_path tas in
  Alcotest.(check bool) "losses forced timeouts and RSTs" true
    (Slow_path.timeout_retransmits (sp tas_a)
     + Slow_path.timeout_retransmits (sp tas_b)
     > 0
    && Slow_path.rsts_sent (sp tas_a) + Slow_path.rsts_sent (sp tas_b) > 0);
  let check_host name tas nic =
    let table = Fast_path.flows (Tas.fast_path tas) in
    Alcotest.(check int)
      (name ^ ": table and slow path agree")
      (Slow_path.flow_count (sp tas))
      (Flow_table.count table);
    Alcotest.(check bool) (name ^ ": flows in flight") true
      (Flow_table.count table > 0);
    Flow_table.iter table (fun tuple flow ->
        let own =
          {
            Four_tuple.local_ip = Nic.ip nic;
            local_port = Flow_state.local_port flow;
            peer_ip = Flow_state.peer_ip flow;
            peer_port = Flow_state.peer_port flow;
          }
        in
        if not (Four_tuple.equal tuple own) then
          Alcotest.failf "%s: stored key %a names flow %a" name Four_tuple.pp
            tuple Four_tuple.pp own;
        if Flow_table.find table (Four_tuple.copy tuple) != flow then
          Alcotest.failf "%s: %a does not find its flow" name Four_tuple.pp
            tuple)
  in
  check_host "client" tas_a net.Topology.a.Topology.nic;
  check_host "server" tas_b net.Topology.b.Topology.nic

let suite =
  [
    Alcotest.test_case "lifecycle pcap pinned" `Quick
      test_lifecycle_pcap_pinned;
    Alcotest.test_case "lifecycle log past capacity pinned" `Quick
      test_lifecycle_log_pinned;
    Alcotest.test_case "interval cc control sequences pinned" `Quick
      test_control_sequence_pinned;
    Alcotest.test_case "warm control tick over 64 flows allocates nothing"
      `Quick test_control_tick_allocation;
    Alcotest.test_case "warm RST answers allocate nothing" `Quick
      test_rst_answer_allocation;
    Alcotest.test_case "connection churn words per connection" `Quick
      test_churn_words_per_connection;
    Alcotest.test_case "stored tuple keys survive probe rewrites" `Quick
      test_stored_keys_survive_probes;
  ]
