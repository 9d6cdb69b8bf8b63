(* Loss recovery at data-path cost.

   - Equivalence, pinned: the wire bytes of a lossy TAS<->TAS transfer,
     SACK options included, for every recovery policy with the
     out-of-order receiver and with the go-back-N one. The RACK-TLP row
     was captured before the lossy path went allocation-free, the others
     before the ACK and receive paths were merged across policies.
   - Allocation: the fault stage under uniform loss, the out-of-order
     interval set (store, merge, evict, deliver, SACK blocks into a
     header), the RACK-TLP ACK engine with SACK blocks, the tail-loss
     probe's re-arm on every cumulative ACK and a lossy fast-path transfer
     allocate nothing once warm; a warm lossy RACK-TLP transfer stays
     within a per-segment word bound. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Addr = Tas_proto.Addr
module Seq32 = Tas_proto.Seq32
module Packet = Tas_proto.Packet
module Tcp = Tas_proto.Tcp_header
module Ipv4 = Tas_proto.Ipv4_header
module Nic = Tas_netsim.Nic
module Port = Tas_netsim.Port
module Tap = Tas_netsim.Tap
module Pcap = Tas_netsim.Pcap
module Fault = Tas_netsim.Fault
module Topology = Tas_netsim.Topology
module Ring = Tas_buffers.Ring_buffer
module Ooo = Tas_buffers.Ooo_interval
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Fast_path = Tas_core.Fast_path
module Flow_state = Tas_core.Flow_state
module Rate_bucket = Tas_core.Rate_bucket
module Transport = Tas_apps.Transport
module Rec = Tas_recovery

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A 1 Gb/s link with 1 ms of delay each way: dozens of segments in
   flight, so losses draw SACK evidence, RACK marks and tail probes. *)
let wan_spec =
  {
    Topology.rate_bps = 1e9;
    delay = Time_ns.ms 1;
    capacity_pkts = 1024;
    ecn_threshold = None;
  }

(* Two TAS hosts under [policy] (RACK-TLP unless given) with fixed-rate
   senders, two fast-path and two app cores each; [ooo = false] is the
   go-back-N receiver of Fig. 7. *)
let tas_pair ?(policy = Rec.Policy.Rack_tlp) ?(ooo = true) sim net =
  let mk nic core_base =
    let config =
      {
        Config.default with
        Config.max_fast_path_cores = 2;
        rx_buf_size = 262144;
        tx_buf_size = 131072;
        cc = Tas_tcp.Interval_cc.Fixed_rate;
        initial_rate_bps = 5e8;
        control_interval_fixed_ns = Some 10_000_000;
        timeout_intervals = 10;
        rx_ooo_enabled = ooo;
        recovery_policy = policy;
      }
    in
    let tas = Tas.create sim ~nic ~config () in
    let cores =
      [| Core.create sim ~id:core_base (); Core.create sim ~id:(core_base + 1) () |]
    in
    let lt = Tas.app tas ~app_cores:cores ~api:Libtas.Sockets in
    (tas, Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod 2))
  in
  let a = mk net.Topology.a.Topology.nic 500 in
  let b = mk net.Topology.b.Topology.nic 600 in
  (a, b)

(* [conns] connections from host a to host b that keep their transmit
   buffers full; the receiver counts what arrives. *)
let bulk_transfer ~conns net (_, sender) (_, receiver) =
  let received = ref 0 in
  Transport.listen receiver ~port:7001 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_data = (fun _ d -> received := !received + Bytes.length d);
      });
  let chunk = Bytes.make 16384 'w' in
  let rec push conn = if Transport.send conn chunk > 0 then push conn in
  for _ = 1 to conns do
    Transport.connect sender ~dst_ip:(Nic.ip net.Topology.b.Topology.nic)
      ~dst_port:7001 (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_connected = push;
          Transport.on_sendable = push;
        })
  done;
  received

(* --- Equivalence -------------------------------------------------------- *)

(* Four connections over both fast-path cores, 2% uniform loss each way,
   every frame offered to either fault stage tapped (the dropped ones
   included). Returns the pcap digest; [check] asserts on the run first. *)
let lossy_pcap_digest ~policy ~ooo check =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~spec:wan_spec ~queues_per_nic:2 () in
  let rng = Rng.create 77 in
  let tap = Tap.create ~limit:1_000_000 () in
  let nic_a = net.Topology.a.Topology.nic
  and nic_b = net.Topology.b.Topology.nic in
  let lossy port nic =
    let stage = Fault.create sim (Rng.split rng) (Fault.uniform_loss 0.02) in
    Port.set_deliver port (Tap.wrap tap sim (Fault.wrap stage (Nic.input nic)));
    stage
  in
  let ab = lossy net.Topology.a.Topology.uplink nic_b in
  let ba = lossy net.Topology.b.Topology.uplink nic_a in
  let a, b = tas_pair ~policy ~ooo sim net in
  let received = bulk_transfer ~conns:4 net a b in
  Sim.run ~until:(Time_ns.ms 60) sim;
  let drops f = Fault.total_drops (Fault.counters f) in
  Alcotest.(check bool) "losses both ways" true (drops ab > 0 && drops ba > 0);
  check ~received:!received ~fp:(Tas.fast_path (fst a)) tap;
  let d = Digest.to_hex (Digest.bytes (Pcap.to_bytes (Tap.records tap))) in
  Tap.clear tap;
  d

(* What only RACK-TLP does: probes, reordering timeouts and multi-block
   SACK options. *)
let check_rack ~received ~fp tap =
  Alcotest.(check bool) "data delivered" true (received > 1_000_000);
  let r = Fast_path.rec_stats fp in
  Alcotest.(check bool) "selective retransmissions, probes, RACK timeouts"
    true
    (r.Fast_path.rec_selective_retransmits > 0
    && r.Fast_path.rec_tlp_probes > 0
    && r.Fast_path.rec_reo_timeouts > 0);
  let sacks =
    Tap.matching tap (fun p -> Tcp.sack_blocks p.Packet.tcp <> [])
  in
  Alcotest.(check bool) "SACK options on the wire" true
    (List.length sacks > 100);
  Alcotest.(check bool) "multi-block SACK options" true
    (List.exists
       (fun r -> List.length (Tcp.sack_blocks r.Tap.pkt.Packet.tcp) > 1)
       sacks)

(* The other rows pin the bytes delivered in the 60 ms beside the digest. *)
let check_received n ~received ~fp:_ _ =
  Alcotest.(check int) "bytes delivered" n received

(* One row per recovery policy and receiver, digests captured before the
   ACK and receive paths were merged across policies. *)
let lossy_pcaps =
  [
    (Rec.Policy.Rack_tlp, true, check_rack, "cf568f5e0cfa4aa910531f6e1b342e5f");
    ( Rec.Policy.Rack_tlp, false, check_received 334_010,
      "b6b53b3bce86dbbb91b23faaab7498d1" );
    ( Rec.Policy.Sack, true, check_received 4_873_858,
      "35d66c61c5cd9d13fa6203633a00a9c9" );
    ( Rec.Policy.Sack, false, check_received 334_010,
      "dfdec764b1d956b21f4fd163567b379d" );
    ( Rec.Policy.Reno, true, check_received 2_779_789,
      "002d1bfe7a774d3940ee31449c935204" );
    ( Rec.Policy.Reno, false, check_received 2_718_010,
      "1bc0d2659f6f7e626179fd372d4a0c01" );
  ]

let pcap_test (policy, ooo, check, digest) =
  let name =
    Printf.sprintf "lossy %s%s pcap pinned" (Rec.Policy.name policy)
      (if ooo then "" else " gbn")
  in
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name digest (lossy_pcap_digest ~policy ~ooo check))

(* --- Allocation ---------------------------------------------------------- *)

(* The fault stage deciding uniform loss (a blackout schedule present but
   not due) over pooled packets, which both outcomes release. *)
let test_fault_wrap_allocation () =
  let sim = Sim.create () in
  let spec =
    { (Fault.uniform_loss 0.3) with Fault.blackouts = [ (Time_ns.sec 1, Time_ns.sec 2) ] }
  in
  let fault = Fault.create sim (Rng.create 5) spec in
  let pool = Packet.Pool.create () in
  let payload = Bytes.make 100 'f' in
  let src_ip = Addr.host_ip 1 and dst_ip = Addr.host_ip 2 in
  let delivered = ref 0 in
  let deliver pkt =
    incr delivered;
    Packet.release pkt
  in
  let offer () =
    let pkt = Packet.take pool in
    Tcp.fill pkt.Packet.tcp ~src_port:1 ~dst_port:2 ~seq:0 ~ack:0
      ~flags:Tcp.data_flags ~window:1000 ~ts_val:1 ~ts_ecr:0;
    Packet.fill pkt ~src_mac:1 ~dst_mac:2 ~src_ip ~dst_ip ~ecn:Ipv4.Ect0
      ~payload;
    Fault.wrap fault deliver pkt
  in
  for _ = 1 to 1_000 do
    offer ()
  done;
  let words =
    minor_words_during (fun () ->
        for _ = 1 to 10_000 do
          offer ()
        done)
  in
  let c = Fault.counters fault in
  Alcotest.(check bool) "both outcomes" true
    (c.Fault.uniform_drops > 2_000 && !delivered > 5_000);
  Alcotest.(check (float 0.)) "0 words per packet" 0. words

(* A four-range receiver cycling through every [handle] outcome: three
   disjoint stores, a store that merges with one of them, a fourth range,
   a closer one that evicts the furthest, a further one dropped, a
   duplicate, the SACK blocks of the result written into a header, and
   the gap fill that delivers the lowest run. *)
let test_ooo_allocation () =
  let o = Ooo.create ~max_ranges:4 () in
  let hdr =
    Tcp.make ~ts:(1, 1) ~src_port:1 ~dst_port:2 ~seq:0 ~ack:0
      ~flags:Tcp.ack_flags ~window:0 ()
  in
  let exp = ref (Seq32.of_int 0xFFFF_0000) and bad = ref 0 in
  let expect want got = if want <> got then incr bad in
  let at off len =
    Ooo.handle o ~exp:!exp ~window:65536 ~seg_start:(Seq32.add !exp off)
      ~seg_len:len
  in
  let round () =
    expect Ooo.Store (at 2000 500);
    expect Ooo.Store (at 4000 500);
    expect Ooo.Store (at 8000 500);
    expect Ooo.Store (at 3000 1000) (* abuts 4000: merged *);
    expect Ooo.Store (at 12000 500);
    expect Ooo.Store (at 6000 100) (* full: evicts 12000 *);
    expect Ooo.Drop (at 16000 500) (* full, and further than all *);
    expect Ooo.Duplicate (at (-500) 200);
    Tcp.fill hdr ~src_port:1 ~dst_port:2 ~seq:0 ~ack:0 ~flags:Tcp.ack_flags
      ~window:0 ~ts_val:1 ~ts_ecr:1;
    Ooo.write_sack o hdr;
    if hdr.Tcp.sack_n <> 3 || Tcp.sack_start hdr 0 <> Seq32.add !exp 6000 then
      incr bad;
    expect Ooo.Deliver (at 0 2000);
    if Ooo.advance o <> 2500 then incr bad;
    exp := Seq32.add !exp (Ooo.advance o);
    Ooo.reset o
  in
  for _ = 1 to 100 do
    round ()
  done;
  let words =
    minor_words_during (fun () ->
        for _ = 1 to 1_000 do
          round ()
        done)
  in
  Alcotest.(check int) "every verdict as expected" 0 !bad;
  Alcotest.(check (float 0.)) "0 words per round" 0. words

(* [Rack_tlp.on_ack] digesting a duplicate ACK over a 90-segment flight
   whose front segment is a hole: the cumulative trim, the SACK scan and
   the dupthresh and RACK time-rule scans, outcome in the state. Two
   shapes: two SACK blocks with a second hole between them, and one block
   covering everything above the front hole. *)
let test_rack_on_ack_allocation () =
  let len = 1448 and flight = 90 in
  let snd_nxt = flight * len in
  let replay ~blocks ~sacked =
    let st = Rec.State.create Rec.Policy.Rack_tlp in
    for i = 0 to flight - 1 do
      Rec.Scoreboard.on_transmit st.Rec.State.sb ~seq:(i * len) ~len
        ~now_ns:(i * 1_000)
    done;
    let sack =
      Tcp.make ~sack:blocks ~src_port:80 ~dst_port:1234 ~seq:0 ~ack:0
        ~flags:Tcp.ack_flags ~window:65535 ()
    in
    let ack () =
      Rec.Rack_tlp.on_ack st ~una:0 ~snd_nxt ~sack ~dup_acks:3 ~reo_wnd:1_000
    in
    ack ();
    Alcotest.(check int) "first ACK sacks every block" sacked
      st.Rec.State.newly_sacked;
    Alcotest.(check bool) "and enters recovery" true st.Rec.State.entered;
    let words =
      minor_words_during (fun () ->
          for _ = 1 to 10_000 do
            ack ()
          done)
    in
    Alcotest.(check (float 0.)) "0 words per ACK" 0. words
  in
  replay ~blocks:[ (40 * len, snd_nxt); (len, 30 * len) ] ~sacked:79;
  replay ~blocks:[ (len, snd_nxt) ] ~sacked:89

(* Two fast paths joined by a link, one RACK-TLP flow each way of one
   connection, no slow path or application: host a's transmit ring feeds
   [maybe_send], host b's [process] delivers and ACKs, host a's [process]
   takes the ACKs and sends on. Returns a transfer function that pushes
   [n] bytes and runs the simulation to quiescence, host a's fast path and
   its flow. *)
let fast_path_pair ?fault sim =
  let net =
    Topology.point_to_point sim ~spec:wan_spec ~queues_per_nic:1
      ?fault_ab:fault ?fault_ba:fault ~rng:(Rng.create 11) ()
  in
  let nic_a = net.Topology.a.Topology.nic
  and nic_b = net.Topology.b.Topology.nic in
  let config =
    { Config.default with Config.recovery_policy = Rec.Policy.Rack_tlp }
  in
  let fast_path nic id =
    let fp = Fast_path.create sim ~nic ~cores:[| Core.create sim ~id () |] ~config in
    Fast_path.attach fp;
    fp
  in
  let fp_a = fast_path nic_a 0 and fp_b = fast_path nic_b 1 in
  let buf = 1 lsl 20 in
  let flow fp ~nic ~peer ~local_port ~peer_port ~tx_iss ~rx_next =
    let f =
      Flow_state.create ~arena:(Tas_core.Flow_arena.create ~capacity:1 ())
        ~pool:(Ring.Pool.create ()) ~recovery:Rec.Policy.Rack_tlp
        ~ooo_ranges:4 ~opaque:1 ~context:0
        ~bucket:(Rate_bucket.create sim (Rate_bucket.Rate 5e8) ~burst_bytes:65536)
        ~rx_buf_size:buf ~tx_buf_size:buf ~local_port ~peer_ip:(Nic.ip peer)
        ~peer_port ~peer_mac:(Nic.mac peer) ~tx_iss ~rx_next ~window:buf
        ~peer_wscale:Tcp.wscale ()
    in
    Fast_path.install_flow fp
      ~tuple:
        {
          Addr.Four_tuple.local_ip = Nic.ip nic;
          local_port;
          peer_ip = Nic.ip peer;
          peer_port;
        }
      f;
    f
  in
  let a = flow fp_a ~nic:nic_a ~peer:nic_b ~local_port:5001 ~peer_port:9000
      ~tx_iss:1000 ~rx_next:7000
  and b = flow fp_b ~nic:nic_b ~peer:nic_a ~local_port:9000 ~peer_port:5001
      ~tx_iss:7000 ~rx_next:1000
  in
  let chunk = Bytes.make 65536 'x' in
  let transfer n =
    let pushed = ref 0 in
    while !pushed < n do
      pushed :=
        !pushed
        + Ring.push (Flow_state.tx_buf a) chunk ~off:0
            ~len:(min 65536 (n - !pushed))
    done;
    Fast_path.notify_tx fp_a a;
    Sim.run sim;
    (* The receiving application: consume what arrived. *)
    Ring.advance_tail (Flow_state.rx_buf b) (Ring.used (Flow_state.rx_buf b))
  in
  (transfer, fp_a, a)

(* A lossless RACK-TLP transfer: every cumulative ACK bumps the recovery
   generation and re-arms the tail-loss probe, whose stale events then fire
   and dissolve. The re-arms, their events and everything else per segment
   allocate nothing. *)
let test_tlp_rearm_allocation () =
  let sim = Sim.create () in
  let transfer, fp_a, a = fast_path_pair sim in
  (* Two warm-up transfers of the measured size: the first grows the
     packet and buffer pools, the event heap and the FIFOs to their peaks,
     the second shows it did. *)
  transfer 1_000_000;
  transfer 1_000_000;
  let segs () = (Fast_path.stats fp_a).Fast_path.tx_data_packets in
  let s0 = segs () and e0 = Sim.events_fired sim in
  let words = minor_words_during (fun () -> transfer 1_000_000) in
  let n = segs () - s0 in
  Alcotest.(check bool) "at least 600 segments" true (n >= 600);
  Alcotest.(check int) "all acknowledged" 0 (Flow_state.tx_sent a);
  Alcotest.(check int) "no probe needed" 0
    (Fast_path.rec_stats fp_a).Fast_path.rec_tlp_probes;
  (* Each segment's ACK re-armed the probe: at least one event each. *)
  Alcotest.(check bool) "probe events fired and dissolved" true
    (Sim.events_fired sim - e0 > 4 * n);
  Alcotest.(check (float 0.)) "0 words per segment" 0. words

(* The same pair under 2% uniform loss each way: the receiver stores
   segments out of order, answers with SACK-carrying duplicate ACKs and
   delivers each filled gap in one advance; the sender's RACK marks,
   selective retransmissions, reordering timer and probes repair the
   losses without the slow path. Warm, all of it allocates nothing. *)
let test_lossy_pair_allocation () =
  let sim = Sim.create () in
  let transfer, fp_a, a =
    fast_path_pair ~fault:(Fault.uniform_loss 0.02) sim
  in
  transfer 1_000_000;
  transfer 1_000_000;
  let repairs () =
    (Fast_path.rec_stats fp_a).Fast_path.rec_selective_retransmits
  in
  let r0 = repairs () in
  let words = minor_words_during (fun () -> transfer 1_000_000) in
  Alcotest.(check int) "all acknowledged" 0 (Flow_state.tx_sent a);
  Alcotest.(check bool) "losses repaired selectively" true
    (repairs () - r0 > 10);
  Alcotest.(check (float 0.)) "0 words" 0. words

(* A tail-loss probe is pending when an RTO rewinds the sender: the
   rewind disarms it and the re-send arms a fresh probe, which fires one
   PTO after the rewind. A blackout both ways keeps every ACK away, so
   nothing else clears the armed flag. *)
let test_tlp_rearms_after_rewind () =
  let sim = Sim.create () in
  let blackout =
    { Fault.passthrough with Fault.blackouts = [ (0, Time_ns.sec 1) ] }
  in
  let _, fp_a, a = fast_path_pair ~fault:blackout sim in
  ignore
    (Ring.push (Flow_state.tx_buf a) (Bytes.make 14_480 'r') ~off:0
       ~len:14_480);
  Fast_path.notify_tx fp_a a;
  let probes () = (Fast_path.rec_stats fp_a).Fast_path.rec_tlp_probes in
  Sim.run ~until:(Time_ns.ms 5) sim;
  Alcotest.(check bool) "data in flight, probe pending" true
    (Flow_state.tx_sent a > 0 && (Flow_state.recovery a).Rec.State.tlp_armed);
  Fast_path.trigger_retransmit fp_a a;
  (* Without an RTT sample the PTO is the 20 ms handshake RTO: the first
     probe was due at 20 ms, the re-armed one at 25 ms. *)
  Sim.run ~until:(Time_ns.ms 24) sim;
  Alcotest.(check int) "the stale probe dissolved" 0 (probes ());
  Sim.run ~until:(Time_ns.ms 26) sim;
  Alcotest.(check int) "the re-armed probe fired" 1 (probes ())

(* TAS<->TAS RACK-TLP under 2% uniform loss each way: the fast paths'
   SACK, RACK and probe work, the slow path's control loop and the test's
   application, warm. The words per data segment (both hosts, the test's
   handlers included) are pinned at the measured value, 1.69 (70.7 before
   the loss path went allocation-free): what remains is libTAS's
   per-notification closures on the application cores. *)
let lossy_words_per_segment = 1.70

(* The measured transfer, run through its first 200 ms. *)
let lossy_transfer () =
  let sim = Sim.create () in
  let net =
    Topology.point_to_point sim ~spec:wan_spec ~fault_ab:(Fault.uniform_loss 0.02)
      ~fault_ba:(Fault.uniform_loss 0.02) ~rng:(Rng.create 31) ~queues_per_nic:2 ()
  in
  let a, b = tas_pair sim net in
  let received = bulk_transfer ~conns:1 net a b in
  Sim.run ~until:(Time_ns.ms 200) sim;
  (sim, a, received)

let test_lossy_transfer_words () =
  (* An unmeasured run of the same transfer first fills the domain's
     [Buf_pool] with the payload buffers it needs, so the figure does not
     depend on which tests ran before this one. *)
  let warm, _, _ = lossy_transfer () in
  Sim.run ~until:(Time_ns.ms 400) warm;
  let sim, a, received = lossy_transfer () in
  let segs () = (Fast_path.stats (Tas.fast_path (fst a))).Fast_path.tx_data_packets in
  let s0 = segs () and r0 = !received in
  let words =
    minor_words_during (fun () -> Sim.run ~until:(Time_ns.ms 400) sim)
  in
  let n = segs () - s0 in
  Alcotest.(check bool) "data flowed" true (!received - r0 > 5_000_000);
  let r = Fast_path.rec_stats (Tas.fast_path (fst a)) in
  Alcotest.(check bool) "losses repaired selectively" true
    (r.Fast_path.rec_selective_retransmits > 10);
  let per_seg = words /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "<= %.2f words per segment (%.3f)" lossy_words_per_segment
       per_seg)
    true
    (per_seg <= lossy_words_per_segment)

let suite =
  List.map pcap_test lossy_pcaps
  @ [
      Alcotest.test_case "fault stage allocates nothing" `Quick
        test_fault_wrap_allocation;
      Alcotest.test_case "ooo interval set allocates nothing" `Quick
        test_ooo_allocation;
      Alcotest.test_case "rack on_ack with sack allocates nothing" `Quick
        test_rack_on_ack_allocation;
      Alcotest.test_case "tlp re-arm allocates nothing" `Quick
        test_tlp_rearm_allocation;
      Alcotest.test_case "lossy fast-path transfer allocates nothing" `Quick
        test_lossy_pair_allocation;
      Alcotest.test_case "tlp re-armed after an rto rewind" `Quick
        test_tlp_rearms_after_rewind;
      Alcotest.test_case "lossy transfer words per segment" `Quick
        test_lossy_transfer_words;
    ]
