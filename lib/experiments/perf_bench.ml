module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Transport = Tas_apps.Transport
module Rpc_echo = Tas_apps.Rpc_echo
module Packet = Tas_proto.Packet
module Tcp_header = Tas_proto.Tcp_header
module Addr = Tas_proto.Addr
module J = Tas_telemetry.Json

type kind = Throughput | Alloc

type metric = { name : string; value : float; units : string; kind : kind }

let kind_name = function Throughput -> "throughput" | Alloc -> "alloc"
let m name value units kind = { name; value; units; kind }

(* --- Harness pieces ----------------------------------------------------- *)

let tas_host sim endpoint =
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = 2;
      rx_buf_size = 131072;
      tx_buf_size = 131072;
    }
  in
  let t = Tas.create sim ~nic:endpoint.Topology.nic ~config () in
  let cores = Array.init 2 (fun i -> Core.create sim ~id:(500 + i) ()) in
  let lt = Tas.app t ~app_cores:cores ~api:Libtas.Sockets in
  (t, Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod 2))

let pkt_ops tas =
  let s = Tas.snapshot tas in
  s.Tas.rx_data_packets + s.Tas.rx_ack_packets + s.Tas.tx_data_packets
  + s.Tas.acks_sent

(* Wall-clock, minor-word and major-word cost of advancing [sim] by
   [window] of simulated time, normalized per unit returned by [ops]. Major
   words come from [Gc.quick_stat]: what is allocated straight into the
   major heap or promoted, which the minor-word count cannot see. *)
let timed_window sim ~window ~ops =
  let o0 = ops () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Sim.run ~until:(Sim.now sim + window) sim;
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  let n = max 1 (ops () - o0) in
  (n, wall, words, major)

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

(* Three consecutive measurement windows, median throughput: wall-clock on a
   shared machine is noisy, and the median discards the window that caught a
   scheduler hiccup. Allocation counts are deterministic across windows.
   Returns (ops/s, minor words/op, major words/op). *)
let median_windows sim ~window ~ops =
  let samples =
    List.init 3 (fun _ ->
        let n, wall, words, major = timed_window sim ~window ~ops in
        let n = float_of_int n in
        (n /. wall, words /. n, major /. n))
  in
  ( median (List.map (fun (r, _, _) -> r) samples),
    median (List.map (fun (_, w, _) -> w) samples),
    median (List.map (fun (_, _, m) -> m) samples) )

(* --- Benchmarks --------------------------------------------------------- *)

(* Bulk TAS<->TAS transfer over a 10G link: the fast-path segmentation /
   ACK-processing hot loop. Packet ops = rx data + rx acks + tx data + acks
   sent, summed over both hosts. *)
let bulk ~quick =
  let sim = Sim.create () in
  let spec = Topology.link_10g ~ecn_threshold:65 () in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let tas_a, sender = tas_host sim net.Topology.a in
  let tas_b, receiver = tas_host sim net.Topology.b in
  Transport.listen receiver ~port:5001 (fun _ -> Transport.null_handlers);
  let chunk = Bytes.create 16384 in
  for _ = 1 to 16 do
    let rec push conn =
      let n = Transport.send conn chunk in
      if n > 0 then push conn
    in
    Transport.connect sender
      ~dst_ip:(Tas_netsim.Nic.ip net.Topology.b.Topology.nic) ~dst_port:5001
      (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_connected = (fun conn -> push conn);
          Transport.on_sendable = (fun conn -> push conn);
        })
  done;
  Sim.run ~until:(Time_ns.ms 10) sim;
  let rate, words_per, major_per =
    median_windows sim
      ~window:(Time_ns.ms (if quick then 4 else 15))
      ~ops:(fun () -> pkt_ops tas_a + pkt_ops tas_b)
  in
  [
    m "bulk_pkt_ops_per_sec" rate "ops/s" Throughput;
    m "bulk_minor_words_per_pkt" words_per "words/op" Alloc;
    m "bulk_major_words_per_pkt" major_per "words/op" Alloc;
  ]

(* Pipelined small RPCs TAS<->TAS: per-packet fast-path cost dominated by
   small-segment handling and context notification. *)
let rpc ~quick =
  let sim = Sim.create () in
  let spec = Topology.link_10g ~ecn_threshold:65 () in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let _tas_a, clients = tas_host sim net.Topology.a in
  let _tas_b, server = tas_host sim net.Topology.b in
  Rpc_echo.server server ~port:7 ~msg_size:64 ~app_cycles:250;
  let stats = Rpc_echo.make_stats () in
  Rpc_echo.closed_loop_clients sim clients ~n:16
    ~dst_ip:(Tas_netsim.Nic.ip net.Topology.b.Topology.nic) ~dst_port:7
    ~msg_size:64 ~pipeline:8 ~stats ();
  Sim.run ~until:(Time_ns.ms 10) sim;
  let rate, _, _ =
    median_windows sim
      ~window:(Time_ns.ms (if quick then 4 else 15))
      ~ops:(fun () -> Stats.Counter.value stats.Rpc_echo.completed)
  in
  [ m "rpc_ops_per_sec" rate "rpc/s" Throughput ]

(* Wire-format serialize + parse round trip (checksum arithmetic included). *)
let wire ~quick =
  let payload = Bytes.make 512 'x' in
  let tcp =
    Tcp_header.make ~ts:(1, 2) ~src_port:1234 ~dst_port:80 ~seq:7 ~ack:9
      ~flags:Tcp_header.data_flags ~window:1024 ()
  in
  let pkt =
    Packet.make ~src_mac:(Addr.host_mac 0) ~dst_mac:(Addr.host_mac 1)
      ~src_ip:0x0a000001 ~dst_ip:0x0a000002 ~tcp ~payload ()
  in
  for _ = 1 to 1000 do
    ignore (Packet.of_wire (Packet.to_wire pkt))
  done;
  let iters = if quick then 20_000 else 60_000 in
  let samples =
    List.init 3 (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          ignore (Packet.of_wire (Packet.to_wire pkt))
        done;
        let wall = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. w0 in
        (float_of_int iters /. wall, words /. float_of_int iters))
  in
  [
    m "wire_roundtrips_per_sec" (median (List.map fst samples)) "ops/s"
      Throughput;
    m "wire_minor_words_per_roundtrip"
      (median (List.map snd samples))
      "words/op" Alloc;
  ]

(* Sharded flow-table lookup: the per-packet work of hashing a four-tuple's
   fields, routing through the RSS redirection table to the owning shard,
   and finding the flow record ([find], the fast path's lookup) —
   over a table populated like a busy server (4096 flows across 8 shards).
   Payloads are plain ints so the cost measured is the table's, not the
   record's. *)
let flow_lookup ~quick =
  let module Rss = Tas_shard.Rss_table in
  let module Shards = Tas_shard.Flow_shards in
  let module Four_tuple = Addr.Four_tuple in
  let rss = Rss.create ~num_queues:8 () in
  let shards : int Shards.t = Shards.create ~rss ~absent:(-1) () in
  let n_flows = 4096 in
  let tuples =
    Array.init n_flows (fun i ->
        {
          Four_tuple.local_ip = 0x0a000001;
          local_port = 7;
          peer_ip = 0x0a000100 + (i lsr 12);
          peer_port = 1024 + (i land 0xfff);
        })
  in
  Array.iteri (fun i t -> Shards.add shards t i) tuples;
  let iters = if quick then 200_000 else 600_000 in
  let samples =
    List.init 3 (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        (* Stride coprime with the table size: touches every flow while
           defeating any sequential-bucket locality a linear scan would
           enjoy, like independent per-packet arrivals do. *)
        let j = ref 0 in
        for _ = 1 to iters do
          if Shards.find shards tuples.(!j) < 0 then assert false;
          j := (!j + 2049) land (n_flows - 1)
        done;
        let wall = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. w0 in
        (float_of_int iters /. wall, words /. float_of_int iters))
  in
  [
    m "flow_lookup_per_sec" (median (List.map fst samples)) "ops/s"
      Throughput;
    m "flow_lookup_minor_words"
      (median (List.map snd samples))
      "words/op" Alloc;
  ]

(* Vector receive pass driven directly: 32-packet same-flow bursts through
   [Fast_path.process_burst] — flow lookup (memo-amortized), duplicate
   verdict, ACK emission, and the port drain of the emitted ACKs. Measures
   the per-packet cost and allocation of the burst fast path in isolation
   from connection setup and application layers. *)
let burst ~quick =
  let module Fast_path = Tas_core.Fast_path in
  let module Flow_state = Tas_core.Flow_state in
  let module Rate_bucket = Tas_core.Rate_bucket in
  let module Nic = Tas_netsim.Nic in
  let module Four_tuple = Addr.Four_tuple in
  let sim = Sim.create () in
  let spec = Topology.link_10g () in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let nic = net.Topology.a.Topology.nic in
  let cores = [| Core.create sim ~id:0 () |] in
  let fp = Fast_path.create sim ~nic ~cores ~config:Config.default in
  let bucket =
    Rate_bucket.create sim (Rate_bucket.Rate 10e9) ~burst_bytes:65536
  in
  let peer_ip = Addr.host_ip 99 and peer_mac = Addr.host_mac 99 in
  let flow =
    Flow_state.create ~arena:(Tas_core.Flow_arena.create ~capacity:1 ())
      ~pool:(Tas_buffers.Ring_buffer.Pool.create ())
      ~opaque:1 ~context:0 ~bucket ~rx_buf_size:65536
      ~tx_buf_size:65536 ~local_port:5001 ~peer_ip ~peer_port:9000 ~peer_mac
      ~tx_iss:1000 ~rx_next:100_000 ~window:65535 ~peer_wscale:0 ()
  in
  let tuple =
    {
      Four_tuple.local_ip = Nic.ip nic;
      local_port = 5001;
      peer_ip;
      peer_port = 9000;
    }
  in
  Fast_path.install_flow fp ~tuple flow;
  (* The far end consumes the emitted ACKs. *)
  Nic.set_rx_handler net.Topology.b.Topology.nic (fun ~queue:_ pkt ->
      Packet.release pkt);
  (* Stale segments (entirely below [rx_next]): every packet takes the
     duplicate path and answers with an ACK, so the same burst array can be
     replayed indefinitely with stable per-iteration work. *)
  let burst_len = 32 in
  let pkts =
    Array.init burst_len (fun _ ->
        Packet.make ~src_mac:peer_mac ~dst_mac:(Nic.mac nic) ~src_ip:peer_ip
          ~dst_ip:(Nic.ip nic)
          ~tcp:
            (Tcp_header.make ~ts:(1, 1) ~src_port:9000 ~dst_port:5001
               ~seq:1000 ~ack:1000 ~flags:Tcp_header.data_flags ~window:65535
               ())
          ~payload:(Bytes.create 1448) ())
  in
  let core = cores.(0) in
  (* [process] releases every packet it is given: take one reference per
     replay. *)
  let replay () =
    Array.iter Packet.retain pkts;
    Fast_path.process_burst fp pkts ~count:burst_len core;
    Sim.run sim
  in
  for _ = 1 to 100 do
    replay ()
  done;
  let iters = if quick then 2_000 else 6_000 in
  let samples =
    List.init 3 (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          replay ()
        done;
        let wall = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. w0 in
        let n = iters * burst_len in
        (float_of_int n /. wall, words /. float_of_int n))
  in
  [
    m "burst_rx_pkts_per_sec" (median (List.map fst samples)) "pkts/s"
      Throughput;
    m "burst_minor_words_per_pkt"
      (median (List.map snd samples))
      "words/op" Alloc;
  ]

(* Host B's fast path behind a 10G link with one installed flow from host
   A, for driving B's receive path directly: [send seq] takes a packet
   from A's NIC pool and a payload from the buffer pool and transmits an
   MSS segment at [seq] through A's port, to be delivered by [Sim.run].
   B's ACKs go back to A's NIC, which releases them to B's pool. *)
let rx_rig ?(recovery = Tas_recovery.Policy.Reno) ~ooo_ranges () =
  let module Fast_path = Tas_core.Fast_path in
  let module Flow_state = Tas_core.Flow_state in
  let module Rate_bucket = Tas_core.Rate_bucket in
  let module Nic = Tas_netsim.Nic in
  let module Buf_pool = Tas_buffers.Buf_pool in
  let module Ring = Tas_buffers.Ring_buffer in
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~spec:(Topology.link_10g ()) () in
  let nic_a = net.Topology.a.Topology.nic
  and nic_b = net.Topology.b.Topology.nic in
  let fp =
    Fast_path.create sim ~nic:nic_b ~cores:[| Core.create sim ~id:0 () |]
      ~config:Config.default
  in
  Fast_path.attach fp;
  Nic.set_rx_handler nic_a (fun ~queue:_ pkt -> Packet.release pkt);
  let mss = 1448 and port_a = 9000 and port_b = 5001 in
  let flow =
    Flow_state.create ~arena:(Tas_core.Flow_arena.create ~capacity:1 ())
      ~pool:(Ring.Pool.create ()) ~recovery ~ooo_ranges ~opaque:1 ~context:0
      ~bucket:
        (Rate_bucket.create sim (Rate_bucket.Rate 10e9) ~burst_bytes:65536)
      ~rx_buf_size:65536 ~tx_buf_size:65536 ~local_port:port_b
      ~peer_ip:(Nic.ip nic_a) ~peer_port:port_a ~peer_mac:(Nic.mac nic_a)
      ~tx_iss:1 ~rx_next:0 ~window:65535 ~peer_wscale:0 ()
  in
  Fast_path.install_flow fp
    ~tuple:
      {
        Addr.Four_tuple.local_ip = Nic.ip nic_b;
        local_port = port_b;
        peer_ip = Nic.ip nic_a;
        peer_port = port_a;
      }
    flow;
  let send seq =
    let pkt = Packet.take (Nic.packet_pool nic_a) in
    Tcp_header.fill pkt.Packet.tcp ~src_port:port_a ~dst_port:port_b ~seq
      ~ack:1 ~flags:Tcp_header.data_flags ~window:65535 ~ts_val:1 ~ts_ecr:0;
    Packet.fill pkt ~src_mac:(Nic.mac nic_a) ~dst_mac:(Nic.mac nic_b)
      ~src_ip:(Nic.ip nic_a) ~dst_ip:(Nic.ip nic_b)
      ~ecn:Tas_proto.Ipv4_header.Ect0
      ~payload:(Buf_pool.take (Buf_pool.local ()) mss);
    Packet.mark_pooled pkt;
    Nic.transmit nic_a pkt
  in
  (sim, fp, flow, mss, send)

(* Median ops/s and minor words/op of [iters] warm calls of [op], over 3
   windows after 1,000 warm-up calls. *)
let op_windows ~iters op =
  for _ = 1 to 1000 do
    op ()
  done;
  let samples =
    List.init 3 (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          op ()
        done;
        let wall = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. w0 in
        (float_of_int iters /. wall, words /. float_of_int iters))
  in
  (median (List.map fst samples), median (List.map snd samples))

(* One data segment's full life on a warm pool, driven directly: host A
   transmits it to host B ([rx_rig]), whose fast path delivers it in order
   into the installed flow, ACKs it from B's pool and releases it back to
   A's pool. The receiver consumes the payload each round, so the same
   work repeats forever. Gated at 0 words: the steady-state segment path
   allocates nothing. *)
let pkt_cycle ~quick =
  let sim, _fp, flow, mss, send = rx_rig ~ooo_ranges:1 () in
  let seq = ref 0 in
  let cycle () =
    send !seq;
    Sim.run sim;
    seq := !seq + mss;
    Tas_buffers.Ring_buffer.advance_tail (Tas_core.Flow_state.rx_buf flow) mss
  in
  let rate, words = op_windows ~iters:(if quick then 20_000 else 60_000) cycle in
  [
    m "pkt_cycles_per_sec" rate "pkts/s" Throughput;
    m "pkt_cycle_minor_words" words "words/op" Alloc;
  ]

(* The lossy receive path, driven like [pkt_cycle] into a RACK-TLP flow:
   each op sends the segment after the next expected one, which the
   receiver stores out of order and answers with a SACK-carrying duplicate
   ACK, then the missing segment, which delivers both in one advance.
   Gated at 0 words: out-of-order storage, SACK blocks and the gap fill
   allocate nothing. *)
let loss_rx ~quick =
  let sim, fp, flow, mss, send =
    rx_rig ~recovery:Tas_recovery.Policy.Rack_tlp ~ooo_ranges:4 ()
  in
  let stats = Tas_core.Fast_path.stats fp in
  let seq = ref 0 in
  let cycle () =
    let stored = stats.Tas_core.Fast_path.ooo_stored in
    send (!seq + mss);
    Sim.run sim;
    send !seq;
    Sim.run sim;
    if stats.Tas_core.Fast_path.ooo_stored <> stored + 1 then
      failwith "Perf_bench.loss_rx: segment not stored out of order";
    seq := !seq + (2 * mss);
    Tas_buffers.Ring_buffer.advance_tail
      (Tas_core.Flow_state.rx_buf flow) (2 * mss)
  in
  let rate, words = op_windows ~iters:(if quick then 10_000 else 30_000) cycle in
  [
    m "loss_rx_per_sec" rate "ops/s" Throughput;
    m "loss_rx_minor_words" words "words/op" Alloc;
  ]

(* Loss recovery driven directly: [Rack_tlp.on_ack] digests a duplicate ACK
   over a 90-segment flight whose front segment is the one hole, SACKing
   everything above it — the ACK a sender sees again and again while the
   hole's repair is in flight. After the first ACK the hole is marked lost
   and the rest sacked, so the same ACK replays indefinitely with stable
   per-iteration work: the cumulative trim, the SACK scan, and the
   dupthresh and RACK time-rule scans of the scoreboard. *)
let rack_ack ~quick =
  let module Rec = Tas_recovery in
  let len = 1448 and flight = 90 in
  let st = Rec.State.create Rec.Policy.Rack_tlp in
  for i = 0 to flight - 1 do
    Rec.Scoreboard.on_transmit st.Rec.State.sb ~seq:(i * len) ~len
      ~now_ns:(i * 1_000)
  done;
  let snd_nxt = flight * len in
  let sack =
    Tcp_header.make ~sack:[ (len, snd_nxt) ] ~src_port:80 ~dst_port:1234
      ~seq:0 ~ack:0 ~flags:Tcp_header.ack_flags ~window:65535 ()
  in
  let ack () =
    Rec.Rack_tlp.on_ack st ~una:0 ~snd_nxt ~sack ~dup_acks:3 ~reo_wnd:1_000
  in
  let rate, words = op_windows ~iters:(if quick then 100_000 else 300_000) ack in
  [
    m "rack_acks_per_sec" rate "acks/s" Throughput;
    m "rack_minor_words_per_ack" words "words/op" Alloc;
  ]

(* Connection churn TAS<->TAS: 16 closed-loop clients that connect, echo
   one 64 B message and close, then reconnect at once — the slow path's
   handshakes, flow installs and teardowns, plus the per-connection state
   behind them (payload rings come from the slow path's pool once warm).
   Major words come from [Gc.quick_stat]: what a connection allocates
   straight into the major heap (large buffers) or gets promoted, which
   the minor-word count cannot see. *)
let conn_churn ~quick =
  let sim = Sim.create () in
  let spec = Topology.link_10g ~ecn_threshold:65 () in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let _tas_a, clients = tas_host sim net.Topology.a in
  let _tas_b, server = tas_host sim net.Topology.b in
  Transport.listen server ~port:7 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_data = (fun conn d -> ignore (Transport.send conn d));
        Transport.on_peer_closed = Transport.close;
      });
  let msg = Bytes.make 64 'c' in
  let dst_ip = Tas_netsim.Nic.ip net.Topology.b.Topology.nic in
  let closed = ref 0 in
  let rec cycle () =
    let got = ref 0 in
    Transport.connect clients ~dst_ip ~dst_port:7 (fun _ ->
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
  let window = Time_ns.ms (if quick then 4 else 15) in
  let samples =
    List.init 3 (fun _ ->
        let c0 = !closed in
        let major0 = (Gc.quick_stat ()).Gc.major_words in
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        Sim.run ~until:(Sim.now sim + window) sim;
        let wall = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. w0 in
        let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
        let n = float_of_int (max 1 (!closed - c0)) in
        (n /. wall, words /. n, major /. n))
  in
  [
    m "conn_churn_per_sec"
      (median (List.map (fun (r, _, _) -> r) samples))
      "conns/s" Throughput;
    m "conn_churn_minor_words_per_conn"
      (median (List.map (fun (_, w, _) -> w) samples))
      "words/op" Alloc;
    m "conn_churn_major_words_per_conn"
      (median (List.map (fun (_, _, w) -> w) samples))
      "words/op" Alloc;
  ]

(* The slow path's control loop over 64 idle established TAS<->TAS flows
   under the default rate-based DCTCP: each op writes fresh feedback into
   every flow's counters (acked bytes, some ECN marks, an occasional fast
   retransmit) and advances the simulation by one tick interval, in which
   the periodic tick snapshots the due flows and its batch runs their
   control iterations. Gated at 0 words: the control loop allocates
   nothing once warm. *)
let cc_tick ~quick =
  let module Fast_path = Tas_core.Fast_path in
  let module Flow_state = Tas_core.Flow_state in
  let sim = Sim.create () in
  let spec = Topology.link_10g ~ecn_threshold:65 () in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let tas_a, clients = tas_host sim net.Topology.a in
  let _tas_b, server = tas_host sim net.Topology.b in
  Transport.listen server ~port:7 (fun _ -> Transport.null_handlers);
  let dst_ip = Tas_netsim.Nic.ip net.Topology.b.Topology.nic in
  for _ = 1 to 64 do
    Transport.connect clients ~dst_ip ~dst_port:7 (fun _ ->
        Transport.null_handlers)
  done;
  Sim.run ~until:(Time_ns.ms 5) sim;
  let flows = ref [] in
  Tas_core.Flow_table.iter
    (Fast_path.flows (Tas.fast_path tas_a))
    (fun _ f -> flows := f :: !flows);
  let flows = Array.of_list !flows in
  let interval = Config.default.Config.control_interval_min_ns in
  (* Step to a sentinel: [Sim.run ~until] would box its limit per op. *)
  let stop = ref false in
  let set_stop () = stop := true in
  let round = ref 0 in
  let tick () =
    incr round;
    for i = 0 to Array.length flows - 1 do
      let f = flows.(i) in
      Flow_state.set_cnt_ackb f (20_000 + (97 * i));
      Flow_state.set_cnt_ecnb f (if (!round + i) mod 3 = 0 then 3_000 else 0);
      Flow_state.set_cnt_frexmits f (if (!round + i) mod 11 = 0 then 1 else 0)
    done;
    stop := false;
    Sim.post sim interval set_stop;
    while (not !stop) && Sim.step sim do
      ()
    done
  in
  let rate, words = op_windows ~iters:(if quick then 2_000 else 6_000) tick in
  [
    m "cc_ticks_per_sec" rate "ticks/s" Throughput;
    m "cc_tick_minor_words" words "words/op" Alloc;
  ]

(* Event-queue churn: chains of fire-and-forget [post] events, the shape of
   the simulator's per-packet event storm (serialization, propagation, core
   dispatch, pacing). *)
let events ~quick =
  let n = if quick then 100_000 else 250_000 in
  let one () =
    let sim = Sim.create () in
    let remaining = ref n in
    let rec tick () =
      if !remaining > 0 then begin
        decr remaining;
        Sim.post sim 10 tick
      end
    in
    for i = 1 to 32 do
      Sim.post sim i tick
    done;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Sim.run sim;
    let wall = Unix.gettimeofday () -. t0 in
    let words = Gc.minor_words () -. w0 in
    let fired = max 1 (Sim.events_fired sim) in
    (float_of_int fired /. wall, words /. float_of_int fired)
  in
  let samples = List.init 3 (fun _ -> one ()) in
  [
    m "sim_events_per_sec" (median (List.map fst samples)) "events/s"
      Throughput;
    m "sim_minor_words_per_event"
      (median (List.map snd samples))
      "words/event" Alloc;
  ]

let measure ~quick =
  (* Start each pass from a normalized heap: without this, whichever pass
     runs second inherits the first pass's grown major heap and pending GC
     work and measures a few percent slower across the board. *)
  Gc.compact ();
  List.concat
    [ bulk ~quick; rpc ~quick; wire ~quick; flow_lookup ~quick;
      burst ~quick; pkt_cycle ~quick; loss_rx ~quick; rack_ack ~quick; conn_churn ~quick;
      cc_tick ~quick; events ~quick ]

(* --- Artifact ----------------------------------------------------------- *)

let metrics_json ms =
  J.Obj
    (List.map
       (fun mt ->
         ( mt.name,
           J.Obj
             [
               ("value", J.Float mt.value);
               ("units", J.Str mt.units);
               ("kind", J.Str (kind_name mt.kind));
             ] ))
       ms)

let artifact_json ~quick ~current ~wall =
  J.Obj
    [
      ("experiment", J.Str "perf");
      ("title", J.Str "Hot-path microbenchmarks (perf-regression gate)");
      ("quick", J.Bool quick);
      ("metrics", metrics_json current);
      ("timing", J.Obj [ ("run_wall_s", J.Float wall) ]);
    ]

let write_artifact j =
  let path = Filename.concat (Run_opts.bench_dir ()) "BENCH_perf.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc;
  path

(* --- Regression gate ----------------------------------------------------- *)

(* Wall-clock throughput varies wildly across machines (laptop vs CI
   runner), so its band only catches order-of-magnitude collapses.
   Allocation counts per operation are deterministic on a given build and
   mode, so they are gated exactly, in both directions: a change that moves
   one regenerates the baseline. *)
let default_tol_throughput = 0.75
let default_tol_alloc = 0.0

(* The artifact prints 12 significant digits. *)
let print_eps b = 1e-9 *. Float.max 1.0 (Float.abs b)

let fnum v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.3e" v
  else Printf.sprintf "%.2f" v

let baseline_quick baseline =
  match J.member "quick" baseline with Some (J.Bool q) -> Some q | _ -> None

let check ?(tol_throughput = default_tol_throughput)
    ?(tol_alloc = default_tol_alloc) ?quick ~baseline current =
  let base_metrics =
    match J.member "metrics" baseline with Some (J.Obj kv) -> kv | _ -> []
  in
  let other_mode =
    match (quick, baseline_quick baseline) with
    | Some q, Some b -> q <> b
    | _ -> false
  in
  List.filter_map
    (fun mt ->
      match List.assoc_opt mt.name base_metrics with
      | None -> None (* metric absent from the baseline: not gated *)
      | Some _ when mt.kind = Alloc && other_mode -> None
      | Some bj -> (
        match Option.bind (J.member "value" bj) J.to_float_opt with
        | None -> None
        | Some b ->
          let gate ~ok ~observed ~expected =
            Some { Report.name = mt.name; ok; observed; expected }
          in
          (match mt.kind with
          | Throughput ->
            let floor = b *. (1.0 -. tol_throughput) in
            gate ~ok:(mt.value >= floor)
              ~observed:
                (Printf.sprintf "%s, %.2fx baseline" (fnum mt.value)
                   (if b > 0.0 then mt.value /. b else 1.0))
              ~expected:
                (Printf.sprintf ">= %s, %.0f%% of baseline %s" (fnum floor)
                   (100.0 *. (1.0 -. tol_throughput))
                   (fnum b))
          | Alloc ->
            (* Exact to the artifact's digits: a saving fails too, and
               regenerates the baseline. *)
            gate
              ~ok:
                (Float.abs (mt.value -. b) <= (b *. tol_alloc) +. print_eps b)
              ~observed:(Printf.sprintf "%.12g" mt.value)
              ~expected:
                (Printf.sprintf "%.12g +/- %g%%" b (100.0 *. tol_alloc)))))
    current

let load_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  J.of_string s

let check_file ~quick ~baseline:path current =
  let closed observed =
    [
      {
        Report.name = "baseline";
        ok = false;
        observed;
        expected = "a perf artifact with gated metrics at " ^ path;
      };
    ]
  in
  match load_baseline path with
  | exception Sys_error msg -> closed ("unreadable: " ^ msg)
  | exception J.Parse_error msg ->
    closed (Printf.sprintf "unparsable %s: %s" path msg)
  | baseline -> (
    match check ~quick ~baseline current with
    | [] -> closed (Printf.sprintf "no gated metric in %s" path)
    | gates -> gates)

(* --- Driver -------------------------------------------------------------- *)

let run ?(quick = false) ?baseline fmt =
  Report.section fmt "Perf: hot-path microbenchmarks";
  let t0 = Unix.gettimeofday () in
  (* Discarded warmup pass: sizes the GC heap and warms code/data caches so
     the measured pass pays no cold-start costs. *)
  ignore (measure ~quick:true);
  let current = measure ~quick in
  let wall = Unix.gettimeofday () -. t0 in
  Report.table fmt ~header:[ "metric"; "units"; "value" ]
    ~rows:(List.map (fun mt -> [ mt.name; mt.units; fnum mt.value ]) current);
  Format.fprintf fmt "  (%.1fs)@." wall;
  (try
     let path = write_artifact (artifact_json ~quick ~current ~wall) in
     Format.fprintf fmt "  # artifact: %s@." path
   with Sys_error msg ->
     Format.fprintf fmt "  # BENCH_perf.json not written: %s@." msg);
  match baseline with
  | None -> true
  | Some path ->
    Report.section fmt "Perf gate";
    Format.fprintf fmt
      "  # alloc kinds are gated only against a baseline with quick=%b@." quick;
    let gates = check_file ~quick ~baseline:path current in
    List.iter
      (fun (g : Report.gate) ->
        Report.gate fmt ~name:g.name ~ok:g.ok ~observed:g.observed
          ~expected:g.expected)
      gates;
    let pass = List.for_all (fun (g : Report.gate) -> g.ok) gates in
    Format.fprintf fmt "  perf gate: %s@." (if pass then "PASS" else "FAIL");
    pass
