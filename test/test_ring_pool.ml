(* Payload-ring recycling: the slow path's ring pool hands a torn-down
   flow's rx/tx rings to the next connection, and the torn-down flow reads
   the closed ring from then on.

   - The pool itself: LIFO reuse per capacity, a taken ring empty at
     offset 0, the closed ring ignored, and zero allocation once warm;
     a ring's store round trip is allocation-free too.
   - Idle connections hold no ring storage and under 1,000 live words
     each.
   - Sequential TAS<->TAS connections with rings small enough to wrap
     several times: exact delivery every time, and every connection after
     the first runs on the first one's rings, starting at offset 0.
   - A flow handle held past teardown: closed rings, and a late transmit
     command or tail-loss probe sends nothing.
   - Concurrent churn on both flow-state backings: the pool never holds
     more than two rings per flow of the peak live count, and every ring
     is either pooled or owned by exactly one live flow.
   - The handshake ACK's window is scaled (RFC 7323), so the accepting
     side sees the connecting side's real buffer. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Core = Tas_cpu.Core
module Ring = Tas_buffers.Ring_buffer
module Pool = Ring.Pool
module Nic = Tas_netsim.Nic
module Port = Tas_netsim.Port
module Topology = Tas_netsim.Topology
module E = Tas_baseline.Tcp_engine
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Fast_path = Tas_core.Fast_path
module Slow_path = Tas_core.Slow_path
module Flow_table = Tas_core.Flow_table
module Flow_state = Tas_core.Flow_state

(* --- The pool ------------------------------------------------------------- *)

let test_pool_reuse () =
  let p = Pool.create () in
  let a = Pool.take p 64 in
  let b = Pool.take p 128 in
  Alcotest.(check int) "fresh rings while empty" 2 (Pool.allocated p);
  ignore (Ring.push a (Bytes.make 40 'a') ~off:0 ~len:40);
  Ring.advance_tail a 30;
  Pool.give p a;
  Pool.give p b;
  Pool.give p Ring.closed;
  Alcotest.(check int) "closed ring not pooled" 2 (Pool.held p);
  let b' = Pool.take p 128 in
  let a' = Pool.take p 64 in
  Alcotest.(check bool) "same ring back, keyed by capacity" true
    (a' == a && b' == b);
  Alcotest.(check (pair int int)) "taken ring restarts at offset 0" (0, 0)
    (Ring.head a', Ring.tail a');
  Alcotest.(check int) "no fresh ring for a pooled capacity" 2
    (Pool.allocated p);
  Alcotest.(check int) "pool drained" 0 (Pool.held p);
  let c = Pool.take p 64 in
  Alcotest.(check bool) "empty stack allocates" true
    (c != a && Pool.allocated p = 3)

let test_closed_ring () =
  let r = Ring.closed in
  Alcotest.(check (list int)) "capacity, used, free" [ 0; 0; 0 ]
    [ Ring.capacity r; Ring.used r; Ring.free r ];
  Alcotest.(check int) "push accepts nothing" 0
    (Ring.push r (Bytes.make 8 'x') ~off:0 ~len:8);
  let dst = Bytes.create 8 in
  Alcotest.(check int) "pop yields nothing" 0
    (Ring.pop r ~dst ~dst_off:0 ~len:8);
  (* Empty accesses at the window edge are legal and touch nothing. *)
  Ring.write_at r ~pos:0 dst ~off:0 ~len:0;
  Ring.read_at r ~pos:0 ~dst ~dst_off:0 ~len:0;
  Alcotest.check_raises "non-empty read out of window"
    (Invalid_argument "Ring_buffer.read_at: range outside buffer window")
    (fun () -> Ring.read_at r ~pos:0 ~dst ~dst_off:0 ~len:1);
  Alcotest.check_raises "head cannot advance"
    (Invalid_argument "Ring_buffer.advance_head: beyond capacity") (fun () ->
      Ring.advance_head r 1);
  Alcotest.(check (pair int int)) "never changes" (0, 0)
    (Ring.head r, Ring.tail r)

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A warm pool's take/give is allocation-free: array stacks, no options, no
   list cells. *)
let test_pool_no_alloc () =
  let p = Pool.create () in
  let live =
    Array.init 16 (fun i -> Pool.take p (if i mod 2 = 0 then 4096 else 8192))
  in
  Array.iter (Pool.give p) live;
  let cycles = 10_000 in
  let words =
    minor_words_during (fun () ->
        for _ = 1 to cycles do
          let rx = Pool.take p 4096 in
          let tx = Pool.take p 8192 in
          Pool.give p rx;
          Pool.give p tx
        done)
  in
  Alcotest.(check (float 0.)) "calibration" 0. (minor_words_during ignore);
  Alcotest.(check (float 0.)) "take/give cycles allocate nothing" 0. words;
  Alcotest.(check int) "no fresh rings once warm" 16 (Pool.allocated p);
  Alcotest.(check int) "all rings back" 16 (Pool.held p)

(* A warm ring's store round trip is allocation-free: each push into the
   empty ring takes a store from the domain's free list and the pop that
   empties it gives the store back, 10^4 times on one ring. *)
let test_store_no_alloc () =
  let r = Ring.create 8192 in
  let src = Bytes.make 1460 's' and dst = Bytes.create 1460 in
  let cycle () =
    ignore (Ring.push r src ~off:0 ~len:1460);
    ignore (Ring.pop r ~dst ~dst_off:0 ~len:1460)
  in
  cycle ();
  let cycles = 10_000 in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let words =
    minor_words_during (fun () ->
        for _ = 1 to cycles do
          cycle ()
        done)
  in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  Alcotest.(check (float 0.)) "calibration" 0. (minor_words_during ignore);
  Alcotest.(check (float 0.)) "store round trips allocate no minor words" 0.
    words;
  Alcotest.(check (float 0.)) "nor major words" 0. major;
  Alcotest.(check bool) "drained ring holds no store" false (Ring.backed r)

(* --- TAS<->TAS harness ---------------------------------------------------- *)

type host = { tas : Tas.t; lt : Libtas.t }

let host sim ~config ~id endpoint =
  let tas = Tas.create sim ~nic:endpoint.Topology.nic ~config () in
  let core = Core.create sim ~id:(100 + id) () in
  { tas; lt = Tas.app tas ~app_cores:[| core |] ~api:Libtas.Sockets }

let server_ip net = Nic.ip net.Topology.b.Topology.nic
let pool h = Slow_path.ring_pool (Tas.slow_path h.tas)
let live_flows h = Slow_path.flow_count (Tas.slow_path h.tas)

let the_flow h =
  let found = ref [] in
  Flow_table.iter (Fast_path.flows (Tas.fast_path h.tas)) (fun _ f ->
      found := f :: !found);
  match !found with
  | [ f ] -> f
  | l -> Alcotest.failf "expected one live flow, found %d" (List.length l)

let pattern ~seed len =
  let st = Random.State.make [| seed |] in
  Bytes.init len (fun _ -> Char.chr (Random.State.int st 256))

(* One side of a connection: send [out] in full, receive exactly
   [expect_len] bytes into [got], then close. *)
type side = {
  out : bytes;
  mutable sent : int;
  got : Buffer.t;
  expect_len : int;
  mutable close_requested : bool;
}

let side ~out ~expect_len =
  { out; sent = 0; got = Buffer.create expect_len; expect_len;
    close_requested = false }

let maybe_close sock s =
  if
    (not s.close_requested)
    && s.sent = Bytes.length s.out
    && Buffer.length s.got = s.expect_len
  then begin
    s.close_requested <- true;
    Libtas.close sock
  end

let pump sock s =
  let len = Bytes.length s.out in
  let continue = ref true in
  while !continue && s.sent < len do
    let chunk = Bytes.sub s.out s.sent (min 1000 (len - s.sent)) in
    let n = Libtas.send sock chunk in
    s.sent <- s.sent + n;
    continue := n > 0
  done;
  maybe_close sock s

let side_handlers ?(on_connected = fun _ -> ()) ?(on_closed = ignore) s =
  {
    Libtas.null_handlers with
    Libtas.on_connected = on_connected;
    on_data =
      (fun sock d ->
        Buffer.add_bytes s.got d;
        maybe_close sock s);
    on_sendable = (fun sock -> pump sock s);
    on_closed;
  }

(* --- Sequential connections ---------------------------------------------- *)

(* Rings of 4 KB (rx) and 6 KB (tx) against 20+ KB per direction per
   connection: every ring wraps several times in every connection. The two
   capacities differ, so the pool's per-capacity LIFO must hand each
   connection exactly the previous connection's rx and tx rings. *)
let test_sequential_recycling () =
  let n_conns = 5 in
  let config =
    { Config.default with Config.rx_buf_size = 4096; tx_buf_size = 6144 }
  in
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let hosts =
    [| host sim ~config ~id:0 net.Topology.a;
       host sim ~config ~id:1 net.Topology.b |]
  in
  let client = hosts.(0) and server = hosts.(1) in
  let len k = 20_000 + (1_000 * k) in
  let out ~k ~h = pattern ~seed:((2 * k) + h) (len k) in
  let conn = ref 0 in
  let sides =
    Array.make_matrix n_conns 2 (side ~out:Bytes.empty ~expect_len:0)
  in
  let first_rings = Array.make 2 (Ring.closed, Ring.closed) in
  let later delay f = ignore (Sim.schedule sim delay f) in
  (* Runs on each host's application core when a connection is up: the
     host's single live flow must hold fresh-looking rings, recycled from
     the first connection after it. *)
  let check_rings k h =
    let f = the_flow hosts.(h) in
    let rx = Flow_state.rx_buf f and tx = Flow_state.tx_buf f in
    let where = Printf.sprintf "conn %d host %d" k h in
    Alcotest.(check (list int)) (where ^ ": rings start empty at 0")
      [ 4096; 0; 0; 6144; 0; 0 ]
      [ Ring.capacity rx; Ring.head rx; Ring.tail rx; Ring.capacity tx;
        Ring.head tx; Ring.tail tx ];
    if k = 0 then first_rings.(h) <- (rx, tx)
    else
      Alcotest.(check bool) (where ^ ": the first connection's rings") true
        (fst first_rings.(h) == rx && snd first_rings.(h) == tx);
    Alcotest.(check (pair int int)) (where ^ ": pool lent both rings")
      (0, 2)
      (Pool.held (pool hosts.(h)), Pool.allocated (pool hosts.(h)))
  in
  Libtas.listen server.lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      let k = !conn in
      let s = side ~out:(out ~k ~h:1) ~expect_len:(len k) in
      sides.(k).(1) <- s;
      side_handlers s ~on_connected:(fun sock ->
          check_rings k 1;
          (* Hold data back until both ends have been checked. *)
          later (Time_ns.us 100) (fun () -> pump sock s)));
  let rec connect k =
    conn := k;
    let s = side ~out:(out ~k ~h:0) ~expect_len:(len k) in
    sides.(k).(0) <- s;
    ignore
      (Libtas.connect client.lt ~ctx:0 ~dst_ip:(server_ip net) ~dst_port:7
         (side_handlers s
            ~on_connected:(fun sock ->
              check_rings k 0;
              later (Time_ns.us 100) (fun () -> pump sock s))
            ~on_closed:(fun _ ->
              (* Past both hosts' abbreviated TIME_WAIT. *)
              if k + 1 < n_conns then
                later (Time_ns.ms 5) (fun () -> connect (k + 1)))))
  in
  connect 0;
  Sim.run ~until:(Time_ns.sec 2) sim;
  Alcotest.(check int) "every connection ran" (n_conns - 1) !conn;
  for k = 0 to n_conns - 1 do
    for h = 0 to 1 do
      let peer_out = sides.(k).(1 - h).out in
      Alcotest.(check bool)
        (Printf.sprintf "conn %d host %d: exact delivery" k h) true
        (Bytes.equal peer_out (Buffer.to_bytes sides.(k).(h).got))
    done
  done;
  Array.iter
    (fun h ->
      Alcotest.(check (list int)) "all flows gone, both rings pooled"
        [ 0; 2; 2 ]
        [ live_flows h; Pool.held (pool h); Pool.allocated (pool h) ])
    hosts

(* --- Idle footprint ------------------------------------------------------- *)

(* Connections that have exchanged one message and gone idle hold no ring
   storage: every TAS flow's rx and tx rings are unbacked, and what a
   connection keeps live (both hosts' flow state, sockets and table
   entries) stays under 1,000 words at 8 KB buffers, where four backed
   rings alone would be about 4,100. The figure is the live-word growth
   from [n] to [2n] idle connections after a full major collection, so
   the fixed cost of the simulation and the hosts cancels out. *)
let test_idle_footprint () =
  let n = 64 in
  let config =
    { Config.default with Config.rx_buf_size = 8192; tx_buf_size = 8192 }
  in
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let client = host sim ~config ~id:0 net.Topology.a
  and server = host sim ~config ~id:1 net.Topology.b in
  let echoed = ref 0 in
  Libtas.listen server.lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock d -> ignore (Libtas.send sock d));
      });
  let open_idle k =
    for _ = 1 to k do
      ignore
        (Libtas.connect client.lt ~ctx:0 ~dst_ip:(server_ip net) ~dst_port:7
           {
             Libtas.null_handlers with
             Libtas.on_connected =
               (fun sock -> ignore (Libtas.send sock (Bytes.make 64 'm')));
             on_data = (fun _ d -> echoed := !echoed + Bytes.length d);
           })
    done;
    Sim.run ~until:(Sim.now sim + Time_ns.ms 50) sim;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live_n = open_idle n in
  let live_2n = open_idle n in
  Alcotest.(check int) "every message echoed" (2 * n * 64) !echoed;
  Alcotest.(check (pair int int)) "every connection still open" (2 * n, 2 * n)
    (live_flows client, live_flows server);
  let stored = ref 0 in
  List.iter
    (fun h ->
      Flow_table.iter (Fast_path.flows (Tas.fast_path h.tas)) (fun _ f ->
          if Ring.backed (Flow_state.rx_buf f) then incr stored;
          if Ring.backed (Flow_state.tx_buf f) then incr stored))
    [ client; server ];
  Alcotest.(check int) "no idle ring holds a store" 0 !stored;
  let per_conn = (live_2n - live_n) / n in
  if per_conn > 1_000 then
    Alcotest.failf "%d live words per idle connection, over 1000" per_conn

(* --- Stale handles -------------------------------------------------------- *)

(* A RACK-TLP sender whose peer goes silent is reaped with data in flight,
   its tail-loss probe still armed: reaping after 700 us without progress,
   well before the first probe (20 ms: the flow has no RTT sample), and a
   window-mode controller so the whole flight leaves at once. The held
   handle must read closed rings, and neither the probe nor a late
   transmit command may put a segment on the wire — the rings they would
   have read now belong to the pool. *)
let test_stale_handle () =
  let config =
    {
      Config.default with
      Config.recovery_policy = Tas_recovery.Policy.Rack_tlp;
      cc = Tas_tcp.Interval_cc.Window_dctcp { mss = Tas_proto.Tcp_header.mss };
      dead_flow_timeout_ns = Some (Time_ns.us 700);
    }
  in
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let h = host sim ~config ~id:0 net.Topology.a in
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  E.listen peer ~port:7 (fun _ -> E.null_callbacks);
  let silent = ref false in
  Port.set_deliver net.Topology.a.Topology.uplink (fun pkt ->
      if not !silent then Nic.input net.Topology.b.Topology.nic pkt);
  let held = ref None in
  ignore
    (Libtas.connect h.lt ~ctx:0 ~dst_ip:(server_ip net) ~dst_port:7
       {
         Libtas.null_handlers with
         Libtas.on_connected =
           (fun sock ->
             held := Some (the_flow h);
             silent := true;
             ignore (Libtas.send sock (Bytes.make 8000 'z')));
       });
  let fp = Tas.fast_path h.tas in
  let rec until_reaped n =
    if n > 0 && (!held = None || live_flows h > 0) then begin
      Sim.run ~until:(Sim.now sim + Time_ns.ms 1) sim;
      until_reaped (n - 1)
    end
  in
  until_reaped 200;
  let f = match !held with Some f -> f | None -> Alcotest.fail "no flow" in
  Alcotest.(check int) "flow reaped" 1
    (Slow_path.flows_reaped (Tas.slow_path h.tas));
  Alcotest.(check bool) "data was in flight" true (Flow_state.tx_sent f > 0);
  Alcotest.(check bool) "stale handle reads the closed rings" true
    (Flow_state.rx_buf f == Ring.closed && Flow_state.tx_buf f == Ring.closed);
  Alcotest.(check (pair int int)) "closed: nothing used, nothing free" (0, 0)
    (Ring.used (Flow_state.tx_buf f), Ring.free (Flow_state.tx_buf f));
  Alcotest.(check bool) "nothing left to send" true
    (Flow_state.tx_available f <= 0);
  Alcotest.(check int) "rings back in the pool" 2 (Pool.held (pool h));
  let data0 = (Fast_path.stats fp).Fast_path.tx_data_packets in
  let wire0 = Nic.tx_packets net.Topology.a.Topology.nic in
  let probes0 = (Fast_path.rec_stats fp).Fast_path.rec_tlp_probes in
  Fast_path.notify_tx fp f;
  Sim.run ~until:(Sim.now sim + Time_ns.ms 30) sim;
  Alcotest.(check bool) "the probe timer fired on the stale handle" true
    ((Fast_path.rec_stats fp).Fast_path.rec_tlp_probes > probes0);
  Alcotest.(check int) "no data segment sent" data0
    (Fast_path.stats fp).Fast_path.tx_data_packets;
  Alcotest.(check int) "nothing on the wire" wire0
    (Nic.tx_packets net.Topology.a.Topology.nic);
  Alcotest.(check int) "pooled rings untouched" 2 (Pool.held (pool h))

(* --- Churn bound ---------------------------------------------------------- *)

(* Eight client loops, each doing six connect / exchange / close cycles
   with seeded pauses, so connections overlap and interleave their
   teardowns. Sampled every 20 us on both hosts: every ring ever created is
   either pooled or held by one live flow (two per flow), and the pool
   never holds more than two rings per flow of the peak live count. *)
let test_churn_bound () =
  let config = Config.default in
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let hosts =
    [| host sim ~config ~id:0 net.Topology.a;
       host sim ~config ~id:1 net.Topology.b |]
  in
  let rng = Random.State.make [| 42 |] in
  let msg = 3000 in
  Libtas.listen hosts.(1).lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      let s = side ~out:(pattern ~seed:1 msg) ~expect_len:msg in
      side_handlers s ~on_connected:(fun sock -> pump sock s));
  let completed = ref 0 in
  let rec cycle left =
    if left > 0 then begin
      let s = side ~out:(pattern ~seed:2 msg) ~expect_len:msg in
      ignore
        (Libtas.connect hosts.(0).lt ~ctx:0 ~dst_ip:(server_ip net) ~dst_port:7
           (side_handlers s ~on_connected:(fun sock -> pump sock s)
              ~on_closed:(fun _ ->
                if Bytes.equal (pattern ~seed:1 msg) (Buffer.to_bytes s.got)
                then incr completed;
                ignore
                  (Sim.schedule sim
                     (Time_ns.us (50 + Random.State.int rng 400))
                     (fun () -> cycle (left - 1))))))
    end
  in
  for i = 0 to 7 do
    ignore (Sim.schedule sim (Time_ns.us (i * 37)) (fun () -> cycle 6))
  done;
  let peak = Array.make 2 0 in
  let violations = ref [] in
  let sample () =
    Array.iteri
      (fun i h ->
        let live = live_flows h and p = pool h in
        peak.(i) <- max peak.(i) live;
        if
          Pool.held p > 2 * peak.(i)
          || Pool.allocated p <> Pool.held p + (2 * live)
        then
          violations :=
            Printf.sprintf "t=%d host %d: live %d peak %d held %d allocated %d"
              (Sim.now sim) i live peak.(i) (Pool.held p) (Pool.allocated p)
            :: !violations)
      hosts
  in
  Sim.periodic sim (Time_ns.us 20) sample;
  Sim.run ~until:(Time_ns.ms 100) sim;
  Alcotest.(check (list string)) "pool accounting holds throughout" []
    (List.rev !violations);
  Alcotest.(check int) "every cycle delivered exactly" 48 !completed;
  Array.iteri
    (fun i h ->
      let setups = Slow_path.conn_setups (Tas.slow_path h.tas) in
      Alcotest.(check int) (Printf.sprintf "host %d: 48 setups" i) 48 setups;
      Alcotest.(check bool)
        (Printf.sprintf "host %d: rings recycled (peak %d live)" i peak.(i))
        true
        (peak.(i) < setups && Pool.allocated (pool h) = 2 * peak.(i)))
    hosts

(* --- RFC 7323 window on slow-path ACKs ------------------------------------ *)

(* The handshake ACK is the first segment whose window the accepting side
   scales by the connecting side's advertised shift: it must carry the
   receive buffer shifted right, not the raw 16-bit clamp (which scaled by
   2^4 claimed a 1 MB window for a 64 KB buffer). *)
let test_handshake_ack_window () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let config = Config.default in
  let client = host sim ~config ~id:0 net.Topology.a in
  let server = host sim ~config ~id:1 net.Topology.b in
  let window = ref (-1) in
  Libtas.listen server.lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_connected =
          (fun _ -> window := Flow_state.window (the_flow server));
      });
  ignore
    (Libtas.connect client.lt ~ctx:0 ~dst_ip:(server_ip net) ~dst_port:7
       Libtas.null_handlers);
  Sim.run ~until:(Time_ns.ms 5) sim;
  Alcotest.(check int) "server sees the client's real receive buffer"
    config.Config.rx_buf_size !window

let suite =
  [
    Alcotest.test_case "pool: LIFO reuse per capacity, reset on take" `Quick
      test_pool_reuse;
    Alcotest.test_case "closed ring is inert" `Quick test_closed_ring;
    Alcotest.test_case "pool: warm take/give allocates nothing" `Quick
      test_pool_no_alloc;
    Alcotest.test_case "warm store round trip allocates nothing" `Quick
      test_store_no_alloc;
    Alcotest.test_case "sequential connections recycle rings exactly" `Quick
      test_sequential_recycling;
    Alcotest.test_case "stale handle reads closed rings, sends nothing" `Quick
      test_stale_handle;
    Alcotest.test_case "churn: pool bounded by peak live flows" `Quick
      test_churn_bound;
    Alcotest.test_case "handshake ACK window is scaled" `Quick
      test_handshake_ack_window;
    Alcotest.test_case "idle connections hold no ring storage" `Quick
      test_idle_footprint;
  ]
