(* Unit tests for per-flow rate buckets and TAS flow-state arithmetic. *)

module Sim = Tas_engine.Sim
module RB = Tas_core.Rate_bucket
module FS = Tas_core.Flow_state
module Seq32 = Tas_proto.Seq32
module Ring = Tas_buffers.Ring_buffer

let test_rate_refill () =
  let sim = Sim.create () in
  (* 8 Mbps = 1 byte/us; burst 1000 bytes. *)
  let b = RB.create sim (RB.Rate 8e6) ~burst_bytes:1000 in
  Alcotest.(check int) "initial burst available" 1000
    (RB.tx_budget b ~in_flight:0 ~want:1000);
  Alcotest.(check int) "empty after drain" 0
    (RB.tx_budget b ~in_flight:0 ~want:1000);
  (match RB.ns_until_bytes_int b 500 with
  | -1 -> Alcotest.fail "expected a wait"
  | ns ->
    Alcotest.(check bool)
      (Printf.sprintf "refill time ~500us (got %dns)" ns)
      true
      (abs (ns - 500_000) < 2_000));
  ignore (Sim.schedule sim 500_000 (fun () ->
      Alcotest.(check int) "tokens refilled" 500
        (RB.tx_budget b ~in_flight:0 ~want:10_000)));
  Sim.run sim

let test_rate_burst_cap () =
  let sim = Sim.create () in
  let b = RB.create sim (RB.Rate 1e9) ~burst_bytes:2000 in
  ignore (RB.tx_budget b ~in_flight:0 ~want:2000);
  (* After a long idle period, tokens cap at the burst size. *)
  ignore (Sim.schedule sim 1_000_000_000 (fun () ->
      Alcotest.(check int) "burst cap respected" 2000
        (RB.tx_budget b ~in_flight:0 ~want:1_000_000)));
  Sim.run sim

let test_window_mode () =
  let sim = Sim.create () in
  let b = RB.create sim (RB.Window 10_000) ~burst_bytes:0 in
  Alcotest.(check int) "window minus in-flight" 4_000
    (RB.tx_budget b ~in_flight:6_000 ~want:100_000);
  Alcotest.(check int) "window exhausted" 0
    (RB.tx_budget b ~in_flight:10_000 ~want:100);
  Alcotest.(check bool) "no timer in window mode" true
    (RB.ns_until_bytes_int b 1000 = -1)

let test_set_control_switches_mode () =
  let sim = Sim.create () in
  let b = RB.create sim (RB.Rate 1e9) ~burst_bytes:1000 in
  let cc initial =
    Tas_tcp.Interval_cc.create Tas_tcp.Interval_cc.Fixed_rate ~initial
  in
  RB.set_control b (cc (Tas_tcp.Interval_cc.Window_bytes 5000));
  (match RB.mode b with
  | RB.Window 5000 -> ()
  | _ -> Alcotest.fail "expected window mode");
  RB.set_control b (cc (Tas_tcp.Interval_cc.Rate_bps 2e9));
  match RB.mode b with
  | RB.Rate r -> Alcotest.(check (float 1.0)) "rate installed" 2e9 r
  | _ -> Alcotest.fail "expected rate mode"

(* --- Flow_state arithmetic -------------------------------------------------- *)

let mk_flow ~tx_iss ~rx_next =
  let sim = Sim.create () in
  let bucket = RB.create sim (RB.Window 65536) ~burst_bytes:0 in
  FS.create ~arena:(Tas_core.Flow_arena.create ~capacity:1 ())
    ~pool:(Tas_buffers.Ring_buffer.Pool.create ()) ~opaque:1
    ~context:0 ~bucket ~rx_buf_size:4096 ~tx_buf_size:4096 ~local_port:80
    ~peer_ip:2 ~peer_port:9 ~peer_mac:3 ~tx_iss ~rx_next ~window:65535
    ~peer_wscale:0 ()

let test_snd_una_tracks_tx_sent () =
  let flow = mk_flow ~tx_iss:(Seq32.of_int 1000) ~rx_next:0 in
  Alcotest.(check int) "snd_una = seq initially" 1000 (FS.snd_una flow);
  ignore (Ring.push (FS.tx_buf flow) (Bytes.create 500) ~off:0 ~len:500);
  Alcotest.(check int) "500 available" 500 (FS.tx_available flow);
  (* Simulate sending 300 of them. *)
  FS.set_seq flow (Seq32.add (FS.seq flow) 300);
  FS.set_tx_sent flow 300;
  Alcotest.(check int) "snd_una unchanged while unacked" 1000 (FS.snd_una flow);
  Alcotest.(check int) "200 still sendable" 200 (FS.tx_available flow)

let test_seq_wraparound_offsets () =
  (* tx_iss near the 32-bit wrap point. *)
  let flow = mk_flow ~tx_iss:(Seq32.of_int 0xFFFF_FFF0) ~rx_next:(Seq32.of_int 0xFFFF_FFF8) in
  FS.set_seq flow (Seq32.add (FS.seq flow) 0x20);
  FS.set_tx_sent flow 0x20;
  Alcotest.(check int) "snd_una wraps correctly" 0xFFFF_FFF0 (FS.snd_una flow);
  (* rx offsets relative to a wrapping expected seq. *)
  let off = FS.rx_offset_of_seq flow (Seq32.add (FS.ack flow) 100) in
  Alcotest.(check int) "rx offset across wrap" 100 off

let test_rx_offset_mapping () =
  let flow = mk_flow ~tx_iss:0 ~rx_next:(Seq32.of_int 5000) in
  Alcotest.(check int) "next expected at ring head" (Ring.head (FS.rx_buf flow))
    (FS.rx_offset_of_seq flow (Seq32.of_int 5000));
  Alcotest.(check int) "inverse mapping" 5100
    (FS.seq_of_rx_offset flow (FS.rx_offset_of_seq flow (Seq32.of_int 5100)))

let suite =
  [
    Alcotest.test_case "rate bucket refill" `Quick test_rate_refill;
    Alcotest.test_case "rate bucket burst cap" `Quick test_rate_burst_cap;
    Alcotest.test_case "window mode" `Quick test_window_mode;
    Alcotest.test_case "set_control switches mode" `Quick
      test_set_control_switches_mode;
    Alcotest.test_case "snd_una tracks tx_sent" `Quick
      test_snd_una_tracks_tx_sent;
    Alcotest.test_case "flow seq wrap-around" `Quick test_seq_wraparound_offsets;
    Alcotest.test_case "rx offset mapping" `Quick test_rx_offset_mapping;
  ]
