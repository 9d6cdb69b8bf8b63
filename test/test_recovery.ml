(* The pluggable loss-recovery subsystem (lib/recovery): scoreboard and
   engine units, a differential property holding the ring scoreboard to
   the list scoreboard it replaced, a pin on the scoreboard's steady-state
   allocation, the seed-equivalence differential battery (the extracted
   Reno policy must reproduce the pre-extraction fast path byte for byte),
   and end-to-end SACK / RACK-TLP behaviour under injected loss. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Nic = Tas_netsim.Nic
module Port = Tas_netsim.Port
module Fault = Tas_netsim.Fault
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Fast_path = Tas_core.Fast_path
module Transport = Tas_apps.Transport
module Packet = Tas_proto.Packet
module Seq32 = Tas_proto.Seq32
module Rec = Tas_recovery
module Policy = Rec.Policy
module Scoreboard = Rec.Scoreboard
module State = Rec.State
module Rack = Rec.Rack_tlp
module Reno = Rec.Reno

(* --- Policy / Reno units ------------------------------------------------ *)

let test_policy_names () =
  Alcotest.(check string) "reno" "reno" (Policy.name Policy.Reno);
  Alcotest.(check string) "sack" "sack" (Policy.name Policy.Sack);
  Alcotest.(check string) "rack" "rack-tlp" (Policy.name Policy.Rack_tlp);
  List.iter
    (fun (s, k) ->
      Alcotest.(check bool) ("of_string " ^ s) true (Policy.of_string s = Some k))
    [
      ("reno", Policy.Reno);
      ("sack", Policy.Sack);
      ("rack", Policy.Rack_tlp);
      ("rack-tlp", Policy.Rack_tlp);
      ("rack_tlp", Policy.Rack_tlp);
    ];
  Alcotest.(check bool) "unknown rejected" true (Policy.of_string "cubic" = None)

let test_reno_decision_table () =
  (* Counting below the threshold. *)
  (match Reno.on_dup_ack ~dupack_cnt:0 ~in_recovery:false with
  | Reno.Count 1 -> ()
  | _ -> Alcotest.fail "expected Count 1");
  (match Reno.on_dup_ack ~dupack_cnt:1 ~in_recovery:false with
  | Reno.Count 2 -> ()
  | _ -> Alcotest.fail "expected Count 2");
  (* Third duplicate triggers recovery... *)
  (match Reno.on_dup_ack ~dupack_cnt:2 ~in_recovery:false with
  | Reno.Enter_recovery -> ()
  | _ -> Alcotest.fail "expected Enter_recovery");
  (* ...but not while already recovering. *)
  match Reno.on_dup_ack ~dupack_cnt:5 ~in_recovery:true with
  | Reno.Count 6 -> ()
  | _ -> Alcotest.fail "expected Count 6 while in recovery"

(* --- Scoreboard units --------------------------------------------------- *)

(* Adapters from the allocation-free scoreboard and engine APIs (SACK
   blocks read from a header, segments named by index, outcomes in the
   state) to the lists, options and pairs these tests compare. *)
let sack_hdr blocks =
  Tas_proto.Tcp_header.make ~sack:blocks ~src_port:1 ~dst_port:2 ~seq:0
    ~ack:0 ~flags:Tas_proto.Tcp_header.ack_flags ~window:0 ()

let apply_sacks sb ~blocks =
  let newly = Scoreboard.apply_sacks sb (sack_hdr blocks) in
  (newly, Scoreboard.sacked_tx sb)

let seg_opt sb i =
  if i < 0 then None else Some (Scoreboard.seg_seq sb i, Scoreboard.seg_len sb i)

let next_lost_opt sb = seg_opt sb (Scoreboard.next_lost sb)
let last_unsacked_opt sb = seg_opt sb (Scoreboard.last_unsacked sb)

let oldest_unsacked_tx_opt sb =
  match Scoreboard.oldest_unsacked_tx sb with -1 -> None | tx -> Some tx

(* The engine under a [Sack] state. A zero reordering window would let
   RACK's time rule mark every hole below a SACK at once: the [Sack]
   policy must not run it. *)
let sack_on_ack st ~una ~snd_nxt ~blocks ~dup_acks =
  Rack.on_ack st ~una ~snd_nxt ~sack:(sack_hdr blocks) ~dup_acks ~reo_wnd:0;
  st

let rack_on_ack st ~una ~snd_nxt ~blocks ~dup_acks ~reo_wnd =
  Rack.on_ack st ~una ~snd_nxt ~sack:(sack_hdr blocks) ~dup_acks ~reo_wnd;
  st

let fill_sb segs =
  let sb = Scoreboard.create () in
  List.iter (fun (seq, len, tx) -> Scoreboard.on_transmit sb ~seq ~len ~now_ns:tx) segs;
  sb

let test_scoreboard_ack_trim () =
  let sb = fill_sb [ (1000, 100, 10); (1100, 100, 20); (1200, 100, 30) ] in
  (* una = 1150: seg1 fully acked (karn-eligible tx 10), seg2 clipped. *)
  Alcotest.(check int) "delivered tx" 10 (Scoreboard.ack_to sb ~una:1150);
  Alcotest.(check int) "two live segs" 2 (Scoreboard.live_segs sb);
  (match last_unsacked_opt sb with
  | Some (seq, len) ->
    Alcotest.(check int) "tail seq" 1200 seq;
    Alcotest.(check int) "tail len" 100 len
  | None -> Alcotest.fail "expected a live tail");
  (* Retransmitted segments never feed the delivery clock (Karn). *)
  Alcotest.(check bool) "retx found" true
    (Scoreboard.on_retransmit sb ~seq:1150 ~now_ns:40);
  Alcotest.(check int) "karn filters retx" (-1) (Scoreboard.ack_to sb ~una:1200);
  (* ...but a clean tail still samples. *)
  Alcotest.(check int) "clean tail samples" 30 (Scoreboard.ack_to sb ~una:1300);
  Alcotest.(check bool) "drained" true (Scoreboard.is_empty sb)

let test_scoreboard_sack_and_dupthresh () =
  let sb =
    fill_sb [ (0, 100, 1); (100, 100, 2); (200, 100, 3); (300, 100, 4); (400, 100, 5) ]
  in
  (* SACK 200-500: three segments above the front hole. *)
  let newly, txmax = apply_sacks sb ~blocks:[ (200, 500) ] in
  Alcotest.(check int) "newly sacked" 3 newly;
  Alcotest.(check int) "karn max tx" 5 txmax;
  (* Re-applying the same blocks marks nothing new. *)
  let again, _ = apply_sacks sb ~blocks:[ (200, 500) ] in
  Alcotest.(check int) "idempotent" 0 again;
  (* dupthresh 3: both unsacked segments below have >= 3 sacked above. *)
  Alcotest.(check int) "dupthresh marks holes" 2
    (Scoreboard.mark_lost_dupthresh sb ~dupthresh:3);
  (match next_lost_opt sb with
  | Some (seq, _) -> Alcotest.(check int) "lowest hole first" 0 seq
  | None -> Alcotest.fail "expected a lost segment");
  (* A retransmission clears the marking and is skipped by the dup rule. *)
  ignore (Scoreboard.on_retransmit sb ~seq:0 ~now_ns:50);
  Alcotest.(check int) "retx not re-marked by dupthresh" 0
    (Scoreboard.mark_lost_dupthresh sb ~dupthresh:3);
  (match next_lost_opt sb with
  | Some (seq, _) -> Alcotest.(check int) "second hole remains" 100 seq
  | None -> Alcotest.fail "expected the second hole");
  Alcotest.(check int) "cumulative lost counter" 2 (Scoreboard.cum_lost sb);
  Alcotest.(check int) "cumulative retx counter" 1 (Scoreboard.cum_retx sb)

let test_scoreboard_rack_time_rule () =
  let sb = fill_sb [ (0, 100, 10); (100, 100, 20); (200, 100, 30) ] in
  ignore (apply_sacks sb ~blocks:[ (200, 300) ]);
  (* Threshold 25: both unsacked holes (tx 10 and 20) are old enough. *)
  Alcotest.(check int) "older-than marks both holes" 2
    (Scoreboard.mark_lost_older_than sb ~threshold_ns:25);
  Alcotest.(check int) "idempotent" 0
    (Scoreboard.mark_lost_older_than sb ~threshold_ns:25);
  (* The time rule re-detects a lost retransmission once its refreshed
     timestamp ages past the threshold — dupthresh cannot. *)
  ignore (Scoreboard.on_retransmit sb ~seq:0 ~now_ns:40);
  Alcotest.(check int) "fresh retx not old enough" 0
    (Scoreboard.mark_lost_older_than sb ~threshold_ns:35);
  Alcotest.(check int) "aged retx re-marked" 1
    (Scoreboard.mark_lost_older_than sb ~threshold_ns:45);
  (* Reordering-timer anchor: oldest unsacked candidate below the edge. *)
  let sb2 = fill_sb [ (0, 50, 7); (50, 50, 9); (100, 50, 11) ] in
  Alcotest.(check bool) "no anchor before any sack" true
    (oldest_unsacked_tx_opt sb2 = None);
  ignore (apply_sacks sb2 ~blocks:[ (100, 150) ]);
  Alcotest.(check bool) "anchor is oldest candidate" true
    (oldest_unsacked_tx_opt sb2 = Some 7)

(* --- Engine units ------------------------------------------------------- *)

let transmit_n st ~n ~len ~base_ts =
  for i = 0 to n - 1 do
    Scoreboard.on_transmit st.State.sb ~seq:(i * len) ~len ~now_ns:(base_ts + i)
  done

let test_sack_episode_bracket () =
  let st = State.create Policy.Sack in
  transmit_n st ~n:5 ~len:100 ~base_ts:10;
  (* SACK evidence above the front hole accumulates over duplicates. *)
  let o1 = sack_on_ack st ~una:0 ~snd_nxt:500 ~blocks:[ (200, 300) ] ~dup_acks:1 in
  Alcotest.(check bool) "no episode yet" false o1.State.entered;
  Alcotest.(check int) "no RACK clock under Sack" (-1) st.State.rack_ts;
  let o2 =
    sack_on_ack st ~una:0 ~snd_nxt:500 ~blocks:[ (200, 400) ] ~dup_acks:2
  in
  Alcotest.(check bool) "still counting" false o2.State.entered;
  let o3 =
    sack_on_ack st ~una:0 ~snd_nxt:500 ~blocks:[ (200, 500) ] ~dup_acks:3
  in
  Alcotest.(check bool) "dupthresh enters recovery" true o3.State.entered;
  Alcotest.(check int) "both holes marked" 2 o3.State.newly_lost;
  Alcotest.(check bool) "episode flag" true st.State.in_rec;
  Alcotest.(check int) "recovery point at snd_nxt" 500 st.State.recovery_point;
  (* More duplicates inside the episode do not re-enter (one rate cut). *)
  let o4 =
    sack_on_ack st ~una:0 ~snd_nxt:500 ~blocks:[ (200, 500) ] ~dup_acks:4
  in
  Alcotest.(check bool) "no re-entry" false o4.State.entered;
  (* Partial progress keeps the episode; reaching the point exits. *)
  let o5 = sack_on_ack st ~una:200 ~snd_nxt:500 ~blocks:[] ~dup_acks:0 in
  Alcotest.(check bool) "partial ack stays in" false o5.State.exited;
  let o6 = sack_on_ack st ~una:500 ~snd_nxt:500 ~blocks:[] ~dup_acks:0 in
  Alcotest.(check bool) "cumulative past point exits" true o6.State.exited;
  Alcotest.(check bool) "flag cleared" false st.State.in_rec

let test_sack_front_hole_rule () =
  (* Small flight: three duplicate ACKs with no SACK evidence above still
     pin the front segment (RFC 6675 at small flights). *)
  let st = State.create Policy.Sack in
  transmit_n st ~n:2 ~len:100 ~base_ts:10;
  let o =
    sack_on_ack st ~una:0 ~snd_nxt:200 ~blocks:[] ~dup_acks:3
  in
  Alcotest.(check int) "front segment marked" 1 o.State.newly_lost;
  Alcotest.(check bool) "entered" true o.State.entered

let test_rack_defaults_and_clock () =
  Alcotest.(check int) "reo_wnd = srtt/4" 2_500
    (Rack.reo_wnd_ns ~srtt_ns:10_000);
  Alcotest.(check int) "reo_wnd floor" 1_000
    (Rack.reo_wnd_ns ~srtt_ns:0);
  Alcotest.(check int) "pto = 2*srtt" 20_000_000
    (Rack.pto_ns ~srtt_ns:10_000_000);
  Alcotest.(check int) "pto floor 1ms" 1_000_000
    (Rack.pto_ns ~srtt_ns:1_000);
  let st = State.create Policy.Rack_tlp in
  Scoreboard.on_transmit st.State.sb ~seq:0 ~len:100 ~now_ns:1_000;
  Scoreboard.on_transmit st.State.sb ~seq:100 ~len:100 ~now_ns:200_000;
  (* SACK of the late segment advances the delivery clock far enough past
     the early hole that the time rule marks it without any dup count. *)
  let o =
    rack_on_ack st ~una:0 ~snd_nxt:200 ~blocks:[ (100, 200) ] ~dup_acks:1
      ~reo_wnd:10_000
  in
  Alcotest.(check int) "rack_ts from sacked tx" 200_000 st.State.rack_ts;
  Alcotest.(check int) "time rule marked the hole" 1 o.State.rack_lost;
  Alcotest.(check bool) "entered on rack loss" true o.State.entered

let test_rack_reo_timer () =
  let st = State.create Policy.Rack_tlp in
  Scoreboard.on_transmit st.State.sb ~seq:0 ~len:100 ~now_ns:1_000;
  Scoreboard.on_transmit st.State.sb ~seq:100 ~len:100 ~now_ns:2_000;
  (* Evidence exists but the hole is too fresh for the window... *)
  let o =
    rack_on_ack st ~una:0 ~snd_nxt:200 ~blocks:[ (100, 200) ] ~dup_acks:1
      ~reo_wnd:5_000
  in
  Alcotest.(check int) "within reo_wnd: nothing marked" 0 o.State.newly_lost;
  (* ...the reordering timer catches it once reo_wnd + srtt elapse. *)
  Alcotest.(check int) "timer before expiry" 0
    (Rack.on_reo_timer st ~now_ns:3_000 ~reo_wnd:5_000 ~srtt_ns:1_000);
  Alcotest.(check int) "timer after expiry" 1
    (Rack.on_reo_timer st ~now_ns:8_000 ~reo_wnd:5_000 ~srtt_ns:1_000)

let test_state_reset () =
  let st = State.create Policy.Rack_tlp in
  transmit_n st ~n:3 ~len:100 ~base_ts:10;
  ignore
    (rack_on_ack st ~una:0 ~snd_nxt:300 ~blocks:[ (100, 300) ] ~dup_acks:3
       ~reo_wnd:1);
  Alcotest.(check bool) "episode open" true st.State.in_rec;
  let sim = Sim.create () in
  let fired = ref 0 in
  st.State.tlp_ev <- Sim.schedule sim 10 (fun () -> incr fired);
  st.State.reo_ev <- Sim.schedule sim 20 (fun () -> incr fired);
  State.reset sim st;
  Alcotest.(check bool) "scoreboard cleared" true (Scoreboard.is_empty st.State.sb);
  Alcotest.(check bool) "episode closed" false st.State.in_rec;
  Alcotest.(check int) "rack clock reset" (-1) st.State.rack_ts;
  Alcotest.(check bool) "timers unarmed" true
    (st.State.tlp_ev == Sim.no_event && st.State.reo_ev == Sim.no_event);
  Alcotest.(check int) "timers cancelled" 0 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "neither timer fires" 0 !fired;
  Alcotest.(check bool) "cumulative counters survive" true
    (Scoreboard.cum_lost st.State.sb > 0)

(* --- Seed-equivalence differential battery ------------------------------ *)

(* Digests captured from the seed (commit 570fea9, before the dup-ACK logic
   was extracted into lib/recovery): md5 over the full printed report of the
   chaos schedules, and the Fig. 7 goodputs at 9 decimal places. The
   refactored fast path under the default Reno policy must reproduce every
   one exactly — extraction, SACK header support, and the multi-range
   out-of-order rewrite must be invisible at max_ranges = 1. The chaos
   digests cover ch's note line, which has changed since the seed; with
   the seed's note line put back, the report hashes to the seed's
   digests. *)

let test_seed_chaos_digests () =
  List.iter
    (fun (only, expect) ->
      let buf = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buf in
      Tas_experiments.Exp_chaos.run ~quick:true ~only:[ only ] fmt;
      Format.pp_print_flush fmt ();
      Alcotest.(check string)
        ("chaos schedule " ^ only)
        expect
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [
      ("bursty-loss", "01e0dde20f8b07db0a535a05da455bcf");
      ("hellscape", "cd6a6eaf34b40c93e80723b8afcca345");
    ]

let test_seed_f7_goodputs () =
  List.iter
    (fun (vname, v, sname, s, expect) ->
      let g = Tas_experiments.Exp_loss.goodput_gbps v ~shape:s in
      Alcotest.(check string)
        (Printf.sprintf "f7 %s %s" vname sname)
        expect
        (Printf.sprintf "%.9f" g))
    [
      ("tas", Tas_experiments.Exp_loss.Tas_ooo, "none",
       Tas_experiments.Exp_loss.No_loss, "9.399966667");
      ("tas", Tas_experiments.Exp_loss.Tas_ooo, "uni1",
       Tas_experiments.Exp_loss.Uniform 0.01, "9.306916000");
      ("tas", Tas_experiments.Exp_loss.Tas_ooo, "ge1",
       Tas_experiments.Exp_loss.Bursty 0.01, "9.304677333");
      ("simple", Tas_experiments.Exp_loss.Tas_simple, "none",
       Tas_experiments.Exp_loss.No_loss, "9.399966667");
      ("simple", Tas_experiments.Exp_loss.Tas_simple, "uni1",
       Tas_experiments.Exp_loss.Uniform 0.01, "9.049128667");
      ("simple", Tas_experiments.Exp_loss.Tas_simple, "ge1",
       Tas_experiments.Exp_loss.Bursty 0.01, "9.053800667");
    ]

(* --- End-to-end: two TAS hosts under injected loss ---------------------- *)

let tas_pair ?control_interval_ns ?timeout_intervals sim net ~policy ~rate_bps =
  let mk nic core_base =
    let base =
      {
        Config.default with
        Config.max_fast_path_cores = 2;
        rx_buf_size = 131072;
        tx_buf_size = 131072;
        cc = Tas_tcp.Interval_cc.Fixed_rate;
        initial_rate_bps = rate_bps;
        recovery_policy = policy;
      }
    in
    let config =
      {
        base with
        Config.control_interval_fixed_ns =
          (match control_interval_ns with
          | None -> base.Config.control_interval_fixed_ns
          | some -> some);
        timeout_intervals =
          (match timeout_intervals with
          | None -> base.Config.timeout_intervals
          | Some n -> n);
      }
    in
    let tas = Tas.create sim ~nic ~config () in
    let cores =
      [|
        Core.create sim ~id:core_base ();
        Core.create sim ~id:(core_base + 1) ();
      |]
    in
    let lt = Tas.app tas ~app_cores:cores ~api:Libtas.Sockets in
    (tas, Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod 2))
  in
  let a = mk net.Topology.a.Topology.nic 500 in
  let b = mk net.Topology.b.Topology.nic 600 in
  (a, b)

(* Bulk goodput under a symmetric loss shape, exp_loss-style but with the
   recovery policy under test on both hosts. *)
let goodput ~policy ~shape ~flows =
  let sim = Sim.create () in
  let rng = Rng.create 1234 in
  let spec = Topology.link_10g ~ecn_threshold:65 () in
  let net =
    Topology.point_to_point sim ~spec ~fault_ab:shape ~fault_ba:shape ~rng
      ~queues_per_nic:8 ()
  in
  let (_sender_tas, sender), (_recv_tas, receiver) =
    tas_pair sim net ~policy ~rate_bps:94e6
  in
  let received = ref 0 in
  Transport.listen receiver ~port:5001 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_data = (fun _ d -> received := !received + Bytes.length d);
      });
  let chunk = Bytes.create 16384 in
  for _ = 1 to flows do
    let rec push conn = if Transport.send conn chunk > 0 then push conn in
    Transport.connect sender
      ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:5001
      (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_connected = (fun conn -> push conn);
          Transport.on_sendable = (fun conn -> push conn);
        })
  done;
  Sim.run ~until:(Time_ns.ms 40) sim;
  let before = !received in
  Sim.run ~until:(Time_ns.ms 160) sim;
  float_of_int ((!received - before) * 8) /. 0.12 /. 1e9

let test_sack_goodput_vs_reno () =
  List.iter
    (fun (name, shape) ->
      let reno = goodput ~policy:Policy.Reno ~shape ~flows:30 in
      let sack = goodput ~policy:Policy.Sack ~shape ~flows:30 in
      Alcotest.(check bool)
        (Printf.sprintf "sack (%.3f) >= reno (%.3f) under %s" sack reno name)
        true
        (sack >= reno *. 0.99))
    [
      ("uniform 1%", Fault.uniform_loss 0.01);
      ("bursty 1%", Fault.bursty_of_rate ~rate:0.01 ~mean_burst_pkts:4.0);
    ]

(* Stream integrity: a patterned transfer through bursty loss must arrive
   complete and byte-exact — selective retransmission fills every hole with
   the right bytes (offset bugs in the scoreboard/tx-buffer mapping cannot
   hide from this). *)
let integrity_run policy =
  let total = 262144 in
  let sim = Sim.create () in
  let rng = Rng.create 99 in
  (* A real RTT (2 ms) so dozens of segments are in flight — losses then
     draw SACK evidence instead of being papered over by the stall rewind
     (whose timeout is pinned well above the repair timescale). *)
  let spec =
    {
      Topology.rate_bps = 1e9;
      delay = Time_ns.ms 1;
      capacity_pkts = 1024;
      ecn_threshold = None;
    }
  in
  let shape = Fault.bursty_of_rate ~rate:0.05 ~mean_burst_pkts:4.0 in
  let net =
    Topology.point_to_point sim ~spec ~fault_ab:shape ~fault_ba:shape ~rng
      ~queues_per_nic:8 ()
  in
  let (sender_tas, sender), (_recv_tas, receiver) =
    tas_pair sim net ~policy ~rate_bps:1e9 ~control_interval_ns:10_000_000
      ~timeout_intervals:10
  in
  let acc = Buffer.create total in
  Transport.listen receiver ~port:7001 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_data = (fun _ d -> Buffer.add_bytes acc d);
      });
  let pattern = Bytes.init total (fun i -> Char.chr (((i * 31) + 7) land 0xff)) in
  let sent = ref 0 in
  let push conn =
    let rec go () =
      if !sent < total then begin
        let n =
          Transport.send conn (Bytes.sub pattern !sent (min 8192 (total - !sent)))
        in
        if n > 0 then begin
          sent := !sent + n;
          go ()
        end
      end
    in
    go ()
  in
  Transport.connect sender
    ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:7001
    (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_connected = push;
        Transport.on_sendable = push;
      });
  Sim.run ~until:(Time_ns.ms 500) sim;
  (match net.Topology.fault_ab with
  | Some f ->
    Alcotest.(check bool) "losses actually injected" true
      (Fault.total_drops (Fault.counters f) > 0)
  | None -> Alcotest.fail "fault stage missing");
  ignore !sent;
  Alcotest.(check int) "all bytes delivered" total (Buffer.length acc);
  Alcotest.(check bool) "byte-exact stream" true
    (Bytes.equal (Buffer.to_bytes acc) pattern);
  sender_tas

let test_sack_stream_integrity () =
  let tas = integrity_run Policy.Sack in
  let r = Fast_path.rec_stats (Tas.fast_path tas) in
  Alcotest.(check bool) "recovery episodes happened" true
    (r.Fast_path.rec_episodes > 0);
  Alcotest.(check bool) "selective retransmissions happened" true
    (r.Fast_path.rec_selective_retransmits > 0);
  Alcotest.(check bool) "sack evidence consumed" true
    (r.Fast_path.rec_sacked_segments > 0)

let test_rack_stream_integrity () =
  let tas = integrity_run Policy.Rack_tlp in
  let r = Fast_path.rec_stats (Tas.fast_path tas) in
  Alcotest.(check bool) "recovery episodes happened" true
    (r.Fast_path.rec_episodes > 0);
  Alcotest.(check bool) "selective retransmissions happened" true
    (r.Fast_path.rec_selective_retransmits > 0)

(* Tail loss: deterministically swallow the first copy of the segment that
   carries the final byte of a bounded transfer. Without a tail-loss probe
   the only repair is the slow path's stall rewind (4 x 50 ms control
   intervals here); RACK-TLP's probe timer must repair at PTO timescale. *)
let tail_completion policy =
  let total = 32768 in
  let sim = Sim.create () in
  let spec =
    {
      Topology.rate_bps = 1e9;
      delay = Time_ns.ms 5;
      capacity_pkts = 1024;
      ecn_threshold = None;
    }
  in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  (* Re-wire a -> b with the deterministic tail dropper. *)
  let seen = ref 0 and dropped = ref false in
  Port.set_deliver net.Topology.a.Topology.uplink (fun pkt ->
      let len = Bytes.length pkt.Packet.payload in
      if len > 0 && (not !dropped) && !seen + len >= total then
        dropped := true (* swallow the tail segment's first copy *)
      else begin
        if len > 0 then seen := !seen + len;
        Nic.input net.Topology.b.Topology.nic pkt
      end);
  let mk nic core_base =
    let config =
      {
        Config.default with
        Config.max_fast_path_cores = 2;
        cc = Tas_tcp.Interval_cc.Fixed_rate;
        initial_rate_bps = 1e9;
        control_interval_fixed_ns = Some 50_000_000;
        timeout_intervals = 4;
        recovery_policy = policy;
      }
    in
    let tas = Tas.create sim ~nic ~config () in
    let cores =
      [|
        Core.create sim ~id:core_base ();
        Core.create sim ~id:(core_base + 1) ();
      |]
    in
    let lt = Tas.app tas ~app_cores:cores ~api:Libtas.Sockets in
    (tas, Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod 2))
  in
  let sender_tas, sender = mk net.Topology.a.Topology.nic 500 in
  let _recv_tas, receiver = mk net.Topology.b.Topology.nic 600 in
  let got = ref 0 and done_at = ref None in
  Transport.listen receiver ~port:9001 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_data =
          (fun _ d ->
            got := !got + Bytes.length d;
            if !got >= total && !done_at = None then done_at := Some (Sim.now sim));
      });
  let payload = Bytes.create total in
  Transport.connect sender
    ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:9001
    (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_connected =
          (fun conn -> ignore (Transport.send conn payload));
      });
  Sim.run ~until:(Time_ns.ms 400) sim;
  Alcotest.(check bool) "tail segment was dropped" true !dropped;
  match !done_at with
  | None -> Alcotest.failf "transfer never completed under %s" (Policy.name policy)
  | Some t -> (t, sender_tas)

let test_tlp_repairs_tail_loss () =
  let sack_t, _ = tail_completion Policy.Sack in
  let rack_t, rack_tas = tail_completion Policy.Rack_tlp in
  let r = Fast_path.rec_stats (Tas.fast_path rack_tas) in
  Alcotest.(check bool) "a tail-loss probe fired" true
    (r.Fast_path.rec_tlp_probes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "rack (%.1f ms) beats sack (%.1f ms) on the tail"
       (float_of_int rack_t /. 1e6)
       (float_of_int sack_t /. 1e6))
    true
    (rack_t < sack_t);
  (* The probe repairs at PTO timescale; the stall rewind waits out 4
     control intervals. Generous bounds so scheduler drift cannot flake. *)
  Alcotest.(check bool) "rack repairs before 120 ms" true
    (rack_t < Time_ns.ms 120);
  Alcotest.(check bool) "sack waits for the stall rewind" true
    (sack_t > Time_ns.ms 120)

(* --- Scoreboard differential: the ring against the list it replaced ------ *)

(* The list scoreboard the ring replaced, kept verbatim as the reference
   model: every return value, counter and JSON dump must agree. *)
module List_scoreboard = struct
  module Seq32 = Tas_proto.Seq32
  module J = Tas_telemetry.Json

  type seg = {
    mutable s_seq : Seq32.t;
    mutable s_len : int;
    mutable s_tx_ns : int;
    mutable s_sacked : bool;
    mutable s_lost : bool;
    mutable s_retx : int;
  }

  type t = {
    mutable segs : seg list;  (* ascending sequence order, disjoint *)
    mutable high_sacked : Seq32.t;  (* end of the highest sacked segment *)
    mutable any_sacked : bool;  (* [high_sacked] is meaningful *)
    mutable c_sacked : int;
    mutable c_lost : int;
    mutable c_retx : int;
  }

  let create () =
    {
      segs = [];
      high_sacked = 0;
      any_sacked = false;
      c_sacked = 0;
      c_lost = 0;
      c_retx = 0;
    }

  let reset t =
    t.segs <- [];
    t.any_sacked <- false

  let is_empty t = t.segs = []
  let seg_end s = Seq32.add s.s_seq s.s_len

  (* O(in-flight) append: the list is short (send-window bound) and the sim
     charges far more per packet elsewhere. *)
  let on_transmit t ~seq ~len ~now_ns =
    t.segs <-
      t.segs
      @ [
          {
            s_seq = seq;
            s_len = len;
            s_tx_ns = now_ns;
            s_sacked = false;
            s_lost = false;
            s_retx = 0;
          };
        ]

  let on_retransmit t ~seq ~now_ns =
    match List.find_opt (fun s -> s.s_seq = seq) t.segs with
    | Some s ->
      s.s_tx_ns <- now_ns;
      s.s_lost <- false;
      s.s_retx <- s.s_retx + 1;
      t.c_retx <- t.c_retx + 1;
      true
    | None -> false

  let ack_to t ~una =
    let tx_max = ref (-1) in
    let rec go = function
      | s :: rest when Seq32.leq (seg_end s) una ->
        if s.s_retx = 0 && s.s_tx_ns > !tx_max then tx_max := s.s_tx_ns;
        go rest
      | s :: rest when Seq32.lt s.s_seq una ->
        (* Partially-acked straddler: keep the unacked suffix. *)
        let cut = Seq32.diff una s.s_seq in
        s.s_seq <- una;
        s.s_len <- s.s_len - cut;
        s :: rest
      | rest -> rest
    in
    t.segs <- go t.segs;
    if t.segs = [] then t.any_sacked <- false;
    !tx_max

  let apply_sacks t ~blocks =
    let newly = ref 0 and tx_max = ref (-1) in
    List.iter
      (fun (bs, be) ->
        if Seq32.lt bs be then
          List.iter
            (fun s ->
              if
                (not s.s_sacked)
                && Seq32.geq s.s_seq bs
                && Seq32.leq (seg_end s) be
              then begin
                s.s_sacked <- true;
                s.s_lost <- false;
                incr newly;
                t.c_sacked <- t.c_sacked + 1;
                if s.s_retx = 0 && s.s_tx_ns > !tx_max then tx_max := s.s_tx_ns;
                if (not t.any_sacked) || Seq32.gt (seg_end s) t.high_sacked then
                  t.high_sacked <- seg_end s;
                t.any_sacked <- true
              end)
            t.segs)
      blocks;
    (!newly, !tx_max)

  let mark_lost_dupthresh t ~dupthresh =
    (* Walk from the highest segment down, counting sacked segments above. *)
    let newly = ref 0 in
    let above = ref 0 in
    List.iter
      (fun s ->
        if s.s_sacked then incr above
        else if !above >= dupthresh && (not s.s_lost) && s.s_retx = 0 then begin
          s.s_lost <- true;
          incr newly;
          t.c_lost <- t.c_lost + 1
        end)
      (List.rev t.segs);
    !newly

  let mark_front_lost t =
    match t.segs with
    | s :: _ when (not s.s_sacked) && (not s.s_lost) && s.s_retx = 0 ->
      s.s_lost <- true;
      t.c_lost <- t.c_lost + 1;
      1
    | _ -> 0

  let mark_lost_older_than t ~threshold_ns =
    if not t.any_sacked then 0
    else begin
      let newly = ref 0 in
      List.iter
        (fun s ->
          if
            (not s.s_sacked)
            && (not s.s_lost)
            && Seq32.lt s.s_seq t.high_sacked
            && s.s_tx_ns <= threshold_ns
          then begin
            s.s_lost <- true;
            incr newly;
            t.c_lost <- t.c_lost + 1
          end)
        t.segs;
      !newly
    end

  let next_lost t =
    match List.find_opt (fun s -> s.s_lost) t.segs with
    | Some s -> Some (s.s_seq, s.s_len)
    | None -> None

  let last_unsacked t =
    List.fold_left
      (fun acc s -> if s.s_sacked then acc else Some (s.s_seq, s.s_len))
      None t.segs

  let oldest_unsacked_tx t =
    if not t.any_sacked then None
    else
      List.fold_left
        (fun acc s ->
          if (not s.s_sacked) && (not s.s_lost) && Seq32.lt s.s_seq t.high_sacked
          then
            match acc with
            | None -> Some s.s_tx_ns
            | Some m -> Some (min m s.s_tx_ns)
          else acc)
        None t.segs

  let live_segs t = List.length t.segs
  let live_sacked t = List.length (List.filter (fun s -> s.s_sacked) t.segs)
  let live_lost t = List.length (List.filter (fun s -> s.s_lost) t.segs)
  let cum_sacked t = t.c_sacked
  let cum_lost t = t.c_lost
  let cum_retx t = t.c_retx

  let to_json t =
    J.Obj
      [
        ("live_segs", J.Int (live_segs t));
        ("live_sacked", J.Int (live_sacked t));
        ("live_lost", J.Int (live_lost t));
        ("sacked", J.Int t.c_sacked);
        ("lost", J.Int t.c_lost);
        ("retx", J.Int t.c_retx);
      ]
end

module type SCOREBOARD = sig
  type t

  val is_empty : t -> bool
  val next_lost : t -> (int * int) option
  val last_unsacked : t -> (int * int) option
  val oldest_unsacked_tx : t -> int option
  val live_segs : t -> int
  val live_sacked : t -> int
  val live_lost : t -> int
  val cum_sacked : t -> int
  val cum_lost : t -> int
  val cum_retx : t -> int
  val to_json : t -> Tas_telemetry.Json.t
end

(* Everything observable without side effects, as one comparable line. *)
module View (S : SCOREBOARD) = struct
  let pair_opt = function
    | None -> "-"
    | Some (a, b) -> Printf.sprintf "%d+%d" a b

  let view sb =
    Printf.sprintf
      "empty=%b live=%d/%d/%d cum=%d/%d/%d next_lost=%s last_unsacked=%s \
       oldest=%s %s"
      (S.is_empty sb) (S.live_segs sb) (S.live_sacked sb) (S.live_lost sb)
      (S.cum_sacked sb) (S.cum_lost sb) (S.cum_retx sb)
      (pair_opt (S.next_lost sb))
      (pair_opt (S.last_unsacked sb))
      (match S.oldest_unsacked_tx sb with
      | None -> "-"
      | Some tx -> string_of_int tx)
      (Tas_telemetry.Json.to_string (S.to_json sb))
end

module Ring_view = View (struct
  include Scoreboard

  let next_lost = next_lost_opt
  let last_unsacked = last_unsacked_opt
  let oldest_unsacked_tx = oldest_unsacked_tx_opt
end)
module List_view = View (List_scoreboard)

(* A sequence number named relative to the tracked segments, resolved
   against the reference model when the operation runs. *)
type sb_pos =
  | Bound of int  (* boundary [k mod (n+1)]: a segment start, or the last end *)
  | Near of int * int  (* a boundary shifted by a few bytes *)
  | Frac of int  (* per-mille of the tracked span: < 0 stale, > 1000 past all *)

type sb_op =
  | Transmit of (int * int * int) list  (* per segment: gap, len, clock step *)
  | Ack of sb_pos
  | Sack of (sb_pos * sb_pos) list
  | Dupthresh of int
  | Front_lost
  | Older_than of int  (* threshold = now - x *)
  | Retransmit of sb_pos
  | Reset

let show_pos = function
  | Bound k -> Printf.sprintf "b%d" k
  | Near (k, d) -> Printf.sprintf "b%d%+d" k d
  | Frac x -> Printf.sprintf "%d‰" x

let show_sb_op = function
  | Transmit segs ->
    "transmit "
    ^ String.concat ","
        (List.map (fun (g, l, dt) -> Printf.sprintf "+%d:%d@%d" g l dt) segs)
  | Ack p -> "ack " ^ show_pos p
  | Sack bs ->
    "sack "
    ^ String.concat ","
        (List.map
           (fun (a, b) -> Printf.sprintf "[%s,%s)" (show_pos a) (show_pos b))
           bs)
  | Dupthresh d -> Printf.sprintf "dupthresh %d" d
  | Front_lost -> "front_lost"
  | Older_than x -> Printf.sprintf "older_than now-%d" x
  | Retransmit p -> "retransmit " ^ show_pos p
  | Reset -> "reset"

let gen_pos =
  let open QCheck.Gen in
  frequency
    [
      (5, map (fun k -> Bound k) (int_range 0 200));
      (2, map2 (fun k d -> Near (k, d)) (int_range 0 200) (int_range (-3) 3));
      (2, map (fun x -> Frac x) (int_range (-200) 1300));
    ]

let gen_sb_op =
  let open QCheck.Gen in
  let seg =
    triple
      (frequency [ (8, return 0); (1, int_range 1 50) ])
      (int_range 1 1500) (int_range 0 3)
  in
  frequency
    [
      (10, map (fun s -> Transmit s) (list_size (int_range 1 24) seg));
      (4, map (fun p -> Ack p) gen_pos);
      ( 8,
        map (fun bs -> Sack bs) (list_size (int_range 0 3) (pair gen_pos gen_pos))
      );
      (3, map (fun d -> Dupthresh d) (int_range 0 4));
      (2, return Front_lost);
      (3, map (fun x -> Older_than x) (int_range (-5) 80));
      (4, map (fun p -> Retransmit p) gen_pos);
      (1, return Reset);
    ]

(* Peak live segments over every program run: the coverage check that the
   ring really grew. *)
let sb_peak_live = ref 0

(* Run [ops] on a ring scoreboard and the reference side by side, with
   the first segment [start_below] bytes short of 2^32 so sequence numbers
   wrap. Fails with the first operation whose result or view differs. *)
let sb_differential (start_below, ops) =
  let sb = Scoreboard.create () and m = List_scoreboard.create () in
  let cursor = ref (Seq32.of_int (0x1_0000_0000 - start_below)) in
  let clock = ref 1_000 in
  let resolve p =
    let segs = m.List_scoreboard.segs in
    let base =
      match segs with s :: _ -> s.List_scoreboard.s_seq | [] -> !cursor
    in
    let bounds =
      List.map (fun s -> s.List_scoreboard.s_seq) segs
      @ [
          (match List.rev segs with
          | s :: _ -> List_scoreboard.seg_end s
          | [] -> !cursor);
        ]
    in
    let bound k = List.nth bounds (k mod List.length bounds) in
    match p with
    | Bound k -> bound k
    | Near (k, d) -> Seq32.add (bound k) d
    | Frac x -> Seq32.add base (Seq32.diff !cursor base * x / 1000)
  in
  let step = function
    | Transmit segs ->
      List.iter
        (fun (gap, len, dt) ->
          let seq = Seq32.add !cursor gap in
          Scoreboard.on_transmit sb ~seq ~len ~now_ns:!clock;
          List_scoreboard.on_transmit m ~seq ~len ~now_ns:!clock;
          cursor := Seq32.add seq len;
          clock := !clock + dt)
        segs;
      ("", "")
    | Ack p ->
      let una = resolve p in
      ( string_of_int (Scoreboard.ack_to sb ~una),
        string_of_int (List_scoreboard.ack_to m ~una) )
    | Sack bs ->
      let blocks = List.map (fun (a, b) -> (resolve a, resolve b)) bs in
      let show (n, tx) = Printf.sprintf "%d,%d" n tx in
      ( show (apply_sacks sb ~blocks),
        show (List_scoreboard.apply_sacks m ~blocks) )
    | Dupthresh dupthresh ->
      ( string_of_int (Scoreboard.mark_lost_dupthresh sb ~dupthresh),
        string_of_int (List_scoreboard.mark_lost_dupthresh m ~dupthresh) )
    | Front_lost ->
      ( string_of_int (Scoreboard.mark_front_lost sb),
        string_of_int (List_scoreboard.mark_front_lost m) )
    | Older_than x ->
      let threshold_ns = !clock - x in
      ( string_of_int (Scoreboard.mark_lost_older_than sb ~threshold_ns),
        string_of_int (List_scoreboard.mark_lost_older_than m ~threshold_ns) )
    | Retransmit p ->
      let seq = resolve p in
      let r = Scoreboard.on_retransmit sb ~seq ~now_ns:!clock in
      let l = List_scoreboard.on_retransmit m ~seq ~now_ns:!clock in
      incr clock;
      (string_of_bool r, string_of_bool l)
    | Reset ->
      (* RTO rewind: the sender re-sends from the oldest unacked byte. *)
      (match m.List_scoreboard.segs with
      | s :: _ -> cursor := s.List_scoreboard.s_seq
      | [] -> ());
      Scoreboard.reset sb;
      List_scoreboard.reset m;
      ("", "")
  in
  List.iteri
    (fun i op ->
      let r, l = step op in
      sb_peak_live := max !sb_peak_live (Scoreboard.live_segs sb);
      let rv = Ring_view.view sb and lv = List_view.view m in
      if r <> l || rv <> lv then
        QCheck.Test.fail_reportf "op %d (%s):@.ring: %s %s@.list: %s %s" i
          (show_sb_op op) r rv l lv)
    ops;
  true

let prop_scoreboard_matches_list =
  QCheck.Test.make ~name:"ring scoreboard matches the list reference"
    ~count:300
    QCheck.(
      make
        ~print:(fun (s, ops) ->
          Printf.sprintf "start 2^32-%d\n%s" s
            (String.concat "\n" (List.map show_sb_op ops)))
        ~shrink:(Shrink.pair Shrink.nil Shrink.list)
        Gen.(
          pair (int_range 1 20_000) (list_size (int_range 50 300) gen_sb_op)))
    sb_differential

(* A fixed program that walks the ring through every doubling (16 -> 32 ->
   64 -> 128) and then wraps its head several times at full size. *)
let sb_growth_program =
  let burst n =
    Transmit (List.init n (fun i -> (0, 100 + (i * 37 mod 900), i mod 2)))
  in
  [ burst 20; Ack (Bound 5); burst 30; Sack [ (Bound 10, Bound 30) ];
    burst 40; Ack (Near (3, 17)); Dupthresh 3; Older_than 0 ]
  @ List.concat
      (List.init 40 (fun i ->
           [ burst 10; Ack (Bound 10);
             Sack [ (Bound 20, Bound 60); (Bound (i + 1), Bound (i + 5)) ];
             Dupthresh 3; Retransmit (Bound 0); Older_than 5 ]))

let test_scoreboard_differential () =
  sb_peak_live := 0;
  Alcotest.(check bool) "growth program" true
    (sb_differential (1_000, sb_growth_program));
  Alcotest.(check bool) "growth program grew the ring to 128" true
    (!sb_peak_live > 64);
  QCheck.Test.check_exn ~rand:(Random.State.make [| 13 |])
    prop_scoreboard_matches_list;
  Alcotest.(check bool) "random programs grew past 64 entries" true
    (!sb_peak_live > 64)

(* --- Scoreboard allocation ------------------------------------------------ *)

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A grown ring in steady state allocates nothing per segment, SACK
   processing included: the blocks are read from the header in place. *)
let test_scoreboard_alloc () =
  let len = 1448 and flight = 90 and cycles = 1_000 in
  let seq i = Seq32.add 0xFFFF_0000 (i * len) in
  let sb = Scoreboard.create () in
  for i = 0 to flight - 1 do
    Scoreboard.on_transmit sb ~seq:(seq i) ~len ~now_ns:i
  done;
  let blocks =
    Array.init (2 * cycles + flight) (fun i ->
        sack_hdr [ (seq (flight + i), seq (flight + i + 1)) ])
  in
  let lost_seen = ref 0 in
  (* Cycle [i]: segment [flight + i] leaves at the tail (and, with [sack],
     is SACKed at once), segment [i] is acked, and the per-ACK scans run. *)
  let cycle ~sack i =
    let fresh = flight + i in
    Scoreboard.on_transmit sb ~seq:(seq fresh) ~len ~now_ns:fresh;
    if sack then ignore (Scoreboard.apply_sacks sb blocks.(i));
    ignore (Scoreboard.ack_to sb ~una:(seq (i + 1)));
    ignore (Scoreboard.mark_lost_dupthresh sb ~dupthresh:3);
    ignore (Scoreboard.mark_lost_older_than sb ~threshold_ns:(-1));
    if Scoreboard.next_lost sb >= 0 then incr lost_seen;
    ignore (Scoreboard.live_lost sb)
  in
  let cycles_words ~sack lo hi =
    minor_words_during (fun () ->
        for i = lo to hi - 1 do
          cycle ~sack i
        done)
  in
  Alcotest.(check (float 0.)) "calibration" 0. (minor_words_during ignore);
  Alcotest.(check (float 0.)) "plain cycles allocate nothing" 0.
    (cycles_words ~sack:false 0 cycles);
  Alcotest.(check int) "nothing lost" 0 !lost_seen;
  (* Warm up the SACK regime: the unsacked flight is marked lost by the
     dupthresh rule and drains; afterwards every live segment is sacked. *)
  ignore (cycles_words ~sack:true cycles (cycles + flight));
  lost_seen := 0;
  Alcotest.(check (float 0.)) "sack cycles allocate nothing" 0.
    (cycles_words ~sack:true (cycles + flight) ((2 * cycles) + flight));
  Alcotest.(check int) "nothing lost in the sacked regime" 0 !lost_seen;
  Alcotest.(check int) "flight kept" flight (Scoreboard.live_segs sb);
  Alcotest.(check int) "flight all sacked" flight (Scoreboard.live_sacked sb)


(* Teardown with data in flight: the sender's path goes dark after the
   handshake, so its RACK-TLP flow probes its unacknowledged tail (the stall
   rewind is pushed out of the way) until dead-flow reaping removes it. The
   torn-down flow must stop probing: its last PTO is cancelled at the reap,
   no probe is counted after it, and no recovery event stays queued — only
   the two slow paths' periodic ticks remain. *)
let test_reaped_rack_flow_stops_probing () =
  let sim = Sim.create () in
  let spec =
    {
      Topology.rate_bps = 1e9;
      delay = Time_ns.us 50;
      capacity_pkts = 1024;
      ecn_threshold = None;
    }
  in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  (* Black-hole a -> b data segments; control segments still pass. *)
  Port.set_deliver net.Topology.a.Topology.uplink (fun pkt ->
      if Bytes.length pkt.Packet.payload > 0 then Packet.release pkt
      else Nic.input net.Topology.b.Topology.nic pkt);
  let mk nic core_base =
    let config =
      {
        Config.default with
        Config.cc = Tas_tcp.Interval_cc.Fixed_rate;
        initial_rate_bps = 1e9;
        control_interval_fixed_ns = Some 1_000_000;
        timeout_intervals = 1000;
        dead_flow_timeout_ns = Some (Time_ns.ms 100);
        recovery_policy = Policy.Rack_tlp;
      }
    in
    let tas = Tas.create sim ~nic ~config () in
    let lt =
      Tas.app tas ~app_cores:[| Core.create sim ~id:core_base () |]
        ~api:Libtas.Sockets
    in
    (tas, Transport.of_libtas lt ~ctx_of_conn:(fun _ -> 0))
  in
  let sender_tas, sender = mk net.Topology.a.Topology.nic 500 in
  let _recv_tas, receiver = mk net.Topology.b.Topology.nic 600 in
  Transport.listen receiver ~port:9002 (fun _ -> Transport.null_handlers);
  let closed = ref false in
  Transport.connect sender
    ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:9002
    (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_connected =
          (fun conn -> ignore (Transport.send conn (Bytes.create 16384)));
        Transport.on_closed = (fun _ -> closed := true);
      });
  let sp = Tas.slow_path sender_tas in
  let reaped () = Tas_core.Slow_path.flows_reaped sp in
  while reaped () = 0 && Sim.step sim do () done;
  (* The reap's own RST and notifications are done within a millisecond;
     the flow's last probe is cancelled, not left to pop later. *)
  Sim.run ~until:(Sim.now sim + Time_ns.ms 1) sim;
  Alcotest.(check int) "only the two control ticks queued after the reap" 2
    (Sim.pending sim);
  Sim.run ~until:(Time_ns.ms 200) sim;
  Alcotest.(check int) "sender flow reaped" 1 (reaped ());
  Alcotest.(check bool) "owner saw the close" true !closed;
  let probes () =
    (Fast_path.rec_stats (Tas.fast_path sender_tas)).Fast_path.rec_tlp_probes
  in
  Alcotest.(check bool) "probes fired while the flow lived" true (probes () > 0);
  let before = probes () in
  Sim.run ~until:(Time_ns.ms 1200) sim;
  Alcotest.(check int) "no probe after the reap" before (probes ());
  Alcotest.(check int) "only the two control ticks stay queued" 2
    (Sim.pending sim)

let suite =
  [
    Alcotest.test_case "policy names round-trip" `Quick test_policy_names;
    Alcotest.test_case "reno dup-ACK decision table" `Quick
      test_reno_decision_table;
    Alcotest.test_case "scoreboard: cumulative trim + karn" `Quick
      test_scoreboard_ack_trim;
    Alcotest.test_case "scoreboard: sack marking + dupthresh" `Quick
      test_scoreboard_sack_and_dupthresh;
    Alcotest.test_case "scoreboard: rack time rule" `Quick
      test_scoreboard_rack_time_rule;
    Alcotest.test_case "sack engine: episode bracket" `Quick
      test_sack_episode_bracket;
    Alcotest.test_case "sack engine: front-hole rule" `Quick
      test_sack_front_hole_rule;
    Alcotest.test_case "rack engine: defaults + delivery clock" `Quick
      test_rack_defaults_and_clock;
    Alcotest.test_case "rack engine: reordering timer" `Quick
      test_rack_reo_timer;
    Alcotest.test_case "state reset invalidates timers" `Quick
      test_state_reset;
    Alcotest.test_case "seed digests: chaos schedules" `Quick
      test_seed_chaos_digests;
    Alcotest.test_case "seed digests: fig. 7 goodputs" `Quick
      test_seed_f7_goodputs;
    Alcotest.test_case "sack goodput >= reno under loss" `Quick
      test_sack_goodput_vs_reno;
    Alcotest.test_case "sack stream integrity under bursty loss" `Quick
      test_sack_stream_integrity;
    Alcotest.test_case "rack stream integrity under bursty loss" `Quick
      test_rack_stream_integrity;
    Alcotest.test_case "tlp repairs tail loss at probe timescale" `Quick
      test_tlp_repairs_tail_loss;
    (* Appended after the older cases so their indices stay stable. *)
    Alcotest.test_case "scoreboard: ring matches the list reference" `Quick
      test_scoreboard_differential;
    Alcotest.test_case "scoreboard: steady state allocates nothing" `Quick
      test_scoreboard_alloc;
    Alcotest.test_case "reaped rack-tlp flow stops probing" `Quick
      test_reaped_rack_flow_stops_probing;
  ]
