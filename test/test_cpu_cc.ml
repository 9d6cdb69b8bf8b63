(* Unit tests for the CPU model, cost profiles, RTT estimation and the
   congestion-control algorithms. *)

module Sim = Tas_engine.Sim
module Core = Tas_cpu.Core
module Cost_model = Tas_cpu.Cost_model
module Rtt = Tas_tcp.Rtt
module Window_cc = Tas_tcp.Window_cc
module Interval_cc = Tas_tcp.Interval_cc

(* --- Core ------------------------------------------------------------------ *)

let test_core_serializes_work () =
  let sim = Sim.create () in
  let core = Core.create sim ~freq_ghz:2.0 ~id:0 () in
  let finish_times = ref [] in
  (* 2000 cycles at 2 GHz = 1000 ns each; three items queue up. *)
  for _ = 1 to 3 do
    Core.run core ~cycles:2000 (fun () ->
        finish_times := Sim.now sim :: !finish_times)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO completion" [ 1000; 2000; 3000 ]
    (List.rev !finish_times);
  Alcotest.(check int) "busy accounting" 3000 (Core.busy_ns core)

let test_core_idle_gap () =
  let sim = Sim.create () in
  let core = Core.create sim ~freq_ghz:1.0 ~id:0 () in
  Core.run core ~cycles:100 ignore;
  ignore
    (Sim.schedule sim 1000 (fun () ->
         Core.run core ~cycles:100 (fun () ->
             Alcotest.(check int) "starts when submitted, not backlogged" 1100
               (Sim.now sim))));
  Sim.run sim;
  Alcotest.(check int) "busy excludes the idle gap" 200 (Core.busy_ns core)

let test_core_run_after () =
  let sim = Sim.create () in
  let core = Core.create sim ~freq_ghz:1.0 ~id:0 () in
  let fired = ref 0 in
  Core.run_after core ~delay:500 ~cycles:100 (fun () -> fired := Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "delay + execution" 600 !fired

let test_backlog () =
  let sim = Sim.create () in
  let core = Core.create sim ~freq_ghz:1.0 ~id:0 () in
  Core.run core ~cycles:5000 ignore;
  Alcotest.(check int) "backlog visible" 5000 (Core.backlog_ns core);
  Sim.run sim;
  Alcotest.(check int) "backlog drains" 0 (Core.backlog_ns core)

(* --- Cost model ------------------------------------------------------------- *)

let test_cache_extra_zero_within_cache () =
  let extra =
    Cost_model.cache_extra_cycles Cost_model.linux ~conns:1000
      ~cache_bytes:Cost_model.l3_cache_bytes
  in
  Alcotest.(check int) "fits in cache: no penalty" 0 extra

let test_cache_extra_monotone () =
  let extra_at conns =
    Cost_model.cache_extra_cycles Cost_model.linux ~conns
      ~cache_bytes:Cost_model.l3_cache_bytes
  in
  Alcotest.(check bool) "grows with conns" true
    (extra_at 32_000 > 0
    && extra_at 96_000 > extra_at 32_000
    && extra_at 96_000 > extra_at 64_000)

let test_tas_state_small () =
  Alcotest.(check int) "paper Table 3 record size" 102
    Tas_core.Flow_state.state_bytes;
  (* 96K flows of TAS state fit in a few cores' L2/L3. *)
  let footprint = 96_000 * Cost_model.tas_fast_path.Cost_model.state_bytes_per_conn in
  Alcotest.(check bool) "96K flows < 5 cores of cache" true
    (footprint < 5 * Cost_model.l23_cache_bytes_per_core)

let test_table1_totals () =
  (* Base (uncached) per-request stack cycles of each profile, against the
     paper's Table 1 (Linux's measured value includes ~6.6kc of stalls that
     our cache model adds back at 32K connections). *)
  let ix = Cost_model.stack_request_cycles Cost_model.ix in
  Alcotest.(check bool)
    (Printf.sprintf "IX ~1.97kc stack (got %d)" ix)
    true
    (ix > 1800 && ix < 2100);
  let linux_base = Cost_model.stack_request_cycles Cost_model.linux in
  let linux_32k =
    linux_base
    + Cost_model.cache_extra_cycles Cost_model.linux ~conns:32_000
        ~cache_bytes:Cost_model.l3_cache_bytes
  in
  Alcotest.(check bool)
    (Printf.sprintf "Linux at 32K conns ~15.7kc stack (got %d)" linux_32k)
    true
    (linux_32k > 14_000 && linux_32k < 17_500)

(* --- RTT estimator ------------------------------------------------------------ *)

let test_rtt_convergence () =
  let rtt = Rtt.create () in
  for _ = 1 to 50 do
    Rtt.sample rtt 100_000
  done;
  Alcotest.(check bool) "srtt converges to sample" true
    (abs (Rtt.srtt_ns rtt - 100_000) < 2_000);
  Alcotest.(check bool) "rto >= srtt" true (Rtt.rto_ns rtt >= Rtt.srtt_ns rtt)

let test_rtt_backoff () =
  let rtt = Rtt.create () in
  Rtt.sample rtt 1_000_000;
  let base = Rtt.rto_ns rtt in
  Rtt.backoff rtt;
  Alcotest.(check int) "doubles" (min 4_000_000_000 (base * 2)) (Rtt.rto_ns rtt);
  Rtt.reset_backoff rtt;
  Alcotest.(check int) "reset" base (Rtt.rto_ns rtt)

let test_rtt_min_clamp () =
  let rtt = Rtt.create () in
  Rtt.sample rtt 1_000;
  Alcotest.(check bool) "clamped to min 1ms" true (Rtt.rto_ns rtt >= 1_000_000)

(* --- Window CC ----------------------------------------------------------------- *)

let test_newreno_slow_start_doubles () =
  let cc = Window_cc.create Window_cc.Newreno ~mss:1000 ~initial_window:10_000 in
  Alcotest.(check bool) "starts in slow start" true (Window_cc.in_slow_start cc);
  Window_cc.on_ack cc ~acked:10_000 ~ecn:false;
  Alcotest.(check int) "cwnd grows by acked in slow start" 20_000
    (Window_cc.cwnd cc)

let test_newreno_fast_retransmit_halves () =
  let cc = Window_cc.create Window_cc.Newreno ~mss:1000 ~initial_window:40_000 in
  Window_cc.on_fast_retransmit cc;
  Alcotest.(check int) "halved" 20_000 (Window_cc.cwnd cc);
  Alcotest.(check bool) "out of slow start" false (Window_cc.in_slow_start cc)

let test_newreno_timeout_collapses () =
  let cc = Window_cc.create Window_cc.Newreno ~mss:1000 ~initial_window:40_000 in
  Window_cc.on_timeout cc;
  Alcotest.(check int) "one segment" 1000 (Window_cc.cwnd cc)

let test_newreno_congestion_avoidance_linear () =
  let cc = Window_cc.create Window_cc.Newreno ~mss:1000 ~initial_window:10_000 in
  Window_cc.on_fast_retransmit cc (* exit slow start at 5000 *);
  let w0 = Window_cc.cwnd cc in
  (* One full window of acks adds ~1 MSS. *)
  Window_cc.on_ack cc ~acked:w0 ~ecn:false;
  Alcotest.(check int) "+1 MSS per window" (w0 + 1000) (Window_cc.cwnd cc)

let test_dctcp_proportional_decrease () =
  let cc = Window_cc.create Window_cc.Dctcp ~mss:1000 ~initial_window:100_000 in
  (* Saturate alpha with fully-marked windows, then expect ~cwnd/2 cuts. *)
  for _ = 1 to 30 do
    Window_cc.on_ack cc ~acked:(Window_cc.cwnd cc) ~ecn:true
  done;
  Alcotest.(check bool)
    (Printf.sprintf "alpha ~1 (got %.2f)" (Window_cc.alpha cc))
    true
    (Window_cc.alpha cc > 0.7);
  let w = Window_cc.cwnd cc in
  Window_cc.on_ack cc ~acked:w ~ecn:true;
  Alcotest.(check bool) "window cut towards half" true
    (Window_cc.cwnd cc <= w)

let test_dctcp_unmarked_grows () =
  let cc = Window_cc.create Window_cc.Dctcp ~mss:1000 ~initial_window:10_000 in
  let w0 = Window_cc.cwnd cc in
  Window_cc.on_ack cc ~acked:10_000 ~ecn:false;
  Alcotest.(check bool) "grows when unmarked" true (Window_cc.cwnd cc > w0);
  Alcotest.(check (float 1e-9)) "alpha stays 0" 0.0 (Window_cc.alpha cc)

(* --- Interval CC (TAS slow path) -------------------------------------------------- *)

let fb ?(acked = 100_000) ?(ecn = 0) ?(frexmit = 0) ?(timeouts = 0)
    ?(rtt = 100_000) ?(interval = 1_000_000) () =
  {
    Interval_cc.acked_bytes = acked;
    ecn_bytes = ecn;
    fast_retransmits = frexmit;
    timeouts;
    rtt_ns = rtt;
    interval_ns = interval;
  }

let rate t =
  match Interval_cc.current t with
  | Interval_cc.Rate_bps r -> r
  | Interval_cc.Window_bytes _ -> Alcotest.fail "expected rate"

let test_dctcp_rate_slow_start () =
  let t =
    Interval_cc.create
      (Interval_cc.Dctcp_rate { step_bps = 10e6 })
      ~initial:(Interval_cc.Rate_bps 100e6)
  in
  (* Achieved matches rate: doubling, uncapped. *)
  ignore (Interval_cc.update t (fb ~acked:12_500_000 ~interval:1_000_000_000 ()));
  Alcotest.(check bool)
    (Printf.sprintf "slow start doubles (got %.0f)" (rate t))
    true
    (abs_float (rate t -. 200e6) < 1e6)

let test_dctcp_rate_cap_at_achieved () =
  let t =
    Interval_cc.create
      (Interval_cc.Dctcp_rate { step_bps = 10e6 })
      ~initial:(Interval_cc.Rate_bps 10e9)
  in
  (* Achieved only 1 Gbps: the cap pulls the rate towards 1.2x achieved. *)
  ignore (Interval_cc.update t (fb ~acked:125_000_000 ~interval:1_000_000_000 ()));
  Alcotest.(check bool)
    (Printf.sprintf "capped near 1.2x achieved (got %.2fG)" (rate t /. 1e9))
    true
    (rate t <= 1.2 *. 1e9 *. 2.0 +. 1e7)

let test_dctcp_rate_ecn_decrease () =
  let t =
    Interval_cc.create
      (Interval_cc.Dctcp_rate { step_bps = 10e6 })
      ~initial:(Interval_cc.Rate_bps 1e9)
  in
  let r0 = rate t in
  ignore
    (Interval_cc.update t
       (fb ~acked:125_000_000 ~ecn:125_000_000 ~interval:1_000_000_000 ()));
  Alcotest.(check bool) "rate decreases under full marking" true (rate t < r0)

let test_dctcp_rate_frexmit_halves () =
  let t =
    Interval_cc.create
      (Interval_cc.Dctcp_rate { step_bps = 10e6 })
      ~initial:(Interval_cc.Rate_bps 1e9)
  in
  ignore
    (Interval_cc.update t
       (fb ~acked:125_000_000 ~frexmit:1 ~interval:1_000_000_000 ()));
  Alcotest.(check bool)
    (Printf.sprintf "halved (got %.2fG)" (rate t /. 1e9))
    true
    (rate t <= 0.51e9)

let test_dctcp_rate_starved_holds () =
  let t =
    Interval_cc.create
      (Interval_cc.Dctcp_rate { step_bps = 10e6 })
      ~initial:(Interval_cc.Rate_bps 1e9)
  in
  ignore (Interval_cc.update t (fb ~acked:0 ()));
  Alcotest.(check (float 1.0)) "no growth without feedback" 1e9 (rate t)

let test_rate_floor () =
  let t =
    Interval_cc.create
      (Interval_cc.Dctcp_rate { step_bps = 10e6 })
      ~initial:(Interval_cc.Rate_bps 2e6)
  in
  for _ = 1 to 20 do
    ignore (Interval_cc.update t (fb ~acked:1000 ~frexmit:1 ()))
  done;
  Alcotest.(check bool) "floor at 1 Mbps" true (rate t >= 1e6)

let test_timely_rtt_gradient () =
  let t =
    Interval_cc.create
      (Interval_cc.Timely
         { t_low_ns = 50_000; t_high_ns = 500_000; addstep_bps = 10e6 })
      ~initial:(Interval_cc.Rate_bps 1e9)
  in
  (* Low RTT: grow. *)
  ignore (Interval_cc.update t (fb ~rtt:20_000 ()));
  Alcotest.(check bool) "grows below t_low" true (rate t >= 1e9);
  (* Very high RTT: multiplicative decrease. *)
  let r0 = rate t in
  ignore (Interval_cc.update t (fb ~rtt:2_000_000 ()));
  Alcotest.(check bool) "cuts above t_high" true (rate t < r0)

let test_window_dctcp_interval () =
  let t =
    Interval_cc.create
      (Interval_cc.Window_dctcp { mss = 1460 })
      ~initial:(Interval_cc.Window_bytes 14_600)
  in
  ignore (Interval_cc.update t (fb ~acked:14_600 ()));
  (match Interval_cc.current t with
  | Interval_cc.Window_bytes w ->
    Alcotest.(check int) "slow start doubles window" 29_200 w
  | _ -> Alcotest.fail "expected window");
  ignore (Interval_cc.update t (fb ~acked:29_200 ~timeouts:1 ()));
  match Interval_cc.current t with
  | Interval_cc.Window_bytes w ->
    Alcotest.(check int) "timeout collapses to 1 MSS" 1460 w
  | _ -> Alcotest.fail "expected window"

let suite =
  [
    Alcotest.test_case "core serializes work" `Quick test_core_serializes_work;
    Alcotest.test_case "core idle gap" `Quick test_core_idle_gap;
    Alcotest.test_case "core run_after" `Quick test_core_run_after;
    Alcotest.test_case "core backlog" `Quick test_backlog;
    Alcotest.test_case "cache: no penalty in cache" `Quick
      test_cache_extra_zero_within_cache;
    Alcotest.test_case "cache: monotone growth" `Quick test_cache_extra_monotone;
    Alcotest.test_case "TAS per-flow state is small" `Quick test_tas_state_small;
    Alcotest.test_case "Table 1 calibration" `Quick test_table1_totals;
    Alcotest.test_case "rtt convergence" `Quick test_rtt_convergence;
    Alcotest.test_case "rtt backoff" `Quick test_rtt_backoff;
    Alcotest.test_case "rtt min clamp" `Quick test_rtt_min_clamp;
    Alcotest.test_case "newreno slow start" `Quick test_newreno_slow_start_doubles;
    Alcotest.test_case "newreno fast retransmit" `Quick
      test_newreno_fast_retransmit_halves;
    Alcotest.test_case "newreno timeout" `Quick test_newreno_timeout_collapses;
    Alcotest.test_case "newreno congestion avoidance" `Quick
      test_newreno_congestion_avoidance_linear;
    Alcotest.test_case "dctcp proportional decrease" `Quick
      test_dctcp_proportional_decrease;
    Alcotest.test_case "dctcp grows unmarked" `Quick test_dctcp_unmarked_grows;
    Alcotest.test_case "rate dctcp slow start" `Quick test_dctcp_rate_slow_start;
    Alcotest.test_case "rate dctcp achieved cap" `Quick
      test_dctcp_rate_cap_at_achieved;
    Alcotest.test_case "rate dctcp ecn decrease" `Quick
      test_dctcp_rate_ecn_decrease;
    Alcotest.test_case "rate dctcp frexmit halves" `Quick
      test_dctcp_rate_frexmit_halves;
    Alcotest.test_case "rate dctcp starvation hold" `Quick
      test_dctcp_rate_starved_holds;
    Alcotest.test_case "rate floor" `Quick test_rate_floor;
    Alcotest.test_case "timely gradient" `Quick test_timely_rtt_gradient;
    Alcotest.test_case "window dctcp interval" `Quick test_window_dctcp_interval;
  ]
