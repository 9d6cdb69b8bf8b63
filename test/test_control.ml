(* Elastic core controller tests: policy decision tables at their exact
   thresholds, cooldown and confirmation damping, the SLO core-count
   mapping, controller clamping and actuation accounting, fast-path
   actuation idempotence (no spurious RSS rewrites), flow conservation
   through a controller-driven shrink under live traffic, and the health
   watchdog's core-flap rule. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Nic = Tas_netsim.Nic
module Rss_table = Tas_shard.Rss_table
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Fast_path = Tas_core.Fast_path
module Slow_path = Tas_core.Slow_path
module Flow_table = Tas_core.Flow_table
module Policy = Tas_control.Policy
module Controller = Tas_control.Controller
module Timeline = Tas_telemetry.Timeline
module Health = Tas_telemetry.Health
module E = Tas_baseline.Tcp_engine

(* A signals record with every field defaulted; tests override the few
   inputs a policy actually reads. *)
let signals ?(ts = 0) ?(active = 2) ?(max_cores = 4) ?(idle = 0.5)
    ?(p99 = -1.0) () =
  {
    Policy.s_ts = ts;
    s_active = active;
    s_max_cores = max_cores;
    s_idle_cores = idle;
    s_core_idle = Array.make max_cores 0.0;
    s_sp_backlog_ns = 0;
    s_flows = 0;
    s_arena_occupancy = 0.0;
    s_shard_imbalance = 1.0;
    s_p99_us = p99;
  }

let verdict = Alcotest.testable (Fmt.of_to_string Policy.verdict_name) ( = )

(* --- Paper_threshold ------------------------------------------------------ *)

let test_paper_decision_table () =
  let st = Policy.create_state () in
  let decide ~active ~idle =
    let t, v, _ =
      Policy.decide Policy.paper_default st (signals ~active ~idle ())
    in
    (t, v)
  in
  (* Both thresholds are strict: the boundary values themselves hold. *)
  Alcotest.(check (pair int verdict)) "idle exactly 1.25 holds"
    (3, Policy.Hold) (decide ~active:3 ~idle:1.25);
  Alcotest.(check (pair int verdict)) "idle just above 1.25 shrinks one"
    (2, Policy.Shrink) (decide ~active:3 ~idle:1.2500001);
  Alcotest.(check (pair int verdict)) "idle exactly 0.2 holds"
    (3, Policy.Hold) (decide ~active:3 ~idle:0.2);
  Alcotest.(check (pair int verdict)) "idle just below 0.2 grows one"
    (4, Policy.Grow) (decide ~active:3 ~idle:0.1999999);
  (* Edge guards: never below 1 core, never above the ceiling. *)
  Alcotest.(check (pair int verdict)) "no shrink below 1 core"
    (1, Policy.Hold) (decide ~active:1 ~idle:5.0);
  Alcotest.(check (pair int verdict)) "no grow past max_cores"
    (4, Policy.Hold) (decide ~active:4 ~idle:0.0);
  (* Memoryless: alternating signals alternate the verdict every tick —
     the F15 flap the damped policies exist to remove. *)
  Alcotest.(check (pair int verdict)) "flap down" (2, Policy.Shrink)
    (decide ~active:3 ~idle:2.0);
  Alcotest.(check (pair int verdict)) "flap up" (3, Policy.Grow)
    (decide ~active:2 ~idle:0.1)

(* --- Hysteresis ----------------------------------------------------------- *)

let hyst ~up_cooldown ~down_cooldown ~up_step ~down_confirm =
  Policy.Hysteresis
    {
      up_idle = 0.2;
      down_idle = 1.25;
      up_cooldown_ticks = up_cooldown;
      down_cooldown_ticks = down_cooldown;
      up_step;
      down_confirm_ticks = down_confirm;
    }

let test_hysteresis_grow_step_and_cooldown () =
  let spec = hyst ~up_cooldown:3 ~down_cooldown:10 ~up_step:2 ~down_confirm:3 in
  let st = Policy.create_state () in
  let decide ~active ~idle =
    let t, v, _ = Policy.decide spec st (signals ~active ~idle ()) in
    (t, v)
  in
  (* First grow fires immediately and adds up_step cores. *)
  Alcotest.(check (pair int verdict)) "grow adds up_step" (3, Policy.Grow)
    (decide ~active:1 ~idle:0.0);
  (* A second grow inside the cooldown is denied... *)
  Alcotest.(check (pair int verdict)) "grow denied inside cooldown"
    (3, Policy.Denied_cooldown)
    (decide ~active:3 ~idle:0.0);
  Alcotest.(check (pair int verdict)) "still denied"
    (3, Policy.Denied_cooldown)
    (decide ~active:3 ~idle:0.0);
  (* ...and allowed once the cooldown expires, clamped to the ceiling. *)
  Alcotest.(check (pair int verdict)) "grow resumes, clamped to max"
    (4, Policy.Grow) (decide ~active:3 ~idle:0.0)

let test_hysteresis_shrink_confirm_window () =
  let spec = hyst ~up_cooldown:1 ~down_cooldown:4 ~up_step:1 ~down_confirm:3 in
  let st = Policy.create_state () in
  let decide ~idle =
    let t, v, _ = Policy.decide spec st (signals ~active:4 ~idle ()) in
    (t, v)
  in
  (* Two high-idle ticks only fill the confirmation window. *)
  Alcotest.(check (pair int verdict)) "confirm 1/3" (4, Policy.Held_confirm)
    (decide ~idle:2.0);
  Alcotest.(check (pair int verdict)) "confirm 2/3" (4, Policy.Held_confirm)
    (decide ~idle:2.0);
  (* A dip back into the band resets the streak... *)
  Alcotest.(check (pair int verdict)) "band tick resets streak"
    (4, Policy.Hold) (decide ~idle:0.5);
  Alcotest.(check (pair int verdict)) "confirm restarts at 1/3"
    (4, Policy.Held_confirm) (decide ~idle:2.0);
  Alcotest.(check (pair int verdict)) "confirm 2/3 again"
    (4, Policy.Held_confirm) (decide ~idle:2.0);
  (* ...and only a full streak shrinks. *)
  Alcotest.(check (pair int verdict)) "third consecutive tick shrinks"
    (3, Policy.Shrink) (decide ~idle:2.0);
  (* The next shrink needs both a fresh streak and the cooldown. *)
  Alcotest.(check (pair int verdict)) "streak refills" (4, Policy.Held_confirm)
    (decide ~idle:2.0);
  Alcotest.(check (pair int verdict)) "streak 2/3" (4, Policy.Held_confirm)
    (decide ~idle:2.0);
  Alcotest.(check (pair int verdict)) "cooldown denies the next shrink"
    (4, Policy.Denied_cooldown) (decide ~idle:2.0)

(* --- Slo ------------------------------------------------------------------ *)

let test_slo_target_mapping () =
  let map = Policy.slo_target_cores ~p99_target_us:60.0 ~headroom:0.5 in
  Alcotest.(check int) "p99 unavailable keeps active" 3
    (map ~active:3 ~p99_us:(-1.0));
  Alcotest.(check int) "p99 above target grows" 4 (map ~active:3 ~p99_us:61.0);
  Alcotest.(check int) "p99 at target holds" 3 (map ~active:3 ~p99_us:60.0);
  Alcotest.(check int) "p99 in suppression band holds" 3
    (map ~active:3 ~p99_us:30.0);
  Alcotest.(check int) "p99 below headroom shrinks" 2
    (map ~active:3 ~p99_us:29.9)

let test_slo_flap_suppression () =
  let spec =
    Policy.Slo
      {
        p99_target_us = 60.0;
        headroom = 0.5;
        up_cooldown_ticks = 1;
        down_cooldown_ticks = 2;
        min_idle_to_shrink = 0.8;
        down_confirm_ticks = 2;
      }
  in
  let st = Policy.create_state () in
  let decide ~idle ~p99 =
    let t, v, _ = Policy.decide spec st (signals ~active:3 ~idle ~p99 ()) in
    (t, v)
  in
  (* No latency samples: hold, never shrink blind. *)
  Alcotest.(check (pair int verdict)) "p99 unavailable holds"
    (3, Policy.Hold)
    (decide ~idle:2.0 ~p99:(-1.0));
  (* Inside the [headroom*target, target] band: suppressed. *)
  Alcotest.(check (pair int verdict)) "suppression band holds"
    (3, Policy.Hold) (decide ~idle:2.0 ~p99:45.0);
  (* Low p99 without idle headroom must not shrink. *)
  Alcotest.(check (pair int verdict)) "low p99 but busy cores holds"
    (3, Policy.Hold) (decide ~idle:0.3 ~p99:10.0);
  (* Low p99 + idle: confirmation window, then shrink. *)
  Alcotest.(check (pair int verdict)) "low p99 confirm 1/2"
    (3, Policy.Held_confirm) (decide ~idle:2.0 ~p99:10.0);
  Alcotest.(check (pair int verdict)) "low p99 confirmed shrinks"
    (2, Policy.Shrink) (decide ~idle:2.0 ~p99:10.0);
  (* Above target: grow. *)
  Alcotest.(check (pair int verdict)) "p99 over target grows"
    (4, Policy.Grow) (decide ~idle:0.1 ~p99:90.0)

(* --- Controller ----------------------------------------------------------- *)

let test_controller_clamps_and_audits () =
  let actuations = ref [] in
  let ctl =
    Controller.create ~policy:Policy.paper_default ~min_cores:2 ~max_cores:3
      ~actuate:(fun n -> actuations := n :: !actuations)
      ()
  in
  Alcotest.(check int) "target starts at min_cores" 2
    (Controller.target_cores ctl);
  (* Grow within bounds actuates. *)
  let d =
    Controller.tick ctl (signals ~active:2 ~max_cores:3 ~idle:0.0 ())
  in
  Alcotest.(check verdict) "grow recorded" Policy.Grow d.Policy.d_verdict;
  Alcotest.(check (list int)) "actuated to 3" [ 3 ] !actuations;
  (* A shrink proposal below min_cores is clamped back to a no-op Hold:
     no actuation, no scale_downs count. *)
  let d =
    Controller.tick ctl (signals ~active:2 ~max_cores:3 ~idle:5.0 ())
  in
  Alcotest.(check verdict) "clamped shrink demoted to hold" Policy.Hold
    d.Policy.d_verdict;
  Alcotest.(check (list int)) "no extra actuation" [ 3 ] !actuations;
  Alcotest.(check int) "one scale-up counted" 1 (Controller.scale_ups ctl);
  Alcotest.(check int) "no scale-down counted" 0 (Controller.scale_downs ctl);
  Alcotest.(check int) "two ticks counted" 2 (Controller.ticks ctl);
  Alcotest.(check int) "two decisions in history" 2
    (List.length (Controller.decisions ctl));
  (* Invalid bounds are rejected at construction. *)
  Alcotest.check_raises "min_cores < 1 rejected"
    (Invalid_argument "Controller.create: need 1 <= min_cores <= max_cores")
    (fun () ->
      ignore
        (Controller.create ~min_cores:0 ~max_cores:2 ~actuate:ignore ()))

let test_controller_history_bounded () =
  let ctl = Controller.create ~min_cores:1 ~max_cores:2 ~actuate:ignore () in
  for i = 1 to 262 do
    ignore (Controller.tick ctl (signals ~ts:i ~active:1 ~idle:0.5 ()))
  done;
  let ds = Controller.decisions ctl in
  Alcotest.(check int) "history capped" 256 (List.length ds);
  Alcotest.(check int) "oldest dropped"
    7 (List.hd ds).Policy.d_ts

(* --- Fast-path actuation idempotence -------------------------------------- *)

let make_tas ?(config = Config.default) () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let tas = Tas.create sim ~nic:net.Topology.a.Topology.nic ~config () in
  (sim, net, tas)

let test_set_active_cores_idempotent () =
  (* Raw fast path: the table starts spread over all queues, so the very
     first actuation must sync it even when the core count is unchanged. *)
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let nic = net.Topology.a.Topology.nic in
  let cores = Array.init 4 (fun i -> Core.create sim ~id:i ()) in
  let fp = Fast_path.create sim ~nic ~cores ~config:Config.default in
  let rss = Nic.rss nic in
  let r0 = Rss_table.rewrites rss in
  Fast_path.set_active_cores fp (Fast_path.active_cores fp);
  Alcotest.(check int) "first call syncs the table" (r0 + 1)
    (Rss_table.rewrites rss);
  (* Repeating the same target is a no-op. *)
  Fast_path.set_active_cores fp (Fast_path.active_cores fp);
  Fast_path.set_active_cores fp (Fast_path.active_cores fp);
  Alcotest.(check int) "unchanged target rewrites nothing" (r0 + 1)
    (Rss_table.rewrites rss);
  (* A changed target rewrites exactly once, then goes quiet again. *)
  Fast_path.set_active_cores fp 2;
  Fast_path.set_active_cores fp 2;
  Alcotest.(check int) "changed target rewrites once" (r0 + 2)
    (Rss_table.rewrites rss);
  Alcotest.(check int) "active follows" 2 (Fast_path.active_cores fp);
  (* Out-of-range requests clamp instead of raising. *)
  Fast_path.set_active_cores fp 0;
  Alcotest.(check int) "clamped to 1 core" 1 (Fast_path.active_cores fp);
  Fast_path.set_active_cores fp 99;
  Alcotest.(check int) "clamped to the queue count" 4
    (Fast_path.active_cores fp);
  (* Through Tas.create the init actuation has already synced the table:
     repeated controller ticks at an unchanged target stay silent. *)
  let _, net2, tas = make_tas () in
  let rss2 = Nic.rss net2.Topology.a.Topology.nic in
  let fp2 = Tas.fast_path tas in
  let r2 = Rss_table.rewrites rss2 in
  Alcotest.(check bool) "create performed the initial sync" true (r2 >= 1);
  Fast_path.set_active_cores fp2 (Fast_path.active_cores fp2);
  Alcotest.(check int) "post-create unchanged target is silent" r2
    (Rss_table.rewrites rss2)

(* --- Controller-driven shrink under live traffic --------------------------- *)

let test_controller_shrink_conserves_flows () =
  (* The dynamic-scaling path end to end: saturating load grows the core
     count through the controller; quiescing shrinks it back to 1, which
     must drain-in-place migrate every live flow without losing any. *)
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = 4;
      autoscale =
        Some
          {
            Config.policy = Tas_control.Policy.paper_default;
            check_interval_ns = Time_ns.ms 5;
          };
      fp_rx_cycles = 20_000;
      fp_tx_cycles = 10_000;
      fp_ack_rx_cycles = 5_000;
    }
  in
  let sim, net, tas = make_tas ~config () in
  let app_core = Core.create sim ~id:100 () in
  let lt = Tas.app tas ~app_cores:[| app_core |] ~api:Libtas.Sockets in
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  Alcotest.(check bool) "controller wired when autoscale is set" true
    (Option.is_some (Slow_path.controller (Tas.slow_path tas)));
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun s d -> ignore (Libtas.send s d));
      });
  let stop = ref false in
  let n_conns = 32 in
  for _ = 1 to n_conns do
    let cb =
      {
        E.null_callbacks with
        E.on_connected = (fun c -> ignore (E.send c (Bytes.make 64 'x')));
        E.on_receive =
          (fun c _ -> if not !stop then ignore (E.send c (Bytes.make 64 'x')));
      }
    in
    ignore
      (E.connect peer ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
         cb)
  done;
  Sim.run ~until:(Time_ns.ms 100) sim;
  let fp = Tas.fast_path tas in
  let ft = Fast_path.flows fp in
  Alcotest.(check bool) "scaled up under load" true
    (Fast_path.active_cores fp >= 2);
  Alcotest.(check int) "all connections installed" n_conns
    (Flow_table.count ft);
  (* Quiesce; the controller must shrink back and migrate the flows. *)
  stop := true;
  Sim.run ~until:(Sim.now sim + Time_ns.ms 200) sim;
  Alcotest.(check int) "controller shrank to 1 core" 1
    (Fast_path.active_cores fp);
  Alcotest.(check int) "no flow lost across migrations" n_conns
    (Flow_table.count ft);
  Alcotest.(check int) "all flows drained onto shard 0" n_conns
    (Flow_table.shard_count ft 0);
  Alcotest.(check bool) "migration actually moved flows" true
    (Flow_table.migrated_flows ft > 0);
  let ctl = Option.get (Slow_path.controller (Tas.slow_path tas)) in
  Alcotest.(check bool) "controller counted the scale-ups" true
    (Controller.scale_ups ctl >= 1);
  Alcotest.(check bool) "controller counted the scale-downs" true
    (Controller.scale_downs ctl >= 1)

(* --- Health core-flap rule ------------------------------------------------ *)

let frame ~seq ~cores =
  {
    Timeline.seq;
    ts = seq * 1_000_000;
    counters = [];
    gauges = [ ("fp_active_cores", [], float_of_int cores) ];
    cores = [];
    shard_flows = [||];
    arena = None;
  }

let flap_count frames =
  let r = Health.check frames in
  List.length
    (List.filter (fun v -> v.Health.v_rule = Health.Core_flap) r.Health.violations)

let test_health_core_flap_rule () =
  let mk counts = List.mapi (fun seq c -> frame ~seq ~cores:c) counts in
  (* A monotonic ramp up and back down has one reversal: silent. *)
  Alcotest.(check int) "ramp up/down never fires" 0
    (flap_count (mk [ 1; 2; 3; 4; 4; 4; 3; 2; 1; 1; 1; 1; 1; 1; 1; 1 ]));
  (* A constant series is silent. *)
  Alcotest.(check int) "steady state never fires" 0
    (flap_count (mk (List.init 32 (fun _ -> 3))));
  (* Oscillation fires, and the window reset makes one episode fire once. *)
  let oscillating = mk [ 2; 3; 2; 3; 2; 3; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2 ] in
  Alcotest.(check int) "oscillation fires exactly once" 1
    (flap_count oscillating);
  (* Frames without the gauge must not synthesize phantom transitions. *)
  let no_gauge =
    List.init 32 (fun seq ->
        { (frame ~seq ~cores:0) with Timeline.gauges = [] })
  in
  Alcotest.(check int) "gauge-less frames are ignored" 0 (flap_count no_gauge)

let suite =
  [
    Alcotest.test_case "paper threshold decision table" `Quick
      test_paper_decision_table;
    Alcotest.test_case "hysteresis grow step + cooldown" `Quick
      test_hysteresis_grow_step_and_cooldown;
    Alcotest.test_case "hysteresis shrink confirm window" `Quick
      test_hysteresis_shrink_confirm_window;
    Alcotest.test_case "slo target-core mapping" `Quick test_slo_target_mapping;
    Alcotest.test_case "slo flap suppression" `Quick test_slo_flap_suppression;
    Alcotest.test_case "controller clamps + audits" `Quick
      test_controller_clamps_and_audits;
    Alcotest.test_case "controller history bounded" `Quick
      test_controller_history_bounded;
    Alcotest.test_case "set_active_cores idempotent" `Quick
      test_set_active_cores_idempotent;
    Alcotest.test_case "controller shrink conserves flows" `Slow
      test_controller_shrink_conserves_flows;
    Alcotest.test_case "health core-flap rule" `Quick
      test_health_core_flap_rule;
  ]
