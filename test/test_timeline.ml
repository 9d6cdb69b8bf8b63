(* Unit tests of the timeline flight recorder and the health watchdog:
   ring bounding/wraparound, JSON round-trips, merge stability, every
   watchdog rule firing (and staying silent) on synthetic frames, the
   Chrome counter export shape, exact histogram merging from raw buckets,
   and same-seed / serial-vs-parallel timeline determinism on the
   diagnostics scenario. *)

module Timeline = Tas_telemetry.Timeline
module Health = Tas_telemetry.Health
module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace
module Json = Tas_telemetry.Json
module Chrome = Tas_telemetry.Chrome
module Stats = Tas_engine.Stats
module Diagnostics = Tas_experiments.Diagnostics
module Tas = Tas_core.Tas

(* A recorder over a live registry: one counter cell, one gauge cell, one
   synthetic core probe, shard + arena probes. *)
let make_recorded () =
  let m = Metrics.create () in
  let pkts = ref 0 and depth = ref 0.0 in
  Metrics.counter_fn m "pkts_total" (fun () -> !pkts);
  Metrics.gauge_fn m "queue_depth" (fun () -> !depth);
  let tl = Timeline.create ~interval_ns:1000 ~capacity:8 ~metrics:m () in
  let busy = ref [||] in
  Timeline.add_core tl ~role:"fp" ~id:0
    ~busy_in:(fun b -> if b < Array.length !busy then !busy.(b) else 0)
    ~backlog:(fun () -> 42);
  Timeline.set_shard_probe tl (fun () -> [| 3; 1 |]);
  Timeline.set_arena_probe tl (fun () -> Some (5, 16));
  (tl, pkts, depth, busy)

let test_capture_deltas_and_probes () =
  let tl, pkts, depth, busy = make_recorded () in
  pkts := 10;
  depth := 2.5;
  busy := [| 600 |];
  Timeline.capture tl ~ts:1000;
  pkts := 25;
  Timeline.capture tl ~ts:2000;
  match Timeline.frames tl with
  | [ f1; f2 ] ->
    Alcotest.(check int) "first delta" 10
      (match f1.Timeline.counters with [ (_, _, d) ] -> d | _ -> -1);
    Alcotest.(check int) "second delta" 15
      (match f2.Timeline.counters with [ (_, _, d) ] -> d | _ -> -1);
    (match f1.Timeline.cores with
    | [ c ] ->
      Alcotest.(check string) "role" "fp" c.Timeline.c_role;
      Alcotest.(check int) "busy ns in bucket 0" 600 c.Timeline.c_busy_ns;
      Alcotest.(check (float 1e-9)) "util" 0.6 c.Timeline.c_util;
      Alcotest.(check int) "backlog" 42 c.Timeline.c_backlog_ns
    | _ -> Alcotest.fail "expected one core sample");
    Alcotest.(check (array int)) "shards" [| 3; 1 |] f1.Timeline.shard_flows;
    Alcotest.(check bool) "arena probed" true (f1.Timeline.arena = Some (5, 16))
  | fs -> Alcotest.failf "expected 2 frames, got %d" (List.length fs)

let test_ring_wraparound () =
  let m = Metrics.create () in
  let tl = Timeline.create ~interval_ns:1000 ~capacity:4 ~metrics:m () in
  for i = 1 to 7 do
    Timeline.capture tl ~ts:(i * 1000)
  done;
  Alcotest.(check int) "length bounded" 4 (Timeline.length tl);
  Alcotest.(check int) "captured" 7 (Timeline.captured tl);
  Alcotest.(check int) "evicted" 3 (Timeline.evicted tl);
  let seqs = List.map (fun f -> f.Timeline.seq) (Timeline.frames tl) in
  Alcotest.(check (list int)) "oldest dropped, order kept" [ 3; 4; 5; 6 ] seqs;
  let ts = List.map (fun f -> f.Timeline.ts) (Timeline.frames tl) in
  Alcotest.(check (list int)) "timestamps" [ 4000; 5000; 6000; 7000 ] ts

let test_json_roundtrip () =
  let tl, pkts, depth, busy = make_recorded () in
  pkts := 3;
  depth := 1.25;
  busy := [| 100; 900 |];
  Timeline.capture tl ~ts:1000;
  pkts := 9;
  Timeline.capture tl ~ts:2000;
  let doc = Timeline.to_json tl in
  (* Serialize, reparse, and re-extract: frames survive byte-identically. *)
  let reparsed = Json.of_string (Json.to_string doc) in
  let back = Timeline.frames_of_json reparsed in
  let render fs =
    Json.to_string (Json.List (List.map Timeline.frame_to_json fs))
  in
  Alcotest.(check string) "frames round-trip" (render (Timeline.frames tl))
    (render back);
  (* frames_of_json also accepts the bare frames list. *)
  match Json.member "frames" reparsed with
  | Some l ->
    Alcotest.(check int) "bare list accepted" 2
      (List.length (Timeline.frames_of_json l))
  | None -> Alcotest.fail "to_json lost the frames member"

let mk_frame ?(seq = 0) ?(ts = 1000) ?(counters = []) ?(gauges = [])
    ?(cores = []) ?(shard_flows = [||]) ?arena () =
  { Timeline.seq; ts; counters; gauges; cores; shard_flows; arena }

let test_merge_stable () =
  let a = [ mk_frame ~seq:1 ~ts:1000 (); mk_frame ~seq:2 ~ts:3000 () ] in
  let b = [ mk_frame ~seq:10 ~ts:1000 (); mk_frame ~seq:11 ~ts:2000 () ] in
  let merged = Timeline.merge [ a; b ] in
  Alcotest.(check (list int)) "ts-ordered, stable on ties" [ 1; 10; 11; 2 ]
    (List.map (fun f -> f.Timeline.seq) merged)

(* --- watchdog rules ------------------------------------------------------ *)

let sp_core backlog =
  {
    Timeline.c_role = "sp";
    c_id = 100;
    c_busy_ns = 0;
    c_util = 0.0;
    c_backlog_ns = backlog;
  }

let fired report rule =
  List.exists (fun v -> v.Health.v_rule = rule) report.Health.violations

let test_rule_rexmit_storm () =
  let quiet =
    mk_frame ~counters:[ ("fp_fast_retransmits", [], 7) ] ()
  in
  let storm =
    mk_frame ~ts:2000
      ~counters:
        [ ("fp_fast_retransmits", [], 5); ("sp_timeout_retransmits", [], 4) ]
      ()
  in
  let r = Health.check [ quiet; storm ] in
  Alcotest.(check bool) "fires on 9" true (fired r Health.Rexmit_storm);
  Alcotest.(check int) "once" 1 (List.length r.Health.violations);
  Alcotest.(check bool) "quiet frame passes alone" true
    (Health.check [ quiet ]).Health.passed

let test_rule_arena_pressure () =
  let ok = mk_frame ~arena:(8, 16) () in
  let hot = mk_frame ~ts:2000 ~arena:(15, 16) () in
  let r = Health.check [ ok; hot ] in
  Alcotest.(check bool) "fires at 15/16" true (fired r Health.Arena_pressure);
  Alcotest.(check int) "once" 1 (List.length r.Health.violations)

let test_rule_shard_imbalance () =
  let skewed = mk_frame ~shard_flows:[| 30; 2; 2; 2 |] () in
  let even = mk_frame ~ts:2000 ~shard_flows:[| 10; 10; 10; 6 |] () in
  let tiny = mk_frame ~ts:3000 ~shard_flows:[| 5; 0; 0; 0 |] () in
  let r = Health.check [ skewed; even; tiny ] in
  Alcotest.(check bool) "fires on skew" true (fired r Health.Shard_imbalance);
  (* [tiny] is just as skewed but under the minimum population. *)
  Alcotest.(check int) "small populations exempt" 1
    (List.length r.Health.violations)

let test_rule_backlog_growth () =
  let growth =
    [
      mk_frame ~ts:1000 ~cores:[ sp_core 400_000 ] ();
      mk_frame ~ts:2000 ~cores:[ sp_core 800_000 ] ();
      mk_frame ~ts:3000 ~cores:[ sp_core 1_500_000 ] ();
    ]
  in
  let r = Health.check growth in
  Alcotest.(check bool) "fires on 3-frame growth" true
    (fired r Health.Backlog_growth);
  (* Same shape but ending under the floor: silent. *)
  let small =
    [
      mk_frame ~ts:1000 ~cores:[ sp_core 100 ] ();
      mk_frame ~ts:2000 ~cores:[ sp_core 200 ] ();
      mk_frame ~ts:3000 ~cores:[ sp_core 300 ] ();
    ]
  in
  Alcotest.(check bool) "small backlog passes" true
    (Health.check small).Health.passed;
  (* Non-monotone growth: silent. *)
  let wobble =
    [
      mk_frame ~ts:1000 ~cores:[ sp_core 400_000 ] ();
      mk_frame ~ts:2000 ~cores:[ sp_core 300_000 ] ();
      mk_frame ~ts:3000 ~cores:[ sp_core 1_500_000 ] ();
    ]
  in
  Alcotest.(check bool) "wobble passes" true (Health.check wobble).Health.passed

let test_rule_ring_drops_and_trace () =
  let drop = mk_frame ~counters:[ ("span_dropped_events", [], 2) ] () in
  let trace = Trace.create ~capacity:64 () in
  let r = Health.check ~trace [ drop ] in
  Alcotest.(check bool) "fires on drops" true (fired r Health.Ring_drops);
  (* The violation is mirrored as a structured Health_* trace event. *)
  match Trace.drain trace with
  | [ e ] ->
    Alcotest.(check string) "trace kind" "health_ring_drops"
      (Trace.kind_name e.Trace.kind);
    Alcotest.(check int) "at frame ts" 1000 e.Trace.ts
  | es -> Alcotest.failf "expected 1 trace event, got %d" (List.length es)

let test_report_json () =
  let storm = mk_frame ~counters:[ ("fp_fast_retransmits", [], 20) ] () in
  let r = Health.check [ storm ] in
  let j = Json.to_string (Health.report_to_json r) in
  Alcotest.(check bool) "marks failure" true
    (Json.member "passed" (Health.report_to_json r) = Some (Json.Bool false));
  Alcotest.(check bool) "names the rule" true
    (let rec contains i =
       i + 12 <= String.length j
       && (String.sub j i 12 = "rexmit_storm" || contains (i + 1))
     in
     contains 0)

(* --- Chrome counter export ----------------------------------------------- *)

let test_chrome_counters_shape () =
  let tl, pkts, _, busy = make_recorded () in
  pkts := 1;
  busy := [| 250 |];
  Timeline.capture tl ~ts:1000;
  (* Counters only, as [tas_run timeline --chrome] writes them: the second
     host is process 2. *)
  let host name frames = { Chrome.name; events = []; frames } in
  let doc =
    Chrome.to_json [ host "idle" []; host "x" (Timeline.frames tl) ]
  in
  let all =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let phase p e = Json.member "ph" e = Some (Json.Str p) in
  let events = List.filter (phase "C") all in
  Alcotest.(check bool) "has events" true (events <> []);
  Alcotest.(check int) "only names and counters" (List.length all)
    (List.length events + List.length (List.filter (phase "M") all));
  Alcotest.(check bool) "process named" true
    (List.exists
       (fun e ->
         phase "M" e
         && Json.member "pid" e = Some (Json.Int 2)
         && Json.member "args" e = Some (Json.Obj [ ("name", Json.Str "x") ]))
       all);
  List.iter
    (fun e ->
      Alcotest.(check bool) "pid" true (Json.member "pid" e = Some (Json.Int 2));
      match Json.member "ts" e with
      | Some ts ->
        Alcotest.(check (float 1e-9)) "ts in us" 1.0
          (Option.get (Json.to_float_opt ts))
      | None -> Alcotest.fail "no ts")
    events;
  (* One util series for the registered core, plus shard + arena series. *)
  let names =
    List.filter_map (fun e -> Json.member "name" e) events
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "three series" 3 (List.length names)

(* --- exact histogram merge from raw buckets ------------------------------ *)

let test_hist_merge_exact () =
  let values_a = [ 3.0; 17.0; 120.0; 120.0; 4096.0 ] in
  let values_b = [ 1.0; 17.0; 90.0; 2.0e6 ] in
  let reg values =
    let m = Metrics.create () in
    let h = Metrics.hist m "lat_us" in
    List.iter (Stats.Hist.add h) values;
    Metrics.snapshot m
  in
  let merged = Metrics.merge [ reg values_a; reg values_b ] in
  let direct = Stats.Hist.create () in
  List.iter (Stats.Hist.add direct) (values_a @ values_b);
  match merged with
  | [ { Metrics.s_value = Metrics.Hist h; _ } ] ->
    Alcotest.(check int) "count" 9 h.Metrics.count;
    (* The raw buckets travel with the summary, so merged quantiles equal
       the single-histogram quantiles exactly — not approximately. *)
    List.iter
      (fun p ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "p%g exact" p)
          (Stats.Hist.percentile direct p)
          (Metrics.quantile h p))
      [ 50.0; 90.0; 99.0; 99.9 ];
    Alcotest.(check (float 0.0)) "max exact" (Stats.Hist.max_v direct)
      h.Metrics.max_v
  | _ -> Alcotest.fail "expected one merged hist sample"

let test_quantile_points () =
  Alcotest.(check bool) "p99.9 is a quantile point" true
    (List.mem 99.9 Metrics.quantile_points);
  let m = Metrics.create () in
  let h = Metrics.hist m "lat" in
  for i = 1 to 1000 do
    Stats.Hist.add h (float_of_int i)
  done;
  match Metrics.snapshot m with
  | [ ({ Metrics.s_value = Metrics.Hist s; _ } as sample) ] ->
    Alcotest.(check int) "four points" 4 (List.length s.Metrics.quantiles);
    let j = Json.to_string (Metrics.sample_to_json sample) in
    let contains needle =
      let ln = String.length needle and lh = String.length j in
      let rec go i = i + ln <= lh && (String.sub j i ln = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "p999 key" true (contains "\"p999\"");
    Alcotest.(check bool) "raw buckets exported" true (contains "\"buckets\"")
  | _ -> Alcotest.fail "expected one hist sample"

(* --- determinism on the real scenario ------------------------------------ *)

let diag_timeline_bytes duration_ms =
  let d = Diagnostics.build () in
  Diagnostics.run d ~duration_ns:(Tas_engine.Time_ns.ms duration_ms);
  match Tas.timeline d.Diagnostics.server with
  | Some tl -> Json.to_string (Timeline.to_json tl)
  | None -> Alcotest.fail "diagnostics recorded no timeline"

let test_same_seed_identical () =
  Alcotest.(check bool) "byte-identical timelines" true
    (String.equal (diag_timeline_bytes 5) (diag_timeline_bytes 5))

let test_parallel_matches_serial () =
  let idx = Array.init 4 (fun i -> 4 + i) in
  let serial = Array.map diag_timeline_bytes idx in
  let parallel =
    Tas_parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
        Tas_parallel.Domain_pool.map pool ~f:diag_timeline_bytes idx)
  in
  Alcotest.(check bool) "4 members identical across -j4" true
    (serial = parallel)

let suite =
  [
    Alcotest.test_case "capture: deltas, gauges, probes" `Quick
      test_capture_deltas_and_probes;
    Alcotest.test_case "ring wraparound bounds memory" `Quick
      test_ring_wraparound;
    Alcotest.test_case "timeline JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "merge is ts-ordered and stable" `Quick
      test_merge_stable;
    Alcotest.test_case "rule: retransmit storm" `Quick test_rule_rexmit_storm;
    Alcotest.test_case "rule: arena pressure" `Quick test_rule_arena_pressure;
    Alcotest.test_case "rule: shard imbalance" `Quick
      test_rule_shard_imbalance;
    Alcotest.test_case "rule: backlog growth" `Quick test_rule_backlog_growth;
    Alcotest.test_case "rule: ring drops + trace mirror" `Quick
      test_rule_ring_drops_and_trace;
    Alcotest.test_case "health report JSON" `Quick test_report_json;
    Alcotest.test_case "chrome counter export shape" `Quick
      test_chrome_counters_shape;
    Alcotest.test_case "hist merge exact from buckets" `Quick
      test_hist_merge_exact;
    Alcotest.test_case "p999 quantile point exported" `Quick
      test_quantile_points;
    Alcotest.test_case "same-seed timeline byte-identical" `Quick
      test_same_seed_identical;
    Alcotest.test_case "serial vs -j4 timelines identical" `Slow
      test_parallel_matches_serial;
  ]
