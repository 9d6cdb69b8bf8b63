(* Determinism of the telemetry subsystem: two identically-seeded runs of a
   full TAS stack must export byte-identical metrics JSON
   and identical trace-event streams. This pins down the registry's sorted
   snapshots and the simulation's virtual-time determinism end to end. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Fault = Tas_netsim.Fault
module E = Tas_baseline.Tcp_engine
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Config = Tas_core.Config
module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace

type observation = {
  json : string;
  events : Trace.event list;
  breakdown : (string * int) list;
}

(* One full client/server exchange-heavy run, returning every telemetry
   export. [fault]/[seed] exercise the RNG-dependent paths. *)
let observe ?fault ~seed () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let net = Topology.point_to_point sim ?fault_ab:fault ?fault_ba:fault ~rng
      ~queues_per_nic:8 () in
  let config =
    { Config.default with Config.trace_capacity = Some 4096 }
  in
  let tas = Tas.create sim ~nic:net.Topology.a.Topology.nic ~config () in
  let app_core = Core.create sim ~id:100 () in
  let lt = Tas.app tas ~app_cores:[| app_core |] ~api:Libtas.Sockets in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _sock ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock data -> ignore (Libtas.send sock data));
      });
  let client = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach client;
  for i = 0 to 7 do
    let remaining = ref (20 + i) in
    let cb =
      {
        E.null_callbacks with
        E.on_connected =
          (fun c -> ignore (E.send c (Bytes.make 600 (Char.chr (65 + i)))));
        E.on_receive =
          (fun c d ->
            ignore d;
            decr remaining;
            if !remaining > 0 then
              ignore (E.send c (Bytes.make 600 (Char.chr (65 + i)))));
      }
    in
    ignore
      (E.connect client ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic)
         ~dst_port:7 cb)
  done;
  Sim.run ~until:(Time_ns.ms 80) sim;
  {
    json = Metrics.to_json_string ~pretty:true (Tas.metrics tas);
    events = Trace.drain (Tas.trace tas);
    breakdown =
      List.map
        (fun (cat, ns) -> (Core.category_name cat, ns))
        (Tas.cycle_breakdown tas);
  }

let event =
  Alcotest.testable
    (fun fmt e ->
      Format.fprintf fmt "%d:%s:core%d:flow%d" e.Trace.ts
        (Trace.kind_name e.Trace.kind) e.Trace.core e.Trace.flow)
    ( = )

let check_identical a b =
  Alcotest.(check string) "metrics JSON byte-identical" a.json b.json;
  Alcotest.(check (list event)) "trace event streams identical" a.events
    b.events;
  Alcotest.(check (list (pair string int)))
    "cycle breakdown identical" a.breakdown b.breakdown

let test_same_seed_identical () =
  let a = observe ~seed:7 () in
  let b = observe ~seed:7 () in
  check_identical a b;
  (* Sanity: the run actually produced telemetry worth comparing. *)
  Alcotest.(check bool) "some trace events" true (List.length a.events > 100)

let test_same_seed_identical_with_loss () =
  let a = observe ~fault:(Fault.uniform_loss 0.02) ~seed:11 () in
  let b = observe ~fault:(Fault.uniform_loss 0.02) ~seed:11 () in
  check_identical a b

let test_different_seed_diverges_under_loss () =
  (* Loss draws come from the seeded RNG, so different seeds must yield
     observably different packet counts somewhere in the export. *)
  let a = observe ~fault:(Fault.uniform_loss 0.05) ~seed:1 () in
  let b = observe ~fault:(Fault.uniform_loss 0.05) ~seed:2 () in
  Alcotest.(check bool) "exports differ" true (a.json <> b.json)

(* --- span streams -------------------------------------------------------- *)

module Span = Tas_telemetry.Span
module Diagnostics = Tas_experiments.Diagnostics
module Json = Tas_telemetry.Json

let span_event =
  Alcotest.testable
    (fun fmt e ->
      Format.fprintf fmt "%d:#%d:%s:core%d:flow%d" e.Span.ts e.Span.id
        (Span.hop_name e.Span.hop) e.Span.core e.Span.flow)
    ( = )

let observe_spans () =
  let d = Diagnostics.build () in
  Diagnostics.run d ~duration_ns:(Time_ns.ms 3);
  (Span.drain d.Diagnostics.span, d)

(* Counter-based sampling + virtual-time scheduling: two identically
   parameterized runs must produce byte-identical span event streams. *)
let test_same_seed_identical_spans () =
  let a, da = observe_spans () in
  let b, db = observe_spans () in
  Alcotest.(check (list span_event)) "span streams identical" a b;
  Alcotest.(check bool) "spans actually produced" true
    (Span.started da.Diagnostics.span > 10);
  Alcotest.(check string) "chrome export byte-identical"
    (Json.to_string (Diagnostics.chrome da ~spans:a))
    (Json.to_string (Diagnostics.chrome db ~spans:b))

(* At least one sampled packet must be observed at every crossing point of
   the app-to-app path, and complete spans must exist. *)
let test_span_full_hop_coverage () =
  let events, d = observe_spans () in
  let seen hop = List.exists (fun e -> e.Span.hop = hop) events in
  List.iter
    (fun hop ->
      if not (seen hop) then
        Alcotest.failf "no span event at hop %s" (Span.hop_name hop))
    Span.all_hops;
  let b = Span.breakdown events in
  Alcotest.(check bool) "complete app-to-app spans" true (b.Span.complete > 0);
  Alcotest.(check int) "no ring drops in a short run" 0
    (Span.dropped d.Diagnostics.span);
  (* Per-span segment durations sum exactly to end-to-end latency, so the
     histogram totals must match (mean * count on both sides). *)
  let total h =
    Tas_engine.Stats.Hist.mean h
    *. float_of_int (Tas_engine.Stats.Hist.count h)
  in
  let seg_sum =
    List.fold_left
      (fun acc s -> acc +. total s.Span.seg_hist)
      0.0 b.Span.segments
  in
  let e2e_total = total b.Span.end_to_end in
  Alcotest.(check bool) "hop durations decompose end-to-end latency" true
    (e2e_total > 0.0 && abs_float (seg_sum -. e2e_total) /. e2e_total < 1e-9)

let suite =
  [
    Alcotest.test_case "same seed => identical telemetry" `Quick
      test_same_seed_identical;
    Alcotest.test_case "same seed + loss => identical telemetry" `Quick
      test_same_seed_identical_with_loss;
    Alcotest.test_case "different seed + loss => diverges" `Quick
      test_different_seed_diverges_under_loss;
    Alcotest.test_case "same seed => identical span streams" `Quick
      test_same_seed_identical_spans;
    Alcotest.test_case "spans cover every hop of the path" `Quick
      test_span_full_hop_coverage;
  ]
