(* Unit tests of the telemetry subsystem: registry semantics (closures,
   labels, duplicates, get-or-create), the JSON export and rendering,
   and the bounded trace and span rings, including their per-event
   allocation. *)

module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace
module Span = Tas_telemetry.Span
module Chrome = Tas_telemetry.Chrome
module Json = Tas_telemetry.Json
module Stats = Tas_engine.Stats
module Time_ns = Tas_engine.Time_ns
module Diagnostics = Tas_experiments.Diagnostics

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_counter_fn_reads_through () =
  let m = Metrics.create () in
  let cell = ref 0 in
  Metrics.counter_fn m "requests_total" (fun () -> !cell);
  cell := 41;
  incr cell;
  match Metrics.snapshot m with
  | [ { Metrics.s_name = "requests_total"; s_value = Metrics.Counter 42; _ } ]
    -> ()
  | _ -> Alcotest.fail "expected one counter sample reading 42"

let test_duplicate_raises () =
  let m = Metrics.create () in
  Metrics.counter_fn m "x_total" (fun () -> 0);
  Alcotest.check_raises "duplicate (name, labels)"
    (Invalid_argument "Metrics: duplicate registration of \"x_total\"")
    (fun () -> Metrics.counter_fn m "x_total" (fun () -> 1));
  (* Same name under different labels is a distinct series. *)
  Metrics.counter_fn m ~labels:[ ("core", "0") ] "x_total" (fun () -> 2);
  Alcotest.(check int) "two series" 2 (List.length (Metrics.snapshot m))

let test_label_order_normalized () =
  let m = Metrics.create () in
  Metrics.counter_fn m ~labels:[ ("b", "2"); ("a", "1") ] "y_total" (fun () -> 7);
  (* Registering the same label set in the other order is the same series. *)
  Alcotest.check_raises "label order irrelevant"
    (Invalid_argument "Metrics: duplicate registration of \"y_total\"")
    (fun () ->
      Metrics.counter_fn m ~labels:[ ("a", "1"); ("b", "2") ] "y_total"
        (fun () -> 8));
  match Metrics.snapshot m with
  | [ { Metrics.s_labels = [ ("a", "1"); ("b", "2") ]; _ } ] -> ()
  | _ -> Alcotest.fail "labels not sorted by key in snapshot"

let test_invalid_name_raises () =
  let m = Metrics.create () in
  Alcotest.check_raises "space in name"
    (Invalid_argument "Metrics: invalid metric name \"bad name\"") (fun () ->
      Metrics.gauge_fn m "bad name" (fun () -> 0.0))

let test_hist_get_or_create () =
  let m = Metrics.create () in
  let h1 = Metrics.hist m "latency_us" in
  let h2 = Metrics.hist m "latency_us" in
  Stats.Hist.add h1 10.0;
  Alcotest.(check int) "same histogram instance" 1 (Stats.Hist.count h2)

let test_snapshot_sorted_deterministic () =
  (* Insertion order must not leak into exports. *)
  let build order =
    let m = Metrics.create () in
    List.iter (fun (name, v) -> Metrics.counter_fn m name (fun () -> v)) order;
    Metrics.to_json_string m
  in
  let a = build [ ("zz_total", 1); ("aa_total", 2); ("mm_total", 3) ] in
  let b = build [ ("mm_total", 3); ("zz_total", 1); ("aa_total", 2) ] in
  Alcotest.(check string) "insertion order invisible" a b

let test_json_rendering () =
  let j =
    Json.Obj
      [
        ("int_like", Json.Float 3.0);
        ("frac", Json.Float 0.25);
        ("nan", Json.Float nan);
        ("inf", Json.Float infinity);
        ("s", Json.Str "a\"b\n");
        ("l", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
      ]
  in
  Alcotest.(check string) "compact rendering"
    "{\"int_like\":3.0,\"frac\":0.25,\"nan\":null,\"inf\":null,\
     \"s\":\"a\\\"b\\n\",\"l\":[1,true,null]}"
    (Json.to_string j)

let test_trace_bounded_drop () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.record tr ~ts:i ~kind:Trace.Rx_data ~core:0 ~flow:i
  done;
  Alcotest.(check int) "recorded counts all offers" 10 (Trace.recorded tr);
  Alcotest.(check int) "dropped the overflow" 6 (Trace.dropped tr);
  let events = Trace.drain tr in
  Alcotest.(check (list int)) "oldest events kept, record order" [ 1; 2; 3; 4 ]
    (List.map (fun e -> e.Trace.flow) events);
  Alcotest.(check int) "drain consumes" 0 (List.length (Trace.drain tr))

let test_trace_disabled_noop () =
  let tr = Trace.disabled () in
  Trace.record tr ~ts:1 ~kind:Trace.Conn_setup ~core:0 ~flow:1;
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  Alcotest.(check int) "nothing recorded" 0 (Trace.recorded tr);
  Alcotest.(check int) "nothing buffered" 0 (List.length (Trace.drain tr))

let test_trace_counts_by_kind () =
  let tr = Trace.create ~capacity:16 () in
  List.iter
    (fun k -> Trace.record tr ~ts:0 ~kind:k ~core:0 ~flow:0)
    [ Trace.Rx_data; Trace.Tx_data; Trace.Rx_data; Trace.Conn_setup ];
  let counts = Trace.counts_by_kind (Trace.drain tr) in
  Alcotest.(check (list (pair string int)))
    "kinds in declaration order, zeros omitted"
    [ ("rx_data", 2); ("tx_data", 1); ("conn_setup", 1) ]
    (List.map (fun (k, n) -> (Trace.kind_name k, n)) counts)

(* --- spans --------------------------------------------------------------- *)

(* Record one full-path span and check the analysis reconstructs hop order
   and that segment durations sum to the end-to-end latency. *)
let test_span_roundtrip_hop_order () =
  let sp = Span.create ~enabled:true ~capacity:64 () in
  let id = Span.start sp ~ts:100 ~hop:Span.App_send ~core:0 ~flow:7 in
  Alcotest.(check bool) "sampled" true (id >= 0);
  (* Remaining hops of the path, deliberately with distinct deltas. *)
  let rest = List.tl Span.all_hops in
  List.iteri
    (fun i hop ->
      Span.record sp ~ts:(100 + ((i + 1) * 10)) ~id ~hop ~core:1 ~flow:7)
    rest;
  let events = Span.drain sp in
  Alcotest.(check int) "all events buffered" (List.length Span.all_hops)
    (List.length events);
  (match Span.group events with
  | [ (gid, evs) ] ->
    Alcotest.(check int) "grouped under the span id" id gid;
    Alcotest.(check (list string)) "hops in record (path) order"
      (List.map Span.hop_name Span.all_hops)
      (List.map (fun e -> Span.hop_name e.Span.hop) evs)
  | gs -> Alcotest.failf "expected one span group, got %d" (List.length gs));
  let b = Span.breakdown events in
  Alcotest.(check int) "one span" 1 b.Span.spans;
  Alcotest.(check int) "complete app-to-app" 1 b.Span.complete;
  let seg_sum =
    List.fold_left
      (fun acc s -> acc +. Stats.Hist.mean s.Span.seg_hist)
      0.0 b.Span.segments
  in
  Alcotest.(check (float 1e-6)) "segments sum to end-to-end"
    (Stats.Hist.mean b.Span.end_to_end)
    seg_sum

(* Counter-based sampling: every 4th origin attempt starts a span, with
   fresh ids, independent of timestamps — rerunning the same sequence
   yields the identical decision stream. *)
let test_span_sampling_deterministic () =
  let run () =
    let sp = Span.create ~enabled:true ~sample_every:4 ~capacity:64 () in
    let ids =
      List.init 12 (fun i ->
          Span.start sp ~ts:(1000 * i) ~hop:Span.App_send ~core:0 ~flow:i)
    in
    (ids, Span.offered sp, Span.started sp)
  in
  let ids, offered, started = run () in
  Alcotest.(check int) "offered counts every attempt" 12 offered;
  Alcotest.(check int) "one in four sampled" 3 started;
  Alcotest.(check int) "unsampled attempts return -1" 9
    (List.length (List.filter (fun id -> id = -1) ids));
  let ids', _, _ = run () in
  Alcotest.(check (list int)) "same-seed rerun: identical decisions" ids ids'

let test_span_dropped_accounting () =
  let sp = Span.create ~enabled:true ~capacity:4 () in
  let id = Span.start sp ~ts:0 ~hop:Span.App_send ~core:0 ~flow:0 in
  for i = 1 to 9 do
    Span.record sp ~ts:i ~id ~hop:Span.Fp_rx ~core:0 ~flow:0
  done;
  Alcotest.(check int) "recorded counts all offers" 10 (Span.recorded sp);
  Alcotest.(check int) "overflow dropped, not grown" 6 (Span.dropped sp);
  Alcotest.(check int) "ring holds capacity" 4 (List.length (Span.drain sp));
  Alcotest.(check int) "drain consumes" 0 (Span.length sp)

let test_span_disabled_noop () =
  let sp = Span.disabled () in
  let id = Span.start sp ~ts:0 ~hop:Span.App_send ~core:0 ~flow:0 in
  Alcotest.(check int) "disabled origin: unsampled" (-1) id;
  Span.record sp ~ts:1 ~id:5 ~hop:Span.Fp_rx ~core:0 ~flow:0;
  Alcotest.(check bool) "disabled" false (Span.enabled sp);
  Alcotest.(check int) "no origins counted" 0 (Span.offered sp);
  Alcotest.(check int) "no events" 0 (List.length (Span.drain sp))

(* Chrome trace-event export of spans alone: a JSON object with a
   traceEvents list holding the process name and one complete ("X") slice
   per adjacent hop pair, carrying name/ts/dur/pid/tid, parseable by our
   own renderer (and hence by chrome://tracing). *)
let test_span_chrome_json () =
  let sp = Span.create ~enabled:true ~capacity:64 () in
  let id = Span.start sp ~ts:100 ~hop:Span.App_send ~core:0 ~flow:3 in
  Span.record sp ~ts:400 ~id ~hop:Span.Fp_tx ~core:1 ~flow:3;
  Span.record sp ~ts:900 ~id ~hop:Span.Nic_tx ~core:(-1) ~flow:3;
  let events = Span.drain sp in
  let doc = Chrome.to_json ~spans:events [] in
  (match doc with
  | Json.Obj fields ->
    (match List.assoc_opt "traceEvents" fields with
    | Some (Json.List all) ->
      let slices =
        List.filter (fun e -> Json.member "ph" e <> Some (Json.Str "M")) all
      in
      Alcotest.(check int) "one slice per adjacent hop pair" 2
        (List.length slices);
      List.iter
        (fun slice ->
          match slice with
          | Json.Obj f ->
            List.iter
              (fun key ->
                if not (List.mem_assoc key f) then
                  Alcotest.failf "slice missing %S" key)
              [ "name"; "ph"; "ts"; "dur"; "pid"; "tid" ];
            Alcotest.(check bool) "complete-slice phase" true
              (List.assoc "ph" f = Json.Str "X")
          | _ -> Alcotest.fail "slice is not an object")
        slices
    | _ -> Alcotest.fail "no traceEvents list")
  | _ -> Alcotest.fail "chrome export is not an object");
  (* The rendered string must survive a render->parse sanity check: our
     renderer never emits NaN/Inf and escapes strings, so the output is
     plain ASCII JSON; spot-check framing. *)
  let s = Json.to_string doc in
  Alcotest.(check bool) "object framing" true
    (String.length s > 2 && s.[0] = '{' && s.[String.length s - 1] = '}');
  Alcotest.(check bool) "mentions segment name" true
    (contains s "app_send->fp_tx")

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Every kind and hop survives the ring's integer event code, and keeps
   its name (these names appear in BENCH artifacts and trace files). *)
let test_ring_codes_round_trip () =
  let tr = Trace.create ~capacity:64 () in
  List.iteri
    (fun i kind -> Trace.record tr ~ts:i ~kind ~core:i ~flow:(-i))
    Trace.all_kinds;
  Alcotest.(check bool) "kinds round-trip" true
    (List.map (fun (e : Trace.event) -> e.kind) (Trace.drain tr)
    = Trace.all_kinds);
  Alcotest.(check (list string)) "kind names"
    [
      "rx_data"; "rx_ack"; "tx_data"; "ack_tx"; "ooo_store"; "payload_drop";
      "fast_rexmit"; "timeout_rexmit"; "conn_setup"; "conn_teardown";
      "exception_fwd"; "core_scale"; "fault_drop"; "fault_dup";
      "fault_corrupt"; "fault_hold"; "malformed_drop"; "csum_drop"; "rst_tx";
      "shard_migrate"; "ctl_scale"; "health_rexmit_storm";
      "health_arena_pressure"; "health_shard_imbalance";
      "health_backlog_growth"; "health_ring_drops"; "health_core_flap";
      "rec_enter"; "rec_exit"; "rec_mark_lost"; "rec_retransmit";
      "rec_tlp_probe"; "rec_reo_timeout";
    ]
    (List.map Trace.kind_name Trace.all_kinds);
  let sp = Span.create ~capacity:64 () in
  let id = Span.start sp ~ts:0 ~hop:Span.App_send ~core:0 ~flow:0 in
  List.iteri
    (fun i hop -> Span.record sp ~ts:(i + 1) ~id ~hop ~core:i ~flow:0)
    Span.all_hops;
  Alcotest.(check bool) "hops round-trip" true
    (List.map (fun (e : Span.event) -> e.hop) (Span.drain sp)
    = Span.App_send :: Span.all_hops);
  Alcotest.(check (list string)) "hop names"
    [
      "app_send"; "fp_tx"; "nic_tx"; "port_q"; "port_out"; "switch_fwd";
      "nic_rx"; "fp_rx"; "ctx_notify"; "app_deliver";
    ]
    (List.map Span.hop_name Span.all_hops)

(* Once warm, an enabled ring stores an event as unboxed ints: recording
   allocates nothing, whether the event is kept or dropped because the ring
   is full. 10,000 events overflow both rings, so the drop path is measured
   too. *)
let test_ring_record_allocation () =
  let n = 10_000 in
  let tr = Trace.create ~capacity:4096 () in
  let trace_all () =
    for i = 1 to n do
      Trace.record tr ~ts:i ~kind:Trace.Rx_data ~core:(i land 1) ~flow:i
    done
  in
  trace_all ();
  ignore (Trace.drain tr);
  let words = minor_words_during trace_all in
  Alcotest.(check (float 0.)) "0 words per Trace.record" 0. words;
  Alcotest.(check int) "trace ring keeps its capacity" 4096 (Trace.length tr);
  Alcotest.(check int) "trace overflow counted" (2 * (n - 4096))
    (Trace.dropped tr);
  Alcotest.(check int) "trace offers counted" (2 * n) (Trace.recorded tr);
  let sp = Span.create ~capacity:4096 () in
  (* Every tenth event is an origin, the rest are hops of its span. *)
  let span_all () =
    let id = ref (-1) in
    for i = 1 to n do
      if i mod 10 = 1 then
        id := Span.start sp ~ts:i ~hop:Span.App_send ~core:0 ~flow:i
      else Span.record sp ~ts:i ~id:!id ~hop:Span.Fp_rx ~core:1 ~flow:i
    done
  in
  span_all ();
  ignore (Span.drain sp);
  let words = minor_words_during span_all in
  Alcotest.(check (float 0.)) "0 words per Span.start/record" 0. words;
  Alcotest.(check int) "span ring keeps its capacity" 4096 (Span.length sp);
  Alcotest.(check int) "span overflow counted" (2 * (n - 4096))
    (Span.dropped sp);
  Alcotest.(check int) "span offers counted" (2 * n) (Span.recorded sp)

(* The Chrome document in BENCH_dg.json carries all three event kinds:
   span slices, trace-ring instants and timeline counters. *)
let test_trace_document_phases () =
  let d = Diagnostics.build () in
  Diagnostics.run d ~duration_ns:(Time_ns.ms 1);
  let doc = Diagnostics.chrome d ~spans:(Span.drain d.Diagnostics.span) in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let has ph cat =
    List.exists
      (fun e ->
        Json.member "ph" e = Some (Json.Str ph)
        && (cat = "" || Json.member "cat" e = Some (Json.Str cat)))
      events
  in
  Alcotest.(check bool) "span slices (X)" true (has "X" "tas_span");
  Alcotest.(check bool) "trace instants (i)" true (has "i" "tas_trace");
  Alcotest.(check bool) "timeline counters (C)" true (has "C" "");
  Alcotest.(check bool) "process names (M)" true (has "M" "")

(* The "dg" run keeps every event it records: over its full duration
   neither host's trace ring nor the shared span ring drops one, so the
   Chrome document and the trace counts cover the whole run. *)
let test_diagnostics_run_drops_nothing () =
  let d = Diagnostics.build () in
  Diagnostics.run d ~duration_ns:(Diagnostics.duration_ns ~quick:false);
  List.iter
    (fun (host, tas) ->
      let tr = Tas_core.Tas.trace tas in
      Alcotest.(check bool) (host ^ " trace events recorded") true
        (Trace.recorded tr > 0);
      Alcotest.(check int) (host ^ " trace drops") 0 (Trace.dropped tr))
    [ ("server", d.Diagnostics.server); ("client", d.Diagnostics.client) ];
  Alcotest.(check int) "span drops" 0 (Span.dropped d.Diagnostics.span)

let suite =
  [
    Alcotest.test_case "counter closure reads through" `Quick
      test_counter_fn_reads_through;
    Alcotest.test_case "duplicate registration raises" `Quick
      test_duplicate_raises;
    Alcotest.test_case "label order normalized" `Quick
      test_label_order_normalized;
    Alcotest.test_case "invalid name raises" `Quick test_invalid_name_raises;
    Alcotest.test_case "hist get-or-create" `Quick test_hist_get_or_create;
    Alcotest.test_case "snapshot order deterministic" `Quick
      test_snapshot_sorted_deterministic;
    Alcotest.test_case "json rendering" `Quick test_json_rendering;
    Alcotest.test_case "trace ring bounded + drop count" `Quick
      test_trace_bounded_drop;
    Alcotest.test_case "disabled trace is a no-op" `Quick
      test_trace_disabled_noop;
    Alcotest.test_case "trace counts by kind" `Quick test_trace_counts_by_kind;
    Alcotest.test_case "span round-trip keeps hop order" `Quick
      test_span_roundtrip_hop_order;
    Alcotest.test_case "span sampling deterministic" `Quick
      test_span_sampling_deterministic;
    Alcotest.test_case "span ring drop accounting" `Quick
      test_span_dropped_accounting;
    Alcotest.test_case "disabled span is a no-op" `Quick
      test_span_disabled_noop;
    Alcotest.test_case "chrome trace export well-formed" `Quick
      test_span_chrome_json;
    Alcotest.test_case "ring event codes round-trip" `Quick
      test_ring_codes_round_trip;
    Alcotest.test_case "warm trace and span rings allocate nothing" `Quick
      test_ring_record_allocation;
    Alcotest.test_case "trace document has X, i and C events" `Quick
      test_trace_document_phases;
    Alcotest.test_case "diagnostics run drops no trace or span event" `Quick
      test_diagnostics_run_drops_nothing;
  ]
