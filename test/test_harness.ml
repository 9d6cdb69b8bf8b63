(* Tests of the experiment harness itself: registry completeness, report
   rendering, measurement windows, experiment gates, and wire-format
   fuzzing. *)

module Registry = Tas_experiments.Registry
module Report = Tas_experiments.Report
module Scenario = Tas_experiments.Scenario
module Sim = Tas_engine.Sim
module Packet = Tas_proto.Packet

let test_registry_covers_evaluation () =
  (* Every table and figure of §5 must be present. *)
  let required =
    [ "t1"; "t2"; "t4"; "t6"; "t7"; "f4"; "f5"; "f6"; "f7"; "f8"; "f9";
      "f10"; "f11"; "f12"; "f13"; "f14"; "f15" ]
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) ("registry has " ^ id) true
        (Registry.find id <> None))
    required;
  (* Lookup is case-insensitive and rejects unknowns. *)
  Alcotest.(check bool) "case-insensitive" true (Registry.find "F4" <> None);
  Alcotest.(check bool) "unknown id" true (Registry.find "zz" = None)

let test_registry_ids_unique () =
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  Alcotest.(check int) "no duplicate ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_report_table_renders () =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Report.table fmt ~header:[ "a"; "long-header"; "c" ]
    ~rows:[ [ "1"; "2"; "3" ]; [ "wide-cell"; "x"; "y" ] ];
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "header present" true
    (String.length out > 0
    &&
    let re = Str.regexp_string "long-header" in
    (try ignore (Str.search_forward re out 0); true with Not_found -> false))

let test_measure_rate () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.periodic sim 1000 (fun () -> incr count);
  (* 1 event per us -> 1e6 events/sec. *)
  let rate =
    Scenario.measure_rate sim ~warmup:100_000 ~measure:1_000_000 (fun () ->
        !count)
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate ~1e6 (got %.0f)" rate)
    true
    (abs_float (rate -. 1e6) < 1e4)

let temp_dir tag =
  let d = Filename.temp_file tag "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* Run [entries] in quick mode into a fresh bench dir; returns the dir and
   the failing gates. The run happens on a fresh domain: a pool's caller
   runs jobs too, and the per-domain buffer pool those jobs warm would
   otherwise change what later tests on the main domain allocate. *)
let run_quick_in_temp ?(jobs = 1) entries =
  let dir = temp_dir "tas_gates" in
  Tas_experiments.Run_opts.set_bench_dir dir;
  let failed =
    Fun.protect
      ~finally:(fun () -> Tas_experiments.Run_opts.set_bench_dir ".")
      (fun () ->
        Domain.join
          (Domain.spawn (fun () ->
               Test_parallel.with_run_pool ~jobs (fun () ->
                   Registry.run_selection ~quick:true entries
                     (Format.make_formatter (fun _ _ _ -> ()) ignore)))))
  in
  (dir, failed)

(* The gated experiments pass their gates in quick mode, and each one
   writes at least one gate into its artifact. *)
let test_experiment_gates_pass () =
  let module J = Tas_telemetry.Json in
  let ids = [ "ch"; "sh"; "tl"; "el"; "wan" ] in
  let dir, failed =
    run_quick_in_temp ~jobs:2 (List.filter_map Registry.find ids)
  in
  List.iter
    (fun ((e : Registry.entry), (g : Report.gate)) ->
      Alcotest.failf "gate %s.%s failed: observed %s; expected %s" e.id g.name
        g.observed g.expected)
    failed;
  List.iter
    (fun id ->
      let doc =
        J.of_string
          (In_channel.with_open_text
             (Filename.concat dir ("BENCH_" ^ id ^ ".json"))
             In_channel.input_all)
      in
      let gates =
        match J.member "output" doc with
        | Some (J.List items) -> List.filter_map (J.member "gate") items
        | _ -> []
      in
      Alcotest.(check bool) (id ^ " emits a gate") true (gates <> []);
      List.iter
        (fun g ->
          Alcotest.(check bool) (id ^ " gate ok in the artifact") true
            (J.member "ok" g = Some (J.Bool true)))
        gates)
    ids

(* A failing gate comes back from [run_selection] with both values. *)
let test_failing_gate_reported () =
  let entry =
    {
      Registry.id = "zz";
      title = "synthetic failing gate";
      run =
        (fun ?quick:_ fmt ->
          Report.gate fmt ~name:"passes" ~ok:true ~observed:"1" ~expected:"1";
          Report.gate fmt ~name:"fails" ~ok:false ~observed:"3"
            ~expected:"< 2");
    }
  in
  let dir, failed = run_quick_in_temp [ entry ] in
  Alcotest.(check (list (pair string (list string))))
    "the failing gate, with observed and expected"
    [ ("zz", [ "fails"; "3"; "< 2" ]) ]
    (List.map
       (fun ((e : Registry.entry), (g : Report.gate)) ->
         (e.id, [ g.name; g.observed; g.expected ]))
       failed);
  Sys.remove (Filename.concat dir "BENCH_zz.json")

(* Wire-format fuzzing: random byte buffers must either parse or raise
   Invalid_argument — never crash or loop. *)
let prop_of_wire_total =
  QCheck.Test.make ~name:"Packet.of_wire is total on random bytes" ~count:500
    QCheck.(string_of_size QCheck.Gen.(int_range 0 200))
    (fun s ->
      match Packet.of_wire (Bytes.of_string s) with
      | _ -> true
      | exception Invalid_argument _ -> true)

(* Truncations of a valid packet must never parse into a packet that claims
   more payload than the buffer holds. *)
let prop_truncation_safe =
  QCheck.Test.make ~name:"truncated packets rejected or consistent" ~count:200
    QCheck.(int_bound 200)
    (fun cut ->
      let tcp =
        (Tas_proto.Tcp_header.make ~src_port:1 ~dst_port:2 ~seq:3 ~ack:4
           ~flags:Tas_proto.Tcp_header.data_flags ~window:100 ())
      in
      let pkt =
        Packet.make ~src_mac:1 ~dst_mac:2 ~src_ip:(Tas_proto.Addr.host_ip 1)
          ~dst_ip:(Tas_proto.Addr.host_ip 2) ~tcp
          ~payload:(Bytes.create 120) ()
      in
      let wire = Packet.to_wire pkt in
      let cut = min cut (Bytes.length wire - 1) in
      let truncated = Bytes.sub wire 0 (Bytes.length wire - cut - 1) in
      match Packet.of_wire truncated with
      | parsed -> Bytes.length parsed.Packet.payload <= Bytes.length truncated
      | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "registry covers the evaluation" `Quick
      test_registry_covers_evaluation;
    Alcotest.test_case "registry ids unique" `Quick test_registry_ids_unique;
    Alcotest.test_case "report table renders" `Quick test_report_table_renders;
    Alcotest.test_case "measure_rate windows" `Quick test_measure_rate;
    Alcotest.test_case "experiment gates pass (quick, -j 2)" `Quick
      test_experiment_gates_pass;
    Alcotest.test_case "failing gate reported" `Quick
      test_failing_gate_reported;
    QCheck_alcotest.to_alcotest prop_of_wire_total;
    QCheck_alcotest.to_alcotest prop_truncation_safe;
  ]
