type entry = {
  id : string;
  title : string;
  run : ?quick:bool -> Format.formatter -> unit;
}

let all =
  [
    { id = "t1"; title = "Table 1: cycles/request by module";
      run = Exp_cycles.table1 };
    { id = "t2"; title = "Table 2: per-request app/stack overheads";
      run = Exp_cycles.table2 };
    { id = "t4"; title = "Table 4: Linux/TAS peer compatibility";
      run = Exp_compat.run };
    { id = "f4"; title = "Figure 4: connection scalability";
      run = Exp_conn_scaling.run };
    { id = "f5"; title = "Figure 5: short-lived connections";
      run = Exp_short_lived.run };
    { id = "f6"; title = "Figure 6: pipelined RPC throughput";
      run = Exp_pipelined.run };
    { id = "f7"; title = "Figure 7: packet loss penalty";
      run = Exp_loss.run };
    { id = "f8"; title = "Figure 8: KV-store throughput scalability";
      run = Exp_kv.fig8 };
    { id = "t6"; title = "Table 6: TAS core split";
      run = (fun ?quick fmt -> ignore quick; Exp_kv.table6 fmt) };
    { id = "f9"; title = "Figure 9 / Table 5: KV-store latency";
      run = Exp_kv.fig9_table5 };
    { id = "t7"; title = "Table 7: non-scalable KV workload";
      run = Exp_kv.table7 };
    { id = "f10"; title = "Figure 10 / Table 8: FlexStorm";
      run = Exp_flexstorm.run };
    { id = "f11"; title = "Figure 11: single-link congestion control";
      run = Exp_cc.fig11 };
    { id = "f12"; title = "Figure 12: cluster flow completion times";
      run = Exp_cc.fig12 };
    { id = "f13"; title = "Figure 13: incast fairness";
      run = Exp_incast.run };
    { id = "f14"; title = "Figure 14: workload proportionality";
      run = Exp_proportional.fig14 };
    { id = "f15"; title = "Figure 15: latency across core transition";
      run = Exp_proportional.fig15 };
    { id = "x1"; title = "Ablation: slow-path CC algorithms (TIMELY etc.)";
      run = Exp_ablation.x1_cc_algorithms };
    { id = "x2"; title = "Ablation: rate vs window enforcement under incast";
      run = Exp_ablation.x2_rate_vs_window };
    { id = "x3"; title = "Ablation: sockets emulation vs low-level API cost";
      run = Exp_ablation.x3_api_cost };
    { id = "x4"; title = "Ablation: NIC-offload projection of the fast path";
      run = Exp_ablation.x4_nic_offload };
    { id = "ch"; title = "Chaos: KV workload under seeded fault schedules";
      run = (fun ?quick fmt -> Exp_chaos.run ?quick fmt) };
    { id = "dg"; title = "Diagnostics: spans, cycles, trace, flows and health";
      run = Diagnostics.experiment };
    { id = "sh"; title = "Sharding: fast-path core scaling with per-queue shards";
      run = Exp_sharding.run };
    { id = "tl"; title = "Timeline: flight recorder under ramp + flash crowd + chaos";
      run = Exp_timeline.run };
    { id = "el"; title = "Elastic controller: diurnal autoscaling across policies";
      run = Exp_elastic.run };
    { id = "wan"; title = "WAN: recovery policies, tail loss, split-TCP PEP";
      run = Exp_wan.run };
  ]

let find id = List.find_opt (fun e -> String.lowercase_ascii id = e.id) all

module J = Tas_telemetry.Json

let bench_dir = Run_opts.bench_dir

(* Everything before "timing" is covered by the determinism contract:
   byte-identical across serial and parallel runs of the same build. The
   trailing "timing" object isolates the only nondeterministic data
   (wall-clock measurements), so consumers can diff artifacts by cutting
   at the "timing" key. Artifacts are compact JSON, which every consumer
   parses; indenting would make the diagnostics artifact 2.5 times as
   large. *)
let write_artifact e ~quick ~timing body =
  let j =
    J.Obj
      [
        ("experiment", J.Str e.id);
        ("title", J.Str e.title);
        ("quick", J.Bool quick);
        ("output", body);
        ("timing", timing);
      ]
  in
  let path =
    Filename.concat (bench_dir ()) (Printf.sprintf "BENCH_%s.json" e.id)
  in
  let oc = open_out path in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc;
  path

(* Timelines get their own artifact next to BENCH_<id>.json: frames are
   bulky and fully deterministic, so keeping them out of the BENCH body
   leaves the cut-at-"timing" diff contract untouched. *)
let write_timelines e timelines =
  let j =
    J.Obj
      [
        ("experiment", J.Str e.id);
        ( "timelines",
          J.List
            (List.map
               (fun (name, tl) ->
                 J.Obj [ ("name", J.Str name); ("timeline", tl) ])
               timelines) );
      ]
  in
  let path =
    Filename.concat (bench_dir ()) (Printf.sprintf "TIMELINE_%s.json" e.id)
  in
  let oc = open_out path in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc;
  path

(* One experiment's captured run: its text, artifact body, staged
   timelines, failing gates and wall-clock seconds. *)
type captured = {
  text : string;
  body : J.t;
  timelines : (string * J.t) list;
  failed : Report.gate list;
  elapsed : float;
}

(* Run one experiment with its text output buffered and its artifact
   captured. Self-contained (no shared mutable state beyond the
   domain-local artifact), so it can run on any pool domain. *)
let run_captured ?quick e =
  let buf = Buffer.create 4096 in
  let bfmt = Format.formatter_of_buffer buf in
  Report.Artifact.start ();
  ignore (Report.Artifact.take_timelines ());
  let t0 = Unix.gettimeofday () in
  e.run ?quick bfmt;
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.pp_print_flush bfmt ();
  let body, failed = Report.Artifact.finish () in
  let timelines = Report.Artifact.take_timelines () in
  { text = Buffer.contents buf; body; timelines; failed; elapsed }

let timing_json ~elapsed ~jobs ~run_wall ~serial_estimate =
  let speedup = if run_wall > 0.0 then serial_estimate /. run_wall else 1.0 in
  J.Obj
    [
      ("elapsed_s", J.Float elapsed);
      ("jobs", J.Int jobs);
      ("run_wall_s", J.Float run_wall);
      ("serial_estimate_s", J.Float serial_estimate);
      ("speedup", J.Float speedup);
    ]

let emit_result ?quick fmt e ~timing r =
  Format.fprintf fmt "%s" r.text;
  (try
     let path = write_artifact e ~quick:(quick = Some true) ~timing r.body in
     Format.fprintf fmt "  # artifact: %s@." path
   with Sys_error msg ->
     Format.fprintf fmt "  # BENCH_%s.json not written: %s@." e.id msg);
  if r.timelines <> [] then
    try
      let path = write_timelines e r.timelines in
      Format.fprintf fmt "  # timeline: %s@." path
    with Sys_error msg ->
      Format.fprintf fmt "  # TIMELINE_%s.json not written: %s@." e.id msg

let run_entry ?quick e fmt =
  let r = run_captured ?quick e in
  let elapsed = r.elapsed in
  let timing =
    timing_json ~elapsed ~jobs:1 ~run_wall:elapsed ~serial_estimate:elapsed
  in
  emit_result ?quick fmt e ~timing r;
  elapsed

let run_selection ?quick entries fmt =
  let entries_arr = Array.of_list entries in
  let pool = Run_opts.pool () in
  let jobs = Tas_parallel.Domain_pool.jobs pool in
  let t0 = Unix.gettimeofday () in
  let results =
    Tas_parallel.Domain_pool.map pool ~f:(run_captured ?quick) entries_arr
  in
  let run_wall = Unix.gettimeofday () -. t0 in
  let serial_estimate =
    Array.fold_left (fun acc r -> acc +. r.elapsed) 0.0 results
  in
  (* Deterministic merge: emit in submission order regardless of which
     domain finished first. *)
  Array.iteri
    (fun i e ->
      let r = results.(i) in
      let timing =
        timing_json ~elapsed:r.elapsed ~jobs ~run_wall ~serial_estimate
      in
      emit_result ?quick fmt e ~timing r;
      Format.fprintf fmt "  (%.1fs)@." r.elapsed)
    entries_arr;
  if Array.length entries_arr > 1 then
    Format.fprintf fmt "Ran %d experiments in %.1fs (jobs=%d, serial estimate %.1fs, speedup %.2fx)@."
      (Array.length entries_arr) run_wall jobs serial_estimate
      (if run_wall > 0.0 then serial_estimate /. run_wall else 1.0);
  List.concat
    (List.mapi
       (fun i e -> List.map (fun g -> (e, g)) results.(i).failed)
       entries)

let run_all ?quick fmt = run_selection ?quick all fmt
