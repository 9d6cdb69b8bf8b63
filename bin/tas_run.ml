(* Command-line driver: run the paper's experiments by id —

     tas_run run [IDS..]   run experiments (default: all; --jobs N parallel);
                           exit 1 on a failed gate
     tas_run list          list experiment ids
     tas_run timeline FILE per-series sparklines from a TIMELINE_* artifact

   Every diagnostic view of a run (flow tables, merged metrics, health
   verdicts, spans and the Chrome trace document) is in the BENCH_dg.json
   that `tas_run run dg` writes. The real cost of the code (wall clock,
   allocation) is measured by benchmark/main.exe, which compares paired
   runs of two builds; allocation figures are pinned in the test suite. *)

module Registry = Tas_experiments.Registry
module Report = Tas_experiments.Report
module Run_opts = Tas_experiments.Run_opts
module Json = Tas_telemetry.Json
module Timeline = Tas_telemetry.Timeline
module Chrome = Tas_telemetry.Chrome

let apply_opts bench_dir = Option.iter Run_opts.set_bench_dir bench_dir

(* The invocation's one domain pool: [-j N] participants serve every
   fan-out (the registry's batch and those nested inside experiments). *)
let with_jobs jobs f =
  Tas_parallel.Domain_pool.with_pool ~jobs:(max 1 jobs) (fun pool ->
      Run_opts.set_pool pool;
      f ())

(* --- run (default) ------------------------------------------------------ *)

let list_cmd () =
  List.iter
    (fun e ->
      Printf.printf "%-4s %s\n" e.Registry.id e.Registry.title)
    Registry.all;
  0

let run_cmd quick ids =
  let fmt = Format.std_formatter in
  let unknown, entries =
    List.partition_map
      (fun id ->
        match Registry.find id with
        | Some e -> Right e
        | None -> Left id)
      ids
  in
  List.iter
    (fun id ->
      Printf.eprintf "unknown experiment id: %s (try 'tas_run list')\n" id)
    unknown;
  let failed =
    match ids with
    | [] -> Registry.run_all ~quick fmt
    | _ -> Registry.run_selection ~quick entries fmt
  in
  List.iter
    (fun ((e : Registry.entry), (g : Report.gate)) ->
      Format.fprintf fmt
        "FAILED gate %s.%s: observed %s; expected %s@.  replay: tas_run run %s%s@."
        e.id g.name g.observed g.expected e.id
        (if quick then " --quick" else ""))
    failed;
  Format.pp_print_flush fmt ();
  if unknown = [] && failed = [] then 0 else 1

(* --- timeline ----------------------------------------------------------- *)

(* Sum a gauge across its label sets inside one timeline frame. *)
let frame_gauge (f : Timeline.frame) name =
  List.fold_left
    (fun acc (n, _, v) -> if n = name then acc +. v else acc)
    0. f.Timeline.gauges

let spark_glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

(* Downsample [values] to at most 48 columns (mean per column) and render
   min-max normalized block glyphs. *)
let sparkline values =
  match values with
  | [] -> ""
  | _ ->
    let arr = Array.of_list values in
    let n = Array.length arr in
    let lo = Array.fold_left min arr.(0) arr in
    let hi = Array.fold_left max arr.(0) arr in
    let cols = min 48 n in
    let buf = Buffer.create (cols * 3) in
    for c = 0 to cols - 1 do
      let i0 = c * n / cols in
      let i1 = max (i0 + 1) ((c + 1) * n / cols) in
      let sum = ref 0. in
      for i = i0 to i1 - 1 do
        sum := !sum +. arr.(i)
      done;
      let v = !sum /. float_of_int (i1 - i0) in
      let t = if hi -. lo < 1e-12 then 0. else (v -. lo) /. (hi -. lo) in
      Buffer.add_string buf spark_glyphs.(min 7 (int_of_float (t *. 8.)))
    done;
    Buffer.contents buf

let labels_suffix = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let series_row name values =
  match values with
  | [] -> ()
  | v0 :: _ ->
    let mn = List.fold_left min v0 values in
    let mx = List.fold_left max v0 values in
    let mean =
      List.fold_left ( +. ) 0. values /. float_of_int (List.length values)
    in
    let last = List.nth values (List.length values - 1) in
    Printf.printf "  %-30s %9.3g %9.3g %9.3g %9.3g  %s\n" name mn mean mx
      last (sparkline values)

let render_timeline ~name ~interval_ns frames =
  Printf.printf "timeline '%s': %d frames @ %dus\n" name (List.length frames)
    (interval_ns / 1000);
  match frames with
  | [] -> ()
  | first :: _ ->
    Printf.printf "  %-30s %9s %9s %9s %9s\n" "series" "min" "mean" "max"
      "last";
    List.iteri
      (fun i (c : Timeline.core_sample) ->
        series_row
          (Printf.sprintf "util %s%d" c.Timeline.c_role c.Timeline.c_id)
          (List.map
             (fun (f : Timeline.frame) ->
               match List.nth_opt f.Timeline.cores i with
               | Some c -> c.Timeline.c_util
               | None -> 0.)
             frames))
      first.Timeline.cores;
    series_row "flows (fp_flows)"
      (List.map (fun f -> frame_gauge f "fp_flows") frames);
    if Array.length first.Timeline.shard_flows > 0 then
      series_row "shard flows total"
        (List.map
           (fun (f : Timeline.frame) ->
             float_of_int (Array.fold_left ( + ) 0 f.Timeline.shard_flows))
           frames);
    if first.Timeline.arena <> None then
      series_row "arena live"
        (List.map
           (fun (f : Timeline.frame) ->
             match f.Timeline.arena with
             | Some (live, _) -> float_of_int live
             | None -> 0.)
           frames);
    (* The busiest counters, by total delta over the window. *)
    let totals = Hashtbl.create 64 in
    List.iter
      (fun (f : Timeline.frame) ->
        List.iter
          (fun (n, lbls, d) ->
            let key = (n, lbls) in
            Hashtbl.replace totals key
              (d + Option.value ~default:0 (Hashtbl.find_opt totals key)))
          f.Timeline.counters)
      frames;
    let top =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
      |> List.filter (fun (_, v) -> v > 0)
      |> List.sort (fun (ka, va) (kb, vb) ->
             match compare vb va with 0 -> compare ka kb | c -> c)
      |> List.filteri (fun i _ -> i < 6)
    in
    List.iter
      (fun ((n, lbls), _) ->
        series_row
          ("d " ^ n ^ labels_suffix lbls)
          (List.map
             (fun (f : Timeline.frame) ->
               List.fold_left
                 (fun acc (n', l', d) ->
                   if n' = n && l' = lbls then acc +. float_of_int d else acc)
                 0. f.Timeline.counters)
             frames))
      top

(* A TIMELINE_<id>.json document as [Report.add_timeline] staged it: a
   "timelines" list of {name; timeline = {interval_ns; frames}}. Any
   missing or mistyped field is an error, never a zero. *)
let read_timelines path =
  let bad msg = raise (Json.Parse_error msg) in
  let timeline o =
    match (Json.member "name" o, Json.member "timeline" o) with
    | Some (Json.Str name), Some t -> (
      match Json.member "interval_ns" t with
      | Some (Json.Int interval_ns) ->
        (name, interval_ns, Timeline.frames_of_json t)
      | _ -> bad (Printf.sprintf "timeline %S has no integer interval_ns" name))
    | _ -> bad "a timelines entry lacks a string name or a timeline"
  in
  let not_timeline msg =
    Error (Printf.sprintf "%s: not a TIMELINE_* document: %s" path msg)
  in
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | exception Sys_error msg -> Error msg (* names the path already *)
  | exception Json.Parse_error msg ->
    Error (Printf.sprintf "%s: not JSON: %s" path msg)
  | doc -> (
    match Json.member "timelines" doc with
    | Some (Json.List l) -> (
      try Ok (List.map timeline l) with Json.Parse_error msg -> not_timeline msg)
    | _ -> not_timeline "no \"timelines\" list")

let timeline_cmd path chrome_out =
  match read_timelines path with
  | Error msg ->
    Printf.eprintf "tas_run timeline: %s\n" msg;
    1
  | Ok named ->
    List.iter
      (fun (name, interval_ns, frames) ->
        render_timeline ~name ~interval_ns frames)
      named;
    Option.iter
      (fun out ->
        let hosts =
          List.map
            (fun (name, _, frames) -> { Chrome.name; events = []; frames })
            named
        in
        Out_channel.with_open_text out (fun oc ->
            output_string oc
              (Json.to_string ~pretty:true (Chrome.to_json hosts));
            output_char oc '\n');
        Printf.printf "# chrome counters: %s (open in ui.perfetto.dev)\n" out)
      chrome_out;
    0

(* --- cmdliner wiring ---------------------------------------------------- *)

open Cmdliner

let bench_dir_arg =
  let doc =
    "Directory for BENCH_*.json artifacts (overrides \\$TAS_BENCH_DIR)."
  in
  Arg.(value & opt (some string) None & info [ "bench-dir" ] ~docv:"DIR" ~doc)

let quick =
  let doc = "Reduced sweeps and durations (CI-friendly)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let ids_arg =
  let doc = "Experiment ids to run (e.g. f4 t1). Empty runs everything." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let jobs_arg =
  let doc =
    "Run on one pool of $(docv) domains for the whole invocation: the \
     selected experiments and the independent sub-runs inside them share \
     it. Output and artifacts are merged in submission order, so \
     everything except per-artifact timing is identical to a serial run."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let run_main quick jobs bench_dir ids =
  apply_opts bench_dir;
  with_jobs jobs (fun () -> run_cmd quick ids)

(* Default term: no positionals (cmdliner groups reserve the first
   positional for command dispatch) — `tas_run` runs every experiment;
   `tas_run run f4 dg` runs a selection. *)
let run_term =
  Term.(const run_main $ quick $ jobs_arg $ bench_dir_arg $ const [])

let run_cmd_v =
  let doc = "run selected experiments by id" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the selected experiments (all of them when no id is given), \
         writing one BENCH_<id>.json each. Some experiments check gates; \
         each failing gate is printed with its observed and expected values \
         and a replay command, and the exit status is 1.";
    ]
  in
  Cmd.v (Cmd.info "run" ~doc ~man)
    Term.(const run_main $ quick $ jobs_arg $ bench_dir_arg $ ids_arg)

let list_cmd_v =
  let doc = "list available experiment ids" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const (fun () -> list_cmd ()) $ const ())

let timeline_cmd_v =
  let doc = "chart the timelines of a TIMELINE_<id>.json artifact" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads a TIMELINE_<id>.json that $(b,tas_run run) wrote (tl, el and \
         dg record one) and renders every series — per-core utilization, \
         flows, shard occupancy, arena occupancy, and the busiest counters \
         — as a min/mean/max/last table with a unicode sparkline per \
         series. $(b,--chrome) also writes the timelines as Chrome \
         trace-event counters. Exits 1 when the file is missing, is not \
         JSON, or is not a TIMELINE_* document.";
    ]
  in
  let file =
    let doc = "The TIMELINE_<id>.json artifact to read." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let chrome =
    let doc = "Also write Chrome trace-event counter samples to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "timeline" ~doc ~man)
    Term.(const timeline_cmd $ file $ chrome)

let cmd =
  let doc = "reproduce the TAS (EuroSys'19) evaluation" in
  let info = Cmd.info "tas_run" ~doc in
  Cmd.group ~default:run_term info
    [ run_cmd_v; list_cmd_v; timeline_cmd_v ]

let () = exit (Cmd.eval' cmd)
