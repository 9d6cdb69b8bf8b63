(* Command-line driver: run the paper's experiments by id, plus diagnostic
   subcommands over the span/introspection layer —

     tas_run run [IDS..]   run experiments (default: all; --jobs N parallel);
                           exit 1 on a failed gate
     tas_run list          list experiment ids
     tas_run perf          hot-path perf suite + regression gate (--check)
     tas_run flows         JSON flow-state snapshot (ss-style, Table 3)
     tas_run stats         merged telemetry over a -j N batch of runs
     tas_run trace         write a Chrome trace (chrome://tracing, Perfetto)
     tas_run top           periodic text dashboard replayed from the timeline
     tas_run timeline      per-series sparklines from a TIMELINE_* artifact
     tas_run health        run the watchdog rules over a recorded timeline
     tas_run autoscale     elastic-controller decision history + cores chart *)

module Registry = Tas_experiments.Registry
module Report = Tas_experiments.Report
module Perf_bench = Tas_experiments.Perf_bench
module Run_opts = Tas_experiments.Run_opts
module Diagnostics = Tas_experiments.Diagnostics
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Metrics = Tas_telemetry.Metrics
module Span = Tas_telemetry.Span
module Json = Tas_telemetry.Json
module Timeline = Tas_telemetry.Timeline
module Chrome = Tas_telemetry.Chrome
module Health = Tas_telemetry.Health
module Tas = Tas_core.Tas

let apply_opts bench_dir trace_capacity =
  Option.iter Run_opts.set_bench_dir bench_dir;
  Option.iter Run_opts.set_trace_capacity trace_capacity

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

(* --- flows -------------------------------------------------------------- *)

let flows_cmd duration_ms shard watch =
  let d = Diagnostics.build () in
  let step = Time_ns.ms duration_ms in
  let snapshot () =
    Json.Obj
      [
        ("server", Tas.flows ?shard d.Diagnostics.server);
        ("client", Tas.flows ?shard d.Diagnostics.client);
      ]
  in
  (* Emit nothing but the JSON document: consumers pipe this straight into
     json.tool / jq. *)
  let doc =
    if watch <= 1 then begin
      Diagnostics.run d ~duration_ns:step;
      snapshot ()
    end
    else
      (* --watch N: advance the same simulation N times and emit one
         snapshot per step, as a single JSON list. *)
      Json.List
        (List.init watch (fun k ->
             Diagnostics.run d ~duration_ns:((k + 1) * step);
             match snapshot () with
             | Json.Obj fields ->
               Json.Obj (("t_ms", Json.Int ((k + 1) * duration_ms)) :: fields)
             | j -> j))
  in
  print_string (Json.to_string ~pretty:true doc);
  print_newline ();
  0

(* --- stats -------------------------------------------------------------- *)

let stats_cmd duration_ms runs jobs =
  let b =
    with_jobs jobs (fun () ->
        Diagnostics.batch_stats ~runs ~duration_ns:(Time_ns.ms duration_ms) ())
  in
  Printf.printf
    "merged telemetry over %d diagnostic runs (%d ms each, jobs=%d)\n"
    b.Diagnostics.runs duration_ms b.Diagnostics.jobs;
  Printf.printf "rpcs completed: %d\n" b.Diagnostics.completed;
  Printf.printf "trace events: %d\n" b.Diagnostics.trace_events;
  List.iter
    (fun (k, n) ->
      Printf.printf "  %-16s %d\n" (Tas_telemetry.Trace.kind_name k) n)
    b.Diagnostics.trace_counts;
  (* The merged registry snapshot, same exposition as `tm`'s artifact. *)
  print_string
    (Json.to_string ~pretty:true
       (Json.List (List.map Metrics.sample_to_json b.Diagnostics.metrics)));
  print_newline ();
  0

(* --- trace -------------------------------------------------------------- *)

let trace_cmd out sample_every duration_ms bench_dir =
  apply_opts bench_dir None;
  (* 100 us timeline frames feed the document's counter tracks. *)
  let d =
    Diagnostics.build ~sample_every ~trace:true ~timeline_ns:(Time_ns.us 100) ()
  in
  Diagnostics.run d ~duration_ns:(Time_ns.ms duration_ms);
  let events = Span.drain d.Diagnostics.span in
  let b = Span.breakdown events in
  let path =
    match out with
    | Some p -> p
    | None -> Filename.concat (Run_opts.bench_dir ()) "tas_trace.json"
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string ~pretty:true (Diagnostics.chrome d ~spans:events));
  output_char oc '\n';
  close_out oc;
  let e2e = b.Span.end_to_end in
  Printf.printf "traced %dms of RPC echo (1 origin in %d sampled)\n"
    duration_ms sample_every;
  Printf.printf "spans: %d (%d complete app-to-app), hop events: %d, dropped: %d\n"
    b.Span.spans b.Span.complete
    (Span.recorded d.Diagnostics.span)
    (Span.dropped d.Diagnostics.span);
  if Stats.Hist.count e2e > 0 then
    Printf.printf "end-to-end: mean %.1fus  p50 %.1fus  p99 %.1fus\n"
      (Stats.Hist.mean e2e /. 1e3)
      (Stats.Hist.percentile e2e 50. /. 1e3)
      (Stats.Hist.percentile e2e 99. /. 1e3);
  Printf.printf "# artifact: %s (open in chrome://tracing or ui.perfetto.dev)\n"
    path;
  0

(* --- frame helpers (top / timeline / health) ---------------------------- *)

(* Sum a gauge across its label sets inside one timeline frame. *)
let frame_gauge (f : Timeline.frame) name =
  List.fold_left
    (fun acc (n, _, v) -> if n = name then acc +. v else acc)
    0. f.Timeline.gauges

(* Sum a counter's per-interval delta across its label sets. *)
let frame_delta (f : Timeline.frame) name =
  List.fold_left
    (fun acc (n, _, d) -> if n = name then acc + d else acc)
    0 f.Timeline.counters

let host_frames tas =
  match Tas.timeline tas with
  | Some tl -> Timeline.frames tl
  | None -> []

(* --- top ---------------------------------------------------------------- *)

(* The dashboard is a replay of the flight recorder: run the whole
   simulation with the timeline enabled at the refresh interval, then
   render one dashboard row per recorded frame — per-core utilization,
   flows and queue depth come straight out of the frames. *)
let top_cmd interval_ms frames =
  let interval_ns = Time_ns.ms interval_ms in
  let d = Diagnostics.build ~timeline_ns:interval_ns () in
  let rpc_ticks = ref [] in
  Diagnostics.run_with_tick d ~duration_ns:(interval_ns * frames)
    ~every_ns:interval_ns (fun () ->
      rpc_ticks :=
        Stats.Counter.value d.Diagnostics.stats.Tas_apps.Rpc_echo.completed
        :: !rpc_ticks);
  let rpcs = Array.of_list (List.rev !rpc_ticks) in
  let server = Array.of_list (host_frames d.Diagnostics.server) in
  let client = Array.of_list (host_frames d.Diagnostics.client) in
  let host label (f : Timeline.frame) =
    let cores =
      List.map
        (fun c ->
          Printf.sprintf "%s%d %.0f%%" c.Timeline.c_role c.Timeline.c_id
            (100. *. c.Timeline.c_util))
        f.Timeline.cores
    in
    Printf.printf "  %-6s flows %-3.0f txq %-4.0f cores [%s]\n" label
      (frame_gauge f "fp_flows")
      (frame_gauge f "port_queue_pkts")
      (String.concat " " cores)
  in
  Array.iteri
    (fun i (f : Timeline.frame) ->
      let now_ms = float_of_int f.Timeline.ts /. 1e6 in
      let prev = if i = 0 then 0 else rpcs.(i - 1) in
      let per_s v = float_of_int v /. (float_of_int interval_ms *. 1e-3) in
      (if i < Array.length rpcs then
         let krps = per_s (rpcs.(i) - prev) /. 1e3 in
         Printf.printf "t=%5.1fms  rpcs %-7d (%.1f krps)\n" now_ms rpcs.(i)
           krps);
      host "server" f;
      if i < Array.length client then host "client" client.(i);
      Printf.printf "  server nic rx %.1f kpps\n"
        (per_s (frame_delta f "nic_rx_packets") /. 1e3);
      print_newline ())
    server;
  0

(* --- timeline ----------------------------------------------------------- *)

let spark_glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

(* Downsample [values] to at most [width] columns (mean per column) and
   render min-max normalized block glyphs. *)
let sparkline ?(width = 48) values =
  match values with
  | [] -> ""
  | _ ->
    let arr = Array.of_list values in
    let n = Array.length arr in
    let lo = Array.fold_left min arr.(0) arr in
    let hi = Array.fold_left max arr.(0) arr in
    let cols = min width n in
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

let null_formatter =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let timeline_cmd quick interval_us json_flag chrome_out bench_dir id =
  apply_opts bench_dir None;
  Option.iter
    (fun us -> Run_opts.set_timeline_interval_ns (us * 1000))
    interval_us;
  match Registry.find id with
  | None ->
    Printf.eprintf "unknown experiment id: %s (try 'tas_run list')\n" id;
    1
  | Some e ->
    ignore (Registry.run_entry ~quick e null_formatter);
    let path =
      Filename.concat (Run_opts.bench_dir ())
        ("TIMELINE_" ^ e.Registry.id ^ ".json")
    in
    if not (Sys.file_exists path) then begin
      Printf.eprintf "experiment '%s' recorded no timeline\n" e.Registry.id;
      1
    end
    else begin
      let doc =
        Json.of_string (In_channel.with_open_text path In_channel.input_all)
      in
      if json_flag then begin
        print_string (Json.to_string ~pretty:true doc);
        print_newline ();
        0
      end
      else begin
        let named =
          match Json.member "timelines" doc with
          | Some (Json.List l) ->
            List.filter_map
              (fun o ->
                match (Json.member "name" o, Json.member "timeline" o) with
                | Some (Json.Str n), Some t ->
                  let interval_ns =
                    match Json.member "interval_ns" t with
                    | Some (Json.Int i) -> i
                    | _ -> 1
                  in
                  Some (n, interval_ns, Timeline.frames_of_json t)
                | _ -> None)
              l
          | _ -> []
        in
        List.iter
          (fun (name, interval_ns, frames) ->
            render_timeline ~name ~interval_ns frames)
          named;
        (match chrome_out with
        | None -> ()
        | Some out ->
          let hosts =
            List.map
              (fun (name, _, frames) ->
                { Chrome.name; events = []; frames })
              named
          in
          let oc = open_out out in
          output_string oc
            (Json.to_string ~pretty:true (Chrome.to_json hosts));
          output_char oc '\n';
          close_out oc;
          Printf.printf "# chrome counters: %s (open in ui.perfetto.dev)\n"
            out);
        0
      end
    end

(* --- health ------------------------------------------------------------- *)

let health_cmd duration_ms interval_us conns =
  (* Lighter span sampling than the trace-oriented default: the default
     65 K ring fills (and honestly drops) within ~30 ms, which would trip
     the ring-drops rule on a perfectly healthy run. *)
  let d =
    Diagnostics.build ~sample_every:64 ~capacity:262144 ~n_conns:conns
      ~timeline_ns:(interval_us * 1000) ()
  in
  Diagnostics.run d ~duration_ns:(Time_ns.ms duration_ms);
  let fmt = Format.std_formatter in
  let check label tas =
    let report = Health.check (host_frames tas) in
    Format.fprintf fmt "%s: " label;
    Health.pp_report fmt report;
    report.Health.passed
  in
  let server_ok = check "server" d.Diagnostics.server in
  let client_ok = check "client" d.Diagnostics.client in
  Format.pp_print_flush fmt ();
  if server_ok && client_ok then 0 else 1

(* --- autoscale ----------------------------------------------------------- *)

(* JSON field coercions for replaying the el experiment's "autoscale"
   attachment. Missing or mistyped fields degrade to neutral defaults —
   the artifact is ours, so mismatches mean version skew, not attacks. *)
let j_get name j = Option.value (Json.member name j) ~default:Json.Null
let j_float name j = Option.value (Json.to_float_opt (j_get name j)) ~default:0.0
let j_int name j = match j_get name j with Json.Int i -> i | _ -> 0
let j_bool name j = match j_get name j with Json.Bool b -> b | _ -> false
let j_str name j = match j_get name j with Json.Str s -> s | _ -> ""
let j_list name j = match j_get name j with Json.List l -> l | _ -> []

let yesno b = if b then "yes" else "no"

let print_policy ~decisions_n p =
  let name = j_str "policy" p in
  let ctl = j_get "controller" p in
  Printf.printf "\n%s\n" name;
  Printf.printf
    "  tracks load: %-3s  day %.2f  flash %.2f  trough %.2f cores (mean)\n"
    (yesno (j_bool "tracks_load" p))
    (j_float "day_cores" p) (j_float "flash_cores" p)
    (j_float "trough_cores" p);
  Printf.printf
    "  ctl: ticks %d  ups %d  downs %d  denied-cooldown %d  held-confirm %d  \
     target %d\n"
    (j_int "ticks" ctl) (j_int "scale_ups" ctl) (j_int "scale_downs" ctl)
    (j_int "denied_cooldown" ctl) (j_int "held_confirm" ctl)
    (j_int "target_cores" ctl);
  Printf.printf "  scale-down p99 blip: %.1f us over %d mid-load shrinks\n"
    (j_float "scale_down_blip_p99_us" p)
    (j_int "scale_downs_observed" p);
  let cores =
    List.filter_map
      (function
        | Json.List [ _; v ] -> Json.to_float_opt v
        | _ -> None)
      (j_list "cores_series_ms" p)
  in
  (match cores with
  | [] -> ()
  | _ ->
    let lo = List.fold_left min (List.hd cores) cores in
    let hi = List.fold_left max (List.hd cores) cores in
    Printf.printf "  cores %.0f..%.0f  %s\n" lo hi (sparkline ~width:60 cores));
  let tail = j_list "decisions_tail" p in
  let tail_n = List.length tail in
  let skip = max 0 (tail_n - decisions_n) in
  if tail_n > 0 then begin
    Printf.printf "  last %d decisions:\n" (min decisions_n tail_n);
    Printf.printf "    %8s  %-13s  %-15s %s\n" "t_ms" "active->target"
      "verdict" "reason";
    List.iteri
      (fun i d ->
        if i >= skip then
          Printf.printf "    %8.1f  %5d -> %-5d  %-15s %s\n"
            (float_of_int (j_int "ts" d) /. 1e6)
            (j_int "active" d) (j_int "target" d) (j_str "verdict" d)
            (j_str "reason" d))
      tail
  end

let autoscale_cmd quick json_flag decisions_n bench_dir =
  apply_opts bench_dir None;
  match Registry.find "el" with
  | None ->
    Printf.eprintf "experiment 'el' not registered\n";
    1
  | Some e ->
    ignore (Registry.run_entry ~quick e null_formatter);
    let path = Filename.concat (Run_opts.bench_dir ()) "BENCH_el.json" in
    if not (Sys.file_exists path) then begin
      Printf.eprintf "BENCH_el.json not written\n";
      1
    end
    else begin
      let doc =
        Json.of_string (In_channel.with_open_text path In_channel.input_all)
      in
      let attach =
        match Json.member "output" doc with
        | Some (Json.List items) ->
          List.find_map (fun item -> Json.member "autoscale" item) items
        | _ -> None
      in
      match attach with
      | None ->
        Printf.eprintf "no 'autoscale' attachment in %s\n" path;
        1
      | Some a when json_flag ->
        print_string (Json.to_string ~pretty:true a);
        print_newline ();
        0
      | Some a ->
        Printf.printf
          "elastic controller: diurnal autoscaling (el%s)\n"
          (if quick then ", quick" else "");
        Printf.printf
          "  timeline %dus frames, scale check every %dus, SLO target %.0fus\n"
          (j_int "interval_ns" a / 1000)
          (j_int "scale_check_ns" a / 1000)
          (j_float "slo_target_us" a);
        Printf.printf
          "  determinism: same-seed identical %s | serial vs -j%d identical \
           %s\n"
          (yesno (j_bool "same_seed_identical" a))
          (j_int "parallel_jobs" a)
          (yesno (j_bool "parallel_identical" a));
        Printf.printf
          "  watchdog (damped policies): %d violations | paper core-flap \
           frames: %d\n"
          (j_int "health_violations" a)
          (j_int "paper_core_flap_frames" a);
        Printf.printf
          "  scale-down blip: paper %.1fus vs hysteresis %.1fus (hysteresis \
           smaller: %s)\n"
          (j_float "blip_paper_us" a)
          (j_float "blip_hysteresis_us" a)
          (yesno (j_bool "blip_smaller_under_hysteresis" a));
        List.iter (print_policy ~decisions_n) (j_list "policies" a);
        0
    end

(* --- cmdliner wiring ---------------------------------------------------- *)

open Cmdliner

let bench_dir_arg =
  let doc =
    "Directory for BENCH_*.json artifacts (overrides \\$TAS_BENCH_DIR)."
  in
  Arg.(value & opt (some string) None & info [ "bench-dir" ] ~docv:"DIR" ~doc)

let trace_capacity_arg =
  let doc = "Trace/span ring capacity (events) for telemetry experiments." in
  Arg.(value & opt (some int) None & info [ "trace-capacity" ] ~docv:"N" ~doc)

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

let run_main quick jobs bench_dir trace_capacity ids =
  apply_opts bench_dir trace_capacity;
  with_jobs jobs (fun () -> run_cmd quick ids)

(* Default term: no positionals (cmdliner groups reserve the first
   positional for command dispatch) — `tas_run` runs every experiment;
   `tas_run run f4 tm` runs a selection. *)
let run_term =
  Term.(
    const run_main $ quick $ jobs_arg $ bench_dir_arg $ trace_capacity_arg
    $ const [])

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
    Term.(
      const run_main $ quick $ jobs_arg $ bench_dir_arg $ trace_capacity_arg
      $ ids_arg)

let perf_cmd_v =
  let doc = "run the hot-path perf suite (and optionally the regression gate)" in
  let check =
    let doc =
      "Gate against the committed baseline and exit non-zero on regression."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let baseline =
    let doc =
      "Baseline artifact to gate against (default with $(b,--check): \
       bench/baseline_perf.json)."
    in
    Arg.(
      value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Measures the packet hot path on the host wall clock: bulk \
         TAS<->TAS packet operations and minor words per packet, pipelined \
         RPC rate, wire-format round trips, and simulator event churn, \
         and writes them to BENCH_perf.json. With $(b,--check), compares \
         against a saved baseline: wall-clock throughput gets a generous \
         tolerance band (machine dependent), allocations per operation a \
         tight one (machine independent); exits 1 on regression.";
    ]
  in
  let perf_main quick check baseline bench_dir =
    apply_opts bench_dir None;
    let baseline =
      match baseline with
      | Some p -> Some p
      | None -> if check then Some "bench/baseline_perf.json" else None
    in
    let fmt = Format.std_formatter in
    let ok = Perf_bench.run ~quick ?baseline fmt in
    Format.pp_print_flush fmt ();
    if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "perf" ~doc ~man)
    Term.(const perf_main $ quick $ check $ baseline $ bench_dir_arg)

let list_cmd_v =
  let doc = "list available experiment ids" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const (fun () -> list_cmd ()) $ const ())

let duration_arg default =
  let doc = "Simulated duration of the diagnostic run (milliseconds)." in
  Arg.(value & opt int default & info [ "duration-ms" ] ~docv:"MS" ~doc)

let flows_cmd_v =
  let doc = "dump per-flow TCP state (paper Table 3) as JSON" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a short span-instrumented RPC-echo workload with TAS on both \
         hosts, then prints each host's flow table (sequence/ack state, \
         buffer occupancy, rate bucket, recovery state, out-of-order \
         interval) and connection-lifecycle log as a single JSON document \
         on stdout — the simulator's 'ss -ti'.";
    ]
  in
  let shard =
    let doc = "Restrict the flow list to one RSS-queue shard." in
    Arg.(value & opt (some int) None & info [ "shard" ] ~docv:"Q" ~doc)
  in
  let watch =
    let doc =
      "Snapshot the same simulation $(docv) times, every --duration-ms of \
       simulated time, and emit the snapshots as one JSON list."
    in
    Arg.(value & opt int 1 & info [ "watch"; "w" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "flows" ~doc ~man)
    Term.(const flows_cmd $ duration_arg 8 $ shard $ watch)

let stats_cmd_v =
  let doc = "merged metrics + trace summary over a batch of parallel runs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a batch of independent trace-enabled diagnostic simulations \
         (RPC echo, TAS on both hosts) across $(b,--jobs) domains, merges \
         every host's metrics registry (counters and gauges summed, \
         histograms combined) and trace rings (timestamp-ordered), and \
         prints the aggregate: completed RPCs, trace-event counts by kind, \
         and the merged registry snapshot as JSON. The merge is \
         deterministic — output is byte-identical for any jobs value.";
    ]
  in
  let runs =
    let doc = "Number of independent runs in the batch." in
    Arg.(value & opt int 4 & info [ "runs" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "stats" ~doc ~man)
    Term.(const stats_cmd $ duration_arg 5 $ runs $ jobs_arg)

let trace_cmd_v =
  let doc = "write a Chrome trace of spans, trace events and counters" in
  let out =
    let doc = "Output path (default: <bench-dir>/tas_trace.json)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let sample_every =
    let doc = "Sample one packet origin in every N." in
    Arg.(value & opt int 16 & info [ "sample-every" ] ~docv:"N" ~doc)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the diagnostic workload with spans, trace rings and \
         timelines on and writes one Chrome trace-event document: one \
         track per span with a slice per hop-to-hop segment, each host's \
         trace events on per-core tracks, and its timeline counters. \
         Open the file in chrome://tracing or ui.perfetto.dev.";
    ]
  in
  Cmd.v
    (Cmd.info "trace" ~doc ~man)
    Term.(const trace_cmd $ out $ sample_every $ duration_arg 10 $ bench_dir_arg)

let top_cmd_v =
  let doc = "periodic text dashboard (cores, flows, queues, rates)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the diagnostic RPC-echo workload with the timeline flight \
         recorder enabled at the refresh interval, then replays the \
         recorded frames as dashboard rows: per-core utilization, live \
         flows, queue depth and packet rates all come from the frames.";
    ]
  in
  let interval =
    let doc = "Refresh interval in simulated milliseconds." in
    Arg.(value & opt int 2 & info [ "interval-ms" ] ~docv:"MS" ~doc)
  in
  let frames =
    let doc = "Number of dashboard frames to print." in
    Arg.(value & opt int 5 & info [ "frames" ] ~docv:"N" ~doc)
  in
  Cmd.v (Cmd.info "top" ~doc ~man) Term.(const top_cmd $ interval $ frames)

let timeline_cmd_v =
  let doc = "run an experiment and chart its recorded timeline" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the given experiment (default: tl, the flight-recorder \
         validation) with its timeline recording on, reads back the \
         TIMELINE_<id>.json artifact, and renders every series — per-core \
         utilization, flows, shard occupancy, arena occupancy, and the \
         busiest counters — as a min/mean/max/last table with a unicode \
         sparkline per series. $(b,--json) dumps the raw artifact instead; \
         $(b,--chrome) also writes the timelines as Chrome trace-event \
         counters, in the format of $(b,tas_run trace).";
    ]
  in
  let id =
    let doc = "Experiment id whose timeline to chart." in
    Arg.(value & pos 0 string "tl" & info [] ~docv:"ID" ~doc)
  in
  let interval_us =
    let doc = "Override the timeline frame interval (microseconds)." in
    Arg.(
      value & opt (some int) None & info [ "interval" ] ~docv:"US" ~doc)
  in
  let json_flag =
    let doc = "Print the raw TIMELINE_<id>.json document to stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let chrome =
    let doc = "Also write Chrome trace-event counter samples to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "timeline" ~doc ~man)
    Term.(
      const timeline_cmd $ quick $ interval_us $ json_flag $ chrome
      $ bench_dir_arg $ id)

let health_cmd_v =
  let doc = "run the health watchdog over a recorded timeline" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the diagnostic RPC-echo workload with the timeline flight \
         recorder on both hosts, evaluates every watchdog rule (retransmit \
         storm, arena pressure, shard imbalance, slow-path backlog growth, \
         telemetry ring drops) over the recorded frames, and prints one \
         report per host. Exits non-zero when any rule fired — the \
         scriptable 'is this run healthy?' check.";
    ]
  in
  let interval_us =
    let doc = "Timeline frame interval (microseconds)." in
    Arg.(value & opt int 1000 & info [ "interval" ] ~docv:"US" ~doc)
  in
  let conns =
    let doc = "Number of client connections in the workload." in
    Arg.(value & opt int 8 & info [ "conns" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "health" ~doc ~man)
    Term.(const health_cmd $ duration_arg 40 $ interval_us $ conns)

let autoscale_cmd_v =
  let doc = "run the el experiment and chart the controller's decisions" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the elastic-controller diurnal experiment (el), reads back \
         the 'autoscale' section of BENCH_el.json, and renders it: the \
         determinism and watchdog gates, then one block per policy \
         (paper_threshold, hysteresis, slo) with its controller counters, \
         an active-cores sparkline over the run, and the tail of its \
         decision history — each decision with the verdict (grow / shrink \
         / hold / denied-cooldown / held-confirm) and the signal values \
         that drove it. $(b,--json) dumps the raw attachment instead.";
    ]
  in
  let json_flag =
    let doc = "Print the raw 'autoscale' JSON attachment to stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let decisions_n =
    let doc = "Number of trailing controller decisions to print per policy." in
    Arg.(value & opt int 10 & info [ "decisions"; "n" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "autoscale" ~doc ~man)
    Term.(
      const autoscale_cmd $ quick $ json_flag $ decisions_n $ bench_dir_arg)

let cmd =
  let doc = "reproduce the TAS (EuroSys'19) evaluation" in
  let info = Cmd.info "tas_run" ~doc in
  Cmd.group ~default:run_term info
    [
      run_cmd_v; list_cmd_v; perf_cmd_v; flows_cmd_v; stats_cmd_v;
      trace_cmd_v; top_cmd_v; timeline_cmd_v; health_cmd_v; autoscale_cmd_v;
    ]

let () = exit (Cmd.eval' cmd)
