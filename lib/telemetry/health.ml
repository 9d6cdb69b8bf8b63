type rule =
  | Rexmit_storm
  | Arena_pressure
  | Shard_imbalance
  | Backlog_growth
  | Ring_drops
  | Core_flap

let rule_name = function
  | Rexmit_storm -> "rexmit_storm"
  | Arena_pressure -> "arena_pressure"
  | Shard_imbalance -> "shard_imbalance"
  | Backlog_growth -> "backlog_growth"
  | Ring_drops -> "ring_drops"
  | Core_flap -> "core_flap"

let all_rules =
  [
    Rexmit_storm; Arena_pressure; Shard_imbalance; Backlog_growth; Ring_drops;
    Core_flap;
  ]

let trace_kind = function
  | Rexmit_storm -> Trace.Health_rexmit_storm
  | Arena_pressure -> Trace.Health_arena_pressure
  | Shard_imbalance -> Trace.Health_shard_imbalance
  | Backlog_growth -> Trace.Health_backlog_growth
  | Ring_drops -> Trace.Health_ring_drops
  | Core_flap -> Trace.Health_core_flap

type thresholds = {
  retransmit_burst : int;
  arena_occupancy : float;
  shard_imbalance : float;
  shard_min_flows : int;
  backlog_frames : int;
  backlog_min_ns : int;
  ring_drops : int;
  flap_window : int;
  flap_changes : int;
}

let frame_ns = 1_000_000

let default_thresholds =
  {
    retransmit_burst = 8;
    arena_occupancy = 0.9;
    shard_imbalance = 3.0;
    shard_min_flows = 16;
    backlog_frames = 3;
    backlog_min_ns = 1_000_000;
    ring_drops = 1;
    flap_window = 16;
    flap_changes = 3;
  }

type violation = {
  v_rule : rule;
  v_seq : int;
  v_ts : int;
  v_value : float;
  v_limit : float;
  v_detail : string;
}

type report = {
  frames : int;
  violations : violation list;
  by_rule : (rule * int) list;
  passed : bool;
}

(* Sum the per-interval deltas of every counter series named [name]
   (across label sets — e.g. per-core variants all contribute). *)
let delta_sum (f : Timeline.frame) name =
  List.fold_left
    (fun acc (n, _, d) -> if n = name then acc + d else acc)
    0 f.Timeline.counters

(* Sum of every gauge series named [name] in the frame; [None] when the
   frame carries no such gauge (frames from instances without that
   component must not feed the rule a phantom zero). *)
let gauge_sum (f : Timeline.frame) name =
  List.fold_left
    (fun acc (n, _, v) ->
      if n = name then Some (Option.value acc ~default:0.0 +. v) else acc)
    None f.Timeline.gauges

(* Direction reversals in a chronological series: deltas between
   consecutive readings, zeros ignored, count sign changes between
   consecutive nonzero moves. A monotonic ramp has zero reversals. *)
let count_reversals chrono =
  let rec deltas acc = function
    | a :: (b :: _ as rest) ->
      let d = b - a in
      deltas (if d = 0 then acc else d :: acc) rest
    | _ -> List.rev acc
  in
  let rec flips acc = function
    | a :: (b :: _ as rest) ->
      flips (if (a > 0) <> (b > 0) then acc + 1 else acc) rest
    | _ -> acc
  in
  flips 0 (deltas [] chrono)

let check ?(thresholds = default_thresholds) ?trace frames =
  let th = thresholds in
  let violations = ref [] in
  (* Recent slow-path backlog readings, newest first, for growth tracking. *)
  let sp_backlogs = ref [] in
  (* Recent active-core counts, newest first, for flap detection. *)
  let core_counts = ref [] in
  let fire (f : Timeline.frame) rule ~value ~limit detail =
    let v =
      {
        v_rule = rule;
        v_seq = f.Timeline.seq;
        v_ts = f.Timeline.ts;
        v_value = value;
        v_limit = limit;
        v_detail = detail;
      }
    in
    violations := v :: !violations;
    match trace with
    | Some t ->
      Trace.record t ~ts:f.Timeline.ts ~kind:(trace_kind rule) ~core:(-1)
        ~flow:(-1)
    | None -> ()
  in
  List.iter
    (fun (f : Timeline.frame) ->
      (* Rexmit storm: fast + timeout retransmits inside one interval. *)
      let rexmits =
        delta_sum f "fp_fast_retransmits" + delta_sum f "sp_timeout_retransmits"
      in
      if rexmits >= th.retransmit_burst then
        fire f Rexmit_storm ~value:(float_of_int rexmits)
          ~limit:(float_of_int th.retransmit_burst)
          (Printf.sprintf "%d retransmits in one interval" rexmits);
      (* Arena pressure. *)
      (match f.Timeline.arena with
      | Some (live, cap) when cap > 0 ->
        let occ = float_of_int live /. float_of_int cap in
        if occ >= th.arena_occupancy then
          fire f Arena_pressure ~value:occ ~limit:th.arena_occupancy
            (Printf.sprintf "arena %d/%d slots live (%.0f%%)" live cap
               (occ *. 100.0))
      | _ -> ());
      (* Shard imbalance: max/mean occupancy over a non-trivial population. *)
      let shards = f.Timeline.shard_flows in
      let n_shards = Array.length shards in
      if n_shards > 1 then begin
        let total = Array.fold_left ( + ) 0 shards in
        if total >= th.shard_min_flows then begin
          let mean = float_of_int total /. float_of_int n_shards in
          let max_s = Array.fold_left max 0 shards in
          let ratio = float_of_int max_s /. mean in
          if ratio >= th.shard_imbalance then
            fire f Shard_imbalance ~value:ratio ~limit:th.shard_imbalance
              (Printf.sprintf "max shard %d vs mean %.1f (%d flows)" max_s mean
                 total)
        end
      end;
      (* Backlog growth: sp core backlog strictly increasing over a window. *)
      let sp_backlog =
        List.fold_left
          (fun acc c ->
            if c.Timeline.c_role = "sp" then acc + c.Timeline.c_backlog_ns
            else acc)
          0 f.Timeline.cores
      in
      sp_backlogs := sp_backlog :: !sp_backlogs;
      (if List.length !sp_backlogs >= th.backlog_frames then begin
         let window =
           List.filteri (fun i _ -> i < th.backlog_frames) !sp_backlogs
         in
         (* newest first: strictly decreasing list = strictly growing time series *)
         let rec strictly_desc = function
           | a :: (b :: _ as rest) -> a > b && strictly_desc rest
           | _ -> true
         in
         if sp_backlog >= th.backlog_min_ns && strictly_desc window then
           fire f Backlog_growth ~value:(float_of_int sp_backlog)
             ~limit:(float_of_int th.backlog_min_ns)
             (Printf.sprintf "sp backlog grew %d frames to %d ns"
                th.backlog_frames sp_backlog)
       end);
      (* Ring drops: the flight recorder itself losing events. *)
      let drops =
        delta_sum f "trace_dropped_events" + delta_sum f "span_dropped_events"
      in
      if drops >= th.ring_drops then
        fire f Ring_drops ~value:(float_of_int drops)
          ~limit:(float_of_int th.ring_drops)
          (Printf.sprintf "%d trace/span events dropped in one interval" drops);
      (* Core flapping: the active-core count reversing direction too often
         inside a trailing window — the controller is oscillating instead
         of converging. Monotonic ramps never fire. *)
      (match gauge_sum f "fp_active_cores" with
      | None -> ()
      | Some active ->
        core_counts :=
          int_of_float (Float.round active)
          :: List.filteri (fun i _ -> i < th.flap_window - 1) !core_counts;
        let reversals = count_reversals (List.rev !core_counts) in
        if reversals >= th.flap_changes then begin
          fire f Core_flap
            ~value:(float_of_int reversals)
            ~limit:(float_of_int th.flap_changes)
            (Printf.sprintf "core count reversed direction %d times in %d frames"
               reversals (List.length !core_counts));
          (* Restart the window so one oscillation episode fires once. *)
          core_counts := []
        end))
    frames;
  let violations = List.rev !violations in
  let by_rule =
    List.filter_map
      (fun r ->
        match List.length (List.filter (fun v -> v.v_rule = r) violations) with
        | 0 -> None
        | n -> Some (r, n))
      all_rules
  in
  {
    frames = List.length frames;
    violations;
    by_rule;
    passed = violations = [];
  }

let violation_to_json v =
  Json.Obj
    [
      ("rule", Json.Str (rule_name v.v_rule));
      ("seq", Json.Int v.v_seq);
      ("ts", Json.Int v.v_ts);
      ("value", Json.Float v.v_value);
      ("limit", Json.Float v.v_limit);
      ("detail", Json.Str v.v_detail);
    ]

let report_to_json r =
  Json.Obj
    [
      ("frames", Json.Int r.frames);
      ("passed", Json.Bool r.passed);
      ( "by_rule",
        Json.Obj
          (List.map (fun (rule, n) -> (rule_name rule, Json.Int n)) r.by_rule)
      );
      ("violations", Json.List (List.map violation_to_json r.violations));
    ]
