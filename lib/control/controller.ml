module Json = Tas_telemetry.Json
module Trace = Tas_telemetry.Trace
module Metrics = Tas_telemetry.Metrics

type t = {
  policy : Policy.spec;
  state : Policy.state;
  min_cores : int;
  max_cores : int;
  trace : Trace.t;
  actuate : int -> unit;
  mutable p99_probe : (unit -> float) option;
  history : Policy.decision Queue.t;
  mutable ticks : int;
  mutable scale_ups : int;
  mutable scale_downs : int;
  mutable denied_cooldown : int;
  mutable held_confirm : int;
  mutable target : int;
}

let history_limit = 256

let create ?(policy = Policy.paper_default) ?(trace = Trace.disabled ())
    ~min_cores ~max_cores ~actuate () =
  if min_cores < 1 || max_cores < min_cores then
    invalid_arg "Controller.create: need 1 <= min_cores <= max_cores";
  {
    policy;
    state = Policy.create_state ();
    min_cores;
    max_cores;
    trace;
    actuate;
    p99_probe = None;
    history = Queue.create ();
    ticks = 0;
    scale_ups = 0;
    scale_downs = 0;
    denied_cooldown = 0;
    held_confirm = 0;
    target = min_cores;
  }

let set_p99_probe t probe = t.p99_probe <- Some probe

let tick t (signals : Policy.signals) =
  t.ticks <- t.ticks + 1;
  let signals =
    match t.p99_probe with
    | Some probe when signals.Policy.s_p99_us < 0.0 ->
      { signals with Policy.s_p99_us = probe () }
    | _ -> signals
  in
  let raw_target, verdict, reason = Policy.decide t.policy t.state signals in
  let clamped = max t.min_cores (min raw_target t.max_cores) in
  (* A target the clamp collapsed back to the current count is not a scale
     action — demote so the audit trail matches what actually happened. *)
  let verdict, reason =
    if clamped = signals.Policy.s_active then
      match verdict with
      | Policy.Grow | Policy.Shrink ->
        (Policy.Hold, reason ^ " (clamped to bounds)")
      | v -> (v, reason)
    else (verdict, reason)
  in
  let target =
    if clamped = signals.Policy.s_active then signals.Policy.s_active
    else clamped
  in
  (match verdict with
  | Policy.Grow -> t.scale_ups <- t.scale_ups + 1
  | Policy.Shrink -> t.scale_downs <- t.scale_downs + 1
  | Policy.Denied_cooldown -> t.denied_cooldown <- t.denied_cooldown + 1
  | Policy.Held_confirm -> t.held_confirm <- t.held_confirm + 1
  | Policy.Hold -> ());
  if target <> signals.Policy.s_active then begin
    t.actuate target;
    Trace.record t.trace ~ts:signals.Policy.s_ts ~kind:Trace.Ctl_scale
      ~core:target ~flow:(Policy.verdict_code verdict)
  end;
  t.target <- target;
  let decision =
    {
      Policy.d_ts = signals.Policy.s_ts;
      d_active = signals.Policy.s_active;
      d_target = target;
      d_verdict = verdict;
      d_reason = reason;
      d_signals = signals;
    }
  in
  if Queue.length t.history >= history_limit then ignore (Queue.pop t.history);
  Queue.push decision t.history;
  decision

let policy t = t.policy
let min_cores t = t.min_cores
let max_cores t = t.max_cores
let target_cores t = t.target
let ticks t = t.ticks
let scale_ups t = t.scale_ups
let scale_downs t = t.scale_downs
let denied_cooldown t = t.denied_cooldown
let held_confirm t = t.held_confirm
let decisions t = List.of_seq (Queue.to_seq t.history)

let register t metrics =
  Metrics.counter_fn metrics "ctl_ticks" ~help:"controller ticks evaluated"
    (fun () -> t.ticks);
  Metrics.counter_fn metrics "ctl_scale_ups" ~help:"controller scale-up actions"
    (fun () -> t.scale_ups);
  Metrics.counter_fn metrics "ctl_scale_downs"
    ~help:"controller scale-down actions" (fun () -> t.scale_downs);
  Metrics.counter_fn metrics "ctl_denied_cooldown"
    ~help:"scale actions denied by cooldown" (fun () -> t.denied_cooldown);
  Metrics.counter_fn metrics "ctl_held_confirm"
    ~help:"shrinks held for confirmation" (fun () -> t.held_confirm);
  Metrics.gauge_fn metrics "ctl_target_cores"
    ~help:"controller target core count" (fun () -> float_of_int t.target)

let to_json t =
  Json.Obj
    [
      ("policy", Policy.spec_to_json t.policy);
      ("min_cores", Json.Int t.min_cores);
      ("max_cores", Json.Int t.max_cores);
      ("ticks", Json.Int t.ticks);
      ("scale_ups", Json.Int t.scale_ups);
      ("scale_downs", Json.Int t.scale_downs);
      ("denied_cooldown", Json.Int t.denied_cooldown);
      ("held_confirm", Json.Int t.held_confirm);
      ("target_cores", Json.Int t.target);
      ("decisions", Json.List (List.map Policy.decision_to_json (decisions t)));
    ]
