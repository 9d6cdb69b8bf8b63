module Sim = Tas_engine.Sim
module Rng = Tas_engine.Rng
module Packet = Tas_proto.Packet
module Ipv4_header = Tas_proto.Ipv4_header
module Trace = Tas_telemetry.Trace
module Metrics = Tas_telemetry.Metrics

type ge = { p_gb : float; p_bg : float }

type reorder = {
  reorder_rate : float;
  reorder_window : int;
  max_hold_ns : int;
}

type spec = {
  uniform_loss : float;
  ge : ge option;
  dup_rate : float;
  corrupt_rate : float;
  corrupt_header_fraction : float;
  reorder : reorder option;
  blackouts : (Tas_engine.Time_ns.t * Tas_engine.Time_ns.t) list;
}

let passthrough =
  {
    uniform_loss = 0.0;
    ge = None;
    dup_rate = 0.0;
    corrupt_rate = 0.0;
    corrupt_header_fraction = 0.0;
    reorder = None;
    blackouts = [];
  }

let uniform_loss rate = { passthrough with uniform_loss = rate }

let bursty_of_rate ~rate ~mean_burst_pkts =
  if rate <= 0.0 || rate >= 1.0 then
    invalid_arg "Fault.bursty_of_rate: rate must be in (0, 1)";
  if mean_burst_pkts < 1.0 then
    invalid_arg "Fault.bursty_of_rate: mean_burst_pkts must be >= 1";
  let p_bg = 1.0 /. mean_burst_pkts in
  let p_gb = rate *. p_bg /. (1.0 -. rate) in
  { passthrough with ge = Some { p_gb; p_bg } }

let flaps ~first_ns ~down_ns ~up_ns ~count =
  List.init count (fun i ->
      let start = first_ns + (i * (down_ns + up_ns)) in
      (start, start + down_ns))

type counters = {
  mutable offered : int;
  mutable forwarded : int;
  mutable uniform_drops : int;
  mutable burst_drops : int;
  mutable blackout_drops : int;
  mutable dups : int;
  mutable payload_corrupts : int;
  mutable header_corrupts : int;
  mutable reorder_holds : int;
}

let total_drops c = c.uniform_drops + c.burst_drops + c.blackout_drops
let total_corrupts c = c.payload_corrupts + c.header_corrupts

(* A packet held back for reordering. [remaining] counts subsequent
   first-pass deliveries that must overtake it; [released] guards against
   the count-based and timer-based release paths both firing. *)
type held_pkt = {
  h_pkt : Packet.t;
  h_deliver : Packet.t -> unit;
  mutable remaining : int;
  mutable released : bool;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  spec : spec;
  trace : Trace.t;
  c : counters;
  mutable ge_bad : bool;
  mutable held : held_pkt list;  (* oldest first *)
}

let create ?trace sim rng spec =
  {
    sim;
    rng;
    spec;
    trace = (match trace with Some tr -> tr | None -> Trace.disabled ());
    c =
      {
        offered = 0;
        forwarded = 0;
        uniform_drops = 0;
        burst_drops = 0;
        blackout_drops = 0;
        dups = 0;
        payload_corrupts = 0;
        header_corrupts = 0;
        reorder_holds = 0;
      };
    ge_bad = false;
    held = [];
  }

let spec t = t.spec
let counters t = t.c

let trace_ev t kind =
  Trace.record t.trace ~ts:(Sim.now t.sim) ~kind ~core:(-1) ~flow:(-1)

(* A top-level loop: [List.exists] would build a closure over [now] for
   every packet. *)
let rec covers now = function
  | [] -> false
  | (start, stop) :: rest -> (now >= start && now < stop) || covers now rest

let in_blackout t = covers (Sim.now t.sim) t.spec.blackouts

(* Advance the Gilbert–Elliott chain one step; the (possibly new) bad
   state drops the packet. That drop still takes its draw (a certain
   [coin]), which keeps every later draw of the stream where it is. *)
let ge_drop t g =
  (if t.ge_bad then begin
     if Rng.coin t.rng g.p_bg then t.ge_bad <- false
   end
   else if Rng.coin t.rng g.p_gb then t.ge_bad <- true);
  t.ge_bad && Rng.coin t.rng 1.0

(* Damage the packet in exchange for its reference: in place when the
   stage holds the only one, else on a private copy ([Packet.unshare]), so
   a tapped original is not retroactively corrupted. *)
let corrupt_pkt t pkt =
  let as_header =
    t.spec.corrupt_header_fraction > 0.0
    && Rng.coin t.rng t.spec.corrupt_header_fraction
  in
  if as_header then begin
    t.c.header_corrupts <- t.c.header_corrupts + 1;
    let pkt = Packet.unshare pkt in
    let ip = pkt.Packet.ip in
    ip.Ipv4_header.total_length <-
      ip.Ipv4_header.total_length + 1 + Rng.int t.rng 64;
    pkt
  end
  else begin
    t.c.payload_corrupts <- t.c.payload_corrupts + 1;
    let pkt = Packet.unshare pkt in
    let src = pkt.Packet.payload in
    if Bytes.length src > 0 then begin
      (* Damage a copy: the payload may be a buffer its creator still
         reads. *)
      let b = Bytes.copy src in
      let i = Rng.int t.rng (Bytes.length b) in
      let bit = 1 lsl Rng.int t.rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
      Packet.set_payload pkt b
    end;
    pkt.Packet.corrupt <- true;
    pkt
  end

let release t h =
  if not h.released then begin
    h.released <- true;
    t.c.forwarded <- t.c.forwarded + 1;
    h.h_deliver h.h_pkt
  end

(* Deliver a first-pass packet, then age held packets by one overtake and
   release any that are due. Releases do not recursively age other holds. *)
let pass t deliver pkt =
  t.c.forwarded <- t.c.forwarded + 1;
  deliver pkt;
  match t.held with
  | [] -> ()
  | held ->
      List.iter
        (fun h -> if not h.released then h.remaining <- h.remaining - 1)
        held;
      let due, rest =
        List.partition (fun h -> h.released || h.remaining <= 0) held
      in
      t.held <- rest;
      List.iter (release t) due

let held t = List.length (List.filter (fun h -> not h.released) t.held)

let flush t =
  let held = t.held in
  t.held <- [];
  List.iter (release t) held

let wrap t deliver pkt =
  t.c.offered <- t.c.offered + 1;
  if in_blackout t then begin
    t.c.blackout_drops <- t.c.blackout_drops + 1;
    trace_ev t Trace.Fault_drop;
    Packet.release pkt
  end
  else
    let dropped =
      match t.spec.ge with
      | Some g ->
          let d = ge_drop t g in
          if d then t.c.burst_drops <- t.c.burst_drops + 1;
          d
      | None ->
          let d =
            t.spec.uniform_loss > 0.0 && Rng.coin t.rng t.spec.uniform_loss
          in
          if d then t.c.uniform_drops <- t.c.uniform_drops + 1;
          d
    in
    if dropped then begin
      trace_ev t Trace.Fault_drop;
      Packet.release pkt
    end
    else if t.spec.corrupt_rate > 0.0 && Rng.coin t.rng t.spec.corrupt_rate
    then begin
      trace_ev t Trace.Fault_corrupt;
      pass t deliver (corrupt_pkt t pkt)
    end
    else if t.spec.dup_rate > 0.0 && Rng.coin t.rng t.spec.dup_rate then begin
      t.c.dups <- t.c.dups + 1;
      trace_ev t Trace.Fault_dup;
      (* Two deliveries of the same packet: the extra reference keeps the
         first consumer's release from recycling the payload under the
         second copy. *)
      Packet.retain pkt;
      pass t deliver pkt;
      pass t deliver pkt
    end
    else
      match t.spec.reorder with
      | Some r when r.reorder_rate > 0.0 && Rng.coin t.rng r.reorder_rate ->
          t.c.reorder_holds <- t.c.reorder_holds + 1;
          trace_ev t Trace.Fault_hold;
          let h =
            { h_pkt = pkt; h_deliver = deliver;
              remaining = max 1 r.reorder_window; released = false }
          in
          t.held <- t.held @ [ h ];
          ignore
            (Sim.schedule t.sim r.max_hold_ns (fun () ->
                 if not h.released then begin
                   t.held <- List.filter (fun x -> x != h) t.held;
                   release t h
                 end))
      | _ -> pass t deliver pkt

let register t m ?labels () =
  let c = t.c in
  let cf name help read = Metrics.counter_fn m ?labels ~help name read in
  cf "fault_offered" "packets presented to the fault stage" (fun () ->
      c.offered);
  cf "fault_forwarded" "deliveries performed by the fault stage" (fun () ->
      c.forwarded);
  cf "fault_drops_uniform" "uniform random drops" (fun () -> c.uniform_drops);
  cf "fault_drops_burst" "Gilbert-Elliott bursty drops" (fun () ->
      c.burst_drops);
  cf "fault_drops_blackout" "drops during scheduled link blackouts" (fun () ->
      c.blackout_drops);
  cf "fault_dups" "duplicate deliveries injected" (fun () -> c.dups);
  cf "fault_corrupts_payload" "payload bit-flip corruptions injected"
    (fun () -> c.payload_corrupts);
  cf "fault_corrupts_header" "IP length manglings injected" (fun () ->
      c.header_corrupts);
  cf "fault_reorder_holds" "packets held back for reordering" (fun () ->
      c.reorder_holds)
