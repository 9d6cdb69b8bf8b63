module Sim = Tas_engine.Sim
module Interval_cc = Tas_tcp.Interval_cc

type mode = Rate of float | Window of int

(* Cells of [t.cells]. *)
let tokens_cell = 0 (* bytes *)
let rate_cell = 1 (* bits per second, when [is_rate] *)

type t = {
  sim : Sim.t;
  mutable is_rate : bool;
  mutable window : int;  (* bytes, when not [is_rate] *)
  cells : floatarray;
      (* flat storage: neither a refill on the transmit path nor a control
         install from the slow path boxes a float *)
  mutable last_refill : int;
  burst : float;
}

let create sim mode ~burst_bytes =
  let cells = Float.Array.make 2 0.0 in
  Float.Array.set cells tokens_cell (float_of_int burst_bytes);
  let is_rate, window =
    match mode with
    | Rate r ->
      Float.Array.set cells rate_cell r;
      (true, 0)
    | Window w -> (false, w)
  in
  {
    sim;
    is_rate;
    window;
    cells;
    last_refill = Sim.now sim;
    burst = float_of_int burst_bytes;
  }

let set_control t cc =
  if Interval_cc.is_rate cc then begin
    t.is_rate <- true;
    Interval_cc.load_rate cc t.cells rate_cell
  end
  else begin
    t.is_rate <- false;
    t.window <- Interval_cc.window cc
  end

let mode t =
  if t.is_rate then Rate (Float.Array.get t.cells rate_cell)
  else Window t.window

let refill t =
  let now = Sim.now t.sim in
  let dt = now - t.last_refill in
  if dt > 0 then begin
    let tok =
      Float.Array.get t.cells tokens_cell
      +. (Float.Array.get t.cells rate_cell /. 8.0 *. (float_of_int dt /. 1e9))
    in
    (* Two stores rather than one of an [if]: joining the boxed [t.burst]
       with the unboxed [tok] would box [tok] on every refill. *)
    if tok > t.burst then Float.Array.set t.cells tokens_cell t.burst
    else Float.Array.set t.cells tokens_cell tok;
    t.last_refill <- now
  end

let tx_budget t ~in_flight ~want =
  if not t.is_rate then max 0 (min want (t.window - in_flight))
  else begin
    refill t;
    let tok = Float.Array.get t.cells tokens_cell in
    let grant = min want (int_of_float tok) in
    if grant > 0 then
      Float.Array.set t.cells tokens_cell (tok -. float_of_int grant);
    max 0 grant
  end

(* Allocation-free variant used on the transmit hot path: [-1] encodes
   "no timer needed" (window mode, or tokens already available). *)
let ns_until_bytes_int t n =
  if not t.is_rate then -1
  else begin
    refill t;
    let r = Float.Array.get t.cells rate_cell in
    let deficit = float_of_int n -. Float.Array.get t.cells tokens_cell in
    if deficit <= 0.0 then -1
    else if r <= 0.0 then max_int
    else int_of_float (ceil (deficit *. 8.0 /. r *. 1e9))
  end

let ns_to_send t n =
  let r = Float.Array.get t.cells rate_cell in
  if t.is_rate && r > 0.0 then int_of_float (float_of_int (n * 8) /. r *. 1e9)
  else 0
