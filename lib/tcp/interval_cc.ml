type feedback = {
  mutable acked_bytes : int;
  mutable ecn_bytes : int;
  mutable fast_retransmits : int;
  mutable timeouts : int;
  mutable rtt_ns : int;
  mutable interval_ns : int;
}

type algorithm =
  | Fixed_rate
  | Dctcp_rate of { step_bps : float }
  | Timely of { t_low_ns : int; t_high_ns : int; addstep_bps : float }
  | Window_dctcp of { mss : int }

type control = Rate_bps of float | Window_bytes of int

(* Cells of [t.cells]. *)
let rate_cell = 0 (* bits per second, when [is_rate] *)
let alpha_cell = 1 (* DCTCP marked-fraction / TIMELY gradient EWMA *)

(* The state an iteration rewrites lives flat: floats in a [floatarray],
   so no update boxes one. Local float [let]s below stay unboxed as long
   as every branch of their definition is float arithmetic — hence the
   spelled-out [min]/[max] (the polymorphic ones box their arguments,
   and [Float.min]/[Float.max] differ on signed zeros and NaN). *)
type t = {
  algorithm : algorithm;
  is_rate : bool;
  cells : floatarray;
  mutable window : int;  (* bytes, when not [is_rate] *)
  mutable slow_start : bool;
  mutable prev_rtt : int;  (* TIMELY gradient state *)
}

let dctcp_g = 1.0 /. 16.0
let min_rate_bps = 1e6 (* 1 Mbps floor keeps flows alive *)

let create algorithm ~initial =
  let cells = Float.Array.make 2 0.0 in
  match initial with
  | Rate_bps r ->
    Float.Array.set cells rate_cell r;
    { algorithm; is_rate = true; cells; window = 0; slow_start = true;
      prev_rtt = 0 }
  | Window_bytes w ->
    { algorithm; is_rate = false; cells; window = w; slow_start = true;
      prev_rtt = 0 }

let current t =
  if t.is_rate then Rate_bps (Float.Array.get t.cells rate_cell)
  else Window_bytes t.window

let is_rate t = t.is_rate
let window t = t.window
let load_rate t cells i =
  Float.Array.set cells i (Float.Array.get t.cells rate_cell)

let expect_rate t =
  if not t.is_rate then invalid_arg "Interval_cc: expected a rate"

let update_dctcp_rate t ~step_bps fb =
  expect_rate t;
  let rate = Float.Array.get t.cells rate_cell in
  (* Cap at 1.2x the achieved rate before anything else (paper §3.2). *)
  let achieved_bps =
    if fb.interval_ns = 0 then 0.0
    else float_of_int (fb.acked_bytes * 8) /. (float_of_int fb.interval_ns /. 1e9)
  in
  let rate =
    if achieved_bps > 0.0 && rate > 1.2 *. achieved_bps then 1.2 *. achieved_bps
    else rate
  in
  let fraction =
    if fb.acked_bytes = 0 then 0.0
    else float_of_int fb.ecn_bytes /. float_of_int fb.acked_bytes
  in
  let alpha =
    ((1.0 -. dctcp_g) *. Float.Array.get t.cells alpha_cell)
    +. (dctcp_g *. fraction)
  in
  Float.Array.set t.cells alpha_cell alpha;
  let rate =
    if fb.timeouts > 0 then begin
      t.slow_start <- false;
      rate /. 2.0
    end
    else if fb.fast_retransmits > 0 then begin
      t.slow_start <- false;
      rate /. 2.0
    end
    else if fraction > 0.0 then begin
      t.slow_start <- false;
      rate *. (1.0 -. (alpha /. 2.0))
    end
    else if fb.acked_bytes = 0 then
      (* Starved flow: no feedback this interval. Growing blindly would
         double rates without bound during congestion storms; hold. *)
      rate
    else if t.slow_start then rate *. 2.0
    else rate +. step_bps
  in
  (* [max min_rate_bps rate], as two stores: a helper taking [rate] as an
     argument would box it. *)
  if min_rate_bps >= rate then Float.Array.set t.cells rate_cell min_rate_bps
  else Float.Array.set t.cells rate_cell rate

let update_timely t ~t_low_ns ~t_high_ns ~addstep_bps fb =
  expect_rate t;
  let rate = Float.Array.get t.cells rate_cell in
  let beta = 0.8 and ewma = 0.3 in
  let rate =
    if fb.timeouts > 0 || fb.fast_retransmits > 0 then begin
      t.slow_start <- false;
      rate /. 2.0
    end
    else if fb.rtt_ns = 0 then rate
    else begin
      let gradient =
        if t.prev_rtt = 0 then 0.0
        else
          (* Normalized per-interval RTT gradient, EWMA-smoothed via alpha. *)
          float_of_int (fb.rtt_ns - t.prev_rtt) /. float_of_int (max 1 t.prev_rtt)
      in
      let alpha =
        ((1.0 -. ewma) *. Float.Array.get t.cells alpha_cell)
        +. (ewma *. gradient)
      in
      Float.Array.set t.cells alpha_cell alpha;
      if fb.rtt_ns < t_low_ns then begin
        if t.slow_start then rate *. 2.0 else rate +. addstep_bps
      end
      else if fb.rtt_ns > t_high_ns then begin
        t.slow_start <- false;
        rate *. (1.0 -. (beta *. (1.0 -. (float_of_int t_high_ns /. float_of_int fb.rtt_ns))))
      end
      else if alpha <= 0.0 then begin
        if t.slow_start then rate *. 2.0 else rate +. addstep_bps
      end
      else begin
        t.slow_start <- false;
        rate *. (1.0 -. (beta *. if 1.0 <= alpha then 1.0 else alpha))
      end
    end
  in
  if fb.rtt_ns > 0 then t.prev_rtt <- fb.rtt_ns;
  if min_rate_bps >= rate then Float.Array.set t.cells rate_cell min_rate_bps
  else Float.Array.set t.cells rate_cell rate

let update_window_dctcp t ~mss fb =
  if t.is_rate then invalid_arg "Interval_cc: expected a window";
  let window = t.window in
  let fraction =
    if fb.acked_bytes = 0 then 0.0
    else float_of_int fb.ecn_bytes /. float_of_int fb.acked_bytes
  in
  let alpha =
    ((1.0 -. dctcp_g) *. Float.Array.get t.cells alpha_cell)
    +. (dctcp_g *. fraction)
  in
  Float.Array.set t.cells alpha_cell alpha;
  let window =
    if fb.timeouts > 0 then begin
      t.slow_start <- false;
      mss
    end
    else if fb.fast_retransmits > 0 then begin
      t.slow_start <- false;
      window / 2
    end
    else if fraction > 0.0 then begin
      t.slow_start <- false;
      int_of_float (float_of_int window *. (1.0 -. (alpha /. 2.0)))
    end
    else if t.slow_start then window * 2
    else window + mss
  in
  t.window <- max mss window

let update t fb =
  match t.algorithm with
  | Fixed_rate -> ()
  | Dctcp_rate { step_bps } -> update_dctcp_rate t ~step_bps fb
  | Timely { t_low_ns; t_high_ns; addstep_bps } ->
    update_timely t ~t_low_ns ~t_high_ns ~addstep_bps fb
  | Window_dctcp { mss } -> update_window_dctcp t ~mss fb
