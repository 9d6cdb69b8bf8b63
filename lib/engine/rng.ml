(* The splitmix64 state lives unboxed in 8 bytes: a [mutable int64]
   field would box a fresh [int64] on every draw. Each draw reads the
   state, advances it and mixes it in registers, so once inlined into
   [int], [float] and [coin] a draw allocates nothing. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_raw t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next_raw t

let split t = of_state (next_raw t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take the top bits, which have the best distribution quality. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next_raw t) 2) in
  raw mod bound

let[@inline] float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (next_raw t) 11) in
  bound *. (raw /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_raw t) 1L = 1L

let coin t p = float t 1.0 < p

let[@inline] exponential t mean =
  let u = ref (float t 1.0) in
  if !u = 0.0 then u := epsilon_float;
  -.mean *. log !u

let pareto_bounded t ~alpha ~min_v ~max_v =
  let u = ref (float t 1.0) in
  if !u >= 1.0 then u := 1.0 -. epsilon_float;
  let l_a = min_v ** alpha and h_a = max_v ** alpha in
  let denom = 1.0 -. (!u *. (1.0 -. (l_a /. h_a))) in
  min_v /. (denom ** (1.0 /. alpha))

module Zipf = struct
  type sampler = { cdf : float array }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Rng.Zipf.create: n must be positive";
    let cdf = Array.make n 0.0 in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. (1.0 /. (float_of_int (i + 1) ** s));
      cdf.(i) <- !total
    done;
    let norm = !total in
    for i = 0 to n - 1 do
      cdf.(i) <- cdf.(i) /. norm
    done;
    { cdf }

  let draw t sampler =
    let u = float t 1.0 in
    let cdf = sampler.cdf in
    (* Binary search for the first index with cdf.(i) >= u. *)
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
end
