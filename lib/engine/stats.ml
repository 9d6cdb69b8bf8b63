module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min_v : float;
    mutable max_v : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity; total = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x;
    t.total <- t.total +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean

  let stddev t =
    if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

  let min_v t = if t.n = 0 then 0.0 else t.min_v
  let max_v t = if t.n = 0 then 0.0 else t.max_v
  let total t = t.total

  (* Chan et al. parallel combination of Welford aggregates. *)
  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let fa = float_of_int a.n and fb = float_of_int b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. fb /. float_of_int n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int n) in
      {
        n;
        mean;
        m2;
        min_v = Float.min a.min_v b.min_v;
        max_v = Float.max a.max_v b.max_v;
        total = a.total +. b.total;
      }
    end
end

module Hist = struct
  (* Buckets spaced by a factor of 2^(1/32) cover [1, 2^64) with ~2% relative
     width: bucket index = 32 * log2(x). Values below 1 land in bucket 0. *)

  let buckets_per_octave = 32
  let bucket_count = 64 * buckets_per_octave

  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable min_v : float;  (* infinity while empty *)
    mutable max_v : float;
  }

  let create () =
    {
      counts = Array.make bucket_count 0;
      n = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = 0.0;
    }

  let bucket_of x =
    if x < 1.0 then 0
    else begin
      let b = int_of_float (float_of_int buckets_per_octave *. (log x /. log 2.0)) in
      if b >= bucket_count then bucket_count - 1 else b
    end

  let value_of_bucket b =
    (* Geometric midpoint of the bucket. *)
    2.0 ** ((float_of_int b +. 0.5) /. float_of_int buckets_per_octave)

  let add t x =
    let x = if x < 0.0 then 0.0 else x in
    t.counts.(bucket_of x) <- t.counts.(bucket_of x) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
  let min_v t = if t.n = 0 then 0.0 else t.min_v
  let max_v t = t.max_v

  let merge a b =
    {
      counts = Array.init bucket_count (fun i -> a.counts.(i) + b.counts.(i));
      n = a.n + b.n;
      sum = a.sum +. b.sum;
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
    }

  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let rank = p /. 100.0 *. float_of_int t.n in
      let target = int_of_float (ceil rank) in
      let target = if target < 1 then 1 else if target > t.n then t.n else target in
      let acc = ref 0 and b = ref 0 and found = ref (-1) in
      while !found < 0 && !b < bucket_count do
        acc := !acc + t.counts.(!b);
        if !acc >= target then found := !b;
        incr b
      done;
      (* A bucket's midpoint can lie outside the samples it holds. *)
      if !found < 0 then t.max_v
      else Float.min t.max_v (Float.max t.min_v (value_of_bucket !found))
    end

  let buckets t =
    let out = ref [] in
    for b = bucket_count - 1 downto 0 do
      if t.counts.(b) > 0 then out := (b, t.counts.(b)) :: !out
    done;
    !out

  let of_buckets ?sum ?min_v ?max_v pairs =
    let t = create () in
    List.iter
      (fun (b, c) ->
        if b < 0 || b >= bucket_count then
          invalid_arg (Printf.sprintf "Hist.of_buckets: bucket %d out of range" b);
        if c < 0 then
          invalid_arg (Printf.sprintf "Hist.of_buckets: negative count in bucket %d" b);
        t.counts.(b) <- t.counts.(b) + c;
        t.n <- t.n + c;
        let mid = value_of_bucket b in
        t.sum <- t.sum +. (float_of_int c *. mid);
        if c > 0 && mid < t.min_v then t.min_v <- mid;
        if mid > t.max_v then t.max_v <- mid)
      pairs;
    (match sum with Some s -> t.sum <- s | None -> ());
    (* An empty histogram's min reads 0; it must not lower a merge's min. *)
    (match min_v with Some m when t.n > 0 -> t.min_v <- m | _ -> ());
    (match max_v with Some m -> t.max_v <- m | None -> ());
    t

end

module Series = struct
  type t = { mutable rev_points : (Time_ns.t * float) list; mutable n : int }

  let create () = { rev_points = []; n = 0 }

  let add t time v =
    t.rev_points <- (time, v) :: t.rev_points;
    t.n <- t.n + 1

  let points t = List.rev t.rev_points
  let length t = t.n
end

module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
  let reset t = t.v <- 0
end
