(* Property tests of the statistics primitives backing the telemetry
   registry: Hist quantile accuracy against exact order statistics (the
   log-bucketing promises ~2% relative bucket width), and Summary/Hist
   merge invariants (Chan parallel combination, bucket-wise sums). *)

module Stats = Tas_engine.Stats

(* Log-uniform samples over ~6 decades, all >= 1 so every sample lands in a
   real log bucket (values below 1 are clamped into bucket 0). *)
let sample_gen = QCheck.Gen.(map (fun e -> 2.0 ** e) (float_range 0.0 20.0))

let samples_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (Printf.sprintf "%.3f") l))
    QCheck.Gen.(list_size (int_range 1 400) sample_gen)

(* Same rank definition as Hist.percentile: 1-based ceil(p/100 * n). *)
let exact_percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let rank = if rank < 1 then 1 else if rank > n then n else rank in
  sorted.(rank - 1)

(* A bucket spans a 2^(1/32) =~ 2.2% ratio and the reported value is its
   geometric midpoint, so the estimate is within half a bucket (~1.1%) of
   the exact order statistic; 3% leaves slack for edge rounding. *)
let quantile_tolerance = 0.03

let hist_of values =
  let h = Stats.Hist.create () in
  List.iter (Stats.Hist.add h) values;
  h

let test_quantile_accuracy =
  QCheck.Test.make ~name:"hist percentile within bucket width" ~count:300
    samples_arb (fun values ->
      let h = hist_of values in
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      List.for_all
        (fun p ->
          let est = Stats.Hist.percentile h p in
          let exact = exact_percentile sorted p in
          abs_float (est -. exact) /. exact <= quantile_tolerance)
        [ 10.0; 50.0; 90.0; 99.0; 100.0 ])

let test_hist_mean_max =
  QCheck.Test.make ~name:"hist mean/max/count exact" ~count:200 samples_arb
    (fun values ->
      let h = hist_of values in
      let n = List.length values in
      let sum = List.fold_left ( +. ) 0.0 values in
      let mn = List.fold_left Float.min infinity values in
      let mx = List.fold_left Float.max neg_infinity values in
      Stats.Hist.count h = n
      && abs_float (Stats.Hist.mean h -. (sum /. float_of_int n))
         <= 1e-9 *. abs_float sum
      && Stats.Hist.min_v h = mn
      && Stats.Hist.max_v h = mx)

let pair_arb = QCheck.pair samples_arb samples_arb

let test_hist_merge =
  QCheck.Test.make ~name:"hist merge = hist of concatenation" ~count:200
    pair_arb (fun (xs, ys) ->
      let merged = Stats.Hist.merge (hist_of xs) (hist_of ys) in
      let direct = hist_of (xs @ ys) in
      Stats.Hist.count merged = Stats.Hist.count direct
      && List.for_all
           (fun p ->
             Stats.Hist.percentile merged p = Stats.Hist.percentile direct p)
           [ 1.0; 25.0; 50.0; 75.0; 90.0; 99.0 ]
      && abs_float (Stats.Hist.mean merged -. Stats.Hist.mean direct) <= 1e-9
      && Stats.Hist.min_v merged = Stats.Hist.min_v direct
      && Stats.Hist.max_v merged = Stats.Hist.max_v direct)

(* Samples from 1/16 up: those below 1 share bucket 0, whose midpoint lies
   above all of them, and a lone sample sits below its bucket's midpoint
   half the time. *)
let wide_samples_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (Printf.sprintf "%.5f") l))
    QCheck.Gen.(
      list_size (int_range 1 200)
        (map (fun e -> 2.0 ** e) (float_range (-4.0) 20.0)))

let test_percentile_within_range =
  QCheck.Test.make ~name:"hist percentile monotone and within [min, max]"
    ~count:300 wide_samples_arb (fun values ->
      let h = hist_of values in
      let ps = [ 0.0; 1.0; 10.0; 50.0; 90.0; 99.0; 99.9; 100.0 ] in
      let vs = List.map (Stats.Hist.percentile h) ps in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone vs
      && List.for_all
           (fun v -> Stats.Hist.min_v h <= v && v <= Stats.Hist.max_v h)
           vs)

let summary_of values =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) values;
  s

let close ?(tol = 1e-9) a b = abs_float (a -. b) <= tol *. (1.0 +. abs_float b)

let test_summary_merge =
  QCheck.Test.make ~name:"summary merge = summary of concatenation" ~count:300
    pair_arb (fun (xs, ys) ->
      let merged = Stats.Summary.merge (summary_of xs) (summary_of ys) in
      let direct = summary_of (xs @ ys) in
      Stats.Summary.count merged = Stats.Summary.count direct
      && close (Stats.Summary.mean merged) (Stats.Summary.mean direct)
      && close ~tol:1e-6 (Stats.Summary.stddev merged)
           (Stats.Summary.stddev direct)
      && Stats.Summary.min_v merged = Stats.Summary.min_v direct
      && Stats.Summary.max_v merged = Stats.Summary.max_v direct
      && close (Stats.Summary.total merged) (Stats.Summary.total direct))

let test_summary_merge_empty =
  QCheck.Test.make ~name:"summary merge with empty is identity" ~count:100
    samples_arb (fun xs ->
      let s = summary_of xs in
      let e = Stats.Summary.create () in
      let check m =
        Stats.Summary.count m = Stats.Summary.count s
        && Stats.Summary.mean m = Stats.Summary.mean s
        && Stats.Summary.max_v m = Stats.Summary.max_v s
        && Stats.Summary.total m = Stats.Summary.total s
      in
      check (Stats.Summary.merge s e) && check (Stats.Summary.merge e s))

let test_summary_merge_no_alias () =
  (* merge with an empty side must copy, not alias: mutating the result
     must not disturb the input. *)
  let s = summary_of [ 1.0; 2.0; 3.0 ] in
  let m = Stats.Summary.merge s (Stats.Summary.create ()) in
  Stats.Summary.add m 100.0;
  Alcotest.(check int) "input count untouched" 3 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "input mean untouched" 2.0 (Stats.Summary.mean s)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      test_quantile_accuracy;
      test_hist_mean_max;
      test_hist_merge;
      test_percentile_within_range;
      test_summary_merge;
      test_summary_merge_empty;
    ]
  @ [
      Alcotest.test_case "summary merge copies empty side" `Quick
        test_summary_merge_no_alias;
    ]
