(* Unit and property tests for the discrete-event engine. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core

let test_event_ordering () =
  let sim = Sim.create () in
  let order = ref [] in
  ignore (Sim.schedule sim 300 (fun () -> order := 3 :: !order));
  ignore (Sim.schedule sim 100 (fun () -> order := 1 :: !order));
  ignore (Sim.schedule sim 200 (fun () -> order := 2 :: !order));
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "clock at last event" 300 (Sim.now sim)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let order = ref [] in
  for i = 1 to 10 do
    ignore (Sim.schedule sim 50 (fun () -> order := i :: !order))
  done;
  Sim.run sim;
  Alcotest.(check (list int))
    "FIFO among simultaneous events"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

(* Int-argument events share the plain events' clock and sequence order,
   count as fired, and hand each event its own argument, also when the
   event recycles its slot by posting again. *)
let test_post_int () =
  let sim = Sim.create () in
  let order = ref [] in
  let note tag x = order := (tag, x, Sim.now sim) :: !order in
  let rec chain x =
    note "int" x;
    if x < 3 then Sim.post_int sim 0 chain (x + 1)
  in
  let f = note "f" in
  Sim.post_int sim 20 f 7;
  Sim.post sim 10 (fun () -> note "unit" 0);
  Sim.post_int sim 10 chain 1;
  Sim.post_int sim 10 f 8;
  Sim.run sim;
  Alcotest.(check (list (triple string int int)))
    "time, then posting order"
    [ ("unit", 0, 10); ("int", 1, 10); ("f", 8, 10); ("int", 2, 10);
      ("int", 3, 10); ("f", 7, 20) ]
    (List.rev !order);
  Alcotest.(check int) "every event counted" 6 (Sim.events_fired sim);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.post_int: negative delay") (fun () ->
      Sim.post_int sim (-1) f 0)

(* A persistent function posted with a fresh argument each time allocates
   nothing once the event table has grown. *)
let test_post_int_allocation () =
  let sim = Sim.create () in
  let sum = ref 0 in
  let f x = sum := !sum + x in
  let burst () =
    for i = 1 to 1_000 do
      Sim.post_int sim (i land 63) f i
    done;
    Sim.run sim
  in
  burst ();
  let w0 = Gc.minor_words () in
  burst ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "arguments delivered" (2 * 500_500) !sum;
  Alcotest.(check (float 0.)) "0 words per event" 0. words

(* 32 chains of fire-and-forget [post] events, each re-posting one
   persistent closure: the shape of the per-packet event storm
   (serialization, propagation, core dispatch, pacing). Once the event
   table has grown, an event allocates nothing. *)
let test_post_chain_allocation () =
  let sim = Sim.create () in
  let remaining = ref 0 in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.post sim 10 tick
    end
  in
  let chains n =
    remaining := n;
    for i = 1 to 32 do
      Sim.post sim i tick
    done;
    Sim.run sim
  in
  chains 10_000;
  let e0 = Sim.events_fired sim in
  let w0 = Gc.minor_words () in
  chains 100_000;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every event fired" (100_000 + 32)
    (Sim.events_fired sim - e0);
  Alcotest.(check (float 0.)) "0 words per event" 0. words

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.schedule sim 100 (fun () -> fired := true) in
  Sim.cancel sim ev;
  Sim.run sim;
  Alcotest.(check bool) "cancelled event does not fire" false !fired;
  Alcotest.(check int) "no live events" 0 (Sim.pending sim)

let test_cancel_after_fire_is_noop () =
  let sim = Sim.create () in
  let ev = Sim.schedule sim 10 ignore in
  ignore (Sim.schedule sim 20 ignore);
  Sim.run sim;
  Sim.cancel sim ev;
  Alcotest.(check int) "live count not corrupted" 0 (Sim.pending sim)

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim (i * 100) (fun () -> incr count))
  done;
  Sim.run ~until:550 sim;
  Alcotest.(check int) "only events up to the limit" 5 !count;
  Alcotest.(check int) "clock pinned to limit" 550 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "remaining events run" 10 !count

let test_nested_scheduling () =
  let sim = Sim.create () in
  let depth = ref 0 in
  let rec nest n =
    if n > 0 then begin
      incr depth;
      ignore (Sim.schedule sim 10 (fun () -> nest (n - 1)))
    end
  in
  nest 100;
  Sim.run sim;
  Alcotest.(check int) "100 nested events" 100 !depth;
  Alcotest.(check int) "clock advanced 100 steps" 1000 (Sim.now sim)

let test_periodic () =
  let sim = Sim.create () in
  let fires = ref 0 in
  let handle = Sim.periodic sim 100 (fun () -> incr fires) in
  ignore (Sim.schedule sim 1050 (fun () -> Sim.cancel sim !handle));
  Sim.run sim;
  Alcotest.(check int) "10 periodic fires before cancel" 10 !fires

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      ignore (Sim.schedule sim (-1) ignore))

let test_many_events_heap () =
  (* Stress the heap with a pseudo-random schedule; verify global order. *)
  let sim = Sim.create () in
  let rng = Rng.create 99 in
  let last = ref (-1) in
  let monotone = ref true in
  for _ = 1 to 10_000 do
    let at = Rng.int rng 1_000_000 in
    ignore
      (Sim.schedule_at sim at (fun () ->
           if Sim.now sim < !last then monotone := false;
           last := Sim.now sim))
  done;
  Sim.run sim;
  Alcotest.(check bool) "events fired in nondecreasing time order" true !monotone

let test_run_until_never_rewinds () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim 100 ignore);
  Sim.run ~until:50 sim;
  Sim.run ~until:20 sim;
  Alcotest.(check int) "pending event: clock stays" 50 (Sim.now sim);
  Sim.run sim;
  Sim.run ~until:70 sim;
  Alcotest.(check int) "empty queue: clock stays" 100 (Sim.now sim)

let test_stale_handle () =
  let sim = Sim.create () in
  let ev = Sim.schedule sim 10 ignore in
  Alcotest.(check bool) "first event fires" true (Sim.step sim);
  (* The fired event's slot is free again; the next event takes it. *)
  let fired = ref false in
  Sim.post sim 10 (fun () -> fired := true);
  Sim.cancel sim ev;
  Alcotest.(check int) "stale cancel leaves the new event" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check bool) "new event fires" true !fired;
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim)

let test_cancel_then_pop () =
  (* A cancelled event keeps its slot until the heap pops it: an event
     queued after the cancel must not fire at the cancelled one's time. *)
  let sim = Sim.create () in
  let ev = Sim.schedule sim 100 ignore in
  Sim.cancel sim ev;
  let fired_at = ref (-1) in
  Sim.post sim 200 (fun () -> fired_at := Sim.now sim);
  Alcotest.(check int) "one pending" 1 (Sim.pending sim);
  Sim.run ~until:150 sim;
  Alcotest.(check int) "later event not yet fired" (-1) !fired_at;
  Alcotest.(check int) "still one pending" 1 (Sim.pending sim);
  Sim.cancel sim ev;
  Alcotest.(check int) "second cancel is a no-op" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "fires at its own time" 200 !fired_at;
  Alcotest.(check int) "only it fired" 1 (Sim.events_fired sim)

(* --- Differential property against a sorted-list model ------------------ *)

(* An event's action logs its id and, while its [chain] of delays lasts,
   posts the next link from inside the firing event. *)
type op =
  | Schedule of int * int list
  | Schedule_at of int * int list
  | Post of int * int list
  | Cancel of int
  | Step
  | Run_until of int

let show_op =
  let chain c = String.concat ";" (List.map string_of_int c) in
  function
  | Schedule (d, c) -> Printf.sprintf "schedule %d [%s]" d (chain c)
  | Schedule_at (d, c) -> Printf.sprintf "schedule_at +%d [%s]" d (chain c)
  | Post (d, c) -> Printf.sprintf "post %d [%s]" d (chain c)
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run ~until:now%+d" d

let gen_op =
  let open QCheck.Gen in
  let delay = int_range 0 40 in
  let chain = list_size (int_range 0 3) delay in
  frequency
    [
      (4, map2 (fun d c -> Schedule (d, c)) delay chain);
      (2, map2 (fun d c -> Schedule_at (d, c)) delay chain);
      (4, map2 (fun d c -> Post (d, c)) delay chain);
      (3, map (fun k -> Cancel k) (int_range 0 1000));
      (4, return Step);
      (2, map (fun d -> Run_until d) (int_range (-20) 60));
    ]

type model_event = {
  m_time : int;
  m_seq : int;
  m_id : int * int;
  m_chain : int list;
  mutable m_live : bool;
}

let differential ops =
  let sim = Sim.create () in
  let sim_log = ref [] in
  let rec act id chain () =
    sim_log := id :: !sim_log;
    match chain with
    | [] -> ()
    | d :: rest -> Sim.post sim d (act (fst id, snd id + 1) rest)
  in
  let clock = ref 0 and seq = ref 0 and fired = ref 0 and log = ref [] in
  let queue = ref [] in  (* sorted by (time, seq) *)
  let insert time id chain =
    let e = { m_time = time; m_seq = !seq; m_id = id; m_chain = chain; m_live = true } in
    incr seq;
    let rec ins = function
      | x :: rest when (x.m_time, x.m_seq) < (time, e.m_seq) -> x :: ins rest
      | l -> e :: l
    in
    queue := ins !queue;
    e
  in
  let rec next () =
    match !queue with
    | e :: rest when not e.m_live ->
      queue := rest;
      next ()
    | e :: _ -> Some e
    | [] -> None
  in
  let fire e =
    e.m_live <- false;
    queue := List.tl !queue;
    clock := e.m_time;
    incr fired;
    log := e.m_id :: !log;
    match e.m_chain with
    | [] -> ()
    | d :: rest -> ignore (insert (!clock + d) (fst e.m_id, snd e.m_id + 1) rest)
  in
  let live () = List.length (List.filter (fun e -> e.m_live) !queue) in
  let handles = ref [||] in
  let apply i op =
    match op with
    | Schedule (d, chain) ->
      let h = Sim.schedule sim d (act (i, 0) chain) in
      handles := Array.append !handles [| (h, insert (!clock + d) (i, 0) chain) |]
    | Schedule_at (d, chain) ->
      let h = Sim.schedule_at sim (Sim.now sim + d) (act (i, 0) chain) in
      handles := Array.append !handles [| (h, insert (!clock + d) (i, 0) chain) |]
    | Post (d, chain) ->
      Sim.post sim d (act (i, 0) chain);
      ignore (insert (!clock + d) (i, 0) chain)
    | Cancel k ->
      let n = Array.length !handles in
      if n > 0 then begin
        let h, e = !handles.(k mod n) in
        Sim.cancel sim h;
        e.m_live <- false
      end
    | Step -> (
      let more = Sim.step sim in
      match next () with
      | None -> if more then failwith "step fired on an empty model"
      | Some e ->
        if not more then failwith "step fired nothing";
        fire e)
    | Run_until d ->
      let limit = Sim.now sim + d in
      Sim.run ~until:limit sim;
      let rec drain () =
        match next () with
        | Some e when e.m_time <= limit ->
          fire e;
          drain ()
        | _ -> ()
      in
      drain ();
      clock := max !clock limit
  in
  List.for_all
    (fun (i, op) ->
      apply i op;
      Sim.now sim = !clock
      && Sim.pending sim = live ()
      && Sim.events_fired sim = !fired
      && !sim_log = !log)
    (List.mapi (fun i op -> (i, op)) ops)

let prop_sim_matches_model =
  QCheck.Test.make ~name:"sim matches a sorted-list model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
        Gen.(list_size (int_range 1 150) gen_op))
    differential

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  let ok = ref true in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then ok := false;
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then ok := false
  done;
  Alcotest.(check bool) "int and float draws in range" true !ok

(* Every draw function's first 10^4 outputs from seed 42, hashed: the
   stream is part of every seeded experiment, so any change to the
   generator's state handling shows here first. *)
let rng_stream_digests () =
  let zipf = Rng.Zipf.create ~n:1000 ~s:0.9 in
  let draws =
    [
      ("int64", fun r -> Int64.to_string (Rng.int64 r));
      ("int", fun r -> string_of_int (Rng.int r 1_000_003));
      ("float", fun r -> Printf.sprintf "%h" (Rng.float r 3.5));
      ("bool", fun r -> string_of_bool (Rng.bool r));
      ("coin", fun r -> string_of_bool (Rng.coin r 0.3));
      ("exponential", fun r -> Printf.sprintf "%h" (Rng.exponential r 2.0));
      ( "pareto_bounded",
        fun r ->
          Printf.sprintf "%h"
            (Rng.pareto_bounded r ~alpha:1.2 ~min_v:1.0 ~max_v:1e6) );
      ("split", fun r -> Int64.to_string (Rng.int64 (Rng.split r)));
      ("zipf", fun r -> string_of_int (Rng.Zipf.draw r zipf));
    ]
  in
  List.map
    (fun (name, draw) ->
      let r = Rng.create 42 in
      let b = Buffer.create 65536 in
      for _ = 1 to 10_000 do
        Buffer.add_string b (draw r);
        Buffer.add_char b ' '
      done;
      (name, Digest.to_hex (Digest.string (Buffer.contents b))))
    draws

let test_rng_stream_pinned () =
  Alcotest.(check (list (pair string string)))
    "first 10^4 draws per function"
    [
      ("int64", "99f2ea09b1b2c4b0211f978ef17843ce");
      ("int", "3e05f6f566798359af4caf2216ce1ead");
      ("float", "d52bde16bbf1e265cfc8daeb195e59ec");
      ("bool", "fe387e2b1031e372309867fcaa87ea66");
      ("coin", "42d2175c1e7a8647eac79e6ea675fe24");
      ("exponential", "4177ee3520b68b5e2a58a18514a0e8f1");
      ("pareto_bounded", "818567ed4cf0070d446a880b8287cf39");
      ("split", "4c7d1e0f6ee8fe73525ab4c86d9063ce");
      ("zipf", "dd2ab44b2ed7f1615f23538690932742");
    ]
    (rng_stream_digests ())

(* Warm draws allocate nothing: the state is updated in place and the
   [int64] temporaries stay in registers. A [float] result returned
   across a module boundary is boxed by the caller's compiler unless it
   inlines the call, which dune's default (dev) profile does not do
   across libraries: that box, 2 words, is the only cost of
   [Rng.float] here. *)
let test_rng_alloc_free () =
  let r = Rng.create 5 in
  let hits = ref 0 and sum = ref 0 and fsum = ref 0.0 in
  let w0 = Gc.minor_words () in
  let calibration = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Rng.coin r 0.25 then incr hits;
    sum := !sum + Rng.int r 1000
  done;
  let w1 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    fsum := !fsum +. Rng.float r 1.0
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "calibration" 0. calibration;
  Alcotest.(check (float 0.)) "coin and int: 0 words" 0. (w1 -. w0);
  Alcotest.(check bool) "float: at most the result box" true
    (w2 -. w1 <= 20_000.);
  Alcotest.(check bool) "draws were used" true
    (!hits > 0 && !sum > 0 && !fsum > 0.0)

let test_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "exponential mean ~5 (got %.3f)" mean)
    true
    (abs_float (mean -. 5.0) < 0.15)

let test_zipf_skew () =
  let rng = Rng.create 13 in
  let sampler = Rng.Zipf.create ~n:1000 ~s:0.9 in
  let counts = Array.make 1000 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Rng.Zipf.draw rng sampler in
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank-0 frequency should dominate and roughly follow 1/k^0.9. *)
  Alcotest.(check bool) "rank 0 most frequent" true (counts.(0) > counts.(10));
  let ratio = float_of_int counts.(0) /. float_of_int (max 1 counts.(9)) in
  let expected = 10.0 ** 0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "zipf ratio plausible (got %.2f, want ~%.2f)" ratio expected)
    true
    (ratio > expected /. 2.0 && ratio < expected *. 2.0)

let test_pareto_bounds () =
  let rng = Rng.create 17 in
  let ok = ref true in
  for _ = 1 to 10_000 do
    let v = Rng.pareto_bounded rng ~alpha:1.2 ~min_v:1.0 ~max_v:1000.0 in
    if v < 1.0 || v > 1000.0 +. 1e-9 then ok := false
  done;
  Alcotest.(check bool) "bounded pareto stays in bounds" true !ok

(* --- Stats --------------------------------------------------------------- *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Summary.min_v s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.Summary.max_v s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Stats.Summary.stddev s);
  Alcotest.(check int) "count" 5 (Stats.Summary.count s)

let test_hist_percentiles () =
  let h = Stats.Hist.create () in
  for i = 1 to 1000 do
    Stats.Hist.add h (float_of_int i)
  done;
  let p50 = Stats.Hist.percentile h 50.0 in
  let p99 = Stats.Hist.percentile h 99.0 in
  (* Log buckets have ~2% relative error. *)
  Alcotest.(check bool)
    (Printf.sprintf "p50 ~500 (got %.1f)" p50)
    true
    (p50 > 450.0 && p50 < 550.0);
  Alcotest.(check bool)
    (Printf.sprintf "p99 ~990 (got %.1f)" p99)
    true
    (p99 > 930.0 && p99 < 1050.0)

let test_hist_empty () =
  let h = Stats.Hist.create () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0
    (Stats.Hist.percentile h 99.0)

let test_series_order () =
  let s = Stats.Series.create () in
  Stats.Series.add s 10 1.0;
  Stats.Series.add s 20 2.0;
  Stats.Series.add s 30 3.0;
  Alcotest.(check int) "length" 3 (Stats.Series.length s);
  let times = List.map fst (Stats.Series.points s) in
  Alcotest.(check (list int)) "insertion order" [ 10; 20; 30 ] times

(* --- QCheck properties ---------------------------------------------------- *)

let prop_hist_percentile_monotone =
  QCheck.Test.make ~name:"hist percentiles are monotone in p" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 0.0 1e6))
    (fun samples ->
      let h = Stats.Hist.create () in
      List.iter (Stats.Hist.add h) samples;
      let ps = [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0 ] in
      let vals = List.map (Stats.Hist.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

let prop_summary_mean_bounded =
  QCheck.Test.make ~name:"summary mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range (-1e6) 1e6))
    (fun samples ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) samples;
      Stats.Summary.mean s >= Stats.Summary.min_v s -. 1e-6
      && Stats.Summary.mean s <= Stats.Summary.max_v s +. 1e-6)

let test_time_pp () =
  let render t = Format.asprintf "%a" Time_ns.pp t in
  Alcotest.(check string) "ns" "999ns" (render 999);
  Alcotest.(check string) "us" "1.50us" (render 1500);
  Alcotest.(check string) "ms" "2.00ms" (render (Time_ns.ms 2));
  Alcotest.(check string) "s" "3.000s" (render (Time_ns.sec 3))

(* --- Core work queues -------------------------------------------------- *)

type core_op =
  | Submit of int * int  (* queue, cycles *)
  | Work of int * int  (* [run_after] delay (0: [run]), cycles *)
  | Advance of int  (* [Sim.run ~until:(now + d)] *)

let show_core_op = function
  | Submit (q, c) -> Printf.sprintf "submit q%d ~cycles:%d" q c
  | Work (0, c) -> Printf.sprintf "run ~cycles:%d" c
  | Work (d, c) -> Printf.sprintf "run_after ~delay:%d ~cycles:%d" d c
  | Advance d -> Printf.sprintf "advance %d" d

let gen_core_op =
  let open QCheck.Gen in
  let cycles = frequency [ (1, return 0); (3, int_range 1 300) ] in
  frequency
    [
      (6, map2 (fun q c -> Submit (q, c)) (int_range 0 2) cycles);
      (2, map (fun c -> Work (0, c)) cycles);
      (2, map2 (fun d c -> Work (d, c)) (int_range 1 500) cycles);
      (1, map (fun d -> Advance d) (int_range 0 400));
    ]

(* One script on one core; returns every item's (time, queue, item) in
   firing order, queue -1 for plain work. Submissions go through [queues]
   work queues, or, in the [twin] run, through one [Core.run] closure
   each. *)
let core_queue_log ~queues ~twin ops =
  let sim = Sim.create () in
  let core = Core.create sim ~id:0 () in
  let log = ref [] in
  let record q i = log := (Sim.now sim, q, i) :: !log in
  let qs =
    Array.init queues (fun q ->
        let wq = Core.queue core ~dummy:(-1) in
        Core.set_handler wq (record q);
        wq)
  in
  List.iteri
    (fun i op ->
      match op with
      | Submit (q, cycles) ->
        let q = q mod queues in
        if twin then Core.run core ~cycles (fun () -> record q i)
        else Core.submit qs.(q) ~cycles i
      | Work (0, cycles) -> Core.run core ~cycles (fun () -> record (-1) i)
      | Work (delay, cycles) ->
        Core.run_after core ~delay ~cycles (fun () -> record (-1) i)
      | Advance d -> Sim.run ~until:(Sim.now sim + d) sim)
    ops;
  Sim.run sim;
  List.rev !log

let prop_core_queue_matches_closures =
  QCheck.Test.make ~name:"work queues fire as closure Core.run" ~count:300
    QCheck.(
      make
        ~print:(fun (queues, ops) ->
          String.concat "\n"
            (Printf.sprintf "%d queues" queues :: List.map show_core_op ops))
        Gen.(pair (int_range 2 3) (list_size (int_range 1 120) gen_core_op)))
    (fun (queues, ops) ->
      let items =
        List.length (List.filter (function Advance _ -> false | _ -> true) ops)
      in
      let log = core_queue_log ~queues ~twin:false ops in
      List.length log = items && log = core_queue_log ~queues ~twin:true ops)

(* Once the queue's FIFO has grown, a submission allocates nothing: no
   closure, and no option for the constant category. *)
let test_core_queue_allocation () =
  let sim = Sim.create () in
  let core = Core.create sim ~id:0 () in
  let sum = ref 0 in
  let q = Core.queue core ~dummy:0 in
  Core.set_handler q (fun x -> sum := !sum + x);
  let burst () =
    for i = 1 to 1_000 do
      Core.submit q ~cat:Core.Tx ~cycles:(i land 7) i
    done;
    Sim.run sim
  in
  burst ();
  let w0 = Gc.minor_words () in
  burst ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "items delivered" (2 * 500_500) !sum;
  Alcotest.(check (float 0.)) "0 words per submission" 0. words

let suite =
  [
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "int-argument events" `Quick test_post_int;
    Alcotest.test_case "int-argument events allocate nothing" `Quick
      test_post_int_allocation;
    Alcotest.test_case "posted event chains allocate nothing" `Quick
      test_post_chain_allocation;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire_is_noop;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "periodic" `Quick test_periodic;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "10k random events stay ordered" `Quick test_many_events_heap;
    Alcotest.test_case "run ~until never rewinds the clock" `Quick
      test_run_until_never_rewinds;
    Alcotest.test_case "stale handle after slot reuse" `Quick test_stale_handle;
    Alcotest.test_case "cancelled slot freed only when popped" `Quick
      test_cancel_then_pop;
    QCheck_alcotest.to_alcotest prop_sim_matches_model;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng streams pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "rng draws allocate nothing" `Quick test_rng_alloc_free;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "bounded pareto bounds" `Quick test_pareto_bounds;
    Alcotest.test_case "summary stats" `Quick test_summary;
    Alcotest.test_case "histogram percentiles" `Quick test_hist_percentiles;
    Alcotest.test_case "empty histogram" `Quick test_hist_empty;
    Alcotest.test_case "series order" `Quick test_series_order;
    Alcotest.test_case "time pretty-printing" `Quick test_time_pp;
    QCheck_alcotest.to_alcotest prop_hist_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_summary_mean_bounded;
    QCheck_alcotest.to_alcotest prop_core_queue_matches_closures;
    Alcotest.test_case "warm work-queue submissions allocate nothing" `Quick
      test_core_queue_allocation;
  ]
