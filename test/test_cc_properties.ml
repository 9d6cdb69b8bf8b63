(* Property tests on congestion-control invariants: windows and rates stay
   within legal bounds under arbitrary event sequences. *)

module Window_cc = Tas_tcp.Window_cc
module Interval_cc = Tas_tcp.Interval_cc

type wevent = Ack of int * bool | Frexmit | Timeout

let wevent_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun n e -> Ack (n, e)) (int_range 1 30_000) bool);
        (1, return Frexmit);
        (1, return Timeout);
      ])

let print_wevent = function
  | Ack (n, e) -> Printf.sprintf "Ack(%d,%b)" n e
  | Frexmit -> "Frexmit"
  | Timeout -> "Timeout"

let apply_wevent cc = function
  | Ack (n, e) -> Window_cc.on_ack cc ~acked:n ~ecn:e
  | Frexmit -> Window_cc.on_fast_retransmit cc
  | Timeout -> Window_cc.on_timeout cc

let window_invariants algorithm =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "window cc invariants (%s)"
         (match algorithm with
         | Window_cc.Newreno -> "newreno"
         | Window_cc.Dctcp -> "dctcp"))
    ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map print_wevent l))
       QCheck.Gen.(list_size (int_range 0 200) wevent_gen))
    (fun events ->
      let mss = 1460 in
      let cc = Window_cc.create algorithm ~mss ~initial_window:(10 * mss) in
      List.for_all
        (fun ev ->
          apply_wevent cc ev;
          let w = Window_cc.cwnd cc in
          let a = Window_cc.alpha cc in
          w >= mss && w <= max_int / 2 && a >= 0.0 && a <= 1.0 +. 1e-9)
        events)

type ievent = { acked : int; ecn_frac : float; frexmit : bool; timeout : bool }

let ievent_gen =
  QCheck.Gen.(
    let* acked = oneofl [ 0; 1_000; 100_000; 10_000_000 ] in
    let* ecn_frac = oneofl [ 0.0; 0.1; 0.5; 1.0 ] in
    let* frexmit = bool in
    let* timeout = bool in
    return { acked; ecn_frac; frexmit; timeout })

let rate_invariants algorithm name =
  QCheck.Test.make
    ~name:(Printf.sprintf "interval cc rate bounds (%s)" name)
    ~count:300
    (QCheck.make
       ~print:(fun l ->
         String.concat ";"
           (List.map
              (fun e ->
                Printf.sprintf "a=%d f=%.1f fx=%b to=%b" e.acked e.ecn_frac
                  e.frexmit e.timeout)
              l))
       QCheck.Gen.(list_size (int_range 0 100) ievent_gen))
    (fun events ->
      let t =
        Interval_cc.create algorithm ~initial:(Interval_cc.Rate_bps 1e9)
      in
      List.for_all
        (fun e ->
          let fb =
            {
              Interval_cc.acked_bytes = e.acked;
              ecn_bytes = int_of_float (float_of_int e.acked *. e.ecn_frac);
              fast_retransmits = (if e.frexmit then 1 else 0);
              timeouts = (if e.timeout then 1 else 0);
              rtt_ns = 100_000;
              interval_ns = 200_000;
            }
          in
          Interval_cc.update t fb;
          match Interval_cc.current t with
          | Interval_cc.Rate_bps r ->
            (* Never below the floor; never NaN/inf; bounded growth: at most
               doubling plus cap headroom per iteration. *)
            r >= 1e6 && Float.is_finite r && r < 1e13
          | Interval_cc.Window_bytes _ -> false)
        events)

let suite =
  [
    QCheck_alcotest.to_alcotest (window_invariants Window_cc.Newreno);
    QCheck_alcotest.to_alcotest (window_invariants Window_cc.Dctcp);
    QCheck_alcotest.to_alcotest
      (rate_invariants (Interval_cc.Dctcp_rate { step_bps = 10e6 }) "dctcp-rate");
    QCheck_alcotest.to_alcotest
      (rate_invariants
         (Interval_cc.Timely
            { t_low_ns = 50_000; t_high_ns = 500_000; addstep_bps = 10e6 })
         "timely");
    QCheck_alcotest.to_alcotest
      (rate_invariants Interval_cc.Fixed_rate "fixed");
  ]
