(** Congestion-control fidelity (paper §5.5, ns-3-style simulations):
    - Fig. 11: single 10 Gbps link, RTT 100 µs, 75% load, Pareto flow sizes;
      average flow completion time and average queue length vs. the slow
      path's control interval τ, for TCP (NewReno), DCTCP (window), and TAS
      (rate-based DCTCP);
    - Fig. 12: fat-tree cluster with on-off traffic at ~30% core load; FCT
      CDFs for short (≤50 packets) and long flows. The paper's 2560-host
      cluster is scaled to a k=8 (128-host) fat tree. *)

type stack =
  | Tcp_newreno
  | Dctcp_window
  | Tas_rate of int  (** rate-based DCTCP; the int fixes the control interval τ (ns) *)
  | Tas_custom of { tau_ns : int; cc : Tas_tcp.Interval_cc.algorithm }
      (** any slow-path CC algorithm (TIMELY, window-mode DCTCP, ...) *)

type single_link_result = {
  avg_fct_ms : float;
  avg_queue_pkts : float;
  flows_completed : int;
}

val single_link : stack -> ?duration_ms:int -> unit -> single_link_result

val fig11 : ?quick:bool -> Format.formatter -> unit

type cluster_result = {
  short_fct_ms : Tas_engine.Stats.Hist.t;  (** per-flow FCT, µs *)
  long_fct_ms : Tas_engine.Stats.Hist.t;
  completed : int;
  core_utilization : float;  (** mean busy fraction of core-layer links *)
}

val cluster : stack -> ?k:int -> ?duration_ms:int -> unit -> cluster_result
val fig12 : ?quick:bool -> Format.formatter -> unit
