type autoscale = {
  policy : Tas_control.Policy.spec;
  check_interval_ns : int;
}

type t = {
  rx_buf_size : int;
  tx_buf_size : int;
  max_fast_path_cores : int;
  cc : Tas_tcp.Interval_cc.algorithm;
  initial_rate_bps : float;
  control_interval_min_ns : int;
  control_interval_fixed_ns : int option;
  timeout_intervals : int;
  dead_flow_timeout_ns : int option;
  rx_ooo_enabled : bool;
  recovery_policy : Tas_recovery.Policy.kind;
  autoscale : autoscale option;
  idle_block_ns : int;
  fp_driver_cycles : int;
  fp_rx_cycles : int;
  fp_tx_cycles : int;
  fp_ack_rx_cycles : int;
  fp_burst_size : int;
  flow_arena_capacity : int;
  sp_conn_cycles : int;
  sp_flow_control_cycles : int;
  trace_capacity : int option;
  timeline_interval_ns : int;
}

let default =
  {
    rx_buf_size = 65536;
    tx_buf_size = 65536;
    max_fast_path_cores = 4;
    cc = Tas_tcp.Interval_cc.Dctcp_rate { step_bps = 10e6 };
    initial_rate_bps = 100e6;
    control_interval_min_ns = 50_000;
    control_interval_fixed_ns = None;
    timeout_intervals = 2;
    dead_flow_timeout_ns = None;
    rx_ooo_enabled = true;
    (* Loss recovery: [Reno] is the paper's dup-ACK go-back-N machinery,
       byte-identical to the seed; [Sack] / [Rack_tlp] grow the receiver
       to 4 out-of-order intervals (advertised as SACK blocks, at most 3
       on the wire) and drive the sender scoreboard. *)
    recovery_policy = Tas_recovery.Policy.Reno;
    autoscale = None;
    idle_block_ns = 10_000_000;
    (* Table 1: TAS spends 0.09 kc driver + 0.81 kc TCP per request (one
       data RX incl. ACK generation, one data TX, one ACK RX). *)
    fp_driver_cycles = 30;
    fp_rx_cycles = 450;
    fp_tx_cycles = 260;
    fp_ack_rx_cycles = 100;
    fp_burst_size = 32;
    flow_arena_capacity = 4096;
    sp_conn_cycles = 3000;
    sp_flow_control_cycles = 80;
    trace_capacity = None;
    timeline_interval_ns = 0;
  }

let rate_mode t =
  match t.cc with
  | Tas_tcp.Interval_cc.Fixed_rate | Tas_tcp.Interval_cc.Dctcp_rate _
  | Tas_tcp.Interval_cc.Timely _ ->
    true
  | Tas_tcp.Interval_cc.Window_dctcp _ -> false
