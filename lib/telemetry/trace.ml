type kind =
  | Rx_data
  | Rx_ack
  | Tx_data
  | Ack_tx
  | Ooo_store
  | Payload_drop
  | Fast_rexmit
  | Timeout_rexmit
  | Conn_setup
  | Conn_teardown
  | Exception_fwd
  | Core_scale
  | Fault_drop
  | Fault_dup
  | Fault_corrupt
  | Fault_hold
  | Malformed_drop
  | Csum_drop
  | Rst_tx
  | Shard_migrate
  | Ctl_scale
  | Health_rexmit_storm
  | Health_arena_pressure
  | Health_shard_imbalance
  | Health_backlog_growth
  | Health_ring_drops
  | Health_core_flap
  | Rec_enter
  | Rec_exit
  | Rec_mark_lost
  | Rec_retransmit
  | Rec_tlp_probe
  | Rec_reo_timeout

let all_kinds =
  [
    Rx_data; Rx_ack; Tx_data; Ack_tx; Ooo_store; Payload_drop; Fast_rexmit;
    Timeout_rexmit; Conn_setup; Conn_teardown; Exception_fwd; Core_scale;
    Fault_drop; Fault_dup; Fault_corrupt; Fault_hold; Malformed_drop;
    Csum_drop; Rst_tx; Shard_migrate; Ctl_scale; Health_rexmit_storm;
    Health_arena_pressure; Health_shard_imbalance; Health_backlog_growth;
    Health_ring_drops; Health_core_flap; Rec_enter; Rec_exit; Rec_mark_lost;
    Rec_retransmit; Rec_tlp_probe; Rec_reo_timeout;
  ]

(* The ring's event code: the kind's position in [all_kinds]. *)
let code_of_kind = function
  | Rx_data -> 0
  | Rx_ack -> 1
  | Tx_data -> 2
  | Ack_tx -> 3
  | Ooo_store -> 4
  | Payload_drop -> 5
  | Fast_rexmit -> 6
  | Timeout_rexmit -> 7
  | Conn_setup -> 8
  | Conn_teardown -> 9
  | Exception_fwd -> 10
  | Core_scale -> 11
  | Fault_drop -> 12
  | Fault_dup -> 13
  | Fault_corrupt -> 14
  | Fault_hold -> 15
  | Malformed_drop -> 16
  | Csum_drop -> 17
  | Rst_tx -> 18
  | Shard_migrate -> 19
  | Ctl_scale -> 20
  | Health_rexmit_storm -> 21
  | Health_arena_pressure -> 22
  | Health_shard_imbalance -> 23
  | Health_backlog_growth -> 24
  | Health_ring_drops -> 25
  | Health_core_flap -> 26
  | Rec_enter -> 27
  | Rec_exit -> 28
  | Rec_mark_lost -> 29
  | Rec_retransmit -> 30
  | Rec_tlp_probe -> 31
  | Rec_reo_timeout -> 32

let kind_of_code = Array.of_list all_kinds

let names =
  [|
    "rx_data"; "rx_ack"; "tx_data"; "ack_tx"; "ooo_store"; "payload_drop";
    "fast_rexmit"; "timeout_rexmit"; "conn_setup"; "conn_teardown";
    "exception_fwd"; "core_scale"; "fault_drop"; "fault_dup"; "fault_corrupt";
    "fault_hold"; "malformed_drop"; "csum_drop"; "rst_tx"; "shard_migrate";
    "ctl_scale"; "health_rexmit_storm"; "health_arena_pressure";
    "health_shard_imbalance"; "health_backlog_growth"; "health_ring_drops";
    "health_core_flap"; "rec_enter"; "rec_exit"; "rec_mark_lost";
    "rec_retransmit"; "rec_tlp_probe"; "rec_reo_timeout";
  |]

let kind_name k = names.(code_of_kind k)

type event = {
  ts : Tas_engine.Time_ns.t;
  kind : kind;
  core : int;
  flow : int;
}

type t = { enabled : bool; ring : Event_ring.t }

let create ?(enabled = true) ~capacity () =
  { enabled; ring = Event_ring.create (max 1 capacity) }

let disabled () = create ~enabled:false ~capacity:1 ()

let enabled t = t.enabled
let length t = Event_ring.length t.ring
let dropped t = Event_ring.dropped t.ring
let recorded t = Event_ring.recorded t.ring

let record t ~ts ~kind ~core ~flow =
  if t.enabled then
    ignore
      (Event_ring.push t.ring ~ts ~code:(code_of_kind kind) ~id:0 ~core ~flow)

let drain t =
  Event_ring.drain t.ring (fun ~ts ~code ~id:_ ~core ~flow ->
      { ts; kind = kind_of_code.(code); core; flow })

(* Deterministic cross-ring merge: stable sort by timestamp, so events from
   the same ring keep their record order and equal-timestamp events from
   different rings order by the position of their ring in the argument. *)
let merge streams =
  List.stable_sort (fun a b -> compare a.ts b.ts) (List.concat streams)

let counts_by_kind events =
  List.map
    (fun k ->
      (k, List.length (List.filter (fun e -> e.kind = k) events)))
    all_kinds
  |> List.filter (fun (_, n) -> n > 0)
