module Seq32 = Tas_proto.Seq32
module Ring = Tas_buffers.Ring_buffer
module A = Flow_arena

(* Bit assignments within the arena's packed flags byte. *)
let bit_in_recovery = 0
let bit_rx_notified = 1
let bit_tx_notified = 2
let bit_tx_interest = 3
let bit_tx_timer_armed = 4
let bit_fin_received = 5
let bit_fin_sent = 6

type t = {
  mutable rx_buf : Ring.t;
  mutable tx_buf : Ring.t;
  ooo : Tas_buffers.Ooo_interval.t;
  mutable bucket : Rate_bucket.t;
  (* The Table-3 record: [slot] of [arena] while live, slot 0 of a private
     one-slot arena after [release]. *)
  mutable arena : A.t;
  mutable slot : int;
  (* Loss-recovery companion (policy kind + sender scoreboard): boxed like
     the rings and the out-of-order interval — the recovery subsystem's
     documented boxed side-table. Reno never grows it beyond the kind tag. *)
  rec_state : Tas_recovery.State.t;
  (* The pacing timer's event thunk, made by the fast path at the flow's
     first arm and reused by every later one, and the index of the core
     the current arm captured. *)
  mutable tx_timer_thunk : unit -> unit;
  mutable tx_timer_core : int;
}

exception Arena_exhausted

(* A flow's pacing thunk before the fast path installs one. *)
let no_thunk () = ()

let create ~arena ~pool ?(recovery = Tas_recovery.Policy.Reno) ?(ooo_ranges = 1)
    ~opaque ~context ~bucket ~rx_buf_size ~tx_buf_size
    ~local_port ~peer_ip ~peer_port ~peer_mac ~tx_iss ~rx_next ~window
    ~peer_wscale () =
  match A.alloc arena with
  | None -> raise Arena_exhausted
  | Some i ->
    A.set_opaque arena i opaque;
    A.set_local_port arena i local_port;
    A.set_peer_ip arena i peer_ip;
    A.set_peer_port arena i peer_port;
    A.set_peer_mac arena i peer_mac;
    A.set_peer_wscale arena i peer_wscale;
    A.set_context arena i context;
    A.set_seq arena i tx_iss;
    A.set_ack arena i rx_next;
    A.set_window arena i window;
    A.set_tx_span arena i (-1);
    A.set_rx_span arena i (-1);
    A.set_rx_size arena i rx_buf_size;
    A.set_tx_size arena i tx_buf_size;
    {
      rx_buf = Ring.Pool.take pool rx_buf_size;
      tx_buf = Ring.Pool.take pool tx_buf_size;
      ooo = Tas_buffers.Ooo_interval.create ~max_ranges:ooo_ranges ();
      bucket;
      arena;
      slot = i;
      rec_state = Tas_recovery.State.create recovery;
      tx_timer_thunk = no_thunk;
      tx_timer_core = 0;
    }

let absent =
  let sim = Tas_engine.Sim.create () in
  {
    rx_buf = Ring.closed;
    tx_buf = Ring.closed;
    ooo = Tas_buffers.Ooo_interval.create ();
    bucket = Rate_bucket.create sim (Rate_bucket.Window 0) ~burst_bytes:0;
    arena = A.create ~capacity:1 ();
    slot = 0;
    rec_state = Tas_recovery.State.create Tas_recovery.Policy.Reno;
    tx_timer_thunk = no_thunk;
    tx_timer_core = 0;
  }

(* A live handle's slot is in use in its arena; a released handle's
   private copy never is. *)
let slot t = if A.in_use t.arena t.slot then Some t.slot else None

(* Teardown: hand the payload rings back for the next connection and
   install the closed ring in their place, then move the record out of
   the shared arena into a private copy. Handles retained past teardown
   (sockets, queued context events, pacing timers) keep reading and
   writing their own final state and can never alias a recycled ring or
   slot. Disarming the recovery timers cancels a pending tail-loss probe
   or reordering timer: a flow torn down with data in flight would
   otherwise keep probing its private copy forever. *)
let release ~sim ~pool t =
  let st = t.rec_state in
  if st.Tas_recovery.State.kind <> Tas_recovery.Policy.Reno then
    Tas_recovery.State.disarm sim st;
  Ring.Pool.give pool t.rx_buf;
  Ring.Pool.give pool t.tx_buf;
  t.rx_buf <- Ring.closed;
  t.tx_buf <- Ring.closed;
  if A.in_use t.arena t.slot then begin
    t.arena <- A.detach t.arena t.slot;
    t.slot <- 0
  end

(* --- Accessors ---------------------------------------------------------- *)

let opaque t = A.get_opaque t.arena t.slot
let local_port t = A.get_local_port t.arena t.slot
let peer_ip t = A.get_peer_ip t.arena t.slot
let peer_port t = A.get_peer_port t.arena t.slot
let peer_mac t = A.get_peer_mac t.arena t.slot
let peer_wscale t = A.get_peer_wscale t.arena t.slot
let context t = A.get_context t.arena t.slot
let set_context t v = A.set_context t.arena t.slot v
let tx_sent t = A.get_tx_sent t.arena t.slot
let set_tx_sent t v = A.set_tx_sent t.arena t.slot v
let seq t = A.get_seq t.arena t.slot
let set_seq t v = A.set_seq t.arena t.slot v
let ack t = A.get_ack t.arena t.slot
let set_ack t v = A.set_ack t.arena t.slot v
let window t = A.get_window t.arena t.slot
let set_window t v = A.set_window t.arena t.slot v
let dupack_cnt t = A.get_dupack_cnt t.arena t.slot
let set_dupack_cnt t v = A.set_dupack_cnt t.arena t.slot v
let cnt_ackb t = A.get_cnt_ackb t.arena t.slot
let set_cnt_ackb t v = A.set_cnt_ackb t.arena t.slot v
let cnt_ecnb t = A.get_cnt_ecnb t.arena t.slot
let set_cnt_ecnb t v = A.set_cnt_ecnb t.arena t.slot v
let cnt_frexmits t = A.get_cnt_frexmits t.arena t.slot
let set_cnt_frexmits t v = A.set_cnt_frexmits t.arena t.slot v
let rtt_est t = A.get_rtt_est t.arena t.slot
let set_rtt_est t v = A.set_rtt_est t.arena t.slot v
let ts_recent t = A.get_ts_recent t.arena t.slot
let set_ts_recent t v = A.set_ts_recent t.arena t.slot v
let tx_span t = A.get_tx_span t.arena t.slot
let set_tx_span t v = A.set_tx_span t.arena t.slot v
let rx_span t = A.get_rx_span t.arena t.slot
let set_rx_span t v = A.set_rx_span t.arena t.slot v
let get_flag t bit = A.get_flag t.arena t.slot ~bit
let set_flag t bit v = A.set_flag t.arena t.slot ~bit v

let in_recovery t = get_flag t bit_in_recovery
let set_in_recovery t v = set_flag t bit_in_recovery v
let rx_notified t = get_flag t bit_rx_notified
let set_rx_notified t v = set_flag t bit_rx_notified v
let tx_notified t = get_flag t bit_tx_notified
let set_tx_notified t v = set_flag t bit_tx_notified v
let tx_interest t = get_flag t bit_tx_interest
let set_tx_interest t v = set_flag t bit_tx_interest v
let tx_timer_armed t = get_flag t bit_tx_timer_armed
let set_tx_timer_armed t v = set_flag t bit_tx_timer_armed v
let fin_received t = get_flag t bit_fin_received
let set_fin_received t v = set_flag t bit_fin_received v
let fin_sent t = get_flag t bit_fin_sent
let set_fin_sent t v = set_flag t bit_fin_sent v

let rx_buf t = t.rx_buf
let tx_buf t = t.tx_buf
let ooo t = t.ooo
let tx_timer_thunk t = t.tx_timer_thunk
let has_tx_timer_thunk t = t.tx_timer_thunk != no_thunk
let set_tx_timer_thunk t f = t.tx_timer_thunk <- f
let tx_timer_core t = t.tx_timer_core
let set_tx_timer_core t i = t.tx_timer_core <- i
let bucket t = t.bucket
let recovery t = t.rec_state
let recovery_kind t = t.rec_state.Tas_recovery.State.kind

(* --- Derived views ------------------------------------------------------ *)

let tuple t ~local_ip =
  {
    Tas_proto.Addr.Four_tuple.local_ip;
    local_port = local_port t;
    peer_ip = peer_ip t;
    peer_port = peer_port t;
  }

let snd_una t = Seq32.add (seq t) (-tx_sent t)

(* The next expected byte [ack] sits at the rx ring's head offset; later
   sequence numbers land deeper into the buffer window. *)
let seq_of_rx_offset t off = Seq32.add (ack t) (off - Ring.head t.rx_buf)
let rx_offset_of_seq t s = Ring.head t.rx_buf + Seq32.diff s (ack t)
let tx_available t = Ring.used t.tx_buf - tx_sent t

(* Table 3: 102 bytes. *)
let state_bytes = Flow_arena.slot_bytes

(* Refresh the arena's shadow of state operationally held in companion
   structures (ring positions, the out-of-order interval) so a slot is a
   complete Table-3 image at snapshot time. The hot path never calls this;
   dumps and tests do. *)
let sync_shadow t =
  let a = t.arena and i = t.slot in
  A.set_rx_head a i (Ring.head t.rx_buf);
  A.set_rx_tail a i (Ring.tail t.rx_buf);
  A.set_tx_head a i (Ring.head t.tx_buf);
  A.set_tx_tail a i (Ring.tail t.tx_buf);
  A.set_rx_size a i (Ring.capacity t.rx_buf);
  A.set_tx_size a i (Ring.capacity t.tx_buf);
  match Tas_buffers.Ooo_interval.interval t.ooo with
  | None ->
    A.set_ooo_start a i 0;
    A.set_ooo_len a i 0
  | Some (start, len) ->
    A.set_ooo_start a i start;
    A.set_ooo_len a i len

let to_json t =
  let module J = Tas_telemetry.Json in
  sync_shadow t;
  let bucket =
    match Rate_bucket.mode t.bucket with
    | Rate_bucket.Rate bps ->
      J.Obj [ ("mode", J.Str "rate"); ("rate_bps", J.Float bps) ]
    | Rate_bucket.Window w ->
      J.Obj [ ("mode", J.Str "window"); ("cwnd_bytes", J.Int w) ]
  in
  let ooo =
    match Tas_buffers.Ooo_interval.interval t.ooo with
    | None -> J.Null
    | Some (start, len) ->
      J.Obj [ ("start", J.Int start); ("len", J.Int len) ]
  in
  J.Obj
    ([
      ("opaque", J.Int (opaque t));
      ("context", J.Int (context t));
      ("peer", J.Str
         (Printf.sprintf "%s:%d" (Tas_proto.Addr.ipv4_to_string (peer_ip t))
            (peer_port t)));
      ("local_port", J.Int (local_port t));
      ("seq", J.Int (seq t));
      ("ack", J.Int (ack t));
      ("snd_una", J.Int (snd_una t));
      ("tx_sent", J.Int (tx_sent t));
      ("tx_avail", J.Int (tx_available t));
      ("tx_buf_used", J.Int (Ring.used t.tx_buf));
      ("tx_buf_free", J.Int (Ring.free t.tx_buf));
      ("rx_buf_used", J.Int (Ring.used t.rx_buf));
      ("rx_buf_free", J.Int (Ring.free t.rx_buf));
      ("window", J.Int (window t));
      ("dupack_cnt", J.Int (dupack_cnt t));
      ("in_recovery", J.Bool (in_recovery t));
      ("bucket", bucket);
      ("ooo", ooo);
      ("cnt_ackb", J.Int (cnt_ackb t));
      ("cnt_ecnb", J.Int (cnt_ecnb t));
      ("cnt_frexmits", J.Int (cnt_frexmits t));
      ("rtt_est_ns", J.Int (rtt_est t));
      ("fin_received", J.Bool (fin_received t));
      ("fin_sent", J.Bool (fin_sent t));
    ]
    @
    (* The recovery object appears only for SACK-class flows: Reno flows
       keep the seed's exact JSON shape (the pinned differential and seed
       digests cover this output verbatim). *)
    (match t.rec_state.Tas_recovery.State.kind with
    | Tas_recovery.Policy.Reno -> []
    | Tas_recovery.Policy.Sack | Tas_recovery.Policy.Rack_tlp ->
      [ ("recovery", Tas_recovery.State.to_json t.rec_state) ]))
