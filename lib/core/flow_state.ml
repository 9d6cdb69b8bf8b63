module Seq32 = Tas_proto.Seq32
module Ring = Tas_buffers.Ring_buffer
module A = Flow_arena

(* Flag-byte bit assignments, shared verbatim between the arena's packed
   flags field and the boxed fallback's int. *)
let bit_in_recovery = 0
let bit_rx_notified = 1
let bit_tx_notified = 2
let bit_tx_interest = 3
let bit_tx_timer_armed = 4
let bit_fin_received = 5
let bit_fin_sent = 6
let bit_rx_closed = 7

(* The boxed (pre-arena) backing: one GC-managed record per flow, kept as
   the reference implementation behind [Config.flow_arena_enabled = false]
   and as the landing pad for handles that outlive their arena slot. *)
type scalars = {
  s_opaque : int;
  s_local_port : int;
  s_peer_ip : int;
  s_peer_port : int;
  s_peer_mac : int;
  s_peer_wscale : int;
  mutable s_context : int;
  mutable s_tx_sent : int;
  mutable s_seq : int;
  mutable s_ack : int;
  mutable s_window : int;
  mutable s_dupack_cnt : int;
  mutable s_cnt_ackb : int;
  mutable s_cnt_ecnb : int;
  mutable s_cnt_frexmits : int;
  mutable s_rtt_est : int;
  mutable s_ts_recent : int;
  mutable s_flags : int;
  mutable s_tx_span : int;
  mutable s_rx_span : int;
}

type store = Boxed of scalars | Slot of A.t * int

type t = {
  mutable rx_buf : Ring.t;
  mutable tx_buf : Ring.t;
  ooo : Tas_buffers.Ooo_interval.t;
  mutable bucket : Rate_bucket.t;
  mutable store : store;
  (* Loss-recovery companion (policy kind + sender scoreboard): boxed in
     both backings, like the rings and the out-of-order interval — the
     recovery subsystem's documented boxed side-table. Reno never grows
     it beyond the kind tag. *)
  rec_state : Tas_recovery.State.t;
}

exception Arena_exhausted

let create ?arena ~pool ?(recovery = Tas_recovery.Policy.Reno) ?(ooo_ranges = 1)
    ~opaque ~context ~bucket ~rx_buf_size ~tx_buf_size
    ~local_port ~peer_ip ~peer_port ~peer_mac ~tx_iss ~rx_next ~window
    ~peer_wscale () =
  let store =
    match arena with
    | None ->
      Boxed
        {
          s_opaque = opaque;
          s_local_port = local_port;
          s_peer_ip = peer_ip;
          s_peer_port = peer_port;
          s_peer_mac = peer_mac;
          s_peer_wscale = peer_wscale;
          s_context = context;
          s_tx_sent = 0;
          s_seq = tx_iss;
          s_ack = rx_next;
          s_window = window;
          s_dupack_cnt = 0;
          s_cnt_ackb = 0;
          s_cnt_ecnb = 0;
          s_cnt_frexmits = 0;
          s_rtt_est = 0;
          s_ts_recent = 0;
          s_flags = 0;
          s_tx_span = -1;
          s_rx_span = -1;
        }
    | Some a -> (
      match A.alloc a with
      | None -> raise Arena_exhausted
      | Some i ->
        A.set_opaque a i opaque;
        A.set_local_port a i local_port;
        A.set_peer_ip a i peer_ip;
        A.set_peer_port a i peer_port;
        A.set_peer_mac a i peer_mac;
        A.set_peer_wscale a i peer_wscale;
        A.set_context a i context;
        A.set_seq a i tx_iss;
        A.set_ack a i rx_next;
        A.set_window a i window;
        A.set_tx_span a i (-1);
        A.set_rx_span a i (-1);
        A.set_rx_size a i rx_buf_size;
        A.set_tx_size a i tx_buf_size;
        Slot (a, i))
  in
  {
    rx_buf = Ring.Pool.take pool rx_buf_size;
    tx_buf = Ring.Pool.take pool tx_buf_size;
    ooo = Tas_buffers.Ooo_interval.create ~max_ranges:ooo_ranges ();
    bucket;
    store;
    rec_state = Tas_recovery.State.create recovery;
  }

let is_arena_backed t = match t.store with Slot _ -> true | Boxed _ -> false
let slot t = match t.store with Slot (_, i) -> Some i | Boxed _ -> None

(* Teardown: hand the payload rings back for the next connection and
   install the closed ring in their place, then materialize the scalar
   state back onto the heap and return the slot. Handles retained past
   teardown (sockets, queued context events, pacing timers) keep reading
   coherent state and can never alias a recycled ring or slot. *)
let release ~pool t =
  Ring.Pool.give pool t.rx_buf;
  Ring.Pool.give pool t.tx_buf;
  t.rx_buf <- Ring.closed;
  t.tx_buf <- Ring.closed;
  match t.store with
  | Boxed _ -> ()
  | Slot (a, i) ->
    let s =
      {
        s_opaque = A.get_opaque a i;
        s_local_port = A.get_local_port a i;
        s_peer_ip = A.get_peer_ip a i;
        s_peer_port = A.get_peer_port a i;
        s_peer_mac = A.get_peer_mac a i;
        s_peer_wscale = A.get_peer_wscale a i;
        s_context = A.get_context a i;
        s_tx_sent = A.get_tx_sent a i;
        s_seq = A.get_seq a i;
        s_ack = A.get_ack a i;
        s_window = A.get_window a i;
        s_dupack_cnt = A.get_dupack_cnt a i;
        s_cnt_ackb = A.get_cnt_ackb a i;
        s_cnt_ecnb = A.get_cnt_ecnb a i;
        s_cnt_frexmits = A.get_cnt_frexmits a i;
        s_rtt_est = A.get_rtt_est a i;
        s_ts_recent = A.get_ts_recent a i;
        s_flags = A.get_flags a i;
        s_tx_span = A.get_tx_span a i;
        s_rx_span = A.get_rx_span a i;
      }
    in
    t.store <- Boxed s;
    A.free a i

(* --- Accessors ---------------------------------------------------------- *)

let opaque t =
  match t.store with Boxed s -> s.s_opaque | Slot (a, i) -> A.get_opaque a i

let local_port t =
  match t.store with
  | Boxed s -> s.s_local_port
  | Slot (a, i) -> A.get_local_port a i

let peer_ip t =
  match t.store with Boxed s -> s.s_peer_ip | Slot (a, i) -> A.get_peer_ip a i

let peer_port t =
  match t.store with
  | Boxed s -> s.s_peer_port
  | Slot (a, i) -> A.get_peer_port a i

let peer_mac t =
  match t.store with
  | Boxed s -> s.s_peer_mac
  | Slot (a, i) -> A.get_peer_mac a i

let peer_wscale t =
  match t.store with
  | Boxed s -> s.s_peer_wscale
  | Slot (a, i) -> A.get_peer_wscale a i

let context t =
  match t.store with Boxed s -> s.s_context | Slot (a, i) -> A.get_context a i

let set_context t v =
  match t.store with
  | Boxed s -> s.s_context <- v
  | Slot (a, i) -> A.set_context a i v

let tx_sent t =
  match t.store with Boxed s -> s.s_tx_sent | Slot (a, i) -> A.get_tx_sent a i

let set_tx_sent t v =
  match t.store with
  | Boxed s -> s.s_tx_sent <- v
  | Slot (a, i) -> A.set_tx_sent a i v

let seq t =
  match t.store with Boxed s -> s.s_seq | Slot (a, i) -> A.get_seq a i

let set_seq t v =
  match t.store with
  | Boxed s -> s.s_seq <- v
  | Slot (a, i) -> A.set_seq a i v

let ack t =
  match t.store with Boxed s -> s.s_ack | Slot (a, i) -> A.get_ack a i

let set_ack t v =
  match t.store with
  | Boxed s -> s.s_ack <- v
  | Slot (a, i) -> A.set_ack a i v

let window t =
  match t.store with Boxed s -> s.s_window | Slot (a, i) -> A.get_window a i

let set_window t v =
  match t.store with
  | Boxed s -> s.s_window <- v
  | Slot (a, i) -> A.set_window a i v

let dupack_cnt t =
  match t.store with
  | Boxed s -> s.s_dupack_cnt
  | Slot (a, i) -> A.get_dupack_cnt a i

let set_dupack_cnt t v =
  match t.store with
  | Boxed s -> s.s_dupack_cnt <- v
  | Slot (a, i) -> A.set_dupack_cnt a i v

let cnt_ackb t =
  match t.store with
  | Boxed s -> s.s_cnt_ackb
  | Slot (a, i) -> A.get_cnt_ackb a i

let set_cnt_ackb t v =
  match t.store with
  | Boxed s -> s.s_cnt_ackb <- v
  | Slot (a, i) -> A.set_cnt_ackb a i v

let cnt_ecnb t =
  match t.store with
  | Boxed s -> s.s_cnt_ecnb
  | Slot (a, i) -> A.get_cnt_ecnb a i

let set_cnt_ecnb t v =
  match t.store with
  | Boxed s -> s.s_cnt_ecnb <- v
  | Slot (a, i) -> A.set_cnt_ecnb a i v

let cnt_frexmits t =
  match t.store with
  | Boxed s -> s.s_cnt_frexmits
  | Slot (a, i) -> A.get_cnt_frexmits a i

let set_cnt_frexmits t v =
  match t.store with
  | Boxed s -> s.s_cnt_frexmits <- v
  | Slot (a, i) -> A.set_cnt_frexmits a i v

let rtt_est t =
  match t.store with
  | Boxed s -> s.s_rtt_est
  | Slot (a, i) -> A.get_rtt_est a i

let set_rtt_est t v =
  match t.store with
  | Boxed s -> s.s_rtt_est <- v
  | Slot (a, i) -> A.set_rtt_est a i v

let ts_recent t =
  match t.store with
  | Boxed s -> s.s_ts_recent
  | Slot (a, i) -> A.get_ts_recent a i

let set_ts_recent t v =
  match t.store with
  | Boxed s -> s.s_ts_recent <- v
  | Slot (a, i) -> A.set_ts_recent a i v

let tx_span t =
  match t.store with Boxed s -> s.s_tx_span | Slot (a, i) -> A.get_tx_span a i

let set_tx_span t v =
  match t.store with
  | Boxed s -> s.s_tx_span <- v
  | Slot (a, i) -> A.set_tx_span a i v

let rx_span t =
  match t.store with Boxed s -> s.s_rx_span | Slot (a, i) -> A.get_rx_span a i

let set_rx_span t v =
  match t.store with
  | Boxed s -> s.s_rx_span <- v
  | Slot (a, i) -> A.set_rx_span a i v

let get_flag t bit =
  match t.store with
  | Boxed s -> s.s_flags land (1 lsl bit) <> 0
  | Slot (a, i) -> A.get_flag a i ~bit

let set_flag t bit v =
  match t.store with
  | Boxed s ->
    s.s_flags <-
      (if v then s.s_flags lor (1 lsl bit)
       else s.s_flags land lnot (1 lsl bit))
  | Slot (a, i) -> A.set_flag a i ~bit v

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
let rx_closed t = get_flag t bit_rx_closed
let set_rx_closed t v = set_flag t bit_rx_closed v

let rx_buf t = t.rx_buf
let tx_buf t = t.tx_buf
let ooo t = t.ooo
let bucket t = t.bucket
let set_bucket t b = t.bucket <- b
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
  match t.store with
  | Boxed _ -> ()
  | Slot (a, i) ->
    A.set_rx_head a i (Ring.head t.rx_buf);
    A.set_rx_tail a i (Ring.tail t.rx_buf);
    A.set_tx_head a i (Ring.head t.tx_buf);
    A.set_tx_tail a i (Ring.tail t.tx_buf);
    A.set_rx_size a i (Ring.capacity t.rx_buf);
    A.set_tx_size a i (Ring.capacity t.tx_buf);
    (match Tas_buffers.Ooo_interval.interval t.ooo with
    | None ->
      A.set_ooo_start a i 0;
      A.set_ooo_len a i 0
    | Some (start, len) ->
      A.set_ooo_start a i start;
      A.set_ooo_len a i len)

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
       keep the seed's exact JSON shape (the arena-vs-boxed differential
       battery and the seed digests compare this output verbatim). *)
    (match t.rec_state.Tas_recovery.State.kind with
    | Tas_recovery.Policy.Reno -> []
    | Tas_recovery.Policy.Sack | Tas_recovery.Policy.Rack_tlp ->
      [ ("recovery", Tas_recovery.State.to_json t.rec_state) ]))
