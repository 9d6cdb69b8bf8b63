module Sim = Tas_engine.Sim
module Nic = Tas_netsim.Nic
module Addr = Tas_proto.Addr
module Seq32 = Tas_proto.Seq32
module Packet = Tas_proto.Packet
module Tcp_header = Tas_proto.Tcp_header
module Ipv4_header = Tas_proto.Ipv4_header
module Window_cc = Tas_tcp.Window_cc
module Rtt = Tas_tcp.Rtt
module Ring = Tas_buffers.Ring_buffer
module Ooo = Tas_buffers.Ooo_interval
module Buf_pool = Tas_buffers.Buf_pool

type config = {
  rx_buf : int;
  tx_buf : int;
  algorithm : Window_cc.algorithm;
  initial_rto_ns : int;
}

let default_config =
  {
    rx_buf = 65535;
    tx_buf = 65535;
    algorithm = Window_cc.Dctcp;
    initial_rto_ns = 10_000_000;
  }

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

module Tbl = Addr.Four_tuple.Tbl

type conn = {
  stack : t;
  tuple : Addr.Four_tuple.t;
  mutable cb : callbacks;
  mutable state : state;
  (* Send side. *)
  iss : Seq32.t;
  tx : Ring.t;
  mutable snd_una : Seq32.t;
  mutable snd_nxt : Seq32.t;
  mutable snd_max : Seq32.t;  (* highest sequence ever sent *)
  mutable snd_wnd : int;
  cc : Window_cc.t;
  rtt : Rtt.t;
  mutable timer : Sim.event;
      (* the RTO, or TIME_WAIT's end; [Sim.no_event] while unarmed *)
  mutable fire : unit -> unit;
      (* set once, by [new_conn]: a [let rec] record is allocated twice *)
  mutable syn_retx : int;  (* SYN or SYN-ACK retransmissions so far *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover_seq : Seq32.t;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  (* Receive side. *)
  mutable rcv_nxt : Seq32.t;
  ooo : Ooo.t;
  rx : Ring.t;
      (* out-of-order payload, at stream offset [head + (seq - rcv_nxt)];
         it holds a store only while it holds bytes *)
  mutable ts_recent : int;
  mutable peer_wscale : int;
  mutable acked_total : int;  (* payload bytes acknowledged *)
}

and callbacks = {
  on_connected : conn -> unit;
  on_receive : conn -> bytes -> unit;
  on_sendable : conn -> int -> unit;
  on_closed : conn -> unit;
  on_connect_failed : conn -> unit;
}

and t = {
  sim : Sim.t;
  nic : Nic.t;
  config : config;
  conns : conn Tbl.t;
  probe : Addr.Four_tuple.t;
      (* scratch lookup key of [handle_packet]; never stored *)
  listeners : (int, conn -> callbacks) Hashtbl.t;
  mutable next_ephemeral : int;
  mutable next_iss : int;
}

let null_callbacks =
  {
    on_connected = (fun _ -> ());
    on_receive = (fun _ _ -> ());
    on_sendable = (fun _ _ -> ());
    on_closed = (fun _ -> ());
    on_connect_failed = (fun _ -> ());
  }

let create sim nic config =
  {
    sim;
    nic;
    config;
    conns = Tbl.create 256;
    probe = Addr.Four_tuple.probe ();
    listeners = Hashtbl.create 16;
    next_ephemeral = 32768;
    next_iss = 1000;
  }

let tuple c = c.tuple
let bytes_acked c = c.acked_total
let cwnd c = Window_cc.cwnd c.cc
let set_callbacks c cb = c.cb <- cb
let connection_count t = Tbl.length t.conns
let tx_free c = Ring.free c.tx
let rx_backed c = Ring.backed c.rx

(* First data byte's stream offset 0 corresponds to sequence iss+1. *)
let offset_of_seq c seq = Seq32.diff seq (Seq32.add c.iss 1)

let now_us t = Sim.now t.sim / 1000

let ecn_capable t =
  match t.config.algorithm with Window_cc.Dctcp -> true | Window_cc.Newreno -> false

(* --- Packet emission ------------------------------------------------- *)

(* The SYN options, held once so that refilling a pooled header boxes
   nothing. *)
let syn_mss = Some Tcp_header.mss
let syn_wscale = Some Tcp_header.wscale

let syn_flags = { Tcp_header.no_flags with syn = true }
let syn_ack_flags = { Tcp_header.no_flags with syn = true; ack = true }
let ack_flags_ece = { Tcp_header.ack_flags with ece = true }
let fin_ack_flags = { Tcp_header.ack_flags with fin = true }

(* Every segment is a packet of the NIC's pool, refilled in place; a
   payload of at least [Buf_pool.min_len] bytes is the packet's own and
   goes back to the buffer pool with its last release. *)
let emit c ~flags ~seq payload =
  let t = c.stack in
  let syn = flags.Tcp_header.syn in
  let pkt = Packet.take (Nic.packet_pool t.nic) in
  (* SYN segments advertise the unscaled window and carry the MSS and
     wscale options; everything else advertises rx_buf >> wscale. *)
  Tcp_header.fill pkt.Packet.tcp
    ?mss:(if syn then syn_mss else None)
    ?wscale:(if syn then syn_wscale else None)
    ~src_port:c.tuple.Addr.Four_tuple.local_port
    ~dst_port:c.tuple.Addr.Four_tuple.peer_port ~seq
    ~ack:(if flags.Tcp_header.ack then c.rcv_nxt else 0)
    ~flags
    ~window:
      (if syn then min 65535 t.config.rx_buf
       else min 65535 (t.config.rx_buf asr Tcp_header.wscale))
    ~ts_val:(now_us t land 0xFFFF_FFFF) ~ts_ecr:c.ts_recent;
  let ecn =
    if Bytes.length payload > 0 && ecn_capable t then Ipv4_header.Ect0
    else Ipv4_header.Not_ect
  in
  Packet.fill pkt ~src_mac:(Nic.mac t.nic)
    ~dst_mac:(Addr.host_mac (Addr.host_id_of_ip c.tuple.Addr.Four_tuple.peer_ip))
    ~src_ip:c.tuple.Addr.Four_tuple.local_ip
    ~dst_ip:c.tuple.Addr.Four_tuple.peer_ip ~ecn ~payload;
  if Bytes.length payload >= Buf_pool.min_len then Packet.mark_pooled pkt;
  Nic.transmit t.nic pkt

(* CE marks observed on received data are echoed on the ACK for that data —
   per-packet echo, the behaviour DCTCP requires. *)
let send_ack ?(ece = false) c =
  emit c
    ~flags:(if ece then ack_flags_ece else Tcp_header.ack_flags)
    ~seq:c.snd_nxt Bytes.empty

(* SYN while connecting, SYN-ACK while accepting. *)
let send_syn c =
  emit c
    ~flags:(if c.state = Syn_sent then syn_flags else syn_ack_flags)
    ~seq:c.iss Bytes.empty

(* --- The connection timer ------------------------------------------- *)

(* One timer per connection, re-armed in place with the connection's own
   [fire]: the RTO while data, a SYN or a FIN is outstanding, then the end
   of TIME_WAIT. *)
let rto_armed c = c.timer != Sim.no_event

let cancel_rto c =
  Sim.cancel c.stack.sim c.timer;
  c.timer <- Sim.no_event

let arm c dt =
  Sim.cancel c.stack.sim c.timer;
  c.timer <- Sim.schedule c.stack.sim dt c.fire

let remove_conn c =
  cancel_rto c;
  c.state <- Closed;
  Ooo.reset c.ooo;
  Ring.reset c.rx;
  Tbl.remove c.stack.conns c.tuple

(* SYN or SYN-ACK retransmissions before the handshake is given up:
   Linux's [tcp_syn_retries]. *)
let syn_retries = 6

(* A connect the peer refused or never answered fails; a passive
   handshake that ran out of retries goes silently. *)
let fail_handshake c =
  let connecting = c.state = Syn_sent in
  remove_conn c;
  if connecting then c.cb.on_connect_failed c

let rec arm_rto c = arm c (Rtt.rto_ns c.rtt)

and rto_fire c =
  c.timer <- Sim.no_event;
  match c.state with
  | Closed -> ()
  | Time_wait -> remove_conn c
  | Syn_sent | Syn_received ->
    if c.syn_retx >= syn_retries then fail_handshake c
    else begin
      c.syn_retx <- c.syn_retx + 1;
      Rtt.backoff c.rtt;
      send_syn c;
      arm_rto c
    end
  | _ ->
    if Seq32.lt c.snd_una c.snd_nxt then begin
      (* Timeout: collapse to go-back-N from snd_una. *)
      Window_cc.on_timeout c.cc;
      Rtt.backoff c.rtt;
      c.in_recovery <- false;
      c.dupacks <- 0;
      c.snd_nxt <- c.snd_una;
      if c.fin_sent then c.fin_sent <- false;
      try_send c;
      if not (rto_armed c) then arm_rto c
    end

(* --- Send path --------------------------------------------------------- *)

and send_segment c seq len =
  let payload = Buf_pool.take (Buf_pool.local ()) len in
  Ring.read_at c.tx ~pos:(offset_of_seq c seq) ~dst:payload ~dst_off:0 ~len;
  emit c ~flags:Tcp_header.data_flags ~seq payload

and try_send c =
  match c.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack ->
    let continue = ref true in
    while !continue do
      let in_flight = Seq32.diff c.snd_nxt c.snd_una in
      let wnd = min (Window_cc.cwnd c.cc) (max c.snd_wnd Tcp_header.mss) in
      let budget = wnd - in_flight in
      let avail = Ring.head c.tx - offset_of_seq c c.snd_nxt in
      if avail > 0 && budget > 0 then begin
        let len = min Tcp_header.mss (min avail budget) in
        send_segment c c.snd_nxt len;
        c.snd_nxt <- Seq32.add c.snd_nxt len;
        c.snd_max <- Seq32.max_s c.snd_max c.snd_nxt;
        if not (rto_armed c) then arm_rto c
      end
      else begin
        continue := false;
        (* All data sent: emit a queued FIN if the window allows. *)
        if avail <= 0 && c.fin_queued && not c.fin_sent && budget > 0 then begin
          emit c ~flags:fin_ack_flags ~seq:c.snd_nxt Bytes.empty;
          c.snd_nxt <- Seq32.add c.snd_nxt 1;
          c.snd_max <- Seq32.max_s c.snd_max c.snd_nxt;
          c.fin_sent <- true;
          if not (rto_armed c) then arm_rto c
        end
      end
    done
  | Syn_sent | Syn_received | Fin_wait_2 | Time_wait | Closed -> ()

(* --- Connection teardown ---------------------------------------------- *)

let enter_time_wait c =
  c.state <- Time_wait;
  (* Abbreviated TIME_WAIT: datacenter RTTs make 2MSL of 1 ms plenty for
     the simulation; keeps 96K-connection churn experiments bounded. *)
  arm c 1_000_000

(* --- Receive path ------------------------------------------------------ *)

let deliver c chunk =
  c.rcv_nxt <- Seq32.add c.rcv_nxt (Bytes.length chunk);
  c.cb.on_receive c chunk

(* Copy the last verdict's extent of the segment into the ring. The
   application consumes delivered bytes at once, so the window is always
   the whole receive buffer and the ring's head stands for [rcv_nxt]. *)
let deposit c payload seq =
  let at = Ooo.write_at c.ooo in
  Ring.write_at c.rx
    ~pos:(Ring.head c.rx + Seq32.diff at c.rcv_nxt)
    payload ~off:(Seq32.diff at seq) ~len:(Ooo.write_len c.ooo)

(* Reassembly as the TAS fast path does it: an interval set decides, and
   out-of-order bytes wait in the connection's receive ring, which holds a
   store only while it holds bytes. In-order data with nothing stored goes
   straight from the packet. *)
let process_payload c pkt ~ce =
  let payload = pkt.Packet.payload in
  let seg_len = Bytes.length payload in
  if seg_len > 0 then begin
    let seq = pkt.Packet.tcp.Tcp_header.seq in
    let window = c.stack.config.rx_buf in
    let n = Ooo.in_order c.ooo ~exp:c.rcv_nxt ~window ~seg_start:seq ~seg_len in
    if n > 0 then deliver c (Bytes.sub payload 0 n)
    else begin
      match Ooo.handle c.ooo ~exp:c.rcv_nxt ~window ~seg_start:seq ~seg_len with
      | Ooo.Deliver when not (Ring.backed c.rx) ->
        (* Nothing stored: the run is the segment's own bytes. *)
        deliver c
          (Bytes.sub payload
             (Seq32.diff (Ooo.write_at c.ooo) seq)
             (Ooo.write_len c.ooo))
      | Ooo.Deliver ->
        deposit c payload seq;
        let adv = Ooo.advance c.ooo in
        Ring.advance_head c.rx adv;
        let chunk = Bytes.create adv in
        ignore (Ring.pop c.rx ~dst:chunk ~dst_off:0 ~len:adv);
        (* Bytes of evicted ranges may remain beyond [head]: with no range
           left, drop them with the store. *)
        if Ooo.is_empty c.ooo then Ring.reset c.rx;
        deliver c chunk
      | Ooo.Store -> deposit c payload seq
      | Ooo.Duplicate | Ooo.Drop -> ()
    end;
    send_ack ~ece:ce c
  end

let process_ack c (tcp : Tcp_header.t) ~payload_len =
  if tcp.Tcp_header.flags.Tcp_header.ack then begin
    let ack = tcp.Tcp_header.ack in
    c.snd_wnd <-
      (if tcp.Tcp_header.flags.Tcp_header.syn then tcp.Tcp_header.window
       else tcp.Tcp_header.window lsl c.peer_wscale);
    if Seq32.gt ack c.snd_una && Seq32.leq ack c.snd_max then begin
      (* After a timeout collapsed snd_nxt, an ACK for data the receiver
         already buffered can exceed snd_nxt: fast-forward. *)
      if Seq32.gt ack c.snd_nxt then c.snd_nxt <- ack;
      let acked = Seq32.diff ack c.snd_una in
      (* Data bytes acked excludes SYN/FIN sequence slots. *)
      let una_off = offset_of_seq c c.snd_una in
      let ack_off = offset_of_seq c ack in
      let data_acked =
        let lo = max 0 una_off and hi = min ack_off (Ring.head c.tx) in
        max 0 (hi - lo)
      in
      if data_acked > 0 && Ring.tail c.tx < Ring.head c.tx then
        Ring.advance_tail c.tx (min data_acked (Ring.used c.tx));
      c.snd_una <- ack;
      c.acked_total <- c.acked_total + data_acked;
      c.dupacks <- 0;
      (* RTT sample from the echoed timestamp. *)
      (let ecr = tcp.Tcp_header.ts_ecr in
       if tcp.Tcp_header.has_ts && ecr > 0 then begin
         let rtt_ns = (now_us c.stack - ecr) * 1000 in
         if rtt_ns >= 0 then begin
           Rtt.sample c.rtt rtt_ns;
           Rtt.reset_backoff c.rtt
         end
       end);
      if c.in_recovery && Seq32.geq ack c.recover_seq then
        c.in_recovery <- false
      else if c.in_recovery then begin
        (* NewReno partial ACK: the next hole starts at the new snd_una. *)
        let avail = Ring.head c.tx - offset_of_seq c c.snd_una in
        let len = min Tcp_header.mss avail in
        if len > 0 then send_segment c c.snd_una len
      end;
      if acked > 0 && not c.in_recovery then
        Window_cc.on_ack c.cc ~acked ~ecn:tcp.Tcp_header.flags.Tcp_header.ece;
      if Seq32.lt c.snd_una c.snd_nxt then arm_rto c else cancel_rto c;
      if data_acked > 0 then c.cb.on_sendable c data_acked;
      try_send c
    end
    else if
      ack = c.snd_una && payload_len = 0
      && Seq32.lt c.snd_una c.snd_nxt
      && not tcp.Tcp_header.flags.Tcp_header.syn
      && not tcp.Tcp_header.flags.Tcp_header.fin
    then begin
      c.dupacks <- c.dupacks + 1;
      if c.dupacks = 3 && not c.in_recovery then begin
        (* Fast retransmit. *)
        c.in_recovery <- true;
        c.recover_seq <- c.snd_nxt;
        Window_cc.on_fast_retransmit c.cc;
        let avail = Ring.head c.tx - offset_of_seq c c.snd_una in
        let len = min Tcp_header.mss avail in
        if len > 0 then send_segment c c.snd_una len;
        arm_rto c
      end
    end
  end

(* --- Per-state packet dispatch ----------------------------------------- *)

let handle_established c pkt (tcp : Tcp_header.t) =
  let flags = tcp.Tcp_header.flags in
  let ce = pkt.Packet.ip.Ipv4_header.ecn = Ipv4_header.Ce in
  if tcp.Tcp_header.has_ts then c.ts_recent <- tcp.Tcp_header.ts_val;
  (* A retransmitted SYN-ACK means our handshake ACK was lost: re-ack. *)
  if flags.Tcp_header.syn then send_ack c;
  process_ack c tcp ~payload_len:(Bytes.length pkt.Packet.payload);
  if c.state <> Closed then begin
    process_payload c pkt ~ce;
    (* FIN processing: only when it is in order. *)
    let fin_seq = Seq32.add tcp.Tcp_header.seq (Bytes.length pkt.Packet.payload) in
    if flags.Tcp_header.fin && fin_seq = c.rcv_nxt then begin
      c.rcv_nxt <- Seq32.add c.rcv_nxt 1;
      send_ack c;
      match c.state with
      | Established ->
        c.state <- Close_wait;
        c.cb.on_closed c
      | Fin_wait_1 ->
        (* Our FIN not yet acked: simultaneous close. *)
        c.state <- Closing
      | Fin_wait_2 -> enter_time_wait c
      | _ -> ()
    end
  end

let handle_fin_ack c =
  (* Called when snd_una advanced; check whether our FIN is acked. *)
  if c.fin_sent && c.snd_una = c.snd_nxt then
    match c.state with
    | Fin_wait_1 -> c.state <- Fin_wait_2
    | Closing -> enter_time_wait c
    | Last_ack -> remove_conn c
    | _ -> ()

(* Initial congestion window: 10 segments. *)
let initial_window = 10 * Tcp_header.mss

let new_conn t tuple ~cb ~state ~snd_wnd ~rcv_nxt ~ts_recent ~peer_wscale =
  let iss = Seq32.of_int (t.next_iss * 64021) in
  t.next_iss <- t.next_iss + 1;
  let c =
    {
      stack = t;
      tuple;
      cb;
      state;
      iss;
      tx = Ring.create t.config.tx_buf;
      snd_una = iss;
      snd_nxt = Seq32.add iss 1;
      snd_max = Seq32.add iss 1;
      snd_wnd;
      cc =
        Window_cc.create t.config.algorithm ~mss:Tcp_header.mss ~initial_window;
      rtt = Rtt.create ~initial_rto_ns:t.config.initial_rto_ns ();
      timer = Sim.no_event;
      fire = ignore;
      syn_retx = 0;
      dupacks = 0;
      in_recovery = false;
      recover_seq = iss;
      fin_queued = false;
      fin_sent = false;
      rcv_nxt;
      ooo = Ooo.create ~max_ranges:((t.config.rx_buf / Tcp_header.mss) + 1) ();
      rx = Ring.create t.config.rx_buf;
      ts_recent;
      peer_wscale;
      acked_total = 0;
    }
  in
  c.fire <- (fun () -> rto_fire c);
  c

let dispatch t pkt =
  let tcp = pkt.Packet.tcp in
  Packet.write_tuple_at_receiver pkt t.probe;
  match Tbl.find t.conns t.probe with
  | c -> begin
    let flags = tcp.Tcp_header.flags in
    if flags.Tcp_header.rst then begin
      match c.state with
      | Syn_sent ->
        (* Only a reset that answers the SYN refuses the connect. *)
        if flags.Tcp_header.ack && tcp.Tcp_header.ack = Seq32.add c.iss 1
        then fail_handshake c
      | Established | Close_wait ->
        remove_conn c;
        c.cb.on_closed c
      | _ -> remove_conn c
    end
    else begin
      match c.state with
      | Syn_sent ->
        if flags.Tcp_header.syn && flags.Tcp_header.ack
           && tcp.Tcp_header.ack = Seq32.add c.iss 1 then begin
          c.rcv_nxt <- Seq32.add tcp.Tcp_header.seq 1;
          c.snd_una <- tcp.Tcp_header.ack;
          c.snd_wnd <- tcp.Tcp_header.window;
          (match tcp.Tcp_header.wscale with
          | Some w -> c.peer_wscale <- w
          | None -> c.peer_wscale <- 0);
          if tcp.Tcp_header.has_ts then c.ts_recent <- tcp.Tcp_header.ts_val;
          cancel_rto c;
          c.state <- Established;
          send_ack c;
          c.cb.on_connected c;
          try_send c
        end
      | Syn_received ->
        if flags.Tcp_header.ack && tcp.Tcp_header.ack = Seq32.add c.iss 1 then begin
          c.snd_una <- tcp.Tcp_header.ack;
          c.snd_wnd <- tcp.Tcp_header.window lsl c.peer_wscale;
          cancel_rto c;
          c.state <- Established;
          c.cb.on_connected c;
          (* The handshake ACK may carry data. *)
          handle_established c pkt tcp;
          try_send c
        end
        else if flags.Tcp_header.syn then
          (* Duplicate SYN: resend SYN-ACK. *)
          send_syn c
      | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
      | Last_ack ->
        handle_established c pkt tcp;
        if c.state <> Closed then handle_fin_ack c
      | Time_wait ->
        if flags.Tcp_header.fin then send_ack c
      | Closed -> ()
    end
  end
  | exception Not_found ->
    if tcp.Tcp_header.flags.Tcp_header.syn && not tcp.Tcp_header.flags.Tcp_header.ack
    then begin
      match Hashtbl.find_opt t.listeners tcp.Tcp_header.dst_port with
      | Some accept_fn ->
        let tuple = Addr.Four_tuple.copy t.probe in
        let c =
          new_conn t tuple ~cb:null_callbacks ~state:Syn_received
            ~snd_wnd:tcp.Tcp_header.window
            ~rcv_nxt:(Seq32.add tcp.Tcp_header.seq 1)
            ~ts_recent:
              (if tcp.Tcp_header.has_ts then tcp.Tcp_header.ts_val else 0)
            ~peer_wscale:
              (match tcp.Tcp_header.wscale with Some w -> w | None -> 0)
        in
        c.cb <- accept_fn c;
        Tbl.add t.conns tuple c;
        send_syn c;
        arm_rto c
      | None -> () (* No listener: silently drop (no RST storms). *)
    end

(* The engine consumes every packet it is handed. *)
let handle_packet t pkt =
  dispatch t pkt;
  Packet.release pkt

let attach t =
  Nic.set_rx_handler t.nic (fun ~queue:_ pkt -> handle_packet t pkt)

let listen t ~port accept_fn = Hashtbl.replace t.listeners port accept_fn

let connect t ?src_port ~dst_ip ~dst_port cb =
  let local_port =
    match src_port with
    | Some p -> p
    | None ->
      let p = t.next_ephemeral in
      t.next_ephemeral <- (if p >= 65535 then 2048 else p + 1);
      p
  in
  let tuple =
    {
      Addr.Four_tuple.local_ip = Nic.ip t.nic;
      local_port;
      peer_ip = dst_ip;
      peer_port = dst_port;
    }
  in
  if Tbl.mem t.conns tuple then
    invalid_arg "Tcp_engine.connect: 4-tuple already in use";
  let c =
    new_conn t tuple ~cb ~state:Syn_sent ~snd_wnd:Tcp_header.mss ~rcv_nxt:0
      ~ts_recent:0 ~peer_wscale:0
  in
  Tbl.add t.conns tuple c;
  send_syn c;
  arm_rto c;
  c

let send c data =
  match c.state with
  | Established | Close_wait ->
    let n = Ring.push c.tx data ~off:0 ~len:(Bytes.length data) in
    if n > 0 then try_send c;
    n
  | Syn_sent | Syn_received ->
    (* Queue ahead of establishment. *)
    Ring.push c.tx data ~off:0 ~len:(Bytes.length data)
  | _ -> 0

let close c =
  match c.state with
  | Established ->
    c.state <- Fin_wait_1;
    c.fin_queued <- true;
    try_send c
  | Close_wait ->
    c.state <- Last_ack;
    c.fin_queued <- true;
    try_send c
  | Syn_sent | Syn_received -> remove_conn c
  | _ -> ()
