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

type config = {
  mss : int;
  rx_buf : int;
  tx_buf : int;
  algorithm : Window_cc.algorithm;
  initial_window : int;
  initial_rto_ns : int;
  wscale : int;
}

let default_config =
  {
    mss = 1460;
    rx_buf = 65535;
    tx_buf = 65535;
    algorithm = Window_cc.Dctcp;
    initial_window = 10 * 1460;
    initial_rto_ns = 10_000_000;
    wscale = 4;
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
  mutable rto_event : Sim.event option;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover_seq : Seq32.t;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  (* Receive side. *)
  mutable rcv_nxt : Seq32.t;
  mutable ooo : (Seq32.t * bytes) list;
  mutable ts_recent : int;
  mutable peer_wscale : int;
  (* Stats. *)
  mutable delivered : int;
  mutable acked_total : int;
  mutable retransmit_count : int;
}

and callbacks = {
  on_connected : conn -> unit;
  on_receive : conn -> bytes -> unit;
  on_sendable : conn -> int -> unit;
  on_closed : conn -> unit;
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
  mutable total_retransmits : int;
}

let null_callbacks =
  {
    on_connected = (fun _ -> ());
    on_receive = (fun _ _ -> ());
    on_sendable = (fun _ _ -> ());
    on_closed = (fun _ -> ());
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
    total_retransmits = 0;
  }

let tuple c = c.tuple
let is_established c = c.state = Established
let bytes_delivered c = c.delivered
let bytes_acked c = c.acked_total
let retransmits c = c.retransmit_count
let srtt_ns c = Rtt.srtt_ns c.rtt
let cwnd c = Window_cc.cwnd c.cc
let connection_count t = Tbl.length t.conns
let total_retransmits t = t.total_retransmits
let tx_free c = Ring.free c.tx

(* First data byte's stream offset 0 corresponds to sequence iss+1. *)
let offset_of_seq c seq = Seq32.diff seq (Seq32.add c.iss 1)

let now_us t = Sim.now t.sim / 1000

let ecn_capable t =
  match t.config.algorithm with Window_cc.Dctcp -> true | Window_cc.Newreno -> false

(* --- Packet emission ------------------------------------------------- *)

let emit c ?(flags = Tcp_header.ack_flags) ?(payload = Bytes.empty)
    ?(seq = c.snd_nxt) ?mss_opt () =
  let t = c.stack in
  (* SYN segments advertise the unscaled window and carry the wscale
     option; everything else advertises rx_buf >> wscale (RFC 1323). *)
  let window =
    if flags.Tcp_header.syn then min 65535 t.config.rx_buf
    else min 65535 (t.config.rx_buf asr t.config.wscale)
  in
  let tcp =
    Tcp_header.make ?mss:mss_opt
      ?wscale:(if flags.Tcp_header.syn then Some t.config.wscale else None)
      ~ts:(now_us t land 0xFFFF_FFFF, c.ts_recent)
      ~src_port:c.tuple.Addr.Four_tuple.local_port
      ~dst_port:c.tuple.Addr.Four_tuple.peer_port ~seq
      ~ack:(if flags.Tcp_header.ack then c.rcv_nxt else 0)
      ~flags ~window ()
  in
  let peer_id = Addr.host_id_of_ip c.tuple.Addr.Four_tuple.peer_ip in
  let ecn =
    if Bytes.length payload > 0 && ecn_capable t then Ipv4_header.Ect0
    else Ipv4_header.Not_ect
  in
  let pkt =
    Packet.make ~src_mac:(Nic.mac t.nic) ~dst_mac:(Addr.host_mac peer_id)
      ~src_ip:c.tuple.Addr.Four_tuple.local_ip
      ~dst_ip:c.tuple.Addr.Four_tuple.peer_ip ~ecn ~tcp ~payload ()
  in
  Nic.transmit t.nic pkt

(* CE marks observed on received data are echoed on the ACK for that data —
   per-packet echo, the behaviour DCTCP requires. *)
let send_ack ?(ece = false) c =
  emit c ~flags:{ Tcp_header.ack_flags with ece } ()

(* --- Timers ----------------------------------------------------------- *)

let cancel_rto c =
  match c.rto_event with
  | Some ev ->
    Sim.cancel c.stack.sim ev;
    c.rto_event <- None
  | None -> ()

let rec arm_rto c =
  cancel_rto c;
  c.rto_event <-
    Some (Sim.schedule c.stack.sim (Rtt.rto_ns c.rtt) (fun () -> rto_fire c))

and rto_fire c =
  c.rto_event <- None;
  match c.state with
  | Closed | Time_wait -> ()
  | Syn_sent ->
    Rtt.backoff c.rtt;
    emit c
      ~flags:{ Tcp_header.no_flags with syn = true }
      ~seq:c.iss ~mss_opt:c.stack.config.mss ();
    arm_rto c
  | Syn_received ->
    Rtt.backoff c.rtt;
    emit c
      ~flags:{ Tcp_header.no_flags with syn = true; ack = true }
      ~seq:c.iss ~mss_opt:c.stack.config.mss ();
    arm_rto c
  | _ ->
    if Seq32.lt c.snd_una c.snd_nxt then begin
      (* Timeout: collapse to go-back-N from snd_una. *)
      Window_cc.on_timeout c.cc;
      Rtt.backoff c.rtt;
      c.retransmit_count <- c.retransmit_count + 1;
      c.stack.total_retransmits <- c.stack.total_retransmits + 1;
      c.in_recovery <- false;
      c.dupacks <- 0;
      c.snd_nxt <- c.snd_una;
      if c.fin_sent then c.fin_sent <- false;
      try_send c;
      if c.rto_event = None then arm_rto c
    end

(* --- Send path --------------------------------------------------------- *)

and send_segment c seq len =
  let payload = Bytes.create len in
  Ring.read_at c.tx ~pos:(offset_of_seq c seq) ~dst:payload ~dst_off:0 ~len;
  emit c ~flags:Tcp_header.data_flags ~payload ~seq ()

and try_send c =
  match c.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack ->
    let t = c.stack in
    let continue = ref true in
    while !continue do
      let in_flight = Seq32.diff c.snd_nxt c.snd_una in
      let wnd = min (Window_cc.cwnd c.cc) (max c.snd_wnd t.config.mss) in
      let budget = wnd - in_flight in
      let avail = Ring.head c.tx - offset_of_seq c c.snd_nxt in
      if avail > 0 && budget > 0 then begin
        let len = min t.config.mss (min avail budget) in
        send_segment c c.snd_nxt len;
        c.snd_nxt <- Seq32.add c.snd_nxt len;
        c.snd_max <- Seq32.max_s c.snd_max c.snd_nxt;
        if c.rto_event = None then arm_rto c
      end
      else begin
        continue := false;
        (* All data sent: emit a queued FIN if the window allows. *)
        if avail <= 0 && c.fin_queued && not c.fin_sent && budget > 0 then begin
          emit c ~flags:{ Tcp_header.ack_flags with fin = true } ();
          c.snd_nxt <- Seq32.add c.snd_nxt 1;
          c.snd_max <- Seq32.max_s c.snd_max c.snd_nxt;
          c.fin_sent <- true;
          if c.rto_event = None then arm_rto c
        end
      end
    done
  | Syn_sent | Syn_received | Fin_wait_2 | Time_wait | Closed -> ()

(* --- Connection teardown ---------------------------------------------- *)

let remove_conn c =
  cancel_rto c;
  c.state <- Closed;
  Tbl.remove c.stack.conns c.tuple

let enter_time_wait c =
  cancel_rto c;
  c.state <- Time_wait;
  (* Abbreviated TIME_WAIT: datacenter RTTs make 2MSL of 1 ms plenty for
     the simulation; keeps 96K-connection churn experiments bounded. *)
  ignore (Sim.schedule c.stack.sim 1_000_000 (fun () -> remove_conn c))

(* --- Receive path ------------------------------------------------------ *)

let deliver c payload =
  c.delivered <- c.delivered + Bytes.length payload;
  c.rcv_nxt <- Seq32.add c.rcv_nxt (Bytes.length payload);
  c.cb.on_receive c payload

(* Deliver any now-in-order segments held in the out-of-order list. *)
let drain_ooo c =
  let continue = ref true in
  while !continue do
    match c.ooo with
    | (seq, data) :: rest when Seq32.leq seq c.rcv_nxt ->
      c.ooo <- rest;
      let skip = Seq32.diff c.rcv_nxt seq in
      if skip < Bytes.length data then
        deliver c (Bytes.sub data skip (Bytes.length data - skip))
    | _ -> continue := false
  done

(* Insert an out-of-order segment, trimming overlap with the window, the
   delivered stream and existing segments. Keeps the list seq-sorted. *)
let store_ooo c seq data =
  let win_end = Seq32.add c.rcv_nxt c.stack.config.rx_buf in
  let seg_end = Seq32.add seq (Bytes.length data) in
  let seg_end = if Seq32.gt seg_end win_end then win_end else seg_end in
  let len = Seq32.diff seg_end seq in
  if len > 0 then begin
    let data = if len = Bytes.length data then data else Bytes.sub data 0 len in
    (* Insert keeping the list sorted and non-overlapping: segments already
       present win; only the parts of [data] not covered are kept. A
       leading part is cut against the next stored segment, a trailing part
       recurses past it. *)
    let rec insert_seq seq data l =
      if Bytes.length data = 0 then l
      else
        match l with
        | [] -> [ (seq, data) ]
        | (s, d) :: rest ->
          if Seq32.lt seq s then begin
            let keep = min (Bytes.length data) (Seq32.diff s seq) in
            if keep <= 0 then l
            else
              (seq, Bytes.sub data 0 keep)
              :: insert_seq (Seq32.add seq keep)
                   (Bytes.sub data keep (Bytes.length data - keep))
                   l
          end
          else begin
            let d_end = Seq32.add s (Bytes.length d) in
            if Seq32.geq seq d_end then (s, d) :: insert_seq seq data rest
            else begin
              let skip = Seq32.diff d_end seq in
              if skip >= Bytes.length data then l
              else
                (s, d)
                :: insert_seq (Seq32.add seq skip)
                     (Bytes.sub data skip (Bytes.length data - skip))
                     rest
            end
          end
    in
    c.ooo <- insert_seq seq data c.ooo
  end

let process_payload c (tcp : Tcp_header.t) payload ~ce =
  let len = Bytes.length payload in
  if len = 0 then ()
  else begin
    let seq = tcp.Tcp_header.seq in
    if Seq32.leq seq c.rcv_nxt then begin
      (* Possibly partially old data. *)
      let skip = Seq32.diff c.rcv_nxt seq in
      if skip < len then begin
        let fresh = Bytes.sub payload skip (len - skip) in
        let win = c.stack.config.rx_buf in
        let fresh =
          if Bytes.length fresh > win then Bytes.sub fresh 0 win else fresh
        in
        deliver c fresh;
        drain_ooo c
      end;
      send_ack ~ece:ce c
    end
    else begin
      (* Out of order. *)
      store_ooo c seq payload;
      send_ack ~ece:ce c
    end
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
        let len = min c.stack.config.mss avail in
        if len > 0 then begin
          send_segment c c.snd_una len;
          c.retransmit_count <- c.retransmit_count + 1;
          c.stack.total_retransmits <- c.stack.total_retransmits + 1
        end
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
        c.retransmit_count <- c.retransmit_count + 1;
        c.stack.total_retransmits <- c.stack.total_retransmits + 1;
        let avail = Ring.head c.tx - offset_of_seq c c.snd_una in
        let len = min c.stack.config.mss avail in
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
    process_payload c tcp pkt.Packet.payload ~ce;
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

let handle_packet t pkt =
  let tcp = pkt.Packet.tcp in
  Packet.write_tuple_at_receiver pkt t.probe;
  match Tbl.find t.conns t.probe with
  | c -> begin
    let flags = tcp.Tcp_header.flags in
    if flags.Tcp_header.rst then begin
      let was_established = c.state = Established || c.state = Close_wait in
      remove_conn c;
      if was_established then c.cb.on_closed c
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
        else if flags.Tcp_header.syn then begin
          (* Duplicate SYN: resend SYN-ACK. *)
          emit c
            ~flags:{ Tcp_header.no_flags with syn = true; ack = true }
            ~seq:c.iss ~mss_opt:t.config.mss ()
        end
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
        let iss = Seq32.of_int (t.next_iss * 64021) in
        t.next_iss <- t.next_iss + 1;
        let tuple = Addr.Four_tuple.copy t.probe in
        let c =
          {
            stack = t;
            tuple;
            cb = null_callbacks;
            state = Syn_received;
            iss;
            tx = Ring.create t.config.tx_buf;
            snd_una = iss;
            snd_nxt = Seq32.add iss 1;
            snd_max = Seq32.add iss 1;
            snd_wnd = tcp.Tcp_header.window;
            cc =
              Window_cc.create t.config.algorithm ~mss:t.config.mss
                ~initial_window:t.config.initial_window;
            rtt = Rtt.create ~initial_rto_ns:t.config.initial_rto_ns ();
            rto_event = None;
            dupacks = 0;
            in_recovery = false;
            recover_seq = iss;
            fin_queued = false;
            fin_sent = false;
            rcv_nxt = Seq32.add tcp.Tcp_header.seq 1;
            ooo = [];
            ts_recent =
              (if tcp.Tcp_header.has_ts then tcp.Tcp_header.ts_val else 0);
            peer_wscale =
              (match tcp.Tcp_header.wscale with
              | Some w -> w
              | None -> 0);
            delivered = 0;
            acked_total = 0;
            retransmit_count = 0;
          }
        in
        c.cb <- accept_fn c;
        Tbl.add t.conns tuple c;
        emit c
          ~flags:{ Tcp_header.no_flags with syn = true; ack = true }
          ~seq:iss ~mss_opt:t.config.mss ();
        arm_rto c
      | None -> () (* No listener: silently drop (no RST storms). *)
    end

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
  let iss = Seq32.of_int (t.next_iss * 64021) in
  t.next_iss <- t.next_iss + 1;
  let c =
    {
      stack = t;
      tuple;
      cb;
      state = Syn_sent;
      iss;
      tx = Ring.create t.config.tx_buf;
      snd_una = iss;
      snd_nxt = Seq32.add iss 1;
      snd_max = Seq32.add iss 1;
      snd_wnd = t.config.mss;
      cc =
        Window_cc.create t.config.algorithm ~mss:t.config.mss
          ~initial_window:t.config.initial_window;
      rtt = Rtt.create ~initial_rto_ns:t.config.initial_rto_ns ();
      rto_event = None;
      dupacks = 0;
      in_recovery = false;
      recover_seq = iss;
      fin_queued = false;
      fin_sent = false;
      rcv_nxt = 0;
      ooo = [];
      ts_recent = 0;
      peer_wscale = 0;
      delivered = 0;
      acked_total = 0;
      retransmit_count = 0;
    }
  in
  Tbl.add t.conns tuple c;
  emit c
    ~flags:{ Tcp_header.no_flags with syn = true }
    ~seq:iss ~mss_opt:t.config.mss ();
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
