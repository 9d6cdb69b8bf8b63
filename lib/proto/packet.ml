type t = {
  eth : Eth_header.t;
  ip : Ipv4_header.t;
  tcp : Tcp_header.t;
  mutable payload : bytes;
  mutable span : int;
  mutable corrupt : bool;
  mutable refs : int;
  mutable pooled : bool;
  home : pool;
}

(* One LIFO stack of free packets. [free] slots at or above [n_free] hold
   stale references that are never read. *)
and pool = {
  mutable free : t array;
  mutable n_free : int;
  mutable created : int;
  mutable outstanding : int;
  recycle : bytes -> unit;
}

(* The home of packets built by [make]: never holds a packet, and its
   recycler drops the payload. *)
let no_pool =
  { free = [||]; n_free = 0; created = 0; outstanding = 0; recycle = ignore }

let fresh home tcp =
  {
    eth =
      { Eth_header.src = 0; dst = 0; ethertype = Eth_header.ethertype_ipv4 };
    ip =
      {
        Ipv4_header.src = 0;
        dst = 0;
        protocol = Ipv4_header.protocol_tcp;
        ttl = 64;
        ecn = Ipv4_header.Ect0;
        dscp = 0;
        ident = 0;
        total_length = 0;
      };
    tcp;
    payload = Bytes.empty;
    span = -1;
    corrupt = false;
    refs = 1;
    pooled = false;
    home;
  }

let fill t ~src_mac ~dst_mac ~src_ip ~dst_ip ~ecn ~payload =
  let eth = t.eth and ip = t.ip in
  eth.Eth_header.src <- src_mac;
  eth.Eth_header.dst <- dst_mac;
  eth.Eth_header.ethertype <- Eth_header.ethertype_ipv4;
  ip.Ipv4_header.src <- src_ip;
  ip.Ipv4_header.dst <- dst_ip;
  ip.Ipv4_header.protocol <- Ipv4_header.protocol_tcp;
  ip.Ipv4_header.ttl <- 64;
  ip.Ipv4_header.ecn <- ecn;
  ip.Ipv4_header.dscp <- 0;
  ip.Ipv4_header.ident <- 0;
  ip.Ipv4_header.total_length <-
    Ipv4_header.size + Tcp_header.size t.tcp + Bytes.length payload;
  t.payload <- payload;
  t.span <- -1;
  t.corrupt <- false;
  t.pooled <- false

let make ~src_mac ~dst_mac ~src_ip ~dst_ip ?(ecn = Ipv4_header.Ect0) ~tcp
    ~payload () =
  let t = fresh no_pool tcp in
  fill t ~src_mac ~dst_mac ~src_ip ~dst_ip ~ecn ~payload;
  t

let sentinel =
  make ~src_mac:0 ~dst_mac:0 ~src_ip:0 ~dst_ip:0
    ~tcp:
      (Tcp_header.make ~src_port:0 ~dst_port:0 ~seq:0 ~ack:0
         ~flags:Tcp_header.no_flags ~window:0 ())
    ~payload:Bytes.empty ()

module Pool = struct
  type t = pool

  let create ?(recycle = ignore) () =
    { free = [||]; n_free = 0; created = 0; outstanding = 0; recycle }

  let take p =
    p.outstanding <- p.outstanding + 1;
    if p.n_free = 0 then begin
      p.created <- p.created + 1;
      fresh p
        (Tcp_header.make ~src_port:0 ~dst_port:0 ~seq:0 ~ack:0
           ~flags:Tcp_header.no_flags ~window:0 ())
    end
    else begin
      p.n_free <- p.n_free - 1;
      let pkt = p.free.(p.n_free) in
      pkt.refs <- 1;
      pkt
    end

  let give p pkt =
    if p.n_free = Array.length p.free then begin
      let free = Array.make (max 16 (2 * p.n_free)) pkt in
      Array.blit p.free 0 free 0 p.n_free;
      p.free <- free
    end;
    p.free.(p.n_free) <- pkt;
    p.n_free <- p.n_free + 1;
    p.outstanding <- p.outstanding - 1

  let outstanding p = p.outstanding
  let created p = p.created
  let held p = p.n_free
end

let take = Pool.take

let wire_size t = Eth_header.size + t.ip.Ipv4_header.total_length
let payload_len t = Bytes.length t.payload

let well_formed t =
  t.ip.Ipv4_header.total_length
  = Ipv4_header.size + Tcp_header.size t.tcp + Bytes.length t.payload
  && t.ip.Ipv4_header.protocol = Ipv4_header.protocol_tcp

let four_tuple_at_receiver t =
  {
    Addr.Four_tuple.local_ip = t.ip.Ipv4_header.dst;
    local_port = t.tcp.Tcp_header.dst_port;
    peer_ip = t.ip.Ipv4_header.src;
    peer_port = t.tcp.Tcp_header.src_port;
  }

let write_tuple_at_receiver t (tuple : Addr.Four_tuple.t) =
  tuple.local_ip <- t.ip.Ipv4_header.dst;
  tuple.local_port <- t.tcp.Tcp_header.dst_port;
  tuple.peer_ip <- t.ip.Ipv4_header.src;
  tuple.peer_port <- t.tcp.Tcp_header.src_port

let flow_hash t =
  Addr.Four_tuple.sym_hash_fields ~local_ip:t.ip.Ipv4_header.dst
    ~local_port:t.tcp.Tcp_header.dst_port ~peer_ip:t.ip.Ipv4_header.src
    ~peer_port:t.tcp.Tcp_header.src_port

let set16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 1) (Char.chr (v land 0xff))

(* Arithmetic sum of the six pseudo-header 16-bit words — equivalent to
   serializing the 12-byte pseudo header and summing it, without the
   scratch buffer (this runs twice per wire packet). *)
let pseudo_header_sum ip tcp_len =
  ((ip.Ipv4_header.src lsr 16) land 0xffff)
  + (ip.Ipv4_header.src land 0xffff)
  + ((ip.Ipv4_header.dst lsr 16) land 0xffff)
  + (ip.Ipv4_header.dst land 0xffff)
  + ip.Ipv4_header.protocol
  + tcp_len

let to_wire t =
  let total = wire_size t in
  let buf = Bytes.make total '\x00' in
  let off = Eth_header.write t.eth buf ~off:0 in
  let ip_off = off in
  let off = ip_off + Ipv4_header.write t.ip buf ~off:ip_off in
  let tcp_off = off in
  let tcp_size = Tcp_header.write t.tcp buf ~off:tcp_off in
  Bytes.blit t.payload 0 buf (tcp_off + tcp_size) (Bytes.length t.payload);
  let tcp_len = tcp_size + Bytes.length t.payload in
  let acc = pseudo_header_sum t.ip tcp_len in
  let acc = Checksum.ones_complement_sum ~acc buf ~off:tcp_off ~len:tcp_len in
  set16 buf (tcp_off + 16) (Checksum.finish acc);
  buf

let of_wire buf =
  let eth = Eth_header.read buf ~off:0 in
  let ip = Ipv4_header.read buf ~off:Eth_header.size in
  let tcp_off = Eth_header.size + Ipv4_header.size in
  let tcp, tcp_size = Tcp_header.read buf ~off:tcp_off in
  let payload_len =
    ip.Ipv4_header.total_length - Ipv4_header.size - tcp_size
  in
  if payload_len < 0 || tcp_off + tcp_size + payload_len > Bytes.length buf
  then invalid_arg "Packet.of_wire: inconsistent lengths";
  let payload = Bytes.sub buf (tcp_off + tcp_size) payload_len in
  { eth; ip; tcp; payload; span = -1; corrupt = false; refs = 1;
    pooled = false; home = no_pool }

let tcp_checksum_ok buf =
  let ip = Ipv4_header.read buf ~off:Eth_header.size in
  let tcp_off = Eth_header.size + Ipv4_header.size in
  let tcp_len = ip.Ipv4_header.total_length - Ipv4_header.size in
  let acc = pseudo_header_sum ip tcp_len in
  let acc = Checksum.ones_complement_sum ~acc buf ~off:tcp_off ~len:tcp_len in
  Checksum.finish acc = 0

(* --- Ownership -------------------------------------------------------- *)

let mark_pooled t = if Bytes.length t.payload > 0 then t.pooled <- true

let check_live t fn =
  if t.refs <= 0 then
    invalid_arg (fn ^ ": packet already released (no reference left)")

let retain t =
  check_live t "Packet.retain";
  t.refs <- t.refs + 1

let release t =
  check_live t "Packet.release";
  t.refs <- t.refs - 1;
  if t.refs = 0 then begin
    let home = t.home in
    if t.pooled then begin
      t.pooled <- false;
      home.recycle t.payload
    end;
    if home != no_pool then begin
      t.payload <- Bytes.empty;
      Pool.give home t
    end
  end

let unshare t =
  check_live t "Packet.unshare";
  if t.refs = 1 then t
  else begin
    (* [{ r with f = r.f }] is a fresh copy of the mutable header [r]. *)
    let c =
      {
        eth = { t.eth with Eth_header.src = t.eth.Eth_header.src };
        ip = { t.ip with Ipv4_header.src = t.ip.Ipv4_header.src };
        tcp = { t.tcp with Tcp_header.seq = t.tcp.Tcp_header.seq };
        payload = Bytes.copy t.payload;
        span = t.span;
        corrupt = t.corrupt;
        refs = 1;
        pooled = false;
        home = no_pool;
      }
    in
    release t;
    c
  end

let set_payload t payload =
  if t.pooled then begin
    t.pooled <- false;
    t.home.recycle t.payload
  end;
  t.payload <- payload

let pp fmt t =
  Format.fprintf fmt "%a | %a | %d bytes payload" Ipv4_header.pp t.ip
    Tcp_header.pp t.tcp (Bytes.length t.payload)
