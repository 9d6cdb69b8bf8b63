module Packet = Tas_proto.Packet
module Tcp = Tas_proto.Tcp_header

type record = { at : Tas_engine.Time_ns.t; pkt : Packet.t }

type t = {
  limit : int;
  queue : record Queue.t;
}

let create ?(limit = 10_000) () = { limit; queue = Queue.create () }

let wrap t sim deliver pkt =
  (* The ring holds the packet beyond its delivery; the reference keeps the
     consumer's release from recycling the payload under the record. *)
  Packet.retain pkt;
  Queue.add { at = Tas_engine.Sim.now sim; pkt } t.queue;
  if Queue.length t.queue > t.limit then
    Packet.release (Queue.take t.queue).pkt;
  deliver pkt

let records t = List.of_seq (Queue.to_seq t.queue)
let count t = Queue.length t.queue
let clear t =
  Queue.iter (fun r -> Packet.release r.pkt) t.queue;
  Queue.clear t.queue
let matching t pred = List.filter (fun r -> pred r.pkt) (records t)

(* A packet belongs to a connection regardless of direction: match the
   4-tuple as seen by the receiver, or its flip. *)
let packet_matches_tuple tuple pkt =
  let module Ft = Tas_proto.Addr.Four_tuple in
  let at_rx = Packet.four_tuple_at_receiver pkt in
  Ft.equal at_rx tuple || Ft.equal at_rx (Ft.flip tuple)

let matching_tuple t tuple = matching t (packet_matches_tuple tuple)

let pp_record fmt { at; pkt } =
  let tcp = pkt.Packet.tcp in
  let f = tcp.Tcp.flags in
  let flags =
    String.concat ""
      [
        (if f.Tcp.syn then "S" else "");
        (if f.Tcp.fin then "F" else "");
        (if f.Tcp.rst then "R" else "");
        (if f.Tcp.psh then "P" else "");
        (if f.Tcp.ack then "." else "");
        (if f.Tcp.ece then "E" else "");
      ]
  in
  Format.fprintf fmt "%a %a:%d > %a:%d [%s] seq %u ack %u win %d len %d"
    Tas_engine.Time_ns.pp at Tas_proto.Addr.pp_ipv4
    pkt.Packet.ip.Tas_proto.Ipv4_header.src tcp.Tcp.src_port
    Tas_proto.Addr.pp_ipv4 pkt.Packet.ip.Tas_proto.Ipv4_header.dst
    tcp.Tcp.dst_port flags tcp.Tcp.seq tcp.Tcp.ack tcp.Tcp.window
    (Bytes.length pkt.Packet.payload)

let dump ?tuple fmt t =
  let rs =
    match tuple with
    | None -> records t
    | Some tu -> matching_tuple t tu
  in
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_record r) rs
