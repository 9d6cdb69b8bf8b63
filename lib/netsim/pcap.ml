module Packet = Tas_proto.Packet

(* Nanosecond pcap: magic 0xa1b23c4d, version 2.4, linktype 1 (Ethernet).
   All fields little-endian. *)

let set32 buf off v =
  Bytes.set buf off (Char.chr (v land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set buf (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get32 buf off =
  Char.code (Bytes.get buf off)
  lor (Char.code (Bytes.get buf (off + 1)) lsl 8)
  lor (Char.code (Bytes.get buf (off + 2)) lsl 16)
  lor (Char.code (Bytes.get buf (off + 3)) lsl 24)

let set16 buf off v =
  Bytes.set buf off (Char.chr (v land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xff))

let file_header () =
  let h = Bytes.create 24 in
  set32 h 0 0xa1b23c4d (* nanosecond magic *);
  set16 h 4 2 (* major *);
  set16 h 6 4 (* minor *);
  set32 h 8 0 (* thiszone *);
  set32 h 12 0 (* sigfigs *);
  set32 h 16 65535 (* snaplen *);
  set32 h 20 1 (* LINKTYPE_ETHERNET *);
  h

let record_header ~ts_ns ~len =
  let h = Bytes.create 16 in
  set32 h 0 (ts_ns / 1_000_000_000);
  set32 h 4 (ts_ns mod 1_000_000_000);
  set32 h 8 len (* captured length *);
  set32 h 12 len (* original length *);
  h

let to_bytes records =
  let buf = Buffer.create 4096 in
  Buffer.add_bytes buf (file_header ());
  List.iter
    (fun { Tap.at; pkt } ->
      let frame = Packet.to_wire pkt in
      Buffer.add_bytes buf (record_header ~ts_ns:at ~len:(Bytes.length frame));
      Buffer.add_bytes buf frame)
    records;
  Buffer.to_bytes buf

let write_file path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes records))

let tap_records ?tuple tap =
  match tuple with
  | None -> Tap.records tap
  | Some tu -> Tap.matching_tuple tap tu

let write_tap path ?tuple tap = write_file path (tap_records ?tuple tap)

type parsed = { ts_ns : int; frame : bytes }

let parse buf =
  if Bytes.length buf < 24 then invalid_arg "Pcap.parse: short file";
  if get32 buf 0 <> 0xa1b23c4d then
    invalid_arg "Pcap.parse: not a nanosecond pcap file";
  let rec records off acc =
    if off = Bytes.length buf then List.rev acc
    else if Bytes.length buf - off < 16 then
      invalid_arg "Pcap.parse: truncated record header"
    else begin
      let sec = get32 buf off and nsec = get32 buf (off + 4) in
      let len = get32 buf (off + 8) in
      if Bytes.length buf - (off + 16) < len then
        invalid_arg "Pcap.parse: truncated record";
      let frame = Bytes.sub buf (off + 16) len in
      records (off + 16 + len)
        ({ ts_ns = (sec * 1_000_000_000) + nsec; frame } :: acc)
    end
  in
  records 24 []
