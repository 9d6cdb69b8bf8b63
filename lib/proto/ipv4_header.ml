type ecn = Not_ect | Ect0 | Ect1 | Ce

type t = {
  mutable src : Addr.ipv4;
  mutable dst : Addr.ipv4;
  mutable protocol : int;
  mutable ttl : int;
  mutable ecn : ecn;
  mutable dscp : int;
  mutable ident : int;
  mutable total_length : int;
}

let size = 20
let protocol_tcp = 6

let ecn_to_bits = function Not_ect -> 0 | Ect0 -> 2 | Ect1 -> 1 | Ce -> 3
let ecn_of_bits = function 0 -> Not_ect | 2 -> Ect0 | 1 -> Ect1 | _ -> Ce


let set16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 1) (Char.chr (v land 0xff))

let get16 buf off =
  (Char.code (Bytes.get buf off) lsl 8) lor Char.code (Bytes.get buf (off + 1))

let set32 buf off v =
  set16 buf off ((v lsr 16) land 0xffff);
  set16 buf (off + 2) (v land 0xffff)

let get32 buf off = (get16 buf off lsl 16) lor get16 buf (off + 2)

let write t buf ~off =
  Bytes.set buf off (Char.chr 0x45);
  Bytes.set buf (off + 1) (Char.chr ((t.dscp lsl 2) lor ecn_to_bits t.ecn));
  set16 buf (off + 2) t.total_length;
  set16 buf (off + 4) t.ident;
  set16 buf (off + 6) 0x4000 (* DF, no fragments: §4.1 of the paper *);
  Bytes.set buf (off + 8) (Char.chr (t.ttl land 0xff));
  Bytes.set buf (off + 9) (Char.chr (t.protocol land 0xff));
  set16 buf (off + 10) 0;
  set32 buf (off + 12) t.src;
  set32 buf (off + 16) t.dst;
  let csum = Checksum.compute buf ~off ~len:size in
  set16 buf (off + 10) csum;
  size

let read buf ~off =
  if Bytes.length buf - off < size then invalid_arg "Ipv4_header.read: short buffer";
  let vihl = Char.code (Bytes.get buf off) in
  if vihl lsr 4 <> 4 then invalid_arg "Ipv4_header.read: not IPv4";
  let tos = Char.code (Bytes.get buf (off + 1)) in
  {
    src = get32 buf (off + 12);
    dst = get32 buf (off + 16);
    protocol = Char.code (Bytes.get buf (off + 9));
    ttl = Char.code (Bytes.get buf (off + 8));
    ecn = ecn_of_bits (tos land 3);
    dscp = tos lsr 2;
    ident = get16 buf (off + 4);
    total_length = get16 buf (off + 2);
  }

let checksum_ok buf ~off = Checksum.verify buf ~off ~len:size

let pp fmt t =
  Format.fprintf fmt "ip %a -> %a proto %d len %d%s" Addr.pp_ipv4 t.src
    Addr.pp_ipv4 t.dst t.protocol t.total_length
    (match t.ecn with Ce -> " CE" | Ect0 | Ect1 -> " ECT" | Not_ect -> "")
