type t = {
  mutable dst : Addr.mac;
  mutable src : Addr.mac;
  mutable ethertype : int;
}

let size = 14
let ethertype_ipv4 = 0x0800

let write_mac buf off mac =
  for i = 0 to 5 do
    Bytes.set buf (off + i) (Char.chr ((mac lsr (8 * (5 - i))) land 0xff))
  done

let read_mac buf off =
  let v = ref 0 in
  for i = 0 to 5 do
    v := (!v lsl 8) lor Char.code (Bytes.get buf (off + i))
  done;
  !v

let write t buf ~off =
  write_mac buf off t.dst;
  write_mac buf (off + 6) t.src;
  Bytes.set buf (off + 12) (Char.chr ((t.ethertype lsr 8) land 0xff));
  Bytes.set buf (off + 13) (Char.chr (t.ethertype land 0xff));
  size

let read buf ~off =
  if Bytes.length buf - off < size then invalid_arg "Eth_header.read: short buffer";
  {
    dst = read_mac buf off;
    src = read_mac buf (off + 6);
    ethertype =
      (Char.code (Bytes.get buf (off + 12)) lsl 8)
      lor Char.code (Bytes.get buf (off + 13));
  }

let pp fmt t =
  Format.fprintf fmt "eth %a -> %a type 0x%04x" Addr.pp_mac t.src Addr.pp_mac
    t.dst t.ethertype
