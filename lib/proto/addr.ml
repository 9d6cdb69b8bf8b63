type ipv4 = int
type mac = int
type port = int

let ipv4_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    let parse x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 255 -> v
      | _ -> invalid_arg ("Addr.ipv4_of_string: bad octet in " ^ s)
    in
    (parse a lsl 24) lor (parse b lsl 16) lor (parse c lsl 8) lor parse d
  | _ -> invalid_arg ("Addr.ipv4_of_string: " ^ s)

let ipv4_to_string ip =
  Printf.sprintf "%d.%d.%d.%d"
    ((ip lsr 24) land 0xff)
    ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff)
    (ip land 0xff)

let pp_ipv4 fmt ip = Format.pp_print_string fmt (ipv4_to_string ip)

let pp_mac fmt mac =
  Format.fprintf fmt "%02x:%02x:%02x:%02x:%02x:%02x"
    ((mac lsr 40) land 0xff)
    ((mac lsr 32) land 0xff)
    ((mac lsr 24) land 0xff)
    ((mac lsr 16) land 0xff)
    ((mac lsr 8) land 0xff)
    (mac land 0xff)

let host_ip i =
  ipv4_of_string "10.0.0.0" lor (((i / 65536) land 0xff) lsl 16)
  lor (((i / 256) land 0xff) lsl 8)
  lor (i land 0xff)

let host_mac i = 0x020000000000 lor (i land 0xffffffff)
let host_id_of_ip ip = ip land 0xffffff

module Four_tuple = struct
  type t = {
    mutable local_ip : ipv4;
    mutable local_port : port;
    mutable peer_ip : ipv4;
    mutable peer_port : port;
  }

  let probe () = { local_ip = 0; local_port = 0; peer_ip = 0; peer_port = 0 }

  let copy t =
    {
      local_ip = t.local_ip;
      local_port = t.local_port;
      peer_ip = t.peer_ip;
      peer_port = t.peer_port;
    }

  let flip t =
    {
      local_ip = t.peer_ip;
      local_port = t.peer_port;
      peer_ip = t.local_ip;
      peer_port = t.local_port;
    }

  let equal a b =
    a.local_ip = b.local_ip && a.local_port = b.local_port
    && a.peer_ip = b.peer_ip && a.peer_port = b.peer_port

  let hash t =
    let h = (t.local_ip * 31) + t.local_port in
    let h = (h * 31) + t.peer_ip in
    let h = (h * 31) + t.peer_port in
    h land max_int

  let sym_hash_fields ~local_ip ~local_port ~peer_ip ~peer_port =
    let a = (local_ip lxor peer_ip) * 0x9E3779B1 in
    let b = (local_port lxor peer_port) * 0x85EBCA77 in
    let h = (a + b) land max_int in
    let h = h lxor (h lsr 15) in
    h * 0x27D4EB2F land max_int

  let sym_hash t =
    sym_hash_fields ~local_ip:t.local_ip ~local_port:t.local_port
      ~peer_ip:t.peer_ip ~peer_port:t.peer_port

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  let pp fmt t =
    Format.fprintf fmt "%a:%d<->%a:%d" pp_ipv4 t.local_ip t.local_port pp_ipv4
      t.peer_ip t.peer_port
end
