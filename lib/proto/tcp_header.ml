type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  ece : bool;
  cwr : bool;
}

type t = {
  mutable src_port : Addr.port;
  mutable dst_port : Addr.port;
  mutable seq : Seq32.t;
  mutable ack : Seq32.t;
  mutable flags : flags;
  mutable window : int;
  mutable mss : int option;
  mutable wscale : int option;
  mutable has_ts : bool;
  mutable ts_val : int;
  mutable ts_ecr : int;
  mutable sack_n : int;
  mutable sack_s0 : Seq32.t;
  mutable sack_e0 : Seq32.t;
  mutable sack_s1 : Seq32.t;
  mutable sack_e1 : Seq32.t;
  mutable sack_s2 : Seq32.t;
  mutable sack_e2 : Seq32.t;
}

let mss = 1460
let wscale = 4
let max_sack_blocks = 3

let clear_sack t =
  t.sack_n <- 0;
  t.sack_s0 <- 0;
  t.sack_e0 <- 0;
  t.sack_s1 <- 0;
  t.sack_e1 <- 0;
  t.sack_s2 <- 0;
  t.sack_e2 <- 0

let add_sack_block t start stop =
  (match t.sack_n with
  | 0 ->
    t.sack_s0 <- start;
    t.sack_e0 <- stop
  | 1 ->
    t.sack_s1 <- start;
    t.sack_e1 <- stop
  | 2 ->
    t.sack_s2 <- start;
    t.sack_e2 <- stop
  | _ -> invalid_arg "Tcp_header.add_sack_block: option full");
  t.sack_n <- t.sack_n + 1

let sack_start t i =
  if i < 0 || i >= t.sack_n then invalid_arg "Tcp_header.sack_start";
  match i with 0 -> t.sack_s0 | 1 -> t.sack_s1 | _ -> t.sack_s2

let sack_end t i =
  if i < 0 || i >= t.sack_n then invalid_arg "Tcp_header.sack_end";
  match i with 0 -> t.sack_e0 | 1 -> t.sack_e1 | _ -> t.sack_e2

let sack_blocks t = List.init t.sack_n (fun i -> (sack_start t i, sack_end t i))

let rec add_sack_blocks t = function
  | [] -> ()
  | (start, stop) :: rest ->
    add_sack_block t start stop;
    add_sack_blocks t rest

let no_flags =
  { syn = false; ack = false; fin = false; rst = false; psh = false;
    ece = false; cwr = false }

let data_flags = { no_flags with ack = true; psh = true }
let ack_flags = { no_flags with ack = true }

let make ?mss ?wscale ?ts ?(sack = []) ~src_port ~dst_port ~seq ~ack ~flags
    ~window () =
  let has_ts, ts_val, ts_ecr =
    match ts with Some (v, e) -> (true, v, e) | None -> (false, 0, 0)
  in
  let t =
    { src_port; dst_port; seq; ack; flags; window; mss; wscale; has_ts;
      ts_val; ts_ecr; sack_n = 0; sack_s0 = 0; sack_e0 = 0; sack_s1 = 0;
      sack_e1 = 0; sack_s2 = 0; sack_e2 = 0 }
  in
  add_sack_blocks t sack;
  t

let fill ?mss ?wscale t ~src_port ~dst_port ~seq ~ack ~flags ~window ~ts_val
    ~ts_ecr =
  t.src_port <- src_port;
  t.dst_port <- dst_port;
  t.seq <- seq;
  t.ack <- ack;
  t.flags <- flags;
  t.window <- window;
  t.mss <- mss;
  t.wscale <- wscale;
  t.has_ts <- true;
  t.ts_val <- ts_val;
  t.ts_ecr <- ts_ecr;
  clear_sack t

let options_size t =
  let n =
    (match t.mss with Some _ -> 4 | None -> 0)
    + (match t.wscale with Some _ -> 3 | None -> 0)
    + (if t.has_ts then 10 else 0)
    + (if t.sack_n > 0 then 2 + (8 * t.sack_n) else 0)
  in
  (* Pad to a 4-byte boundary with NOPs. *)
  (n + 3) / 4 * 4

let size t = 20 + options_size t

let set16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 1) (Char.chr (v land 0xff))

let get16 buf off =
  (Char.code (Bytes.get buf off) lsl 8) lor Char.code (Bytes.get buf (off + 1))

let set32 buf off v =
  set16 buf off ((v lsr 16) land 0xffff);
  set16 buf (off + 2) (v land 0xffff)

let get32 buf off = (get16 buf off lsl 16) lor get16 buf (off + 2)

let flags_to_bits f =
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor (if f.ack then 16 else 0)
  lor (if f.ece then 64 else 0)
  lor if f.cwr then 128 else 0

(* One shared record per flags byte: [read] builds none. *)
let flags_table =
  Array.init 256 (fun b ->
      {
        fin = b land 1 <> 0;
        syn = b land 2 <> 0;
        rst = b land 4 <> 0;
        psh = b land 8 <> 0;
        ack = b land 16 <> 0;
        ece = b land 64 <> 0;
        cwr = b land 128 <> 0;
      })

let flags_of_bits b = flags_table.(b)

let write t buf ~off =
  let hdr_size = size t in
  set16 buf off t.src_port;
  set16 buf (off + 2) t.dst_port;
  set32 buf (off + 4) t.seq;
  set32 buf (off + 8) t.ack;
  Bytes.set buf (off + 12) (Char.chr ((hdr_size / 4) lsl 4));
  Bytes.set buf (off + 13) (Char.chr (flags_to_bits t.flags));
  set16 buf (off + 14) t.window;
  set16 buf (off + 16) 0 (* checksum: filled by Packet.to_wire *);
  set16 buf (off + 18) 0 (* urgent pointer unused *);
  let p = ref (off + 20) in
  (match t.mss with
  | Some mss ->
    Bytes.set buf !p '\x02';
    Bytes.set buf (!p + 1) '\x04';
    set16 buf (!p + 2) mss;
    p := !p + 4
  | None -> ());
  (match t.wscale with
  | Some ws ->
    Bytes.set buf !p '\x03';
    Bytes.set buf (!p + 1) '\x03';
    Bytes.set buf (!p + 2) (Char.chr (ws land 0xff));
    p := !p + 3
  | None -> ());
  if t.has_ts then begin
    Bytes.set buf !p '\x08';
    Bytes.set buf (!p + 1) '\x0a';
    set32 buf (!p + 2) (t.ts_val land 0xFFFF_FFFF);
    set32 buf (!p + 6) (t.ts_ecr land 0xFFFF_FFFF);
    p := !p + 10
  end;
  if t.sack_n > 0 then begin
    Bytes.set buf !p '\x05';
    Bytes.set buf (!p + 1) (Char.chr (2 + (8 * t.sack_n)));
    p := !p + 2;
    for i = 0 to t.sack_n - 1 do
      set32 buf !p (sack_start t i land 0xFFFF_FFFF);
      set32 buf (!p + 4) (sack_end t i land 0xFFFF_FFFF);
      p := !p + 8
    done
  end;
  while !p < off + hdr_size do
    Bytes.set buf !p '\x01' (* NOP padding *);
    incr p
  done;
  hdr_size

let read buf ~off =
  if Bytes.length buf - off < 20 then invalid_arg "Tcp_header.read: short buffer";
  let data_off = (Char.code (Bytes.get buf (off + 12)) lsr 4) * 4 in
  if data_off < 20 || Bytes.length buf - off < data_off then
    invalid_arg "Tcp_header.read: bad data offset";
  let t =
    make ~src_port:(get16 buf off) ~dst_port:(get16 buf (off + 2))
      ~seq:(get32 buf (off + 4)) ~ack:(get32 buf (off + 8))
      ~flags:(flags_of_bits (Char.code (Bytes.get buf (off + 13))))
      ~window:(get16 buf (off + 14)) ()
  in
  let p = ref (off + 20) in
  let last = off + data_off in
  (try
     while !p < last do
       match Char.code (Bytes.get buf !p) with
       | 0 -> raise Exit (* end of options *)
       | 1 -> incr p (* NOP *)
       | kind ->
         let len = Char.code (Bytes.get buf (!p + 1)) in
         if len < 2 || !p + len > last then
           invalid_arg "Tcp_header.read: corrupt option";
         (match kind with
         | 2 when len = 4 -> t.mss <- Some (get16 buf (!p + 2))
         | 3 when len = 3 ->
           t.wscale <- Some (Char.code (Bytes.get buf (!p + 2)))
         | 8 when len = 10 ->
           t.has_ts <- true;
           t.ts_val <- get32 buf (!p + 2);
           t.ts_ecr <- get32 buf (!p + 6)
         | 5 when len >= 10 && (len - 2) mod 8 = 0 ->
           (* Blocks past the third are dropped: a receiver may use any
              subset of the blocks it is sent. *)
           clear_sack t;
           for i = 0 to min max_sack_blocks ((len - 2) / 8) - 1 do
             add_sack_block t
               (get32 buf (!p + 2 + (8 * i)))
               (get32 buf (!p + 6 + (8 * i)))
           done
         | _ -> () (* unknown option: skipped *));
         p := !p + len
     done
   with Exit -> ());
  (t, data_off)

let pp fmt t =
  let f = t.flags in
  let flag_str =
    String.concat ""
      [
        (if f.syn then "S" else "");
        (if f.ack then "A" else "");
        (if f.fin then "F" else "");
        (if f.rst then "R" else "");
        (if f.psh then "P" else "");
        (if f.ece then "E" else "");
        (if f.cwr then "C" else "");
      ]
  in
  Format.fprintf fmt "tcp %d->%d seq=%a ack=%a [%s] win=%d" t.src_port
    t.dst_port Seq32.pp t.seq Seq32.pp t.ack flag_str t.window
