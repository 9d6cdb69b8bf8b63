(* One contiguous off-heap allocation, [capacity * slot_bytes] bytes.
   [int8_unsigned] elements keep every access an unboxed int. *)

type bytes_arr =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let slot_bytes = 102

type t = {
  data : bytes_arr;
  capacity : int;
  free_list : int array;  (* stack of free slot indices *)
  mutable free_top : int;  (* number of entries on the stack *)
  used : Bytes.t;  (* per-slot liveness bit, double-free detection *)
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Flow_arena.create: capacity must be > 0";
  let data =
    Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout
      (capacity * slot_bytes)
  in
  Bigarray.Array1.fill data 0;
  (* Stack initialized so the first allocations come out in slot order. *)
  let free_list = Array.init capacity (fun i -> capacity - 1 - i) in
  { data; capacity; free_list; free_top = capacity;
    used = Bytes.make capacity '\x00' }

let capacity t = t.capacity
let live t = t.capacity - t.free_top
let available t = t.free_top
let in_use t slot =
  slot >= 0 && slot < t.capacity && Bytes.get t.used slot = '\x01'

(* --- Raw field access --------------------------------------------------- *)

let base slot = slot * slot_bytes

let get8 t off = Bigarray.Array1.unsafe_get t.data off

let set8 t off v =
  Bigarray.Array1.unsafe_set t.data off (v land 0xff)

let get16 t off = get8 t off lor (get8 t (off + 1) lsl 8)

let set16 t off v =
  set8 t off v;
  set8 t (off + 1) (v lsr 8)

let get24 t off = get16 t off lor (get8 t (off + 2) lsl 16)

let set24 t off v =
  set16 t off v;
  set8 t (off + 2) (v lsr 16)

let get32 t off = get16 t off lor (get16 t (off + 2) lsl 16)

let set32 t off v =
  set16 t off v;
  set16 t (off + 2) (v lsr 16)

let get48 t off = get32 t off lor (get16 t (off + 4) lsl 32)

let set48 t off v =
  set32 t off v;
  set16 t (off + 4) (v lsr 32)

(* OCaml ints are 63-bit; the top byte of a stored u64 carries bits 56-62. *)
let get64 t off =
  get32 t off lor (get24 t (off + 4) lsl 32) lor (get8 t (off + 7) lsl 56)

let set64 t off v =
  set32 t off v;
  set24 t (off + 4) (v lsr 32);
  set8 t (off + 7) (v lsr 56)

(* Sign-extend a u32 cell so [-1] round-trips: spans use -1 for "none". *)
let get32s t off =
  let v = get32 t off in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

(* --- Table-3 offsets ---------------------------------------------------- *)

let off_opaque = 0
let off_seq = 8
let off_ack = 12
let off_tx_sent = 16
let off_window = 20
let off_cnt_ackb = 24
let off_cnt_ecnb = 28
let off_rtt_est = 32
let off_ts_recent = 36
let off_tx_span = 40
let off_rx_span = 44
let off_ooo_start = 48
let off_ooo_len = 52
let off_peer_ip = 56
let off_local_port = 60
let off_peer_port = 62
let off_context = 64
let off_dupack_cnt = 66
let off_cnt_frexmits = 68
let off_peer_mac = 70
let off_peer_wscale = 76
let off_flags = 77
let off_generation = 78
let off_rx_head = 80
let off_rx_tail = 84
let off_tx_head = 88
let off_tx_tail = 92
let off_rx_size = 96
let off_tx_size = 99

let field_layout =
  [
    ("opaque", off_opaque, 8);
    ("seq", off_seq, 4);
    ("ack", off_ack, 4);
    ("tx_sent", off_tx_sent, 4);
    ("window", off_window, 4);
    ("cnt_ackb", off_cnt_ackb, 4);
    ("cnt_ecnb", off_cnt_ecnb, 4);
    ("rtt_est", off_rtt_est, 4);
    ("ts_recent", off_ts_recent, 4);
    ("tx_span", off_tx_span, 4);
    ("rx_span", off_rx_span, 4);
    ("ooo_start", off_ooo_start, 4);
    ("ooo_len", off_ooo_len, 4);
    ("peer_ip", off_peer_ip, 4);
    ("local_port", off_local_port, 2);
    ("peer_port", off_peer_port, 2);
    ("context", off_context, 2);
    ("dupack_cnt", off_dupack_cnt, 2);
    ("cnt_frexmits", off_cnt_frexmits, 2);
    ("peer_mac", off_peer_mac, 6);
    ("peer_wscale", off_peer_wscale, 1);
    ("flags", off_flags, 1);
    ("generation", off_generation, 2);
    ("rx_head", off_rx_head, 4);
    ("rx_tail", off_rx_tail, 4);
    ("tx_head", off_tx_head, 4);
    ("tx_tail", off_tx_tail, 4);
    ("rx_size", off_rx_size, 3);
    ("tx_size", off_tx_size, 3);
  ]

(* --- Allocation --------------------------------------------------------- *)

let generation t slot = get16 t (base slot + off_generation)

let alloc t =
  if t.free_top = 0 then None
  else begin
    t.free_top <- t.free_top - 1;
    let slot = t.free_list.(t.free_top) in
    Bytes.set t.used slot '\x01';
    (* Zero everything but the generation counter, which survives reuse. *)
    let b = base slot in
    let gen = get16 t (b + off_generation) in
    Bigarray.Array1.fill (Bigarray.Array1.sub t.data b slot_bytes) 0;
    set16 t (b + off_generation) gen;
    Some slot
  end

let free t slot =
  if slot < 0 || slot >= t.capacity then
    invalid_arg "Flow_arena.free: slot out of range";
  if Bytes.get t.used slot <> '\x01' then
    invalid_arg "Flow_arena.free: double free";
  Bytes.set t.used slot '\x00';
  let b = base slot in
  set16 t (b + off_generation) (generation t slot + 1);
  t.free_list.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* A detached record lives alone in a private one-slot arena whose slot is
   not marked in use: nothing can allocate from it (empty free list) or
   free it (the shared liveness byte reads free), so every detached
   record can share the one [used] byte and the empty free list. *)
let detached_used = Bytes.make 1 '\x00'

let detach t slot =
  if not (in_use t slot) then invalid_arg "Flow_arena.detach: slot not in use";
  let data =
    Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout slot_bytes
  in
  let b = base slot in
  for i = 0 to slot_bytes - 1 do
    Bigarray.Array1.unsafe_set data i (get8 t (b + i))
  done;
  free t slot;
  { data; capacity = 1; free_list = [||]; free_top = 0; used = detached_used }

(* --- Typed accessors ---------------------------------------------------- *)

let get_opaque t s = get64 t (base s + off_opaque)
let set_opaque t s v = set64 t (base s + off_opaque) v
let get_seq t s = get32 t (base s + off_seq)
let set_seq t s v = set32 t (base s + off_seq) v
let get_ack t s = get32 t (base s + off_ack)
let set_ack t s v = set32 t (base s + off_ack) v
let get_tx_sent t s = get32 t (base s + off_tx_sent)
let set_tx_sent t s v = set32 t (base s + off_tx_sent) v
let get_window t s = get32 t (base s + off_window)
let set_window t s v = set32 t (base s + off_window) v
let get_cnt_ackb t s = get32 t (base s + off_cnt_ackb)
let set_cnt_ackb t s v = set32 t (base s + off_cnt_ackb) v
let get_cnt_ecnb t s = get32 t (base s + off_cnt_ecnb)
let set_cnt_ecnb t s v = set32 t (base s + off_cnt_ecnb) v
let get_rtt_est t s = get32 t (base s + off_rtt_est)
let set_rtt_est t s v = set32 t (base s + off_rtt_est) v
let get_ts_recent t s = get32 t (base s + off_ts_recent)
let set_ts_recent t s v = set32 t (base s + off_ts_recent) v
let get_tx_span t s = get32s t (base s + off_tx_span)
let set_tx_span t s v = set32 t (base s + off_tx_span) v
let get_rx_span t s = get32s t (base s + off_rx_span)
let set_rx_span t s v = set32 t (base s + off_rx_span) v
let get_ooo_start t s = get32 t (base s + off_ooo_start)
let set_ooo_start t s v = set32 t (base s + off_ooo_start) v
let get_ooo_len t s = get32 t (base s + off_ooo_len)
let set_ooo_len t s v = set32 t (base s + off_ooo_len) v
let get_peer_ip t s = get32 t (base s + off_peer_ip)
let set_peer_ip t s v = set32 t (base s + off_peer_ip) v
let get_local_port t s = get16 t (base s + off_local_port)
let set_local_port t s v = set16 t (base s + off_local_port) v
let get_peer_port t s = get16 t (base s + off_peer_port)
let set_peer_port t s v = set16 t (base s + off_peer_port) v
let get_context t s = get16 t (base s + off_context)
let set_context t s v = set16 t (base s + off_context) v
let get_dupack_cnt t s = get16 t (base s + off_dupack_cnt)
let set_dupack_cnt t s v = set16 t (base s + off_dupack_cnt) v
let get_cnt_frexmits t s = get16 t (base s + off_cnt_frexmits)
let set_cnt_frexmits t s v = set16 t (base s + off_cnt_frexmits) v
let get_peer_mac t s = get48 t (base s + off_peer_mac)
let set_peer_mac t s v = set48 t (base s + off_peer_mac) v
let get_peer_wscale t s = get8 t (base s + off_peer_wscale)
let set_peer_wscale t s v = set8 t (base s + off_peer_wscale) v
let get_flags t s = get8 t (base s + off_flags)
let set_flags t s v = set8 t (base s + off_flags) v

let get_flag t s ~bit = get_flags t s land (1 lsl bit) <> 0

let set_flag t s ~bit v =
  let f = get_flags t s in
  set_flags t s (if v then f lor (1 lsl bit) else f land lnot (1 lsl bit))

let get_rx_head t s = get32 t (base s + off_rx_head)
let set_rx_head t s v = set32 t (base s + off_rx_head) v
let get_rx_tail t s = get32 t (base s + off_rx_tail)
let set_rx_tail t s v = set32 t (base s + off_rx_tail) v
let get_tx_head t s = get32 t (base s + off_tx_head)
let set_tx_head t s v = set32 t (base s + off_tx_head) v
let get_tx_tail t s = get32 t (base s + off_tx_tail)
let set_tx_tail t s v = set32 t (base s + off_tx_tail) v
let get_rx_size t s = get24 t (base s + off_rx_size)
let set_rx_size t s v = set24 t (base s + off_rx_size) v
let get_tx_size t s = get24 t (base s + off_tx_size)
let set_tx_size t s v = set24 t (base s + off_tx_size) v
