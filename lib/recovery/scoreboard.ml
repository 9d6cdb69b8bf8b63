module Seq32 = Tas_proto.Seq32
module Tcp_header = Tas_proto.Tcp_header
module J = Tas_telemetry.Json

(* Segment [i] (0 = oldest) lives in slot [(head + i) land mask] of five
   parallel arrays; capacity is a power of two. *)
type ring = {
  seq : int array;
  len : int array;
  tx_ns : int array;
  flags : int array;  (* [sacked] lor [lost] *)
  retx : int array;
  mask : int;
  mutable head : int;
  mutable n : int;
  mutable n_sacked : int;  (* live segments marked sacked *)
  mutable n_lost : int;  (* live segments marked lost *)
}

type t = {
  mutable r : ring;
  mutable high_sacked : Seq32.t;  (* end of the highest sacked segment *)
  mutable any_sacked : bool;  (* [high_sacked] is meaningful *)
  mutable sacked_tx : int;  (* the last [apply_sacks]'s Karn delivery clock *)
  mutable c_sacked : int;
  mutable c_lost : int;
  mutable c_retx : int;
}

let sacked = 1
let lost = 2
let initial_capacity = 16

let make_ring cap =
  {
    seq = Array.make cap 0;
    len = Array.make cap 0;
    tx_ns = Array.make cap 0;
    flags = Array.make cap 0;
    retx = Array.make cap 0;
    mask = cap - 1;
    head = 0;
    n = 0;
    n_sacked = 0;
    n_lost = 0;
  }

(* Shared by every scoreboard that never transmitted (every Reno flow), so
   a flow pays for its arrays only once it tracks a segment. Never written:
   [on_transmit] replaces it before storing anything. *)
let empty = make_ring 0

let create () =
  {
    r = empty;
    high_sacked = 0;
    any_sacked = false;
    sacked_tx = -1;
    c_sacked = 0;
    c_lost = 0;
    c_retx = 0;
  }

let reset t =
  let r = t.r in
  if r != empty then begin
    r.head <- 0;
    r.n <- 0;
    r.n_sacked <- 0;
    r.n_lost <- 0
  end;
  t.any_sacked <- false

let is_empty t = t.r.n = 0
let slot r i = (r.head + i) land r.mask
let seg_end r k = Seq32.add r.seq.(k) r.len.(k)

(* Double the capacity, unrolling the live segments to start at slot 0. *)
let grow t =
  let r = t.r in
  let r' = make_ring (max initial_capacity (2 * (r.mask + 1))) in
  for i = 0 to r.n - 1 do
    let k = slot r i in
    r'.seq.(i) <- r.seq.(k);
    r'.len.(i) <- r.len.(k);
    r'.tx_ns.(i) <- r.tx_ns.(k);
    r'.flags.(i) <- r.flags.(k);
    r'.retx.(i) <- r.retx.(k)
  done;
  r'.n <- r.n;
  r'.n_sacked <- r.n_sacked;
  r'.n_lost <- r.n_lost;
  t.r <- r'

let on_transmit t ~seq ~len ~now_ns =
  if t.r.n > t.r.mask then grow t;
  let r = t.r in
  let k = slot r r.n in
  r.seq.(k) <- seq;
  r.len.(k) <- len;
  r.tx_ns.(k) <- now_ns;
  r.flags.(k) <- 0;
  r.retx.(k) <- 0;
  r.n <- r.n + 1

(* Lowest index whose segment starts at or after [s] ([r.n] when none):
   starts ascend, so a binary search finds it. *)
let first_from r s =
  let lo = ref 0 and hi = ref r.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Seq32.lt r.seq.(slot r mid) s then lo := mid + 1 else hi := mid
  done;
  !lo

let on_retransmit t ~seq ~now_ns =
  let r = t.r in
  let i = first_from r seq in
  if i < r.n && r.seq.(slot r i) = seq then begin
    let k = slot r i in
    r.tx_ns.(k) <- now_ns;
    if r.flags.(k) land lost <> 0 then begin
      r.flags.(k) <- r.flags.(k) land lnot lost;
      r.n_lost <- r.n_lost - 1
    end;
    r.retx.(k) <- r.retx.(k) + 1;
    t.c_retx <- t.c_retx + 1;
    true
  end
  else false

let ack_to t ~una =
  let r = t.r in
  let tx_max = ref (-1) in
  let popping = ref true in
  while !popping && r.n > 0 do
    let k = r.head in
    if Seq32.leq (seg_end r k) una then begin
      if r.retx.(k) = 0 && r.tx_ns.(k) > !tx_max then tx_max := r.tx_ns.(k);
      let f = r.flags.(k) in
      if f land sacked <> 0 then r.n_sacked <- r.n_sacked - 1;
      if f land lost <> 0 then r.n_lost <- r.n_lost - 1;
      r.head <- (k + 1) land r.mask;
      r.n <- r.n - 1
    end
    else begin
      if Seq32.lt r.seq.(k) una then begin
        (* Partially-acked straddler: keep the unacked suffix. *)
        let cut = Seq32.diff una r.seq.(k) in
        r.seq.(k) <- una;
        r.len.(k) <- r.len.(k) - cut
      end;
      popping := false
    end
  done;
  if r.n = 0 then t.any_sacked <- false;
  !tx_max

(* Segments that can fit in [bs, be) start at or after [bs] and before
   [be]: visit exactly that index range. *)
let apply_block t bs be =
  let newly = ref 0 in
  if Seq32.lt bs be then begin
    let r = t.r in
    for i = first_from r bs to first_from r be - 1 do
      let k = slot r i in
      let f = r.flags.(k) in
      if f land sacked = 0 then begin
        let e = seg_end r k in
        if Seq32.leq e be then begin
          if f land lost <> 0 then r.n_lost <- r.n_lost - 1;
          r.flags.(k) <- sacked;
          r.n_sacked <- r.n_sacked + 1;
          incr newly;
          t.c_sacked <- t.c_sacked + 1;
          if r.retx.(k) = 0 && r.tx_ns.(k) > t.sacked_tx then
            t.sacked_tx <- r.tx_ns.(k);
          if (not t.any_sacked) || Seq32.gt e t.high_sacked then
            t.high_sacked <- e;
          t.any_sacked <- true
        end
      end
    done
  end;
  !newly

let apply_sacks t (hdr : Tcp_header.t) =
  t.sacked_tx <- -1;
  let newly = ref 0 in
  for i = 0 to hdr.Tcp_header.sack_n - 1 do
    newly :=
      !newly
      + apply_block t (Tcp_header.sack_start hdr i) (Tcp_header.sack_end hdr i)
  done;
  !newly

let sacked_tx t = t.sacked_tx

let mark_lost_dupthresh t ~dupthresh =
  let r = t.r in
  (* No segment can have more sacked segments above it than are live. *)
  if r.n_sacked < dupthresh then 0
  else begin
    (* Walk from the highest segment down, counting sacked segments above. *)
    let newly = ref 0 and above = ref 0 in
    for i = r.n - 1 downto 0 do
      let k = slot r i in
      let f = r.flags.(k) in
      if f land sacked <> 0 then incr above
      else if !above >= dupthresh && f = 0 && r.retx.(k) = 0 then begin
        r.flags.(k) <- lost;
        incr newly
      end
    done;
    r.n_lost <- r.n_lost + !newly;
    t.c_lost <- t.c_lost + !newly;
    !newly
  end

let mark_front_lost t =
  let r = t.r in
  if r.n > 0 && r.flags.(r.head) = 0 && r.retx.(r.head) = 0 then begin
    r.flags.(r.head) <- lost;
    r.n_lost <- r.n_lost + 1;
    t.c_lost <- t.c_lost + 1;
    1
  end
  else 0

let mark_lost_older_than t ~threshold_ns =
  if not t.any_sacked then 0
  else begin
    let r = t.r in
    let newly = ref 0 in
    for i = 0 to first_from r t.high_sacked - 1 do
      let k = slot r i in
      if r.flags.(k) = 0 && r.tx_ns.(k) <= threshold_ns then begin
        r.flags.(k) <- lost;
        incr newly
      end
    done;
    r.n_lost <- r.n_lost + !newly;
    t.c_lost <- t.c_lost + !newly;
    !newly
  end

let next_lost t =
  let r = t.r in
  if r.n_lost = 0 then -1
  else begin
    let i = ref 0 in
    while r.flags.(slot r !i) land lost = 0 do
      incr i
    done;
    !i
  end

let last_unsacked t =
  let r = t.r in
  let i = ref (r.n - 1) in
  while !i >= 0 && r.flags.(slot r !i) land sacked <> 0 do
    decr i
  done;
  !i

let oldest_unsacked_tx t =
  if not t.any_sacked then -1
  else begin
    let r = t.r in
    let oldest = ref (-1) in
    for i = 0 to first_from r t.high_sacked - 1 do
      let k = slot r i in
      if r.flags.(k) = 0 && (!oldest < 0 || r.tx_ns.(k) < !oldest) then
        oldest := r.tx_ns.(k)
    done;
    !oldest
  end

let seg_seq t i = t.r.seq.(slot t.r i)
let seg_len t i = t.r.len.(slot t.r i)

let live_segs t = t.r.n
let live_sacked t = t.r.n_sacked
let live_lost t = t.r.n_lost
let cum_sacked t = t.c_sacked
let cum_lost t = t.c_lost
let cum_retx t = t.c_retx

let to_json t =
  J.Obj
    [
      ("live_segs", J.Int (live_segs t));
      ("live_sacked", J.Int (live_sacked t));
      ("live_lost", J.Int (live_lost t));
      ("sacked", J.Int t.c_sacked);
      ("lost", J.Int t.c_lost);
      ("retx", J.Int t.c_retx);
    ]
