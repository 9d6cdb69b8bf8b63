module Seq32 = Tas_proto.Seq32
module Tcp_header = Tas_proto.Tcp_header

(* Range [i] of [n] sits at [3i .. 3i+2] of [r]: start, length and the
   stamp of its last update (SACK block order). Ranges ascend in sequence
   order and are pairwise disjoint and non-adjacent. *)
type t = {
  max_ranges : int;
  mutable r : int array;
  mutable n : int;
  mutable stamp : int;
  (* The extent of the last [Deliver] or [Store] verdict. *)
  mutable v_at : Seq32.t;
  mutable v_len : int;
  mutable v_adv : int;
}

type verdict = Deliver | Store | Duplicate | Drop

(* Shared by every interval set that never stored a segment, so a flow
   pays for its array only at its first out-of-order store. Never
   written: [insert] replaces it first. *)
let empty = [||]

let create ?(max_ranges = 1) () =
  if max_ranges < 0 then invalid_arg "Ooo_interval.create: max_ranges < 0";
  { max_ranges; r = empty; n = 0; stamp = 0; v_at = 0; v_len = 0; v_adv = 0 }

let start t i = t.r.(3 * i)
let len t i = t.r.((3 * i) + 1)
let touch t i = t.r.((3 * i) + 2)
let range_end t i = Seq32.add (start t i) (len t i)
let is_empty t = t.n = 0
let interval t = if t.n = 0 then None else Some (start t 0, len t 0)
let ranges t = List.init t.n (fun i -> (start t i, len t i))
let reset t = t.n <- 0
let write_at t = t.v_at
let write_len t = t.v_len
let advance t = t.v_adv

(* Remove range [i], closing the gap. *)
let remove t i =
  Array.blit t.r (3 * (i + 1)) t.r (3 * i) (3 * (t.n - i - 1));
  t.n <- t.n - 1

(* Insert [s, s + l) as the newest range, before the first range that
   does not start below it. The caller has made room. *)
let insert t s l =
  if t.r == empty then t.r <- Array.make (3 * t.max_ranges) 0;
  let i = ref 0 in
  while !i < t.n && Seq32.lt (start t !i) s do
    incr i
  done;
  let i = !i in
  Array.blit t.r (3 * i) t.r (3 * (i + 1)) (3 * (t.n - i));
  t.stamp <- t.stamp + 1;
  t.r.(3 * i) <- s;
  t.r.((3 * i) + 1) <- l;
  t.r.((3 * i) + 2) <- t.stamp;
  t.n <- t.n + 1

(* The newest range stamped before [stamp] (-1 when none). Stamps start
   at 1 and are unique. *)
let newest_before t stamp =
  let best = ref (-1) in
  for i = 0 to t.n - 1 do
    let k = touch t i in
    if k < stamp && (!best < 0 || k > touch t !best) then best := i
  done;
  !best

(* Most recently updated first (RFC 2018's ordering hint), capped at
   [limit]: picking the newest range older than the previous pick gives
   the same blocks as sorting every range by recency. *)
let sack_blocks t ~limit =
  let rec from stamp n =
    if n <= 0 then []
    else
      let i = newest_before t stamp in
      if i < 0 then [] else (start t i, range_end t i) :: from (touch t i) (n - 1)
  in
  from max_int limit

let write_sack t hdr =
  let stamp = ref max_int in
  let i = ref (newest_before t !stamp) in
  while !i >= 0 && hdr.Tcp_header.sack_n < Tcp_header.max_sack_blocks do
    Tcp_header.add_sack_block hdr (start t !i) (range_end t !i);
    stamp := touch t !i;
    i := newest_before t !stamp
  done

(* Drop every stored range the delivered edge [e] reaches; returns the new
   edge (the end of the contiguous run). *)
let rec consume t e =
  if t.n > 0 && Seq32.geq e (start t 0) then begin
    let e' = range_end t 0 in
    remove t 0;
    consume t (if Seq32.gt e' e then e' else e)
  end
  else e

let in_order t ~exp ~window ~seg_start ~seg_len =
  if t.n = 0 && seg_start = exp then min seg_len window else 0

let verdict t v ~at ~len ~adv =
  t.v_at <- at;
  t.v_len <- len;
  t.v_adv <- adv;
  v

(* Out-of-order [s, s + l) with [s] [offset] bytes past the expected edge,
   already clipped to the window. *)
let store t ~exp ~offset s l =
  let seg_end = Seq32.add s l in
  (* Ranges the segment overlaps or abuts merge with it (the paper's
     "segments of the same interval"); merging can chain several stored
     ranges into one. *)
  let ns = ref s and ne = ref seg_end and merged = ref false in
  let i = ref 0 in
  while !i < t.n do
    let rs = start t !i and re = range_end t !i in
    if Seq32.gt s re || Seq32.gt rs seg_end then incr i
    else begin
      if Seq32.lt rs !ns then ns := rs;
      if Seq32.gt re !ne then ne := re;
      merged := true;
      remove t !i
    end
  done;
  if !merged then begin
    insert t !ns (Seq32.diff !ne !ns);
    verdict t Store ~at:s ~len:l ~adv:0
  end
  else if t.n < t.max_ranges then begin
    insert t s l;
    verdict t Store ~at:s ~len:l ~adv:0
  end
  else if t.max_ranges >= 2 then begin
    (* Multi-range mode, table full: evict the range furthest from the
       expected edge when the new segment sits closer (the evicted data is
       still covered by the sender's retransmission machinery); otherwise
       drop the newcomer. Single-interval mode keeps the paper's drop-only
       rule. *)
    let far = ref 0 in
    for i = 1 to t.n - 1 do
      if Seq32.diff (start t i) exp > Seq32.diff (start t !far) exp then far := i
    done;
    if Seq32.diff (start t !far) exp > offset then begin
      remove t !far;
      insert t s l;
      verdict t Store ~at:s ~len:l ~adv:0
    end
    else Drop
  end
  else Drop

let handle t ~exp ~window ~seg_start ~seg_len =
  (* Trim any prefix that duplicates already-delivered data. *)
  let trimmed = Seq32.lt seg_start exp in
  let s = if trimmed then exp else seg_start in
  let l = if trimmed then max 0 (seg_len - Seq32.diff exp seg_start) else seg_len in
  if l = 0 then Duplicate
  else if s = exp then begin
    (* In-order: clip to the receive window. *)
    let l = min l window in
    if l = 0 then Drop
    else
      (* The stream advances through every stored range the new edge
         touches (gap closed): deliver the whole contiguous run. *)
      let new_exp = consume t (Seq32.add exp l) in
      verdict t Deliver ~at:s ~len:l ~adv:(Seq32.diff new_exp exp)
  end
  else begin
    (* Out-of-order: s is beyond exp. Must fit within the window. *)
    let offset = Seq32.diff s exp in
    if offset >= window then Drop
    else store t ~exp ~offset s (min l (window - offset))
  end
