type t = {
  data : bytes;
  cap : int;
  mutable head : int;
  mutable tail : int;
}

let create cap =
  if cap <= 0 then invalid_arg "Ring_buffer.create: capacity must be positive";
  { data = Bytes.create cap; cap; head = 0; tail = 0 }

(* Zero capacity: [used = free = 0], every push accepts nothing and every
   non-empty access is out of window, so the shared value never changes. *)
let closed = { data = Bytes.empty; cap = 0; head = 0; tail = 0 }

let reset t =
  t.head <- 0;
  t.tail <- 0

let capacity t = t.cap
let head t = t.head
let tail t = t.tail
let used t = t.head - t.tail
let free t = t.cap - used t

(* Copy [len] bytes between a stream-offset position in the ring and a flat
   buffer, splitting at the physical wrap point. An empty copy touches
   nothing (and never divides by the closed ring's zero capacity). *)
let blit_in t pos src off len =
  if len > 0 then begin
    let phys = pos mod t.cap in
    let first = min len (t.cap - phys) in
    Bytes.blit src off t.data phys first;
    if len > first then Bytes.blit src (off + first) t.data 0 (len - first)
  end

let blit_out t pos dst off len =
  if len > 0 then begin
    let phys = pos mod t.cap in
    let first = min len (t.cap - phys) in
    Bytes.blit t.data phys dst off first;
    if len > first then Bytes.blit t.data 0 dst (off + first) (len - first)
  end

let push t b ~off ~len =
  let n = min len (free t) in
  if n > 0 then begin
    blit_in t t.head b off n;
    t.head <- t.head + n
  end;
  n

let write_at t ~pos b ~off ~len =
  if pos < t.tail || pos + len > t.tail + t.cap then
    invalid_arg "Ring_buffer.write_at: range outside buffer window";
  blit_in t pos b off len

let advance_head t n =
  if n < 0 || t.head + n > t.tail + t.cap then
    invalid_arg "Ring_buffer.advance_head: beyond capacity";
  t.head <- t.head + n

let read_at t ~pos ~dst ~dst_off ~len =
  if pos < t.tail || pos + len > t.tail + t.cap then
    invalid_arg "Ring_buffer.read_at: range outside buffer window";
  blit_out t pos dst dst_off len

let pop t ~dst ~dst_off ~len =
  let n = min len (used t) in
  if n > 0 then begin
    blit_out t t.tail dst dst_off n;
    t.tail <- t.tail + n
  end;
  n

let advance_tail t n =
  if n < 0 || n > used t then invalid_arg "Ring_buffer.advance_tail: beyond head";
  t.tail <- t.tail + n

module Pool = struct
  type ring = t

  let fresh = create

  (* One LIFO stack of free rings per capacity. A pool sees one or two
     capacities (the rx and tx sizes), so a linear scan finds the stack. *)
  type stack = { s_cap : int; mutable items : ring array; mutable n : int }
  type t = { mutable stacks : stack array; mutable allocated : int }

  let create () = { stacks = [||]; allocated = 0 }

  let rec index p cap i =
    if i = Array.length p.stacks then -1
    else if p.stacks.(i).s_cap = cap then i
    else index p cap (i + 1)

  let take p cap =
    let i = index p cap 0 in
    if i < 0 || p.stacks.(i).n = 0 then begin
      p.allocated <- p.allocated + 1;
      fresh cap
    end
    else begin
      let s = p.stacks.(i) in
      s.n <- s.n - 1;
      let r = s.items.(s.n) in
      s.items.(s.n) <- closed;
      reset r;
      r
    end

  let give p r =
    if r.cap > 0 then begin
      let i = index p r.cap 0 in
      let s =
        if i >= 0 then p.stacks.(i)
        else begin
          let s = { s_cap = r.cap; items = [||]; n = 0 } in
          p.stacks <- Array.append p.stacks [| s |];
          s
        end
      in
      if s.n = Array.length s.items then begin
        let items = Array.make (max 8 (2 * s.n)) closed in
        Array.blit s.items 0 items 0 s.n;
        s.items <- items
      end;
      s.items.(s.n) <- r;
      s.n <- s.n + 1
    end

  let held p = Array.fold_left (fun acc s -> acc + s.n) 0 p.stacks
  let allocated p = p.allocated
end
