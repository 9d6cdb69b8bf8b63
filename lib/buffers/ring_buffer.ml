(* [Stdlib.min] is polymorphic and calls the runtime's compare on ints;
   this one is a machine compare, on every push, pop and copy. *)
let min (a : int) b = if a < b then a else b

(* A ring's storage is [data]: a store of its own while it holds written,
   unconsumed bytes, and otherwise its capacity's shared sentinel, which is
   never written. [hi] is one past the highest stream offset written since
   the last [reset], so the ring is backed exactly when [hi > tail]: that
   counts out-of-order bytes [write_at] left beyond [head] as well as the
   contiguous [\[tail, head)]. The capacity is [Bytes.length data], so the
   record needs no fifth field: rings are created inside measured windows,
   whose minor words per packet the paired benchmark holds exactly. *)
type t = {
  mutable data : bytes;
  mutable head : int;
  mutable tail : int;
  mutable hi : int;
}

(* The stores of one capacity, per domain: the sentinel and a LIFO stack of
   free stores. The stack starts at 512 slots, past the minor heap's size
   limit, so growing it never shows in a window's minor words. A class is
   unbounded: a store is created only when every other one of its capacity
   is in use, so a class never holds more than were backed at once. *)
type cls = { sentinel : bytes; mutable free : bytes array; mutable n : int }
type stores = { mutable classes : cls array }

let stores = Domain.DLS.new_key (fun () -> { classes = [||] })

let rec index classes cap i =
  if i = Array.length classes then -1
  else if Bytes.length classes.(i).sentinel = cap then i
  else index classes cap (i + 1)

let cls cap =
  let s = Domain.DLS.get stores in
  let i = index s.classes cap 0 in
  if i >= 0 then s.classes.(i)
  else begin
    let c =
      { sentinel = Bytes.create cap; free = Array.make 512 Bytes.empty; n = 0 }
    in
    s.classes <- Array.append s.classes [| c |];
    c
  end

let back t =
  let c = cls (Bytes.length t.data) in
  if c.n = 0 then t.data <- Bytes.create (Bytes.length t.data)
  else begin
    c.n <- c.n - 1;
    t.data <- c.free.(c.n)
  end

let release t =
  let c = cls (Bytes.length t.data) in
  if c.n = Array.length c.free then begin
    let free = Array.make (2 * c.n) Bytes.empty in
    Array.blit c.free 0 free 0 c.n;
    c.free <- free
  end;
  c.free.(c.n) <- t.data;
  c.n <- c.n + 1;
  t.data <- c.sentinel

let create cap =
  if cap <= 0 then invalid_arg "Ring_buffer.create: capacity must be positive";
  { data = (cls cap).sentinel; head = 0; tail = 0; hi = 0 }

(* Zero capacity: [used = free = 0], every push accepts nothing and every
   non-empty access is out of window, so the shared value is never backed
   and never changes. *)
let closed = { data = Bytes.empty; head = 0; tail = 0; hi = 0 }

let backed t = t.hi > t.tail

let reset t =
  if backed t then release t;
  t.head <- 0;
  t.tail <- 0;
  t.hi <- 0

let capacity t = Bytes.length t.data
let head t = t.head
let tail t = t.tail
let used t = t.head - t.tail
let free t = capacity t - used t

(* Copy [len] bytes between a stream-offset position in the ring and a flat
   buffer, splitting at the physical wrap point. An empty copy touches
   nothing (and never divides by the closed ring's zero capacity). A
   non-empty write takes a store first if the ring has none. *)
let blit_in t pos src off len =
  if len > 0 then begin
    if not (backed t) then back t;
    let cap = Bytes.length t.data in
    let phys = pos mod cap in
    let first = min len (cap - phys) in
    Bytes.blit src off t.data phys first;
    if len > first then Bytes.blit src (off + first) t.data 0 (len - first);
    if pos + len > t.hi then t.hi <- pos + len
  end

let blit_out t pos dst off len =
  if len > 0 then begin
    let cap = Bytes.length t.data in
    let phys = pos mod cap in
    let first = min len (cap - phys) in
    Bytes.blit t.data phys dst off first;
    if len > first then Bytes.blit t.data 0 dst (off + first) (len - first)
  end

(* Consume [n] bytes; the store goes back once nothing written is left
   at or beyond the new tail. *)
let consume t n =
  let was_backed = backed t in
  t.tail <- t.tail + n;
  if was_backed && not (backed t) then release t

let push t b ~off ~len =
  let n = min len (free t) in
  if n > 0 then begin
    blit_in t t.head b off n;
    t.head <- t.head + n
  end;
  n

let write_at t ~pos b ~off ~len =
  if pos < t.tail || pos + len > t.tail + capacity t then
    invalid_arg "Ring_buffer.write_at: range outside buffer window";
  blit_in t pos b off len

let advance_head t n =
  if n < 0 || t.head + n > t.tail + capacity t then
    invalid_arg "Ring_buffer.advance_head: beyond capacity";
  t.head <- t.head + n

let read_at t ~pos ~dst ~dst_off ~len =
  if pos < t.tail || pos + len > t.tail + capacity t then
    invalid_arg "Ring_buffer.read_at: range outside buffer window";
  blit_out t pos dst dst_off len

let pop t ~dst ~dst_off ~len =
  let n = min len (used t) in
  if n > 0 then begin
    blit_out t t.tail dst dst_off n;
    consume t n
  end;
  n

let advance_tail t n =
  if n < 0 || n > used t then invalid_arg "Ring_buffer.advance_tail: beyond head";
  consume t n

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
      r
    end

  let give p r =
    let cap = capacity r in
    if cap > 0 then begin
      reset r;
      let i = index p cap 0 in
      let s =
        if i >= 0 then p.stacks.(i)
        else begin
          let s = { s_cap = cap; items = [||]; n = 0 } in
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
