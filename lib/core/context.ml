type kind = Readable | Writable

(* A circular queue of (kind, flow) events in two parallel arrays:
   posting stores two fields and allocates nothing until the queue fills,
   when both arrays double in place. Vacated slots hold
   [Flow_state.absent]. *)
type t = {
  id : int;
  mutable kinds : kind array;
  mutable flows : Flow_state.t array;
  mutable head : int;
  mutable len : int;
  mutable waker : unit -> unit;
}

(* Coalescing bounds a context at two events per flow, so no context with
   at most 2,048 flows ever grows past this. *)
let initial_capacity = 4096

let create ~id =
  {
    id;
    kinds = Array.make initial_capacity Readable;
    flows = Array.make initial_capacity Flow_state.absent;
    head = 0;
    len = 0;
    waker = ignore;
  }

let id t = t.id
let set_waker t f = t.waker <- f

let grow t =
  let cap = Array.length t.flows in
  let kinds = Array.make (2 * cap) Readable
  and flows = Array.make (2 * cap) Flow_state.absent in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) mod cap in
    kinds.(i) <- t.kinds.(j);
    flows.(i) <- t.flows.(j)
  done;
  t.kinds <- kinds;
  t.flows <- flows;
  t.head <- 0

let post t kind flow =
  if t.len = Array.length t.flows then grow t;
  let i = (t.head + t.len) mod Array.length t.flows in
  t.kinds.(i) <- kind;
  t.flows.(i) <- flow;
  t.len <- t.len + 1;
  if t.len = 1 then t.waker ()

let post_readable t flow =
  if not (Flow_state.rx_notified flow) then begin
    Flow_state.set_rx_notified flow true;
    post t Readable flow
  end

let post_writable t flow =
  if not (Flow_state.tx_notified flow) then begin
    Flow_state.set_tx_notified flow true;
    post t Writable flow
  end

let head_kind t =
  if t.len = 0 then invalid_arg "Context.head_kind: empty queue";
  t.kinds.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Context.pop: empty queue";
  let flow = t.flows.(t.head) in
  (match t.kinds.(t.head) with
  | Readable -> Flow_state.set_rx_notified flow false
  | Writable -> Flow_state.set_tx_notified flow false);
  t.flows.(t.head) <- Flow_state.absent;
  t.head <- (t.head + 1) mod Array.length t.flows;
  t.len <- t.len - 1;
  flow

let pending t = t.len
let is_empty t = t.len = 0
