type kind = Readable | Writable

(* A fixed circular queue of (kind, flow) events in two parallel arrays:
   posting stores two fields and allocates nothing. Vacated slots hold
   [Flow_state.absent]. *)
type t = {
  id : int;
  kinds : kind array;
  flows : Flow_state.t array;
  mutable head : int;
  mutable len : int;
  mutable waker : unit -> unit;
}

let create ~id ~capacity =
  if capacity <= 0 then invalid_arg "Context.create: capacity must be positive";
  {
    id;
    kinds = Array.make capacity Readable;
    flows = Array.make capacity Flow_state.absent;
    head = 0;
    len = 0;
    waker = ignore;
  }

let id t = t.id
let set_waker t f = t.waker <- f

let post t kind flow =
  let cap = Array.length t.flows in
  if t.len = cap then
    (* Coalescing bounds the queue at two events per flow; hitting capacity
       means the context was sized too small for its flow count. *)
    failwith "Context: queue overflow (capacity < 2 * flows)";
  let i = (t.head + t.len) mod cap in
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
