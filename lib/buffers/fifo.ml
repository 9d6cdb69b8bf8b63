type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

let create dummy = { buf = Array.make 64 dummy; head = 0; len = 0; dummy }
let length q = q.len

let push q x =
  let cap = Array.length q.buf in
  if q.len = cap then begin
    let bigger = Array.make (2 * cap) q.dummy in
    for i = 0 to q.len - 1 do
      bigger.(i) <- q.buf.((q.head + i) mod cap)
    done;
    q.buf <- bigger;
    q.head <- 0
  end;
  q.buf.((q.head + q.len) mod Array.length q.buf) <- x;
  q.len <- q.len + 1

let pop q =
  if q.len = 0 then invalid_arg "Fifo.pop: empty";
  let x = q.buf.(q.head) in
  q.buf.(q.head) <- q.dummy;
  q.head <- (q.head + 1) mod Array.length q.buf;
  q.len <- q.len - 1;
  x

let reverse_last q n =
  if n < 0 || n > q.len then invalid_arg "Fifo.reverse_last";
  let cap = Array.length q.buf in
  let i = ref (q.head + q.len - n) and j = ref (q.head + q.len - 1) in
  while !i < !j do
    let a = q.buf.(!i mod cap) in
    q.buf.(!i mod cap) <- q.buf.(!j mod cap);
    q.buf.(!j mod cap) <- a;
    incr i;
    decr j
  done
