type t = {
  ts : int array;
  code : int array;
  id : int array;
  core : int array;
  flow : int array;
  mutable head : int;  (* slot of the oldest event *)
  mutable length : int;
  mutable recorded : int;
  mutable dropped : int;
}

let create cap =
  if cap <= 0 then invalid_arg "Event_ring.create: capacity must be positive";
  let column () = Array.make cap 0 in
  {
    ts = column ();
    code = column ();
    id = column ();
    core = column ();
    flow = column ();
    head = 0;
    length = 0;
    recorded = 0;
    dropped = 0;
  }

let capacity t = Array.length t.ts
let length t = t.length
let recorded t = t.recorded
let dropped t = t.dropped

(* The slot [n] places after the oldest event. *)
let slot t n =
  let s = t.head + n in
  if s >= capacity t then s - capacity t else s

let push t ~ts ~code ~id ~core ~flow =
  t.recorded <- t.recorded + 1;
  if t.length = capacity t then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let s = slot t t.length in
    t.ts.(s) <- ts;
    t.code.(s) <- code;
    t.id.(s) <- id;
    t.core.(s) <- core;
    t.flow.(s) <- flow;
    t.length <- t.length + 1;
    true
  end

type 'a reader = ts:int -> code:int -> id:int -> core:int -> flow:int -> 'a

let peek t f =
  if t.length = 0 then None
  else
    let s = t.head in
    Some
      (f ~ts:t.ts.(s) ~code:t.code.(s) ~id:t.id.(s) ~core:t.core.(s)
         ~flow:t.flow.(s))

let pop t f =
  let ev = peek t f in
  if t.length > 0 then begin
    t.head <- slot t 1;
    t.length <- t.length - 1
  end;
  ev

let drain t f =
  let rec go acc =
    match pop t f with Some ev -> go (ev :: acc) | None -> List.rev acc
  in
  go []
