let local_cost = 24
let remote_cost = 96

type t = {
  mutable acquisitions : int;
  mutable remote_acquisitions : int;
  mutable cycles : int;
  mutable remote_cycles_total : int;
}

let create () =
  {
    acquisitions = 0;
    remote_acquisitions = 0;
    cycles = 0;
    remote_cycles_total = 0;
  }

let acquire t ~remote =
  t.acquisitions <- t.acquisitions + 1;
  let c = if remote then remote_cost else local_cost in
  t.cycles <- t.cycles + c;
  if remote then begin
    t.remote_acquisitions <- t.remote_acquisitions + 1;
    t.remote_cycles_total <- t.remote_cycles_total + c
  end;
  c

let acquisitions t = t.acquisitions
let remote_acquisitions t = t.remote_acquisitions
let cycles t = t.cycles
let remote_cycles t = t.remote_cycles_total
