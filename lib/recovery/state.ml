module J = Tas_telemetry.Json
module Sim = Tas_engine.Sim

type t = {
  kind : Policy.kind;
  sb : Scoreboard.t;
  mutable recovery_point : Tas_proto.Seq32.t;
  mutable in_rec : bool;
  mutable rack_ts : int;
  mutable tlp_ev : Sim.event;
  mutable reo_ev : Sim.event;
  mutable tlp_fire : unit -> unit;
  mutable reo_fire : unit -> unit;
  mutable tlp_core : int;
  mutable reo_core : int;
  mutable newly_sacked : int;
  mutable newly_lost : int;
  mutable rack_lost : int;
  mutable entered : bool;
  mutable exited : bool;
}

(* Compared by identity: [Stdlib.ignore] is a primitive, and each use of it
   as a value is a fresh closure. *)
let no_action () = ()

let make kind =
  {
    kind;
    sb = Scoreboard.create ();
    recovery_point = 0;
    in_rec = false;
    rack_ts = -1;
    tlp_ev = Sim.no_event;
    reo_ev = Sim.no_event;
    tlp_fire = no_action;
    reo_fire = no_action;
    tlp_core = 0;
    reo_core = 0;
    newly_sacked = 0;
    newly_lost = 0;
    rack_lost = 0;
    entered = false;
    exited = false;
  }

let reno = make Policy.Reno

let create = function Policy.Reno -> reno | kind -> make kind

let disarm sim t =
  Sim.cancel sim t.tlp_ev;
  t.tlp_ev <- Sim.no_event;
  Sim.cancel sim t.reo_ev;
  t.reo_ev <- Sim.no_event

let reset sim t =
  Scoreboard.reset t.sb;
  t.in_rec <- false;
  t.rack_ts <- -1;
  disarm sim t

let to_json t =
  J.Obj
    [
      ("policy", J.Str (Policy.name t.kind));
      ("in_episode", J.Bool t.in_rec);
      ("scoreboard", Scoreboard.to_json t.sb);
    ]
