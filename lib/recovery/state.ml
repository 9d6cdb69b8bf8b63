module J = Tas_telemetry.Json

type t = {
  kind : Policy.kind;
  sb : Scoreboard.t;
  mutable recovery_point : Tas_proto.Seq32.t;
  mutable in_rec : bool;
  mutable rack_ts : int;
  mutable reo_armed : bool;
  mutable tlp_armed : bool;
  mutable gen : int;
  mutable tlp_timer : int -> unit;
  mutable reo_timer : int -> unit;
  mutable tlp_core : int;
  mutable reo_core : int;
  mutable newly_sacked : int;
  mutable newly_lost : int;
  mutable rack_lost : int;
  mutable entered : bool;
  mutable exited : bool;
}

let no_timer (_ : int) = ()

let make kind =
  {
    kind;
    sb = Scoreboard.create ();
    recovery_point = 0;
    in_rec = false;
    rack_ts = -1;
    reo_armed = false;
    tlp_armed = false;
    gen = 0;
    tlp_timer = no_timer;
    reo_timer = no_timer;
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

let bump_gen t = t.gen <- t.gen + 1

let reset t =
  Scoreboard.reset t.sb;
  t.in_rec <- false;
  t.rack_ts <- -1;
  bump_gen t

let to_json t =
  J.Obj
    [
      ("policy", J.Str (Policy.name t.kind));
      ("in_episode", J.Bool t.in_rec);
      ("scoreboard", Scoreboard.to_json t.sb);
    ]
