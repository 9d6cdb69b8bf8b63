module Sim = Tas_engine.Sim
module Packet = Tas_proto.Packet
module Span = Tas_telemetry.Span

type route = Single of int | Ecmp of int array

type t = {
  sim : Sim.t;
  mutable ports : Port.t option array;
  mutable port_count : int;
  routes : (Tas_proto.Addr.ipv4, route) Hashtbl.t;
  mutable no_route : int;
  mutable span : Span.t;
}

let forwarding_delay = 500

let create sim =
  {
    sim;
    ports = Array.make 8 None;
    port_count = 0;
    routes = Hashtbl.create 64;
    no_route = 0;
    span = Span.disabled ();
  }

let set_span t span = t.span <- span

let add_port t port =
  if t.port_count = Array.length t.ports then begin
    let bigger = Array.make (2 * t.port_count) None in
    Array.blit t.ports 0 bigger 0 t.port_count;
    t.ports <- bigger
  end;
  t.ports.(t.port_count) <- Some port;
  t.port_count <- t.port_count + 1;
  t.port_count - 1

let port t i =
  match if i < 0 || i >= t.port_count then None else t.ports.(i) with
  | Some p -> p
  | None -> invalid_arg "Switch.port: bad port id"

let add_route t dst port_id = Hashtbl.replace t.routes dst (Single port_id)

let add_ecmp_route t dst port_ids =
  match port_ids with
  | [] -> invalid_arg "Switch.add_ecmp_route: empty group"
  | [ p ] -> add_route t dst p
  | ps -> Hashtbl.replace t.routes dst (Ecmp (Array.of_list ps))

let input t pkt =
  match Hashtbl.find_opt t.routes pkt.Packet.ip.Tas_proto.Ipv4_header.dst with
  | None ->
    t.no_route <- t.no_route + 1;
    Packet.release pkt
  | Some route ->
    let port_id =
      match route with
      | Single p -> p
      | Ecmp ps -> ps.(Packet.flow_hash pkt mod Array.length ps)
    in
    (match t.ports.(port_id) with
    | None ->
      t.no_route <- t.no_route + 1;
      Packet.release pkt
    | Some out ->
      if pkt.Packet.span >= 0 then
        Span.record t.span ~ts:(Sim.now t.sim) ~id:pkt.Packet.span
          ~hop:Span.Switch_fwd ~core:(-1) ~flow:(-1);
      Sim.post t.sim forwarding_delay (fun () -> Port.enqueue out pkt))

let no_route_drops t = t.no_route

let register t m ?(labels = []) () =
  let module Metrics = Tas_telemetry.Metrics in
  Metrics.counter_fn m ~labels ~help:"packets dropped for lack of a route"
    "switch_no_route_drops" (fun () -> t.no_route);
  for i = 0 to t.port_count - 1 do
    match t.ports.(i) with
    | None -> ()
    | Some p ->
      Port.register p m ~labels:(labels @ [ ("port", string_of_int i) ]) ()
  done
