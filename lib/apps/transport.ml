module E = Tas_baseline.Tcp_engine
module SM = Tas_baseline.Server_model
module Libtas = Tas_core.Libtas

type conn = {
  send : bytes -> int;
  close : unit -> unit;
  charge : int -> (unit -> unit) -> unit;
}

type handlers = {
  on_connected : conn -> unit;
  on_data : conn -> bytes -> unit;
  on_sendable : conn -> unit;
  on_peer_closed : conn -> unit;
  on_closed : conn -> unit;
}

let null_handlers =
  {
    on_connected = ignore;
    on_data = (fun _ _ -> ());
    on_sendable = ignore;
    on_peer_closed = ignore;
    on_closed = ignore;
  }

type t = {
  listen_impl : port:int -> (conn -> handlers) -> unit;
  connect_impl : dst_ip:Tas_proto.Addr.ipv4 -> dst_port:int ->
    (conn -> handlers) -> unit;
}

let listen t = t.listen_impl
let connect t = t.connect_impl
let send c = c.send
let close c = c.close ()
let charge_app c = c.charge

(* Each adapter has one [attach gen] that builds a connection over the
   stack's own: the wrapper, then the application's handlers from [gen],
   then the stack's callbacks over both. [listen] hands it to the stack as
   the accept function; [connect] opens the stack's connection with no
   callbacks and sets them from [attach], before any event can fire. *)

let over_engine engine attach =
  {
    listen_impl = (fun ~port gen -> E.listen engine ~port (attach gen));
    connect_impl =
      (fun ~dst_ip ~dst_port gen ->
        let econn = E.connect engine ~dst_ip ~dst_port E.null_callbacks in
        E.set_callbacks econn (attach gen econn));
  }

(* --- Ideal engine host (clients) ---------------------------------------- *)

let of_engine engine =
  let attach gen econn =
    let c =
      {
        send = (fun data -> E.send econn data);
        close = (fun () -> E.close econn);
        charge = (fun _cycles k -> k ());
      }
    in
    let h = gen c in
    {
      E.on_connected = (fun _ -> h.on_connected c);
      on_receive = (fun _ data -> h.on_data c data);
      on_sendable = (fun _ _ -> h.on_sendable c);
      on_closed = (fun _ -> h.on_peer_closed c);
      on_connect_failed = (fun _ -> h.on_closed c);
    }
  in
  over_engine engine attach

(* --- Cost-charged baseline server ---------------------------------------- *)

let of_server_model sm =
  let attach gen econn =
    (* EPOLLOUT semantics: a sendable notification costs API cycles, so it
       is delivered only when the application armed it with a short send. *)
    let want_sendable = ref false in
    let closed = ref false in
    let c =
      {
        send =
          (fun data ->
            if !closed then 0
            else begin
              let n = SM.send sm econn data in
              if n < Bytes.length data then want_sendable := true;
              n
            end);
        close =
          (fun () ->
            closed := true;
            SM.close sm econn);
        charge = (fun cycles k -> SM.charge_app sm econn ~cycles k);
      }
    in
    let h = gen c in
    (* epoll-style batching: packets arriving while the app is busy are
       delivered in one wakeup, amortizing the API cost over the batch. *)
    let rx_pending = Buffer.create 256 in
    let rx_scheduled = ref false in
    (* The four deliveries, built once per connection. *)
    let connected () = h.on_connected c in
    let readable () =
      rx_scheduled := false;
      let batch = Buffer.to_bytes rx_pending in
      Buffer.clear rx_pending;
      if Bytes.length batch > 0 then h.on_data c batch
    in
    let sendable () = h.on_sendable c in
    let peer_closed () = h.on_peer_closed c in
    {
      E.on_connected = (fun _ -> SM.deliver_to_app sm econn connected);
      on_receive =
        (fun _ data ->
          Buffer.add_bytes rx_pending data;
          if not !rx_scheduled then begin
            rx_scheduled := true;
            SM.deliver_to_app sm econn readable
          end);
      on_sendable =
        (fun _ _ ->
          if !want_sendable then begin
            want_sendable := false;
            SM.deliver_to_app sm econn sendable
          end);
      on_closed = (fun _ -> SM.deliver_to_app sm econn peer_closed);
      on_connect_failed =
        (fun _ -> SM.deliver_to_app sm econn (fun () -> h.on_closed c));
    }
  in
  over_engine (SM.engine sm) attach

(* --- TAS over libTAS ------------------------------------------------------- *)

let of_libtas lt ~ctx_of_conn =
  let attach gen sock =
    let c =
      {
        send = (fun data -> Libtas.send sock data);
        close = (fun () -> Libtas.close sock);
        charge = (fun cycles k -> Libtas.app_cycles sock cycles k);
      }
    in
    let h = gen c in
    {
      Libtas.on_connected = (fun _ -> h.on_connected c);
      on_data = (fun _ data -> h.on_data c data);
      on_sendable = (fun _ -> h.on_sendable c);
      on_peer_closed = (fun _ -> h.on_peer_closed c);
      on_closed = (fun _ -> h.on_closed c);
      on_connect_failed = (fun _ _err -> h.on_closed c);
      (* A reset is surfaced to transport users as the on_closed that
         follows when the flow is removed. *)
      on_reset = (fun _ -> ());
    }
  in
  let counter = ref 0 in
  let next_ctx () =
    incr counter;
    ctx_of_conn !counter
  in
  {
    listen_impl =
      (fun ~port gen ->
        Libtas.listen lt ~port ~ctx_of_tuple:(fun _ -> next_ctx ()) (attach gen));
    connect_impl =
      (fun ~dst_ip ~dst_port gen ->
        let sock =
          Libtas.connect lt ~ctx:(next_ctx ()) ~dst_ip ~dst_port
            Libtas.null_handlers
        in
        Libtas.set_handlers sock (attach gen sock));
  }
