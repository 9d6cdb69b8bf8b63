module Sim = Tas_engine.Sim
module Core = Tas_cpu.Core
module Ring = Tas_buffers.Ring_buffer
module Buf_pool = Tas_buffers.Buf_pool
module Metrics = Tas_telemetry.Metrics
module Span = Tas_telemetry.Span

type api = Sockets | Lowlevel

type stats = {
  mutable events_dispatched : int;
  mutable sockets_opened : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
}

type t = {
  sim : Sim.t;
  fp : Fast_path.t;
  sp : Slow_path.t;
  mutable contexts : app_context array;
      (* set once in [create]: their queues' dummy socket needs [t] *)
  api : api;
  api_cycles : int;  (* per context-queue event *)
  epoll_cycles : int;
  sockets : (int, socket) Hashtbl.t;
  mutable next_id : int;
  stats : stats;
  callbacks : Slow_path.conn_callbacks;  (* over [sockets] *)
}

and app_context = {
  ctx : Context.t;
  core : Core.t;
  mutable draining : bool;
  (* Persistent event-loop step: one closure per context for the lifetime
     of the app, not one per dispatched event. *)
  step : unit -> unit;
  (* Slow-path connection events, run on [core] with an API charge. *)
  connected : socket Core.queue;
  failures : (socket * Slow_path.conn_error) Core.queue;
  resets : (socket * bool) Core.queue;
      (* whether to deliver: the app had not closed the socket *)
  closes : socket Core.queue;
}

and socket = {
  id : int;
  owner : t;
  ctx_index : int;  (* index into [contexts], not the global context id *)
  mutable flow : Flow_state.t option;
  mutable handlers : handlers;
  mutable eof_delivered : bool;
  mutable closed : bool;
}

and handlers = {
  on_connected : socket -> unit;
  on_data : socket -> bytes -> unit;
  on_sendable : socket -> unit;
  on_peer_closed : socket -> unit;
  on_closed : socket -> unit;
  on_connect_failed : socket -> Slow_path.conn_error -> unit;
  on_reset : socket -> unit;
}

let null_handlers =
  {
    on_connected = ignore;
    on_data = (fun _ _ -> ());
    on_sendable = ignore;
    on_peer_closed = ignore;
    on_closed = ignore;
    on_connect_failed = (fun _ _ -> ());
    on_reset = ignore;
  }

let set_handlers s h = s.handlers <- h
let stats t = t.stats

let register t m ?(labels = []) () =
  let s = t.stats in
  let c name help f = Metrics.counter_fn m ~labels ~help name f in
  c "lt_events_dispatched" "context-queue events delivered to the app"
    (fun () -> s.events_dispatched);
  c "lt_sockets_opened" "sockets created" (fun () -> s.sockets_opened);
  c "lt_rx_bytes" "payload bytes delivered to the app" (fun () -> s.rx_bytes);
  c "lt_tx_bytes" "payload bytes accepted from the app" (fun () -> s.tx_bytes);
  Metrics.gauge_fn m ~labels ~help:"sockets currently open" "lt_open_sockets"
    (fun () -> float_of_int (Hashtbl.length t.sockets))

(* Table 1 calibration: the sockets layer costs 0.62 kc per request (one
   Readable event plus the send call it triggers); the low-level interface
   costs 168 cycles (§2.2). We charge the cost per context-queue event. *)
let cycles_of_api = function Sockets -> 620 | Lowlevel -> 168

(* --- Event-loop (epoll emulation) --------------------------------------- *)

(* One [Core.run] per context-queue event, but through the context's
   persistent [step] thunk: popping at fire time (rather than at schedule
   time) lets arrivals in between coalesce into the queued notification and
   keeps the loop allocation-free. *)
let rec drain_context t actx =
  if Context.is_empty actx.ctx then actx.draining <- false
  else Core.run actx.core ~cat:Core.Api ~cycles:t.api_cycles actx.step

and drain_step t actx =
  if not (Context.is_empty actx.ctx) then begin
    let kind = Context.head_kind actx.ctx in
    let flow = Context.pop actx.ctx in
    t.stats.events_dispatched <- t.stats.events_dispatched + 1;
    dispatch t kind flow
  end;
  drain_context t actx

and dispatch t kind flow =
  match kind with
  | Context.Readable -> begin
    (* [find] rather than [find_opt]: a hit allocates no option. *)
    match Hashtbl.find t.sockets (Flow_state.opaque flow) with
    | exception Not_found -> ()
    | sock ->
      let rx_buf = Flow_state.rx_buf flow in
      let available = Ring.used rx_buf in
      if available > 0 then begin
        (* Borrowed delivery buffer: recycled through the payload pool after
           [on_data] returns, so handlers must consume it synchronously (all
           in-tree handlers copy or parse before returning — see the
           contract on [handlers] in the interface). *)
        let buf = Buf_pool.take (Buf_pool.local ()) available in
        let n = Ring.pop rx_buf ~dst:buf ~dst_off:0 ~len:available in
        assert (n = available);
        t.stats.rx_bytes <- t.stats.rx_bytes + n;
        if Flow_state.rx_span flow >= 0 then begin
          Span.record (Fast_path.span t.fp) ~ts:(Sim.now t.sim)
            ~id:(Flow_state.rx_span flow) ~hop:Span.App_deliver
            ~core:(Core.id t.contexts.(sock.ctx_index).core)
            ~flow:(Flow_state.opaque flow);
          Flow_state.set_rx_span flow (-1)
        end;
        sock.handlers.on_data sock buf;
        Buf_pool.give (Buf_pool.local ()) buf
      end;
      if
        Flow_state.fin_received flow
        && Ring.used rx_buf = 0
        && not sock.eof_delivered
      then begin
        sock.eof_delivered <- true;
        sock.handlers.on_peer_closed sock
      end
  end
  | Context.Writable -> begin
    match Hashtbl.find t.sockets (Flow_state.opaque flow) with
    | exception Not_found -> ()
    | sock ->
      (* A closed socket sends nothing more: freed space is moot. *)
      if not sock.closed then sock.handlers.on_sendable sock
  end

let wake t actx =
  if not actx.draining then begin
    actx.draining <- true;
    (* eventfd wakeup of a blocked application thread (~3 us) when the core
       is idle; a busy core is already polling its context queue. The step
       thunk pops nothing on this first firing beyond what [drain_step]
       always does: pop one event, dispatch, reschedule. The epoll charge
       lands through [cycles] here; each event still pays [api_cycles]. *)
    if Core.backlog_ns actx.core = 0 then
      Core.run_after actx.core ~cat:Core.Api ~delay:3_000
        ~cycles:(t.epoll_cycles + t.api_cycles) actx.step
    else
      Core.run actx.core ~cat:Core.Api
        ~cycles:(t.epoll_cycles + t.api_cycles) actx.step
  end

(* --- Slow-path callback plumbing ----------------------------------------- *)

(* Slow-path events are re-scheduled onto the socket's application core with
   an API charge, like any other notification. *)
let app_context sock = sock.owner.contexts.(sock.ctx_index)

(* The socket is gone for the slow path: no further event names it. *)
let forget sockets sock =
  Hashtbl.remove sockets sock.id;
  sock.closed <- true

(* One callbacks record per instance, over its socket table: each event
   finds its socket by the connection's opaque, the socket id. A socket
   stays in [sockets] from its creation until its [closed] or [failed]
   callback, the last one to fire. *)
let conn_callbacks sockets fp =
  {
    Slow_path.established =
      (fun flow ->
        match Hashtbl.find sockets (Flow_state.opaque flow) with
        | exception Not_found -> ()
        | sock ->
          sock.flow <- Some flow;
          (* Closed while the handshake was pending: [close] had no flow
             to close, so the close goes out now. *)
          if sock.closed then Slow_path.close sock.owner.sp flow;
          Core.submit (app_context sock).connected ~cat:Core.Api
            ~cycles:sock.owner.api_cycles sock);
    failed =
      (fun opaque err ->
        match Hashtbl.find sockets opaque with
        | exception Not_found -> ()
        | sock ->
          forget sockets sock;
          Core.submit (app_context sock).failures ~cat:Core.Api
            ~cycles:sock.owner.api_cycles (sock, err));
    reset =
      (fun flow ->
        (* Abort notification; [closed] follows at once as the slow path
           removes the flow and forgets the socket, so whether the app had
           closed it is decided now. *)
        match Hashtbl.find sockets (Flow_state.opaque flow) with
        | exception Not_found -> ()
        | sock ->
          Core.submit (app_context sock).resets ~cat:Core.Api
            ~cycles:sock.owner.api_cycles
            (sock, not sock.closed));
    peer_closed =
      (fun flow ->
        (* Order EOF behind any undelivered payload via the context queue;
           after shutdown the context is gone and the event is moot. *)
        match Fast_path.find_context fp (Flow_state.context flow) with
        | Some ctx -> Context.post_readable ctx flow
        | None -> ());
    closed =
      (fun flow ->
        match Hashtbl.find sockets (Flow_state.opaque flow) with
        | exception Not_found -> ()
        | sock ->
          forget sockets sock;
          Core.submit (app_context sock).closes ~cat:Core.Api ~cycles:100 sock);
  }

(* --- Construction -------------------------------------------------------- *)

let socket t ~id ~ctx_index handlers =
  {
    id;
    owner = t;
    ctx_index;
    flow = None;
    handlers;
    eof_delivered = false;
    closed = false;
  }

let create sim ~fast_path ~slow_path ~app_cores ~api () =
  if Array.length app_cores = 0 then invalid_arg "Libtas.create: no app cores";
  let sockets = Hashtbl.create 256 in
  let t =
    {
      sim;
      fp = fast_path;
      sp = slow_path;
      contexts = [||];
      api;
      api_cycles = cycles_of_api api;
      epoll_cycles = 150;
      sockets;
      next_id = 1;
      stats =
        { events_dispatched = 0; sockets_opened = 0; rx_bytes = 0; tx_bytes = 0 };
      callbacks = conn_callbacks sockets fast_path;
    }
  in
  let dummy = socket t ~id:0 ~ctx_index:0 null_handlers in
  t.contexts <-
    Array.map
      (fun core ->
        let rec actx =
          {
            ctx = Context.create ~id:(Fast_path.fresh_context_id fast_path);
            core;
            draining = false;
            step = (fun () -> drain_step t actx);
            connected = Core.queue core ~dummy;
            failures = Core.queue core ~dummy:(dummy, Slow_path.Timeout);
            resets = Core.queue core ~dummy:(dummy, false);
            closes = Core.queue core ~dummy;
          }
        in
        Core.set_handler actx.connected (fun sock ->
            if not sock.closed then sock.handlers.on_connected sock);
        Core.set_handler actx.failures (fun (sock, err) ->
            sock.handlers.on_connect_failed sock err);
        Core.set_handler actx.resets (fun (sock, deliver) ->
            if deliver then sock.handlers.on_reset sock);
        Core.set_handler actx.closes (fun sock -> sock.handlers.on_closed sock);
        Fast_path.register_context fast_path actx.ctx;
        Context.set_waker actx.ctx (fun () -> wake t actx);
        actx)
      app_cores;
  t

let fresh_socket t ~ctx_index ~handlers =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let sock = socket t ~id ~ctx_index handlers in
  Hashtbl.replace t.sockets id sock;
  t.stats.sockets_opened <- t.stats.sockets_opened + 1;
  sock

let listen t ~port ~ctx_of_tuple handler_gen =
  Slow_path.listen t.sp ~port (fun tuple ->
      let ctx_index = ctx_of_tuple tuple mod Array.length t.contexts in
      let sock = fresh_socket t ~ctx_index ~handlers:null_handlers in
      sock.handlers <- handler_gen sock;
      Some (sock.id, Context.id t.contexts.(ctx_index).ctx, t.callbacks))

let connect t ~ctx ~dst_ip ~dst_port handlers =
  let ctx_index = ctx mod Array.length t.contexts in
  let sock = fresh_socket t ~ctx_index ~handlers in
  Slow_path.connect t.sp ~opaque:sock.id
    ~context_id:(Context.id t.contexts.(ctx_index).ctx)
    ~dst_ip ~dst_port t.callbacks;
  sock

let send sock data =
  match sock.flow with
  | None -> 0
  | Some flow ->
    if sock.closed || Flow_state.fin_sent flow then 0
    else begin
      let n =
        Ring.push (Flow_state.tx_buf flow) data ~off:0 ~len:(Bytes.length data)
      in
      sock.owner.stats.tx_bytes <- sock.owner.stats.tx_bytes + n;
      if n > 0 then begin
        let sp = Fast_path.span sock.owner.fp in
        if Span.enabled sp && Flow_state.tx_span flow < 0 then
          Flow_state.set_tx_span flow
            (Span.start sp ~ts:(Sim.now sock.owner.sim) ~hop:Span.App_send
               ~core:(Core.id sock.owner.contexts.(sock.ctx_index).core)
               ~flow:(Flow_state.opaque flow));
        Fast_path.notify_tx sock.owner.fp flow
      end;
      if n < Bytes.length data then Flow_state.set_tx_interest flow true;
      n
    end

let tx_free sock =
  match sock.flow with
  | None -> 0
  | Some flow -> Ring.free (Flow_state.tx_buf flow)

let want_sendable sock =
  match sock.flow with
  | None -> ()
  | Some flow -> Flow_state.set_tx_interest flow true

let close sock =
  if not sock.closed then begin
    sock.closed <- true;
    match sock.flow with
    | None -> ()
    | Some flow -> Slow_path.close sock.owner.sp flow
  end

let app_cycles sock cycles k =
  Core.run (app_context sock).core ~cat:Core.App ~cycles k

(* Application exit: the slow path detects the hangup on the UNIX domain
   socket and cleans up every connection the application still holds
   (paper §4, "automatic cleanup"). *)
let shutdown t =
  let socks = Hashtbl.fold (fun _ s acc -> s :: acc) t.sockets [] in
  List.iter (fun sock -> close sock) socks;
  Array.iter
    (fun actx -> Fast_path.unregister_context t.fp (Context.id actx.ctx))
    t.contexts
