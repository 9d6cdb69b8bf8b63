module Sim = Tas_engine.Sim
module Stats = Tas_engine.Stats

type stats = {
  completed : Stats.Counter.t;
  latency_us : Stats.Hist.t;
  connects : Stats.Counter.t;
}

let make_stats () =
  {
    completed = Stats.Counter.create ();
    latency_us = Stats.Hist.create ();
    connects = Stats.Counter.create ();
  }

(* Count complete [msg_size] messages in a byte stream; carry the remainder
   between arrivals. *)
let message_counter msg_size =
  let acc = ref 0 in
  fun arrived ->
    acc := !acc + arrived;
    let complete = !acc / msg_size in
    acc := !acc mod msg_size;
    complete

let server transport ~port ~msg_size ~app_cycles =
  Transport.listen transport ~port (fun _conn ->
      let count = message_counter msg_size in
      let pending_replies = ref 0 in
      let rec reply conn =
        if !pending_replies > 0 then begin
          let sent = Transport.send conn (Bytes.create msg_size) in
          if sent = msg_size then begin
            decr pending_replies;
            reply conn
          end
          (* Partial/zero send: wait for on_sendable. A partial write would
             desynchronize message framing, so responses are all-or-nothing
             against the free buffer space reported by the transport. *)
        end
      in
      {
        Transport.null_handlers with
        Transport.on_data =
          (fun conn data ->
            let complete = count (Bytes.length data) in
            if complete > 0 then
              Transport.charge_app conn (complete * app_cycles) (fun () ->
                  pending_replies := !pending_replies + complete;
                  reply conn));
        Transport.on_sendable = (fun conn -> reply conn);
        (* Close when the client does, as [Kv_store]'s server does, so a
           finished connection gives back its flow slot. *)
        Transport.on_peer_closed = Transport.close;
      })

let sink_server transport ~port ~msg_size ~app_cycles ~received =
  Transport.listen transport ~port (fun _conn ->
      let count = message_counter msg_size in
      {
        Transport.null_handlers with
        Transport.on_data =
          (fun conn data ->
            let complete = count (Bytes.length data) in
            if complete > 0 then
              Transport.charge_app conn (complete * app_cycles) (fun () ->
                  Stats.Counter.add received complete));
        Transport.on_peer_closed = Transport.close;
      })

let flood_server transport ~port ~msg_size ~app_cycles ~sent =
  Transport.listen transport ~port (fun _conn ->
      (* Unfinished message bytes carry over partial sends so framing holds
         and a message is counted exactly once, when its last byte is
         accepted. *)
      let remaining = ref 0 in
      let rec flood conn =
        if !remaining > 0 then begin
          let n = Transport.send conn (Bytes.create !remaining) in
          remaining := !remaining - n;
          if !remaining = 0 then begin
            Stats.Counter.incr sent;
            Transport.charge_app conn app_cycles (fun () -> flood conn)
          end
        end
        else begin
          let n = Transport.send conn (Bytes.create msg_size) in
          if n = msg_size then begin
            Stats.Counter.incr sent;
            Transport.charge_app conn app_cycles (fun () -> flood conn)
          end
          else if n > 0 then remaining := msg_size - n
          (* n = 0: buffer full; resume on on_sendable *)
        end
      in
      {
        Transport.null_handlers with
        Transport.on_data = (fun conn _ -> flood conn);
        Transport.on_sendable = (fun conn -> flood conn);
        Transport.on_peer_closed = Transport.close;
      })

let closed_loop_clients sim transport ~n ~dst_ip ~dst_port ~msg_size
    ?(pipeline = 1) ?rpcs_per_conn ?(stagger_ns = 0) ?(start_at = 0)
    ?(stop_at = max_int) ?(think_ns = 0) ~stats () =
  (* Spread gated first requests over ~5 ms (see Kv_store.Client.run). *)
  let jitter_seed = ref 12345 in
  let jitter () =
    if start_at = 0 then 0
    else begin
      jitter_seed := (!jitter_seed * 1103515245) + 12345;
      (!jitter_seed lsr 8) mod 5_000_000
    end
  in
  let rec start_connection () =
    let sent_at = Queue.create () in
    let done_on_conn = ref 0 in
    let count = message_counter msg_size in
    let fire conn =
      Queue.add (Sim.now sim) sent_at;
      ignore (Transport.send conn (Bytes.create msg_size))
    in
    Transport.connect transport ~dst_ip ~dst_port (fun _conn ->
        {
          Transport.null_handlers with
          Transport.on_connected =
            (fun conn ->
              Stats.Counter.incr stats.connects;
              let go () =
                for _ = 1 to pipeline do
                  fire conn
                done
              in
              (* Hold fire until the experiment's start signal so the
                 connection-setup phase stays cheap to simulate. *)
              let go_at = start_at + jitter () in
              if Sim.now sim >= go_at then go ()
              else ignore (Sim.schedule sim (go_at - Sim.now sim) go));
          Transport.on_data =
            (fun conn data ->
              let complete = count (Bytes.length data) in
              for _ = 1 to complete do
                (match Queue.take_opt sent_at with
                | Some t0 ->
                  Stats.Hist.add stats.latency_us
                    (float_of_int (Sim.now sim - t0) /. 1000.0)
                | None -> ());
                Stats.Counter.incr stats.completed;
                incr done_on_conn;
                match rpcs_per_conn with
                | Some limit when !done_on_conn >= limit ->
                  Transport.close conn;
                  start_connection ()
                | _ ->
                  if Sim.now sim < stop_at then begin
                    if think_ns = 0 then fire conn
                    else
                      ignore (Sim.schedule sim think_ns (fun () ->
                          if Sim.now sim < stop_at then fire conn))
                  end
              done);
        })
  in
  for i = 1 to n do
    if stagger_ns = 0 then start_connection ()
    else ignore (Sim.schedule sim ((i - 1) * stagger_ns) start_connection)
  done

let flood_clients _sim transport ~n ~dst_ip ~dst_port ~msg_size () =
  for _ = 1 to n do
    let pending = ref Bytes.empty in
    let rec flood conn =
      (* Finish any partial message first to preserve framing. *)
      if Bytes.length !pending > 0 then begin
        let sent = Transport.send conn !pending in
        pending := Bytes.sub !pending sent (Bytes.length !pending - sent);
        if Bytes.length !pending = 0 then flood conn
      end
      else begin
        let msg = Bytes.create msg_size in
        let sent = Transport.send conn msg in
        if sent = msg_size then flood conn
        else if sent > 0 then
          pending := Bytes.sub msg sent (msg_size - sent)
      end
    in
    Transport.connect transport ~dst_ip ~dst_port (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_connected = (fun conn -> flood conn);
          Transport.on_sendable = (fun conn -> flood conn);
        })
  done

let sink_clients _sim transport ~n ~dst_ip ~dst_port ~received ~msg_size () =
  for _ = 1 to n do
    let count = message_counter msg_size in
    Transport.connect transport ~dst_ip ~dst_port (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_connected =
            (fun conn -> ignore (Transport.send conn (Bytes.make 1 's')));
          Transport.on_data =
            (fun _ data ->
              Stats.Counter.add received (count (Bytes.length data)));
        })
  done
