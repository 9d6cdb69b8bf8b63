module Sim = Tas_engine.Sim
module Rng = Tas_engine.Rng
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core

type t = {
  table : (string, string) Hashtbl.t;
  mutable gets : int;
  mutable sets : int;
  mutable misses : int;
}

let gets t = t.gets
let sets t = t.sets
let misses t = t.misses
let stored_keys t = Hashtbl.length t.table

(* --- Wire format ----------------------------------------------------------- *)

let put16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 1) (Char.chr (v land 0xff))

let get16 buf off =
  (Char.code (Bytes.get buf off) lsl 8) lor Char.code (Bytes.get buf (off + 1))

let encode_request ~op ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let buf = Bytes.create (5 + klen + vlen) in
  Bytes.set buf 0 (Char.chr op);
  put16 buf 1 klen;
  Bytes.blit_string key 0 buf 3 klen;
  put16 buf (3 + klen) vlen;
  Bytes.blit_string value 0 buf (5 + klen) vlen;
  buf

let encode_response ~status ~value =
  let vlen = String.length value in
  let buf = Bytes.create (3 + vlen) in
  Bytes.set buf 0 (Char.chr status);
  put16 buf 1 vlen;
  Bytes.blit_string value 0 buf 3 vlen;
  buf

(* Incremental stream parser: returns the list of complete requests and
   retains the remainder. *)
type parser_state = { mutable buf : Bytes.t }

let make_parser () = { buf = Bytes.empty }

let feed_requests p data =
  p.buf <- Bytes.cat p.buf data;
  let requests = ref [] in
  let continue = ref true in
  while !continue do
    let available = Bytes.length p.buf in
    if available < 5 then continue := false
    else begin
      let klen = get16 p.buf 1 in
      if available < 3 + klen + 2 then continue := false
      else begin
        let vlen = get16 p.buf (3 + klen) in
        let total = 5 + klen + vlen in
        if available < total then continue := false
        else begin
          let op = Char.code (Bytes.get p.buf 0) in
          let key = Bytes.sub_string p.buf 3 klen in
          let value = Bytes.sub_string p.buf (5 + klen) vlen in
          requests := (op, key, value) :: !requests;
          p.buf <- Bytes.sub p.buf total (available - total)
        end
      end
    end
  done;
  List.rev !requests

let feed_responses p data =
  p.buf <- Bytes.cat p.buf data;
  let responses = ref [] in
  let continue = ref true in
  while !continue do
    let available = Bytes.length p.buf in
    if available < 3 then continue := false
    else begin
      let vlen = get16 p.buf 1 in
      let total = 3 + vlen in
      if available < total then continue := false
      else begin
        let status = Char.code (Bytes.get p.buf 0) in
        let value = Bytes.sub_string p.buf 3 vlen in
        responses := (status, value) :: !responses;
        p.buf <- Bytes.sub p.buf total (available - total)
      end
    end
  done;
  List.rev !responses

(* --- Server ----------------------------------------------------------------- *)

let create_server transport ~port ~app_cycles ?serial () =
  let t = { table = Hashtbl.create 4096; gets = 0; sets = 0; misses = 0 } in
  Transport.listen transport ~port (fun _conn ->
      let parser = make_parser () in
      let respond conn (op, key, value) =
        let finish () =
          let response =
            match op with
            | 0 -> begin
              t.gets <- t.gets + 1;
              match Hashtbl.find_opt t.table key with
              | Some v -> encode_response ~status:0 ~value:v
              | None ->
                t.misses <- t.misses + 1;
                encode_response ~status:1 ~value:""
            end
            | _ ->
              t.sets <- t.sets + 1;
              Hashtbl.replace t.table key value;
              encode_response ~status:0 ~value:""
          in
          ignore (Transport.send conn response)
        in
        match serial with
        | None -> Transport.charge_app conn app_cycles finish
        | Some (lock_core, serial_cycles) ->
          (* Parallel part on the connection's core, then the serialized
             critical section on the shared lock core. *)
          Transport.charge_app conn app_cycles (fun () ->
              Core.run lock_core ~cycles:serial_cycles finish)
      in
      {
        Transport.null_handlers with
        Transport.on_data =
          (fun conn data ->
            List.iter (respond conn) (feed_requests parser data));
        (* memcached-style: when the client stops sending, close our side
           too so the connection tears down instead of idling half-open. *)
        Transport.on_peer_closed = (fun conn -> Transport.close conn);
      });
  t

(* --- Client ----------------------------------------------------------------- *)

module Client = struct
  type workload = {
    n_keys : int;
    key_size : int;
    value_size : int;
    get_fraction : float;
    zipf_s : float;
  }

  let default_workload =
    {
      n_keys = 100_000;
      key_size = 32;
      value_size = 64;
      get_fraction = 0.9;
      zipf_s = 0.9;
    }

  let key_name workload i =
    let base = Printf.sprintf "key-%08x" i in
    if String.length base >= workload.key_size then
      String.sub base 0 workload.key_size
    else base ^ String.make (workload.key_size - String.length base) 'k'

  let value_of workload rng =
    String.init workload.value_size (fun _ ->
        Char.chr (97 + Rng.int rng 26))

  let run sim transport ~rng ~n_conns ~dst_ip ~dst_port ~workload ~stats
      ?(think_ns = 0) ?(start_at = 0) () =
    let sampler = Rng.Zipf.create ~n:workload.n_keys ~s:workload.zipf_s in
    (* Spread gated first requests over ~10 ms: a synchronized burst from
       tens of thousands of connections would take the server many
       milliseconds to chew through before steady state. *)
    let jitter () = if start_at = 0 then 0 else Rng.int rng 10_000_000 in
    for _ = 1 to n_conns do
      let parser = make_parser () in
      let sent_at = ref 0 in
      let fire conn =
        sent_at := Sim.now sim;
        let key = key_name workload (Rng.Zipf.draw rng sampler) in
        let request =
          if Rng.float rng 1.0 < workload.get_fraction then
            encode_request ~op:0 ~key ~value:""
          else encode_request ~op:1 ~key ~value:(value_of workload rng)
        in
        ignore (Transport.send conn request)
      in
      let next conn =
        if think_ns = 0 then fire conn
        else ignore (Sim.schedule sim think_ns (fun () -> fire conn))
      in
      Transport.connect transport ~dst_ip ~dst_port (fun _ ->
          {
            Transport.null_handlers with
            Transport.on_connected =
              (fun conn ->
                Stats.Counter.incr stats.Rpc_echo.connects;
                (* Hold fire until the start gate so connection setup stays
                   cheap to simulate. *)
                let go_at = start_at + jitter () in
                if Sim.now sim >= go_at then fire conn
                else
                  ignore
                    (Sim.schedule sim (go_at - Sim.now sim) (fun () ->
                         fire conn)));
            Transport.on_data =
              (fun conn data ->
                let responses = feed_responses parser data in
                List.iter
                  (fun _ ->
                    Stats.Hist.add stats.Rpc_echo.latency_us
                      (float_of_int (Sim.now sim - !sent_at) /. 1000.0);
                    Stats.Counter.incr stats.Rpc_echo.completed;
                    next conn)
                  responses);
          })
    done
end
