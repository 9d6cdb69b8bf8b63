(* Unit and property tests for ring buffers, the telemetry event ring, and
   the out-of-order interval tracker. *)

module Ring = Tas_buffers.Ring_buffer
module Ev = Tas_telemetry.Event_ring
module Fifo = Tas_buffers.Fifo
module Ooo = Tas_buffers.Ooo_interval
module Seq32 = Tas_proto.Seq32

(* --- Ring buffer ------------------------------------------------------------ *)

let test_ring_basic () =
  let r = Ring.create 16 in
  Alcotest.(check int) "initially empty" 0 (Ring.used r);
  let n = Ring.push r (Bytes.of_string "hello") ~off:0 ~len:5 in
  Alcotest.(check int) "pushed 5" 5 n;
  Alcotest.(check int) "used 5" 5 (Ring.used r);
  let dst = Bytes.create 5 in
  let m = Ring.pop r ~dst ~dst_off:0 ~len:5 in
  Alcotest.(check int) "popped 5" 5 m;
  Alcotest.(check string) "content" "hello" (Bytes.to_string dst);
  Alcotest.(check int) "empty again" 0 (Ring.used r)

let test_ring_wrap () =
  let r = Ring.create 8 in
  ignore (Ring.push r (Bytes.of_string "abcdef") ~off:0 ~len:6);
  let dst = Bytes.create 4 in
  ignore (Ring.pop r ~dst ~dst_off:0 ~len:4);
  (* Now physically wrapped: push 6 more across the boundary. *)
  let n = Ring.push r (Bytes.of_string "ghijkl") ~off:0 ~len:6 in
  Alcotest.(check int) "pushed 6 across wrap" 6 n;
  let dst = Bytes.create 8 in
  let m = Ring.pop r ~dst ~dst_off:0 ~len:8 in
  Alcotest.(check int) "popped all" 8 m;
  Alcotest.(check string) "wrapped content in order" "efghijkl"
    (Bytes.to_string dst)

let test_ring_partial_push () =
  let r = Ring.create 4 in
  let n = Ring.push r (Bytes.of_string "abcdef") ~off:0 ~len:6 in
  Alcotest.(check int) "accepts only capacity" 4 n;
  Alcotest.(check int) "full" 0 (Ring.free r)

let test_ring_write_at_ooo () =
  (* Out-of-order deposit beyond head, then fill the gap. *)
  let r = Ring.create 16 in
  Ring.write_at r ~pos:4 (Bytes.of_string "heyo") ~off:0 ~len:4;
  Ring.write_at r ~pos:0 (Bytes.of_string "gap!") ~off:0 ~len:4;
  Ring.advance_head r 8;
  let dst = Bytes.create 8 in
  ignore (Ring.pop r ~dst ~dst_off:0 ~len:8);
  Alcotest.(check string) "gap filled in order" "gap!heyo" (Bytes.to_string dst)

let test_ring_bounds_checks () =
  let r = Ring.create 8 in
  Alcotest.(check bool) "write beyond window rejected" true
    (try
       Ring.write_at r ~pos:5 (Bytes.make 8 'x') ~off:0 ~len:8;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "advance_tail beyond head rejected" true
    (try
       Ring.advance_tail r 1;
       false
     with Invalid_argument _ -> true)

let prop_ring_fifo =
  (* Interleaved pushes and pops preserve byte order (reference: Buffer). *)
  QCheck.Test.make ~name:"ring buffer is FIFO under random ops" ~count:200
    QCheck.(list (pair bool (int_range 1 32)))
    (fun ops ->
      let r = Ring.create 64 in
      let reference = Queue.create () in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_push, len) ->
          if is_push then begin
            let data =
              Bytes.init len (fun _ ->
                  incr next;
                  Char.chr (!next land 0xff))
            in
            let accepted = Ring.push r data ~off:0 ~len in
            for i = 0 to accepted - 1 do
              Queue.add (Bytes.get data i) reference
            done;
            (* Rewind [next] for bytes not accepted so streams agree. *)
            next := !next - (len - accepted)
          end
          else begin
            let dst = Bytes.create len in
            let got = Ring.pop r ~dst ~dst_off:0 ~len in
            for i = 0 to got - 1 do
              match Queue.take_opt reference with
              | Some c -> if c <> Bytes.get dst i then ok := false
              | None -> ok := false
            done
          end)
        ops;
      !ok && Ring.used r = Queue.length reference)

(* --- Event ring --------------------------------------------------------------- *)

(* Each case pushes a value [x] as one event, a distinct offset of [x] in
   every column, and reads it back: the five columns must stay in step. *)
let ev_push q x =
  Ev.push q ~ts:x ~code:(x + 1) ~id:(x + 2) ~core:(x + 3) ~flow:(x + 4)

let ev_value ~ts ~code ~id ~core ~flow =
  if (code, id, core, flow) <> (ts + 1, ts + 2, ts + 3, ts + 4) then
    failwith "event ring columns out of step";
  ts

let ev_pop q = Ev.pop q ev_value

let test_spsc_fifo () =
  let q = Ev.create 4 in
  Alcotest.(check bool) "push 1" true (ev_push q 1);
  Alcotest.(check bool) "push 2" true (ev_push q 2);
  Alcotest.(check (option int)) "peek" (Some 1) (Ev.peek q ev_value);
  Alcotest.(check (option int)) "pop 1" (Some 1) (ev_pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (ev_pop q);
  Alcotest.(check (option int)) "empty" None (ev_pop q)

let test_spsc_full () =
  let q = Ev.create 2 in
  Alcotest.(check bool) "push a" true (ev_push q (Char.code 'a'));
  Alcotest.(check bool) "push b" true (ev_push q (Char.code 'b'));
  Alcotest.(check bool) "full rejects" false (ev_push q (Char.code 'c'));
  Alcotest.(check int) "rejection counted" 1 (Ev.dropped q);
  Alcotest.(check int) "offers counted" 3 (Ev.recorded q);
  ignore (ev_pop q);
  Alcotest.(check bool) "slot freed" true (ev_push q (Char.code 'c'))

let test_spsc_drain () =
  let q = Ev.create 8 in
  List.iter (fun x -> ignore (ev_push q x)) [ 1; 2; 3; 4; 5 ];
  let got = Ev.drain q ev_value in
  Alcotest.(check int) "drained all" 5 (List.length got);
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] got

let prop_spsc_conservation =
  QCheck.Test.make ~name:"spsc: pops = accepted pushes, in order" ~count:200
    QCheck.(list (option (int_bound 1000)))
    (fun ops ->
      (* Some x = push x, None = pop. The model is an unbounded queue fed
         only the accepted pushes; the ring's counters track the rest. *)
      let q = Ev.create 8 in
      let model = Queue.create () in
      let offered = ref 0 and rejected = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
            incr offered;
            let pushed = ev_push q x in
            if pushed then Queue.add x model else incr rejected;
            Ev.length q = Queue.length model
            && Ev.recorded q = !offered
            && Ev.dropped q = !rejected
          | None -> (
            match (ev_pop q, Queue.take_opt model) with
            | Some a, Some b -> a = b
            | None, None -> true
            | _ -> false))
        ops)

(* --- Out-of-order interval --------------------------------------------------- *)

let test_ooo_in_order () =
  let o = Ooo.create () in
  match Ooo.handle o ~exp:1000 ~window:4096 ~seg_start:1000 ~seg_len:100 with
  | Ooo.Deliver ->
    let write_at = Ooo.write_at o and write_len = Ooo.write_len o
    and advance = Ooo.advance o in
    Alcotest.(check int) "write at exp" 1000 write_at;
    Alcotest.(check int) "full segment" 100 write_len;
    Alcotest.(check int) "advance" 100 advance;
    Alcotest.(check bool) "no interval stored" true (Ooo.is_empty o)
  | _ -> Alcotest.fail "expected Deliver"

let test_ooo_store_and_merge () =
  let o = Ooo.create () in
  (* Segment beyond the expected seq: stored. *)
  (match Ooo.handle o ~exp:1000 ~window:4096 ~seg_start:1100 ~seg_len:100 with
  | Ooo.Store ->
    let write_at = Ooo.write_at o and write_len = Ooo.write_len o in
    Alcotest.(check int) "stored at" 1100 write_at;
    Alcotest.(check int) "stored len" 100 write_len
  | _ -> Alcotest.fail "expected Store");
  (* Adjacent extension. *)
  (match Ooo.handle o ~exp:1000 ~window:4096 ~seg_start:1200 ~seg_len:50 with
  | Ooo.Store -> ()
  | _ -> Alcotest.fail "expected Store for adjacent extension");
  Alcotest.(check (option (pair int int))) "interval grew"
    (Some (1100, 150)) (Ooo.interval o);
  (* Gap fill: delivers through the stored interval. *)
  match Ooo.handle o ~exp:1000 ~window:4096 ~seg_start:1000 ~seg_len:100 with
  | Ooo.Deliver ->
    let advance = Ooo.advance o in
    Alcotest.(check int) "advance covers merged interval" 250 advance;
    Alcotest.(check bool) "interval consumed" true (Ooo.is_empty o)
  | _ -> Alcotest.fail "expected Deliver"

let test_ooo_second_interval_dropped () =
  let o = Ooo.create () in
  ignore (Ooo.handle o ~exp:0 ~window:65536 ~seg_start:1000 ~seg_len:100);
  (* A segment in a *different* hole is dropped (single-interval limit). *)
  match Ooo.handle o ~exp:0 ~window:65536 ~seg_start:5000 ~seg_len:100 with
  | Ooo.Drop -> ()
  | _ -> Alcotest.fail "expected Drop for disjoint second interval"

let test_ooo_duplicate () =
  let o = Ooo.create () in
  match Ooo.handle o ~exp:500 ~window:4096 ~seg_start:100 ~seg_len:200 with
  | Ooo.Duplicate -> ()
  | _ -> Alcotest.fail "expected Duplicate for fully-old segment"

let test_ooo_window_clip () =
  let o = Ooo.create () in
  (* Only 50 bytes of window: in-order segment clipped. *)
  (match Ooo.handle o ~exp:0 ~window:50 ~seg_start:0 ~seg_len:100 with
  | Ooo.Deliver ->
    let write_len = Ooo.write_len o and advance = Ooo.advance o in
    Alcotest.(check int) "clipped to window" 50 write_len;
    Alcotest.(check int) "advance clipped" 50 advance
  | _ -> Alcotest.fail "expected clipped Deliver");
  (* Beyond-window OOO segment dropped outright. *)
  let o = Ooo.create () in
  match Ooo.handle o ~exp:0 ~window:50 ~seg_start:60 ~seg_len:10 with
  | Ooo.Drop -> ()
  | _ -> Alcotest.fail "expected Drop beyond window"

let test_ooo_partial_overlap_trim () =
  let o = Ooo.create () in
  (* Partially old: the prefix below exp must be trimmed. *)
  match Ooo.handle o ~exp:100 ~window:4096 ~seg_start:50 ~seg_len:100 with
  | Ooo.Deliver ->
    let write_at = Ooo.write_at o and write_len = Ooo.write_len o
    and advance = Ooo.advance o in
    Alcotest.(check int) "trimmed to exp" 100 write_at;
    Alcotest.(check int) "only fresh bytes" 50 write_len;
    Alcotest.(check int) "advance" 50 advance
  | _ -> Alcotest.fail "expected trimmed Deliver"

(* --- Multi-range OOO (the SACK receiver configuration) ----------------- *)

let test_ooo_multi_disjoint_holes () =
  let o = Ooo.create ~max_ranges:4 () in
  (* Three disjoint holes all stored. *)
  List.iter
    (fun (s, l) ->
      match Ooo.handle o ~exp:0 ~window:65536 ~seg_start:s ~seg_len:l with
      | Ooo.Store -> ()
      | _ -> Alcotest.failf "expected Store at %d" s)
    [ (1000, 100); (3000, 100); (5000, 100) ];
  Alcotest.(check (list (pair int int)))
    "ranges ascending"
    [ (1000, 100); (3000, 100); (5000, 100) ]
    (Ooo.ranges o);
  Alcotest.(check (option (pair int int)))
    "interval is the lowest range" (Some (1000, 100)) (Ooo.interval o);
  (* SACK blocks: most recently touched first, as (start, end). *)
  Alcotest.(check (list (pair int int)))
    "sack order most-recent-first"
    [ (5000, 5100); (3000, 3100); (1000, 1100) ]
    (Ooo.sack_blocks o ~limit:3);
  Alcotest.(check int) "sack limit respected" 2
    (List.length (Ooo.sack_blocks o ~limit:2))

let test_ooo_sack_blocks_by_recency () =
  let o = Ooo.create ~max_ranges:4 () in
  let store s l =
    ignore (Ooo.handle o ~exp:0 ~window:65536 ~seg_start:s ~seg_len:l)
  in
  List.iter
    (fun (s, l) -> store s l)
    [ (5000, 100); (1000, 100); (7000, 100); (3000, 100) ];
  (* Extending a range makes it the newest, wherever it sits. *)
  store 1100 100;
  Alcotest.(check (list (pair int int)))
    "newest first, not lowest first"
    [ (1000, 1200); (3000, 3100); (7000, 7100) ]
    (Ooo.sack_blocks o ~limit:3);
  Alcotest.(check (list (pair int int)))
    "limit above the range count"
    [ (1000, 1200); (3000, 3100); (7000, 7100); (5000, 5100) ]
    (Ooo.sack_blocks o ~limit:8);
  Alcotest.(check (list (pair int int))) "limit 0" [] (Ooo.sack_blocks o ~limit:0);
  Alcotest.(check (list (pair int int)))
    "no ranges, no blocks" []
    (Ooo.sack_blocks (Ooo.create ~max_ranges:4 ()) ~limit:3)

let test_ooo_adjacent_coalescing_across_ranges () =
  let o = Ooo.create ~max_ranges:4 () in
  ignore (Ooo.handle o ~exp:0 ~window:65536 ~seg_start:1000 ~seg_len:100);
  ignore (Ooo.handle o ~exp:0 ~window:65536 ~seg_start:1200 ~seg_len:100);
  (* The middle segment abuts both neighbours: one fused range remains. *)
  (match Ooo.handle o ~exp:0 ~window:65536 ~seg_start:1100 ~seg_len:100 with
  | Ooo.Store -> ()
  | _ -> Alcotest.fail "expected Store for bridging segment");
  Alcotest.(check (list (pair int int)))
    "bridged into one range" [ (1000, 300) ] (Ooo.ranges o);
  (* Gap fill delivers the whole fused run in one advance. *)
  match Ooo.handle o ~exp:0 ~window:65536 ~seg_start:0 ~seg_len:1000 with
  | Ooo.Deliver ->
    let advance = Ooo.advance o in
    Alcotest.(check int) "advance through fused range" 1300 advance;
    Alcotest.(check bool) "all consumed" true (Ooo.is_empty o)
  | _ -> Alcotest.fail "expected Deliver"

let test_ooo_seq_wraparound () =
  let open Tas_proto in
  let exp = Seq32.of_int 0xFFFF_FF80 in
  (* 128 bytes below the wrap point. *)
  let o = Ooo.create ~max_ranges:4 () in
  (* A hole that straddles 2^32: starts below the wrap, ends above it. *)
  let s1 = Seq32.add exp 256 in
  (* 0xFFFF_FF80 + 256 wraps to 0x80 *)
  (match Ooo.handle o ~exp ~window:65536 ~seg_start:s1 ~seg_len:512 with
  | Ooo.Store ->
    let write_at = Ooo.write_at o and write_len = Ooo.write_len o in
    Alcotest.(check int) "stored across wrap" (Seq32.add exp 256) write_at;
    Alcotest.(check int) "full length kept" 512 write_len
  | _ -> Alcotest.fail "expected Store across the wrap");
  (* Extend it with a segment entirely past the wrap point. *)
  (match
     Ooo.handle o ~exp ~window:65536 ~seg_start:(Seq32.add exp 768) ~seg_len:64
   with
  | Ooo.Store -> ()
  | _ -> Alcotest.fail "expected adjacent Store past the wrap");
  Alcotest.(check (list (pair int int)))
    "one range spanning the wrap"
    [ (Seq32.add exp 256, 576) ]
    (Ooo.ranges o);
  (* Filling the gap delivers through the wrap in one go. *)
  match Ooo.handle o ~exp ~window:65536 ~seg_start:exp ~seg_len:256 with
  | Ooo.Deliver ->
    let write_at = Ooo.write_at o and advance = Ooo.advance o in
    Alcotest.(check int) "write at pre-wrap exp" exp write_at;
    Alcotest.(check int) "advance through wrapped range" 832 advance
  | _ -> Alcotest.fail "expected Deliver through the wrap"

let test_ooo_eviction_at_capacity () =
  let o = Ooo.create ~max_ranges:2 () in
  ignore (Ooo.handle o ~exp:0 ~window:1_000_000 ~seg_start:10_000 ~seg_len:100);
  ignore (Ooo.handle o ~exp:0 ~window:1_000_000 ~seg_start:50_000 ~seg_len:100);
  (* Table full. A *closer* hole evicts the range furthest from exp. *)
  (match Ooo.handle o ~exp:0 ~window:1_000_000 ~seg_start:2_000 ~seg_len:100 with
  | Ooo.Store -> ()
  | _ -> Alcotest.fail "expected Store with eviction");
  Alcotest.(check (list (pair int int)))
    "furthest range evicted"
    [ (2_000, 100); (10_000, 100) ]
    (Ooo.ranges o);
  (* A *further* hole than everything tracked is dropped, not stored. *)
  match Ooo.handle o ~exp:0 ~window:1_000_000 ~seg_start:90_000 ~seg_len:100 with
  | Ooo.Drop -> ()
  | _ -> Alcotest.fail "expected Drop for furthest new hole at capacity"

(* Property: a random segment arrival sequence through the OOO tracker always
   delivers a prefix of the stream, never duplicates or reorders delivered
   bytes, and advance >= write_len only when merging. *)
let prop_ooo_stream_consistency =
  QCheck.Test.make
    ~name:"ooo: delivered stream advances monotonically and within bounds"
    ~count:300
    QCheck.(list (pair (int_bound 2000) (int_range 1 300)))
    (fun segs ->
      let o = Ooo.create () in
      let exp = ref 0 in
      let window = 1024 in
      List.for_all
        (fun (start, len) ->
          match
            Ooo.handle o ~exp:!exp ~window ~seg_start:(Seq32.of_int start)
              ~seg_len:len
          with
          | Ooo.Deliver ->
            let write_at = Ooo.write_at o and write_len = Ooo.write_len o
            and advance = Ooo.advance o in
            let ok =
              write_at = !exp && write_len <= len && advance >= write_len
              && advance <= window
            in
            exp := Seq32.add !exp advance;
            ok
          | Ooo.Store ->
            let write_at = Ooo.write_at o and write_len = Ooo.write_len o in
            Seq32.gt write_at !exp && write_len > 0
            && Seq32.diff write_at !exp + write_len <= window
          | Ooo.Duplicate | Ooo.Drop -> true)
        segs)

(* The interval set as it was first written, over a list of records: the
   reference [Ooo_interval]'s arrays must match verdict for verdict. *)
module Ooo_model = struct
  type range = { start : Seq32.t; len : int; touch : int }

  type t = {
    mutable ranges : range list;  (* ascending *)
    max_ranges : int;
    mutable stamp : int;
  }

  let create max_ranges = { ranges = []; max_ranges; stamp = 0 }
  let range_end r = Seq32.add r.start r.len

  let fresh t start len =
    t.stamp <- t.stamp + 1;
    { start; len; touch = t.stamp }

  let insert_sorted r ranges =
    let rec go = function
      | r' :: rest when Seq32.lt r'.start r.start -> r' :: go rest
      | rest -> r :: rest
    in
    go ranges

  let rec consume t e =
    match t.ranges with
    | r :: rest when Seq32.geq e r.start ->
      t.ranges <- rest;
      consume t (if Seq32.gt (range_end r) e then range_end r else e)
    | _ -> e

  let handle t ~exp ~window ~seg_start ~seg_len =
    let s, l =
      if Seq32.lt seg_start exp then
        let dup = Seq32.diff exp seg_start in
        if dup >= seg_len then (exp, 0) else (exp, seg_len - dup)
      else (seg_start, seg_len)
    in
    if l = 0 then `Duplicate
    else if s = exp then begin
      let l = min l window in
      if l = 0 then `Drop
      else
        let e = consume t (Seq32.add exp l) in
        `Deliver (s, l, Seq32.diff e exp)
    end
    else begin
      let offset = Seq32.diff s exp in
      if offset >= window then `Drop
      else begin
        let l = min l (window - offset) in
        let seg_end = Seq32.add s l in
        let touching, others =
          List.partition
            (fun r -> not (Seq32.gt s (range_end r) || Seq32.gt r.start seg_end))
            t.ranges
        in
        if touching <> [] then begin
          let ns =
            List.fold_left
              (fun a r -> if Seq32.lt r.start a then r.start else a)
              s touching
          and ne =
            List.fold_left
              (fun a r -> if Seq32.gt (range_end r) a then range_end r else a)
              seg_end touching
          in
          t.ranges <- insert_sorted (fresh t ns (Seq32.diff ne ns)) others;
          `Store (s, l)
        end
        else if List.length t.ranges < t.max_ranges then begin
          t.ranges <- insert_sorted (fresh t s l) t.ranges;
          `Store (s, l)
        end
        else if t.max_ranges >= 2 then begin
          let far =
            List.fold_left
              (fun m r ->
                if Seq32.diff r.start exp > Seq32.diff m.start exp then r else m)
              (List.hd t.ranges) t.ranges
          in
          if Seq32.diff far.start exp > offset then begin
            t.ranges <-
              insert_sorted (fresh t s l) (List.filter (fun r -> r != far) t.ranges);
            `Store (s, l)
          end
          else `Drop
        end
        else `Drop
      end
    end

  (* Most recently updated first. *)
  let sack_blocks t ~limit =
    List.sort (fun a b -> compare b.touch a.touch) t.ranges
    |> List.filteri (fun i _ -> i < limit)
    |> List.map (fun r -> (r.start, range_end r))
end

(* Random arrivals around the expected edge (duplicates, in-order,
   nearby and far holes, narrow windows), with the edge starting near
   2^32 so sequence numbers wrap, for every table size from the go-back-N
   receiver's 0 up: every verdict with its extent, the stored ranges, the
   SACK blocks (also as written into a header) and the in-order shortcut
   agree with the model. *)
let prop_ooo_matches_model =
  QCheck.Test.make ~name:"ooo: interval set matches the list model" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(triple int int (list (triple int int int)))
       QCheck.Gen.(
         (* Offsets and lengths on a 500-byte grid half the time, so
            arrivals often abut or exactly overlap stored ranges. *)
         let grid lo hi = map (fun k -> 500 * k) (int_range lo hi) in
         triple (int_range 0 4) (int_range 0 5000)
           (list_size (int_range 1 80)
              (triple
                 (oneof [ int_range (-3000) 24_000; grid (-6) 48 ])
                 (oneof [ int_range 1 3000; grid 1 6 ])
                 (oneofl [ 0; 700; 5_000; 30_000; 65_536 ])))))
    (fun (max_ranges, below, ops) ->
      let o = Ooo.create ~max_ranges () and m = Ooo_model.create max_ranges in
      let exp = ref (Seq32.of_int (0x1_0000_0000 - below)) in
      let hdr =
        Tas_proto.Tcp_header.make ~src_port:1 ~dst_port:2 ~seq:0 ~ack:0
          ~flags:Tas_proto.Tcp_header.ack_flags ~window:0 ()
      in
      List.for_all
        (fun (off, len, window) ->
          let seg_start = Seq32.add !exp off in
          let n = Ooo.in_order o ~exp:!exp ~window ~seg_start ~seg_len:len in
          let want =
            Ooo_model.handle m ~exp:!exp ~window ~seg_start ~seg_len:len
          in
          let got =
            match Ooo.handle o ~exp:!exp ~window ~seg_start ~seg_len:len with
            | Ooo.Deliver ->
              `Deliver (Ooo.write_at o, Ooo.write_len o, Ooo.advance o)
            | Ooo.Store -> `Store (Ooo.write_at o, Ooo.write_len o)
            | Ooo.Duplicate -> `Duplicate
            | Ooo.Drop -> `Drop
          in
          let shortcut_ok =
            n = 0
            || (match want with `Deliver (s, l, a) -> s = seg_start && l = n && a = n | _ -> false)
          in
          (match got with `Deliver (_, _, a) -> exp := Seq32.add !exp a | _ -> ());
          Tas_proto.Tcp_header.fill hdr ~src_port:1 ~dst_port:2 ~seq:0 ~ack:0
            ~flags:Tas_proto.Tcp_header.ack_flags ~window:0 ~ts_val:0 ~ts_ecr:0;
          Ooo.write_sack o hdr;
          let ranges = List.map (fun r -> (r.Ooo_model.start, r.Ooo_model.len)) m.Ooo_model.ranges in
          let blocks = Ooo_model.sack_blocks m ~limit:3 in
          got = want && shortcut_ok
          && Ooo.ranges o = ranges
          && Ooo.sack_blocks o ~limit:3 = blocks
          && Ooo.sack_blocks o ~limit:8 = Ooo_model.sack_blocks m ~limit:8
          && Tas_proto.Tcp_header.sack_blocks hdr = blocks)
        ops)

(* --- Growable FIFO -------------------------------------------------------- *)

(* A model list against the ring through wraparound and growth: order is
   kept, [reverse_last] reverses only the newest elements, and popping an
   empty ring raises. *)
let test_fifo_model () =
  let q = Fifo.create (-1) in
  let model = ref [] in
  let push x =
    Fifo.push q x;
    model := !model @ [ x ]
  in
  let pop () =
    let x = Fifo.pop q in
    Alcotest.(check int) "pops the oldest" (List.hd !model) x;
    model := List.tl !model
  in
  let next = ref 0 in
  for round = 1 to 40 do
    for _ = 1 to round mod 7 + 3 do
      push !next;
      incr next
    done;
    let n = round mod 5 in
    let keep = List.length !model - n in
    Fifo.reverse_last q n;
    model :=
      List.filteri (fun i _ -> i < keep) !model
      @ List.rev (List.filteri (fun i _ -> i >= keep) !model);
    for _ = 1 to round mod 4 + 1 do
      if !model <> [] then pop ()
    done;
    Alcotest.(check int) "length" (List.length !model) (Fifo.length q)
  done;
  while !model <> [] do
    pop ()
  done;
  Alcotest.check_raises "empty pop raises" (Invalid_argument "Fifo.pop: empty")
    (fun () -> ignore (Fifo.pop q))

let suite =
  [
    Alcotest.test_case "ring basic" `Quick test_ring_basic;
    Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
    Alcotest.test_case "ring partial push" `Quick test_ring_partial_push;
    Alcotest.test_case "ring out-of-order deposit" `Quick test_ring_write_at_ooo;
    Alcotest.test_case "ring bounds checks" `Quick test_ring_bounds_checks;
    Alcotest.test_case "spsc fifo" `Quick test_spsc_fifo;
    Alcotest.test_case "spsc full" `Quick test_spsc_full;
    Alcotest.test_case "spsc drain" `Quick test_spsc_drain;
    Alcotest.test_case "fifo against a list model" `Quick test_fifo_model;
    Alcotest.test_case "ooo in-order" `Quick test_ooo_in_order;
    Alcotest.test_case "ooo store and merge" `Quick test_ooo_store_and_merge;
    Alcotest.test_case "ooo single-interval limit" `Quick
      test_ooo_second_interval_dropped;
    Alcotest.test_case "ooo duplicate" `Quick test_ooo_duplicate;
    Alcotest.test_case "ooo window clipping" `Quick test_ooo_window_clip;
    Alcotest.test_case "ooo partial overlap trim" `Quick
      test_ooo_partial_overlap_trim;
    Alcotest.test_case "ooo multi-range disjoint holes" `Quick
      test_ooo_multi_disjoint_holes;
    Alcotest.test_case "ooo sack blocks follow recency" `Quick
      test_ooo_sack_blocks_by_recency;
    Alcotest.test_case "ooo adjacent coalescing across ranges" `Quick
      test_ooo_adjacent_coalescing_across_ranges;
    Alcotest.test_case "ooo 2^32 sequence wraparound" `Quick
      test_ooo_seq_wraparound;
    Alcotest.test_case "ooo eviction at capacity" `Quick
      test_ooo_eviction_at_capacity;
    QCheck_alcotest.to_alcotest prop_ring_fifo;
    QCheck_alcotest.to_alcotest prop_spsc_conservation;
    QCheck_alcotest.to_alcotest prop_ooo_stream_consistency;
    QCheck_alcotest.to_alcotest prop_ooo_matches_model;
  ]
