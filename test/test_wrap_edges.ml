(* Edge-case tests at the wrap boundaries: Seq32 arithmetic across the
   2^32 wrap, Ring_buffer behaviour when the stream offset crosses the
   physical end of the buffer, and the telemetry event ring's
   full/empty/wrap transitions. *)

module Seq32 = Tas_proto.Seq32
module Ring = Tas_buffers.Ring_buffer
module Ev = Tas_telemetry.Event_ring

let top = 0xFFFF_FFFF (* 2^32 - 1 *)

let test_seq32_wrap_compare () =
  let near_top = Seq32.of_int (top - 0xFF) in
  let wrapped = Seq32.add near_top 0x200 in
  Alcotest.(check int) "wraps modulo 2^32" 0x100 wrapped;
  Alcotest.(check bool) "after wrap still greater" true
    (Seq32.gt wrapped near_top);
  Alcotest.(check bool) "before wrap still less" true
    (Seq32.lt near_top wrapped);
  Alcotest.(check int) "signed distance across wrap" 0x200
    (Seq32.diff wrapped near_top);
  Alcotest.(check int) "negative distance the other way" (-0x200)
    (Seq32.diff near_top wrapped);
  Alcotest.(check int) "max_s picks the later" wrapped
    (Seq32.max_s near_top wrapped)

let test_seq32_add_negative () =
  Alcotest.(check int) "subtract across zero" (top - 9)
    (Seq32.add (Seq32.of_int 10) (-20));
  Alcotest.(check int) "of_int masks" 0x1234
    (Seq32.of_int (0x1_0000_1234))

let test_seq32_between_wrap () =
  let low = Seq32.of_int (top - 100) in
  let high = Seq32.of_int 100 in
  (* The [low, high) window spans the wrap point. *)
  Alcotest.(check bool) "inside before wrap" true
    (Seq32.between (Seq32.of_int (top - 50)) ~low ~high);
  Alcotest.(check bool) "inside after wrap" true
    (Seq32.between (Seq32.of_int 50) ~low ~high);
  Alcotest.(check bool) "low inclusive" true (Seq32.between low ~low ~high);
  Alcotest.(check bool) "high exclusive" false (Seq32.between high ~low ~high);
  Alcotest.(check bool) "outside" false
    (Seq32.between (Seq32.of_int 200) ~low ~high)

let test_seq32_equal_ordering () =
  let s = Seq32.of_int 42 in
  Alcotest.(check bool) "leq reflexive" true (Seq32.leq s s);
  Alcotest.(check bool) "geq reflexive" true (Seq32.geq s s);
  Alcotest.(check bool) "lt irreflexive" false (Seq32.lt s s);
  Alcotest.(check bool) "gt irreflexive" false (Seq32.gt s s)

let push_str r s = Ring.push r (Bytes.of_string s) ~off:0 ~len:(String.length s)

let pop_str r len =
  let dst = Bytes.create len in
  let n = Ring.pop r ~dst ~dst_off:0 ~len in
  Bytes.sub_string dst 0 n

let test_ring_full_empty () =
  let r = Ring.create 8 in
  Alcotest.(check string) "pop on empty" "" (pop_str r 4);
  Alcotest.(check int) "fill to capacity" 8 (push_str r "abcdefgh");
  Alcotest.(check bool) "full" true (Ring.free r = 0);
  Alcotest.(check int) "push on full accepts nothing" 0 (push_str r "x");
  Alcotest.(check string) "drain returns everything in order" "abcdefgh"
    (pop_str r 8);
  Alcotest.(check int) "empty again" 0 (Ring.used r)

let test_ring_wrap_content () =
  let r = Ring.create 8 in
  ignore (push_str r "abcdef");
  Alcotest.(check string) "first chunk" "abcdef" (pop_str r 6);
  (* head/tail are now at physical offset 6; the next 8 bytes span the
     physical end of the 8-byte buffer. *)
  Alcotest.(check int) "wrap-spanning push accepted" 8 (push_str r "12345678");
  Alcotest.(check int) "stream offsets keep growing" 14 (Ring.head r);
  Alcotest.(check int) "tail offset" 6 (Ring.tail r);
  Alcotest.(check string) "wrap-spanning content intact" "12345678"
    (pop_str r 8)

let test_ring_write_at_across_wrap () =
  let r = Ring.create 8 in
  ignore (push_str r "abcdef");
  ignore (pop_str r 6);
  (* Out-of-order deposit of [10,14) while [6,10) is still missing; the
     deposited range crosses the physical boundary. *)
  Ring.write_at r ~pos:10 (Bytes.of_string "WXYZ") ~off:0 ~len:4;
  Alcotest.(check int) "head unmoved by write_at" 6 (Ring.head r);
  Ring.write_at r ~pos:6 (Bytes.of_string "stuv") ~off:0 ~len:4;
  Ring.advance_head r 8;
  Alcotest.(check string) "ooo-completed bytes in order" "stuvWXYZ"
    (pop_str r 8)

let test_ring_bounds_raise () =
  let r = Ring.create 8 in
  ignore (push_str r "abcd");
  Alcotest.(check bool) "write_at beyond window raises" true
    (match Ring.write_at r ~pos:9 (Bytes.of_string "zz") ~off:0 ~len:2 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "advance_tail past used raises" true
    (match Ring.advance_tail r 5 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* One value per event, in the [code] column. *)
let ev_push q x = Ev.push q ~ts:0 ~code:x ~id:0 ~core:0 ~flow:0
let ev_code ~ts:_ ~code ~id:_ ~core:_ ~flow:_ = code

let test_spsc_full_empty_wrap () =
  let q = Ev.create 4 in
  Alcotest.(check bool) "empty at creation" true (Ev.length q = 0);
  Alcotest.(check (option int)) "pop on empty" None (Ev.pop q ev_code);
  for i = 1 to 4 do
    Alcotest.(check bool) "push succeeds" true (ev_push q i)
  done;
  Alcotest.(check bool) "full" true (Ev.length q = Ev.capacity q);
  Alcotest.(check bool) "push on full fails" false (ev_push q 5);
  Alcotest.(check (option int)) "peek oldest" (Some 1) (Ev.peek q ev_code);
  (* Pop two, push two: indices wrap past the physical end. *)
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Ev.pop q ev_code);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Ev.pop q ev_code);
  Alcotest.(check bool) "wrap push a" true (ev_push q 5);
  Alcotest.(check bool) "wrap push b" true (ev_push q 6);
  Alcotest.(check bool) "full after wrap" true (Ev.length q = Ev.capacity q);
  let order = Ev.drain q ev_code in
  Alcotest.(check int) "drain count" 4 (List.length order);
  Alcotest.(check (list int)) "fifo across wrap" [ 3; 4; 5; 6 ] order;
  Alcotest.(check bool) "empty after drain" true (Ev.length q = 0)

let test_spsc_repeated_wrap () =
  (* Many cycles of fill/drain: length stays consistent and order holds. *)
  let q = Ev.create 3 in
  let next = ref 0 and expect = ref 0 and ok = ref true in
  for _round = 1 to 50 do
    while Ev.length q < Ev.capacity q do
      ignore (ev_push q !next);
      incr next
    done;
    match Ev.pop q ev_code with
    | Some v ->
      if v <> !expect then ok := false;
      incr expect
    | None -> ok := false
  done;
  Alcotest.(check bool) "fifo preserved over 50 wraps" true !ok;
  Alcotest.(check int) "length consistent" 2 (Ev.length q)

let suite =
  [
    Alcotest.test_case "seq32 compare across wrap" `Quick
      test_seq32_wrap_compare;
    Alcotest.test_case "seq32 negative add + masking" `Quick
      test_seq32_add_negative;
    Alcotest.test_case "seq32 between across wrap" `Quick
      test_seq32_between_wrap;
    Alcotest.test_case "seq32 ordering on equality" `Quick
      test_seq32_equal_ordering;
    Alcotest.test_case "ring full/empty boundaries" `Quick test_ring_full_empty;
    Alcotest.test_case "ring wrap-spanning content" `Quick
      test_ring_wrap_content;
    Alcotest.test_case "ring ooo write across wrap" `Quick
      test_ring_write_at_across_wrap;
    Alcotest.test_case "ring out-of-bounds raises" `Quick test_ring_bounds_raise;
    Alcotest.test_case "spsc full/empty/wrap" `Quick test_spsc_full_empty_wrap;
    Alcotest.test_case "spsc repeated wrap fifo" `Quick test_spsc_repeated_wrap;
  ]
