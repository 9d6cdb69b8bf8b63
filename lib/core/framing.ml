let max_message_size = 16 * 1024 * 1024

type t = {
  buf : Buffer.t;
  mutable expected : int;  (* -1 while reading the length prefix *)
  mutable on_message : Libtas.socket -> bytes -> unit;
}

let feed t sock data =
  Buffer.add_bytes t.buf data;
  let progress = ref true in
  while !progress do
    progress := false;
    if t.expected < 0 && Buffer.length t.buf >= 4 then begin
      let len = Int32.to_int (Bytes.get_int32_be (Buffer.to_bytes t.buf) 0) in
      if len < 0 || len > max_message_size then
        invalid_arg "Framing: corrupt length prefix"
      else begin
        t.expected <- len;
        let rest = Buffer.sub t.buf 4 (Buffer.length t.buf - 4) in
        Buffer.clear t.buf;
        Buffer.add_string t.buf rest;
        progress := true
      end
    end;
    if t.expected >= 0 && Buffer.length t.buf >= t.expected then begin
      let all = Buffer.to_bytes t.buf in
      let message = Bytes.sub all 0 t.expected in
      let rest_len = Bytes.length all - t.expected in
      Buffer.clear t.buf;
      Buffer.add_subbytes t.buf all t.expected rest_len;
      t.expected <- -1;
      t.on_message sock message;
      progress := true
    end
  done

let attach sock ~on_message =
  ignore sock;
  let t = { buf = Buffer.create 256; expected = -1; on_message } in
  let handlers =
    {
      Libtas.null_handlers with
      Libtas.on_data = (fun sock data -> feed t sock data);
    }
  in
  (t, handlers)

let send_message sock message =
  if Bytes.length message > max_message_size then
    invalid_arg "Framing.send_message: message too large";
  let frame = Bytes.create (4 + Bytes.length message) in
  Bytes.set_int32_be frame 0 (Int32.of_int (Bytes.length message));
  Bytes.blit message 0 frame 4 (Bytes.length message);
  (* All-or-nothing: a partially queued frame would desynchronize the
     stream, so check free space first and subscribe for a sendable
     notification when the frame does not fit. *)
  if Libtas.tx_free sock < Bytes.length frame then begin
    Libtas.want_sendable sock;
    false
  end
  else begin
    let n = Libtas.send sock frame in
    assert (n = Bytes.length frame);
    true
  end
