module Seq32 = Tas_proto.Seq32

let reo_wnd_ns ~srtt_ns = max (srtt_ns / 4) 1_000

let pto_ns ~srtt_ns = max (2 * srtt_ns) 1_000_000

let on_ack (st : State.t) ~una ~snd_nxt ~sack ~dup_acks ~reo_wnd =
  let rack = st.State.kind = Policy.Rack_tlp in
  let d1 = Scoreboard.ack_to st.State.sb ~una in
  let newly_sacked = Scoreboard.apply_sacks st.State.sb sack in
  if rack then begin
    let d = max d1 (Scoreboard.sacked_tx st.State.sb) in
    if d > st.State.rack_ts then st.State.rack_ts <- d
  end;
  let exited = st.State.in_rec && Seq32.geq una st.State.recovery_point in
  if exited then st.State.in_rec <- false;
  let by_dup =
    Scoreboard.mark_lost_dupthresh st.State.sb ~dupthresh:Reno.dupthresh
  in
  (* Classic dup-ACK evidence without enough SACKed segments above the
     hole still pins the front segment as lost (RFC 6675 at small
     flights). *)
  let by_dup =
    if
      dup_acks >= Reno.dupthresh
      && (not st.State.in_rec)
      && Scoreboard.live_lost st.State.sb = 0
    then by_dup + Scoreboard.mark_front_lost st.State.sb
    else by_dup
  in
  let rack_lost =
    if rack && st.State.rack_ts >= 0 then
      Scoreboard.mark_lost_older_than st.State.sb
        ~threshold_ns:(st.State.rack_ts - reo_wnd)
    else 0
  in
  let newly_lost = by_dup + rack_lost in
  let entered = (not st.State.in_rec) && newly_lost > 0 in
  if entered then begin
    st.State.in_rec <- true;
    st.State.recovery_point <- snd_nxt
  end;
  st.State.newly_sacked <- newly_sacked;
  st.State.newly_lost <- newly_lost;
  st.State.rack_lost <- rack_lost;
  st.State.entered <- entered;
  st.State.exited <- exited

let on_reo_timer (st : State.t) ~now_ns ~reo_wnd ~srtt_ns =
  Scoreboard.mark_lost_older_than st.State.sb
    ~threshold_ns:(now_ns - reo_wnd - srtt_ns)
