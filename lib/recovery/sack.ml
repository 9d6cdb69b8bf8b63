module Seq32 = Tas_proto.Seq32

let on_ack (st : State.t) ~una ~snd_nxt ~sack ~dup_acks =
  ignore (Scoreboard.ack_to st.State.sb ~una);
  let newly_sacked = Scoreboard.apply_sacks st.State.sb sack in
  let exited = st.State.in_rec && Seq32.geq una st.State.recovery_point in
  if exited then st.State.in_rec <- false;
  let newly_lost =
    Scoreboard.mark_lost_dupthresh st.State.sb ~dupthresh:Reno.dupthresh
  in
  (* Classic dup-ACK evidence without enough SACKed segments above the
     hole still pins the front segment as lost (RFC 6675 at small
     flights). *)
  let newly_lost =
    if
      dup_acks >= Reno.dupthresh
      && (not st.State.in_rec)
      && Scoreboard.live_lost st.State.sb = 0
    then newly_lost + Scoreboard.mark_front_lost st.State.sb
    else newly_lost
  in
  let entered = (not st.State.in_rec) && newly_lost > 0 in
  if entered then begin
    st.State.in_rec <- true;
    st.State.recovery_point <- snd_nxt
  end;
  st.State.newly_sacked <- newly_sacked;
  st.State.newly_lost <- newly_lost;
  st.State.rack_lost <- 0;
  st.State.entered <- entered;
  st.State.exited <- exited
