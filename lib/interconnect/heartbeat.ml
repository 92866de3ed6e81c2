module Node_id = Stramash_sim.Node_id
module Trace = Stramash_obs.Trace

let interval_cycles = Stramash_sim.Cycles.of_us 10.0
let miss_threshold = 3  (* missed beats before a peer is declared dead *)
let readmit_beats = 2  (* on-time beats before a suspected peer is re-trusted *)
let detection_latency = interval_cycles * miss_threshold

type t = {
  last_beat : int array;
  suspected : bool array;
  streak : int array;
  mutable detections : int;
  mutable readmissions : int;
}

let create () =
  let nodes = List.length Node_id.all in
  {
    last_beat = Array.make nodes 0;
    suspected = Array.make nodes false;
    streak = Array.make nodes 0;
    detections = 0;
    readmissions = 0;
  }

(* Re-admission is hysteresis-gated: a suspected peer must deliver
   [readmit_beats] consecutive *on-time* beats (each within one interval
   of the previous) before it is trusted again. The first beat after a
   long silence — e.g. a restart — has a huge gap and only resets the
   streak, so a single beat never clears suspicion. *)
let beat t ~node ~now =
  let i = Node_id.index node in
  let gap = now - t.last_beat.(i) in
  if now > t.last_beat.(i) then t.last_beat.(i) <- now;
  if t.suspected.(i) then
    if gap <= interval_cycles then begin
      t.streak.(i) <- t.streak.(i) + 1;
      if t.streak.(i) >= readmit_beats then begin
        t.suspected.(i) <- false;
        t.streak.(i) <- 0;
        t.readmissions <- t.readmissions + 1;
        if Trace.enabled () then
          Trace.instant ~subsys:"heartbeat" ~op:"readmit"
            ~tags:[ ("peer", Node_id.to_string node); ("at", string_of_int now) ]
            ()
      end
    end
    else t.streak.(i) <- 0

let missed_deadlines t ~peer ~now =
  let i = Node_id.index peer in
  if now <= t.last_beat.(i) then 0 else (now - t.last_beat.(i)) / interval_cycles

let suspects t ~peer ~now = missed_deadlines t ~peer ~now >= miss_threshold
let is_suspected t ~peer = t.suspected.(Node_id.index peer)
let detections t = t.detections
let readmissions t = t.readmissions

let declare_dead t ~peer ~now =
  let i = Node_id.index peer in
  if not t.suspected.(i) then begin
    t.suspected.(i) <- true;
    t.streak.(i) <- 0;
    t.detections <- t.detections + 1;
    if Trace.enabled () then
      Trace.instant ~subsys:"heartbeat" ~op:"declare_dead"
        ~tags:
          [
            ("peer", Node_id.to_string peer);
            ("at", string_of_int now);
            ("missed", string_of_int (missed_deadlines t ~peer ~now));
          ]
        ()
  end
