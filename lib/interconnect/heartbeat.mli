(** Peer heartbeats and the crash-stop watchdog.

    Each live node publishes a beat over the message layer once per
    scheduling quantum (rate-limited by {!interval_cycles}); a peer that
    has missed {!miss_threshold} consecutive deadlines is *suspected* —
    the survivor's view flips from fused operation to degraded message-based
    fallback. Suspicion is perceived state: the ground truth lives in
    {!Stramash_sim.Liveness}, and the gap between a kill and its
    detection is exactly the window where a survivor still charges
    fused-path costs against a peer that will never answer. *)

val interval_cycles : int
(** Beat deadline period: 10 us. *)

val miss_threshold : int
(** Missed deadlines before a peer is suspected: 3. *)

val detection_latency : int
(** [interval_cycles * miss_threshold]: worst-case cycles between a
    silent crash and the watchdog declaring the peer dead. *)

type t

val create : unit -> t

val beat : t -> node:Stramash_sim.Node_id.t -> now:int -> unit
(** Record a beat from [node]. A beat never clears suspicion by itself:
    a suspected peer must deliver two consecutive beats each within one
    {!interval_cycles} of the previous (the first beat after a long
    silence only resets the streak) before suspicion lifts. *)

val missed_deadlines : t -> peer:Stramash_sim.Node_id.t -> now:int -> int
val suspects : t -> peer:Stramash_sim.Node_id.t -> now:int -> bool
(** True once [peer] has missed {!miss_threshold} deadlines at [now]. *)

val declare_dead : t -> peer:Stramash_sim.Node_id.t -> now:int -> unit
(** Latch the suspicion (idempotent) and emit a watchdog trace event. *)

val is_suspected : t -> peer:Stramash_sim.Node_id.t -> bool
val detections : t -> int

val readmissions : t -> int
(** Times a suspected peer completed the re-admission streak. *)
