(** Per-peer gray-failure health scoring and circuit breakers.

    Each peer carries an EWMA of its observed/nominal service-time ratio
    (dimensionless, so message RTTs, IPI deliveries, remote walks and PTL
    acquires feed one signal), an EWMA failure rate, and an absolute
    message-RTT EWMA that drives the adaptive loss-detection timeout.

    [score = (1 - fail_ewma) * 1 / max 1 ratio_ewma] lives in [0, 1]; a
    Closed breaker trips Open when the score falls below {!trip_score}.
    While tripped, {!route} diverts fused-path work to the degraded
    message-walk path, releasing one paced [`Probe] per
    [probe_interval]; {!probe_done} judges each probe against a raised
    hysteresis bar ({!readmit_score}) and only {!readmit_probes}
    consecutive passes re-close the breaker, so a recovering peer is
    never re-trusted on a single good sample.

    Deterministic: backoff jitter is the only random draw and comes from
    the private stream passed to {!create}. *)

type state = Closed | Open | Half_open

val state_to_string : state -> string

val trip_score : float
(** A Closed breaker opens when the score falls below this: 0.55. *)

val readmit_probes : int
(** Consecutive passing probes that re-close a tripped breaker: 3. *)

val backoff_jitter : float
(** +/- fraction spread applied to each retry backoff: 0.25. *)

val adaptive_timeout_mult : float
(** Adaptive loss-detection timeout = this x message-RTT EWMA: 4.0. *)

type t

val create :
  rng:Stramash_sim.Rng.t -> metrics:Stramash_sim.Metrics.registry -> probe_interval:int -> t
(** Counters ("gray.*") land in [metrics]; a tripped breaker releases one
    probe per [probe_interval] cycles. *)

val score : t -> peer:Stramash_sim.Node_id.t -> float
val breaker_state : t -> peer:Stramash_sim.Node_id.t -> state
val msg_rtt_ewma : t -> peer:Stramash_sim.Node_id.t -> float
val readmit_score : float
(** The hysteresis bar a probe must clear: [min 0.95 (trip_score + 0.2)]. *)

val observe_msg_rtt :
  t -> peer:Stramash_sim.Node_id.t -> cycles:int -> nominal:int -> now:int -> unit
(** A completed message delivery: feeds both the absolute RTT EWMA and
    the service ratio, and decays the failure EWMA. *)

val observe_service :
  t -> peer:Stramash_sim.Node_id.t -> cycles:int -> nominal:int -> now:int -> unit
(** A completed non-message operation (IPI, remote walk, PTL acquire):
    feeds the service ratio only. *)

val observe_failure : t -> peer:Stramash_sim.Node_id.t -> now:int -> unit
(** A timeout/drop/retry against the peer. *)

val route : t -> peer:Stramash_sim.Node_id.t -> now:int -> [ `Fused | `Probe | `Divert ]

val probe_done : t -> peer:Stramash_sim.Node_id.t -> now:int -> unit
(** Judge the probe whose observations have already been recorded. *)

val adaptive_timeout :
  t -> peer:Stramash_sim.Node_id.t -> floor:int -> cap:int -> default:int -> int

val backoff :
  t ->
  peer:Stramash_sim.Node_id.t ->
  attempt:int ->
  base:int ->
  floor:int ->
  cap:int ->
  default:int ->
  int
(** Adaptive timeout plus jittered exponential backoff for attempt
    [attempt] (0-based). *)

val report : Format.formatter -> t -> unit
