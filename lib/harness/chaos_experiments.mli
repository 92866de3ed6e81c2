(** Node-failure chaos campaign: crash-stop kills and restarts injected
    into a live NPB run, with invariant audits after every recovery and a
    survivor-fingerprint check against a fault-free baseline. Output is a
    pure function of (seed, bench, kills, downtime, cache mode). *)

val default_downtime : int
(** Cycles a killed node stays down before its scheduled restart
    (clamped against the kill gap so events on a node never overlap). *)

type config = {
  seed : int64;  (** Schedule jitter and both machines derive from it. *)
  bench : string;  (** One of {!Campaign.benches}. *)
  kills : int;  (** Kill/restart cycles, alternating between the nodes. *)
  downtime : int;  (** Requested cycles down per kill. *)
  cache_mode : Stramash_cache.Cache_sim.mode;
  placement : Stramash_placement.Policy.t option;
      (** Page-placement policy attached to both machines, if any. *)
}

val default : config
(** Seed [0xC4A05], [is], 3 kills, {!default_downtime}, Fast, no placement. *)

val campaign : ?on_metrics:Campaign.on_metrics -> Format.formatter -> config -> Campaign.verdict
(** Fingerprint the bench fault-free, then replay it under [kills]
    alternating-node kill/restart cycles spread over the baseline wall
    with seeded jitter. [placement] attaches a page-placement engine
    with that policy to both the baseline and the chaos machine, so
    degraded replica collapses and restart-time reconciles run under
    the same audits. Prints the schedule, per-recovery audits, the
    fault plan's chaos counters, per-node downtime, and a final
    ["campaign verdict: ..."] line for CI grep. [on_metrics] receives
    the chaos run's fault-plan registry (label ["fault_plan"]) once the
    run settles. *)

val chaos : Format.formatter -> unit
(** The ["chaos"] experiment: one campaign with the default schedule. *)
