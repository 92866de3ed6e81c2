(** Gray-failure campaign: seeded slow-down windows, link flaps and PTL
    stalls injected into a live NPB run, executed twice — circuit breaker
    off, then on — with per-operation latency percentiles comparing the
    two. Output is a pure function of (seed, bench, factor, cache mode). *)

val default_slow_factor : float

type config = {
  seed : int64;  (** The gray schedule's jitter and both machines derive from it. *)
  bench : string;  (** One of {!Fault_experiments.benches}. *)
  factor : float;  (** Service-time inflation inside the slow window (>= 1). *)
  cache_mode : Stramash_cache.Cache_sim.mode;
}

val default : config
(** Seed [0x64A7], [is], {!default_slow_factor}, Fast. *)

val probe_config : config -> Stramash_fault_inject.Plan.config
(** The campaign's plan shape with a placeholder one-cycle window
    carrying the config's [factor] — what the CLI feeds {!Plan.validate} before
    committing to the (possibly minutes-long) run. *)

val campaign : ?on_metrics:Campaign.on_metrics -> Format.formatter -> config -> Campaign.verdict
(** Fingerprint the bench fault-free, then replay it twice under the
    same seeded gray schedule (slow window on the origin anchored to the
    first far-node landing, an overlapping PTL stall window, a link-flap
    burst leading in, low-rate duplication/reordering): once with health
    scoring disabled and once with the circuit breaker armed. Prints both
    runs' audits and fault-plan reports, a per-op p50/p95/p99 comparison
    table, and a final ["campaign verdict: ..."] line for CI grep.
    [on_metrics] receives each run's fault-plan registry (labels
    ["gray_off"] and ["gray_on"]). [Clean] requires both runs audited
    clean, checksums matching the fault-free baseline, at least one
    breaker trip and diverted fault, and breaker-on fault p99 strictly
    below breaker-off. *)

val gray : Format.formatter -> unit
(** The ["gray"] experiment: one A/B campaign with the default schedule. *)
