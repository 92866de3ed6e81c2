(** Scrub campaign: seeded silent-data-corruption injection (page bit
    flips, message corruption/truncation, stale PTE installs, torn
    checkpoints), end-to-end detection (background scrubber, per-message
    CRC framing, verify-after-install, versioned checkpoint decode), and
    replica-backed repair, run against a live NPB workload with the
    adaptive placement engine attached. Output is a pure function of
    (seed, bench, knobs, cache mode). *)

val default_flips : int
val default_msg_rate : float
val default_pte_rate : float

type config = {
  seed : int64;  (** Corruption/kill schedules and the machines derive from it. *)
  bench : string;  (** One of {!Fault_experiments.benches}. *)
  flips : int;  (** Page bit-flip events spread over the run. *)
  msg_rate : float;  (** Per-message corruption probability (half truncate). *)
  pte_rate : float;  (** Per-install stale-PTE probability. *)
  kills : int;  (** Kill/restart cycles folded in, every checkpoint torn. *)
  cache_mode : Stramash_cache.Cache_sim.mode;
}

val default : config
(** Seed [0x5DC], [is], the [default_*] rates, no kills, Fast. *)

val probe_config : config -> Stramash_fault_inject.Plan.config
(** The campaign's plan shape with placeholder flip events carrying the
    config's knobs — what the CLI feeds {!Plan.validate} before committing
    to the run. *)

val campaign : ?on_metrics:Campaign.on_metrics -> Format.formatter -> config -> Campaign.verdict
(** Fingerprint the bench corruption-free, then replay it under a seeded
    corruption schedule anchored to the first far-node landing, with the
    scrubber armed. [kills] > 0 folds a kill/restart schedule into the
    same plan with every death's checkpoint torn, proving the v2 header
    rejection and the shadow fallback. Prints the schedule, audits, the
    fault-plan report, detection/repair/exposure counters, and a final
    ["campaign verdict: ..."] line for CI grep. [on_metrics] receives the
    run's registry (label ["scrub"]). [Clean] requires every injected
    corruption detected, nothing unrepaired, at least 90% healed without
    the checkpoint fallback, all audits (including the post-sweep
    fingerprint proof) clean, and every scheduled kill recovered. *)

val scrub : Format.formatter -> unit
(** The ["scrub"] experiment: one campaign with the default schedule. *)
