(** Open-loop serving campaign: the Stramash serving scenario measured
    with per-request tail-latency SLOs under every composition PRs 4–9
    added — chaos kill/restart, gray slow-down windows, corruption
    scrubbing, and the adaptive placement engine — each reported as a
    p99 delta against the fault-free Stramash baseline. Output is a pure
    function of (seed, keys, theta, rate, requests, payload, cache mode,
    composition toggles). *)

type config = {
  seed : int64;  (** Arrivals, key stream, fault schedules and machines derive from it. *)
  keys : int;  (** Keyspace size. *)
  theta : float;  (** Zipfian popularity exponent. *)
  rate : float;  (** Open-loop arrival rate, requests per second. *)
  requests : int;  (** Requests per cell. *)
  payload : int;  (** Value payload bytes per request. *)
  cache_mode : Stramash_cache.Cache_sim.mode;
  placement : bool;  (** Run the adaptive-placement-composed cell. *)
  chaos : bool;  (** Run the chaos kill/restart-composed cell. *)
  gray : bool;  (** Run the gray slow-down-composed cell. *)
  scrub : bool;  (** Run the corruption + scrubber-composed cell. *)
  factor : float;  (** Gray slow-down inflation for the gray cell. *)
}

val default : config
(** Seed [0x5E12E5], 2^20 keys, theta 0.99, 20k req/s, 20k requests,
    1 KiB payload, Fast, every composition on, factor 3. *)

val base : config -> Stramash_serve.Serve.config
(** The Stramash baseline cell's serving config, which every other cell
    derives from — what the CLI validates before committing to a run. *)

val chaos_inject :
  seed:int64 -> span:int -> Stramash_fault_inject.Plan.config
(** The chaos composition's kill/restart schedule: one downtime window
    per island at seeded jitter around 1/3 and 2/3 of the expected run
    span, both with restarts (serve rejects restart-less kills). *)

val gray_inject :
  seed:int64 -> span:int -> factor:float -> Stramash_fault_inject.Plan.config
(** One slow-down window on the serving island covering the middle third
    of the expected span. *)

val scrub_inject : Stramash_fault_inject.Plan.config
(** Stale-PTE corruption on the remote-walker install path plus the
    background scrubber — the corruption composition. *)

val campaign : ?on_metrics:Campaign.on_metrics -> Format.formatter -> config -> Campaign.verdict
(** Run the cell matrix — popcorn-shm and stramash baselines, then the
    enabled compositions (placement / chaos / gray / scrub, all on by
    default) — printing each cell's per-op latency table, SLO verdict
    and p99 delta vs the Stramash baseline, then replay the baseline and
    the chaos cell from the same seed and compare byte-for-byte. Ends
    with a ["campaign verdict: ..."] line for CI grep. [on_metrics]
    receives each cell's [serve.*] registry, labelled ["serve_<cell>"].
    [Clean] requires every cell to complete, the Stramash baseline (and
    the placement cell, when enabled) to meet the SLO, and the baseline
    and chaos-composed cell to replay byte-identically. *)

val serve : Format.formatter -> unit
(** The ["serve"] experiments-registry entry: one reduced-size campaign. *)
