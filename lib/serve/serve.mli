(** Open-loop request-serving driver.

    One run builds a machine, loads a million-key store process, stands
    up the Redis-model server on the Arm island, and plays [requests]
    requests whose arrival times come from a seeded exponential
    interarrival schedule — stamped onto the simulated clock up front,
    {e not} after the previous reply. A request that finds the server
    busy waits; its recorded latency is completion minus {e arrival}, so
    queueing delay is part of every sample and coordinated omission is
    impossible by construction.

    Key popularity is Zipfian ({!Stramash_sim.Zipf}) over the keyspace;
    value accesses translate through the kernel's own TLB / page-table /
    fault paths on the serving node (DSM replication under Popcorn,
    remote walks and fused faults under Stramash, placement sampling
    when the engine is attached), exactly as the runner's memory
    pipeline does. Between requests the driver paces scheduling-quantum
    boundaries through {!Stramash_machine.Runner.quantum_boundary}, so
    placement epoch ticks, the integrity scrubber and Paranoid audits
    all run under open-loop load.

    Compositions from the fault plan: a chaos kill/restart schedule
    stalls admission for the downtime of either island (the server's
    request path touches both kernels every request); gray slow-down
    windows inflate the server-local processing segment (the message
    layer inflates its own sites, so nothing is double-counted);
    corruption rates and the scrubber ride the shared plan machinery.

    Every request opens a flow-root {!Stramash_obs.Trace} span, so traced
    runs attribute tail exemplars to requests in the obs blame tables. *)

type config = {
  os : Stramash_machine.Machine.os_choice;
  keys : int;
  theta : float;  (** Zipfian exponent; > 0 *)
  rate : float;  (** open-loop arrival rate, requests per second *)
  requests : int;
  payload : int;  (** value bytes per request (the Redis model's payload) *)
  mix : Workload.mix;
  seed : int64;
  placement : bool;  (** attach the adaptive placement engine (Stramash only) *)
  inject : Stramash_fault_inject.Plan.config option;
  cache_mode : Stramash_cache.Cache_sim.mode;
  slo : Slo.thresholds;
}

val default : config
(** Stramash, 2^20 keys, theta 0.99, 20k req/s, 20k requests, 1 KiB
    payload, the default mix, no faults, placement off. *)

val validate : config -> (unit, string) result
(** Structural validation, called by the CLI before building a machine:
    positive keys/rate/requests/payload/theta, a usable mix and
    SLO, no Vanilla personality, placement only under Stramash, and —
    when a plan is armed — [Plan.validate] plus serve-specific limits
    (every [node_event] must carry a restart). *)

type outcome = {
  o_os : string;  (** personality name, e.g. ["stramash"] *)
  o_rows : (string * Stramash_sim.Metrics.Histogram.t) list;
      (** per-op latency histograms, in {!Workload.all_ops} order *)
  o_all : Stramash_sim.Metrics.Histogram.t;  (** all ops pooled *)
  o_slo : Slo.report;  (** SLO verdict on the pooled distribution *)
  o_wall : int;  (** final serving-node clock, cycles *)
  o_counters : (string * int) list;  (** sorted [serve.*] counters *)
  o_placement : (string * int) list;  (** [placement.*] snapshot; [] if off *)
  o_plan : Stramash_fault_inject.Plan.t option;
      (** the armed fault plan (injection counters, gray/corruption
          telemetry) when [config.inject] was set *)
}

val run : config -> outcome
(** Deterministic: same config (seed included) → identical outcome.
    @raise Invalid_argument when {!validate} rejects the config; a typed
    fault that escapes recovery propagates as
    [Stramash_fault_inject.Fault.Error]. *)

val registry_of : outcome -> Stramash_sim.Metrics.registry
(** The [serve.*] counters as a registry (CLI metrics snapshots). *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Deterministic report: per-op latency table (n / p50 / p95 / p99 /
    mean / max in microseconds), the pooled row, and the SLO verdict. *)
