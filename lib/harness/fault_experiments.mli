(** Fault-injection campaign: a fused-kernel run under an armed
    {!Stramash_fault_inject.Plan}, followed by the kernel-state audit and
    the §6.4 teardown check. Output is a pure function of
    (seed, bench, config) — same arguments, byte-identical text. *)

val benches : string list
(** Benchmarks the fault/chaos campaigns accept (small problem sizes). *)

val spec_of_bench : string -> Stramash_machine.Spec.t option
(** Campaign-sized spec for a {!benches} entry; [None] otherwise. *)

val plan_config :
  ?drop_rate:float ->
  ?ipi_loss:float ->
  ?walk_fail:float ->
  ?ptl_timeout:float ->
  ?alloc_fail:float ->
  unit ->
  Stramash_fault_inject.Plan.config
(** Moderate-intensity defaults (5% message drops, 2% IPI loss / walk
    faults, 1% PTL timeouts, 0.5% allocation denials). *)

type config = {
  seed : int64;  (** Machine seed; the plan's streams derive from it. *)
  bench : string;  (** One of {!benches}. *)
  plan : Stramash_fault_inject.Plan.config;  (** The armed fault plan. *)
}

val default : config
(** Seed [0xC0FFEE], [is], {!plan_config} defaults. *)

val campaign : ?on_metrics:Campaign.on_metrics -> Format.formatter -> config -> Campaign.verdict
(** Run the campaign; print run stats, the plan's injection counters and
    recovery-latency histogram, and both audits. [Clean] iff both audits
    are clean. [on_metrics] receives the armed plan's registry (label
    ["fault_plan"]). *)

val faults : Format.formatter -> unit
(** The ["faults"] experiment: an injected campaign plus a no-fault
    control on the same seed. *)
