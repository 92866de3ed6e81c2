(** Adaptive page-placement experiments: the NPB crossover table
    (policy speedups normalised to Popcorn-SHM) and the seeded verdict
    campaign behind the `place` CLI subcommand (determinism replay,
    Paranoid cross-check, kernel invariant audit, teardown sweep). *)

val run_policy :
  ?seed:int64 ->
  ?cache_mode:Stramash_cache.Cache_sim.mode ->
  ?epoch:int ->
  policy:Stramash_placement.Policy.t ->
  Stramash_machine.Spec.t ->
  Stramash_machine.Machine.t
  * Stramash_placement.Engine.t
  * Stramash_kernel.Process.t
  * Stramash_machine.Runner.result
(** One seeded Stramash run under [policy]; the caller owns the
    process's teardown ([Machine.exit_process]). *)

val run_shm :
  ?seed:int64 ->
  ?cache_mode:Stramash_cache.Cache_sim.mode ->
  Stramash_machine.Spec.t ->
  Stramash_machine.Runner.result
(** The Popcorn-SHM reference run the crossover (and the bench harness)
    normalises against. *)

val crossover : Format.formatter -> unit
(** The adaptive-vs-static table over is/cg/mg/ft. *)

type config = {
  seed : int64;  (** Machine seed; placement decisions derive from the seeded run. *)
  bench : string;  (** One of {!Campaign.benches}. *)
  policy : Stramash_placement.Policy.t;
  epoch : int option;  (** Quanta per placement epoch; [None] = engine default. *)
  cache_mode : Stramash_cache.Cache_sim.mode;
}

val default : config
(** Seed [0x91ACE], [cg], Adaptive, engine-default epoch, Fast. *)

val campaign : ?on_metrics:Campaign.on_metrics -> Format.formatter -> config -> Campaign.verdict
(** Seeded verdict run (defaults: Adaptive on cg). [Clean] requires a
    clean invariant audit and teardown, a byte-identical same-seed
    replay, and Paranoid-engine agreement on the fingerprint (wall,
    instructions, migrations, placement counters). [on_metrics]
    receives the placement counter snapshot plus the wall (label
    ["placement"]). *)

val placement : Format.formatter -> unit
(** Experiments-registry entry: [crossover] plus one Adaptive cg
    [campaign]. *)
