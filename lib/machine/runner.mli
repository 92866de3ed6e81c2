(** Execution engine: drives threads through the interpreter, sending
    every access down the {!Mmu} user-access path (TLB → charged
    page-table walk → OS fault handler → cache simulator) — the complete
    Stramash-QEMU execution model.

    Timing: one base cycle per instruction; stalls are charged for any
    access that misses the L1 (the fixed-non-memory-IPC model of §7.3).
    Migration synchronises the destination node's clock with the source's,
    so a single-threaded run's completion time is the final node's meter. *)

type ext = {
  l0_hits : int array;
  l0_misses : int array;
      (* per-node L0 line-filter outcomes (host-performance telemetry, not
         part of the simulated model: both arrays are all-zero in Reference
         mode and excluded from the [cache] registry so registries compare
         equal across modes) *)
  node_downtime : int array;
      (* simulated cycles each node spent crash-stopped (all-zero without a
         chaos schedule), including a still-open downtime at collection *)
  placement : (string * int) list;
      (* placement.* counter snapshot from the attached engine ([] when no
         engine is attached) *)
  trace_cache : (string * int) list;
      (* tc.* superblock trace-cache counters ([] when disabled); host
         telemetry like the L0 arrays — excluded from model metrics so
         registries compare equal with the cache on or off *)
}
(** Result-extension record: the per-PR counters (fast-path L0, chaos
    downtime, placement) collected in one place instead of as ad-hoc
    top-level fields. *)

type result = {
  os_name : string;
  hw_model : Stramash_mem.Layout.hw_model;
  wall_cycles : int;
  node_cycles : int array; (* per Node_id.index *)
  node_icounts : int array;
  instructions : int;
  migrations : int;
  messages : int;
  replicated_pages : int;
  tlb_misses : int array;
  cache : Stramash_sim.Metrics.registry; (* cache counters snapshot *)
  phase_marks : (int * int) list; (* (migration-point id, wall cycles when crossed) *)
  node_user_stalls : int array;
      (* memory-stall cycles charged to user-mode accesses per node; the
         paper's Fig. 9 breakdown separates INST (= instructions at CPI 1),
         memory overhead (these stalls), and MSG/OS work (the remainder) *)
  node_idle : int array;
      (* clock-synchronisation jumps (waiting for a migration arrival or a
         futex wake): simulated time during which the node did no work *)
  ext : ext;
}

val fastpath_counters : result -> (string * int) list
(** The L0 counters as labelled pairs ("x86.l0_hits", ...) for metrics
    snapshots and reports. *)

val node_busy : result -> Stramash_sim.Node_id.t -> int
(** Cycles of actual work on a node: its clock minus its idle jumps. *)

val phase_span : result -> start:int -> stop:int -> int
(** Cycles elapsed between two phase marks (both must be present). *)

val run :
  ?on_recovery:(Stramash_sim.Node_id.t -> unit) ->
  Machine.t ->
  Stramash_kernel.Process.t ->
  Stramash_kernel.Thread.t ->
  Spec.t ->
  result
(** Run a single thread to completion, following the spec's migration
    plan (ignored under an OS that cannot migrate).

    When the machine's fault plan carries a chaos schedule
    ({!Stramash_fault_inject.Plan.node_events}), the scheduler processes
    kills and restarts at quantum boundaries: a killed node's threads
    freeze, survivors degrade per {!Stramash_core.Stramash_fault}, and
    [on_recovery] fires after each completed restart (the chaos campaign's
    audit hook). A kill with no scheduled restart that strands unfinished
    threads raises [Fault.Error (Node_dead _)] — the unrecovered-failure
    outcome. Chaos schedules require the Stramash personality. *)

val run_threads :
  ?on_recovery:(Stramash_sim.Node_id.t -> unit) ->
  Machine.t ->
  Stramash_kernel.Process.t ->
  Stramash_kernel.Thread.t list ->
  Spec.t ->
  result
(** Interleave several threads (smallest-clock-first), with futex
    block/wake semantics; used by the futex microbenchmark. *)

val run_workloads :
  ?on_recovery:(Stramash_sim.Node_id.t -> unit) ->
  Machine.t ->
  (Spec.t * Stramash_kernel.Process.t * Stramash_kernel.Thread.t) list ->
  result
(** Run several processes concurrently on the platform (each with its own
    spec/migration plan); threads interleave smallest-clock-first, so two
    threads resident on the same node serialise on that node's single
    simulated core. *)

val pp_result : Format.formatter -> result -> unit
(** Artifact-style per-node dump (cache hit rates, memory hit classes,
    runtime) as in the paper's appendix A.5 example output. *)

val quantum_boundary : Machine.t -> count:int ref -> now:int -> unit
(** One scheduling-quantum boundary, the one [run]'s scheduler takes after
    every quantum: in Paranoid mode, run the structural invariant audit
    on a 1-in-64 stride, then fire the machine's quantum hooks (placement
    epoch tick, integrity scrubber) at [now]. The open-loop serving
    subsystem calls this between request admissions so quantum-driven
    machinery runs under request load exactly as it does under [run];
    [count] is the caller's running quantum counter. *)
