(** Inter-processor interrupt latency model (paper §9.1.1, Figs. 5-6).

    The paper measures IPI latency between every core pair on four real
    machines (RDTSC + MONITOR/MWAIT kernel module) and uses the big-pair
    mean (~2 us) as the simulated cross-ISA IPI cost. Real hardware being
    unavailable here, we reproduce the measurement harness over a
    topology-parameterised latency model: a base cost plus penalties for
    crossing an SMT pair, a core cluster, or a socket, with Gaussian
    jitter. The consumed output is identical in kind: a per-pair matrix and
    its mean. *)

type machine = {
  name : string;
  cores : int; (* logical CPUs measured *)
  smt : int; (* threads per physical core *)
  cores_per_cluster : int; (* logical CPUs per core complex / CCX *)
  sockets : int;
  base_ns : float;
  smt_discount_ns : float; (* saved when src/dst share a physical core *)
  cluster_penalty_ns : float;
  socket_penalty_ns : float;
  jitter_ns : float;
}

val small_arm : machine (* Broadcom A72 smartNIC, 8 cores *)
val big_arm : machine (* dual ThunderX2 *)
val small_x86 : machine (* Xeon E5-2620 v4 *)
val big_x86 : machine (* dual Xeon Gold 6230R *)

val pair_latency_ns : Stramash_sim.Rng.t -> machine -> src:int -> dst:int -> float
(** One measured IPI, in nanoseconds. [src = dst] is not measurable and
    returns 0. *)

val matrix : Stramash_sim.Rng.t -> machine -> float array array
val matrix_mean_ns : float array array -> float
(** Mean over off-diagonal entries. *)

val cross_isa_ipi_cycles : int
(** The simulator's cross-ISA IPI cost: 2 us (the big-pair mean), §8.2. *)

val tlb_shootdown_cycles : int
(** Cost of one cross-ISA TLB-shootdown round: a single peer IPI at the
    Fig. 5-6 2 us doorbell cost. The placement engine charges this on
    every replica install/collapse that invalidates the other kernel's
    translations. *)

type delivery = { cycles : int; lost : bool; jittered : bool }
(** One cross-ISA notification: the cycles the receiver waits, and whether
    the interrupt was lost (receiver fell back to a polling timeout) or
    arrived late. *)

val timeout_cycles : int
(** The receiver's backstop: a lost IPI is noticed by polling after
    50 us. *)

val cross_isa_delivery :
  ?inject:Stramash_fault_inject.Plan.t ->
  ?peer:Stramash_sim.Node_id.t ->
  ?now:int ->
  unit ->
  delivery
(** [cross_isa_delivery ()] is the clean 2 us cost; with a fault plan the
    draw may add a jitter spike or lose the IPI entirely, in which case
    [cycles] is {!timeout_cycles}. Passing [peer] and [now]
    additionally feeds the delivery outcome into the plan's health score
    for [peer] (observation only — no extra cycles). *)

val cross_isa_delivery_checked :
  liveness:Stramash_sim.Liveness.t ->
  dst:Stramash_sim.Node_id.t ->
  ?inject:Stramash_fault_inject.Plan.t ->
  unit ->
  (delivery, Stramash_fault_inject.Fault.error) result
(** Like {!cross_isa_delivery}, but an IPI aimed at a crash-stopped node
    returns [Error (Node_dead _)] instead of a silent timeout: a dead
    complex has no core to interrupt, so the caller must degrade rather
    than retry. *)
