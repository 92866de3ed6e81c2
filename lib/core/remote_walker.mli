(** Software remote page-table walker (paper §6.4).

    A kernel walks the *other* kernel's page table directly through the
    fused VAS: each level's entry read is a memory access by the walking
    node against table pages living in the owning kernel's memory (remote
    latency via the cache model), decoded with the owner's PTE format.
    This replaces Popcorn's long-latency message round trips. *)

val walk :
  Stramash_kernel.Env.t ->
  actor:Stramash_sim.Node_id.t ->
  owner_mm:Stramash_kernel.Process.mm ->
  vaddr:int ->
  int
(** The owner's leaf entry as {!Stramash_kernel.Page_table.walk} returns
    it (read it with {!Stramash_kernel.Pte}'s accessors under the owner's
    ISA), with every entry read charged to [actor]. *)

val walk_checked :
  Stramash_kernel.Env.t ->
  actor:Stramash_sim.Node_id.t ->
  owner_mm:Stramash_kernel.Process.mm ->
  vaddr:int ->
  ?inject:Stramash_fault_inject.Plan.t ->
  unit ->
  (int, Stramash_fault_inject.Fault.error) result
(** [walk] with injectable transient read failures and bounded retry;
    [Error (Walk_failed _)] after the plan's attempt cap (the caller then
    falls back to the origin kernel). Without [inject], always [Ok]. *)

val upper_levels_present :
  Stramash_kernel.Env.t ->
  actor:Stramash_sim.Node_id.t ->
  owner_mm:Stramash_kernel.Process.mm ->
  vaddr:int ->
  bool

val install_leaf :
  Stramash_kernel.Env.t ->
  actor:Stramash_sim.Node_id.t ->
  owner_mm:Stramash_kernel.Process.mm ->
  vaddr:int ->
  frame:int ->
  remote_owned:bool ->
  ?inject:Stramash_fault_inject.Plan.t ->
  unit ->
  bool
(** Write a leaf PTE into the owner's table in the owner's format without
    allocating directories; false when an upper level is missing (the
    caller then falls back to the origin kernel, §9.2.3). With a
    corruption-armed [inject] plan the encode may publish a stale frame
    ({!Stramash_fault_inject.Plan.pte_corrupted}); the install then runs
    verify-after-install — a charged read-back of the leaf — and repairs
    any mismatch in place ({!Stramash_fault_inject.Plan.note_pte_repair}),
    so a corrupted install is never visible to the caller. *)

val find_vma :
  Stramash_kernel.Env.t ->
  actor:Stramash_sim.Node_id.t ->
  owner_mm:Stramash_kernel.Process.mm ->
  vaddr:int ->
  Stramash_kernel.Vma.t option
(** Remote VMA walk: takes the owner's VMA lock (remote CAS) and charges
    one load per rb-tree node visited. *)
