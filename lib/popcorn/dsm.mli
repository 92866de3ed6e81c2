(** Popcorn's software distributed shared memory: page replication with a
    single-writer / multiple-reader protocol (paper §6.4, §9.2.3).

    Anonymous pages are allocated by the origin kernel; a remote fault
    costs at least two message rounds (allocation, then replication). Read
    faults replicate the page into node-local memory read-only; write
    faults transfer ownership and invalidate other copies; writes to a
    local read-only replica upgrade via an invalidation round. Replicated
    pages and messages are counted, feeding Table 3. *)

type t

val create : Stramash_kernel.Env.t -> Msg_layer.t -> t
val msg_layer : t -> Msg_layer.t

val handle_fault :
  t ->
  proc:Stramash_kernel.Process.t ->
  node:Stramash_sim.Node_id.t ->
  vaddr:int ->
  write:bool ->
  (unit, Stramash_fault_inject.Fault.error) result
(** Resolve a user page fault at [node]. Charges all protocol costs.
    [Error (Segfault _)] on a genuine segfault (no VMA). *)

val replicated_pages : t -> int

val wb_updates : t -> int
(** Write-backs of dirty lines in replicated pages that triggered the
    consistency policy (paper §9.2.2). *)

val reset_counters : t -> unit

val seed_owner :
  t -> pid:int -> origin:Stramash_sim.Node_id.t -> vaddr:int -> frame:int -> unit
(** Register a page mapped at the origin during process load as
    origin-owned, so later remote faults fetch it rather than
    re-allocating. *)

val frame_for_read : t -> proc:Stramash_kernel.Process.t -> node:Stramash_sim.Node_id.t -> vaddr:int -> int option
(** The frame [node] would read through its own page table, if mapped
    (diagnostic/test helper; charges nothing). *)

val exit_process : t -> proc:Stramash_kernel.Process.t -> unit
(** Tear down the process: every kernel instance unmaps and frees its own
    copies/replicas (each page has a single allocating kernel in the
    replication protocol), with the unmap traffic charged. *)

val check_invariants : t -> proc:Stramash_kernel.Process.t -> (unit, string) result
(** Single-writer / multiple-reader protocol invariants: never two owners
    of a page, never an owner coexisting with a read replica, and a
    node's page table maps a page writable only if that node owns it. *)
