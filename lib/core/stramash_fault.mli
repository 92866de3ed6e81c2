(** The Stramash page-fault handler (paper §6.4).

    The fused-kernel fast path: a faulting kernel walks the other kernel's
    VMA list and page table directly over coherent shared memory; if the
    page exists it maps the *same frame* into its own table (no copy, no
    message); if the page is fresh anonymous memory it allocates from its
    own local memory and installs the PTE in both tables under the
    cross-ISA page-table lock. Only when the origin table lacks upper
    directory levels does it fall back to a message so the origin kernel
    handles the fault — the residual replication of §9.2.3 / Table 3.

    Anomalies are typed, not fatal: a missing VMA is [Error (Segfault _)],
    exhaustion that even the global allocator cannot relieve is
    [Error (Out_of_memory _)], and injected transient walk failures or PTL
    timeouts degrade to the origin-fallback path instead of crashing. *)

type t

val create :
  ?inject:Stramash_fault_inject.Plan.t ->
  ?global_alloc:Global_alloc.t ->
  Stramash_kernel.Env.t ->
  Stramash_popcorn.Msg_layer.t ->
  t
(** [inject] arms fault injection on the walk / PTL / allocation paths;
    [global_alloc] enables the §6.3 hotplug path on frame exhaustion. *)

val inject : t -> Stramash_fault_inject.Plan.t option

val set_write_hook :
  t ->
  (proc:Stramash_kernel.Process.t -> node:Stramash_sim.Node_id.t -> vaddr:int -> bool) ->
  unit
(** Hook consulted when a write faults on a page that is mapped but
    read-only — the placement engine registers its replica-collapse
    handler here (returning [true] when it upgraded the leaf). Without a
    hook such faults stay the raced/spurious no-ops they always were. *)

val handle_fault :
  t ->
  proc:Stramash_kernel.Process.t ->
  node:Stramash_sim.Node_id.t ->
  vaddr:int ->
  write:bool ->
  (unit, Stramash_fault_inject.Fault.error) result
(** Resolve a user fault. [Error (Segfault _)] when no VMA governs
    [vaddr]; [Error (Out_of_memory _)] when allocation fails beyond
    recovery. Injected walk/lock faults are absorbed by retry and
    fallback, never surfaced. *)

val handle_fault_exn :
  t ->
  proc:Stramash_kernel.Process.t ->
  node:Stramash_sim.Node_id.t ->
  vaddr:int ->
  write:bool ->
  unit
(** [handle_fault] for edges that cannot recover; raises
    {!Stramash_fault_inject.Fault.Error}. *)

val alloc_frame :
  t -> node:Stramash_sim.Node_id.t -> (int, Stramash_fault_inject.Fault.error) result
(** Frame allocation with the hotplug/global-allocator recovery path:
    exhaustion (real or injected) first pulls a pool block online
    (§6.3) and only then reports [Out_of_memory]. *)

val ptl_for : t -> proc:Stramash_kernel.Process.t -> Stramash_ptl.t
(** The cross-ISA page-table lock guarding the process's origin table. *)

val ptls_quiescent : t -> bool
(** No PTL is held — an invariant at every quiescent point, fed to the
    post-run audit. *)

val fallback_pages : t -> int
(** Pages that took the origin-fallback path (Table 3's residual
    "replicated pages" for Stramash). *)

val remote_walks : t -> int
val shared_mappings : t -> int
(** Frames mapped by both kernels without replication. *)

val exit_process : t -> proc:Stramash_kernel.Process.t -> unit
(** The §6.4 memory-recycling protocol: each kernel instance walks its own
    table over the process's address ranges, invalidates every PTE, and
    releases only the frames its own allocator owns — the origin never
    frees remote-owned pages, the remote kernel finalises its own. *)

val reset_counters : t -> unit

(** {2 Crash-stop node failures}

    A node dies crash-stop at a quantum boundary: its PTLs are broken
    (fenced by the liveness epoch), waiters owned by its threads park in a
    holding area, its derived kernel state is checkpointed and discarded,
    and its hotplug donations are swept. While it is down, faults on
    processes it originated degrade to message-walk cost against the
    checkpoint's VMA shadow; restart re-materialises everything and
    reconciles the survivor's deferred installs. *)

val chaos_armed : t -> bool
(** The fault plan schedules at least one node death. *)

val node_down : t -> Stramash_sim.Node_id.t -> bool
(** A downtime record exists for [node] (death processed, restart not). *)

val degraded_walks : t -> int
(** Faults served in degraded (message-walk) mode. *)

val gray_fallbacks : t -> int
(** Faults the circuit breaker diverted to the message-walk path while
    the origin was alive but unhealthy. *)

val on_node_death :
  t ->
  procs:Stramash_kernel.Process.t list ->
  threads:Stramash_kernel.Thread.t list ->
  node:Stramash_sim.Node_id.t ->
  now:int ->
  unit
(** Process a crash-stop at wall-cycle [now]. [Env.liveness] must already
    record the node as dead (the epoch bump fences its lock tokens). *)

val on_peer_detected : t -> node:Stramash_sim.Node_id.t -> now:int -> unit
(** The heartbeat watchdog declared [node] dead: record the detection
    (idempotent). *)

val on_node_restart :
  t -> procs:Stramash_kernel.Process.t list -> node:Stramash_sim.Node_id.t -> now:int -> unit
(** Restore [node] from its checkpoint at wall-cycle [now]. [Env.liveness]
    must already record it alive again. Raises [Invalid_argument] if the
    node is not down or the blob fails to decode. *)

val wake_held : t -> uaddr:int -> limit:int -> int list
(** Pop up to [limit] parked waiters on [uaddr] from downtime holding
    areas (FIFO); the popped tids are excluded from restart re-parking. *)

val held_waiters : t -> Checkpoint.futex_image list
(** All currently-parked waiters, for audits. *)
