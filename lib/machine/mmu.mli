(** The user-access path: the one place that knows how a user-mode access
    reaches memory.

    Every access takes the same route, for the interpreter ([memio]) and
    for callers that touch user memory directly ([access], the serving
    subsystem): TLB probe, then a page-table walk charged to the accessing
    node, then the OS personality's fault handler (a remote walk under
    Stramash, DSM replication under Popcorn) and a retry, then the
    coherent cache simulator, then the placement engine's sample when one
    is attached. TLB, fault, placement and integrity behaviour therefore
    cannot differ between the two kinds of caller. *)

type t

val create : Machine.t -> Stramash_kernel.Process.t -> node:Stramash_sim.Node_id.t -> t
(** Bind [proc]'s memory descriptor on [node] (created on first use), the
    node's TLB and page-table descriptor, and the machine's placement
    engine. Cheap enough to rebuild at every scheduling quantum. *)

val access : t -> Stramash_cache.Cache_sim.kind -> vaddr:int -> int
(** One access to the line holding [vaddr]: translate (faulting the page
    in if needed), simulate the cache access, sample it for placement, and
    return its latency. Nothing is billed; the caller charges the meter.
    Allocation-free unless the access faults.

    @raise Stramash_fault_inject.Fault.Error when the personality cannot
      resolve the fault (segfault, OOM beyond hotplug).
    @raise Failure when a resolved fault still leaves the page
      inaccessible after a few retries (a protocol bug). *)

val memio : t -> user_stalls:int array -> Stramash_isa.Interp.memio
(** The interpreter's memory interface over {!access}'s route. Each
    access bills only its stall above the L1 latency to the node's meter
    and to [user_stalls] (indexed by {!Stramash_sim.Node_id.index}); a
    fetch also bills the instruction's base cycle. With the Fast cache
    engine authoritative and no placement engine, all-hit accesses take a
    fused path that is cycle- and counter-identical to the general one. *)
