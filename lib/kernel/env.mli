(** The shared simulation environment handed to OS personalities.

    One cache simulator and physical memory span both nodes; kernels,
    cycle meters and TLBs are per node. OS code charges all of its memory
    traffic through [cache] against the meter of the node doing the work,
    which is how fused-kernel remote accesses and multiple-kernel message
    handling acquire honest costs. *)

type t = {
  cache : Stramash_cache.Cache_sim.t;
  phys : Stramash_mem.Phys_mem.t;
  kernels : Kernel.t array; (* indexed by Node_id.index *)
  meters : Stramash_sim.Meter.t array;
  tlbs : Tlb.t array;
  hw_model : Stramash_mem.Layout.hw_model;
  liveness : Stramash_sim.Liveness.t;
      (** ground-truth crash-stop state + fencing epochs (all-alive in
          runs without a chaos schedule) *)
  pt_ios : Page_table.io array;
  silent_ios : Page_table.io array;
      (** the records {!pt_io} and {!silent_io} return, built once by
          {!create} *)
}

val create : Stramash_cache.Cache_sim.t -> t
(** A fresh two-node environment around [cache]: empty physical memory,
    both kernels booted, zeroed meters, empty TLBs, every node alive, and
    the hardware model of the cache's own config. *)

val kernel : t -> Stramash_sim.Node_id.t -> Kernel.t
val node_alive : t -> Stramash_sim.Node_id.t -> bool
val node_epoch : t -> Stramash_sim.Node_id.t -> int
val meter : t -> Stramash_sim.Node_id.t -> Stramash_sim.Meter.t
val tlb : t -> Stramash_sim.Node_id.t -> Tlb.t

val charge_load : t -> Stramash_sim.Node_id.t -> paddr:int -> unit
(** One cache-simulated load by [node], billed to its meter. *)

val charge_store : t -> Stramash_sim.Node_id.t -> paddr:int -> unit
val charge_atomic : t -> Stramash_sim.Node_id.t -> paddr:int -> unit
val charge_bytes_load : t -> Stramash_sim.Node_id.t -> paddr:int -> len:int -> unit
val charge_bytes_store : t -> Stramash_sim.Node_id.t -> paddr:int -> len:int -> unit

val pt_io : t -> actor:Stramash_sim.Node_id.t -> owner:Stramash_sim.Node_id.t -> Page_table.io
(** Page-table access descriptor: table pages are allocated from the
    [owner] kernel; entry reads/writes are performed (and billed) by
    [actor] — for a remote software walk the two differ. The same
    record is returned on every call for a given pair. *)

val silent_io : ?owner:Stramash_sim.Node_id.t -> t -> Page_table.io
(** Zero-charge page-table access descriptor, for work the simulated
    clock must not see (load-time mapping, audits, checkpoint capture).
    With [owner], table pages come from that kernel; without it the
    descriptor is walk-only and a table allocation raises
    [Invalid_argument], so an observer can never perturb the tables.
    Prebuilt, like [pt_io]. *)

val ensure_mm :
  t -> proc:Process.t -> node:Stramash_sim.Node_id.t -> Process.mm
(** [proc]'s memory descriptor on [node], created on first use (load at
    the origin, migration or a thread spawned elsewhere): an empty VMA set
    and page table, with the VMA structs and the page-table lock word in
    [node]'s kernel heap. *)
