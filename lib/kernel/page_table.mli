(** Multi-level page tables stored in simulated physical memory.

    Both kernels use 5-level tables (paper §6.4), 9 bits of index per
    level over 4 KiB pages. Table pages are real frames; every entry read
    or write during a walk goes through the caller-supplied {!io} charges,
    so local walks, *remote* software walks (Stramash's cross-ISA walker)
    and page-fault handling all incur honest memory-system cost. *)

type t

type io = {
  phys : Stramash_mem.Phys_mem.t;
  charge_read : int -> unit; (* paddr of the entry being read *)
  charge_write : int -> unit;
  alloc_table : unit -> int; (* fresh zeroed table page, returns paddr *)
}

val levels : int (* 5 *)

val create : isa:Stramash_sim.Node_id.t -> io -> t
(** Allocates the root table page. *)

val isa : t -> Stramash_sim.Node_id.t
val root : t -> int

val walk : t -> io -> vaddr:int -> int
(** Full software walk; charges one entry read per level traversed.
    Returns the present leaf's entry bits, to be read with {!Pte}'s
    accessors under [isa t], or {!Pte.not_present} when a directory or
    the leaf is absent. Allocates nothing. *)

val upper_levels_present : t -> io -> vaddr:int -> bool
(** True when every directory level above the leaf exists — the condition
    under which Stramash allows a remote kernel to install a PTE directly
    (§9.2.3: missing upper levels fall back to the origin kernel). *)

val map : t -> io -> vaddr:int -> frame:int -> Pte.flags -> unit
(** Install a leaf mapping, allocating intermediate tables as needed. *)

val set_leaf_if_upper_present : t -> io -> vaddr:int -> frame:int -> Pte.flags -> bool
(** Install a leaf without allocating directories; false if impossible. *)

val update_flags : t -> io -> vaddr:int -> Pte.flags -> bool
(** Rewrite the leaf PTE's flags (same frame); false if unmapped. *)

val unmap : t -> io -> vaddr:int -> bool
(** Clear the leaf entry; directory pages are not reclaimed (as in
    Linux's common case). *)

val table_pages : t -> int
(** Number of table pages allocated (root included). *)

val iter_leaves : t -> io -> f:(vaddr:int -> frame:int -> flags:Pte.flags -> unit) -> unit
(** Visit every present leaf mapping in ascending [vaddr] order by
    traversing the whole tree (no VMA metadata required); entry reads are
    charged through [io]. This is the checkpoint serialisation walk. *)
