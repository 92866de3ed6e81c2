(** Page-table entry encodings — deliberately different per ISA.

    A fused-kernel OS cannot share page tables as-is because the formats
    are architecture-dependent (paper §5, §6.4); accessor functions (the
    "remote CPU driver") must encode/decode the *other* kernel's format.
    Our two formats differ in flag positions and, pointedly, in the sense
    of the write-permission bit (armish uses a read-only bit, as AArch64's
    AP[2] does, while x86ish uses a writable bit).

    Entries are immediate OCaml [int]s: the 64-bit entry minus bit 63.
    That is exact, because no encoding sets a bit above 58 and no
    accessor reads one, so walks carry entries without boxing them. *)

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  accessed : bool;
  dirty : bool;
  remote_owned : bool; (* Stramash: set on PTEs installed by the other kernel *)
}

val default_flags : flags
(** present, writable, user; all status bits clear. *)

val encode : isa:Stramash_sim.Node_id.t -> frame:int -> flags -> int
(** [frame] is a physical page number. *)

val not_present : int
(** The all-zeroes entry, not present under both encodings; what
    {!Page_table.walk} returns for an absent mapping. *)

(** {2 Bit accessors}

    Read one field of an entry under [isa]'s encoding. Only [present] is
    meaningful on a non-present entry. *)

val present : int -> bool
(** Bit 0 under both encodings. *)

val frame : isa:Stramash_sim.Node_id.t -> int -> int
val writable : isa:Stramash_sim.Node_id.t -> int -> bool
val user : isa:Stramash_sim.Node_id.t -> int -> bool
val accessed : isa:Stramash_sim.Node_id.t -> int -> bool
val dirty : isa:Stramash_sim.Node_id.t -> int -> bool
val remote_owned : isa:Stramash_sim.Node_id.t -> int -> bool

val flags : isa:Stramash_sim.Node_id.t -> int -> flags
(** The whole flag set at once, for callers that keep or copy it
    (checkpoint capture, placement's saved leaves). *)

val decode : isa:Stramash_sim.Node_id.t -> int64 -> (int * flags) option
(** Reference decoder over the full 64-bit entry, [None] when not
    present. It shares no code with the accessors above, so comparing
    the two on arbitrary words checks that dropping bit 63 is exact. *)
