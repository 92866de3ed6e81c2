(** Per-node TLB: direct-mapped translation cache over virtual page
    numbers, tagged with an address-space id (ASID = pid) so concurrent
    processes with overlapping virtual layouts do not alias. A hit costs
    nothing extra (folded into the access); a miss triggers a charged
    software walk in the node layer. Must be flushed on unmap and
    protection change. *)

type entry = { frame : int; writable : bool }
type t

type view = private {
  tv_vpages : int array;
  tv_asids : int array;
  tv_entries : entry array;
  tv_mask : int;
  tv_hits : int ref;
}
(** Raw window over the direct-mapped arrays for the runner's fused
    memio fast path, in the style of {!Level.view}: the arrays alias the
    live TLB storage. The only mutation permitted through a view is
    [incr tv_hits] after a probe that {!translate} itself would have
    counted as a usable hit — i.e. [tv_vpages.(vpage land tv_mask) =
    vpage && tv_asids.(slot) = asid] and, for writes, the entry is
    writable. Anything short of a full hit must fall back to
    {!translate} (which also does the miss accounting). *)

val create : ?entries:int -> unit -> t
(** Default 64 entries. *)

val view : t -> view

val insert : t -> asid:int -> vpage:int -> entry -> unit

val miss : int
(** -1: slot does not hold (asid, vpage); the miss was counted. *)

val not_writable : int
(** -2: entry present but read-only while [write] was requested; a hit was
    counted, since the slot did hold the translation. *)

val translate : t -> asid:int -> vpage:int -> write:bool -> int
(** The one TLB probe: a direct-mapped lookup with the permission check
    folded in, allocating nothing. Returns the frame ([>= 0]), {!miss},
    or {!not_writable}. Each call advances exactly one of {!hits} and
    {!misses}, whichever path (fused fast path or slow walk-and-retry)
    makes it, which keeps fast-path runs bit-identical to the
    reference path. *)

val flush_page : t -> vpage:int -> unit
(** Drop any entry for this virtual page, regardless of ASID (a
    conservative shootdown). *)

val shootdown : t -> vpage:int -> unit
(** A remotely-requested {!flush_page}: same invalidation, but counted in
    {!shootdowns} so cross-ISA invalidation traffic stays visible apart
    from the owner kernel's own flushes. *)

val flush_all : t -> unit
val hits : t -> int
val misses : t -> int

val shootdowns : t -> int
(** Number of {!shootdown} rounds this TLB has absorbed. *)
