(** Simulated physical memory: a sparse byte store over the 8 GB space.

    Backing pages materialise on first touch, so the full Fig.-4 layout can
    be addressed without reserving host memory. All multi-byte accesses are
    little-endian (both target ISAs are little-endian in the paper's
    prototype).

    This module is purely functional storage: it charges no simulated time.
    Timing comes from the cache simulator, which is consulted separately by
    whoever performs the access. [host_*] entry points exist for loading
    program images and initial data, mirroring how a real system's contents
    appear before measurement starts. *)

type t

type view = private {
  pv_frames : int array; (* -1 = empty slot *)
  pv_pages : Bytes.t array;
  pv_mask : int;
}
(** Raw window over the direct-mapped page-pointer cache for the
    runner's fused memio fast path. The arrays alias live storage; a
    probe ([pv_frames.(frame land pv_mask) = frame]) that hits may read
    or write the aliased page directly — pages are never removed, so the
    pointer cannot be stale. A probe that misses must fall back to the
    ordinary accessors (which materialise the page and fill the slot);
    the view itself must never be mutated. *)

val create : unit -> t

val view : t -> view

val read : t -> Addr.paddr -> width:int -> int64
(** [read t a ~width] with [width] in {1,2,4,8} bytes. Unwritten memory
    reads as zero. *)

val write : t -> Addr.paddr -> width:int -> int64 -> unit

val page_for : t -> int -> Bytes.t
(** Backing page for page-number [frame], materialised on first touch;
    fills the page-pointer-cache slot. The fused fast path calls this
    when its inline {!view} probe misses; no simulated cost. *)

val read_u8 : t -> Addr.paddr -> int
val write_u8 : t -> Addr.paddr -> int -> unit

val read_u64 : t -> Addr.paddr -> int64
val write_u64 : t -> Addr.paddr -> int64 -> unit
(** Width-specialised fast paths: one direct-mapped page-pointer probe and
    a bounds-checked [Bytes] access, no width dispatch. Semantically
    identical to [read]/[write] at the same width. *)

val read_entry : t -> Addr.paddr -> int
val write_entry : t -> Addr.paddr -> int -> unit
(** The 64-bit little-endian word at [a] as an immediate [int], without
    boxing: a read drops bit 63, a write copies bit 62 into it. Exact for
    any word whose top two bits are clear, which every page-table entry
    is. *)

val read_f64 : t -> Addr.paddr -> float
val write_f64 : t -> Addr.paddr -> float -> unit

val copy_page : t -> src:Addr.paddr -> dst:Addr.paddr -> unit
(** Copy one 4 KiB page; both addresses must be page-aligned. *)

val zero_page : t -> Addr.paddr -> unit

val host_write_u64 : t -> Addr.paddr -> int64 -> unit
val host_write_f64 : t -> Addr.paddr -> float -> unit
(** Aliases of [write*] kept distinct in the API so call sites make clear
    no simulated cost is intended. *)

val touched_pages : t -> int
(** Number of materialised backing pages (footprint diagnostics). *)

val self_check : t -> (unit, string) result
(** Validate the page-pointer cache against the backing store: every
    cached slot must alias the stored page ([==]). Pages are never removed
    once materialised, so this can only fail if that invariant is broken;
    run by the [--paranoid] harness at quantum boundaries. *)
