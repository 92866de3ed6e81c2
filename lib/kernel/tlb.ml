type entry = { frame : int; writable : bool }

type t = {
  size : int;
  vpages : int array; (* -1 invalid *)
  asids : int array;
  entries : entry array;
  hits : int ref; (* refs, not mutable fields: the view aliases them *)
  misses : int ref;
  mutable shootdowns : int;
}

type view = {
  tv_vpages : int array;
  tv_asids : int array;
  tv_entries : entry array;
  tv_mask : int;
  tv_hits : int ref;
}

let none = { frame = 0; writable = false }

let create ?(entries = 64) () =
  assert (entries > 0 && entries land (entries - 1) = 0);
  {
    size = entries;
    vpages = Array.make entries (-1);
    asids = Array.make entries (-1);
    entries = Array.make entries none;
    hits = ref 0;
    misses = ref 0;
    shootdowns = 0;
  }

let view t =
  {
    tv_vpages = t.vpages;
    tv_asids = t.asids;
    tv_entries = t.entries;
    tv_mask = t.size - 1;
    tv_hits = t.hits;
  }

let slot t vpage = vpage land (t.size - 1)

(* Fused translation fast path. The fused cache collapses onto the TLB's
   own flat arrays: an entry is only usable when the TLB itself would hit
   (otherwise hit/miss counts and charged walks would diverge from the
   reference path), and a direct-mapped TLB holds at most one live entry
   per slot — so a separate memo array can never hold more live state than
   the TLB storage itself. [translate] is that collapse: one slot probe,
   the permission check fused in, no [option] allocation: a probe of a
   slot holding (asid, vpage) counts one hit, any other probe one miss.

   Returns the frame (>= 0) on a usable hit; [miss] (-1) when the slot
   does not hold (asid, vpage) — a miss is counted and the caller walks
   and {!insert}s; [not_writable] (-2) when the entry is present but
   read-only and [write] is set — a HIT is counted (the slot did hold
   the translation) and the caller must proceed straight to the walk
   without re-probing. *)
let miss = -1
let not_writable = -2

let translate t ~asid ~vpage ~write =
  (* [s] is masked to the (power-of-two) table size, so the unsafe reads
     are in bounds by construction. *)
  let s = vpage land (t.size - 1) in
  if Array.unsafe_get t.vpages s = vpage && Array.unsafe_get t.asids s = asid then begin
    incr t.hits;
    let e = Array.unsafe_get t.entries s in
    if write && not e.writable then not_writable else e.frame
  end
  else begin
    incr t.misses;
    miss
  end

let insert t ~asid ~vpage entry =
  let s = slot t vpage in
  t.vpages.(s) <- vpage;
  t.asids.(s) <- asid;
  t.entries.(s) <- entry

let flush_page t ~vpage =
  let s = slot t vpage in
  if t.vpages.(s) = vpage then begin
    t.vpages.(s) <- -1;
    t.asids.(s) <- -1
  end

let flush_all t =
  Array.fill t.vpages 0 t.size (-1);
  Array.fill t.asids 0 t.size (-1)

(* A shootdown is a remotely-requested [flush_page]: same invalidation,
   but counted separately so cross-ISA invalidation traffic (the cost the
   placement engine charges an IPI round for) is visible on its own. *)
let shootdown t ~vpage =
  t.shootdowns <- t.shootdowns + 1;
  flush_page t ~vpage

let hits t = !(t.hits)
let misses t = !(t.misses)
let shootdowns t = t.shootdowns
