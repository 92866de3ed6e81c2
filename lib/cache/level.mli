(** One set-associative cache level with LRU replacement.

    Lines are identified by their line number (physical address lsr 6);
    tags store the full line number, which wastes no simulated state and
    keeps lookups trivially correct. *)

type t

type view = private { v_tags : int array; v_stamp : int array; v_tick : int ref }
(** Raw window onto the live tag store and LRU clock, for the Fast engine's
    flattened hit path. Readers may compare [v_tags.(i)]; the only
    permitted mutation is the exact LRU touch
    [incr v_tick; v_stamp.(i) <- !v_tick] on a verified hit — anything
    else belongs in this module. *)

val create : Config.geometry -> t

val view : t -> view
(** The level's live arrays; aliases, never copies. *)

val probe : t -> line:int -> bool
(** Lookup; on hit, refreshes the line's LRU position. *)

val probe_way : t -> line:int -> int
(** [probe] that returns the hit's index into the tag store (for later
    {!tag_at} revalidation by the L0 line filter), or -1 on a miss.
    Touches LRU exactly as {!probe} does on a hit. *)

val tag_at : t -> int -> int
(** Tag currently stored at an index returned by {!probe_way}; -1 when
    the way is invalid. The L0 filter compares this against its cached
    line to detect eviction/invalidation without any hook traffic. *)

val contains : t -> line:int -> bool
(** Lookup without touching replacement state. *)

val insert : t -> line:int -> int option
(** Insert a line (must not already be present); returns the evicted line,
    if the chosen way held one. *)

val insert_evict : t -> line:int -> int
(** Allocation-free [insert] for the per-access fill path: returns the
    evicted line, or -1 when an invalid way absorbed the fill. Identical
    victim choice and LRU effects; skips [insert]'s absence assertion, so
    callers must only fill after a failed probe. *)

val invalidate : t -> line:int -> bool
(** Drop a line; returns whether it was present. *)

val capacity_lines : t -> int
