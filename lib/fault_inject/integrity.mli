(** Silent-data-corruption detection and repair primitives.

    A fingerprint store over paired physical frames (a placement home
    page and its bit-identical replica), the seeded bit-flip injector
    that corrupts them, an epoch-budgeted background scrubber, and the
    replica-backed repair path. Owned by {!Plan} (built iff a corruption
    schedule or the scrubber is armed) the same way {!Health} is; all
    decisions draw from one private stream passed in at creation, and
    every order-sensitive walk uses a sorted roster, so runs replay
    byte-identically from the plan seed. *)

(** {2 CRC32} *)

val crc32_string : string -> int
(** IEEE 802.3 CRC32 (reflected, poly [0xEDB88320]); the check value of
    ["123456789"] is [0xCBF43926]. Used for message framing and
    checkpoint blobs. *)

val crc32_page : Stramash_mem.Phys_mem.t -> frame:int -> int
(** CRC32 of one 4 KiB frame, read through the public [read_u64] path.
    [frame] is a page-aligned physical address. *)

(** {2 Cost model} *)

val scan_cost_cycles : int
(** Cycles to stream one page through the checksum unit. *)

val repair_local_cycles : int
val repair_cross_cycles : int
(** Page re-fetch cost: same-node copy vs. the cross-ISA wire. *)

val msg_crc_cycles : bytes:int -> int
(** Per-message CRC framing cost, paid by sender and receiver. *)

(** {2 Fingerprint store} *)

type t

type repair = {
  rp_frame : int;  (** page-aligned paddr that was re-fetched *)
  rp_src : Stramash_sim.Node_id.t;  (** node the clean copy came from *)
  rp_dst : Stramash_sim.Node_id.t;  (** node whose frame was repaired *)
  rp_latency : int;  (** cycles from injection to repair (exposure) *)
}

type tick_summary = {
  ts_flips : int;  (** injector events that landed this tick *)
  ts_scanned : int;  (** pages CRC-verified *)
  ts_repairs : repair list;
  ts_unrepaired : int;  (** detected corruptions with no clean twin *)
}

val empty_summary : tick_summary

val create :
  rng:Stramash_sim.Rng.t ->
  metrics:Stramash_sim.Metrics.registry ->
  flips:(int * int * int) list ->
  scrub:bool ->
  interval:int ->
  budget:int ->
  t
(** [flips] are [(at_cycle, node_index, bits)] injection events; the
    scrubber verifies at most [budget] pages per sweep, sweeping no
    more than once per [interval] cycles. Counters land in [metrics]
    under [corruption.*] and [scrub.*]. *)

val pair :
  t ->
  Stramash_mem.Phys_mem.t ->
  home:int ->
  home_node:Stramash_sim.Node_id.t ->
  replica:int ->
  replica_node:Stramash_sim.Node_id.t ->
  unit
(** Seal a freshly replicated pair: both frames are bit-identical, so
    one CRC covers both and each is the other's repair source. *)

val unpair : t -> home:int -> replica:int -> unit

val check_pair :
  t -> Stramash_mem.Phys_mem.t -> home:int -> replica:int -> now:int -> tick_summary
(** Immediate verify-and-repair of one pair — called at every choke
    point that dissolves it (collapse, reconcile, drain), so corruption
    cannot escape the tracked set when the pair goes away. *)

val tick : t -> Stramash_mem.Phys_mem.t -> now:int -> tick_summary
(** One quantum-boundary step: land every due injection event (events
    with no eligible victim stay queued and retry), then run a scrub
    sweep if the interval has elapsed. The caller
    charges {!scan_cost_cycles} per scanned page and the repair
    transfer costs to the simulated clocks. *)

val sweep_all : t -> Stramash_mem.Phys_mem.t -> now:int -> tick_summary
(** Budget-unbounded verify of every tracked frame in roster order — the
    shutdown drain pass, run before the final audit so no injected
    corruption is latent when the campaign proves its memory. *)

val tracked : t -> int
(** Sealed frames currently in the store. *)

val pending_count : t -> int
(** Injected corruptions not yet detected (latent damage). *)

val flips_outstanding : t -> int
(** Scheduled injection events that have not landed yet. *)

val max_exposure_cycles : t -> int
(** Longest observed injection-to-repair window. *)

val audit_clean : t -> Stramash_mem.Phys_mem.t -> bool
(** The post-repair proof obligation: every sealed frame matches its
    fingerprint and no injected corruption is latent. *)
