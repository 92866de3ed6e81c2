(** Seeded, deterministic fault plan.

    A plan owns one private SplitMix64 stream per injection site (message
    layer, IPI, remote walker, PTL, frame allocator), all split from a
    single plan seed in a fixed order. Sites with a zero rate never draw,
    so enabling faults at one site does not perturb decisions at another,
    and the plan seed is independent of the workload seed so a no-fault
    run is bit-identical to a run with no plan at all.

    Decision functions both decide and count: every [`Drop]/[`Lost]/true
    verdict bumps the matching counter in {!metrics}, so a campaign report
    needs no extra bookkeeping at the call sites. *)

type node_event = {
  node : Stramash_sim.Node_id.t;
  kill_at : int;  (** wall cycle at (or after) which the node crash-stops *)
  restart_after : int option;
      (** downtime in cycles before the node restarts; [None] = never *)
}

type gray_window = {
  g_node : Stramash_sim.Node_id.t;
  g_start : int;  (** wall cycle the slow-down window opens *)
  g_len : int;
  g_factor : float;
      (** multiplicative service-time inflation while inside the window;
          must be >= 1.0 *)
}

type flap_burst = {
  fl_start : int;
  fl_len : int;
  fl_drop_rate : float;  (** correlated drop probability during the burst *)
  fl_delay_cycles : int;  (** added to every delivery inside the burst *)
}

type ptl_stall = {
  st_start : int;
  st_len : int;
  st_stall_cycles : int;  (** extra hold time per PTL acquire in the window *)
}

type bit_flip = {
  bf_at : int;  (** wall cycle at (or after) which the flip lands *)
  bf_node : int;  (** preferred victim node, as an index into [Node_id.all] *)
  bf_bits : int;
      (** distinct bits flipped in the low byte of one aligned word, in
          [1, 8] — silent value damage, never a wild pointer (high-bit
          corruption of an index traps at the MMU and is not an SDC) *)
}

type config = {
  msg_drop_rate : float;  (** probability a ring/TCP message attempt is dropped *)
  msg_delay_rate : float;  (** probability of a delivery delay spike *)
  ipi_loss_rate : float;
  ipi_jitter_rate : float;
  walk_fail_rate : float;  (** transient remote PTE read failure *)
  ptl_timeout_rate : float;
  alloc_fail_rate : float;  (** simulated frame-allocator exhaustion *)
  node_events : node_event list;  (** crash-stop kill/restart schedule *)
  gray_slow : gray_window list;  (** per-node slow-down windows *)
  gray_flaps : flap_burst list;  (** correlated link-flap episodes *)
  gray_ptl_stalls : ptl_stall list;  (** PTL lock-holder stall windows *)
  msg_dup_rate : float;  (** probability a delivery is duplicated *)
  msg_reorder_rate : float;  (** probability a delivery is reordered *)
  health_enabled : bool;
      (** arm health scoring + circuit breakers (the breaker-on/off A/B
          switch; only takes effect when a gray schedule is armed) *)
  breaker_probe_interval : int;  (** cycles between half-open probes while tripped *)
  corrupt_flips : bit_flip list;  (** seeded single/multi-bit flips in tracked frames *)
  corrupt_msg_rate : float;  (** probability a delivery attempt's payload is corrupted *)
  corrupt_msg_truncate_rate : float;  (** probability an attempt arrives truncated *)
  corrupt_ckpt_rate : float;  (** probability a checkpoint blob is torn mid-write *)
  corrupt_pte_rate : float;  (** probability a remote-walker install lands a stale frame *)
  scrub_enabled : bool;  (** arm the background page scrubber (detection only) *)
  scrub_interval_cycles : int;  (** minimum cycles between scrub sweeps *)
  scrub_pages_per_epoch : int;  (** per-sweep page-verification budget *)
}
(** Only the knobs some campaign turns. The fixed parameters of each
    fault model (timeouts, retry budgets, heartbeat period, health EWMA
    and breaker thresholds) are constants in the module that reads them:
    this one for message delays and retries, {!Health}, [Ipi],
    [Heartbeat], [Remote_walker], [Stramash_ptl] and [Stramash_fault]. *)

val default : config
(** All rates zero, no node events: a plan built from [default] injects
    nothing. *)

val validate : config -> (unit, string) result
(** Full structural validation: rates in [0, 1], cycle counts
    non-negative, intervals and budgets >= 1, non-overlapping
    [node_events] and per-node [gray_slow] windows, in-range flip events
    (bits in [1, 8], node index within [Node_id.all]). CLI entry points
    call this before building a machine so a bad flag fails fast with a
    message instead of deep inside a run. *)

val config_fingerprint : config -> int
(** Digest of the whole config (every list entry, however long), cut to
    a non-negative 52-bit int and echoed next to the seed in campaign
    JSON output for reproducibility. *)

type t

val create : seed:int64 -> config -> t
(** Runs {!validate}, then normalizes [node_events] (sorted by kill
    time).
    @raise Invalid_argument on a malformed config. *)

val metrics : t -> Stramash_sim.Metrics.registry

(** {2 Message layer} *)

val msg_timeout_cycles : int
(** Sender-side loss-detection timeout: 20 us. *)

val msg_attempt : t -> [ `Deliver of int | `Drop ]
(** Verdict for one transmission attempt; [`Deliver extra] carries the
    injected delay in cycles (0 when on time). *)

val msg_backoff : attempt:int -> int
(** Cycles the sender burns on attempt [attempt] (0-based): detection
    timeout plus exponential backoff. *)

val msg_attempts_exhausted : attempt:int -> bool
val note_msg_retry : t -> unit
val note_msg_escalation : t -> unit

(** {2 IPI} *)

val ipi_delivery : t -> [ `On_time | `Jitter of int | `Lost ]

(** {2 Remote walker} *)

val walk_read_faulted : t -> bool
val note_walk_retry : t -> unit

(** {2 PTL} *)

val ptl_acquire_timed_out : t -> bool

(** {2 Frame allocator} *)

val alloc_denied : t -> bool
val note_hotplug_recovery : t -> unit
val note_fallback_escalation : t -> unit

(** {2 Recovery accounting} *)

val record_recovery : t -> cycles:int -> unit

(** {2 Crash-stop node failures}

    The schedule itself is data; the runner interprets it at quantum
    boundaries. The [note_*] functions centralise chaos counters in the
    plan's registry so campaign reports and [--metrics-json] see one
    consistent namespace. *)

val node_events : t -> node_event list
(** Sorted by kill time. *)

val chaos_armed : t -> bool

val note_detection_latency : t -> cycles:int -> unit
(** Watchdog detected a dead peer [cycles] after it actually died. *)

val note_node_death : t -> Stramash_sim.Node_id.t -> unit
val note_node_restart : t -> Stramash_sim.Node_id.t -> unit
val note_watchdog_detection : t -> Stramash_sim.Node_id.t -> unit
val note_lock_break : t -> unit
val note_stale_token : t -> unit
val note_waiter_parked : t -> unit
val note_waiter_requeued : t -> unit
val note_blocks_reclaimed : t -> int -> unit
val note_blocks_orphaned : t -> int -> unit
val note_degraded_walk : t -> unit
val note_dead_node_message : t -> unit
val add_downtime_cycles : t -> cycles:int -> unit
val add_degraded_cycles : t -> cycles:int -> unit
val note_checkpoint : t -> bytes:int -> unit
val note_restore : t -> pages:int -> unit

(** {2 Gray failures}

    Window queries are pure in [now] (wall cycles): no RNG state is
    consumed and no cycles are added when the schedule is empty, so an
    unarmed gray plan is bit-identical to no gray plan at all. *)

val gray_armed : t -> bool
(** True when any gray schedule entry or dup/reorder rate is set. *)

val health : t -> Health.t option
(** The health tracker; [Some] iff {!gray_armed} and
    [config.health_enabled]. *)

val slow_factor : t -> node:Stramash_sim.Node_id.t -> now:int -> float
(** Service-time inflation factor for work served by [node] at [now];
    1.0 outside every window. *)

val inflate : t -> node:Stramash_sim.Node_id.t -> now:int -> cycles:int -> int
(** Extra cycles (beyond [cycles]) the current slow-down window adds to
    an operation served by [node]; counts into ["gray.inflated_cycles"]. *)

val msg_attempt_at : t -> now:int -> [ `Deliver of int | `Drop ]
(** Flap-aware {!msg_attempt}: inside a flap burst the correlated drop
    rate applies first and deliveries carry the burst's extra delay.
    Equivalent to {!msg_attempt} when no burst covers [now]. *)

val msg_duplicated : t -> bool
(** Whether this delivery is duplicated (receiver pays twice). *)

val msg_reorder_extra : t -> int
(** Extra delivery cycles simulating queue reordering, 0 normally. *)

val ptl_stall_extra : t -> now:int -> int
(** Extra lock-holder stall cycles for a PTL acquire at [now]. *)

(** {2 Health / circuit breaker}

    Thin wrappers over {!Health} that no-op when health is unarmed, so
    call sites need no option plumbing. *)

val observe_msg_rtt :
  t -> peer:Stramash_sim.Node_id.t -> cycles:int -> nominal:int -> now:int -> unit

val observe_service :
  t -> peer:Stramash_sim.Node_id.t -> cycles:int -> nominal:int -> now:int -> unit

val observe_failure : t -> peer:Stramash_sim.Node_id.t -> now:int -> unit

val breaker_route :
  t -> peer:Stramash_sim.Node_id.t -> now:int -> [ `Fused | `Probe | `Divert ]
(** [`Fused] when health is unarmed or the breaker is closed. *)

val breaker_probe_done : t -> peer:Stramash_sim.Node_id.t -> now:int -> unit
val note_breaker_fallback : t -> unit

val msg_backoff_for : t -> peer:Stramash_sim.Node_id.t -> attempt:int -> int
(** Health-adaptive, jittered replacement for {!msg_backoff}; identical
    to it when health is unarmed. *)

(** {2 Silent data corruption}

    The corruption schedule follows the gray pattern: deciders draw from
    one private stream split off last, guarded on their rates, so an
    unarmed plan (and a plan with only the scrubber on) is bit-identical
    to one with no corruption machinery at all. The [note_*] functions
    centralise the [corruption.*] counter family in the plan registry. *)

val corruption_armed : t -> bool
(** True when any flip event or corruption rate is set. *)

val integrity : t -> Integrity.t option
(** The fingerprint store + injector + scrubber; [Some] iff
    {!corruption_armed} or [config.scrub_enabled]. *)

val scrub_enabled : t -> bool

val msg_corrupt_verdict : t -> [ `Clean | `Corrupt | `Truncated ]
(** Verdict for one delivery attempt's payload integrity; counts
    injections into ["corruption.msg_corrupted"/"corruption.msg_truncated"]. *)

val note_msg_corruption_detected : t -> unit
(** The receiver's CRC framing check rejected the attempt; the caller's
    retransmit loop is the repair. *)

val pte_corrupted : t -> bool
(** Whether this remote-walker leaf install lands a stale frame. *)

val note_pte_repair : t -> unit
(** Verify-after-install caught the stale leaf and re-installed from the
    owner's tables. *)

val ckpt_torn_fraction : t -> float option
(** [Some f] tears the checkpoint blob to its first [f] fraction. *)

val note_ckpt_detected : t -> unit
val note_ckpt_fallback : t -> unit

val corruption_injected : t -> int
(** Total injected corruptions across all sites (flips, messages,
    checkpoints, PTEs) — the campaign's detection denominator. *)

val corruption_detected : t -> int
val corruption_repaired : t -> int
(** Repairs that did not need a checkpoint fallback (replica re-fetch,
    owner re-fetch, message retransmit). *)

val corruption_fallbacks : t -> int
val corruption_unrepaired : t -> int

(** {2 Per-operation latency} *)

val op_names : string list
(** The tracked operation classes, in display order:
    ["fault"], ["remote_walk"], ["msg_rpc"], ["ptl_acquire"]. *)

val record_op : t -> op:string -> cycles:int -> unit
(** Record one operation's latency; no-op unless {!gray_armed} and [op]
    is one of {!op_names}. *)

val op_histograms : t -> (string * Stramash_sim.Metrics.Histogram.t) list

val report : Format.formatter -> t -> unit
(** Deterministic dump: sorted counters plus the recovery-latency
    histogram summary, health state, and per-op latency percentiles. *)
