(** Shared campaign plumbing: the verdict every seeded campaign (faults,
    chaos, place, gray, scrub, serve) returns, the CLI exit-code contract,
    the one soak loop that runs campaign cells at derived seeds over host
    domains, and the audited-run kit the fault campaigns are built from. *)

type verdict =
  | Clean  (** The campaign ran and every gate it checks passed. *)
  | Violations  (** Campaign ran but an audit, fingerprint or gate failed. *)
  | Unrecovered  (** A typed fault escaped recovery (e.g. [Node_dead]). *)
  | Unknown_bench  (** Unusable arguments — the campaign never ran. *)

val verdict_to_string : verdict -> string

val exit_code : verdict -> int
(** Normalised CLI contract of every campaign subcommand: [Clean] → 0,
    [Violations]/[Unrecovered] → 1, [Unknown_bench] → 2. *)

val worst : verdict list -> verdict
(** The verdict with the highest {!exit_code}; on a tie the earliest in
    the list wins. [Clean] for the empty list. *)

type on_metrics = label:string -> Stramash_sim.Metrics.registry -> unit
(** How a campaign hands its registries to the caller: each under the
    label the CLI files it as in [--metrics-json] snapshots. *)

val no_metrics : on_metrics

type soak = verdict * (int * int64 * verdict) list
(** The worst verdict across cells and each cell's
    [(index, seed, verdict)], in cell order. *)

val soak :
  Format.formatter ->
  name:string ->
  seed:int64 ->
  cells:int ->
  domains:int ->
  (int64 -> Format.formatter -> verdict) ->
  soak
(** Run [cells] independent campaign cells, cell [i] at seed [seed + i],
    across [domains] host domains via {!Stramash_sim.Domain_pool}. Each
    cell renders into a private buffer; buffers are emitted in cell order
    under a ["--- cell i (seed s) ---"] banner, so the printed soak — and
    the result — is byte-identical whatever [domains] is. Ends with a
    ["soak verdict: ..."] line. The cell closure must own everything it
    mutates, and no tracer may be installed when [domains > 1] (the
    tracer is process-global). *)

val soak_json :
  name:string -> params:(string * Stramash_obs.Json.t) list -> soak -> Stramash_obs.Json.t
(** The [stramash-<name>-soak/1] document: [params] (the campaign's
    config), then per-cell verdicts and the overall verdict. Holds no
    timings or host facts, so it is byte-identical for any domain count. *)

(** {1 The audited-run kit}

    The steps the fault campaigns (chaos, gray, scrub, place; faults uses
    the spec guard and the machine) share. Each is a plain function; a
    campaign that prints something different passes the difference in
    as data — an audit label, or extra audit predicates. *)

val benches : string list
(** Benchmarks every fault campaign accepts: the Fig. 9 NPB set at small
    problem sizes. *)

val unknown_bench : campaign:string -> string -> string
(** ["unknown benchmark <bench> (<campaign> campaign runs is | cg | mg | ft)"]
    — the one message for a bench outside {!benches}, in the campaigns
    and in the CLI's up-front check. *)

val spec_of_bench :
  Format.formatter -> campaign:string -> string -> Stramash_machine.Spec.t option
(** The campaign-sized spec for a {!benches} entry; otherwise prints
    {!unknown_bench} and returns [None]. *)

val stramash :
  seed:int64 ->
  cache_mode:Stramash_cache.Cache_sim.mode ->
  ?inject:Stramash_fault_inject.Plan.config ->
  unit ->
  Stramash_machine.Machine.t
(** A fused-kernel machine with the default hardware model. *)

val attach_placement :
  ?epoch:int ->
  policy:Stramash_placement.Policy.t ->
  Stramash_machine.Machine.t ->
  Stramash_placement.Engine.t
(** Create a placement engine on a {!stramash} machine and attach it
    (before the first [load]). *)

val checksum :
  Stramash_machine.Machine.t -> proc:Stramash_kernel.Process.t -> int64 option
(** The NPB checksum word read through whichever kernel still maps it —
    the workload fingerprint campaigns compare against their baseline. *)

val pp_checksum : Format.formatter -> int64 option -> unit
(** [0x...], or [<unmapped>] when no kernel maps the word. *)

type baseline = {
  wall : int;  (** Fault-free wall cycles. *)
  checksum : int64 option;  (** Fault-free {!checksum}. *)
  origin : Stramash_sim.Node_id.t;  (** The process's origin node. *)
  anchor : int option;
      (** First cycle the thread lands on a node other than [origin] —
          the anchor the fault schedules build around. *)
}

val baseline :
  ?policy:Stramash_placement.Policy.t ->
  seed:int64 ->
  cache_mode:Stramash_cache.Cache_sim.mode ->
  Stramash_machine.Spec.t ->
  baseline
(** Run [spec] fault-free on a {!stramash} machine (with a placement
    engine under [policy], if given) and fingerprint it. *)

val pp_baseline : Format.formatter -> baseline -> unit
(** The ["baseline: wall=... cycles, checksum=..."] line. *)

val survivor :
  Format.formatter -> label:string -> baseline -> int64 option -> bool
(** Print ["<label> checksum: ... (matches|DIFFERS from baseline)"];
    [true] iff the checksum is mapped and equals the baseline's. *)

val audit :
  Format.formatter ->
  label:string ->
  Stramash_machine.Machine.t ->
  proc:Stramash_kernel.Process.t ->
  ?extra:(string * bool) list ->
  unit ->
  bool
(** The kernel invariant audit of a {!stramash} machine, with the fused
    kernel's live threads, death-parked waiters, allocator ledger and
    PTL quiescence; [extra] predicates come first in the report. Prints
    ["audit[<label>]: ..."] and returns whether it was clean. *)

val teardown :
  Format.formatter ->
  label:string ->
  Stramash_machine.Machine.t ->
  proc:Stramash_kernel.Process.t ->
  bool
(** Exit [proc] and check every frame it mapped came back (the §6.4
    teardown invariant). Prints ["audit[<label>]: ..."] and returns
    whether it was clean. *)
