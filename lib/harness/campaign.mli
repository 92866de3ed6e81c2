(** Shared campaign plumbing: the verdict every seeded campaign (faults,
    chaos, place, gray, scrub, serve) returns, the CLI exit-code contract,
    and the one soak loop that runs campaign cells at derived seeds over
    host domains. *)

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
