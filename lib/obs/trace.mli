(** Cycle-timestamped span tracing with cross-ISA cycle attribution.

    The clock domain is **simulated cycles** (per-node [Meter] values), not
    wall time. A single global tracer can be installed; when none is
    installed every entry point reduces to one [ref] dereference and
    allocates nothing, so instrumented hot paths are free in normal runs.

    Spans nest per node: [span] pushes onto the node's open-span stack and
    [close] pops it, attributing the duration to the parent's child-time so
    the aggregator can report both inclusive and self cycles. Closed spans
    and point events land in a bounded ring buffer (oldest overwritten,
    drops counted per subsystem); attribution is folded incrementally at
    close time, so a ring overflow never corrupts the cycle-attribution
    table.

    {2 Causal flows}

    Every span and event carries a {e flow id} (0 = none) tying together
    the cross-node causal chain of one top-level kernel operation. A span
    opened with [~flow_root:true] mints a fresh id when no enclosing flow
    exists, and nested spans inherit it. To stitch the responder side of a
    cross-node operation into the requester's flow, the requester-side
    layer wraps the responder-side recording in {!with_flow}; spans and
    instants recorded inside then carry the requester's id even though
    they sit on the other node's stack. Ids are minted deterministically
    from (node, per-node sequence), so a fixed seed replays to identical
    flow ids. *)

module Node_id = Stramash_sim.Node_id

type t
(** A tracer: ring buffer + open-span stacks + attribution table. *)

type span
(** An open span handle. The handle returned while tracing is disabled (or
    filtered out) is inert: [close]/[add_tag] on it do nothing. *)

val null : span
(** The shared inert handle. Call sites that open a span conditionally use
    it as the disabled arm, and can test [sp != Trace.null] (physical
    inequality) to skip building close-time tag lists. *)

type event = {
  ev_ts : int;  (** start cycle *)
  ev_dur : int;  (** duration in cycles; [-1] for point events *)
  ev_node : int;  (** node index (see {!Node_id.index}) *)
  ev_subsys : string;
  ev_op : string;
  ev_depth : int;  (** nesting depth at record time; 0 = top level *)
  ev_flow : int;  (** causal flow id; 0 = not part of any flow *)
  ev_tags : (string * string) list;
}

val known_subsystems : string list
(** Every subsystem name the simulator records under, sorted — what a
    user-facing [--trace-filter] may name. *)

val create : ?capacity:int -> ?filter:string list -> unit -> t
(** [create ()] makes a tracer with a 65536-event ring. [filter] restricts
    recording to the named subsystems ([[]] records everything); any
    name is accepted, {!known_subsystems} or not.
    @raise Invalid_argument if [capacity <= 0]. *)

(** {1 Global tracer} *)

val install : t -> unit
val uninstall : unit -> unit
val current_tracer : unit -> t option

val enabled : unit -> bool
(** The single guard instrumented call sites use before building tag
    lists: one dereference, no allocation. *)

val set_clock : (Node_id.t -> int) -> unit
(** Install a cycle-clock (typically [fun n -> Meter.get (Env.meter env n)])
    on the current tracer, used when a site records without an explicit
    [?at]. No-op when no tracer is installed. *)

(** {1 Recording} *)

val span :
  ?at:int ->
  ?tags:(string * string) list ->
  ?flow_root:bool ->
  node:Node_id.t ->
  subsys:string ->
  op:string ->
  unit ->
  span
(** Open a span at cycle [at] (default: the installed clock, else the
    enclosing span's start). With [~flow_root:true] the span mints a fresh
    flow id when neither a {!with_flow} override nor an enclosing flow is
    active. Returns an inert handle when disabled. *)

val close : ?at:int -> ?tags:(string * string) list -> span -> unit
(** Close a span at cycle [at] (same default as {!span}); records the event
    and folds it into the attribution table. Extra [tags] are appended. *)

val add_tag : span -> string -> string -> unit

val flow_of : span -> int
(** The flow id carried by an open span (0 for the inert handle). Used by
    cross-node layers to hand the requester's flow to {!with_flow}. *)

val instant :
  ?at:int ->
  ?node:Node_id.t ->
  ?flow:int ->
  ?tags:(string * string) list ->
  subsys:string ->
  op:string ->
  unit ->
  unit
(** Record a point event. When [node] is omitted it defaults to the node of
    the innermost open span (any node), letting layers with no node handle
    — fault injection, IPI backend, page-table IO — land their events
    inside the span they perturbed. When [flow] is omitted it inherits
    from the node's {!with_flow} override or innermost open span. *)

(** {1 Causal flows} *)

val fresh_flow : node:Node_id.t -> int
(** Mint a flow id on [node] without opening a span — for point events that
    are flow roots of their own (heartbeats, placement actions). Returns 0
    when no tracer is installed. *)

val with_flow : node:Node_id.t -> flow:int -> (unit -> 'a) -> 'a
(** [with_flow ~node ~flow f] runs [f] with [flow] pushed as the flow
    override for [node]: spans and instants recorded on that node inside
    [f] carry [flow] instead of minting or inheriting their own. A [flow]
    of 0 (or no tracer) makes this a plain call. *)

val current_flow : unit -> int
(** Flow id of the innermost open span on any node, else 0. *)

val add_blocked : node:Node_id.t -> subsys:string -> int -> unit
(** Account [cycles] of [node] being serialized behind a remote reply, on
    behalf of [subsys]. Non-positive amounts and uninstalled tracers are
    no-ops; the subsystem filter applies. *)

(** {1 Inspection} *)

val recorded : t -> int
(** Total events ever recorded (including any since overwritten). *)

val dropped : t -> int
(** Events lost to ring overflow: [max 0 (recorded - capacity)]. *)

val dropped_by_subsystem : t -> (string * int) list
(** Ring-overflow losses broken down by the overwritten event's subsystem,
    sorted by name. Sums to {!dropped}. *)

val capacity : t -> int
val open_spans : t -> int

val node_span_cycles : t -> Node_id.t -> int
(** Cycles covered by depth-0 spans on the node — comparable to the node's
    final [Meter] reading when the runner wraps execution in a top span. *)

val blocked_rows : t -> (string * int array) list
(** Blocked-on-remote cycles per subsystem (per-node arrays), sorted by
    subsystem name. *)

val node_blocked_cycles : t -> Node_id.t -> int
(** Total cycles [node] spent blocked on remote replies, all subsystems. *)

val events : t -> event list
(** Surviving ring contents, oldest first. *)

type row = {
  subsys : string;
  op : string;
  count : int;
  total_cycles : int;  (** inclusive *)
  self_cycles : int;  (** inclusive minus child-span cycles *)
  max_cycles : int;
  node_cycles : int array;  (** inclusive cycles per node index *)
}

val attribution : t -> row list
(** Per-(subsystem x operation) table, sorted by descending total then
    name. Point events contribute counts only. *)

val subsystems : t -> string list
(** Distinct subsystems observed, sorted. *)

val op_counts : t -> subsys:string -> (string * int) list
(** Event counts for one subsystem's operations, sorted by op name —
    spans and point events alike. *)

(** {1 Sinks} *)

val chrome_json : t -> Json.t
(** Chrome trace-event format (load in Perfetto or chrome://tracing):
    spans as "X" complete events, point events as "i" instants, one thread
    per node, [ts]/[dur] in simulated cycles. Nonzero flow ids ride in
    [args.flow]. *)

val chrome_string : t -> string

val jsonl_string : t -> string
(** One JSON object per line per surviving event, oldest first. *)

val blocked_json : t -> Json.t
(** Per-node blocked-on-remote cycles with per-subsystem breakdown. *)

val attribution_json : t -> Json.t
(** The attribution table plus recorded/dropped counters (aggregate and
    per-subsystem), per-node top-span cycles, and the blocked-on-remote
    account, as JSON. *)
