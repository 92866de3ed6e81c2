(** OS personality dispatch.

    [Vanilla] is the paper's no-migration baseline (a single kernel
    serving its local application); [Popcorn] the shared-nothing
    multiple-kernel baseline; [Stramash] the fused kernel. *)

type t =
  | Vanilla
  | Popcorn of Stramash_popcorn.Popcorn_os.t
  | Stramash of Stramash_core.Stramash_os.t

val name : t -> string
val supports_migration : t -> bool

val handle_fault :
  t ->
  env:Stramash_kernel.Env.t ->
  proc:Stramash_kernel.Process.t ->
  node:Stramash_sim.Node_id.t ->
  vaddr:int ->
  write:bool ->
  (unit, Stramash_fault_inject.Fault.error) result
(** Typed at every personality: segfault and OOM come back as [Error],
    recoverable anomalies are absorbed by the personalities' retry and
    fallback paths. *)

val migrate :
  t ->
  proc:Stramash_kernel.Process.t ->
  thread:Stramash_kernel.Thread.t ->
  dst:Stramash_sim.Node_id.t ->
  point:int ->
  unit

val futex_wait :
  t ->
  env:Stramash_kernel.Env.t ->
  proc:Stramash_kernel.Process.t ->
  thread:Stramash_kernel.Thread.t ->
  uaddr:int ->
  expected:int64 ->
  [ `Block | `Proceed ]

val futex_wake :
  t ->
  env:Stramash_kernel.Env.t ->
  proc:Stramash_kernel.Process.t ->
  thread:Stramash_kernel.Thread.t ->
  threads:Stramash_kernel.Thread.t list ->
  uaddr:int ->
  nwake:int ->
  int list

val message_count : t -> int
val message_counts : t -> (string * int) list
val replicated_pages : t -> int
(** Popcorn: DSM page copies; Stramash: origin-fallback pages; Vanilla: 0. *)

val exit_process :
  t -> env:Stramash_kernel.Env.t -> proc:Stramash_kernel.Process.t -> unit
(** Process teardown and memory recycling (paper §6.4): each personality
    frees pages per its ownership rules, with teardown traffic charged. *)

val seed_resident_page : t -> proc:Stramash_kernel.Process.t -> vaddr:int -> frame:int -> unit
(** Loader hook: a page mapped eagerly at the origin must be known to the
    DSM protocol as origin-owned. *)

val reset_counters : t -> unit

(** {2 Crash-stop node failures}

    Stramash-only: the other personalities raise [Invalid_argument] when a
    chaos schedule reaches them. The runner drives these at quantum
    boundaries. *)

val supports_chaos : t -> bool

val heartbeat : t -> Stramash_interconnect.Heartbeat.t option
val heartbeat_tick : t -> src:Stramash_sim.Node_id.t -> now:int -> unit

val on_node_death :
  t ->
  procs:Stramash_kernel.Process.t list ->
  threads:Stramash_kernel.Thread.t list ->
  node:Stramash_sim.Node_id.t ->
  now:int ->
  unit

val on_peer_detected : t -> node:Stramash_sim.Node_id.t -> now:int -> unit

val on_node_restart :
  t -> procs:Stramash_kernel.Process.t list -> node:Stramash_sim.Node_id.t -> now:int -> unit
