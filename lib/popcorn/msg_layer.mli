(** Popcorn's inter-kernel messaging layer (paper §6.2, §8.2).

    Two flavours, matching the paper's baselines:

    - {b SHM}: ring buffers in the 128 MB shared message area, one ring per
      direction; enqueue/dequeue costs come from the cache simulator (and
      thus depend on the hardware memory model), plus a cross-ISA IPI
      (2 us) per message for notification.
    - {b TCP}: a network link adding ~75 us per message round trip,
      independent of the memory model, plus serialisation staging costs.

    RPCs are synchronous: the requester's meter absorbs its own send/receive
    work, the notification latencies, and the (separately metered) time the
    peer spends in the handler — the paper's request/response protocol cost
    structure. *)

type kind = Shm | Tcp

type notify_mode = Ipi | Polling
(** How a receiver learns of a new SHM message: a cross-ISA IPI (2 us,
    the default) or a polling loop (§6.2 supports both). Polling trades
    notification latency (~one poll period) for receiver busy-work. *)

type t

val create :
  kind ->
  Stramash_kernel.Env.t ->
  ?notify:notify_mode ->
  ?tcp:Stramash_interconnect.Tcp_link.t ->
  ?inject:Stramash_fault_inject.Plan.t ->
  ?heartbeat:Stramash_interconnect.Heartbeat.t ->
  unit ->
  t
(** [inject] arms the fault plan: message attempts may then be dropped or
    delayed, with sender-side retry, exponential backoff and a final
    escalation to a reliable slow path (delivery is always eventual).
    [heartbeat] attaches the crash-stop watchdog; live nodes then publish
    beats through {!heartbeat_tick}. *)

val transport : t -> kind
val notify_mode : t -> notify_mode

val heartbeat : t -> Stramash_interconnect.Heartbeat.t option

val heartbeat_tick : t -> src:Stramash_sim.Node_id.t -> now:int -> unit
(** Publish a beat from [src] at wall cycle [now]; a no-op without an
    attached watchdog. Heartbeats are counted separately and excluded from
    {!message_count}. *)

val rpc :
  t ->
  src:Stramash_sim.Node_id.t ->
  label:string ->
  req_bytes:int ->
  resp_bytes:int ->
  handler:(unit -> unit) ->
  unit
(** [handler] runs the peer-side work and must charge the peer's meter
    itself (typically via {!Stramash_kernel.Env} helpers).
    @raise Stramash_fault_inject.Fault.Error
      with [Node_dead] if the peer has crash-stopped; callers that can
      degrade should use {!rpc_checked} instead. *)

val rpc_checked :
  t ->
  src:Stramash_sim.Node_id.t ->
  label:string ->
  req_bytes:int ->
  resp_bytes:int ->
  handler:(unit -> unit) ->
  (unit, Stramash_fault_inject.Fault.error) result
(** Like {!rpc}, but an RPC aimed at a crash-stopped peer fails fast with
    [Error (Node_dead _)] — a dead letter, distinct from the transient
    drop/retry faults the injection plan models — so the caller can take
    its degraded path explicitly. *)

val notify :
  t -> src:Stramash_sim.Node_id.t -> label:string -> bytes:int -> handler:(unit -> unit) -> unit
(** One-way message (e.g. a remote wake): requester does not wait for the
    handler's duration, only pays the send.
    @raise Stramash_fault_inject.Fault.Error
      with [Node_dead] if the peer has crash-stopped. *)

val notify_checked :
  t ->
  src:Stramash_sim.Node_id.t ->
  label:string ->
  bytes:int ->
  handler:(unit -> unit) ->
  (unit, Stramash_fault_inject.Fault.error) result

val record_async : t -> label:string -> unit
(** Count a message that is modelled by a fixed cost elsewhere (e.g. the
    batched DSM write-back updates); no transfer is simulated here. *)

val message_count : t -> int
val count_for : t -> string -> int
val counts : t -> (string * int) list
val reset_counts : t -> unit
