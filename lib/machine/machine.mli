(** The assembled platform: two kernel instances on cache-coherent shared
    memory under a chosen hardware model, running one OS personality.

    This is the library's main entry point:

    {[
      let m = Machine.create { Machine.default_config with os = Machine.Stramash_kernel_os } in
      let proc, thread = Machine.load m spec in
      let result = Runner.run m proc thread spec in
      ...
    ]} *)

type os_choice =
  | Vanilla
  | Popcorn_shm
  | Popcorn_tcp
  | Stramash_kernel_os
  | Stramash_no_futex_opt (* Fig. 13 ablation: fused kernel, regular futex *)

val os_choice_name : os_choice -> string
val all_os_choices : os_choice list

type config = {
  hw_model : Stramash_mem.Layout.hw_model;
  os : os_choice;
  cache_config : Stramash_cache.Config.t option;
      (* full geometry/latency override (Fig. 7 machine-pair validation,
         Fig. 10 L3 sweep via [Config.with_l3_size]) *)
  msg_notify : Stramash_popcorn.Msg_layer.notify_mode;
      (* SHM messaging notification: IPI (default) or polling (§6.2) *)
  seed : int64;
  inject : Stramash_fault_inject.Plan.config option;
      (* arm deterministic fault injection; the plan seed is derived from
         [seed], so the same config replays the same faults *)
  cache_mode : Stramash_cache.Cache_sim.mode;
      (* Fast (default) uses the L0/fused fast paths; Reference is the
         pre-fast-path simulator for baselines; Paranoid cross-checks
         every access and makes the runner audit invariants at each
         scheduling quantum *)
}

val default_config : config

type t

val create : config -> t
val config : t -> config
val env : t -> Stramash_kernel.Env.t
val os : t -> Os.t

val inject_plan : t -> Stramash_fault_inject.Plan.t option
(** The armed fault plan, if [config.inject] was set — source of the
    injection metrics and recovery-latency histogram. *)

val cache : t -> Stramash_cache.Cache_sim.t
val rng : t -> Stramash_sim.Rng.t
val threads : t -> Stramash_kernel.Thread.t list

val quantum : t -> Stramash_sim.Quantum.t
(** Scheduling-quantum boundary hooks; the runner fires them after every
    quantum's invariant audit. *)

val placement : t -> Stramash_placement.Engine.t option

val attach_placement : t -> Stramash_placement.Engine.t -> unit
(** Wire a placement engine into the machine: its epoch tick joins the
    quantum hooks, its collapse trigger joins the fault path, and [load]/
    [exit_process] register and drain processes with it. Must be called
    before any [load], at most once, and only on the Stramash
    personality — [Invalid_argument] otherwise. *)

val load : t -> Spec.t -> Stramash_kernel.Process.t * Stramash_kernel.Thread.t
(** Create the process at its origin (x86), build the origin memory
    descriptor, map code and eager data segments (load-time work is not
    charged to simulated time), and create the main thread. *)

val spawn_thread :
  t ->
  Stramash_kernel.Process.t ->
  at_point:int ->
  node:Stramash_sim.Node_id.t ->
  Stramash_kernel.Thread.t
(** Start an extra thread at the instruction after migration point
    [at_point], on [node] (its register r0 is set to the new tid). *)

val meter_of : t -> Stramash_sim.Node_id.t -> Stramash_sim.Meter.t
val reset_meters : t -> unit

val exit_process : t -> Stramash_kernel.Process.t -> unit
(** Tear the process down and recycle its memory (paper §6.4): each kernel
    instance invalidates its PTEs and frees the frames it allocated. *)

val used_frames : t -> Stramash_sim.Node_id.t -> int
(** Frames currently allocated by a kernel (leak/recycling diagnostics). *)

val read_user :
  t ->
  proc:Stramash_kernel.Process.t ->
  node:Stramash_sim.Node_id.t ->
  vaddr:int ->
  width:int ->
  int64 option
(** Uncharged debug/verification read through [node]'s page table
    ([None] if unmapped there). *)

val read_user_f64 :
  t -> proc:Stramash_kernel.Process.t -> node:Stramash_sim.Node_id.t -> vaddr:int -> float option
