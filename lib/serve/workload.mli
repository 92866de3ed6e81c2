(** The serving workload's shape: request mix, keyspace layout, and the
    store-process spec the machine loads.

    The keyspace is a real process data segment — [keys] fixed 64-byte
    slots, eagerly zero-mapped at the origin (x86) — so every value
    access from the serving (Arm) island goes through the kernel's own
    translation and fault paths: DSM page replication under Popcorn,
    remote walks / fused faults under Stramash, and placement sampling
    when an engine is attached. *)

type op = Get | Set | Mset | Scan

val all_ops : op list
val op_name : op -> string

val op_index : op -> int
(** Position of the op in {!all_ops}. *)

val redis_op : op -> Stramash_workloads.Redis.op
(** The Redis cost-model op each serve op reuses ([Scan] borrows [Get]'s
    parse/index/socket shape; its value phase reads {!scan_len} slots). *)

type mix = { get : int; set : int; mset : int; scan : int }
(** Relative integer weights; requests draw ops in proportion. *)

val default_mix : mix
(** 70 / 20 / 5 / 5 — a read-heavy cache-style mix. *)

val validate_mix : mix -> (unit, string) result
(** Weights must be non-negative and sum to a positive total. *)

val pick : mix -> Stramash_sim.Rng.t -> op

val slot_bytes : int
(** Bytes per key slot (64 — one cache line). *)

val mset_keys : int
(** Keys written by one [Mset] (10, matching the Redis batched op). *)

val scan_len : int
(** Consecutive slots read by one [Scan] (16). *)

val keyspace_base : int
(** Virtual base of the keyspace segment ([Spec.heap_base]). *)

val vaddr_of_key : int -> int

val store_spec : keys:int -> Stramash_machine.Spec.t
(** The store process: a trivial program (never executed — the serving
    loop drives memory directly) plus one eager zeroed writable segment
    of [keys * slot_bytes] bytes at {!keyspace_base}.
    @raise Invalid_argument if [keys <= 0]. *)
