module Rng = Stramash_sim.Rng
module Spec = Stramash_machine.Spec
module Redis = Stramash_workloads.Redis

type op = Get | Set | Mset | Scan

let all_ops = [ Get; Set; Mset; Scan ]
let op_name = function Get -> "get" | Set -> "set" | Mset -> "mset" | Scan -> "scan"
let op_index = function Get -> 0 | Set -> 1 | Mset -> 2 | Scan -> 3

let redis_op = function
  | Get -> Redis.Get
  | Set -> Redis.Set
  | Mset -> Redis.Mset
  | Scan -> Redis.Get

type mix = { get : int; set : int; mset : int; scan : int }

let default_mix = { get = 70; set = 20; mset = 5; scan = 5 }

let validate_mix m =
  if m.get < 0 || m.set < 0 || m.mset < 0 || m.scan < 0 then
    Error "mix weights must be non-negative"
  else if m.get + m.set + m.mset + m.scan <= 0 then Error "mix weights must sum to a positive total"
  else Ok ()

let pick m rng =
  let total = m.get + m.set + m.mset + m.scan in
  let d = Rng.int rng total in
  if d < m.get then Get
  else if d < m.get + m.set then Set
  else if d < m.get + m.set + m.mset then Mset
  else Scan

let slot_bytes = 64
let mset_keys = 10
let scan_len = 16
let keyspace_base = Spec.heap_base
let vaddr_of_key k = keyspace_base + (k * slot_bytes)

(* The program is a placeholder: [Machine.load] needs a Mir image to
   lower for both ISAs, but the serving loop never runs a thread — it
   drives translation and cache traffic directly, as the kernel would
   for a request-processing server. *)
let store_spec ~keys =
  if keys <= 0 then invalid_arg "Workload.store_spec: keys must be positive";
  let mir =
    let module B = Stramash_isa.Builder in
    let b = B.create () in
    ignore (B.immi b 0);
    B.finish b
  in
  {
    Spec.name = "serve-store";
    description = Printf.sprintf "open-loop serving keyspace: %d x %d B slots" keys slot_bytes;
    mir;
    segments =
      [ Spec.segment ~writable:true ~eager:true ~init:Spec.Zeroed ~base:keyspace_base
          ~len:(keys * slot_bytes) () ];
    migration_targets = [];
  }
