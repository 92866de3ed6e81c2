module Node_id = Stramash_sim.Node_id

type hw_model = Separated | Shared | Fully_shared

let hw_model_to_string = function
  | Separated -> "Separated"
  | Shared -> "Shared"
  | Fully_shared -> "Fully Shared"

let pp_hw_model fmt m = Format.pp_print_string fmt (hw_model_to_string m)
let all_hw_models = [ Separated; Shared; Fully_shared ]

type region = { lo : Addr.paddr; hi : Addr.paddr }

let region_size r = r.hi - r.lo
let region_contains r a = a >= r.lo && a < r.hi

let pp_region fmt r = Format.fprintf fmt "[%a, %a)" Addr.pp_hex r.lo Addr.pp_hex r.hi

let gib_f f = int_of_float (f *. float_of_int (Addr.gib 1))

let x86_private = { lo = 0; hi = gib_f 1.5 }
let arm_private = { lo = gib_f 1.5; hi = Addr.gib 3 }

let private_region = function
  | Node_id.X86 -> x86_private
  | Node_id.Arm -> arm_private

let message_ring = { lo = Addr.gib 4; hi = Addr.gib 4 + Addr.mib 128 }
let pool = { lo = message_ring.hi; hi = Addr.gib 8 }

(* Bound once: [locality] asks for a half on every Separated-model miss,
   and a record built per call would be a heap allocation each time. *)
let x86_pool_half = { lo = Addr.gib 4; hi = Addr.gib 6 }
let arm_pool_half = { lo = Addr.gib 6; hi = Addr.gib 8 }

let pool_half = function Node_id.X86 -> x86_pool_half | Node_id.Arm -> arm_pool_half

type locality = Local | Remote

let locality model ~node a =
  match model with
  | Fully_shared -> Local
  | Separated ->
      if region_contains (private_region node) a then Local
      else if region_contains (pool_half node) a then Local
      else Remote
  | Shared -> if region_contains (private_region node) a then Local else Remote

let in_message_ring a = region_contains message_ring a

(* Home node of a physical address: the kernel whose memory controller the
   line lives behind. Private boot ranges belong to their owner; under the
   Separated model each node also homes its half of the upper 4-8G range.
   The message ring and the MMIO hole have no single home. *)
let home_node a =
  if region_contains x86_private a then Some Node_id.X86
  else if region_contains arm_private a then Some Node_id.Arm
  else if in_message_ring a then None
  else if region_contains (pool_half Node_id.X86) a then Some Node_id.X86
  else if region_contains (pool_half Node_id.Arm) a then Some Node_id.Arm
  else None

let total_memory = Addr.gib 8
