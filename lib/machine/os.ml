module Node_id = Stramash_sim.Node_id
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Vma = Stramash_kernel.Vma
module Pte = Stramash_kernel.Pte
module Page_table = Stramash_kernel.Page_table
module Process = Stramash_kernel.Process
module Thread = Stramash_kernel.Thread
module Tlb = Stramash_kernel.Tlb
module Popcorn_os = Stramash_popcorn.Popcorn_os
module Dsm = Stramash_popcorn.Dsm
module Msg_layer = Stramash_popcorn.Msg_layer
module Stramash_os = Stramash_core.Stramash_os
module Stramash_fault = Stramash_core.Stramash_fault

type t = Vanilla | Popcorn of Popcorn_os.t | Stramash of Stramash_os.t

let name = function
  | Vanilla -> "vanilla"
  | Popcorn p -> (
      match Msg_layer.transport (Popcorn_os.msg p) with
      | Msg_layer.Shm -> "popcorn-shm"
      | Msg_layer.Tcp -> "popcorn-tcp")
  | Stramash _ -> "stramash"

let supports_migration = function Vanilla -> false | Popcorn _ | Stramash _ -> true

(* Vanilla: a classic local fault — find the VMA, allocate a frame from the
   local kernel, map it. *)
let vanilla_fault ~env ~proc ~node ~vaddr =
  let mm = Process.mm_exn proc node in
  let charge v = Env.charge_load env node ~paddr:v.Vma.struct_addr in
  match Vma.find ~visit:charge mm.Process.vmas ~vaddr with
  | None ->
      Error
        (Stramash_fault_inject.Fault.Segfault
           { pid = proc.Process.pid; vaddr; node = Node_id.to_string node })
  | Some vma -> (
      let kernel = Env.kernel env node in
      match Stramash_kernel.Frame_alloc.alloc kernel.Kernel.frames with
      | None -> Error (Stramash_fault_inject.Fault.Out_of_memory { node = Node_id.to_string node })
      | Some frame ->
          Phys_mem.zero_page env.Env.phys frame;
          let io = Env.pt_io env ~actor:node ~owner:node in
          Page_table.map mm.Process.pgtable io ~vaddr:(Addr.page_base vaddr)
            ~frame:(frame lsr Addr.page_shift)
            { Pte.default_flags with writable = vma.Vma.writable };
          Tlb.flush_page (Env.tlb env node) ~vpage:(Addr.page_of vaddr);
          Ok ())

let handle_fault t ~env ~proc ~node ~vaddr ~write =
  match t with
  | Vanilla -> vanilla_fault ~env ~proc ~node ~vaddr
  | Popcorn p -> Popcorn_os.handle_fault p ~proc ~node ~vaddr ~write
  | Stramash s -> Stramash_os.handle_fault s ~proc ~node ~vaddr ~write

let migrate t ~proc ~thread ~dst ~point =
  match t with
  | Vanilla -> invalid_arg "Vanilla OS cannot migrate threads"
  | Popcorn p -> Popcorn_os.migrate p ~proc ~thread ~dst ~point
  | Stramash s -> Stramash_os.migrate s ~proc ~thread ~dst ~point

let futex_wait t ~env ~proc ~thread ~uaddr ~expected =
  ignore env;
  match t with
  | Vanilla -> invalid_arg "Vanilla OS futexes are exercised via Popcorn/Stramash"
  | Popcorn p -> Popcorn_os.futex_wait p ~proc ~thread ~uaddr ~expected
  | Stramash s -> Stramash_os.futex_wait s ~proc ~thread ~uaddr ~expected

let futex_wake t ~env ~proc ~thread ~threads ~uaddr ~nwake =
  ignore env;
  match t with
  | Vanilla -> invalid_arg "Vanilla OS futexes are exercised via Popcorn/Stramash"
  | Popcorn p -> Popcorn_os.futex_wake p ~proc ~thread ~threads ~uaddr ~nwake
  | Stramash s -> Stramash_os.futex_wake s ~proc ~thread ~threads ~uaddr ~nwake

(* Vanilla teardown: unmap + free everything through the single kernel. *)
let vanilla_exit ~env ~proc =
  let node = proc.Process.origin in
  match Process.mm proc node with
  | None -> ()
  | Some mm ->
      let io = Env.pt_io env ~actor:node ~owner:node in
      let kernel = Env.kernel env node in
      Vma.iter mm.Process.vmas ~f:(fun vma ->
          let vaddr = ref vma.Vma.v_start in
          while !vaddr < vma.Vma.v_end do
            let leaf = Page_table.walk mm.Process.pgtable io ~vaddr:!vaddr in
            if Pte.present leaf then begin
              ignore (Page_table.unmap mm.Process.pgtable io ~vaddr:!vaddr);
              Tlb.flush_page (Env.tlb env node) ~vpage:(Addr.page_of !vaddr);
              Stramash_kernel.Frame_alloc.free kernel.Kernel.frames
                (Pte.frame ~isa:node leaf lsl Addr.page_shift)
            end;
            vaddr := !vaddr + Addr.page_size
          done)

let exit_process t ~env ~proc =
  match t with
  | Vanilla -> vanilla_exit ~env ~proc
  | Popcorn p -> Popcorn_os.exit_process p ~proc
  | Stramash s -> Stramash_os.exit_process s ~proc

let message_count = function
  | Vanilla -> 0
  | Popcorn p -> Msg_layer.message_count (Popcorn_os.msg p)
  | Stramash s -> Msg_layer.message_count (Stramash_os.msg s)

let message_counts = function
  | Vanilla -> []
  | Popcorn p -> Msg_layer.counts (Popcorn_os.msg p)
  | Stramash s -> Msg_layer.counts (Stramash_os.msg s)

let replicated_pages = function
  | Vanilla -> 0
  | Popcorn p -> Dsm.replicated_pages (Popcorn_os.dsm p)
  | Stramash s -> Stramash_fault.fallback_pages (Stramash_os.faults s)

let seed_resident_page t ~proc ~vaddr ~frame =
  match t with
  | Vanilla | Stramash _ -> ()
  | Popcorn p ->
      Dsm.seed_owner (Popcorn_os.dsm p) ~pid:proc.Process.pid ~origin:proc.Process.origin ~vaddr
        ~frame

let reset_counters = function
  | Vanilla -> ()
  | Popcorn p -> Dsm.reset_counters (Popcorn_os.dsm p)
  | Stramash s ->
      Stramash_fault.reset_counters (Stramash_os.faults s);
      Msg_layer.reset_counts (Stramash_os.msg s)

(* Crash-stop node failures are a Stramash-personality feature: the other
   personalities have no checkpoint/degraded-mode machinery, so a chaos
   schedule under them is a configuration error, surfaced loudly. *)

let supports_chaos = function Vanilla | Popcorn _ -> false | Stramash _ -> true

let require_stramash op = function
  | Vanilla | Popcorn _ ->
      invalid_arg (Printf.sprintf "Os.%s: node failures require the Stramash personality" op)
  | Stramash s -> s

let heartbeat = function
  | Vanilla | Popcorn _ -> None
  | Stramash s -> Stramash_os.heartbeat s

let heartbeat_tick t ~src ~now =
  match t with
  | Vanilla | Popcorn _ -> ()
  | Stramash s -> Stramash_os.heartbeat_tick s ~src ~now

let on_node_death t ~procs ~threads ~node ~now =
  Stramash_os.on_node_death (require_stramash "on_node_death" t) ~procs ~threads ~node ~now

let on_peer_detected t ~node ~now =
  Stramash_os.on_peer_detected (require_stramash "on_peer_detected" t) ~node ~now

let on_node_restart t ~procs ~node ~now =
  Stramash_os.on_node_restart (require_stramash "on_node_restart" t) ~procs ~node ~now
