module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Rng = Stramash_sim.Rng
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Phys_mem = Stramash_mem.Phys_mem
module Cache_config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Vma = Stramash_kernel.Vma
module Pte = Stramash_kernel.Pte
module Page_table = Stramash_kernel.Page_table
module Process = Stramash_kernel.Process
module Thread = Stramash_kernel.Thread
module Codegen = Stramash_isa.Codegen
module Machine_code = Stramash_isa.Machine
module Interp = Stramash_isa.Interp
module Popcorn_os = Stramash_popcorn.Popcorn_os
module Msg_layer = Stramash_popcorn.Msg_layer
module Stramash_os = Stramash_core.Stramash_os
module Plan = Stramash_fault_inject.Plan
module Integrity = Stramash_fault_inject.Integrity
module Quantum = Stramash_sim.Quantum
module Placement = Stramash_placement.Engine

type os_choice =
  | Vanilla
  | Popcorn_shm
  | Popcorn_tcp
  | Stramash_kernel_os
  | Stramash_no_futex_opt

let os_choice_name = function
  | Vanilla -> "vanilla"
  | Popcorn_shm -> "popcorn-shm"
  | Popcorn_tcp -> "popcorn-tcp"
  | Stramash_kernel_os -> "stramash"
  | Stramash_no_futex_opt -> "stramash-nofutexopt"

let all_os_choices = [ Vanilla; Popcorn_tcp; Popcorn_shm; Stramash_kernel_os ]

type config = {
  hw_model : Layout.hw_model;
  os : os_choice;
  cache_config : Cache_config.t option;
  msg_notify : Msg_layer.notify_mode;
  seed : int64;
  inject : Plan.config option;
  cache_mode : Cache_sim.mode;
}

let default_config =
  {
    hw_model = Layout.Shared;
    os = Stramash_kernel_os;
    cache_config = None;
    msg_notify = Msg_layer.Ipi;
    seed = 0xC0FFEEL;
    inject = None;
    cache_mode = Cache_sim.Fast;
  }

type t = {
  cfg : config;
  env : Env.t;
  os : Os.t;
  inject_plan : Plan.t option;
  rng : Rng.t;
  quantum : Quantum.t;
  mutable placement : Placement.t option;
  mutable next_pid : int;
  mutable next_tid : int; (* machine-global: futex queues and the scheduler key on tids *)
  mutable all_threads : Thread.t list;
}

let fresh_tid t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  tid

let create cfg =
  let cache_cfg =
    match cfg.cache_config with
    | Some c -> { c with Cache_config.hw_model = cfg.hw_model }
    | None -> Cache_config.default cfg.hw_model
  in
  let cache = Cache_sim.create cache_cfg in
  Cache_sim.set_mode cache cfg.cache_mode;
  let env = Env.create cache in
  (* The plan's streams derive from a seed decorrelated from — but fully
     determined by — the machine seed, so arming injection never perturbs
     the workload RNG and the whole run stays replayable from cfg. *)
  let inject_plan =
    Option.map (fun pc -> Plan.create ~seed:(Int64.logxor cfg.seed 0x5EEDFA17DEADFA17L) pc)
      cfg.inject
  in
  let inject = inject_plan in
  let os =
    match cfg.os with
    | Vanilla -> Os.Vanilla
    | Popcorn_shm ->
        Os.Popcorn (Popcorn_os.create env Msg_layer.Shm ~notify:cfg.msg_notify ?inject ())
    | Popcorn_tcp -> Os.Popcorn (Popcorn_os.create env Msg_layer.Tcp ?inject ())
    | Stramash_kernel_os -> Os.Stramash (Stramash_os.create ?inject env ())
    | Stramash_no_futex_opt ->
        Os.Stramash (Stramash_os.create ~futex_optimized:false ?inject env ())
  in
  let t =
    {
      cfg;
      env;
      os;
      inject_plan;
      rng = Rng.create ~seed:cfg.seed;
      quantum = Quantum.create ();
      placement = None;
      next_pid = 1;
      next_tid = 0;
      all_threads = [];
    }
  in
  (* The integrity daemon (SDC injector + background page scrubber)
     steps at every scheduling-quantum boundary, before the placement
     tick (hooks fire in registration order). Scan cycles model one
     scrubber thread per kernel working the roster in halves; each
     repair's re-fetch is billed to the node whose frame was healed —
     cross-ISA when the clean copy lives on the peer. Plans without a
     corruption schedule or scrubber register nothing. *)
  (match Option.map Plan.integrity inject_plan with
  | Some (Some st) ->
      Quantum.add t.quantum (fun ~now ->
          let s = Integrity.tick st env.Env.phys ~now in
          let scan = s.Integrity.ts_scanned * Integrity.scan_cost_cycles in
          if scan > 0 then begin
            Meter.add (Env.meter env Node_id.X86) ((scan + 1) / 2);
            Meter.add (Env.meter env Node_id.Arm) (scan / 2)
          end;
          List.iter
            (fun (r : Integrity.repair) ->
              Meter.add
                (Env.meter env r.Integrity.rp_dst)
                (if Node_id.equal r.Integrity.rp_src r.Integrity.rp_dst then
                   Integrity.repair_local_cycles
                 else Integrity.repair_cross_cycles))
            s.Integrity.ts_repairs)
  | _ -> ());
  t

let config t = t.cfg
let env t = t.env
let os t = t.os
let inject_plan t = t.inject_plan
let cache t = t.env.Env.cache
let rng t = t.rng
let threads t = t.all_threads
let meter_of t node = Env.meter t.env node
let quantum t = t.quantum
let placement t = t.placement

(* The engine must see every access from the first instruction on, and
   its per-proc state starts at [load] — so attachment is only legal on a
   machine that has loaded nothing yet, and only once. *)
let attach_placement t engine =
  (match t.os with
  | Os.Stramash _ -> ()
  | _ -> invalid_arg "Machine.attach_placement: placement requires the Stramash personality");
  if t.next_pid > 1 then
    invalid_arg "Machine.attach_placement: attach before loading any process";
  (match t.placement with
  | Some _ -> invalid_arg "Machine.attach_placement: already attached"
  | None -> ());
  t.placement <- Some engine;
  Placement.install_write_hook engine;
  Quantum.add t.quantum (fun ~now -> Placement.tick engine ~now)

let reset_meters t = Array.iter Meter.reset t.env.Env.meters

let write_init t ~frame_of ~base (init : Spec.init) ~len =
  let phys = t.env.Env.phys in
  let paddr_of vaddr = frame_of vaddr + Addr.page_offset vaddr in
  match init with
  | Spec.Zeroed -> ()
  | Spec.F64s values ->
      Array.iteri
        (fun i v ->
          let vaddr = base + (8 * i) in
          assert (8 * i < len);
          Phys_mem.host_write_f64 phys (paddr_of vaddr) v)
        values
  | Spec.I64s values ->
      Array.iteri
        (fun i v ->
          let vaddr = base + (8 * i) in
          assert (8 * i < len);
          Phys_mem.host_write_u64 phys (paddr_of vaddr) v)
        values
  | Spec.I32s values ->
      Array.iteri
        (fun i v ->
          let vaddr = base + (4 * i) in
          assert (4 * i < len);
          Phys_mem.write phys (paddr_of vaddr) ~width:4 (Int64.of_int32 v))
        values

let load t (spec : Spec.t) =
  let origin = Node_id.X86 in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let images =
    List.map (fun isa -> (isa, Codegen.lower ~isa spec.Spec.mir)) Node_id.all
  in
  let proc = Process.create ~pid ~origin ~mir:spec.Spec.mir ~images in
  let mm = Env.ensure_mm t.env ~proc ~node:origin in
  (* Load-time page installation: no simulated cost (the paper measures
     post-boot, post-exec behaviour). *)
  let io = Env.silent_io ~owner:origin t.env in
  let eager_map vaddr =
    let frame = Kernel.alloc_frame_exn (Env.kernel t.env origin) in
    Phys_mem.zero_page t.env.Env.phys frame;
    Page_table.map mm.Process.pgtable io ~vaddr:(Addr.page_base vaddr)
      ~frame:(frame lsr Addr.page_shift) Pte.default_flags;
    Os.seed_resident_page t.os ~proc ~vaddr:(Addr.page_base vaddr) ~frame;
    frame
  in
  (* Text segment: sized by the larger of the two encodings. *)
  let code_bytes =
    List.fold_left (fun acc (_, img) -> max acc img.Machine_code.code_bytes) Addr.page_size images
  in
  let code_end = Addr.align_up (Codegen.code_base + code_bytes) ~alignment:Addr.page_size in
  ignore (Vma.add mm.Process.vmas ~start:Codegen.code_base ~end_:code_end Vma.Code ~writable:false);
  let vaddr = ref Codegen.code_base in
  while !vaddr < code_end do
    ignore (eager_map !vaddr);
    vaddr := !vaddr + Addr.page_size
  done;
  (* Stack. *)
  ignore
    (Vma.add mm.Process.vmas ~start:Spec.stack_base ~end_:(Spec.stack_base + Spec.stack_len)
       Vma.Stack ~writable:true);
  (* Data segments. *)
  List.iter
    (fun (seg : Spec.segment) ->
      let seg_end = Addr.align_up (seg.Spec.base + seg.Spec.len) ~alignment:Addr.page_size in
      ignore
        (Vma.add mm.Process.vmas ~start:seg.Spec.base ~end_:seg_end
           (if seg.Spec.writable then Vma.Data else Vma.Data)
           ~writable:seg.Spec.writable);
      if seg.Spec.eager then begin
        let frames = Hashtbl.create 64 in
        let vaddr = ref seg.Spec.base in
        while !vaddr < seg_end do
          Hashtbl.add frames (Addr.page_of !vaddr) (eager_map !vaddr);
          vaddr := !vaddr + Addr.page_size
        done;
        let frame_of vaddr = Hashtbl.find frames (Addr.page_of vaddr) in
        write_init t ~frame_of ~base:seg.Spec.base seg.Spec.init ~len:seg.Spec.len
      end)
    spec.Spec.segments;
  let cpu = Interp.create (Process.image proc origin) in
  let thread = Thread.create ~tid:(fresh_tid t) ~origin ~cpu in
  t.all_threads <- thread :: t.all_threads;
  (match t.placement with Some e -> Placement.register_proc e proc | None -> ());
  (proc, thread)

let exit_process t proc =
  (* Collapse outstanding replicas first so the §6.4 exit sweep sees the
     mappings and allocator state it expects. *)
  (match t.placement with Some e -> Placement.drain e ~proc | None -> ());
  Os.exit_process t.os ~env:t.env ~proc

let used_frames t node =
  Stramash_kernel.Frame_alloc.used_frames (Env.kernel t.env node).Kernel.frames

let read_user t ~proc ~node ~vaddr ~width =
  match Process.mm proc node with
  | None -> None
  | Some mm -> (
      match Page_table.walk mm.Process.pgtable (Env.silent_io t.env) ~vaddr with
      | None -> None
      | Some (frame, _) ->
          let paddr = (frame lsl Addr.page_shift) + Addr.page_offset vaddr in
          Some (Phys_mem.read t.env.Env.phys paddr ~width))

let read_user_f64 t ~proc ~node ~vaddr =
  Option.map Int64.float_of_bits (read_user t ~proc ~node ~vaddr ~width:8)

let spawn_thread t proc ~at_point ~node =
  ignore (Env.ensure_mm t.env ~proc ~node);
  let image = Process.image proc node in
  let cpu = Interp.create image in
  ignore (Process.fresh_tid proc);
  let tid = fresh_tid t in
  Interp.set_pc cpu (Machine_code.find_migrate_pc image at_point + 1);
  Interp.set_reg cpu 0 (Int64.of_int tid);
  let thread = Thread.create ~tid ~origin:proc.Process.origin ~cpu in
  thread.Thread.node <- node;
  t.all_threads <- thread :: t.all_threads;
  thread
