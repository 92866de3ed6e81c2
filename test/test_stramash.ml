(* Tests for the fused-kernel (Stramash) personality: fused VAS, remote
   walkers, PTL, fault handler, global allocator, fused namespaces. *)

module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Rng = Stramash_sim.Rng
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Cache_config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Vma = Stramash_kernel.Vma
module Process = Stramash_kernel.Process
module Page_table = Stramash_kernel.Page_table
module Pte = Stramash_kernel.Pte
module Frame_alloc = Stramash_kernel.Frame_alloc
module Msg_layer = Stramash_popcorn.Msg_layer
module Fused_vas = Stramash_core.Fused_vas
module Remote_walker = Stramash_core.Remote_walker
module Stramash_ptl = Stramash_core.Stramash_ptl
module Stramash_fault = Stramash_core.Stramash_fault
module Global_alloc = Stramash_core.Global_alloc
module Fused_namespace = Stramash_core.Fused_namespace
module B = Stramash_isa.Builder
module Codegen = Stramash_isa.Codegen

let checki = Alcotest.(check int)
let x86 = Node_id.X86
let arm = Node_id.Arm

let make_env ?(hw = Layout.Shared) () = Env.create (Cache_sim.create (Cache_config.default hw))

let trivial_mir () =
  let b = B.create () in
  ignore (B.immi b 0);
  B.finish b

let make_setup () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  let faults = Stramash_fault.create env msg in
  let mir = trivial_mir () in
  let images = List.map (fun isa -> (isa, Codegen.lower ~isa mir)) Node_id.all in
  let proc = Process.create ~pid:1 ~origin:x86 ~mir ~images in
  let mm = Env.ensure_mm env ~proc ~node:x86 in
  ignore (Vma.add mm.Process.vmas ~start:0x10000000 ~end_:0x10100000 Vma.Anon ~writable:true);
  (env, msg, faults, proc)

let vaddr0 = 0x10000000

let silent_walk env proc node vaddr =
  let mm = Process.mm_exn proc node in
  Page_table.walk mm.Process.pgtable (Env.silent_io env) ~vaddr

(* ---------- Fused VAS ---------- *)

let test_fused_vas_roundtrip () =
  let p = Addr.gib 3 in
  let v = Fused_vas.kernel_vaddr_of_paddr p in
  Alcotest.(check bool) "fused pointer" true (Fused_vas.is_fused_pointer v);
  checki "roundtrip" p (Fused_vas.paddr_of_kernel_vaddr v);
  Alcotest.(check bool) "user pointer is not fused" false (Fused_vas.is_fused_pointer 0x1000)

(* ---------- PTL ---------- *)

let test_ptl_charges_and_counts () =
  let env = make_env () in
  let kernel = Env.kernel env x86 in
  let lock_addr = Stramash_kernel.Kheap.alloc_line kernel.Kernel.kheap in
  let ptl = Stramash_ptl.create env ~lock_addr in
  let r = Stramash_ptl.with_lock ptl ~actor:arm (fun () -> 42) in
  checki "returns body result" 42 r;
  checki "one acquisition" 1 (Stramash_ptl.acquisitions ptl);
  checki "remote acquisition counted" 1 (Stramash_ptl.remote_acquisitions ptl);
  Alcotest.(check bool) "arm paid for the CAS" true (Meter.get (Env.meter env arm) > 0)

let test_ptl_releases_on_exception () =
  let env = make_env () in
  let kernel = Env.kernel env x86 in
  let ptl = Stramash_ptl.create env ~lock_addr:(Stramash_kernel.Kheap.alloc_line kernel.Kernel.kheap) in
  (try Stramash_ptl.with_lock ptl ~actor:x86 (fun () -> failwith "boom") with Failure _ -> ());
  (* must be reacquirable *)
  checki "lock released" 2
    (Stramash_ptl.with_lock ptl ~actor:x86 (fun () -> Stramash_ptl.acquisitions ptl))

(* ---------- Remote walker ---------- *)

let test_remote_walk_decodes_other_format () =
  let env, _msg, faults, proc = make_setup () in
  Stramash_fault.handle_fault_exn faults ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  let omm = Process.mm_exn proc x86 in
  match Remote_walker.walk env ~actor:arm ~owner_mm:omm ~vaddr:vaddr0 with
  | Some (frame, flags) ->
      Alcotest.(check bool) "decoded frame points into x86 memory" true
        (Layout.region_contains Layout.x86_private (frame lsl Addr.page_shift));
      Alcotest.(check bool) "flags decoded" true flags.Pte.writable
  | None -> Alcotest.fail "remote walk failed"

let test_remote_walk_charges_actor () =
  let env, _msg, faults, proc = make_setup () in
  Stramash_fault.handle_fault_exn faults ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  let omm = Process.mm_exn proc x86 in
  let before = Meter.get (Env.meter env arm) in
  ignore (Remote_walker.walk env ~actor:arm ~owner_mm:omm ~vaddr:vaddr0);
  Alcotest.(check bool) "actor pays for the walk" true (Meter.get (Env.meter env arm) > before)

let test_install_leaf_requires_uppers () =
  let env, _msg, faults, proc = make_setup () in
  let omm = Process.mm_exn proc x86 in
  Alcotest.(check bool) "no uppers yet" false
    (Remote_walker.install_leaf env ~actor:arm ~owner_mm:omm ~vaddr:vaddr0 ~frame:7
       ~remote_owned:true ());
  Stramash_fault.handle_fault_exn faults ~proc ~node:x86 ~vaddr:(vaddr0 + 8192) ~write:true;
  Alcotest.(check bool) "uppers created by neighbour fault" true
    (Remote_walker.install_leaf env ~actor:arm ~owner_mm:omm ~vaddr:vaddr0 ~frame:7
       ~remote_owned:true ());
  match silent_walk env proc x86 vaddr0 with
  | Some (7, flags) -> Alcotest.(check bool) "remote_owned set" true flags.Pte.remote_owned
  | _ -> Alcotest.fail "leaf not installed in origin format"

(* ---------- Stramash fault handler ---------- *)

let test_shared_frame_no_replication () =
  let env, msg, faults, proc = make_setup () in
  Stramash_fault.handle_fault_exn faults ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  let x86_frame = match silent_walk env proc x86 vaddr0 with Some (f, _) -> f | None -> -1 in
  ignore (Env.ensure_mm env ~proc ~node:arm);
  Stramash_fault.handle_fault_exn faults ~proc ~node:arm ~vaddr:vaddr0 ~write:false;
  let arm_frame = match silent_walk env proc arm vaddr0 with Some (f, _) -> f | None -> -2 in
  checki "both kernels map the same frame" x86_frame arm_frame;
  checki "no fallback pages" 0 (Stramash_fault.fallback_pages faults);
  checki "one shared mapping" 1 (Stramash_fault.shared_mappings faults);
  checki "no messages for the fast path" 0 (Msg_layer.message_count msg)

let test_remote_anon_alloc_is_local_and_installed_in_origin () =
  let env, msg, faults, proc = make_setup () in
  (* Fault a neighbouring page at the origin first so the leaf table exists. *)
  Stramash_fault.handle_fault_exn faults ~proc ~node:x86 ~vaddr:(vaddr0 + 4096) ~write:true;
  ignore (Env.ensure_mm env ~proc ~node:arm);
  Stramash_fault.handle_fault_exn faults ~proc ~node:arm ~vaddr:vaddr0 ~write:true;
  (match silent_walk env proc arm vaddr0 with
  | Some (frame, _) ->
      Alcotest.(check bool) "frame is arm-local" true
        (Layout.region_contains Layout.arm_private (frame lsl Addr.page_shift))
  | None -> Alcotest.fail "arm mapping missing");
  (match silent_walk env proc x86 vaddr0 with
  | Some (_, flags) -> Alcotest.(check bool) "origin PTE marked remote-owned" true flags.Pte.remote_owned
  | None -> Alcotest.fail "origin PTE missing");
  checki "no messages on the PTE fast path" 0 (Msg_layer.message_count msg)

let test_fallback_when_uppers_missing () =
  let env, msg, faults, proc = make_setup () in
  ignore (Env.ensure_mm env ~proc ~node:arm);
  (* First remote touch of a fresh region: the origin's table lacks the
     directories, so the origin kernel handles the fault (one message
     round) and the page lands in origin memory. *)
  Stramash_fault.handle_fault_exn faults ~proc ~node:arm ~vaddr:vaddr0 ~write:true;
  checki "fallback counted" 1 (Stramash_fault.fallback_pages faults);
  checki "one message round" 2 (Msg_layer.message_count msg);
  (match silent_walk env proc arm vaddr0 with
  | Some (frame, _) ->
      Alcotest.(check bool) "page allocated by the origin" true
        (Layout.region_contains Layout.x86_private (frame lsl Addr.page_shift))
  | None -> Alcotest.fail "arm mapping missing");
  (* Subsequent faults in the same region take the fast path. *)
  Stramash_fault.handle_fault_exn faults ~proc ~node:arm ~vaddr:(vaddr0 + 4096) ~write:true;
  checki "no further fallback" 1 (Stramash_fault.fallback_pages faults)

let test_remote_vma_walk_no_replica () =
  let env, _msg, faults, proc = make_setup () in
  ignore (Env.ensure_mm env ~proc ~node:arm);
  Stramash_fault.handle_fault_exn faults ~proc ~node:arm ~vaddr:vaddr0 ~write:true;
  let arm_mm = Process.mm_exn proc arm in
  ignore env;
  checki "remote kernel keeps no VMA replicas" 0 (Vma.count arm_mm.Process.vmas)

(* ---------- Global allocator ---------- *)

let test_global_alloc_grant_and_pressure () =
  let env = make_env () in
  let ga = Global_alloc.create env ~block_size:(Addr.mib 16) ~rng:(Rng.create ~seed:3L) () in
  let free0 = Global_alloc.free_blocks ga in
  Alcotest.(check bool) "pool has blocks" true (free0 > 100);
  (match Global_alloc.request_block ga arm with
  | Ok region -> checki "block sized" (Addr.mib 16) (Layout.region_size region)
  | Error `Exhausted -> Alcotest.fail "pool empty?");
  checki "one fewer free" (free0 - 1) (Global_alloc.free_blocks ga);
  checki "arm owns one" 1 (Global_alloc.blocks_owned ga arm);
  Alcotest.(check bool) "online charged" true (Meter.get (Env.meter env arm) > 0);
  (* the kernel can now allocate from the pool block *)
  let kernel = Env.kernel env arm in
  let before = Frame_alloc.total_frames kernel.Kernel.frames in
  Alcotest.(check bool) "frames grew" true (before > Layout.region_size Layout.arm_private / 4096 - 1)

let test_global_alloc_release () =
  let env = make_env () in
  let ga = Global_alloc.create env ~rng:(Rng.create ~seed:3L) () in
  let region = match Global_alloc.request_block ga x86 with Ok r -> r | Error _ -> assert false in
  Alcotest.(check bool) "release ok" true (Global_alloc.release_block ga x86 region = Ok ());
  checki "no longer owned" 0 (Global_alloc.blocks_owned ga x86)

let test_pressure_policy () =
  let env = make_env () in
  let ga = Global_alloc.create env ~rng:(Rng.create ~seed:3L) () in
  Alcotest.(check bool) "no grant below threshold" false (Global_alloc.check_pressure ga x86);
  (* exhaust most of the x86 kernel's private memory *)
  let kernel = Env.kernel env x86 in
  let total = Frame_alloc.total_frames kernel.Kernel.frames in
  for _ = 1 to total * 3 / 4 do
    ignore (Frame_alloc.alloc_exn kernel.Kernel.frames)
  done;
  Alcotest.(check bool) "grant above 70%" true (Global_alloc.check_pressure ga x86);
  checki "block granted" 1 (Global_alloc.blocks_owned ga x86)

(* ---------- Fused namespaces ---------- *)

let test_fused_namespaces () =
  let env = make_env () in
  let ka = Env.kernel env x86 and kb = Env.kernel env arm in
  Alcotest.(check bool) "distinct before fusing" false
    (Fused_namespace.same_environment ka.Kernel.ns kb.Kernel.ns);
  let fused = Fused_namespace.fuse_kernels ka kb in
  Alcotest.(check bool) "fused equals origin view" true
    (Fused_namespace.same_environment ka.Kernel.ns fused)

let () =
  Alcotest.run "stramash"
    [
      ("fused_vas", [ Alcotest.test_case "roundtrip" `Quick test_fused_vas_roundtrip ]);
      ( "ptl",
        [
          Alcotest.test_case "charges and counts" `Quick test_ptl_charges_and_counts;
          Alcotest.test_case "exception safety" `Quick test_ptl_releases_on_exception;
        ] );
      ( "remote_walker",
        [
          Alcotest.test_case "decodes other format" `Quick test_remote_walk_decodes_other_format;
          Alcotest.test_case "charges actor" `Quick test_remote_walk_charges_actor;
          Alcotest.test_case "install leaf needs uppers" `Quick test_install_leaf_requires_uppers;
        ] );
      ( "fault",
        [
          Alcotest.test_case "shared frame, no replication" `Quick test_shared_frame_no_replication;
          Alcotest.test_case "remote anon local alloc" `Quick
            test_remote_anon_alloc_is_local_and_installed_in_origin;
          Alcotest.test_case "origin fallback" `Quick test_fallback_when_uppers_missing;
          Alcotest.test_case "no VMA replicas" `Quick test_remote_vma_walk_no_replica;
        ] );
      ( "global_alloc",
        [
          Alcotest.test_case "grant" `Quick test_global_alloc_grant_and_pressure;
          Alcotest.test_case "release" `Quick test_global_alloc_release;
          Alcotest.test_case "70% policy" `Quick test_pressure_policy;
        ] );
      ("namespaces", [ Alcotest.test_case "fuse" `Quick test_fused_namespaces ]);
    ]
