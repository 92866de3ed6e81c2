module Node_id = Stramash_sim.Node_id
module Cycles = Stramash_sim.Cycles
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Phys_mem = Stramash_mem.Phys_mem
module Cache_config = Stramash_cache.Config
module Cxl = Stramash_cache.Cxl
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Kheap = Stramash_kernel.Kheap
module Msg_layer = Stramash_popcorn.Msg_layer
module Stramash_os = Stramash_core.Stramash_os
module Stramash_fault = Stramash_core.Stramash_fault
module Data_packing = Stramash_core.Data_packing
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Os = Stramash_machine.Os
module W = Stramash_workloads

let is_spec () = W.Npb_is.spec ~params:{ W.Npb_is.nkeys = 16384; max_key = 1024; iterations = 2 } ()

let run ?cache_config ?(msg_notify = Msg_layer.Ipi) ~os spec =
  let machine =
    Machine.create { Machine.default_config with os; cache_config; msg_notify }
  in
  let proc, thread = Machine.load machine spec in
  (machine, Runner.run machine proc thread spec)

(* ---------- CXL snoop-cost sensitivity ---------- *)

let cxl_sweep fmt =
  let r =
    Report.create ~title:"Ablation: CXL snoop-overhead sensitivity (IS, Stramash, Shared)"
      ~note:"the fused kernel's coherence traffic is priced by the CXL model; zeroing it bounds \
             how much of Stramash's remaining cost is snoop overhead"
      ~columns:[ "snoop costs"; "wall (ms)"; "vs default" ]
  in
  let base = Cache_config.default Layout.Shared in
  let configs =
    [
      ("zero", { base with Cache_config.cxl = Cxl.zero });
      ("default", base);
      ( "3x",
        {
          base with
          Cache_config.cxl =
            {
              Cxl.snoop_data = 3 * Cxl.default.Cxl.snoop_data;
              snoop_invalidate = 3 * Cxl.default.Cxl.snoop_invalidate;
              back_invalidate = 3 * Cxl.default.Cxl.back_invalidate;
              atomic_extra = Cxl.default.Cxl.atomic_extra;
            };
        } );
    ]
  in
  let default_wall = ref 0 in
  List.iter
    (fun (label, cache_config) ->
      let _, result = run ~cache_config ~os:Machine.Stramash_kernel_os (is_spec ()) in
      if label = "default" then default_wall := result.Runner.wall_cycles;
      Report.add_row r
        [
          label;
          Report.cell_f (Cycles.to_ms result.Runner.wall_cycles);
          (if !default_wall = 0 then "-"
           else Report.cell_x (float_of_int result.Runner.wall_cycles /. float_of_int !default_wall));
        ])
    configs;
  Report.print fmt r

(* ---------- IPI vs polling notification ---------- *)

let notify_mode fmt =
  let r =
    Report.create ~title:"Ablation: SHM messaging notification (Popcorn, IS)"
      ~note:"polling trades the 2us IPI for a short poll delay plus receiver busy-work (§6.2)"
      ~columns:[ "notification"; "wall (ms)"; "messages" ]
  in
  List.iter
    (fun (label, msg_notify) ->
      let _, result = run ~msg_notify ~os:Machine.Popcorn_shm (is_spec ()) in
      Report.add_row r
        [
          label;
          Report.cell_f (Cycles.to_ms result.Runner.wall_cycles);
          string_of_int result.Runner.messages;
        ])
    [ ("IPI (2us)", Msg_layer.Ipi); ("polling", Msg_layer.Polling) ];
  Report.print fmt r

(* ---------- fused fast-path vs origin fallback ---------- *)

let fallback_stats fmt =
  let r =
    Report.create ~title:"Ablation: Stramash fault-path breakdown"
      ~note:"remote walks resolve either to a shared-frame mapping (fast path) or fall back to \
             the origin kernel when upper page-table levels are missing (§9.2.3)"
      ~columns:[ "bench"; "remote walks"; "shared mappings"; "fallback pages"; "PTL acq (remote)" ]
  in
  List.iter
    (fun (name, spec) ->
      let machine, _result = run ~os:Machine.Stramash_kernel_os spec in
      match Machine.os machine with
      | Os.Stramash s ->
          let faults = Stramash_os.faults s in
          let ptl_remote =
            (* aggregated over processes; one process per run here *)
            Stramash_fault.remote_walks faults
          in
          ignore ptl_remote;
          Report.add_row r
            [
              name;
              string_of_int (Stramash_fault.remote_walks faults);
              string_of_int (Stramash_fault.shared_mappings faults);
              string_of_int (Stramash_fault.fallback_pages faults);
              "-";
            ]
      | Os.Vanilla | Os.Popcorn _ -> assert false)
    [
      ("is", is_spec ());
      ("cg", W.Npb_cg.spec ~params:{ W.Npb_cg.n = 4096; row_nnz = 8; iterations = 3 } ());
      ("ft", W.Npb_ft.spec ~params:{ W.Npb_ft.n = 8; iterations = 3 } ());
    ];
  Report.print fmt r

(* ---------- secure data packing ---------- *)

let data_packing fmt =
  let env = Env.create (Stramash_cache.Cache_sim.create (Cache_config.default Layout.Shared)) in
  let phys = env.Env.phys in
  let packer = Data_packing.create env ~owner:Node_id.X86 ~window_bytes:(16 * Addr.page_size) in
  (* simulate packing a process's shareable kernel objects: VMA structs,
     the PTL word, futex buckets *)
  let kernel = Env.kernel env Node_id.X86 in
  let scattered =
    List.init 48 (fun i ->
        let a = Kheap.alloc_line kernel.Kernel.kheap in
        Phys_mem.write_u64 phys a (Int64.of_int (i * 1000));
        a)
  in
  let packed =
    List.filter_map
      (fun src ->
        match Data_packing.pack packer ~src ~bytes:64 with Ok a -> Some a | Error _ -> None)
      scattered
  in
  let allowed = List.for_all (fun a -> Data_packing.remote_access_allowed packer ~paddr:a) packed in
  let denied =
    List.for_all
      (fun src ->
        Data_packing.check_remote_access packer ~actor:Node_id.Arm ~paddr:src
        = Error `Protection_violation)
      scattered
  in
  let r =
    Report.create ~title:"Ablation: secure kernel-data packing (§5)"
      ~note:"shared structures packed into one contiguous window; everything else is denied to \
             the remote kernel by the MPU-style check"
      ~columns:[ "metric"; "value" ]
  in
  Report.add_row r [ "objects packed"; string_of_int (Data_packing.objects_packed packer) ];
  Report.add_row r [ "window footprint"; Printf.sprintf "%d bytes" (Data_packing.packed_bytes packer) ];
  Report.add_row r
    [ "window region"; Format.asprintf "%a" Layout.pp_region (Data_packing.window packer) ];
  Report.add_row r [ "packed addresses remotely accessible"; string_of_bool allowed ];
  Report.add_row r [ "unpacked originals denied"; string_of_bool denied ];
  Report.add_row r [ "violations recorded"; string_of_int (Data_packing.violations packer) ];
  Report.print fmt r
