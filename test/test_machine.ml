(* Tests for the machine facade and runner: loading, execution, migration,
   fault handling, phase marks, and cross-OS result equality. *)

module Node_id = Stramash_sim.Node_id
module Cycles = Stramash_sim.Cycles
module Mir = Stramash_isa.Mir
module B = Stramash_isa.Builder
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Spec = Stramash_machine.Spec
module Thread = Stramash_kernel.Thread
module Env = Stramash_kernel.Env
module Page_table = Stramash_kernel.Page_table
module Process = Stramash_kernel.Process
module Pte = Stramash_kernel.Pte
module Tlb = Stramash_kernel.Tlb
module Cache_sim = Stramash_cache.Cache_sim
module Mmu = Stramash_machine.Mmu
module Os = Stramash_machine.Os
module Stramash_os = Stramash_core.Stramash_os
module Stramash_fault = Stramash_core.Stramash_fault
module Fault = Stramash_fault_inject.Fault

let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

let data_base = Spec.heap_base
let out_slot elems = data_base + (8 * elems) (* first slot after the data *)

(* sum the data array, with an optional migration round trip in between *)
let sum_spec ?(migrate = true) ~elems () =
  let b = B.create () in
  let base = B.immi b data_base in
  let acc = B.immi b 0 in
  B.for_up_const b ~lo:0 ~hi:elems (fun i ->
      let v = B.load b Mir.W64 (Mir.indexed base i ~scale:8) in
      B.add_to b acc acc v);
  if migrate then B.migrate_point b 0;
  B.for_up_const b ~lo:0 ~hi:elems (fun i ->
      let v = B.load b Mir.W64 (Mir.indexed base i ~scale:8) in
      B.add_to b acc acc v);
  if migrate then B.migrate_point b 1;
  let out = B.immi b (out_slot elems) in
  B.store b Mir.W64 acc (Mir.based out);
  {
    Spec.name = "sum";
    description = "test sum";
    mir = B.finish b;
    segments =
      [
        Spec.segment ~base:data_base ~len:(8 * (elems + 16))
          ~init:(Spec.I64s (Array.init elems (fun i -> Int64.of_int (i + 1))))
          ();
      ];
    migration_targets = (if migrate then [ (0, Node_id.Arm); (1, Node_id.X86) ] else []);
  }

let expected elems = Int64.of_int (elems * (elems + 1))

let run_os ?(elems = 512) os =
  let spec = sum_spec ~elems () in
  let machine = Machine.create { Machine.default_config with os } in
  let proc, thread = Machine.load machine spec in
  let result = Runner.run machine proc thread spec in
  (machine, proc, thread, result)

let test_all_oses_compute_same_result () =
  List.iter
    (fun os ->
      let machine, proc, _, _ = run_os os in
      match Machine.read_user machine ~proc ~node:Node_id.X86 ~vaddr:(out_slot 512) ~width:8 with
      | Some got -> check64 (Machine.os_choice_name os) (expected 512) got
      | None -> Alcotest.fail "result unmapped")
    Machine.all_os_choices

let test_migration_happens () =
  let _, _, thread, result = run_os Machine.Stramash_kernel_os in
  checki "two migrations" 2 result.Runner.migrations;
  checki "thread migration count" 2 thread.Thread.migrations;
  Alcotest.(check bool) "thread back home" true (Node_id.equal thread.Thread.node Node_id.X86);
  Alcotest.(check bool) "work happened on both nodes" true
    (result.Runner.node_icounts.(0) > 0 && result.Runner.node_icounts.(1) > 0)

let test_vanilla_ignores_migration_points () =
  let _, _, thread, result = run_os Machine.Vanilla in
  checki "no migrations" 0 result.Runner.migrations;
  Alcotest.(check bool) "stays at origin" true (Node_id.equal thread.Thread.node Node_id.X86);
  checki "no arm instructions" 0 result.Runner.node_icounts.(1)

let test_phase_marks_recorded () =
  let _, _, _, result = run_os Machine.Popcorn_shm in
  Alcotest.(check bool) "marks for both points" true
    (List.mem_assoc 0 result.Runner.phase_marks && List.mem_assoc 1 result.Runner.phase_marks);
  Alcotest.(check bool) "span positive" true (Runner.phase_span result ~start:0 ~stop:1 > 0)

let test_clock_sync_on_migration () =
  let _, _, _, result = run_os Machine.Popcorn_shm in
  (* after a round trip the wall clock is the max of the node meters *)
  Alcotest.(check bool) "wall = max node cycles" true
    (result.Runner.wall_cycles = max result.Runner.node_cycles.(0) result.Runner.node_cycles.(1))

let test_ordering_of_oses () =
  let wall os =
    let _, _, _, r = run_os ~elems:4096 os in
    r.Runner.wall_cycles
  in
  let vanilla = wall Machine.Vanilla in
  let stramash = wall Machine.Stramash_kernel_os in
  let shm = wall Machine.Popcorn_shm in
  let tcp = wall Machine.Popcorn_tcp in
  Alcotest.(check bool) "vanilla fastest" true (vanilla < stramash);
  Alcotest.(check bool) "stramash beats popcorn-shm" true (stramash < shm);
  Alcotest.(check bool) "shm beats tcp" true (shm < tcp)

(* a store of 123 into a lazily mapped data page *)
let lazy_spec () =
  let b = B.create () in
  let base = B.immi b data_base in
  let v = B.immi b 123 in
  B.store b Mir.W64 v (Mir.based base);
  {
    Spec.name = "lazy";
    description = "";
    mir = B.finish b;
    segments = [ Spec.segment ~base:data_base ~len:4096 ~eager:false () ];
    migration_targets = [];
  }

let test_lazy_segments_fault_in () =
  (* a lazy segment is unmapped until written *)
  let spec = lazy_spec () in
  let machine = Machine.create { Machine.default_config with os = Machine.Vanilla } in
  let proc, thread = Machine.load machine spec in
  Alcotest.(check (option int64)) "unmapped before run" None
    (Machine.read_user machine ~proc ~node:Node_id.X86 ~vaddr:data_base ~width:8);
  ignore (Runner.run machine proc thread spec);
  Alcotest.(check (option int64)) "mapped and written after" (Some 123L)
    (Machine.read_user machine ~proc ~node:Node_id.X86 ~vaddr:data_base ~width:8)

let segv_vaddr = 0xDEAD000

let segv_spec () =
  let b = B.create () in
  let bad = B.immi b segv_vaddr in
  ignore (B.load b Mir.W64 (Mir.based bad));
  { Spec.name = "segv"; description = ""; mir = B.finish b; segments = []; migration_targets = [] }

(* The run surfaces the typed error, and it is exactly the error the
   user-access path raises for the same address. *)
let test_segfault_detected () =
  let fault_of f = match f () with exception Fault.Error e -> Some e | _ -> None in
  List.iter
    (fun os ->
      let load () =
        let machine = Machine.create { Machine.default_config with os } in
        let proc, thread = Machine.load machine (segv_spec ()) in
        (machine, proc, thread)
      in
      let machine, proc, thread = load () in
      let via_runner = fault_of (fun () -> Runner.run machine proc thread (segv_spec ())) in
      let machine, proc, _ = load () in
      let mmu = Mmu.create machine proc ~node:Node_id.X86 in
      let via_mmu = fault_of (fun () -> Mmu.access mmu Cache_sim.Load ~vaddr:segv_vaddr) in
      (match via_runner with
      | Some (Fault.Segfault _) -> ()
      | _ -> Alcotest.fail "segfault not raised as the typed error");
      Alcotest.(check bool) (Machine.os_choice_name os ^ ": Mmu.access raises it too") true
        (via_runner = via_mmu))
    [ Machine.Vanilla; Machine.Stramash_kernel_os ]

(* Under Stramash the first touch from the non-origin node takes one
   fused remote fault; the retry installs the translation, so the next
   access to the page is a plain TLB hit. *)
let test_mmu_remote_fault_then_tlb_hit () =
  let machine = Machine.create { Machine.default_config with os = Machine.Stramash_kernel_os } in
  let proc, _ = Machine.load machine (lazy_spec ()) in
  let faults =
    match Machine.os machine with
    | Os.Stramash s -> Stramash_os.faults s
    | Os.Vanilla | Os.Popcorn _ -> Alcotest.fail "not the Stramash personality"
  in
  let tlb = Env.tlb (Machine.env machine) Node_id.Arm in
  let mmu = Mmu.create machine proc ~node:Node_id.Arm in
  ignore (Mmu.access mmu Cache_sim.Load ~vaddr:data_base);
  checki "first access faults once" 1 (Stramash_fault.remote_walks faults);
  let hits = Tlb.hits tlb and misses = Tlb.misses tlb in
  ignore (Mmu.access mmu Cache_sim.Store ~vaddr:(data_base + 64));
  checki "no second fault" 1 (Stramash_fault.remote_walks faults);
  checki "second access hits the TLB" (hits + 1) (Tlb.hits tlb);
  checki "and does not miss" misses (Tlb.misses tlb)

(* ---------- zero allocation on the translation path ---------- *)

(* Four times the TLB's 64 entries of eagerly mapped pages: a round-robin
   sweep over them misses the direct-mapped TLB on every access. *)
let swept_pages = 256

let swept_spec () =
  {
    Spec.name = "swept";
    description = "";
    mir = B.finish (B.create ());
    segments = [ Spec.segment ~base:data_base ~len:(swept_pages * 4096) () ];
    migration_targets = [];
  }

let load_swept () =
  let machine = Machine.create { Machine.default_config with os = Machine.Stramash_kernel_os } in
  let proc, _ = Machine.load machine (swept_spec ()) in
  (machine, proc)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

(* A charged walk returns the leaf as an immediate int: after warm-up,
   walks that find a leaf, miss a leaf and miss a whole directory chain
   allocate nothing at all. *)
let test_walk_allocates_nothing () =
  let machine, proc = load_swept () in
  let pgtable = (Process.mm_exn proc Node_id.X86).Process.pgtable in
  let io = Env.pt_io (Machine.env machine) ~actor:Node_id.X86 ~owner:Node_id.X86 in
  let vaddrs =
    Array.init (3 * swept_pages) (fun i ->
        match i / swept_pages with
        | 0 -> data_base + (i * 4096) (* mapped *)
        | 1 -> data_base + (i * 4096) (* past the segment: no leaf *)
        | _ -> (1 lsl 40) + (i * 4096) (* no directories *))
  in
  let present = ref 0 in
  let walk_all () =
    for i = 0 to Array.length vaddrs - 1 do
      if Pte.present (Page_table.walk pgtable io ~vaddr:vaddrs.(i)) then incr present
    done
  in
  walk_all ();
  let words = minor_words walk_all in
  checki "mapped pages found twice" (2 * swept_pages) !present;
  checki (Printf.sprintf "minor words over %d walks" (Array.length vaddrs)) 0 words

(* A TLB miss on a mapped page walks the table and inserts the entry;
   the 3-word [Tlb.entry] record is the only allocation left. *)
let test_tlb_miss_allocates_entry_only () =
  let machine, proc = load_swept () in
  let tlb = Env.tlb (Machine.env machine) Node_id.X86 in
  let mmu = Mmu.create machine proc ~node:Node_id.X86 in
  let sweep () =
    for i = 0 to swept_pages - 1 do
      ignore (Mmu.access mmu Cache_sim.Load ~vaddr:(data_base + (i * 4096)))
    done
  in
  sweep ();
  let misses = Tlb.misses tlb in
  let words = minor_words sweep in
  let misses = Tlb.misses tlb - misses in
  checki "every access misses the TLB" swept_pages misses;
  Alcotest.(check bool)
    (Printf.sprintf "%d minor words over %d misses" words misses)
    true
    (words <= 3 * misses)

let test_spawn_thread_entry () =
  let b = B.create () in
  (* main: store 1 then halt *)
  let base = B.immi b data_base in
  let one = B.immi b 1 in
  B.store b Mir.W64 one (Mir.based base);
  B.halt b;
  (* second thread entry: store 2 at +8 *)
  B.migrate_point b 50;
  let base2 = B.immi b data_base in
  let two = B.immi b 2 in
  B.store b Mir.W64 two (Mir.based_disp base2 8);
  let spec =
    {
      Spec.name = "spawn";
      description = "";
      mir = B.finish b;
      segments = [ Spec.segment ~base:data_base ~len:4096 () ];
      migration_targets = [];
    }
  in
  let machine = Machine.create { Machine.default_config with os = Machine.Stramash_kernel_os } in
  let proc, t1 = Machine.load machine spec in
  let t2 = Machine.spawn_thread machine proc ~at_point:50 ~node:Node_id.Arm in
  ignore (Runner.run_threads machine proc [ t1; t2 ] spec);
  Alcotest.(check (option int64)) "main wrote" (Some 1L)
    (Machine.read_user machine ~proc ~node:Node_id.X86 ~vaddr:data_base ~width:8);
  Alcotest.(check (option int64)) "spawned thread wrote" (Some 2L)
    (Machine.read_user machine ~proc ~node:Node_id.Arm ~vaddr:(data_base + 8) ~width:8)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_pp_result_renders () =
  let _, _, _, result = run_os Machine.Stramash_kernel_os in
  let s = Format.asprintf "%a" Runner.pp_result result in
  Alcotest.(check bool) "artifact-style dump mentions hit rates" true
    (contains_substring s "L1 Cache Hit Rate");
  Alcotest.(check bool) "mentions remote memory hits" true
    (contains_substring s "Remote Memory Hits")

(* ---------- multiple processes ---------- *)

let test_two_processes_isolated () =
  List.iter
    (fun os ->
      let machine = Machine.create { Machine.default_config with os } in
      let spec_a = sum_spec ~elems:512 () in
      let spec_b = sum_spec ~elems:256 () in
      let proc_a, th_a = Machine.load machine spec_a in
      let proc_b, th_b = Machine.load machine spec_b in
      ignore (Runner.run_workloads machine [ (spec_a, proc_a, th_a); (spec_b, proc_b, th_b) ]);
      (* overlapping virtual layouts, separate address spaces *)
      (match Machine.read_user machine ~proc:proc_a ~node:Node_id.X86 ~vaddr:(out_slot 512) ~width:8 with
      | Some got -> check64 (Machine.os_choice_name os ^ " proc A") (expected 512) got
      | None -> Alcotest.fail "proc A unmapped");
      match Machine.read_user machine ~proc:proc_b ~node:Node_id.X86 ~vaddr:(out_slot 256) ~width:8 with
      | Some got -> check64 (Machine.os_choice_name os ^ " proc B") (expected 256) got
      | None -> Alcotest.fail "proc B unmapped")
    [ Machine.Vanilla; Machine.Popcorn_shm; Machine.Stramash_kernel_os ]

let test_tids_are_global () =
  let machine = Machine.create Machine.default_config in
  let spec = sum_spec ~elems:64 () in
  let _, th_a = Machine.load machine spec in
  let _, th_b = Machine.load machine spec in
  Alcotest.(check bool) "distinct tids across processes" true
    (th_a.Thread.tid <> th_b.Thread.tid)

(* ---------- process exit & memory recycling (paper §6.4) ---------- *)

let test_exit_recycles_memory () =
  List.iter
    (fun os ->
      let machine = Machine.create { Machine.default_config with os } in
      let spec = sum_spec ~elems:2048 () in
      let before = (Machine.used_frames machine Node_id.X86, Machine.used_frames machine Node_id.Arm) in
      let proc, thread = Machine.load machine spec in
      ignore (Runner.run machine proc thread spec);
      let running = (Machine.used_frames machine Node_id.X86, Machine.used_frames machine Node_id.Arm) in
      Alcotest.(check bool)
        (Machine.os_choice_name os ^ ": pages were allocated")
        true
        (fst running > fst before);
      Machine.exit_process machine proc;
      let after_x86 = Machine.used_frames machine Node_id.X86 in
      let after_arm = Machine.used_frames machine Node_id.Arm in
      (* user pages are gone; only page-table pages and kernel-heap pages
         remain (never recycled, as noted in DESIGN.md) *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: x86 frames recycled (%d -> %d)" (Machine.os_choice_name os)
           (fst running) after_x86)
        true
        (after_x86 < fst running);
      Alcotest.(check bool)
        (Machine.os_choice_name os ^ ": no unmapped leak on arm")
        true
        (after_arm <= snd running))
    [ Machine.Vanilla; Machine.Popcorn_shm; Machine.Stramash_kernel_os ]

let test_exit_frees_remote_owned_pages_at_remote () =
  (* Under Stramash, pages the remote kernel allocated must be freed by
     the remote kernel, not the origin (§6.4). *)
  let machine = Machine.create { Machine.default_config with os = Machine.Stramash_kernel_os } in
  let spec = sum_spec ~elems:2048 () in
  let proc, thread = Machine.load machine spec in
  ignore (Runner.run machine proc thread spec);
  let arm_running = Machine.used_frames machine Node_id.Arm in
  Machine.exit_process machine proc;
  Alcotest.(check bool) "arm released its allocations" true
    (Machine.used_frames machine Node_id.Arm <= arm_running)

let () =
  Alcotest.run "machine"
    [
      ( "execution",
        [
          Alcotest.test_case "cross-OS result equality" `Quick test_all_oses_compute_same_result;
          Alcotest.test_case "migration happens" `Quick test_migration_happens;
          Alcotest.test_case "vanilla ignores points" `Quick test_vanilla_ignores_migration_points;
          Alcotest.test_case "phase marks" `Quick test_phase_marks_recorded;
          Alcotest.test_case "clock sync" `Quick test_clock_sync_on_migration;
          Alcotest.test_case "OS cost ordering" `Slow test_ordering_of_oses;
        ] );
      ( "memory",
        [
          Alcotest.test_case "lazy segments" `Quick test_lazy_segments_fault_in;
          Alcotest.test_case "segfault" `Quick test_segfault_detected;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "remote fault then TLB hit" `Quick test_mmu_remote_fault_then_tlb_hit;
          Alcotest.test_case "walk allocates nothing" `Quick test_walk_allocates_nothing;
          Alcotest.test_case "TLB miss allocates the entry only" `Quick
            test_tlb_miss_allocates_entry_only;
        ] );
      ( "threads",
        [ Alcotest.test_case "spawn entry" `Quick test_spawn_thread_entry ] );
      ( "multiprocess",
        [
          Alcotest.test_case "isolation" `Quick test_two_processes_isolated;
          Alcotest.test_case "global tids" `Quick test_tids_are_global;
        ] );
      ( "exit",
        [
          Alcotest.test_case "recycles memory" `Quick test_exit_recycles_memory;
          Alcotest.test_case "remote frees its pages" `Quick
            test_exit_frees_remote_owned_pages_at_remote;
        ] );
      ("report", [ Alcotest.test_case "pp_result" `Quick test_pp_result_renders ]);
    ]
