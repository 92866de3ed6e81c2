(* Tests for the adaptive page-placement subsystem: pure policy
   decisions, hotness bookkeeping, engine determinism (same seed, same
   actions; Paranoid agrees with Fast), the no-cost guarantee of
   Static_stramash, the replicate -> write-collapse -> re-replicate
   bit-identity property, a chaos campaign under Adaptive placement,
   and the Fused_namespace / Data_packing core modules. *)

module Node_id = Stramash_sim.Node_id
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Phys_mem = Stramash_mem.Phys_mem
module Cache_config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Namespace = Stramash_kernel.Namespace
module Fused_namespace = Stramash_core.Fused_namespace
module Data_packing = Stramash_core.Data_packing
module Policy = Stramash_placement.Policy
module Hotness = Stramash_placement.Hotness
module Engine = Stramash_placement.Engine
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Os = Stramash_machine.Os
module Spec = Stramash_machine.Spec
module Mir = Stramash_isa.Mir
module B = Stramash_isa.Builder
module CE = Stramash_harness.Chaos_experiments
module PE = Stramash_harness.Placement_experiments
module Campaign = Stramash_harness.Campaign

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let x86 = Node_id.X86
let arm = Node_id.Arm
let shared = Layout.Shared

(* ---------- Policy.decide: pure decision table ---------- *)

let view ?(home = x86) ?(reads = [| 0; 0 |]) ?(writes = [| 0; 0 |]) ?(remote = [| 0; 0 |])
    ?(gain_per_miss = 100) ?(act_cost = 4_000) ?(payback = 1) ?(min_remote = 4) ?(age = 10)
    ?(warmup = 5) () =
  { Policy.home; reads; writes; remote; gain_per_miss; act_cost; payback; min_remote; age; warmup }

(* home = X86, so the peer (Arm) has node index 1 *)
let hot_remote_reads = [| 0; 200 |]

let test_policy_statics () =
  let v = view ~reads:hot_remote_reads ~remote:hot_remote_reads () in
  checkb "static-stramash never acts" true (Policy.decide Policy.Static_stramash v = Policy.Keep);
  checkb "static-shm replicates on any remote read" true
    (Policy.decide Policy.Static_shm (view ~remote:[| 0; 1 |] ()) = Policy.Replicate arm);
  checkb "static-shm keeps untouched pages" true
    (Policy.decide Policy.Static_shm (view ()) = Policy.Keep)

let test_policy_adaptive_replicate () =
  let v = view ~reads:hot_remote_reads ~remote:hot_remote_reads () in
  checkb "read-hot remote page replicates at the reader" true
    (Policy.decide Policy.Adaptive v = Policy.Replicate arm);
  (* same heat, but the far node also writes: no replica *)
  let v = view ~reads:hot_remote_reads ~remote:hot_remote_reads ~writes:[| 0; 3 |] () in
  checkb "written pages do not replicate" true (Policy.decide Policy.Adaptive v <> Policy.Replicate arm)

let test_policy_adaptive_thresholds () =
  (* below the noise floor *)
  let v = view ~remote:[| 0; 3 |] ~min_remote:4 () in
  checkb "below min_remote keeps" true (Policy.decide Policy.Adaptive v = Policy.Keep);
  (* benefit fails to amortise the act cost *)
  let v = view ~remote:[| 0; 200 |] ~gain_per_miss:10 ~act_cost:1_000_000 () in
  checkb "unamortised cost keeps" true (Policy.decide Policy.Adaptive v = Policy.Keep);
  (* warmup gate: identical heat, young page *)
  let v = view ~reads:hot_remote_reads ~remote:hot_remote_reads ~age:2 ~warmup:5 () in
  checkb "young page keeps during warmup" true (Policy.decide Policy.Adaptive v = Policy.Keep)

let test_policy_adaptive_migrate () =
  (* far node owns the page outright, writes included: home moves *)
  let v =
    view ~reads:[| 0; 100 |] ~writes:[| 0; 50 |] ~remote:[| 0; 150 |] ~act_cost:1_000 ()
  in
  checkb "write-owned remote page migrates" true (Policy.decide Policy.Adaptive v = Policy.Migrate arm);
  (* any home-side activity pins the frame *)
  let v =
    view ~reads:[| 1; 100 |] ~writes:[| 0; 50 |] ~remote:[| 0; 150 |] ~act_cost:1_000 ()
  in
  checkb "home-side reads pin the frame" true (Policy.decide Policy.Adaptive v <> Policy.Migrate arm)

let test_policy_strings () =
  List.iter
    (fun p -> checkb (Policy.to_string p) true (Policy.of_string (Policy.to_string p) = Some p))
    Policy.all;
  checkb "unknown policy rejected" true (Policy.of_string "optimal" = None)

(* ---------- Hotness: counters, born epoch, decay, ordering ---------- *)

let test_hotness_counters () =
  let h = Hotness.create () in
  let va = 0x1000_0000 in
  Hotness.touch h ~pid:1 ~node:arm ~vaddr:(va + 24) ~write:false ~remote:true ~now:3;
  Hotness.touch h ~pid:1 ~node:arm ~vaddr:(va + 48) ~write:false ~remote:true ~now:4;
  Hotness.touch h ~pid:1 ~node:x86 ~vaddr:va ~write:true ~remote:false ~now:5;
  let p = Option.get (Hotness.page_stats h ~pid:1 ~vaddr:va) in
  checki "born at first touch" 3 p.Hotness.born;
  checki "arm reads aggregated per page" 2 p.Hotness.reads.(Node_id.index arm);
  checki "remote accesses counted" 2 p.Hotness.remote.(Node_id.index arm);
  checki "x86 writes counted" 1 p.Hotness.writes.(Node_id.index x86);
  checki "three samples" 3 (Hotness.samples h);
  checki "one page tracked" 1 (Hotness.size h)

let test_hotness_decay () =
  let h = Hotness.create () in
  let va = 0x1000_0000 in
  for _ = 1 to 8 do
    Hotness.touch h ~pid:1 ~node:arm ~vaddr:va ~write:false ~remote:true ~now:0
  done;
  Hotness.decay h;
  let p = Option.get (Hotness.page_stats h ~pid:1 ~vaddr:va) in
  checki "decay halves" 4 p.Hotness.reads.(Node_id.index arm);
  (* age the page to silence: it must drop out of the table *)
  Hotness.decay h;
  Hotness.decay h;
  Hotness.decay h;
  checkb "silent pages dropped" true (Hotness.page_stats h ~pid:1 ~vaddr:va = None)

let test_hotness_sorted () =
  let h = Hotness.create () in
  Hotness.touch h ~pid:2 ~node:arm ~vaddr:0x3000 ~write:false ~remote:true ~now:0;
  Hotness.touch h ~pid:1 ~node:arm ~vaddr:0x2000 ~write:false ~remote:true ~now:0;
  Hotness.touch h ~pid:1 ~node:arm ~vaddr:0x1000 ~write:false ~remote:true ~now:0;
  let keys = List.map fst (Hotness.to_sorted h) in
  checkb "deterministic (pid, page) order" true
    (keys = [ (1, 0x1000); (1, 0x2000); (2, 0x3000) ])

(* ---------- Engine on a real machine ---------- *)

let small_cg = List.assoc "cg" (Stramash_workloads.Npb_suite.fig9_set ~small:true)

let fingerprint (result : Runner.result) engine =
  (result.Runner.wall_cycles, result.Runner.instructions, result.Runner.migrations,
   Engine.counters engine)

let test_determinism_same_seed () =
  let run () =
    let machine, engine, proc, result = PE.run_policy ~policy:Policy.Adaptive small_cg in
    let fp = fingerprint result engine in
    Machine.exit_process machine proc;
    fp
  in
  checkb "same seed, same decisions and wall" true (run () = run ())

let test_paranoid_agrees_with_fast () =
  let run mode =
    let machine, engine, proc, result =
      PE.run_policy ~cache_mode:mode ~policy:Policy.Adaptive small_cg
    in
    let fp = fingerprint result engine in
    Machine.exit_process machine proc;
    fp
  in
  checkb "paranoid engine fingerprint matches fast" true
    (run Cache_sim.Fast = run Cache_sim.Paranoid)

let test_static_stramash_is_free () =
  (* sampling must be cost-free: a Static_stramash engine changes nothing *)
  let with_engine =
    let machine, engine, proc, result = PE.run_policy ~policy:Policy.Static_stramash small_cg in
    checki "static-stramash takes no action" 0
      (List.assoc "placement.replications" (Engine.counters engine)
      + List.assoc "placement.migrations" (Engine.counters engine));
    Machine.exit_process machine proc;
    result.Runner.wall_cycles
  in
  let bare =
    let machine = Machine.create { Machine.default_config with os = Machine.Stramash_kernel_os } in
    let proc, thread = Machine.load machine small_cg in
    let result = Runner.run machine proc thread small_cg in
    Machine.exit_process machine proc;
    result.Runner.wall_cycles
  in
  checki "engine-attached wall equals bare wall" bare with_engine

let test_adaptive_acts_on_cg () =
  let machine, engine, proc, result = PE.run_policy ~policy:Policy.Adaptive small_cg in
  let c = Engine.counters engine in
  checkb "samples flowed" true (List.assoc "placement.samples" c > 0);
  checkb "epochs ticked" true (List.assoc "placement.epochs" c > 0);
  checkb "result ext mirrors engine counters" true (result.Runner.ext.Runner.placement = c);
  Machine.exit_process machine proc;
  checki "teardown drains live replicas" 0 (Engine.live_replicas engine)

(* ---------- Replicate -> collapse -> re-replicate bit-identity ---------- *)

(* A probe workload built for the property: one heap page is
   eager-initialised with a pattern at the origin (X86), the thread
   migrates to Arm and read-loops over that page while streaming a pad
   working set twice the scaled L3, so the page classifies as
   remote-hot and replicates.  One remote write then collapses the
   replica; further read loops re-heat it; the thread finally returns
   to X86 and sweeps the page once so the origin page table maps it for
   verification.  (Initialising through segment [init] rather than
   program stores matters: sampled init writes would leave decaying
   write history that bars replication for most of this short run.) *)

let page_base = Spec.heap_base
let pad_base = Spec.heap_base + 0x10_0000
let pad_len = 512 * 1024

let roundtrip_spec values read_iters =
  let b = B.create () in
  let page = B.immi b page_base in
  let pad = B.immi b pad_base in
  B.migrate_point b 1;
  let acc = B.immi b 0 in
  let page_sweep () =
    B.for_up_const b ~lo:0 ~hi:(Array.length values) (fun i ->
        let v = B.load b Mir.W64 (Mir.indexed page i ~scale:8) in
        B.add_to b acc acc v)
  in
  let sweep () =
    page_sweep ();
    (* stride one line through the pad so the page cannot hide in L3 *)
    B.for_up_const b ~lo:0 ~hi:(pad_len / Addr.line_size) (fun i ->
        let off = B.shli b i 6 in
        let v = B.load b Mir.W64 (Mir.indexed pad off ~scale:1) in
        B.add_to b acc acc v)
  in
  for _ = 1 to read_iters do
    sweep ()
  done;
  (* one remote write: must collapse any replica before landing *)
  B.store b Mir.W64 acc (Mir.based_disp page 0);
  for _ = 1 to read_iters do
    sweep ()
  done;
  B.migrate_point b 2;
  page_sweep ();
  {
    Spec.name = "placement-roundtrip";
    description = "replicate/collapse/re-replicate bit-identity probe";
    mir = B.finish b;
    segments =
      [
        Spec.segment ~base:page_base ~len:Addr.page_size ~init:(Spec.I64s values) ();
        Spec.segment ~base:pad_base ~len:pad_len ();
      ];
    migration_targets = [ (1, arm); (2, x86) ];
  }

let read_word machine proc vaddr =
  match Machine.read_user machine ~proc ~node:x86 ~vaddr ~width:8 with
  | Some v -> v
  | None -> (
      match Machine.read_user machine ~proc ~node:arm ~vaddr ~width:8 with
      | Some v -> v
      | None -> Alcotest.failf "vaddr %#x unmapped on both nodes" vaddr)

let run_roundtrip ~with_engine spec =
  let machine = Machine.create { Machine.default_config with os = Machine.Stramash_kernel_os } in
  let engine =
    if not with_engine then None
    else
      match Machine.os machine with
      | Os.Stramash os ->
          (* eager settings so the short probe exercises the full cycle *)
          (* eager settings: tick every quantum, act on the first remote
             miss, amortise over a long horizon so the short probe's
             modest per-epoch heat clears the copy + shootdown cost *)
          let e =
            Engine.create ~epoch:1 ~max_actions:1000 ~payback:100 ~min_remote:0 ~cooldown:0
              ~warmup:0 ~policy:Policy.Adaptive os
          in
          Machine.attach_placement machine e;
          Some e
      | _ -> assert false
  in
  let proc, thread = Machine.load machine spec in
  ignore (Runner.run machine proc thread spec);
  (machine, proc, engine)

let prop_roundtrip_bit_identity =
  QCheck.Test.make ~count:5 ~name:"replicate/collapse round-trip is bit-identical"
    QCheck.(pair (list_of_size Gen.(int_range 1 64) int64) (int_range 2 3))
    (fun (values, read_iters) ->
      (* the shrinker may step outside the generator's bounds *)
      QCheck.assume (values <> [] && read_iters >= 1);
      (* pad the pattern to a full 64-word stripe: the probe needs the
         whole page's worth of line misses per sweep to clear the
         adaptive cost model's act threshold within the short run *)
      let values =
        Array.init 64 (fun i -> match List.nth_opt values i with Some v -> v | None -> 0L)
      in
      let spec = roundtrip_spec values read_iters in
      let words = Array.length values in
      let snapshot (machine, proc, _) =
        Array.init words (fun i -> read_word machine proc (page_base + (8 * i)))
      in
      let placed = run_roundtrip ~with_engine:true spec in
      let bare = run_roundtrip ~with_engine:false spec in
      let same = snapshot placed = snapshot bare in
      let _, _, engine = placed in
      let c = Engine.counters (Option.get engine) in
      let acted =
        List.assoc "placement.replications" c >= 2 && List.assoc "placement.collapses" c >= 1
      in
      let (m1, p1, _), (m2, p2, _) = (placed, bare) in
      Machine.exit_process m1 p1;
      Machine.exit_process m2 p2;
      if not acted then QCheck.Test.fail_report "probe never replicated/collapsed";
      same)

(* ---------- Campaign verdicts and chaos interaction ---------- *)

let null_fmt () =
  let buf = Buffer.create 4096 in
  Format.formatter_of_buffer buf

let test_campaign_unknown_bench () =
  checki "unknown bench is the CLI's exit 2" 2
    (Campaign.exit_code (PE.campaign (null_fmt ()) { PE.default with bench = "nope" }))

(* Rendered-output pin: the MD5 of the whole campaign text. It moves only
   when a simulated number or a printed line changes on purpose (like
   test_serve's golden pin); a refactor of the campaign plumbing must
   leave it alone. *)
let test_campaign_clean () =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let verdict = PE.campaign fmt PE.default in
  Format.pp_print_flush fmt ();
  checkb "adaptive cg campaign is clean" true (verdict = Campaign.Clean);
  Alcotest.(check string) "output pin" "fa35d33b7b3f499532a75a6865b7933c"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_chaos_with_placement_clean () =
  checkb "chaos campaign stays clean under adaptive placement" true
    (CE.campaign (null_fmt ()) { CE.default with kills = 2; placement = Some Policy.Adaptive }
    = Campaign.Clean)

(* ---------- Core: Fused_namespace ---------- *)

let boot_pair () =
  let phys = Phys_mem.create () in
  (Kernel.boot ~node:x86 ~phys, Kernel.boot ~node:arm ~phys)

let test_fused_namespace_environment () =
  let k1, k2 = boot_pair () in
  checkb "freshly booted kernels see different environments" false
    (Fused_namespace.same_environment k1.Kernel.ns k2.Kernel.ns);
  let fused = Fused_namespace.fuse_kernels k1 k2 in
  checkb "fused set matches the boot kernel's view" true
    (Fused_namespace.same_environment fused k1.Kernel.ns);
  List.iter
    (fun kind ->
      checki
        (Printf.sprintf "%s id preserved by fusion" (Namespace.kind_to_string kind))
        (Namespace.id k1.Kernel.ns kind) (Namespace.id fused kind))
    Namespace.all_kinds

let test_fused_namespace_cpu_list () =
  let cpus = Fused_namespace.cpu_list ~cores_per_node:4 in
  checki "one entry per core per node" (4 * List.length Node_id.all) (List.length cpus);
  List.iter
    (fun node ->
      let cores =
        List.filter_map
          (fun c -> if c.Namespace.node = node then Some c.Namespace.core else None)
          cpus
      in
      checkb (Node_id.to_string node ^ " cores enumerated") true (cores = [ 0; 1; 2; 3 ]))
    Node_id.all

(* ---------- Core: Data_packing ---------- *)

let make_env () = Env.create (Cache_sim.create (Cache_config.default shared))

let test_data_packing_pack () =
  let env = make_env () in
  let dp = Data_packing.create env ~owner:x86 ~window_bytes:(2 * Addr.page_size) in
  let w = Data_packing.window dp in
  checki "window spans the requested bytes" (2 * Addr.page_size) (Layout.region_size w);
  (* stage a recognisable object outside the window and pack it *)
  let src = Kernel.alloc_frame_exn (Env.kernel env x86) in
  Phys_mem.write_u64 env.Env.phys src 0xDEAD_BEEFL;
  Phys_mem.write_u64 env.Env.phys (src + 8) 0xCAFEL;
  (match Data_packing.pack dp ~src ~bytes:16 with
  | Error `Window_full -> Alcotest.fail "pack refused an empty window"
  | Ok packed ->
      checkb "packed address inside the window" true (Layout.region_contains w packed);
      checkb "bytes moved" true
        (Phys_mem.read_u64 env.Env.phys packed = 0xDEAD_BEEFL
        && Phys_mem.read_u64 env.Env.phys (packed + 8) = 0xCAFEL));
  checki "packed_bytes advances" 16 (Data_packing.packed_bytes dp);
  checki "one object packed" 1 (Data_packing.objects_packed dp);
  checkb "window eventually fills" true
    (Data_packing.pack dp ~src ~bytes:(3 * Addr.page_size) = Error `Window_full)

let test_data_packing_mpu () =
  let env = make_env () in
  let dp = Data_packing.create env ~owner:x86 ~window_bytes:Addr.page_size in
  let w = Data_packing.window dp in
  let private_paddr = Kernel.alloc_frame_exn (Env.kernel env x86) in
  checkb "window is remotely accessible" true
    (Data_packing.remote_access_allowed dp ~paddr:w.Layout.lo);
  checkb "owner-private frame is not" false
    (Data_packing.remote_access_allowed dp ~paddr:private_paddr);
  checkb "owner always passes" true (Data_packing.check_remote_access dp ~actor:x86 ~paddr:private_paddr = Ok ());
  checkb "remote access to the window passes" true
    (Data_packing.check_remote_access dp ~actor:arm ~paddr:w.Layout.lo = Ok ());
  checkb "remote access outside is a violation" true
    (Data_packing.check_remote_access dp ~actor:arm ~paddr:private_paddr
    = Error `Protection_violation);
  checki "violations counted" 1 (Data_packing.violations dp)

(* ---------- suite ---------- *)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_roundtrip_bit_identity ]

let () =
  Alcotest.run "placement"
    [
      ( "policy",
        [
          Alcotest.test_case "statics" `Quick test_policy_statics;
          Alcotest.test_case "adaptive replicate" `Quick test_policy_adaptive_replicate;
          Alcotest.test_case "adaptive thresholds" `Quick test_policy_adaptive_thresholds;
          Alcotest.test_case "adaptive migrate" `Quick test_policy_adaptive_migrate;
          Alcotest.test_case "string round-trip" `Quick test_policy_strings;
        ] );
      ( "hotness",
        [
          Alcotest.test_case "counters + born" `Quick test_hotness_counters;
          Alcotest.test_case "decay" `Quick test_hotness_decay;
          Alcotest.test_case "sorted order" `Quick test_hotness_sorted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_determinism_same_seed;
          Alcotest.test_case "paranoid agrees with fast" `Quick test_paranoid_agrees_with_fast;
          Alcotest.test_case "static-stramash is free" `Quick test_static_stramash_is_free;
          Alcotest.test_case "adaptive samples cg" `Quick test_adaptive_acts_on_cg;
        ] );
      ("roundtrip", qsuite);
      ( "campaign",
        [
          Alcotest.test_case "unknown bench" `Quick test_campaign_unknown_bench;
          Alcotest.test_case "adaptive cg clean" `Quick test_campaign_clean;
          Alcotest.test_case "chaos under placement" `Quick test_chaos_with_placement_clean;
        ] );
      ( "fused-namespace",
        [
          Alcotest.test_case "environment fusion" `Quick test_fused_namespace_environment;
          Alcotest.test_case "cpu list" `Quick test_fused_namespace_cpu_list;
        ] );
      ( "data-packing",
        [
          Alcotest.test_case "pack into window" `Quick test_data_packing_pack;
          Alcotest.test_case "mpu checks" `Quick test_data_packing_mpu;
        ] );
    ]
