(* Tests for the fault-injection subsystem: plan determinism and stream
   independence, typed errors at the fault-handler boundary, message
   retry/backoff and IPI-loss recovery, the allocator hotplug path, and
   the kernel-state audit (including a planted double-free). *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Meter = Stramash_sim.Meter
module Metrics = Stramash_sim.Metrics
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
module Ipi = Stramash_interconnect.Ipi
module Msg_layer = Stramash_popcorn.Msg_layer
module Stramash_fault = Stramash_core.Stramash_fault
module Global_alloc = Stramash_core.Global_alloc
module Fault = Stramash_fault_inject.Fault
module Plan = Stramash_fault_inject.Plan
module Audit = Stramash_fault_inject.Audit
module FE = Stramash_harness.Fault_experiments
module B = Stramash_isa.Builder
module Codegen = Stramash_isa.Codegen

let checki = Alcotest.(check int)
let x86 = Node_id.X86
let arm = Node_id.Arm
let vaddr0 = 0x10000000

let make_env () = Env.create (Cache_sim.create (Cache_config.default Layout.Shared))

let trivial_mir () =
  let b = B.create () in
  ignore (B.immi b 0);
  B.finish b

let make_setup ?inject ?global_alloc () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env ?inject () in
  let faults = Stramash_fault.create ?inject ?global_alloc env msg in
  let mir = trivial_mir () in
  let images = List.map (fun isa -> (isa, Codegen.lower ~isa mir)) Node_id.all in
  let proc = Process.create ~pid:1 ~origin:x86 ~mir ~images in
  let mm = Env.ensure_mm env ~proc ~node:x86 in
  ignore (Vma.add mm.Process.vmas ~start:0x10000000 ~end_:0x10100000 Vma.Anon ~writable:true);
  (env, msg, faults, proc)

let silent_walk env proc node vaddr =
  let mm = Process.mm_exn proc node in
  let leaf = Page_table.walk mm.Process.pgtable (Env.silent_io env) ~vaddr in
  if Pte.present leaf then Some (Pte.frame ~isa:node leaf, Pte.flags ~isa:node leaf) else None

(* ---------- Plan ---------- *)

let mixed_config =
  {
    Plan.default with
    Plan.msg_drop_rate = 0.3;
    msg_delay_rate = 0.2;
    ipi_loss_rate = 0.25;
    walk_fail_rate = 0.15;
    alloc_fail_rate = 0.1;
  }

let msg_trace plan n =
  List.init n (fun _ ->
      match Plan.msg_attempt plan with `Drop -> -1 | `Deliver extra -> extra)

let test_plan_deterministic () =
  let a = Plan.create ~seed:99L mixed_config and b = Plan.create ~seed:99L mixed_config in
  Alcotest.(check (list int)) "same seed, same msg verdicts" (msg_trace a 200) (msg_trace b 200);
  let ipi p =
    List.init 200 (fun _ ->
        match Plan.ipi_delivery p with `On_time -> 0 | `Jitter j -> j | `Lost -> -1)
  in
  Alcotest.(check (list int)) "same seed, same ipi verdicts" (ipi a) (ipi b)

let test_plan_streams_independent () =
  (* Turning another site on (or off) must not shift the message stream:
     each site draws from a private split, and zero-rate sites never draw. *)
  let a = Plan.create ~seed:42L mixed_config in
  let b = Plan.create ~seed:42L { mixed_config with Plan.walk_fail_rate = 0.0; alloc_fail_rate = 0.9 } in
  for _ = 1 to 50 do
    ignore (Plan.walk_read_faulted a);
    ignore (Plan.alloc_denied b)
  done;
  Alcotest.(check (list int)) "msg stream unaffected by other sites" (msg_trace a 200)
    (msg_trace b 200)

let test_backoff_grows () =
  let b0 = Plan.msg_backoff ~attempt:0 in
  let b3 = Plan.msg_backoff ~attempt:3 in
  Alcotest.(check bool) "backoff positive" true (b0 > 0);
  Alcotest.(check bool) "backoff grows" true (b3 > b0);
  (* the exponent saturates: huge attempt numbers must not overflow *)
  Alcotest.(check bool) "saturated backoff sane" true (Plan.msg_backoff ~attempt:1000 > 0)

(* The fingerprint must see every entry of a long schedule: two configs
   that differ only in the last of 64 windows (or flips) are different
   experiments. *)
let test_fingerprint_covers_long_schedules () =
  let fp config = Plan.config_fingerprint config in
  let last f l = List.mapi (fun i x -> if i = 63 then f x else x) l in
  let windows =
    List.init 64 (fun i -> { Plan.g_node = x86; g_start = i * 100; g_len = 50; g_factor = 2.0 })
  in
  let flips = List.init 64 (fun i -> { Plan.bf_at = i; bf_node = 0; bf_bits = 1 }) in
  Alcotest.(check bool) "last gray_slow window" true
    (fp { Plan.default with gray_slow = windows }
    <> fp { Plan.default with gray_slow = last (fun w -> { w with Plan.g_factor = 3.0 }) windows });
  Alcotest.(check bool) "last corrupt_flips event" true
    (fp { Plan.default with corrupt_flips = flips }
    <> fp { Plan.default with corrupt_flips = last (fun f -> { f with Plan.bf_bits = 2 }) flips })

(* ---------- message retry / escalation ---------- *)

let test_msg_all_drops_escalates_but_completes () =
  let env = make_env () in
  let plan = Plan.create ~seed:5L { Plan.default with Plan.msg_drop_rate = 1.0 } in
  let msg = Msg_layer.create Msg_layer.Shm env ~inject:plan () in
  let ran = ref false in
  Msg_layer.rpc msg ~src:x86 ~label:"ping" ~req_bytes:64 ~resp_bytes:64 ~handler:(fun () ->
      ran := true);
  Alcotest.(check bool) "handler still ran" true !ran;
  let m = Plan.metrics plan in
  Alcotest.(check bool) "drops counted" true (Metrics.get m "msg.drops" > 0);
  Alcotest.(check bool) "retries counted" true (Metrics.get m "msg.retries" > 0);
  Alcotest.(check bool) "escalated to the reliable path" true (Metrics.get m "msg.escalations" > 0);
  (* the sender burned detection timeouts + backoff on every lost attempt *)
  Alcotest.(check bool) "sender paid for the losses" true
    (Meter.get (Env.meter env x86) > Plan.msg_timeout_cycles)

let test_ipi_loss_costs_timeout () =
  let plan = Plan.create ~seed:5L { Plan.default with Plan.ipi_loss_rate = 1.0 } in
  let d = Ipi.cross_isa_delivery ~inject:plan () in
  Alcotest.(check bool) "lost" true d.Ipi.lost;
  checki "receiver discovers it by timeout" Ipi.timeout_cycles d.Ipi.cycles;
  let clean = Ipi.cross_isa_delivery () in
  Alcotest.(check bool) "uninjected delivery on time" false clean.Ipi.lost

(* ---------- typed errors ---------- *)

let test_segfault_is_typed_error () =
  let _env, _msg, faults, proc = make_setup () in
  match Stramash_fault.handle_fault faults ~proc ~node:x86 ~vaddr:0xDEAD000 ~write:false with
  | Error (Fault.Segfault { pid; vaddr; _ }) ->
      checki "pid" 1 pid;
      checki "vaddr" 0xDEAD000 vaddr
  | Ok () -> Alcotest.fail "expected a segfault"
  | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e)

let test_injected_faults_are_absorbed () =
  (* Transient walk failures and PTL timeouts degrade to retry/fallback:
     the caller only ever sees [Ok]. *)
  let plan =
    Plan.create ~seed:77L
      { Plan.default with Plan.walk_fail_rate = 0.8; ptl_timeout_rate = 0.5 }
  in
  let env, _msg, faults, proc = make_setup ~inject:plan () in
  Stramash_fault.handle_fault_exn faults ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  ignore (Env.ensure_mm env ~proc ~node:arm);
  for page = 0 to 19 do
    match
      Stramash_fault.handle_fault faults ~proc ~node:arm
        ~vaddr:(vaddr0 + (page * Addr.page_size))
        ~write:(page mod 2 = 0)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "transient fault surfaced: %s" (Fault.to_string e)
  done;
  let m = Plan.metrics plan in
  Alcotest.(check bool) "walk faults fired" true (Metrics.get m "walk.transient_faults" > 0);
  Alcotest.(check bool) "every arm page resolved" true
    (silent_walk env proc arm vaddr0 <> None)

(* ---------- allocator exhaustion -> hotplug ---------- *)

let test_alloc_denial_recovers_via_hotplug () =
  let plan = Plan.create ~seed:21L { Plan.default with Plan.alloc_fail_rate = 1.0 } in
  let env = make_env () in
  let ga = Global_alloc.create env ~rng:(Rng.create ~seed:3L) () in
  let msg = Msg_layer.create Msg_layer.Shm env ~inject:plan () in
  let faults = Stramash_fault.create ~inject:plan ~global_alloc:ga env msg in
  let mir = trivial_mir () in
  let images = List.map (fun isa -> (isa, Codegen.lower ~isa mir)) Node_id.all in
  let proc = Process.create ~pid:1 ~origin:x86 ~mir ~images in
  let mm = Env.ensure_mm env ~proc ~node:x86 in
  ignore (Vma.add mm.Process.vmas ~start:vaddr0 ~end_:(vaddr0 + 0x100000) Vma.Anon ~writable:true);
  (match Stramash_fault.handle_fault faults ~proc ~node:x86 ~vaddr:vaddr0 ~write:true with
  | Ok () -> ()
  | Error e -> Alcotest.failf "denial not recovered: %s" (Fault.to_string e));
  let m = Plan.metrics plan in
  Alcotest.(check bool) "denial injected" true (Metrics.get m "alloc.denials" > 0);
  Alcotest.(check bool) "hotplug grant recovered it" true
    (Metrics.get m "alloc.hotplug_recoveries" > 0);
  Alcotest.(check bool) "x86 pulled a pool block online" true (Global_alloc.blocks_owned ga x86 > 0);
  Alcotest.(check bool) "page mapped" true (silent_walk env proc x86 vaddr0 <> None)

let test_alloc_denial_without_global_alloc_is_oom () =
  let plan = Plan.create ~seed:21L { Plan.default with Plan.alloc_fail_rate = 1.0 } in
  let _env, _msg, faults, proc = make_setup ~inject:plan () in
  match Stramash_fault.handle_fault faults ~proc ~node:x86 ~vaddr:vaddr0 ~write:true with
  | Error (Fault.Out_of_memory { node }) -> Alcotest.(check string) "node named" "x86" node
  | Ok () -> Alcotest.fail "expected OOM with no hotplug path"
  | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e)

(* ---------- audit ---------- *)

let test_audit_clean_after_faults () =
  let env, _msg, faults, proc = make_setup () in
  Stramash_fault.handle_fault_exn faults ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  ignore (Env.ensure_mm env ~proc ~node:arm);
  Stramash_fault.handle_fault_exn faults ~proc ~node:arm ~vaddr:vaddr0 ~write:false;
  Stramash_fault.handle_fault_exn faults ~proc ~node:arm ~vaddr:(vaddr0 + 4096) ~write:true;
  let report =
    Audit.run ~env ~procs:[ proc ]
      ~extra:[ ("ptl-quiescent", Stramash_fault.ptls_quiescent faults) ]
      ()
  in
  Alcotest.(check bool) "clean" true (Audit.is_clean report);
  Alcotest.(check bool) "checks ran" true (report.Audit.checks > 0)

let test_audit_catches_planted_double_free () =
  let env, _msg, faults, proc = make_setup () in
  Stramash_fault.handle_fault_exn faults ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  let paddr =
    match silent_walk env proc x86 vaddr0 with
    | Some (pfn, _) -> pfn lsl Addr.page_shift
    | None -> Alcotest.fail "page not mapped"
  in
  (* Plant the bug: free the frame behind the page table's back. *)
  Frame_alloc.free (Env.kernel env x86).Kernel.frames paddr;
  let report = Audit.run ~env ~procs:[ proc ] () in
  Alcotest.(check bool) "audit flags it" false (Audit.is_clean report);
  Alcotest.(check bool) "as a freed-frame mapping" true
    (List.exists (fun v -> v.Audit.check = "frame-allocated") report.Audit.violations)

let test_teardown_check_flags_leak () =
  let env, _msg, faults, proc = make_setup () in
  Stramash_fault.handle_fault_exn faults ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  let mapped = Audit.mapped_frames ~env ~proc in
  checki "one frame tracked" 1 (List.length mapped);
  (* Without running exit_process, both the surviving leaf and the
     still-allocated frame must be flagged. *)
  let report = Audit.check_teardown ~env ~procs:[ proc ] ~mapped in
  Alcotest.(check bool) "leak flagged" false (Audit.is_clean report);
  Stramash_fault.exit_process faults ~proc;
  let clean = Audit.check_teardown ~env ~procs:[ proc ] ~mapped in
  Alcotest.(check bool) "clean after exit" true (Audit.is_clean clean)

(* ---------- campaign determinism ---------- *)

let render_campaign ~seed ~config =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let verdict = FE.campaign fmt { FE.default with seed; plan = config } in
  Format.pp_print_flush fmt ();
  (verdict = Stramash_harness.Campaign.Clean, Buffer.contents buf)

(* Rendered-output pin: the MD5 of the whole campaign text. It moves only
   when a simulated number or a printed line changes on purpose (like
   test_serve's golden pin); a refactor of the campaign plumbing must
   leave it alone. *)
let test_campaign_deterministic () =
  let config = FE.plan_config () in
  let c1, out1 = render_campaign ~seed:42L ~config in
  let c2, out2 = render_campaign ~seed:42L ~config in
  Alcotest.(check bool) "clean" true (c1 && c2);
  Alcotest.(check string) "byte-identical output" out1 out2;
  Alcotest.(check string) "output pin" "0c5bdf40d1fd1d252fe228c378056b01"
    (Digest.to_hex (Digest.string out1))

let test_campaign_survives_heavy_drops () =
  let config = FE.plan_config ~drop_rate:0.5 ~ipi_loss:0.2 ~walk_fail:0.2 () in
  let clean, out = render_campaign ~seed:7L ~config in
  Alcotest.(check bool) "completes with zero violations" true clean;
  let contains sub =
    let n = String.length out and m = String.length sub in
    let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "faults actually injected" true (contains "msg.drops")

let () =
  Alcotest.run "fault_inject"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "streams independent" `Quick test_plan_streams_independent;
          Alcotest.test_case "backoff grows" `Quick test_backoff_grows;
          Alcotest.test_case "fingerprint sees the whole config" `Quick
            test_fingerprint_covers_long_schedules;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "msg drops escalate" `Quick test_msg_all_drops_escalates_but_completes;
          Alcotest.test_case "ipi loss timeout" `Quick test_ipi_loss_costs_timeout;
          Alcotest.test_case "transients absorbed" `Quick test_injected_faults_are_absorbed;
          Alcotest.test_case "alloc denial -> hotplug" `Quick test_alloc_denial_recovers_via_hotplug;
          Alcotest.test_case "alloc denial -> OOM" `Quick test_alloc_denial_without_global_alloc_is_oom;
        ] );
      ( "errors",
        [ Alcotest.test_case "segfault typed" `Quick test_segfault_is_typed_error ] );
      ( "audit",
        [
          Alcotest.test_case "clean state" `Quick test_audit_clean_after_faults;
          Alcotest.test_case "planted double-free" `Quick test_audit_catches_planted_double_free;
          Alcotest.test_case "teardown leak" `Quick test_teardown_check_flags_leak;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "byte-identical replay" `Quick test_campaign_deterministic;
          Alcotest.test_case "heavy drops survive" `Quick test_campaign_survives_heavy_drops;
        ] );
    ]
