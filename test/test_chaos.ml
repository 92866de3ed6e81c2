(* Tests for the crash-stop node-failure model: liveness fencing epochs,
   chaos-schedule validation, the heartbeat watchdog, typed dead-node
   errors, stale-token rejection across restarts (property), checkpoint
   round-trips, futex waiter parking, the extended audit checks, and the
   chaos campaign's determinism and unrecovered-failure edge. *)

module Node_id = Stramash_sim.Node_id
module Liveness = Stramash_sim.Liveness
module Metrics = Stramash_sim.Metrics
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Cache_config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Vma = Stramash_kernel.Vma
module Process = Stramash_kernel.Process
module Thread = Stramash_kernel.Thread
module Page_table = Stramash_kernel.Page_table
module Pte = Stramash_kernel.Pte
module Futex = Stramash_kernel.Futex
module Heartbeat = Stramash_interconnect.Heartbeat
module Ipi = Stramash_interconnect.Ipi
module Msg_layer = Stramash_popcorn.Msg_layer
module Stramash_fault = Stramash_core.Stramash_fault
module Stramash_ptl = Stramash_core.Stramash_ptl
module Checkpoint = Stramash_core.Checkpoint
module Fault = Stramash_fault_inject.Fault
module Plan = Stramash_fault_inject.Plan
module Audit = Stramash_fault_inject.Audit
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module CE = Stramash_harness.Chaos_experiments
module Campaign = Stramash_harness.Campaign
module B = Stramash_isa.Builder
module Codegen = Stramash_isa.Codegen
module Interp = Stramash_isa.Interp

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let x86 = Node_id.X86
let arm = Node_id.Arm
let vaddr0 = 0x10000000

let make_env () = Env.create (Cache_sim.create (Cache_config.default Layout.Shared))

let trivial_mir () =
  let b = B.create () in
  ignore (B.immi b 0);
  B.finish b

let make_setup ?inject () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env ?inject () in
  let faults = Stramash_fault.create ?inject env msg in
  let mir = trivial_mir () in
  let images = List.map (fun isa -> (isa, Codegen.lower ~isa mir)) Node_id.all in
  let proc = Process.create ~pid:1 ~origin:x86 ~mir ~images in
  let mm = Env.ensure_mm env ~proc ~node:x86 in
  ignore (Vma.add mm.Process.vmas ~start:vaddr0 ~end_:(vaddr0 + 0x100000) Vma.Anon ~writable:true);
  (env, msg, faults, proc)

let make_thread ~tid ~node =
  let mir = trivial_mir () in
  let cpu = Interp.create (Codegen.lower ~isa:node mir) in
  let th = Thread.create ~tid ~origin:node ~cpu in
  th.Thread.node <- node;
  th

let silent_walk env proc node vaddr =
  let mm = Process.mm_exn proc node in
  let leaf = Page_table.walk mm.Process.pgtable (Env.silent_io env) ~vaddr in
  if Pte.present leaf then Some (Pte.frame ~isa:node leaf, Pte.flags ~isa:node leaf) else None

(* ---------- liveness fencing epochs ---------- *)

let test_liveness_epochs () =
  let l = Liveness.create () in
  checkb "initially alive" true (Liveness.all_alive l);
  checki "epoch 0" 0 (Liveness.epoch l x86);
  Liveness.kill l x86 ~at:1000;
  checkb "dead after kill" false (Liveness.is_alive l x86);
  checki "kill bumps epoch" 1 (Liveness.epoch l x86);
  checki "died_at recorded" 1000 (Liveness.died_at l x86);
  checkb "peer unaffected" true (Liveness.is_alive l arm);
  (match Liveness.kill l x86 ~at:1500 with
  | () -> Alcotest.fail "double kill must be rejected"
  | exception Invalid_argument _ -> ());
  Liveness.revive l x86 ~at:4000;
  checkb "alive after revive" true (Liveness.is_alive l x86);
  checki "revive bumps epoch again" 2 (Liveness.epoch l x86);
  checki "downtime accumulated" 3000 (Liveness.downtime l x86);
  checki "one death" 1 (Liveness.deaths l x86);
  checki "arm epoch untouched" 0 (Liveness.epoch l arm)

(* ---------- chaos-schedule validation ---------- *)

let ev node kill_at restart_after = { Plan.node; kill_at; restart_after }

let test_plan_validates_schedule () =
  (* Overlapping kill/restart intervals on one node are malformed. *)
  (match
     Plan.create ~seed:1L
       { Plan.default with Plan.node_events = [ ev x86 100 (Some 1000); ev x86 500 (Some 10) ] }
   with
  | _ -> Alcotest.fail "overlapping events must be rejected"
  | exception Invalid_argument _ -> ());
  (* A kill with no restart must be its node's last event. *)
  (match
     Plan.create ~seed:1L
       { Plan.default with Plan.node_events = [ ev arm 100 None; ev arm 900 (Some 10) ] }
   with
  | _ -> Alcotest.fail "event after a no-restart kill must be rejected"
  | exception Invalid_argument _ -> ());
  (* A valid schedule is normalised to kill order and arms chaos. *)
  let plan =
    Plan.create ~seed:1L
      { Plan.default with Plan.node_events = [ ev arm 900 (Some 50); ev x86 100 (Some 50) ] }
  in
  checkb "chaos armed" true (Plan.chaos_armed plan);
  (match Plan.node_events plan with
  | [ a; b ] ->
      checki "sorted by kill time" 100 a.Plan.kill_at;
      checki "second event" 900 b.Plan.kill_at
  | _ -> Alcotest.fail "expected both events");
  checkb "default plan unarmed" false (Plan.chaos_armed (Plan.create ~seed:1L Plan.default))

(* ---------- heartbeat watchdog ---------- *)

(* Times are in hundredths of a beat interval, so [at 300] is exactly
   the third deadline after a beat at 0. *)
let at n = n * Heartbeat.interval_cycles / 100

let test_heartbeat_watchdog () =
  let hb = Heartbeat.create () in
  checki "detection latency" (at 300) Heartbeat.detection_latency;
  Heartbeat.beat hb ~node:arm ~now:(at 50);
  checkb "fresh beat, no suspicion" false (Heartbeat.suspects hb ~peer:arm ~now:(at 140));
  checkb "two misses, still trusted" false (Heartbeat.suspects hb ~peer:arm ~now:(at 260));
  checkb "third deadline missed" true (Heartbeat.suspects hb ~peer:arm ~now:(at 360));
  checkb "not latched until declared" false (Heartbeat.is_suspected hb ~peer:arm);
  Heartbeat.declare_dead hb ~peer:arm ~now:(at 360);
  Heartbeat.declare_dead hb ~peer:arm ~now:(at 400);
  checkb "latched" true (Heartbeat.is_suspected hb ~peer:arm);
  checki "idempotent detection count" 1 (Heartbeat.detections hb);
  (* Re-admission is hysteresis-gated: the first beat after the silence
     only resets the streak, and suspicion lifts only after readmit_beats
     consecutive on-time beats. *)
  Heartbeat.beat hb ~node:arm ~now:(at 500);
  checkb "single beat does not clear suspicion" true (Heartbeat.is_suspected hb ~peer:arm);
  Heartbeat.beat hb ~node:arm ~now:(at 580);
  checkb "one on-time beat is not enough" true (Heartbeat.is_suspected hb ~peer:arm);
  Heartbeat.beat hb ~node:arm ~now:(at 660);
  checkb "streak complete clears suspicion" false (Heartbeat.is_suspected hb ~peer:arm);
  checki "readmission counted" 1 (Heartbeat.readmissions hb)

(* ---------- typed dead-node errors ---------- *)

let test_dead_node_message_is_typed () =
  let env = make_env () in
  let plan = Plan.create ~seed:3L Plan.default in
  let msg = Msg_layer.create Msg_layer.Shm env ~inject:plan () in
  Liveness.kill env.Env.liveness arm ~at:100;
  (match
     Msg_layer.rpc_checked msg ~src:x86 ~label:"vma_walk" ~req_bytes:64 ~resp_bytes:64
       ~handler:(fun () -> Alcotest.fail "handler must not run against a dead peer")
   with
  | Error (Fault.Node_dead { node; _ }) -> Alcotest.(check string) "dead node named" "arm" node
  | Ok () -> Alcotest.fail "expected Node_dead"
  | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e));
  checkb "dead-letter counted" true
    (Metrics.get (Plan.metrics plan) "chaos.dead_node_messages" > 0);
  (* Revived peer serves again. *)
  Liveness.revive env.Env.liveness arm ~at:200;
  (match
     Msg_layer.rpc_checked msg ~src:x86 ~label:"vma_walk" ~req_bytes:64 ~resp_bytes:64
       ~handler:ignore
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "revived peer rejected: %s" (Fault.to_string e))

let test_dead_node_ipi_is_typed () =
  let liveness = Liveness.create () in
  Liveness.kill liveness arm ~at:100;
  (match Ipi.cross_isa_delivery_checked ~liveness ~dst:arm () with
  | Error (Fault.Node_dead { node; op }) ->
      Alcotest.(check string) "node" "arm" node;
      Alcotest.(check string) "op" "ipi" op
  | Ok _ -> Alcotest.fail "expected Node_dead"
  | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e));
  match Ipi.cross_isa_delivery_checked ~liveness ~dst:x86 () with
  | Ok d -> checkb "live target delivered" false d.Ipi.lost
  | Error e -> Alcotest.failf "live target rejected: %s" (Fault.to_string e)

(* ---------- stale lock tokens (property) ---------- *)

(* A token minted before a crash must never exercise the lock again,
   however many kill/revive cycles later it is replayed: every incarnation
   bump leaves the token's epoch behind. *)
let prop_stale_token_never_validates =
  QCheck.Test.make ~name:"pre-crash PTL token is fenced forever" ~count:50
    QCheck.(pair (int_range 1 5) bool)
    (fun (cycles, break_while_down) ->
      let env = make_env () in
      let ptl = Stramash_ptl.create env ~lock_addr:Layout.pool.Layout.lo in
      let token =
        match Stramash_ptl.acquire ptl ~actor:x86 with
        | Ok tok -> tok
        | Error e -> QCheck.Test.fail_reportf "acquire: %s" (Fault.to_string e)
      in
      for i = 1 to cycles do
        let at = i * 1000 in
        Liveness.kill env.Env.liveness x86 ~at;
        if break_while_down && i = 1 then
          ignore (Stramash_ptl.break_dead ptl ~actor:arm);
        Liveness.revive env.Env.liveness x86 ~at:(at + 500)
      done;
      let stale = function
        | Error (Fault.Stale_token { epoch; _ }) ->
            (* the rejected epoch is the token's, not the current one *)
            epoch = token.Stramash_ptl.epoch
        | _ -> false
      in
      stale (Stramash_ptl.reacquire ptl ~token)
      && stale (Stramash_ptl.release ptl ~token)
      && Stramash_ptl.stale_rejections ptl >= 2)

(* ---------- checkpoint round-trip ---------- *)

let test_checkpoint_roundtrip () =
  let env, _msg, faults, proc = make_setup () in
  (* Populate the origin table with a mix of permissions. *)
  for page = 0 to 7 do
    Stramash_fault.handle_fault_exn faults ~proc ~node:x86
      ~vaddr:(vaddr0 + (page * Addr.page_size))
      ~write:(page mod 2 = 0)
  done;
  let before =
    List.map (fun p -> silent_walk env proc x86 (vaddr0 + (p * Addr.page_size))) [ 0; 3; 7 ]
  in
  let image = Checkpoint.capture env ~node:x86 ~procs:[ proc ] ~futexes:[] in
  (match Checkpoint.decode (Checkpoint.encode image) with
  | Ok decoded -> Alcotest.(check bool) "encode/decode round-trips" true (decoded = image)
  | Error e -> Alcotest.failf "decode failed: %s" (Checkpoint.decode_error_to_string e));
  Checkpoint.discard env ~node:x86 ~procs:[ proc ];
  checkb "mm unlinked by discard" true (Process.mm proc x86 = None);
  let stats = Checkpoint.restore env ~procs:[ proc ] image in
  checki "one process restored" 1 stats.Checkpoint.restored_procs;
  checki "all pages restored" 8 stats.Checkpoint.restored_pages;
  let after =
    List.map (fun p -> silent_walk env proc x86 (vaddr0 + (p * Addr.page_size))) [ 0; 3; 7 ]
  in
  Alcotest.(check bool) "same frames and permissions" true (before = after);
  (* The re-materialised state captures back to the identical image. *)
  let again = Checkpoint.capture env ~node:x86 ~procs:[ proc ] ~futexes:[] in
  Alcotest.(check bool) "capture after restore is identical" true (again = image)

(* ---------- death sweep: futex parking and holding-area wakes ---------- *)

let test_death_parks_dead_waiters () =
  let chaos_cfg =
    { Plan.default with Plan.node_events = [ ev arm 1_000_000 (Some 1000) ] }
  in
  let inject = Plan.create ~seed:9L chaos_cfg in
  let env, _msg, faults, proc = make_setup ~inject () in
  let uaddr = vaddr0 + 0x40 in
  let dead_th = make_thread ~tid:7 ~node:arm in
  dead_th.Thread.state <- Thread.Blocked_futex uaddr;
  let live_th = make_thread ~tid:8 ~node:x86 in
  live_th.Thread.state <- Thread.Blocked_futex uaddr;
  let arm_futexes = (Env.kernel env arm).Kernel.futexes in
  Futex.enqueue_waiter arm_futexes ~uaddr ~tid:7;
  Futex.enqueue_waiter arm_futexes ~uaddr ~tid:8;
  Liveness.kill env.Env.liveness arm ~at:500;
  Stramash_fault.on_node_death faults ~procs:[ proc ] ~threads:[ dead_th; live_th ] ~node:arm
    ~now:500;
  (* The dead node's thread parks; the survivor's waiter is requeued to
     the surviving kernel's bucket. *)
  (match Stramash_fault.held_waiters faults with
  | [ f ] ->
      checki "parked tid" 7 f.Checkpoint.f_tid;
      checki "parked uaddr" uaddr f.Checkpoint.f_uaddr
  | l -> Alcotest.failf "expected exactly one parked waiter, got %d" (List.length l));
  checki "survivor waiter requeued to x86" 1
    (Futex.waiter_count (Env.kernel env x86).Kernel.futexes ~uaddr);
  (* A wake while the node is down drains the holding area FIFO. *)
  checki "held waiter woken" 7 (List.hd (Stramash_fault.wake_held faults ~uaddr ~limit:4));
  checkb "holding area now empty" true (Stramash_fault.held_waiters faults = [])

(* ---------- audit: planted violations ---------- *)

let test_audit_catches_ghost_waiter () =
  let env, _msg, _faults, proc = make_setup () in
  Futex.enqueue_waiter (Env.kernel env x86).Kernel.futexes ~uaddr:vaddr0 ~tid:99;
  let report = Audit.run ~env ~procs:[ proc ] ~threads:[] () in
  checkb "ghost waiter flagged" false (Audit.is_clean report);
  checkb "as a futex-waiter violation" true
    (List.exists (fun v -> v.Audit.check = "futex-waiter") report.Audit.violations)

let test_audit_catches_live_thread_in_holding_area () =
  let env, _msg, _faults, proc = make_setup () in
  let th = make_thread ~tid:5 ~node:x86 in
  th.Thread.state <- Thread.Blocked_futex vaddr0;
  (* tid 5's node is alive, so parking it in the holding area is a bug. *)
  let report = Audit.run ~env ~procs:[ proc ] ~threads:[ th ] ~held:[ (vaddr0, 5) ] () in
  checkb "flagged" false (Audit.is_clean report);
  checkb "as a futex-held violation" true
    (List.exists (fun v -> v.Audit.check = "futex-held") report.Audit.violations)

let test_audit_catches_ledger_inconsistency () =
  let env, _msg, _faults, proc = make_setup () in
  (* An orphaned block whose owner is alive contradicts the sweep. *)
  let report =
    Audit.run ~env ~procs:[ proc ] ~ledger:[ (x86, Layout.pool, true) ] ()
  in
  checkb "flagged" false (Audit.is_clean report);
  checkb "as a hotplug-ledger violation" true
    (List.exists (fun v -> v.Audit.check = "hotplug-ledger") report.Audit.violations);
  (* The same block owned by a dead node is exactly right. *)
  Liveness.kill env.Env.liveness x86 ~at:100;
  let ok = Audit.run ~env ~procs:[ proc ] ~ledger:[ (x86, Layout.pool, true) ] () in
  checkb "orphan of a dead owner is clean" true (Audit.is_clean ok)

(* ---------- unrecovered failure: kill with no restart ---------- *)

let test_kill_without_restart_is_unrecovered () =
  let spec = List.assoc "is" (Stramash_workloads.Npb_suite.fig9_set ~small:true) in
  let config =
    { Plan.default with Plan.node_events = [ ev x86 1000 None ] }
  in
  let machine =
    Machine.create
      { Machine.default_config with Machine.os = Machine.Stramash_kernel_os; inject = Some config }
  in
  let proc, thread = Machine.load machine spec in
  match Runner.run machine proc thread spec with
  | _ -> Alcotest.fail "a permanent kill stranding the workload must not complete"
  | exception Fault.Error (Fault.Node_dead { node; _ }) ->
      Alcotest.(check string) "dead node named" "x86" node

(* ---------- chaos campaign: soak + determinism ---------- *)

let render_chaos ~seed =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let verdict = CE.campaign fmt { CE.default with seed } in
  Format.pp_print_flush fmt ();
  (verdict, Buffer.contents buf)

let contains out sub =
  let n = String.length out and m = String.length sub in
  let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
  go 0

(* Rendered-output pin: the MD5 of the whole campaign text. It moves only
   when a simulated number or a printed line changes on purpose (like
   test_serve's golden pin); a refactor of the campaign plumbing must
   leave it alone. *)
let test_chaos_campaign_deterministic () =
  let v1, out1 = render_chaos ~seed:42L in
  let v2, out2 = render_chaos ~seed:42L in
  checkb "clean verdict" true (v1 = Campaign.Clean && v2 = Campaign.Clean);
  Alcotest.(check string) "byte-identical output" out1 out2;
  Alcotest.(check string) "output pin" "83cf7190f6f311dade4b702f30f8b2cf"
    (Digest.to_hex (Digest.string out1));
  checkb "kills actually happened" true (contains out1 "chaos.x86.deaths");
  checkb "degraded walks exercised" true (contains out1 "chaos.degraded_walks");
  checkb "downtime metered" true (contains out1 "chaos.downtime_cycles");
  checkb "survivor fingerprint matches" true (contains out1 "(matches baseline)")

let test_campaign_unknown_bench () =
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  checkb "campaign rejects unknown bench" true
    (CE.campaign fmt { CE.default with bench = "nope" } = Campaign.Unknown_bench)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_stale_token_never_validates ]

let () =
  Alcotest.run "chaos"
    [
      ( "liveness",
        [
          Alcotest.test_case "fencing epochs" `Quick test_liveness_epochs;
          Alcotest.test_case "schedule validation" `Quick test_plan_validates_schedule;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "heartbeat suspicion" `Quick test_heartbeat_watchdog;
          Alcotest.test_case "dead-node message typed" `Quick test_dead_node_message_is_typed;
          Alcotest.test_case "dead-node ipi typed" `Quick test_dead_node_ipi_is_typed;
        ] );
      ("fencing", qsuite);
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip equality" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "death parks waiters" `Quick test_death_parks_dead_waiters;
        ] );
      ( "audit",
        [
          Alcotest.test_case "ghost waiter" `Quick test_audit_catches_ghost_waiter;
          Alcotest.test_case "live thread held" `Quick test_audit_catches_live_thread_in_holding_area;
          Alcotest.test_case "ledger inconsistency" `Quick test_audit_catches_ledger_inconsistency;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "unrecovered kill" `Quick test_kill_without_restart_is_unrecovered;
          Alcotest.test_case "soak determinism" `Slow test_chaos_campaign_deterministic;
          Alcotest.test_case "unknown bench" `Quick test_campaign_unknown_bench;
        ] );
    ]
