(* Tests for the Popcorn baseline: messaging layer and DSM protocol. *)

module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Phys_mem = Stramash_mem.Phys_mem
module Cache_config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Vma = Stramash_kernel.Vma
module Process = Stramash_kernel.Process
module Page_table = Stramash_kernel.Page_table
module Pte = Stramash_kernel.Pte
module Msg_layer = Stramash_popcorn.Msg_layer
module Dsm = Stramash_popcorn.Dsm
module Fault = Stramash_fault_inject.Fault
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

let make_proc env =
  let mir = trivial_mir () in
  let images = List.map (fun isa -> (isa, Codegen.lower ~isa mir)) Node_id.all in
  let proc = Process.create ~pid:1 ~origin:x86 ~mir ~images in
  let mm = Env.ensure_mm env ~proc ~node:x86 in
  ignore (Vma.add mm.Process.vmas ~start:0x10000000 ~end_:0x10100000 Vma.Anon ~writable:true);
  proc

(* ---------- Msg_layer ---------- *)

let test_rpc_counts_two_messages () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  Msg_layer.rpc msg ~src:x86 ~label:"ping" ~req_bytes:64 ~resp_bytes:64 ~handler:ignore;
  checki "request + reply" 2 (Msg_layer.message_count msg);
  checki "labelled" 1 (Msg_layer.count_for msg "ping");
  checki "reply labelled" 1 (Msg_layer.count_for msg "ping_reply")

let test_rpc_charges_both_meters () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  Msg_layer.rpc msg ~src:arm ~label:"work" ~req_bytes:64 ~resp_bytes:64 ~handler:(fun () ->
      Meter.add (Env.meter env x86) 1234);
  Alcotest.(check bool) "handler work billed to peer" true (Meter.get (Env.meter env x86) >= 1234);
  Alcotest.(check bool) "requester waits at least the handler + 2 IPIs" true
    (Meter.get (Env.meter env arm)
    >= 1234 + (2 * Stramash_interconnect.Ipi.cross_isa_ipi_cycles))

let test_tcp_slower_than_shm () =
  let cost kind =
    let env = make_env () in
    let msg = Msg_layer.create kind env () in
    Msg_layer.rpc msg ~src:x86 ~label:"x" ~req_bytes:256 ~resp_bytes:256 ~handler:ignore;
    Meter.get (Env.meter env x86)
  in
  Alcotest.(check bool) "tcp rpc dearer than shm rpc" true
    (cost Msg_layer.Tcp > cost Msg_layer.Shm)

let test_notify_does_not_wait () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  Msg_layer.notify msg ~src:x86 ~label:"wake" ~bytes:64 ~handler:(fun () ->
      Meter.add (Env.meter env arm) 1_000_000);
  Alcotest.(check bool) "sender does not absorb handler time" true
    (Meter.get (Env.meter env x86) < 100_000);
  checki "one message" 1 (Msg_layer.message_count msg)

(* ---------- DSM ---------- *)

let vaddr0 = 0x10000000

(* All in-VMA faults must resolve; a typed error here is a test failure. *)
let fault dsm ~proc ~node ~vaddr ~write =
  match Dsm.handle_fault dsm ~proc ~node ~vaddr ~write with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected fault error: %s" (Fault.to_string e)

let walk_frame env proc node vaddr =
  let mm = Process.mm_exn proc node in
  let leaf = Page_table.walk mm.Process.pgtable (Env.silent_io env) ~vaddr in
  if Pte.present leaf then Some (Pte.frame ~isa:node leaf, Pte.flags ~isa:node leaf) else None

let test_origin_fault_allocates_locally () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  let dsm = Dsm.create env msg in
  let proc = make_proc env in
  fault dsm ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  (match walk_frame env proc x86 vaddr0 with
  | Some (frame, flags) ->
      Alcotest.(check bool) "frame in x86 memory" true
        (Layout.region_contains Layout.x86_private (frame lsl Addr.page_shift));
      Alcotest.(check bool) "writable" true flags.Pte.writable
  | None -> Alcotest.fail "not mapped");
  checki "no messages for local faults" 0 (Msg_layer.message_count msg);
  checki "no replication" 0 (Dsm.replicated_pages dsm)

let test_remote_read_replicates () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  let dsm = Dsm.create env msg in
  let proc = make_proc env in
  (* origin writes first -> owner at origin with content *)
  fault dsm ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  (match walk_frame env proc x86 vaddr0 with
  | Some (frame, _) -> Phys_mem.write_u64 env.Env.phys ((frame lsl Addr.page_shift) + 16) 0xABCL
  | None -> assert false);
  ignore (Env.ensure_mm env ~proc ~node:arm);
  fault dsm ~proc ~node:arm ~vaddr:(vaddr0 + 16) ~write:false;
  checki "one page replicated" 1 (Dsm.replicated_pages dsm);
  (match walk_frame env proc arm vaddr0 with
  | Some (frame, flags) ->
      Alcotest.(check bool) "replica is arm-local" true
        (Layout.region_contains Layout.arm_private (frame lsl Addr.page_shift));
      Alcotest.(check bool) "replica read-only" false flags.Pte.writable;
      Alcotest.(check int64) "content copied" 0xABCL
        (Phys_mem.read_u64 env.Env.phys ((frame lsl Addr.page_shift) + 16))
  | None -> Alcotest.fail "replica not mapped");
  Alcotest.(check bool) "messages exchanged" true (Msg_layer.message_count msg >= 2)

let test_remote_write_takes_ownership () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  let dsm = Dsm.create env msg in
  let proc = make_proc env in
  fault dsm ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  ignore (Env.ensure_mm env ~proc ~node:arm);
  fault dsm ~proc ~node:arm ~vaddr:vaddr0 ~write:true;
  (* the origin's PTE must now be gone (single-writer protocol) *)
  Alcotest.(check bool) "origin invalidated" true (walk_frame env proc x86 vaddr0 = None);
  (match walk_frame env proc arm vaddr0 with
  | Some (_, flags) -> Alcotest.(check bool) "arm owner writable" true flags.Pte.writable
  | None -> Alcotest.fail "arm not mapped")

let test_upgrade_from_read_copy () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  let dsm = Dsm.create env msg in
  let proc = make_proc env in
  fault dsm ~proc ~node:x86 ~vaddr:vaddr0 ~write:true;
  ignore (Env.ensure_mm env ~proc ~node:arm);
  fault dsm ~proc ~node:arm ~vaddr:vaddr0 ~write:false;
  let replicated_before = Dsm.replicated_pages dsm in
  fault dsm ~proc ~node:arm ~vaddr:vaddr0 ~write:true;
  checki "upgrade copies nothing" replicated_before (Dsm.replicated_pages dsm);
  Alcotest.(check bool) "other side invalidated" true (walk_frame env proc x86 vaddr0 = None)

let test_remote_anon_alloc_two_rounds () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  let dsm = Dsm.create env msg in
  let proc = make_proc env in
  ignore (Env.ensure_mm env ~proc ~node:arm);
  (* fresh page faulted first on the remote: allocation at origin, then
     replication — at least two request/response rounds (4 messages) *)
  fault dsm ~proc ~node:arm ~vaddr:vaddr0 ~write:false;
  Alcotest.(check bool) "two rounds minimum" true (Msg_layer.message_count msg >= 4);
  checki "page_alloc counted" 1 (Msg_layer.count_for msg "page_alloc")

let test_segfault_raises () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  let dsm = Dsm.create env msg in
  let proc = make_proc env in
  (match Dsm.handle_fault dsm ~proc ~node:x86 ~vaddr:0x666 ~write:false with
  | Error (Fault.Segfault { vaddr; _ }) -> checki "faulting address reported" 0x666 vaddr
  | Ok () -> Alcotest.fail "expected a segfault"
  | Error e -> Alcotest.failf "wrong error: %s" (Fault.to_string e))

let test_vma_fetched_remotely () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  let dsm = Dsm.create env msg in
  let proc = make_proc env in
  ignore (Env.ensure_mm env ~proc ~node:arm);
  fault dsm ~proc ~node:arm ~vaddr:vaddr0 ~write:false;
  checki "vma_req issued once" 1 (Msg_layer.count_for msg "vma_req");
  (* second fault in the same VMA does not refetch it *)
  fault dsm ~proc ~node:arm ~vaddr:(vaddr0 + 8192) ~write:false;
  checki "vma replica cached" 1 (Msg_layer.count_for msg "vma_req")

(* Protocol invariants survive arbitrary fault interleavings. *)
let prop_dsm_invariants =
  QCheck.Test.make ~name:"DSM single-writer invariants under random faults" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 60) (triple bool (int_range 0 15) bool))
    (fun ops ->
      let env = make_env () in
      let msg = Msg_layer.create Msg_layer.Shm env () in
      let dsm = Dsm.create env msg in
      let proc = make_proc env in
      ignore (Env.ensure_mm env ~proc ~node:arm);
      List.for_all
        (fun (at_arm, page, write) ->
          let node = if at_arm then arm else x86 in
          let vaddr = 0x10000000 + (page * 4096) + 64 in
          fault dsm ~proc ~node ~vaddr ~write;
          match Dsm.check_invariants dsm ~proc with
          | Ok () -> true
          | Error msg -> QCheck.Test.fail_report msg)
        ops)

let test_exit_releases_everything () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env () in
  let dsm = Dsm.create env msg in
  let proc = make_proc env in
  ignore (Env.ensure_mm env ~proc ~node:arm);
  let kernel n = Env.kernel env n in
  let used n = Stramash_kernel.Frame_alloc.used_frames (kernel n).Stramash_kernel.Kernel.frames in
  let base = (used x86, used arm) in
  for page = 0 to 9 do
    fault dsm ~proc ~node:x86 ~vaddr:(0x10000000 + (page * 4096)) ~write:true;
    fault dsm ~proc ~node:arm ~vaddr:(0x10000000 + (page * 4096)) ~write:(page mod 2 = 0)
  done;
  Alcotest.(check bool) "pages allocated" true (used x86 > fst base || used arm > snd base);
  Dsm.exit_process dsm ~proc;
  (* all user frames released; only PT/heap pages remain *)
  Alcotest.(check bool) "x86 back to structural baseline" true (used x86 <= fst base + 8);
  Alcotest.(check bool) "arm back to structural baseline" true (used arm <= snd base + 8)

let () =
  Alcotest.run "popcorn"
    [
      ( "msg_layer",
        [
          Alcotest.test_case "rpc counts" `Quick test_rpc_counts_two_messages;
          Alcotest.test_case "meters" `Quick test_rpc_charges_both_meters;
          Alcotest.test_case "tcp slower" `Quick test_tcp_slower_than_shm;
          Alcotest.test_case "notify" `Quick test_notify_does_not_wait;
        ] );
      ( "dsm",
        [
          Alcotest.test_case "origin local fault" `Quick test_origin_fault_allocates_locally;
          Alcotest.test_case "remote read replicates" `Quick test_remote_read_replicates;
          Alcotest.test_case "remote write owns" `Quick test_remote_write_takes_ownership;
          Alcotest.test_case "upgrade" `Quick test_upgrade_from_read_copy;
          Alcotest.test_case "remote anon = 2 rounds" `Quick test_remote_anon_alloc_two_rounds;
          Alcotest.test_case "segfault" `Quick test_segfault_raises;
          Alcotest.test_case "remote vma fetch" `Quick test_vma_fetched_remotely;
          Alcotest.test_case "exit releases frames" `Quick test_exit_releases_everything;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_dsm_invariants ]);
    ]
