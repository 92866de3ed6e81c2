(* Tests for the hot-path memory pipeline: the L0 line filters, the fused
   TLB translate, and the phys page-pointer cache must be *bit- and
   cycle-identical* to the reference path. Every test here compares Fast
   (and Paranoid) against Reference, or exercises an invalidation edge the
   fast path must observe: TLB shootdown, MESI snoop, M-state downgrade,
   eviction + refill at the same way. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Metrics = Stramash_sim.Metrics
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Phys_mem = Stramash_mem.Phys_mem
module Config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Tlb = Stramash_kernel.Tlb
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module W = Stramash_workloads

let checki = Alcotest.(check int)
let x86 = Node_id.X86
let arm = Node_id.Arm

let fresh mode ?(hw = Layout.Shared) () =
  let c = Cache_sim.create (Config.default hw) in
  Cache_sim.set_mode c mode;
  c

(* Drive the same access sequence through a fast-mode and a reference-mode
   simulator; every returned latency must match, and so must the full
   per-node stat registries afterwards. *)
let check_lockstep ?(hw = Layout.Shared) trace =
  let fast = fresh Cache_sim.Fast ~hw () in
  let ref_ = fresh Cache_sim.Reference ~hw () in
  List.iteri
    (fun i (node, kind, paddr) ->
      let lf = Cache_sim.access fast ~node kind ~paddr in
      let lr = Cache_sim.access ref_ ~node kind ~paddr in
      if lf <> lr then
        Alcotest.failf "access %d (%s paddr=0x%x): fast=%d reference=%d" i
          (Node_id.to_string node) paddr lf lr)
    trace;
  Alcotest.(check (list (pair string int)))
    "stat registries identical"
    (Metrics.to_assoc (Cache_sim.stats ref_))
    (Metrics.to_assoc (Cache_sim.stats fast));
  (match Cache_sim.check_consistency fast with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fast-mode invariants: %s" msg);
  fast

let a = 4096 * 17 (* x86-private page *)

let test_l0_hit_counted () =
  let fast =
    check_lockstep
      [ (x86, Cache_sim.Load, a); (x86, Cache_sim.Load, a); (x86, Cache_sim.Load, a) ]
  in
  (* the filter fills on a slow-path L1 hit (the first repeat), so the
     second repeat is the first to answer from L0 *)
  checki "l0 hits" 1 (Cache_sim.stat fast x86 "l0_hits");
  checki "l0 misses" 2 (Cache_sim.stat fast x86 "l0_misses")

let test_snoop_invalidation_seen () =
  (* Peer store invalidates the line while it sits in x86's L0: the next
     x86 access must re-miss exactly like the reference. *)
  ignore
    (check_lockstep
       [
         (x86, Cache_sim.Load, a);
         (x86, Cache_sim.Load, a);
         (arm, Cache_sim.Store, a);
         (x86, Cache_sim.Load, a);
         (x86, Cache_sim.Load, a);
       ])

let test_m_downgrade_store_upgrade () =
  (* A store L1-hit leaves the line M and sets the L0 store_m bit. A peer
     read downgrades M->S behind the filter's back; the next local store
     must pay the upgrade, not take the zero-cost M short-circuit. *)
  ignore
    (check_lockstep
       [
         (x86, Cache_sim.Store, a);
         (x86, Cache_sim.Store, a);
         (arm, Cache_sim.Load, a);
         (x86, Cache_sim.Store, a);
         (arm, Cache_sim.Load, a);
         (x86, Cache_sim.Store, a);
       ])

let test_eviction_refill_same_way () =
  (* Stream enough conflicting lines through one set to evict [a] and
     refill its way with another line; a stale L0 entry pointing at that
     way must not validate. *)
  let cfg = Config.default Layout.Shared in
  let sets = cfg.Config.l1d.Config.size / 64 / cfg.Config.l1d.Config.ways in
  let stride = sets * 64 in
  let conflicting = List.init 16 (fun i -> (x86, Cache_sim.Load, a + (i + 1) * stride)) in
  ignore
    (check_lockstep
       ((x86, Cache_sim.Load, a) :: (x86, Cache_sim.Load, a) :: conflicting
       @ [ (x86, Cache_sim.Load, a) ]))

let prop_mode_equivalence =
  QCheck.Test.make
    ~name:"fast and reference modes are cycle- and stat-identical on random traces" ~count:20
    QCheck.(pair (int_range 0 2) small_int)
    (fun (model_idx, seed) ->
      let hw = List.nth Layout.all_hw_models model_idx in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 11)) in
      let trace =
        List.init 8_000 (fun _ ->
            let node = if Rng.bool rng then x86 else arm in
            let kind =
              match Rng.int rng 4 with
              | 0 -> Cache_sim.Ifetch
              | 1 | 2 -> Cache_sim.Load
              | _ -> Cache_sim.Store
            in
            (* concentrated addresses: repeats (L0 hits), evictions, sharing *)
            let paddr = (4096 * Rng.int rng 96) + (64 * Rng.int rng 64) in
            (node, kind, paddr))
      in
      ignore (check_lockstep ~hw trace);
      true)

let prop_paranoid_never_diverges =
  QCheck.Test.make ~name:"paranoid mode survives random traces without divergence" ~count:10
    QCheck.small_int (fun seed ->
      let c = fresh Cache_sim.Paranoid () in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 3)) in
      for _ = 1 to 8_000 do
        let node = if Rng.bool rng then x86 else arm in
        let kind =
          match Rng.int rng 4 with
          | 0 -> Cache_sim.Ifetch
          | 1 | 2 -> Cache_sim.Load
          | _ -> Cache_sim.Store
        in
        let paddr = (4096 * Rng.int rng 96) + (64 * Rng.int rng 64) in
        ignore (Cache_sim.access c ~node kind ~paddr)
      done;
      Cache_sim.check_consistency c = Ok ())

(* ---------- fused TLB ---------- *)

let test_translate_matches_lookup () =
  let t = Tlb.create () in
  Tlb.insert t ~asid:1 ~vpage:42 { Tlb.frame = 7; writable = false };
  checki "read hit returns frame" 7 (Tlb.translate t ~asid:1 ~vpage:42 ~write:false);
  (* a write against a read-only entry is a *hit* (the slot holds the
     translation) that the caller must resolve with a walk *)
  checki "write on read-only entry" Tlb.not_writable (Tlb.translate t ~asid:1 ~vpage:42 ~write:true);
  checki "wrong asid misses" Tlb.miss (Tlb.translate t ~asid:2 ~vpage:42 ~write:false);
  checki "hits counted" 2 (Tlb.hits t);
  checki "misses counted" 1 (Tlb.misses t)

let test_translate_sees_shootdown () =
  let t = Tlb.create () in
  Tlb.insert t ~asid:1 ~vpage:42 { Tlb.frame = 7; writable = true };
  checki "hit before shootdown" 7 (Tlb.translate t ~asid:1 ~vpage:42 ~write:true);
  Tlb.flush_page t ~vpage:42;
  checki "miss after shootdown" Tlb.miss (Tlb.translate t ~asid:1 ~vpage:42 ~write:true);
  Tlb.insert t ~asid:1 ~vpage:42 { Tlb.frame = 9; writable = true };
  Tlb.flush_all t;
  checki "miss after full flush" Tlb.miss (Tlb.translate t ~asid:1 ~vpage:42 ~write:false)

(* Reference model of the default 64-entry direct-mapped TLB: an
   option-returning lookup over a plain slot array, whose composition
   with the caller's writability match is what [Tlb.translate] fuses. *)
module Tlb_model = struct
  type t = {
    slots : (int * int * Tlb.entry) option array;
    mutable hits : int;
    mutable misses : int;
  }

  let create () = { slots = Array.make 64 None; hits = 0; misses = 0 }
  let slot vpage = vpage land 63
  let insert t ~asid ~vpage e = t.slots.(slot vpage) <- Some (asid, vpage, e)

  let flush_page t ~vpage =
    match t.slots.(slot vpage) with
    | Some (_, v, _) when v = vpage -> t.slots.(slot vpage) <- None
    | _ -> ()

  let lookup t ~asid ~vpage =
    match t.slots.(slot vpage) with
    | Some (a, v, e) when a = asid && v = vpage ->
        t.hits <- t.hits + 1;
        Some e
    | _ ->
        t.misses <- t.misses + 1;
        None
end

let prop_translate_equals_lookup =
  QCheck.Test.make ~name:"Tlb.translate agrees with Tlb.lookup on random op streams" ~count:30
    QCheck.small_int (fun seed ->
      let a_ = Tlb_model.create () and b = Tlb.create () in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 5)) in
      for _ = 1 to 2_000 do
        let asid = Rng.int rng 3 and vpage = Rng.int rng 200 in
        match Rng.int rng 6 with
        | 0 ->
            let e = { Tlb.frame = Rng.int rng 1000; writable = Rng.bool rng } in
            Tlb_model.insert a_ ~asid ~vpage e;
            Tlb.insert b ~asid ~vpage e
        | 1 ->
            Tlb_model.flush_page a_ ~vpage;
            Tlb.flush_page b ~vpage
        | _ ->
            let write = Rng.bool rng in
            let via_lookup =
              match Tlb_model.lookup a_ ~asid ~vpage with
              | Some e when (not write) || e.Tlb.writable -> e.Tlb.frame
              | Some _ -> Tlb.not_writable
              | None -> Tlb.miss
            in
            let fused = Tlb.translate b ~asid ~vpage ~write in
            if via_lookup <> fused then
              QCheck.Test.fail_reportf "asid=%d vpage=%d write=%b: lookup=%d translate=%d" asid
                vpage write via_lookup fused
      done;
      a_.Tlb_model.hits = Tlb.hits b && a_.Tlb_model.misses = Tlb.misses b)

(* ---------- phys page-pointer cache ---------- *)

let prop_phys_u64_equals_generic =
  QCheck.Test.make ~name:"width-specialised phys accessors match the generic path" ~count:30
    QCheck.small_int (fun seed ->
      let p = Phys_mem.create () and q = Phys_mem.create () in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 9)) in
      for _ = 1 to 2_000 do
        (* aliased frames: exercise cache-slot conflicts (slot = frame mod slots) *)
        let a_ = (Rng.int rng 2048 * Addr.page_size) + (8 * Rng.int rng 512) in
        let v = Rng.next_int64 rng in
        if Rng.bool rng then begin
          Phys_mem.write_u64 p a_ v;
          Phys_mem.write q a_ ~width:8 v
        end
        else if Phys_mem.read_u64 p a_ <> Phys_mem.read q a_ ~width:8 then
          QCheck.Test.fail_reportf "read mismatch at 0x%x" a_
      done;
      Phys_mem.self_check p = Ok ())

(* ---------- whole-machine equivalence ---------- *)

let result_fingerprint (r : Runner.result) =
  ( ( r.Runner.wall_cycles,
      Array.to_list r.Runner.node_cycles,
      Array.to_list r.Runner.node_icounts,
      r.Runner.instructions,
      Array.to_list r.Runner.tlb_misses ),
    ( r.Runner.migrations,
      r.Runner.messages,
      r.Runner.replicated_pages,
      Array.to_list r.Runner.node_user_stalls,
      Array.to_list r.Runner.node_idle,
      r.Runner.phase_marks ) )

let npb_small = Stramash_harness.Npb_experiments.benchmarks ~small:true

let run_mode ~os ~cache_mode (_, spec) =
  let machine = Machine.create { Machine.default_config with os; cache_mode } in
  let proc, thread = Machine.load machine spec in
  Runner.run machine proc thread spec

let test_npb_fast_equals_reference () =
  List.iter
    (fun ((name, _) as bench) ->
      List.iter
        (fun os ->
          let fast = run_mode ~os ~cache_mode:Cache_sim.Fast bench in
          let ref_ = run_mode ~os ~cache_mode:Cache_sim.Reference bench in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s result fingerprints equal" name (Machine.os_choice_name os))
            true
            (result_fingerprint fast = result_fingerprint ref_);
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s/%s cache registries equal" name (Machine.os_choice_name os))
            (Metrics.to_assoc ref_.Runner.cache)
            (Metrics.to_assoc fast.Runner.cache);
          (* the fast run actually took the fast path *)
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s fast run used the L0 filter" name (Machine.os_choice_name os))
            true
            (Array.fold_left ( + ) 0 fast.Runner.ext.Runner.l0_hits > 0);
          checki
            (Printf.sprintf "%s/%s reference run has no L0 traffic" name
               (Machine.os_choice_name os))
            0
            (Array.fold_left ( + ) 0 ref_.Runner.ext.Runner.l0_hits
            + Array.fold_left ( + ) 0 ref_.Runner.ext.Runner.l0_misses))
        [ Machine.Vanilla; Machine.Stramash_kernel_os; Machine.Popcorn_shm ])
    npb_small

let test_npb_paranoid_clean () =
  (* Paranoid cross-checks every access against the reference engine and
     audits invariants at quantum boundaries; any divergence raises. The
     migrating Stramash config also covers page replication + shootdown
     invalidation under the filters. *)
  List.iter
    (fun ((name, _) as bench) ->
      let par = run_mode ~os:Machine.Stramash_kernel_os ~cache_mode:Cache_sim.Paranoid bench in
      let ref_ = run_mode ~os:Machine.Stramash_kernel_os ~cache_mode:Cache_sim.Reference bench in
      Alcotest.(check bool)
        (name ^ " paranoid matches reference")
        true
        (result_fingerprint par = result_fingerprint ref_))
    [ List.hd npb_small ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mode_equivalence;
      prop_paranoid_never_diverges;
      prop_translate_equals_lookup;
      prop_phys_u64_equals_generic;
    ]

let () =
  Alcotest.run "fastpath"
    [
      ( "l0",
        [
          Alcotest.test_case "hit counted" `Quick test_l0_hit_counted;
          Alcotest.test_case "snoop invalidation" `Quick test_snoop_invalidation_seen;
          Alcotest.test_case "M downgrade upgrade cost" `Quick test_m_downgrade_store_upgrade;
          Alcotest.test_case "eviction refill same way" `Quick test_eviction_refill_same_way;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "translate matches lookup" `Quick test_translate_matches_lookup;
          Alcotest.test_case "shootdown" `Quick test_translate_sees_shootdown;
        ] );
      ( "machine",
        [
          Alcotest.test_case "npb fast = reference" `Slow test_npb_fast_equals_reference;
          Alcotest.test_case "npb paranoid clean" `Slow test_npb_paranoid_clean;
        ] );
      ("properties", qsuite);
    ]
