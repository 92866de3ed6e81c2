(* Tests for the cache simulator: hierarchy behaviour, MESI coherence with
   CXL overheads, locality classification, write-backs, and agreement with
   the Ruby-style reference model. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Latency = Stramash_mem.Latency
module Config = Stramash_cache.Config
module Level = Stramash_cache.Level
module Mesi = Stramash_cache.Mesi
module Directory = Stramash_cache.Directory
module Cxl = Stramash_cache.Cxl
module Cache_sim = Stramash_cache.Cache_sim
module Ruby_ref = Stramash_cache.Ruby_ref
module Trace = Stramash_cache.Trace

let checki = Alcotest.(check int)
let x86 = Node_id.X86
let arm = Node_id.Arm

let fresh ?(hw = Layout.Shared) () = Cache_sim.create (Config.default hw)
let xg = Latency.of_core Latency.Xeon_gold

(* x86-private addresses are local to x86, remote to arm, in Shared mode *)
let a_local = 4096 * 17

let access c node kind paddr = Cache_sim.access c ~node kind ~paddr

(* ---------- Level ---------- *)

let test_level_lru () =
  let g = { Config.size = 4 * 64; ways = 4 } in
  (* one set, four ways *)
  let l = Level.create g in
  checki "capacity" 4 (Level.capacity_lines l);
  for i = 0 to 3 do
    Alcotest.(check (option int)) "no eviction while filling" None (Level.insert l ~line:i)
  done;
  (* touch 0 so 1 becomes LRU *)
  Alcotest.(check bool) "hit" true (Level.probe l ~line:0);
  Alcotest.(check (option int)) "LRU evicted" (Some 1) (Level.insert l ~line:99);
  Alcotest.(check bool) "0 still present" true (Level.contains l ~line:0);
  Alcotest.(check bool) "1 gone" false (Level.contains l ~line:1)

let test_level_invalidate () =
  let l = Level.create { Config.size = 8 * 64; ways = 2 } in
  ignore (Level.insert l ~line:5);
  Alcotest.(check bool) "invalidate present" true (Level.invalidate l ~line:5);
  Alcotest.(check bool) "second invalidate is a no-op" false (Level.invalidate l ~line:5)

(* ---------- Mesi / Directory ---------- *)

let test_mesi_transitions () =
  Alcotest.(check bool) "read vs M snoops data" true (Mesi.on_read ~other:Mesi.M = (Mesi.S, Mesi.S, Mesi.Snoop_data));
  Alcotest.(check bool) "read vs I takes E" true (Mesi.on_read ~other:Mesi.I = (Mesi.E, Mesi.I, Mesi.No_snoop));
  Alcotest.(check bool) "write vs S invalidates" true
    (Mesi.on_write ~other:Mesi.S = (Mesi.M, Mesi.I, Mesi.Snoop_invalidate));
  Alcotest.(check bool) "upgrade vs I silent" true (Mesi.on_upgrade ~other:Mesi.I = (Mesi.M, Mesi.I, Mesi.No_snoop))

let test_directory () =
  let d = Directory.create () in
  Alcotest.(check bool) "initially I" true (Directory.get d x86 ~line:7 = Mesi.I);
  Directory.set d x86 ~line:7 Mesi.M;
  Directory.set d arm ~line:7 Mesi.S;
  Alcotest.(check bool) "x86 M" true (Directory.get d x86 ~line:7 = Mesi.M);
  Alcotest.(check bool) "arm S" true (Directory.get d arm ~line:7 = Mesi.S);
  Directory.set d x86 ~line:7 Mesi.I;
  Alcotest.(check bool) "x86 back to I" true (not (Directory.holds d x86 ~line:7));
  Alcotest.(check bool) "arm unaffected" true (Directory.holds d arm ~line:7)

(* The directory against a [Hashtbl] model, over random set/get/holds
   sequences on clustered line numbers: dense runs at a few far-apart
   bases collide in the table, lines dropping back to I/I delete from the
   middle of probe chains, and more than 2048 live lines force growth. *)
let prop_directory_model =
  QCheck.Test.make ~name:"directory agrees with a Hashtbl model" ~count:20 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int (seed + 3)) in
      let d = Directory.create () in
      let model : (int * Node_id.t, Mesi.state) Hashtbl.t = Hashtbl.create 64 in
      let state line node = Option.value ~default:Mesi.I (Hashtbl.find_opt model (line, node)) in
      let bases = [| 0; 1 lsl 20; (1 lsl 30) + 17; 7 * 4096 |] in
      let span = 1200 + Rng.int rng 1200 in
      let random_line () = bases.(Rng.int rng 4) + Rng.int rng span in
      let states = [| Mesi.I; Mesi.I; Mesi.S; Mesi.E; Mesi.M |] in
      let agrees line =
        List.for_all
          (fun node ->
            Directory.get d node ~line = state line node
            && Directory.holds d node ~line = not (Mesi.equal (state line node) Mesi.I))
          Node_id.all
      in
      let ok = ref true in
      for step = 1 to 12_000 do
        let line = random_line () in
        let node = if Rng.bool rng then x86 else arm in
        (* a drain phase in the middle empties most chains, then refills *)
        let st =
          if step > 6_000 && step < 8_000 then Mesi.I
          else states.(Rng.int rng (Array.length states))
        in
        Directory.set d node ~line st;
        if Mesi.equal st Mesi.I then Hashtbl.remove model (line, node)
        else Hashtbl.replace model (line, node) st;
        if not (agrees line && agrees (random_line ())) then ok := false
      done;
      Array.iter
        (fun base ->
          for off = 0 to span - 1 do
            if not (agrees (base + off)) then ok := false
          done)
        bases;
      let expected =
        Hashtbl.fold (fun (line, _) _ acc -> line :: acc) model [] |> List.sort_uniq compare
      in
      let visited = ref [] in
      Directory.iter_lines d ~f:(fun line -> visited := line :: !visited);
      let visited = List.sort compare !visited in
      if not !ok then QCheck.Test.fail_report "get/holds disagree with the model"
      else if visited <> expected then
        QCheck.Test.fail_reportf "iter_lines visited %d lines, model holds %d"
          (List.length visited) (List.length expected)
      else List.length expected > 0)

(* ---------- Cache_sim basics ---------- *)

let test_miss_then_hit () =
  let c = fresh () in
  let first = access c x86 Cache_sim.Load a_local in
  Alcotest.(check bool) "first access pays memory latency" true (first >= xg.Latency.mem);
  let second = access c x86 Cache_sim.Load a_local in
  checki "second is an L1 hit" xg.Latency.l1 second;
  checki "one local mem fill" 1 (Cache_sim.stat c x86 "local_mem_hits");
  checki "two l1d accesses" 2 (Cache_sim.stat c x86 "l1d_accesses");
  checki "one l1d hit" 1 (Cache_sim.stat c x86 "l1d_hits")

let test_remote_memory_latency () =
  let c = fresh () in
  (* x86 private memory is remote for arm in the Shared model. *)
  let lat = access c arm Cache_sim.Load a_local in
  let tx2 = Latency.of_core Latency.Thunderx2 in
  Alcotest.(check bool) "arm pays remote latency" true (lat >= tx2.Latency.remote_mem);
  checki "remote hit counted" 1 (Cache_sim.stat c arm "remote_mem_hits")

let test_ring_classified_as_remote_shared () =
  let c = fresh () in
  let ring_addr = Layout.message_ring.Layout.lo + 128 in
  ignore (access c x86 Cache_sim.Load ring_addr);
  checki "ring access classified" 1 (Cache_sim.stat c x86 "remote_shared_mem_hits")

let test_write_invalidates_other_node () =
  let c = fresh () in
  ignore (access c x86 Cache_sim.Load a_local);
  ignore (access c arm Cache_sim.Load a_local);
  (* both nodes now hold the line Shared; a store must invalidate the peer *)
  let store_cost = access c x86 Cache_sim.Store a_local in
  Alcotest.(check bool) "upgrade pays snoop-invalidate" true
    (store_cost >= Cxl.default.Cxl.snoop_invalidate);
  checki "snoop invalidation counted" 1 (Cache_sim.stat c x86 "snoop_invalidates");
  (* the peer must re-miss *)
  let arm_again = access c arm Cache_sim.Load a_local in
  Alcotest.(check bool) "peer misses after invalidation" true (arm_again > xg.Latency.l1)

let test_read_of_modified_snoops_data () =
  let c = fresh () in
  ignore (access c x86 Cache_sim.Store a_local);
  ignore (access c arm Cache_sim.Load a_local);
  checki "snoop data counted at reader" 1 (Cache_sim.stat c arm "snoop_data")

let test_writeback_counted () =
  let c = fresh () in
  let cfg = Cache_sim.config c in
  let l3_lines = cfg.Config.l3.Config.size / 64 in
  (* dirty many lines, then stream far past the L3 capacity *)
  for i = 0 to 63 do
    ignore (access c x86 Cache_sim.Store (a_local + (i * 64)))
  done;
  for i = 0 to (4 * l3_lines) - 1 do
    ignore (access c x86 Cache_sim.Load (Addr.mib 64 + (i * 64)))
  done;
  Alcotest.(check bool) "dirty evictions produce writebacks" true
    (Cache_sim.stat c x86 "writebacks" > 0)

let test_writeback_hook_fires () =
  let c = fresh () in
  let fired = ref 0 in
  Cache_sim.set_writeback_hook c (Some (fun _node ~line:_ -> incr fired));
  let cfg = Cache_sim.config c in
  let l3_lines = cfg.Config.l3.Config.size / 64 in
  for i = 0 to 63 do
    ignore (access c x86 Cache_sim.Store (a_local + (i * 64)))
  done;
  for i = 0 to (4 * l3_lines) - 1 do
    ignore (access c x86 Cache_sim.Load (Addr.mib 64 + (i * 64)))
  done;
  Alcotest.(check bool) "hook fired" true (!fired > 0);
  checki "hook count matches stat" (Cache_sim.stat c x86 "writebacks") !fired

let test_fully_shared_single_l3 () =
  let c = fresh ~hw:Layout.Fully_shared () in
  ignore (access c x86 Cache_sim.Load a_local);
  (* same line from the other node: shared L3 should hit *)
  let lat = access c arm Cache_sim.Load a_local in
  let tx2 = Latency.of_core Latency.Thunderx2 in
  Alcotest.(check bool) "arm hits the shared L3" true (lat < tx2.Latency.mem);
  checki "no remote hits in fully shared" 0 (Cache_sim.stat c arm "remote_mem_hits")

let test_atomic_costs_more () =
  let c = fresh () in
  ignore (access c x86 Cache_sim.Store a_local);
  let plain = access c x86 Cache_sim.Store a_local in
  let atomic = Cache_sim.atomic_rmw c ~node:x86 ~paddr:a_local in
  Alcotest.(check bool) "atomic > plain store" true (atomic > plain)

let test_access_bytes_spans_lines () =
  let c = fresh () in
  ignore (Cache_sim.access_bytes c ~node:x86 Cache_sim.Load ~paddr:(a_local + 32) ~len:64);
  checki "two lines touched" 2 (Cache_sim.stat c x86 "l1d_accesses")

let test_ifetch_uses_l1i () =
  let c = fresh () in
  ignore (access c x86 Cache_sim.Ifetch a_local);
  checki "l1i access" 1 (Cache_sim.stat c x86 "l1i_accesses");
  checki "no l1d access" 0 (Cache_sim.stat c x86 "l1d_accesses")

(* ---------- property: plugin vs Ruby agreement on random traces ---------- *)

let prop_ruby_agreement =
  QCheck.Test.make ~name:"plugin and ruby hit rates agree within 8% on random traces" ~count:10
    QCheck.small_int (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int (seed + 1)) in
      let c = fresh () in
      let trace = Trace.create () in
      Trace.attach trace c;
      (* clustered random accesses: 64 hot pages + uniform noise *)
      for _ = 1 to 30_000 do
        let node = if Rng.bool rng then x86 else arm in
        let kind = if Rng.int rng 10 < 3 then Cache_sim.Store else Cache_sim.Load in
        let paddr =
          if Rng.int rng 10 < 8 then 4096 * (1 + Rng.int rng 64) + (Rng.int rng 64 * 64)
          else Rng.int rng (Addr.mib 16)
        in
        ignore (Cache_sim.access c ~node kind ~paddr)
      done;
      Cache_sim.set_probe c None;
      let ruby = Ruby_ref.create (Cache_sim.config c) in
      Trace.replay_into_ruby trace ruby;
      List.for_all
        (fun node ->
          List.for_all
            (fun level ->
              Float.abs (Cache_sim.hit_rate c node level -. Ruby_ref.hit_rate ruby node level)
              < 0.08)
            [ "l1d"; "l2" ])
        Node_id.all)

(* MESI + inclusion invariants hold after arbitrary access interleavings,
   on all three hardware models. *)
let prop_consistency =
  QCheck.Test.make ~name:"cache invariants hold under random interleavings" ~count:30
    QCheck.(pair (int_range 0 2) small_int)
    (fun (model_idx, seed) ->
      let hw = List.nth Layout.all_hw_models model_idx in
      let c = fresh ~hw () in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 7)) in
      for _ = 1 to 5_000 do
        let node = if Rng.bool rng then x86 else arm in
        let kind =
          match Rng.int rng 3 with 0 -> Cache_sim.Ifetch | 1 -> Cache_sim.Load | _ -> Cache_sim.Store
        in
        (* concentrated addresses to force evictions and sharing *)
        let paddr = 4096 * Rng.int rng 128 + (64 * Rng.int rng 64) in
        ignore (Cache_sim.access c ~node kind ~paddr)
      done;
      match Cache_sim.check_consistency c with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let test_consistency_after_atomics () =
  let c = fresh () in
  for i = 0 to 500 do
    ignore (Cache_sim.atomic_rmw c ~node:(if i mod 2 = 0 then x86 else arm) ~paddr:(64 * (i mod 7)))
  done;
  Alcotest.(check bool) "consistent" true (Cache_sim.check_consistency c = Ok ())

(* ---------- zero allocation on the per-access path ---------- *)

(* A fixed stream over both nodes and all three access kinds: a hot set
   (L0/L1 hits, and loads by both nodes followed by stores, i.e. S->M
   upgrades that snoop the peer) mixed with a cold set three times the L3
   size (L2/L3 hits, full misses with dirty evictions, and back-invalidates
   from a shared L3). Precomputed, so replaying it allocates nothing of
   its own. *)
let alloc_stream ~seed =
  let n = 60_000 in
  let rng = Rng.create ~seed in
  let l3_lines = (Config.default Layout.Shared).Config.l3.Config.size / 64 in
  let nodes = Array.make n x86 and kinds = Array.make n Cache_sim.Load in
  let addrs = Array.make n 0 in
  for i = 0 to n - 1 do
    nodes.(i) <- (if Rng.bool rng then x86 else arm);
    kinds.(i) <-
      (match Rng.int rng 10 with
      | 0 -> Cache_sim.Ifetch
      | 1 | 2 | 3 -> Cache_sim.Store
      | _ -> Cache_sim.Load);
    (* cold lines alternate between the two private ranges and the pool,
       so every locality class is filled *)
    addrs.(i) <-
      (if Rng.int rng 10 < 7 then a_local + (64 * Rng.int rng 96)
       else
         let line = Rng.int rng (3 * l3_lines) in
         [| Addr.mib 64; Layout.arm_private.Layout.lo; Addr.gib 5 |].(line mod 3)
         + (64 * line))
  done;
  (nodes, kinds, addrs)

let replay c (nodes, kinds, addrs) =
  for i = 0 to Array.length addrs - 1 do
    ignore (Cache_sim.access c ~node:(Array.unsafe_get nodes i) (Array.unsafe_get kinds i)
              ~paddr:(Array.unsafe_get addrs i))
  done

(* One counter per path the stream aims at, per node. *)
let path_counters c =
  let stats =
    [ "l1d_hits"; "l2_hits"; "l3_hits"; "local_mem_hits"; "remote_mem_hits"; "writebacks";
      "snoop_invalidates"; "snoop_data"; "back_invalidations" ]
  in
  List.concat_map
    (fun node ->
      List.map
        (fun name -> (Node_id.to_string node ^ "." ^ name, Cache_sim.stat c node name))
        stats)
    Node_id.all
  @ Cache_sim.fastpath_stats c

let test_access_allocates_nothing hw mode () =
  let c = fresh ~hw () in
  Cache_sim.set_mode c mode;
  let fired = ref 0 in
  Cache_sim.set_writeback_hook c (Some (fun _node ~line:_ -> incr fired));
  let ((_, _, addrs) as stream) = alloc_stream ~seed:11L in
  (* warm-up: every table reaches its steady-state size *)
  replay c stream;
  replay c stream;
  let before = path_counters c and fired_before = !fired in
  let w0 = Gc.minor_words () in
  replay c stream;
  let words = int_of_float (Gc.minor_words () -. w0) in
  (* a few words are the boxed floats of reading the counter *)
  Alcotest.(check bool)
    (Printf.sprintf "%d minor words over %d accesses" words (Array.length addrs))
    true (words <= 8);
  Alcotest.(check bool) "write-back hook fired" true (!fired > fired_before);
  (* the measured pass exercised every path the stream aims at; paths a
     model or mode cannot take are exempt *)
  let exempt name =
    let ends_with suffix = String.ends_with ~suffix name in
    (ends_with "l0_hits" || ends_with "l0_misses") && mode = Cache_sim.Reference
    || ends_with "back_invalidations" && hw <> Layout.Fully_shared
    || ends_with "remote_mem_hits" && hw = Layout.Fully_shared
  in
  List.iter2
    (fun (name, a) (_, b) ->
      if not (exempt name) then
        Alcotest.(check bool) (name ^ " taken in measured pass") true (b > a))
    before (path_counters c)

let alloc_cases =
  List.concat_map
    (fun hw ->
      List.map
        (fun (mode, mname) ->
          Alcotest.test_case
            (Printf.sprintf "%s %s" (Layout.hw_model_to_string hw) mname)
            `Quick (test_access_allocates_nothing hw mode))
        [ (Cache_sim.Fast, "fast"); (Cache_sim.Reference, "reference") ])
    Layout.all_hw_models

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ruby_agreement; prop_consistency; prop_directory_model ]

let () =
  Alcotest.run "cache"
    [
      ( "level",
        [
          Alcotest.test_case "lru" `Quick test_level_lru;
          Alcotest.test_case "invalidate" `Quick test_level_invalidate;
        ] );
      ( "mesi",
        [
          Alcotest.test_case "transitions" `Quick test_mesi_transitions;
          Alcotest.test_case "directory" `Quick test_directory;
        ] );
      ( "cache_sim",
        [
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "remote latency" `Quick test_remote_memory_latency;
          Alcotest.test_case "ring classification" `Quick test_ring_classified_as_remote_shared;
          Alcotest.test_case "write invalidates peer" `Quick test_write_invalidates_other_node;
          Alcotest.test_case "read of M snoops data" `Quick test_read_of_modified_snoops_data;
          Alcotest.test_case "writebacks counted" `Quick test_writeback_counted;
          Alcotest.test_case "writeback hook" `Quick test_writeback_hook_fires;
          Alcotest.test_case "fully shared L3" `Quick test_fully_shared_single_l3;
          Alcotest.test_case "atomic cost" `Quick test_atomic_costs_more;
          Alcotest.test_case "access_bytes" `Quick test_access_bytes_spans_lines;
          Alcotest.test_case "ifetch l1i" `Quick test_ifetch_uses_l1i;
          Alcotest.test_case "consistency after atomics" `Quick test_consistency_after_atomics;
        ] );
      ("zero alloc", alloc_cases);
      ("properties", qsuite);
    ]
