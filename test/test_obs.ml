(* Tests for the observability subsystem: span nesting and attribution
   arithmetic, ring overflow, Chrome-export determinism, probe chaining,
   and the end-to-end meter-agreement property on a traced run. *)

module Node_id = Stramash_sim.Node_id
module Metrics = Stramash_sim.Metrics
module Cache_config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Layout = Stramash_mem.Layout
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module W = Stramash_workloads
module Obs = Stramash_obs
module Trace = Stramash_obs.Trace
module Json = Stramash_obs.Json

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let find_row tracer ~subsys ~op =
  match
    List.find_opt
      (fun (r : Trace.row) -> r.Trace.subsys = subsys && r.Trace.op = op)
      (Trace.attribution tracer)
  with
  | Some r -> r
  | None -> Alcotest.fail (Printf.sprintf "no attribution row for %s/%s" subsys op)

(* ---------- span arithmetic ---------- *)

let test_span_nesting_arithmetic () =
  let t = Trace.create () in
  Trace.install t;
  let a = Trace.span ~at:0 ~node:Node_id.X86 ~subsys:"s" ~op:"a" () in
  let b = Trace.span ~at:10 ~node:Node_id.X86 ~subsys:"s" ~op:"b" () in
  Trace.close ~at:30 b;
  Trace.close ~at:100 a;
  Trace.uninstall ();
  let ra = find_row t ~subsys:"s" ~op:"a" in
  let rb = find_row t ~subsys:"s" ~op:"b" in
  checki "a inclusive" 100 ra.Trace.total_cycles;
  checki "a self excludes child" 80 ra.Trace.self_cycles;
  checki "b inclusive" 20 rb.Trace.total_cycles;
  checki "b self" 20 rb.Trace.self_cycles;
  checki "a max" 100 ra.Trace.max_cycles;
  checki "x86 attribution" 100 ra.Trace.node_cycles.(Node_id.index Node_id.X86);
  checki "arm untouched" 0 ra.Trace.node_cycles.(Node_id.index Node_id.Arm);
  checki "top-level coverage" 100 (Trace.node_span_cycles t Node_id.X86);
  checki "nothing left open" 0 (Trace.open_spans t)

let test_spans_nest_per_node () =
  (* spans on different nodes must not treat each other as parent/child *)
  let t = Trace.create () in
  Trace.install t;
  let a = Trace.span ~at:0 ~node:Node_id.X86 ~subsys:"s" ~op:"a" () in
  let b = Trace.span ~at:0 ~node:Node_id.Arm ~subsys:"s" ~op:"b" () in
  Trace.close ~at:50 b;
  Trace.close ~at:100 a;
  Trace.uninstall ();
  let ra = find_row t ~subsys:"s" ~op:"a" in
  checki "a self not reduced by arm span" 100 ra.Trace.self_cycles;
  checki "arm top-level" 50 (Trace.node_span_cycles t Node_id.Arm)

let test_disabled_recording_is_inert () =
  Trace.uninstall ();
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  let sp = Trace.span ~node:Node_id.X86 ~subsys:"s" ~op:"a" () in
  Alcotest.(check bool) "inert handle" true (sp == Trace.null);
  Trace.close sp;
  Trace.instant ~subsys:"s" ~op:"e" ()

let test_filter_restricts_subsystems () =
  let t = Trace.create ~filter:[ "keep" ] () in
  Trace.install t;
  Trace.instant ~at:1 ~node:Node_id.X86 ~subsys:"keep" ~op:"x" ();
  Trace.instant ~at:2 ~node:Node_id.X86 ~subsys:"drop" ~op:"y" ();
  let sp = Trace.span ~at:0 ~node:Node_id.X86 ~subsys:"drop" ~op:"z" () in
  Alcotest.(check bool) "filtered span is inert" true (sp == Trace.null);
  Trace.close ~at:9 sp;
  Trace.uninstall ();
  checki "one event" 1 (Trace.recorded t);
  Alcotest.(check (list string)) "subsystems" [ "keep" ] (Trace.subsystems t)

(* ---------- ring overflow ---------- *)

let test_ring_overflow () =
  let t = Trace.create ~capacity:4 () in
  Trace.install t;
  for i = 1 to 10 do
    Trace.instant ~at:i ~node:Node_id.X86 ~subsys:"s" ~op:"tick" ()
  done;
  Trace.uninstall ();
  checki "all recorded" 10 (Trace.recorded t);
  checki "overflow counted" 6 (Trace.dropped t);
  let evs = Trace.events t in
  checki "ring keeps newest" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Trace.ev_ts) evs);
  (* attribution is folded at record time, so overflow never loses counts *)
  checki "attribution survives overflow" 10 (find_row t ~subsys:"s" ~op:"tick").Trace.count

(* ---------- Chrome export ---------- *)

let trace_npb_is () =
  let t = Trace.create () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let spec =
        W.Npb_is.spec ~params:{ W.Npb_is.nkeys = 16384; max_key = 1024; iterations = 2 } ()
      in
      let machine = Machine.create { Machine.default_config with os = Machine.Stramash_kernel_os } in
      let proc, thread = Machine.load machine spec in
      let result = Runner.run machine proc thread spec in
      (t, result))

let test_chrome_export_deterministic () =
  let t1, _ = trace_npb_is () in
  let t2, _ = trace_npb_is () in
  let s1 = Trace.chrome_string t1 and s2 = Trace.chrome_string t2 in
  Alcotest.(check bool) "nonempty" true (String.length s1 > 2);
  checks "identical runs export identical traces" s1 s2;
  (match Json.parse s1 with
  | Error e -> Alcotest.fail ("chrome export is not valid JSON: " ^ e)
  | Ok j -> (
      match Option.bind (Json.member "traceEvents" j) Json.get_list with
      | Some evs -> Alcotest.(check bool) "has events" true (List.length evs > 0)
      | None -> Alcotest.fail "traceEvents missing"));
  match Json.parse (Trace.jsonl_string t1) with
  | Ok _ -> () (* first line parses as an object; good enough *)
  | Error _ ->
      (* jsonl is line-delimited; validate each line instead *)
      String.split_on_char '\n' (Trace.jsonl_string t1)
      |> List.iter (fun line ->
             if line <> "" then
               match Json.parse line with
               | Ok _ -> ()
               | Error e -> Alcotest.fail ("bad jsonl line: " ^ e))

let test_traced_run_covers_subsystems_and_agrees_with_meters () =
  let t, result = trace_npb_is () in
  let subs = Trace.subsystems t in
  Alcotest.(check bool)
    (Printf.sprintf "at least 8 subsystems (got %s)" (String.concat "," subs))
    true
    (List.length subs >= 8);
  List.iter
    (fun node ->
      let meter = result.Runner.node_cycles.(Node_id.index node) in
      let spans = Trace.node_span_cycles t node in
      let drift = abs (meter - spans) in
      Alcotest.(check bool)
        (Printf.sprintf "%s span coverage within 1%% of meter (meter=%d spans=%d)"
           (Node_id.to_string node) meter spans)
        true
        (float_of_int drift <= 0.01 *. float_of_int meter))
    Node_id.all;
  (* the runner's top spans also appear in the attribution table *)
  let run_row = find_row t ~subsys:"runner" ~op:"run" in
  checki "one top span per node" 2 run_row.Trace.count

(* ---------- known subsystems ---------- *)

(* Every subsystem a real traced run records under must be one the CLI's
   --trace-filter accepts, or filtering on it would be rejected; tracing
   a fault campaign and a small serve campaign (which spans Popcorn-SHM,
   placement, chaos, gray and scrub cells) keeps the list from going
   stale as instrumentation is added. *)
let test_known_subsystems_cover_recorded_runs () =
  let recorded run =
    let t = Trace.create () in
    Trace.install t;
    Fun.protect ~finally:Trace.uninstall run;
    List.sort_uniq compare
      (List.map (fun (r : Trace.row) -> r.Trace.subsys) (Trace.attribution t)
      @ List.map fst (Trace.blocked_rows t))
  in
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let faults =
    recorded (fun () ->
        ignore
          (Stramash_harness.Fault_experiments.campaign null
             { Stramash_harness.Fault_experiments.default with seed = 42L }))
  in
  let serve =
    recorded (fun () ->
        let module SE = Stramash_harness.Serve_experiments in
        ignore (SE.campaign null { SE.default with keys = 16_384; requests = 2_000 }))
  in
  Alcotest.(check bool) "faults run recorded injected faults" true (List.mem "fault" faults);
  Alcotest.(check bool) "serve run recorded popcorn dsm" true (List.mem "dsm" serve);
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " is a known subsystem") true (List.mem s Trace.known_subsystems))
    (faults @ serve);
  Alcotest.(check (list string)) "sorted, no duplicates"
    (List.sort_uniq compare Trace.known_subsystems) Trace.known_subsystems

(* ---------- probe chaining ---------- *)

let test_probe_chaining () =
  let cache = Cache_sim.create (Cache_config.default Layout.Shared) in
  let hits_a = ref 0 and hits_b = ref 0 and order = ref [] in
  Cache_sim.add_probe cache (fun _ _ _ ->
      incr hits_a;
      order := "a" :: !order);
  Cache_sim.add_probe cache (fun _ _ _ ->
      incr hits_b;
      order := "b" :: !order);
  ignore (Cache_sim.access cache ~node:Node_id.X86 Cache_sim.Load ~paddr:0x1000);
  checki "first probe fired" 1 !hits_a;
  checki "second probe fired" 1 !hits_b;
  Alcotest.(check (list string)) "registration order" [ "a"; "b" ] (List.rev !order);
  Cache_sim.clear_probes cache;
  ignore (Cache_sim.access cache ~node:Node_id.X86 Cache_sim.Load ~paddr:0x3000);
  checki "cleared" 1 !hits_a;
  checki "cleared both" 1 !hits_b

let test_writeback_hook_chaining () =
  let cache = Cache_sim.create (Cache_config.default Layout.Shared) in
  let a = ref 0 and b = ref 0 in
  Cache_sim.add_writeback_hook cache (fun _ ~line:_ -> incr a);
  Cache_sim.add_writeback_hook cache (fun _ ~line:_ -> incr b);
  (* force evictions of dirty lines by writing far more lines than the
     hierarchy can hold *)
  for i = 0 to 2_000_000 do
    ignore (Cache_sim.access cache ~node:Node_id.X86 Cache_sim.Store ~paddr:(i * 64))
  done;
  Alcotest.(check bool) "writebacks happened" true (!a > 0);
  checki "both hooks saw every writeback" !a !b

(* ---------- causal flows ---------- *)

module Causal = Stramash_obs.Causal

let test_flow_minting_and_inheritance () =
  let t = Trace.create () in
  Trace.install t;
  let plain = Trace.span ~at:0 ~node:Node_id.X86 ~subsys:"s" ~op:"plain" () in
  checki "no flow without flow_root" 0 (Trace.flow_of plain);
  Trace.close ~at:1 plain;
  let root = Trace.span ~at:10 ~flow_root:true ~node:Node_id.X86 ~subsys:"s" ~op:"root" () in
  let flow = Trace.flow_of root in
  Alcotest.(check bool) "flow_root mints nonzero" true (flow <> 0);
  let child = Trace.span ~at:20 ~node:Node_id.X86 ~subsys:"s" ~op:"child" () in
  checki "child inherits" flow (Trace.flow_of child);
  let nested_root =
    Trace.span ~at:25 ~flow_root:true ~node:Node_id.X86 ~subsys:"s" ~op:"nested" ()
  in
  checki "flow_root under a flow inherits instead of minting" flow (Trace.flow_of nested_root);
  Trace.close ~at:26 nested_root;
  Trace.close ~at:30 child;
  (* responder side: the override stack beats everything on that node *)
  Trace.with_flow ~node:Node_id.Arm ~flow (fun () ->
      let remote = Trace.span ~at:40 ~node:Node_id.Arm ~subsys:"r" ~op:"serve" () in
      checki "override carries requester flow cross-node" flow (Trace.flow_of remote);
      Trace.close ~at:50 remote);
  Trace.close ~at:100 root;
  let f1 = Trace.fresh_flow ~node:Node_id.X86 in
  let f2 = Trace.fresh_flow ~node:Node_id.Arm in
  Trace.uninstall ();
  Alcotest.(check bool) "fresh flows distinct and nonzero" true
    (f1 <> 0 && f2 <> 0 && f1 <> f2 && f1 <> flow && f2 <> flow);
  checki "fresh_flow without tracer" 0 (Trace.fresh_flow ~node:Node_id.X86)

let test_critical_path_tiles_root () =
  let t = Trace.create () in
  Trace.install t;
  let root = Trace.span ~at:0 ~flow_root:true ~node:Node_id.X86 ~subsys:"msg" ~op:"rpc" () in
  let flow = Trace.flow_of root in
  let send = Trace.span ~at:0 ~node:Node_id.X86 ~subsys:"msg" ~op:"send" () in
  Trace.close ~at:30 send;
  (* responder hops synthesized in the requester's clock *)
  Trace.with_flow ~node:Node_id.Arm ~flow (fun () ->
      let w = Trace.span ~at:30 ~node:Node_id.Arm ~subsys:"interconnect" ~op:"request" () in
      Trace.close ~at:45 w;
      let s = Trace.span ~at:45 ~node:Node_id.Arm ~subsys:"msg" ~op:"serve" () in
      Trace.close ~at:80 s);
  (* an unanchored responder event in a foreign clock must be dropped *)
  Trace.with_flow ~node:Node_id.Arm ~flow (fun () ->
      let stray = Trace.span ~at:100_000 ~node:Node_id.Arm ~subsys:"msg" ~op:"stray" () in
      Trace.close ~at:100_050 stray);
  Trace.close ~at:100 root;
  Trace.uninstall ();
  match Causal.flows_of_events (Trace.events t) with
  | [ f ] ->
      checki "end-to-end cycles" 100 f.Causal.f_cycles;
      checks "root op" "rpc" f.Causal.f_root_op;
      let sum = List.fold_left (fun acc h -> acc + h.Causal.h_cycles) 0 f.Causal.f_path in
      checki "hop cycles tile the root exactly" f.Causal.f_cycles sum;
      Alcotest.(check bool) "cross-node" true (Causal.cross_node_flows [ f ] <> []);
      Alcotest.(check bool) "stray event dropped" true
        (not (List.exists (fun h -> h.Causal.h_op = "stray") f.Causal.f_path));
      (* the reply gap [80,100] folds into requester self time *)
      let self =
        List.fold_left
          (fun acc h -> if h.Causal.h_op = "rpc" then acc + h.Causal.h_cycles else acc)
          0 f.Causal.f_path
      in
      checki "the uncovered reply gap becomes requester self time" 20 self;
      let blame = Causal.blame [ f ] in
      let total = List.fold_left (fun acc r -> acc + r.Causal.b_cycles) 0 blame in
      checki "blame conserves cycles" 100 total
  | flows -> Alcotest.fail (Printf.sprintf "expected 1 flow, got %d" (List.length flows))

let test_blocked_accounting () =
  let t = Trace.create ~filter:[ "msg" ] () in
  Trace.install t;
  Trace.add_blocked ~node:Node_id.X86 ~subsys:"msg" 100;
  Trace.add_blocked ~node:Node_id.X86 ~subsys:"msg" 50;
  Trace.add_blocked ~node:Node_id.Arm ~subsys:"msg" 7;
  Trace.add_blocked ~node:Node_id.X86 ~subsys:"msg" 0;
  Trace.add_blocked ~node:Node_id.X86 ~subsys:"filtered_out" 999;
  Trace.uninstall ();
  checki "x86 total" 150 (Trace.node_blocked_cycles t Node_id.X86);
  checki "arm total" 7 (Trace.node_blocked_cycles t Node_id.Arm);
  (match Trace.blocked_rows t with
  | [ ("msg", row) ] ->
      checki "x86 row" 150 row.(Node_id.index Node_id.X86);
      checki "arm row" 7 row.(Node_id.index Node_id.Arm)
  | rows -> Alcotest.fail (Printf.sprintf "expected one msg row, got %d" (List.length rows)));
  match Obs.Json.member "x86" (Trace.blocked_json t) with
  | Some node -> (
      match Option.bind (Obs.Json.member "total" node) Obs.Json.get_int with
      | Some n -> checki "json total" 150 n
      | None -> Alcotest.fail "blocked json missing total")
  | None -> Alcotest.fail "blocked json missing node"

let test_ring_drops_per_subsystem () =
  let t = Trace.create ~capacity:4 () in
  Trace.install t;
  for i = 1 to 4 do
    Trace.instant ~at:i ~node:Node_id.X86 ~subsys:"first" ~op:"tick" ()
  done;
  for i = 5 to 10 do
    Trace.instant ~at:i ~node:Node_id.X86 ~subsys:"second" ~op:"tick" ()
  done;
  Trace.uninstall ();
  checki "aggregate drops" 6 (Trace.dropped t);
  Alcotest.(check (list (pair string int)))
    "drops attributed to the overwritten event's subsystem"
    [ ("first", 4); ("second", 2) ]
    (Trace.dropped_by_subsystem t);
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Trace.dropped_by_subsystem t)
  in
  checki "per-subsystem drops sum to the aggregate" (Trace.dropped t) total

let test_reservoir_keeps_tail () =
  let r = Causal.Reservoir.create ~percentile:0.9 ~max_keep:3 () in
  let mk i cycles =
    {
      Causal.f_id = i;
      f_node = 0;
      f_start = 0;
      f_cycles = cycles;
      f_root_subsys = "s";
      f_root_op = "op";
      f_path = [];
      f_spans = 1;
    }
  in
  for i = 1 to 100 do
    Causal.Reservoir.offer r (mk i i)
  done;
  checki "count" 100 (Causal.Reservoir.count r);
  let threshold, tail = Causal.Reservoir.finalize r in
  checki "p90 threshold" 90 threshold;
  checki "bounded exemplars" 3 (List.length tail);
  Alcotest.(check (list int)) "keeps the largest flows, descending" [ 100; 99; 98 ]
    (List.map (fun f -> f.Causal.f_cycles) tail);
  Alcotest.(check bool) "rejects bad percentile" true
    (try
       ignore (Causal.Reservoir.create ~percentile:1.5 ());
       false
     with Invalid_argument _ -> true);
  let empty_threshold, empty_tail = Causal.Reservoir.finalize (Causal.Reservoir.create ()) in
  checki "empty threshold" 0 empty_threshold;
  checki "empty tail" 0 (List.length empty_tail)

let test_folded_flamegraph () =
  let t = Trace.create () in
  Trace.install t;
  let a = Trace.span ~at:0 ~node:Node_id.X86 ~subsys:"s" ~op:"outer" () in
  let b = Trace.span ~at:10 ~node:Node_id.X86 ~subsys:"s" ~op:"inner" () in
  Trace.close ~at:40 b;
  Trace.close ~at:100 a;
  let c = Trace.span ~at:0 ~node:Node_id.Arm ~subsys:"r" ~op:"top" () in
  Trace.close ~at:25 c;
  Trace.uninstall ();
  checks "folded stacks, aggregated and sorted"
    "arm;r.top 25\nx86;s.outer 70\nx86;s.outer;s.inner 30\n"
    (Causal.folded (Trace.events t))

let test_offline_round_trip () =
  let t = Trace.create () in
  Trace.install t;
  let root = Trace.span ~at:0 ~flow_root:true ~node:Node_id.X86 ~subsys:"msg" ~op:"rpc" () in
  let flow = Trace.flow_of root in
  Trace.with_flow ~node:Node_id.Arm ~flow (fun () ->
      let s = Trace.span ~at:10 ~node:Node_id.Arm ~subsys:"msg" ~op:"serve" () in
      Trace.close ~at:60 s);
  Trace.close ~at:100 root;
  Trace.uninstall ();
  let check_events label = function
    | Error e -> Alcotest.fail (label ^ ": " ^ e)
    | Ok events -> (
        match Causal.flows_of_events events with
        | [ f ] ->
            checki (label ^ " flow cycles") 100 f.Causal.f_cycles;
            checki (label ^ " hops sum") 100
              (List.fold_left (fun acc h -> acc + h.Causal.h_cycles) 0 f.Causal.f_path);
            Alcotest.(check bool) (label ^ " cross-node") true
              (Causal.cross_node_flows [ f ] <> [])
        | flows -> Alcotest.fail (Printf.sprintf "%s: %d flows" label (List.length flows)))
  in
  check_events "chrome" (Causal.events_of_string (Trace.chrome_string t));
  check_events "jsonl" (Causal.events_of_string (Trace.jsonl_string t));
  (match Causal.events_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input must be rejected");
  match Causal.events_of_string "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage input must be rejected"

(* End-to-end: a traced stramash NPB run produces cross-node flows whose
   critical paths tile their root spans, and nonzero blocked-on-remote
   cycles — the Fig. 9/10 "where did the cycles go" story, causally. *)
let test_traced_run_has_cross_node_flows () =
  let t, _ = trace_npb_is () in
  let flows = Causal.flows_of_events (Trace.events t) in
  Alcotest.(check bool) "flows assembled" true (flows <> []);
  List.iter
    (fun f ->
      let sum = List.fold_left (fun acc h -> acc + h.Causal.h_cycles) 0 f.Causal.f_path in
      checki
        (Printf.sprintf "flow %d (%s.%s) hops sum to end-to-end span" f.Causal.f_id
           f.Causal.f_root_subsys f.Causal.f_root_op)
        f.Causal.f_cycles sum)
    flows;
  let cross = Causal.cross_node_flows flows in
  Alcotest.(check bool) "cross-node flows exist" true (cross <> []);
  Alcotest.(check bool) "a remote fault crosses nodes" true
    (List.exists (fun f -> f.Causal.f_root_subsys = "stramash_fault") cross);
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Node_id.to_string node ^ " has blocked-on-remote cycles")
        true
        (Trace.node_blocked_cycles t node > 0))
    Node_id.all;
  (* the snapshot sections render and carry the same flow count *)
  let snap = Obs.Snapshot.create () in
  Obs.Snapshot.add_causal snap t;
  match Obs.Snapshot.section snap "critical_path" with
  | Some cp ->
      checki "snapshot flow count"
        (List.length flows)
        (Option.value ~default:(-1) (Option.bind (Obs.Json.member "flows" cp) Obs.Json.get_int))
  | None -> Alcotest.fail "critical_path section missing"

(* ---------- Json satellite ---------- *)

let test_json_float_round_trip () =
  let cases =
    [ (Json.Float 2.0, "2.0"); (Json.Float 0.5, "0.5"); (Json.Float (-3.0), "-3.0") ]
  in
  List.iter
    (fun (v, expect) ->
      checks "integral floats render with a decimal point" expect (Json.to_string v);
      match Json.parse (Json.to_string v) with
      | Ok (Json.Float _ as back) ->
          checks "round-trips as Float" (Json.to_string v) (Json.to_string back)
      | Ok other -> Alcotest.fail ("re-parsed as " ^ Json.to_string other)
      | Error e -> Alcotest.fail e)
    cases;
  checks "non-finite floats stay float-typed" "0.0" (Json.to_string (Json.Float Float.nan));
  checks "ints unchanged" "2" (Json.to_string (Json.Int 2));
  (match Json.parse "2" with
  | Ok (Json.Int 2) -> ()
  | _ -> Alcotest.fail "bare 2 must stay Int");
  (* the histogram case that motivated the fix: a snapshot with an
     integral mean must reconstruct equal to its source *)
  let snap = Obs.Snapshot.create () in
  Obs.Snapshot.add_json snap "h" (Json.Obj [ ("mean", Json.Float 4.0) ]);
  match Json.parse (Obs.Snapshot.to_string snap) with
  | Ok j -> checks "snapshot round-trip" (Obs.Snapshot.to_string snap) (Json.to_string j)
  | Error e -> Alcotest.fail e

let test_json_parse_errors () =
  let expect_error label s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": expected a parse error")
  in
  expect_error "trailing garbage" "{\"a\":1} extra";
  expect_error "trailing value" "1 2";
  expect_error "unterminated string" "\"abc";
  expect_error "unterminated string in object" "{\"k\": \"v";
  expect_error "bare escape at end" "\"ab\\";
  let deep n = String.concat "" (List.init n (fun _ -> "[")) in
  expect_error "deep nesting rejected, not a stack overflow" (deep 10_000);
  (match Json.parse (deep 600) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "600 levels should exceed the depth limit");
  (* well-formed nesting below the limit still parses *)
  let ok = String.concat "" (List.init 100 (fun _ -> "[")) ^ "1" ^ String.concat "" (List.init 100 (fun _ -> "]")) in
  match Json.parse ok with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("100 levels must parse: " ^ e)

let test_obs_report_fastpath_print () =
  let t = Trace.create () in
  Trace.install t;
  let sp = Trace.span ~at:0 ~node:Node_id.X86 ~subsys:"s" ~op:"a" () in
  Trace.close ~at:10 sp;
  Trace.add_blocked ~node:Node_id.X86 ~subsys:"s" 42;
  Trace.uninstall ();
  let buf = Buffer.create 256 in
  let bfmt = Format.formatter_of_buffer buf in
  Stramash_harness.Obs_report.print
    ~fastpath:
      [ ("x86.l0_hits", 75); ("x86.l0_misses", 25); ("arm.l0_hits", 0); ("arm.l0_misses", 0) ]
    bfmt t;
  Format.pp_print_flush bfmt ();
  let out = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prints the fast-path summary" true (contains "fast-path L0");
  Alcotest.(check bool) "x86 hit split" true (contains "x86=75/100");
  Alcotest.(check bool) "hit percentage" true (contains "75.0%");
  Alcotest.(check bool) "blocked summary" true (contains "blocked-on-remote cycles: x86=42")

(* ---------- metrics satellite ---------- *)

let test_histogram_merge () =
  let mk () = Metrics.Histogram.create ~buckets:8 ~lo:0.0 ~hi:80.0 in
  let a = mk () and b = mk () in
  List.iter (Metrics.Histogram.record a) [ 5.0; 15.0; 75.0 ];
  List.iter (Metrics.Histogram.record b) [ 15.0; 35.0 ];
  let m = Metrics.Histogram.merge a b in
  checki "count" 5 (Metrics.Histogram.count m);
  Alcotest.(check (float 1e-9)) "mean" 29.0 (Metrics.Histogram.mean m);
  Alcotest.(check bool) "merge rejects shape mismatch" true
    (try
       ignore (Metrics.Histogram.merge a (Metrics.Histogram.create ~buckets:4 ~lo:0.0 ~hi:80.0));
       false
     with Invalid_argument _ -> true)

let test_metrics_to_assoc () =
  let reg = Metrics.registry () in
  Metrics.incr reg "b";
  Metrics.incr reg "a";
  Metrics.incr reg "a";
  let assoc = Metrics.to_assoc reg in
  checki "a" 2 (List.assoc "a" assoc);
  checki "b" 1 (List.assoc "b" assoc)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting arithmetic" `Quick test_span_nesting_arithmetic;
          Alcotest.test_case "per-node stacks" `Quick test_spans_nest_per_node;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_recording_is_inert;
          Alcotest.test_case "subsystem filter" `Quick test_filter_restricts_subsystems;
        ] );
      ("ring", [ Alcotest.test_case "overflow" `Quick test_ring_overflow ]);
      ( "export",
        [
          Alcotest.test_case "chrome deterministic" `Quick test_chrome_export_deterministic;
          Alcotest.test_case "coverage and meter agreement" `Quick
            test_traced_run_covers_subsystems_and_agrees_with_meters;
          Alcotest.test_case "known subsystems cover recorded runs" `Quick
            test_known_subsystems_cover_recorded_runs;
        ] );
      ( "cache probes",
        [
          Alcotest.test_case "probe chaining" `Quick test_probe_chaining;
          Alcotest.test_case "writeback hook chaining" `Quick test_writeback_hook_chaining;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "to_assoc" `Quick test_metrics_to_assoc;
        ] );
      ( "flows",
        [
          Alcotest.test_case "minting and inheritance" `Quick test_flow_minting_and_inheritance;
          Alcotest.test_case "blocked accounting" `Quick test_blocked_accounting;
          Alcotest.test_case "ring drops per subsystem" `Quick test_ring_drops_per_subsystem;
        ] );
      ( "causal",
        [
          Alcotest.test_case "critical path tiles root" `Quick test_critical_path_tiles_root;
          Alcotest.test_case "reservoir keeps tail" `Quick test_reservoir_keeps_tail;
          Alcotest.test_case "folded flamegraph" `Quick test_folded_flamegraph;
          Alcotest.test_case "offline round trip" `Quick test_offline_round_trip;
          Alcotest.test_case "traced run has cross-node flows" `Quick
            test_traced_run_has_cross_node_flows;
        ] );
      ( "json",
        [
          Alcotest.test_case "float round trip" `Quick test_json_float_round_trip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "report",
        [ Alcotest.test_case "fastpath print" `Quick test_obs_report_fastpath_print ] );
    ]
