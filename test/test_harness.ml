(* Tests for the harness itself: report rendering, the experiment
   registry, and the new mechanisms (polling notification, data packing). *)

module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Phys_mem = Stramash_mem.Phys_mem
module Cache_config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Kheap = Stramash_kernel.Kheap
module Msg_layer = Stramash_popcorn.Msg_layer
module Data_packing = Stramash_core.Data_packing
module H = Stramash_harness

let checki = Alcotest.(check int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ---------- Report ---------- *)

let test_report_renders_rows () =
  let r = H.Report.create ~title:"T" ~note:"n" ~columns:[ "a"; "bb" ] in
  H.Report.add_row r [ "1"; "2" ];
  H.Report.add_row r [ "333"; "4" ];
  let s = Format.asprintf "%a" H.Report.print r in
  Alcotest.(check bool) "title" true (contains s "### T");
  Alcotest.(check bool) "columns" true (contains s "bb");
  Alcotest.(check bool) "cells padded" true (contains s "333 | 4");
  checki "rows retrievable" 2 (List.length (H.Report.rows r))

let test_report_cells () =
  Alcotest.(check string) "pct" "12.34%" (H.Report.cell_pct 0.1234);
  Alcotest.(check string) "speedup" "2.10x" (H.Report.cell_x 2.1);
  Alcotest.(check string) "bar full" "####" (H.Report.bar 2.0 ~max:1.0 ~width:4);
  Alcotest.(check string) "bar half" "##.." (H.Report.bar 0.5 ~max:1.0 ~width:4);
  Alcotest.(check string) "bar zero-max" "...." (H.Report.bar 1.0 ~max:0.0 ~width:4)

(* ---------- Experiments registry ---------- *)

let test_registry_complete () =
  (* every table and figure of the paper's evaluation must be present *)
  List.iter
    (fun id ->
      Alcotest.(check bool) ("registry has " ^ id) true (H.Experiments.find id <> None))
    [
      "fig5-6"; "fig7"; "fig8"; "table2"; "fig9"; "table3"; "fig10"; "fig11"; "fig12"; "fig13";
      "table4"; "fig14";
    ];
  Alcotest.(check bool) "unknown id rejected" true (H.Experiments.find "fig99" = None);
  Alcotest.(check bool) "ids unique" true
    (let ids = H.Experiments.ids () in
     List.length ids = List.length (List.sort_uniq compare ids))

let test_cheap_experiments_run () =
  (* smoke-run the inexpensive experiments end to end *)
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun id ->
      match H.Experiments.find id with
      | Some e -> e.H.Experiments.run fmt
      | None -> Alcotest.fail ("missing " ^ id))
    [ "table2"; "fig5-6"; "table4"; "ablation-packing" ];
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "table2 header" true (contains s "Table 2");
  Alcotest.(check bool) "table4 rows" true (contains s "2^20");
  Alcotest.(check bool) "packing result" true (contains s "objects packed")

(* ---------- polling notification ---------- *)

let make_env () = Env.create (Cache_sim.create (Cache_config.default Layout.Shared))

let test_polling_cheaper_for_requester () =
  let latency notify =
    let env = make_env () in
    let msg = Msg_layer.create Msg_layer.Shm env ~notify () in
    Msg_layer.rpc msg ~src:Node_id.X86 ~label:"x" ~req_bytes:64 ~resp_bytes:64 ~handler:ignore;
    Meter.get (Env.meter env Node_id.X86)
  in
  Alcotest.(check bool) "polling round trip beats two IPIs" true
    (latency Msg_layer.Polling < latency Msg_layer.Ipi)

let test_polling_charges_receiver_busy_work () =
  let env = make_env () in
  let msg = Msg_layer.create Msg_layer.Shm env ~notify:Msg_layer.Polling () in
  let before = Meter.get (Env.meter env Node_id.Arm) in
  Msg_layer.rpc msg ~src:Node_id.X86 ~label:"x" ~req_bytes:64 ~resp_bytes:64 ~handler:ignore;
  Alcotest.(check bool) "receiver burns poll cycles" true
    (Meter.get (Env.meter env Node_id.Arm) > before)

(* ---------- data packing ---------- *)

let test_data_packing_moves_content () =
  let env = make_env () in
  let kernel = Env.kernel env Node_id.X86 in
  let packer = Data_packing.create env ~owner:Node_id.X86 ~window_bytes:(4 * Addr.page_size) in
  let src = Kheap.alloc_line kernel.Kernel.kheap in
  Phys_mem.write_u64 env.Env.phys src 0xFEEDL;
  (match Data_packing.pack packer ~src ~bytes:64 with
  | Ok packed ->
      Alcotest.(check int64) "content moved" 0xFEEDL (Phys_mem.read_u64 env.Env.phys packed);
      Alcotest.(check bool) "inside window" true
        (Layout.region_contains (Data_packing.window packer) packed)
  | Error `Window_full -> Alcotest.fail "window full too early");
  checki "one object" 1 (Data_packing.objects_packed packer)

let test_data_packing_window_full () =
  let env = make_env () in
  let packer = Data_packing.create env ~owner:Node_id.X86 ~window_bytes:Addr.page_size in
  let kernel = Env.kernel env Node_id.X86 in
  let rec fill n =
    let src = Kheap.alloc_line kernel.Kernel.kheap in
    match Data_packing.pack packer ~src ~bytes:64 with
    | Ok _ -> fill (n + 1)
    | Error `Window_full -> n
  in
  checki "page fits 64 lines" 64 (fill 0)

let test_data_packing_enforcement () =
  let env = make_env () in
  let packer = Data_packing.create env ~owner:Node_id.X86 ~window_bytes:Addr.page_size in
  let inside = (Data_packing.window packer).Layout.lo in
  let outside = inside + Addr.gib 1 in
  Alcotest.(check bool) "owner always allowed" true
    (Data_packing.check_remote_access packer ~actor:Node_id.X86 ~paddr:outside = Ok ());
  Alcotest.(check bool) "remote window access ok" true
    (Data_packing.check_remote_access packer ~actor:Node_id.Arm ~paddr:inside = Ok ());
  Alcotest.(check bool) "remote private access denied" true
    (Data_packing.check_remote_access packer ~actor:Node_id.Arm
       ~paddr:(Layout.x86_private.Layout.hi - Addr.page_size)
    = Error `Protection_violation);
  Alcotest.(check bool) "remote access to arm's own memory is not x86's concern" true
    (Data_packing.check_remote_access packer ~actor:Node_id.Arm ~paddr:(Addr.gib 2) = Ok ());
  checki "violation recorded" 1 (Data_packing.violations packer)

(* ---------- metrics snapshot ---------- *)

let test_snapshot_round_trip () =
  let module Snapshot = Stramash_obs.Snapshot in
  let module Json = Stramash_obs.Json in
  let reg = Stramash_sim.Metrics.registry () in
  Stramash_sim.Metrics.add reg "msg.sends" 7;
  Stramash_sim.Metrics.incr reg "ipi.delivered";
  let snap = Snapshot.create () in
  Snapshot.add_counters snap "node_cycles" [ ("x86", 123); ("arm", 456) ];
  Snapshot.add_registry snap "faults" reg;
  let s = Snapshot.to_string snap in
  match Json.parse s with
  | Error e -> Alcotest.fail ("snapshot did not render valid JSON: " ^ e)
  | Ok j -> (
      match Snapshot.of_json j with
      | Error e -> Alcotest.fail ("round trip failed: " ^ e)
      | Ok back ->
          checki "x86 cycles survive" 123 (List.assoc "x86" (Snapshot.counters back "node_cycles"));
          checki "arm cycles survive" 456 (List.assoc "arm" (Snapshot.counters back "node_cycles"));
          checki "registry counters survive" 7
            (List.assoc "msg.sends" (Snapshot.counters back "faults"));
          Alcotest.(check bool) "section order preserved" true
            (List.map fst (Snapshot.sections back) = [ "node_cycles"; "faults" ]);
          Alcotest.(check string) "re-render identical" s (Snapshot.to_string back))

let test_snapshot_carries_trace_attribution () =
  let module Trace = Stramash_obs.Trace in
  let module Snapshot = Stramash_obs.Snapshot in
  let module Json = Stramash_obs.Json in
  let t = Trace.create () in
  Trace.install t;
  let sp = Trace.span ~at:0 ~node:Node_id.X86 ~subsys:"msg" ~op:"rpc" () in
  Trace.close ~at:40 sp;
  Trace.uninstall ();
  let snap = Snapshot.create () in
  Snapshot.add_trace snap t;
  match Json.parse (Snapshot.to_string snap) with
  | Error e -> Alcotest.fail ("invalid JSON: " ^ e)
  | Ok j ->
      let rows =
        Option.bind (Json.member "trace" j) (Json.member "attribution")
        |> Fun.flip Option.bind Json.get_list
      in
      (match rows with
      | Some [ row ] ->
          Alcotest.(check (option string))
            "subsys" (Some "msg")
            (Option.bind (Json.member "subsys" row) Json.get_string);
          Alcotest.(check (option int))
            "total" (Some 40)
            (Option.bind (Json.member "total_cycles" row) Json.get_int)
      | Some rows -> checki "one attribution row" 1 (List.length rows)
      | None -> Alcotest.fail "trace.attribution missing")

(* ---------- Campaign: exit codes and the shared soak loop ---------- *)

module Campaign = H.Campaign

let check_verdict msg expected got =
  Alcotest.(check string) msg (Campaign.verdict_to_string expected) (Campaign.verdict_to_string got)

let test_campaign_exit_codes () =
  checki "clean" 0 (Campaign.exit_code Campaign.Clean);
  checki "violations" 1 (Campaign.exit_code Campaign.Violations);
  checki "unrecovered" 1 (Campaign.exit_code Campaign.Unrecovered);
  checki "unknown bench" 2 (Campaign.exit_code Campaign.Unknown_bench)

let test_campaign_worst () =
  check_verdict "empty" Campaign.Clean (Campaign.worst []);
  check_verdict "exit-1 tie keeps the first" Campaign.Unrecovered
    (Campaign.worst [ Campaign.Clean; Campaign.Unrecovered; Campaign.Violations ]);
  check_verdict "exit 2 dominates" Campaign.Unknown_bench
    (Campaign.worst [ Campaign.Violations; Campaign.Unknown_bench; Campaign.Unrecovered ])

(* A stub cell: a preset verdict per cell index and a seed-dependent
   line, so the soak fold, ordering and rendering show directly. *)
let stub_verdicts = [| Campaign.Clean; Campaign.Violations; Campaign.Unrecovered; Campaign.Clean |]

let render_stub_soak ~domains =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let result =
    Campaign.soak fmt ~name:"stub" ~seed:100L ~cells:4 ~domains (fun seed cell_fmt ->
        Format.fprintf cell_fmt "stub ran at seed %Ld@." seed;
        stub_verdicts.(Int64.to_int seed - 100))
  in
  Format.pp_print_flush fmt ();
  let json = Campaign.soak_json ~name:"stub" ~params:[ ("k", Stramash_obs.Json.Int 1) ] result in
  (result, Buffer.contents buf, Stramash_obs.Json.to_string json)

let test_campaign_soak () =
  let (verdict, cells), out1, json1 = render_stub_soak ~domains:1 in
  let _, out3, json3 = render_stub_soak ~domains:3 in
  check_verdict "worst verdict, tie resolved by cell order" Campaign.Violations verdict;
  Alcotest.(check (list (pair int int64)))
    "cell indices and derived seeds"
    [ (0, 100L); (1, 101L); (2, 102L); (3, 103L) ]
    (List.map (fun (i, seed, _) -> (i, seed)) cells);
  List.iter
    (fun (i, _, v) -> check_verdict (Printf.sprintf "cell %d verdict" i) stub_verdicts.(i) v)
    cells;
  Alcotest.(check string)
    "rendering"
    "stub soak: cells=4 base seed=100\n\n--- cell 0 (seed 100) ---\nstub ran at seed 100\n\n\
     --- cell 1 (seed 101) ---\nstub ran at seed 101\n\n--- cell 2 (seed 102) ---\nstub ran \
     at seed 102\n\n--- cell 3 (seed 103) ---\nstub ran at seed 103\n\nsoak verdict: \
     VIOLATIONS (4 cells)\n"
    out1;
  Alcotest.(check string)
    "json"
    "{\"schema\":\"stramash-stub-soak/1\",\"k\":1,\"cells\":[\
     {\"cell\":0,\"seed\":100,\"verdict\":\"CLEAN\"},\
     {\"cell\":1,\"seed\":101,\"verdict\":\"VIOLATIONS\"},\
     {\"cell\":2,\"seed\":102,\"verdict\":\"UNRECOVERED\"},\
     {\"cell\":3,\"seed\":103,\"verdict\":\"CLEAN\"}],\"verdict\":\"VIOLATIONS\"}"
    json1;
  Alcotest.(check string) "rendering identical for 1 and 3 domains" out1 out3;
  Alcotest.(check string) "json identical for 1 and 3 domains" json1 json3

let () =
  Alcotest.run "harness"
    [
      ( "report",
        [
          Alcotest.test_case "renders" `Quick test_report_renders_rows;
          Alcotest.test_case "cells" `Quick test_report_cells;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "cheap experiments run" `Quick test_cheap_experiments_run;
        ] );
      ( "polling",
        [
          Alcotest.test_case "requester latency" `Quick test_polling_cheaper_for_requester;
          Alcotest.test_case "receiver busy work" `Quick test_polling_charges_receiver_busy_work;
        ] );
      ( "data_packing",
        [
          Alcotest.test_case "moves content" `Quick test_data_packing_moves_content;
          Alcotest.test_case "window full" `Quick test_data_packing_window_full;
          Alcotest.test_case "enforcement" `Quick test_data_packing_enforcement;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "exit codes" `Quick test_campaign_exit_codes;
          Alcotest.test_case "worst verdict" `Quick test_campaign_worst;
          Alcotest.test_case "shared soak" `Quick test_campaign_soak;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round trip" `Quick test_snapshot_round_trip;
          Alcotest.test_case "trace attribution" `Quick test_snapshot_carries_trace_attribution;
        ] );
    ]
