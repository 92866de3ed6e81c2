(* Tests for the open-loop serving subsystem: the Zipfian sampler's
   statistics and golden sequence, SLO evaluation, config validation, and
   same-seed determinism of full runs — alone and composed with a chaos
   kill/restart schedule — and soak cells carrying the whole campaign
   config. *)

module Rng = Stramash_sim.Rng
module Zipf = Stramash_sim.Zipf
module Cycles = Stramash_sim.Cycles
module Histogram = Stramash_sim.Metrics.Histogram
module Machine = Stramash_machine.Machine
module Plan = Stramash_fault_inject.Plan
module Node_id = Stramash_sim.Node_id
module Workload = Stramash_serve.Workload
module Slo = Stramash_serve.Slo
module Serve = Stramash_serve.Serve
module SE = Stramash_harness.Serve_experiments
module Campaign = Stramash_harness.Campaign

let checki = Alcotest.(check int)

(* ---------- Zipf sampler ---------- *)

let test_zipf_rejects_bad_args () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "n = 0" (fun () -> Zipf.create ~n:0 ~theta:0.99);
  expect_invalid "n < 0" (fun () -> Zipf.create ~n:(-5) ~theta:0.99);
  expect_invalid "theta = 0" (fun () -> Zipf.create ~n:100 ~theta:0.0);
  expect_invalid "theta < 0" (fun () -> Zipf.create ~n:100 ~theta:(-1.0))

(* The exact draw sequence is part of the serving subsystem's replay
   contract: any change to the sampler (or to Rng.float consumption
   order) shifts every campaign's key stream, so it must be deliberate
   and show up here. *)
let test_zipf_golden_sequence () =
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Rng.create ~seed:42L in
  let got = List.init 12 (fun _ -> Zipf.sample z rng) in
  let expected = [ 3; 312; 130; 80; 759; 1; 203; 2; 82; 9; 224; 26 ] in
  Alcotest.(check (list int)) "pinned sequence" expected got

let test_zipf_degenerate_support () =
  (* n = 1 must terminate and always return rank 0. *)
  let z = Zipf.create ~n:1 ~theta:0.99 in
  let rng = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    checki "only rank" 0 (Zipf.sample z rng)
  done

let prop_zipf_support_bounds =
  QCheck.Test.make ~name:"samples stay in [0, n) for any seed and size" ~count:50
    QCheck.(pair small_int (int_range 1 100_000))
    (fun (seed, n) ->
      let z = Zipf.create ~n ~theta:0.99 in
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 200 do
        let k = Zipf.sample z rng in
        if k < 0 || k >= n then ok := false
      done;
      !ok)

let prop_zipf_rank_frequency_monotone =
  (* The defining Zipf property, bucketed for statistical robustness: the
     hottest eighth of the support must out-draw the coldest half. At
     theta = 1 over n = 64 the expected mass split is ~0.57 vs ~0.15, so
     4000 draws separate them for any seed. *)
  QCheck.Test.make ~name:"head ranks out-draw tail ranks for any seed" ~count:30
    QCheck.small_int
    (fun seed ->
      let n = 64 in
      let z = Zipf.create ~n ~theta:1.0 in
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let head = ref 0 and tail = ref 0 in
      for _ = 1 to 4000 do
        let k = Zipf.sample z rng in
        if k < n / 8 then incr head else if k >= n / 2 then incr tail
      done;
      !head > !tail)

let prop_zipf_seed_deterministic =
  QCheck.Test.make ~name:"same seed replays the same stream" ~count:30
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let draw () =
        let z = Zipf.create ~n ~theta:0.99 in
        let rng = Rng.create ~seed:(Int64.of_int seed) in
        List.init 100 (fun _ -> Zipf.sample z rng)
      in
      draw () = draw ())

(* ---------- workload mix ---------- *)

let test_mix_validation () =
  let ok m = Alcotest.(check bool) "valid" true (Result.is_ok (Workload.validate_mix m)) in
  let bad m = Alcotest.(check bool) "invalid" true (Result.is_error (Workload.validate_mix m)) in
  ok Workload.default_mix;
  ok { Workload.get = 0; set = 1; mset = 0; scan = 0 };
  bad { Workload.get = -1; set = 1; mset = 0; scan = 0 };
  bad { Workload.get = 0; set = 0; mset = 0; scan = 0 }

let test_mix_pick_honours_zero_weights () =
  let mix = { Workload.get = 0; set = 3; mset = 0; scan = 0 } in
  let rng = Rng.create ~seed:11L in
  for _ = 1 to 200 do
    match Workload.pick mix rng with
    | Workload.Set -> ()
    | op -> Alcotest.failf "drew %s from a set-only mix" (Workload.op_name op)
  done

let test_store_spec_rejects_bad_keys () =
  Alcotest.check_raises "keys = 0" (Invalid_argument "Workload.store_spec: keys must be positive")
    (fun () -> ignore (Workload.store_spec ~keys:0))

(* ---------- SLO evaluation ---------- *)

let test_slo_validate () =
  let ok = Result.is_ok (Slo.validate Slo.default) in
  Alcotest.(check bool) "default valid" true ok;
  let bad t = Alcotest.(check bool) "rejected" true (Result.is_error (Slo.validate t)) in
  bad { Slo.p50_us = 0.0; p95_us = 1.0; p99_us = 2.0 };
  bad { Slo.p50_us = -1.0; p95_us = 1.0; p99_us = 2.0 };
  (* non-monotone: p95 limit below p50 limit *)
  bad { Slo.p50_us = 100.0; p95_us = 50.0; p99_us = 200.0 }

let test_slo_empty_histogram_fails () =
  (* A run that recorded nothing must not pass vacuously. *)
  let h = Histogram.create ~buckets:16 ~lo:0.0 ~hi:100.0 in
  let r = Slo.evaluate Slo.default h in
  checki "no samples" 0 r.Slo.samples;
  Alcotest.(check bool) "fails" false r.Slo.pass

let test_slo_evaluate_gates () =
  let h = Histogram.create ~buckets:2048 ~lo:0.0 ~hi:(float_of_int (Cycles.of_us 2000.0)) in
  (* 97 samples at ~10us, three at ~500us: p50/p95 comfortable, p99 hot. *)
  for _ = 1 to 97 do
    Histogram.record h (float_of_int (Cycles.of_us 10.0))
  done;
  for _ = 1 to 3 do
    Histogram.record h (float_of_int (Cycles.of_us 500.0))
  done;
  let pass = Slo.evaluate { Slo.p50_us = 40.0; p95_us = 120.0; p99_us = 600.0 } h in
  Alcotest.(check bool) "passes generous gates" true pass.Slo.pass;
  let fail = Slo.evaluate { Slo.p50_us = 40.0; p95_us = 120.0; p99_us = 250.0 } h in
  Alcotest.(check bool) "p99 gate trips" false fail.Slo.pass;
  (match List.rev fail.Slo.checks with
  | p99 :: _ ->
      Alcotest.(check string) "tripped metric" "p99" p99.Slo.metric;
      Alcotest.(check bool) "marked not ok" false p99.Slo.ok
  | [] -> Alcotest.fail "no checks")

(* ---------- Serve.validate ---------- *)

let test_serve_validate_rejections () =
  let bad name cfg =
    match Serve.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" name
  in
  Alcotest.(check bool) "default valid" true (Result.is_ok (Serve.validate Serve.default));
  bad "vanilla" { Serve.default with Serve.os = Machine.Vanilla };
  bad "zero rate" { Serve.default with Serve.rate = 0.0 };
  bad "negative keys" { Serve.default with Serve.keys = -1 };
  bad "zero requests" { Serve.default with Serve.requests = 0 };
  bad "zero payload" { Serve.default with Serve.payload = 0 };
  bad "zero theta" { Serve.default with Serve.theta = 0.0 };
  bad "placement under popcorn"
    { Serve.default with Serve.os = Machine.Popcorn_shm; placement = true };
  let kill = { Plan.node = Node_id.Arm; kill_at = 1000; restart_after = None } in
  bad "restart-less kill"
    { Serve.default with Serve.inject = Some { Plan.default with node_events = [ kill ] } };
  let kill = { kill with Plan.restart_after = Some 500 } in
  bad "chaos under popcorn"
    {
      Serve.default with
      Serve.os = Machine.Popcorn_shm;
      inject = Some { Plan.default with node_events = [ kill ] };
    };
  Alcotest.(check bool) "restartful kill under stramash valid" true
    (Result.is_ok
       (Serve.validate
          { Serve.default with Serve.inject = Some { Plan.default with node_events = [ kill ] } }))

let test_serve_run_rejects_invalid () =
  match Serve.run { Serve.default with Serve.rate = -1.0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rate accepted"

(* ---------- full-run determinism ---------- *)

(* Small but real: 4096 keys, 400 requests over every kernel path. The
   rendered outcome (latency tables, SLO lines, counters) is the replay
   contract, so compare that, not just a summary statistic. *)
let small cfg = { cfg with Serve.keys = 4096; requests = 400; rate = 50_000.0 }

let render outcome =
  let counters =
    String.concat ";"
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) outcome.Serve.o_counters)
  in
  Format.asprintf "%a|%s" Serve.pp_outcome outcome counters

let test_serve_same_seed_identical () =
  let cfg = small Serve.default in
  let a = render (Serve.run cfg) in
  let b = render (Serve.run cfg) in
  Alcotest.(check string) "byte-identical" a b

let test_serve_seed_matters () =
  let cfg = small Serve.default in
  let a = render (Serve.run cfg) in
  let b = render (Serve.run { cfg with Serve.seed = 99L }) in
  Alcotest.(check bool) "different seed, different run" true (a <> b)

let test_serve_chaos_composed_identical () =
  let base = small Serve.default in
  let span = 400 * Cycles.of_us 1.0 * 10 in
  let cfg = { base with Serve.inject = Some (SE.chaos_inject ~seed:5L ~span) } in
  let oa = Serve.run cfg in
  let ob = Serve.run cfg in
  Alcotest.(check string) "byte-identical under chaos" (render oa) (render ob);
  (* the downtime windows actually bit: admission stalled at least once *)
  Alcotest.(check bool) "stall cycles recorded" true
    (List.assoc "serve.downtime_stall_cycles" oa.Serve.o_counters > 0)

let test_serve_popcorn_runs () =
  let cfg = small { Serve.default with Serve.os = Machine.Popcorn_shm } in
  let o = Serve.run cfg in
  checki "all requests measured" 400 (Histogram.count o.Serve.o_all);
  Alcotest.(check string) "personality" "popcorn-shm" o.Serve.o_os

let test_serve_counters_cover_ops () =
  let o = Serve.run (small Serve.default) in
  let total =
    List.fold_left
      (fun acc op ->
        acc + (List.assoc ("serve.op." ^ Workload.op_name op) o.Serve.o_counters))
      0 Workload.all_ops
  in
  checki "per-op counters sum to requests" 400 total;
  checki "completed" 400 (List.assoc "serve.completed" o.Serve.o_counters)

(* Absolute values on a small config, not one run against another: a
   change to the serving path's TLB, fault, placement or cache behaviour
   moves these even when it keeps runs deterministic. *)
let bucket_digest h =
  Histogram.bucket_counts h |> Array.to_list
  |> List.map (fun (_, c) -> string_of_int c)
  |> String.concat "," |> Digest.string |> Digest.to_hex

let test_serve_golden () =
  let pin label cfg ~wall ~idle ~quanta ~wait ~placement ~buckets =
    let o = Serve.run { cfg with Serve.keys = 16_384; requests = 2_000 } in
    let counters =
      [
        ("serve.completed", 2000);
        ("serve.idle_cycles", idle);
        ("serve.op.get", 1376);
        ("serve.op.mset", 114);
        ("serve.op.scan", 123);
        ("serve.op.set", 387);
        ("serve.quanta", quanta);
        ("serve.queue_wait_cycles", wait);
        ("serve.requests", 2000);
        ("serve.wall_cycles", wall);
      ]
    in
    checki (label ^ " wall") wall o.Serve.o_wall;
    Alcotest.(check (list (pair string int))) (label ^ " counters") counters o.Serve.o_counters;
    Alcotest.(check (list (pair string int)))
      (label ^ " nonzero placement counters")
      placement
      (List.filter (fun (_, v) -> v <> 0) o.Serve.o_placement);
    Alcotest.(check string) (label ^ " latency buckets") buckets (bucket_digest o.Serve.o_all)
  in
  pin "stramash+placement"
    { Serve.default with Serve.placement = true }
    ~wall:205_720_016 ~idle:148_840_803 ~quanta:4898 ~wait:22_411_084
    ~placement:
      [ ("placement.samples", 4871); ("placement.pages_tracked", 4); ("placement.epochs", 1224) ]
    ~buckets:"fa05fb39cbc3c734048b31e91fe3f55f";
  pin "popcorn-shm"
    { Serve.default with Serve.os = Machine.Popcorn_shm }
    ~wall:205_816_480 ~idle:78_698_945 ~quanta:4900 ~wait:672_013_174
    ~placement:[] ~buckets:"ea89ed6617c015c60925c4f69fbf5fac"

(* ---------- soak ---------- *)

let render_to f =
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  let result = f fmt in
  Format.pp_print_flush fmt ();
  (result, Buffer.contents buf)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A soak must run every cell with the whole campaign config: toggles and
   workload knobs (here theta and the chaos cell) reach each cell, and
   cell i renders exactly as a single campaign at seed + i. *)
let test_soak_cells_keep_config () =
  let config = { SE.default with keys = 16_384; requests = 1_000; theta = 0.5; chaos = false } in
  let cell seed fmt = SE.campaign fmt { config with seed } in
  let (verdict, cells), out =
    render_to (fun fmt ->
        Campaign.soak fmt ~name:"serve" ~seed:config.seed ~cells:2 ~domains:1 cell)
  in
  Alcotest.(check bool) "no chaos cell" false (contains out "stramash+chaos");
  Alcotest.(check bool) "theta reaches the cells" true (contains out "theta=0.50");
  let expected =
    Printf.sprintf "serve soak: cells=2 base seed=%Ld\n" config.seed
    ^ String.concat ""
        (List.map
           (fun (i, seed, _) ->
             Alcotest.(check int64) "derived seed" (Int64.add config.seed (Int64.of_int i)) seed;
             Printf.sprintf "\n--- cell %d (seed %Ld) ---\n%s" i seed (snd (render_to (cell seed))))
           cells)
    ^ Printf.sprintf "\nsoak verdict: %s (2 cells)\n" (Campaign.verdict_to_string verdict)
  in
  Alcotest.(check string) "each cell is the campaign at seed + i" expected out

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_zipf_support_bounds; prop_zipf_rank_frequency_monotone; prop_zipf_seed_deterministic ]

let () =
  Alcotest.run "serve"
    [
      ( "zipf",
        [
          Alcotest.test_case "rejects bad args" `Quick test_zipf_rejects_bad_args;
          Alcotest.test_case "golden sequence" `Quick test_zipf_golden_sequence;
          Alcotest.test_case "degenerate support" `Quick test_zipf_degenerate_support;
        ]
        @ qsuite );
      ( "workload",
        [
          Alcotest.test_case "mix validation" `Quick test_mix_validation;
          Alcotest.test_case "zero weights" `Quick test_mix_pick_honours_zero_weights;
          Alcotest.test_case "store spec guards" `Quick test_store_spec_rejects_bad_keys;
        ] );
      ( "slo",
        [
          Alcotest.test_case "validate" `Quick test_slo_validate;
          Alcotest.test_case "empty histogram fails" `Quick test_slo_empty_histogram_fails;
          Alcotest.test_case "gates" `Quick test_slo_evaluate_gates;
        ] );
      ( "serve",
        [
          Alcotest.test_case "validate rejections" `Quick test_serve_validate_rejections;
          Alcotest.test_case "run rejects invalid" `Quick test_serve_run_rejects_invalid;
          Alcotest.test_case "same seed identical" `Quick test_serve_same_seed_identical;
          Alcotest.test_case "seed matters" `Quick test_serve_seed_matters;
          Alcotest.test_case "chaos-composed identical" `Slow test_serve_chaos_composed_identical;
          Alcotest.test_case "popcorn personality" `Quick test_serve_popcorn_runs;
          Alcotest.test_case "op counters" `Quick test_serve_counters_cover_ops;
          Alcotest.test_case "golden pin" `Quick test_serve_golden;
          Alcotest.test_case "soak cells keep config" `Slow test_soak_cells_keep_config;
        ] );
    ]
