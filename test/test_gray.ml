(* Gray-failure resilience: plan validation, slow-down/flap/stall
   schedules, health scoring + circuit breakers, and the breaker-on/off
   campaign. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Cycles = Stramash_sim.Cycles
module Metrics = Stramash_sim.Metrics
module Plan = Stramash_fault_inject.Plan
module Health = Stramash_fault_inject.Health
module GE = Stramash_harness.Gray_experiments
module Campaign = Stramash_harness.Campaign

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let window ?(node = Node_id.X86) ?(start = 100) ?(len = 1000) ?(factor = 2.0) () =
  { Plan.g_node = node; g_start = start; g_len = len; g_factor = factor }

(* ---------- Plan.validate ---------- *)

let expect_invalid label config =
  match Plan.validate config with
  | Ok () -> Alcotest.failf "%s: validate accepted a malformed config" label
  | Error _ -> ()

let test_validate_rejects_malformed () =
  expect_invalid "factor < 1" { Plan.default with gray_slow = [ window ~factor:0.9 () ] };
  expect_invalid "zero-length window" { Plan.default with gray_slow = [ window ~len:0 () ] };
  expect_invalid "overlapping windows on one node"
    {
      Plan.default with
      gray_slow = [ window ~start:100 ~len:1000 (); window ~start:500 ~len:100 () ];
    };
  expect_invalid "dup rate > 1" { Plan.default with msg_dup_rate = 1.5 };
  expect_invalid "negative reorder cycles" { Plan.default with msg_reorder_cycles = -1 };
  expect_invalid "alpha out of range" { Plan.default with health_alpha = 0.0 };
  expect_invalid "trip score out of range" { Plan.default with breaker_trip_score = 1.0 };
  expect_invalid "jitter out of range" { Plan.default with backoff_jitter = 1.0 };
  expect_invalid "timeout mult < 1" { Plan.default with adaptive_timeout_mult = 0.5 };
  expect_invalid "readmit probes < 1" { Plan.default with breaker_readmit_probes = 0 };
  expect_invalid "flap drop rate" {
    Plan.default with
    gray_flaps = [ { Plan.fl_start = 1; fl_len = 10; fl_drop_rate = 2.0; fl_delay_cycles = 0 } ];
  };
  expect_invalid "stall cycles < 0" {
    Plan.default with
    gray_ptl_stalls = [ { Plan.st_start = 1; st_len = 10; st_stall_cycles = -5 } ];
  }

let test_validate_accepts_sane () =
  checkb "default is valid" true (Plan.validate Plan.default = Ok ());
  checkb "adjacent windows on one node are fine" true
    (Plan.validate
       {
         Plan.default with
         gray_slow = [ window ~start:100 ~len:400 (); window ~start:500 ~len:100 () ];
       }
    = Ok ());
  checkb "same span on different nodes is fine" true
    (Plan.validate
       {
         Plan.default with
         gray_slow =
           [ window ~node:Node_id.X86 (); window ~node:Node_id.Arm () ];
       }
    = Ok ());
  checkb "create raises on malformed" true
    (match Plan.create ~seed:1L { Plan.default with msg_dup_rate = -0.1 } with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- schedules ---------- *)

let test_slow_window_inflation () =
  let plan =
    Plan.create ~seed:7L
      { Plan.default with gray_slow = [ window ~start:100 ~len:1000 ~factor:3.0 () ] }
  in
  checkb "armed" true (Plan.gray_armed plan);
  checki "before the window" 0 (Plan.inflate plan ~node:Node_id.X86 ~now:99 ~cycles:200);
  checki "inside: (factor-1) x cycles" 400
    (Plan.inflate plan ~node:Node_id.X86 ~now:100 ~cycles:200);
  checki "window end is exclusive" 0 (Plan.inflate plan ~node:Node_id.X86 ~now:1100 ~cycles:200);
  checki "other node untouched" 0 (Plan.inflate plan ~node:Node_id.Arm ~now:500 ~cycles:200);
  checki "inflated cycles counted" 400
    (Metrics.get (Plan.metrics plan) "gray.inflated_cycles")

let test_ptl_stall_window () =
  let plan =
    Plan.create ~seed:7L
      {
        Plan.default with
        gray_ptl_stalls = [ { Plan.st_start = 50; st_len = 100; st_stall_cycles = 777 } ];
      }
  in
  checki "outside" 0 (Plan.ptl_stall_extra plan ~now:49);
  checki "inside" 777 (Plan.ptl_stall_extra plan ~now:50);
  checki "after" 0 (Plan.ptl_stall_extra plan ~now:150)

let test_flap_burst_drops_and_delays () =
  let burst =
    { Plan.fl_start = 1000; fl_len = 1000; fl_drop_rate = 1.0; fl_delay_cycles = 333 }
  in
  let plan = Plan.create ~seed:7L { Plan.default with gray_flaps = [ burst ] } in
  checkb "outside the burst delivers" true
    (match Plan.msg_attempt_at plan ~now:1 with `Deliver 0 -> true | _ -> false);
  checkb "inside a certain burst drops" true (Plan.msg_attempt_at plan ~now:1500 = `Drop);
  let delay_only = { burst with fl_drop_rate = 0.0 } in
  let plan2 = Plan.create ~seed:7L { Plan.default with gray_flaps = [ delay_only ] } in
  checkb "delay-only burst adds the burst delay" true
    (match Plan.msg_attempt_at plan2 ~now:1500 with `Deliver d -> d >= 333 | `Drop -> false)

(* Same seed, same config: the gray decision stream replays identically. *)
let test_gray_determinism () =
  let config =
    {
      Plan.default with
      gray_flaps =
        [ { Plan.fl_start = 0; fl_len = 10_000; fl_drop_rate = 0.4; fl_delay_cycles = 7 } ];
      msg_dup_rate = 0.3;
      msg_reorder_rate = 0.3;
      msg_reorder_cycles = 11;
    }
  in
  let draw plan =
    List.init 200 (fun i ->
        ( Plan.msg_attempt_at plan ~now:i,
          Plan.msg_duplicated plan,
          Plan.msg_reorder_extra plan ))
  in
  let a = draw (Plan.create ~seed:99L config) in
  let b = draw (Plan.create ~seed:99L config) in
  checkb "identical decision streams" true (a = b);
  let c = draw (Plan.create ~seed:100L config) in
  checkb "different seed diverges" true (a <> c)

(* Arming a gray schedule must not perturb the original five fault
   streams: the same drop decisions come out with and without it. *)
let test_gray_streams_do_not_perturb_base_sites () =
  let base = { Plan.default with msg_drop_rate = 0.3; walk_fail_rate = 0.2 } in
  let armed = { base with gray_slow = [ window () ]; msg_dup_rate = 0.5 } in
  let draw plan = List.init 300 (fun _ -> (Plan.msg_attempt plan, Plan.walk_read_faulted plan)) in
  checkb "base streams identical under gray arming" true
    (draw (Plan.create ~seed:5L base) = draw (Plan.create ~seed:5L armed))

(* An unarmed plan keeps all gray machinery dormant. *)
let test_unarmed_is_inert () =
  let plan = Plan.create ~seed:5L Plan.default in
  checkb "not armed" false (Plan.gray_armed plan);
  checkb "no health" true (Plan.health plan = None);
  checkb "route is fused" true (Plan.breaker_route plan ~peer:Node_id.X86 ~now:0 = `Fused);
  checki "no op histograms" 0 (List.length (Plan.op_histograms plan));
  Plan.record_op plan ~op:"fault" ~cycles:100;
  checki "record_op is a no-op" 0 (List.length (Plan.op_histograms plan));
  checkb "health_enabled alone does not arm" true
    (Plan.health (Plan.create ~seed:5L { Plan.default with health_enabled = true }) = None)

(* ---------- health scoring + breaker ---------- *)

let health_params =
  {
    Health.alpha = 0.3;
    trip_score = 0.55;
    probe_interval = 1000;
    readmit_probes = 2;
    backoff_jitter = 0.25;
    adaptive_timeout_mult = 4.0;
  }

let make_health ?(params = health_params) () =
  Health.create ~rng:(Rng.create ~seed:11L) ~metrics:(Metrics.registry ()) params

let peer = Node_id.Arm

let test_health_score_and_trip () =
  let h = make_health () in
  checkb "fresh peer is healthy" true (Health.score h ~peer = 1.0);
  checkb "fresh breaker closed" true (Health.breaker_state h ~peer = Health.Closed);
  Health.observe_service h ~peer ~cycles:100 ~nominal:100 ~now:0;
  checkb "nominal service keeps it closed" true (Health.breaker_state h ~peer = Health.Closed);
  Health.observe_service h ~peer ~cycles:5000 ~nominal:100 ~now:10;
  checkb "gross slow-down trips the breaker" true (Health.breaker_state h ~peer = Health.Open);
  checkb "score collapsed" true (Health.score h ~peer < 0.55)

let test_failures_trip_breaker () =
  let h = make_health () in
  for i = 1 to 10 do
    Health.observe_failure h ~peer ~now:i
  done;
  checkb "repeated failures trip" true (Health.breaker_state h ~peer = Health.Open)

let test_route_paces_probes () =
  let h = make_health () in
  Health.observe_service h ~peer ~cycles:5000 ~nominal:100 ~now:0;
  checkb "tripped" true (Health.breaker_state h ~peer = Health.Open);
  checkb "diverts immediately after the trip" true (Health.route h ~peer ~now:10 = `Divert);
  checkb "probe released after the interval" true (Health.route h ~peer ~now:1001 = `Probe);
  checkb "next call diverts again (pacing)" true (Health.route h ~peer ~now:1002 = `Divert);
  checkb "healthy peer stays fused" true (Health.route h ~peer:Node_id.X86 ~now:0 = `Fused)

let test_probe_hysteresis_and_readmission () =
  let h = make_health () in
  Health.observe_service h ~peer ~cycles:5000 ~nominal:100 ~now:0;
  (* One good probe is not enough, even once the score recovers: the
     breaker demands [readmit_probes] consecutive passes above the
     raised re-admission bar. *)
  let probe now =
    (* each probe contributes healthy observations, decaying the ratio *)
    Health.observe_service h ~peer ~cycles:100 ~nominal:100 ~now;
    Health.observe_service h ~peer ~cycles:100 ~nominal:100 ~now;
    Health.probe_done h ~peer ~now
  in
  checkb "readmission bar above trip score" true
    (Health.readmit_score h > health_params.Health.trip_score);
  let rec heal now guard =
    if Health.breaker_state h ~peer = Health.Closed then now
    else if guard = 0 then Alcotest.fail "breaker never re-closed"
    else begin
      probe now;
      heal (now + 1000) (guard - 1)
    end
  in
  let closed_at = heal 1000 40 in
  checkb "needed more than one probe" true (closed_at > 2000);
  checkb "closed in the end" true (Health.breaker_state h ~peer = Health.Closed)

let test_failed_probe_reopens () =
  let h = make_health () in
  Health.observe_service h ~peer ~cycles:5000 ~nominal:100 ~now:0;
  (* Heal the score enough to pass one probe... *)
  let rec pump n now =
    if n = 0 then now
    else begin
      Health.observe_service h ~peer ~cycles:100 ~nominal:100 ~now;
      pump (n - 1) (now + 10)
    end
  in
  let now = pump 20 10 in
  Health.probe_done h ~peer ~now;
  checkb "first pass goes half-open" true (Health.breaker_state h ~peer = Health.Half_open);
  (* ...then a bad probe slams it back open and resets the streak. *)
  Health.observe_service h ~peer ~cycles:8000 ~nominal:100 ~now:(now + 10);
  Health.probe_done h ~peer ~now:(now + 10);
  checkb "failed probe reopens" true (Health.breaker_state h ~peer = Health.Open)

let test_adaptive_timeout_and_backoff () =
  let h = make_health () in
  checki "default until first sample" 42
    (Health.adaptive_timeout h ~peer ~floor:1 ~cap:1000 ~default:42);
  Health.observe_msg_rtt h ~peer ~cycles:100 ~nominal:100 ~now:0;
  checki "mult x rtt ewma" 400 (Health.adaptive_timeout h ~peer ~floor:1 ~cap:1000 ~default:42);
  checki "cap clamps" 250 (Health.adaptive_timeout h ~peer ~floor:1 ~cap:250 ~default:42);
  checki "floor clamps" 600 (Health.adaptive_timeout h ~peer ~floor:600 ~cap:1000 ~default:42);
  (* Jittered exponential backoff stays within the jitter envelope and
     grows with the attempt index. *)
  let base = 100 in
  let timeout = Health.adaptive_timeout h ~peer ~floor:1 ~cap:10_000 ~default:42 in
  for attempt = 0 to 4 do
    for _ = 1 to 50 do
      let b = Health.backoff h ~peer ~attempt ~base ~floor:1 ~cap:10_000 ~default:42 in
      let exp = timeout + (base * (1 lsl attempt)) in
      let jitter = health_params.Health.backoff_jitter *. float_of_int exp in
      checkb
        (Printf.sprintf "attempt %d backoff %d within envelope of %d" attempt b exp)
        true
        (float_of_int (abs (b - exp)) <= jitter +. 1.0)
    done
  done

let test_plan_backoff_matches_legacy_when_unarmed () =
  let config = { Plan.default with msg_drop_rate = 0.5 } in
  let plan = Plan.create ~seed:3L config in
  List.iter
    (fun attempt ->
      checki
        (Printf.sprintf "attempt %d" attempt)
        (Plan.msg_backoff plan ~attempt)
        (Plan.msg_backoff_for plan ~peer:Node_id.X86 ~attempt))
    [ 0; 1; 2; 3 ]

(* ---------- campaign ---------- *)

let test_campaign_unknown_bench () =
  let fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  checkb "unknown bench" true
    (GE.campaign fmt { GE.default with bench = "nope" } = Campaign.Unknown_bench)

let test_campaign_clean_and_deterministic () =
  let run () =
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    let verdict = GE.campaign fmt { GE.default with seed = 0x6EA1L } in
    Format.pp_print_flush fmt ();
    (verdict, Buffer.contents buf)
  in
  let v1, out1 = run () in
  let v2, out2 = run () in
  checkb "clean" true (v1 = Campaign.Clean);
  checkb "replay clean" true (v2 = Campaign.Clean);
  checkb "same seed, byte-identical output" true (out1 = out2);
  checkb "breaker comparison rendered" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains out1 "breaker wins")

let () =
  Alcotest.run "gray"
    [
      ( "validate",
        [
          Alcotest.test_case "rejects malformed" `Quick test_validate_rejects_malformed;
          Alcotest.test_case "accepts sane" `Quick test_validate_accepts_sane;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "slow window inflation" `Quick test_slow_window_inflation;
          Alcotest.test_case "ptl stall window" `Quick test_ptl_stall_window;
          Alcotest.test_case "flap burst" `Quick test_flap_burst_drops_and_delays;
          Alcotest.test_case "determinism" `Quick test_gray_determinism;
          Alcotest.test_case "base streams unperturbed" `Quick
            test_gray_streams_do_not_perturb_base_sites;
          Alcotest.test_case "unarmed is inert" `Quick test_unarmed_is_inert;
        ] );
      ( "health",
        [
          Alcotest.test_case "score and trip" `Quick test_health_score_and_trip;
          Alcotest.test_case "failures trip" `Quick test_failures_trip_breaker;
          Alcotest.test_case "probe pacing" `Quick test_route_paces_probes;
          Alcotest.test_case "hysteresis readmission" `Quick
            test_probe_hysteresis_and_readmission;
          Alcotest.test_case "failed probe reopens" `Quick test_failed_probe_reopens;
          Alcotest.test_case "adaptive timeout + backoff" `Quick
            test_adaptive_timeout_and_backoff;
          Alcotest.test_case "unarmed backoff matches legacy" `Quick
            test_plan_backoff_matches_legacy_when_unarmed;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "unknown bench" `Quick test_campaign_unknown_bench;
          Alcotest.test_case "soak clean + deterministic" `Slow
            test_campaign_clean_and_deterministic;
        ] );
    ]
