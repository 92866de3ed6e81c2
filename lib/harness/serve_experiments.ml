module Node_id = Stramash_sim.Node_id
module Cycles = Stramash_sim.Cycles
module Rng = Stramash_sim.Rng
module Metrics = Stramash_sim.Metrics
module Histogram = Stramash_sim.Metrics.Histogram
module Cache_sim = Stramash_cache.Cache_sim
module Machine = Stramash_machine.Machine
module Plan = Stramash_fault_inject.Plan
module Fault = Stramash_fault_inject.Fault
module Serve = Stramash_serve.Serve
module Slo = Stramash_serve.Slo

type config = {
  seed : int64;
  keys : int;
  theta : float;
  rate : float;
  requests : int;
  payload : int;
  cache_mode : Cache_sim.mode;
  placement : bool;
  chaos : bool;
  gray : bool;
  scrub : bool;
  factor : float;
}

let default =
  {
    seed = 0x5E12E5L;
    keys = 1 lsl 20;
    theta = 0.99;
    rate = 20_000.0;
    requests = 20_000;
    payload = 1024;
    cache_mode = Cache_sim.Fast;
    placement = true;
    chaos = true;
    gray = true;
    scrub = true;
    factor = 3.0;
  }

let base { seed; keys; theta; rate; requests; payload; cache_mode; _ } =
  { Serve.default with Serve.keys; theta; rate; requests; payload; seed; cache_mode }

(* Expected wall span of an open-loop run: the arrival schedule's mean
   covers it regardless of service times (the last arrival lands near
   requests * mean-gap; service only adds the final drain). Both fault
   schedules anchor on it. *)
let expected_span ~rate ~requests =
  int_of_float (float_of_int requests *. (Cycles.frequency_ghz *. 1e9 /. rate))

let chaos_inject ~seed ~span =
  let rng = Rng.create ~seed:(Int64.logxor seed 0x5EC4A05DEAD5EEDL) in
  let third = max 2 (span / 3) in
  let jitter () = Rng.int rng (max 1 (span / 20)) in
  (* 1% of the span per island: long enough that the stalled cohort and
     the post-restart queue drain show up at p99, not just at max. *)
  let down = max (Cycles.of_us 150.0) (span / 100) in
  {
    Plan.default with
    node_events =
      [
        { Plan.node = Node_id.Arm; kill_at = third + jitter (); restart_after = Some down };
        { Plan.node = Node_id.X86; kill_at = (2 * third) + jitter (); restart_after = Some down };
      ];
  }

let gray_inject ~seed ~span ~factor =
  let rng = Rng.create ~seed:(Int64.logxor seed 0x64A7_5EEDL) in
  let third = max 2 (span / 3) in
  let jitter = Rng.int rng (max 1 (span / 20)) in
  {
    Plan.default with
    gray_slow = [ { Plan.g_node = Node_id.Arm; g_start = third + jitter; g_len = third; g_factor = factor } ];
  }

let scrub_inject = { Plan.default with corrupt_pte_rate = 0.05; scrub_enabled = true }

let p99_us h = Slo.cycles_to_us (Histogram.p99 h)

(* One cell rendered into its own buffer: the replay check compares this
   string byte-for-byte, so everything a cell prints must be a pure
   function of its config. *)
let run_cell ~label cfg =
  let buf = Buffer.create 4096 in
  let b = Format.formatter_of_buffer buf in
  let outcome = Serve.run cfg in
  Format.fprintf b "--- cell %s ---@." label;
  Serve.pp_outcome b outcome;
  List.iter
    (fun key ->
      match List.assoc_opt key outcome.Serve.o_counters with
      | Some v when v > 0 -> Format.fprintf b "  %s = %d@." key v
      | _ -> ())
    [
      "serve.queue_wait_cycles";
      "serve.idle_cycles";
      "serve.downtime_stall_cycles";
      "serve.stalled_requests";
      "serve.quanta";
    ];
  List.iter (fun (k, v) -> if v > 0 then Format.fprintf b "  %s = %d@." k v) outcome.Serve.o_placement;
  (match outcome.Serve.o_plan with
  | None -> ()
  | Some plan ->
      List.iter
        (fun (k, v) ->
          let relevant prefix = String.length k >= String.length prefix
                                && String.sub k 0 (String.length prefix) = prefix in
          if v > 0 && (relevant "gray." || relevant "corruption." || relevant "chaos.") then
            Format.fprintf b "  plan: %s = %d@." k v)
        (Metrics.to_assoc (Plan.metrics plan)));
  Format.pp_print_flush b ();
  (outcome, Buffer.contents buf)

let campaign ?(on_metrics = Campaign.no_metrics) fmt config =
  let { seed; keys; theta; rate; requests; payload; placement; chaos; gray; scrub; factor; _ } =
    config
  in
  let base = base config in
  match Serve.validate base with
  | Error msg ->
      Format.fprintf fmt "serve campaign: invalid config: %s@." msg;
      Format.fprintf fmt "campaign verdict: %s@." (Campaign.verdict_to_string Unknown_bench);
      Campaign.Unknown_bench
  | Ok () -> (
      let span = expected_span ~rate ~requests in
      Format.fprintf fmt
        "open-loop serving campaign: keys=%d theta=%.2f rate=%.0f req/s requests=%d payload=%d B \
         seed=%Ld@."
        keys theta rate requests payload seed;
      Format.fprintf fmt
        "arrivals are stamped by the interarrival schedule (expected span %a): queueing delay is \
         in every sample, coordinated omission is impossible by construction@." Cycles.pp span;
      let cells =
        [ ("popcorn-shm", { base with Serve.os = Machine.Popcorn_shm }); ("stramash", base) ]
        @ (if placement then [ ("stramash+placement", { base with Serve.placement = true }) ] else [])
        @ (if chaos then
             [ ("stramash+chaos", { base with Serve.inject = Some (chaos_inject ~seed ~span) }) ]
           else [])
        @ (if gray then
             [ ("stramash+gray", { base with Serve.inject = Some (gray_inject ~seed ~span ~factor) }) ]
           else [])
        @ if scrub then [ ("stramash+scrub", { base with Serve.inject = Some scrub_inject }) ] else []
      in
      try
        let results = List.map (fun (label, cfg) -> (label, cfg, run_cell ~label cfg)) cells in
        let outcome_of l =
          let _, _, (o, _) = List.find (fun (label, _, _) -> label = l) results in
          o
        in
        let baseline = outcome_of "stramash" in
        List.iter
          (fun (label, _, (outcome, text)) ->
            Format.fprintf fmt "@.%s" text;
            if label <> "stramash" then
              Format.fprintf fmt "  p99 delta vs stramash baseline: %+.1fus@."
                (p99_us outcome.Serve.o_all -. p99_us baseline.Serve.o_all);
            on_metrics ~label:("serve_" ^ label) (Serve.registry_of outcome))
          results;
        (* Same-seed replay: the baseline and the chaos-composed cell must
           reproduce their rendered reports byte-for-byte. *)
        let replay label =
          let _, cfg, (_, first) = List.find (fun (l, _, _) -> l = label) results in
          let _, again = run_cell ~label cfg in
          let ok = String.equal first again in
          Format.fprintf fmt "replay %s: %s@." label
            (if ok then "byte-identical" else "MISMATCH");
          ok
        in
        Format.fprintf fmt "@.";
        let replays_ok =
          List.for_all replay ([ "stramash" ] @ if chaos then [ "stramash+chaos" ] else [])
        in
        (* SLO gates apply to the fault-free Stramash cells; composed
           cells report their (expected) degradation instead of gating. *)
        let slo_ok =
          baseline.Serve.o_slo.Slo.pass
          && ((not placement) || (outcome_of "stramash+placement").Serve.o_slo.Slo.pass)
        in
        let verdict = if replays_ok && slo_ok then Campaign.Clean else Campaign.Violations in
        Format.fprintf fmt "campaign verdict: %s (slo %s, replays %s)@."
          (Campaign.verdict_to_string verdict)
          (if slo_ok then "pass" else "fail")
          (if replays_ok then "identical" else "diverged");
        verdict
      with Fault.Error e ->
        Format.fprintf fmt "unrecovered fault: %a@." Fault.pp e;
        Format.fprintf fmt "campaign verdict: %s@." (Campaign.verdict_to_string Unrecovered);
        Campaign.Unrecovered)

(* Experiments-registry entry: one reduced-size campaign (the full-size
   matrix is the CLI's and CI's job). *)
let serve fmt = ignore (campaign fmt { default with keys = 65_536; requests = 6_000 })
