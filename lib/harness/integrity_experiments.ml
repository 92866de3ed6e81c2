(* Scrub campaign: silent data corruption injected into a live NPB run,
   detected end to end, and repaired from placement replicas.

   The campaign first runs the workload corruption-free with the adaptive
   placement engine attached to fingerprint it (wall + NPB checksum) and
   find the first far-node landing, then replays it under a seeded
   corruption schedule: bit flips against replicated page pairs spread
   over the run, low-rate CRC-detectable message corruption/truncation,
   stale-PTE installs on the remote-walker path, and — when kills are
   scheduled — a torn checkpoint at every node death. Detection is the
   background scrubber plus the per-message CRC framing and the
   verify-after-install read-back; repair is re-fetch from the clean twin
   (replica or owner), retransmission, reinstall, or the checkpoint
   shadow fallback. The verdict demands every injected corruption
   detected, none unrepaired, at least 90% healed without falling back
   to the checkpoint path, and clean audits including the fingerprint
   proof that memory matches its seals after the shutdown sweep. Output
   is a pure function of (seed, bench, knobs, cache mode). *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Cycles = Stramash_sim.Cycles
module Metrics = Stramash_sim.Metrics
module Cache_sim = Stramash_cache.Cache_sim
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Plan = Stramash_fault_inject.Plan
module Fault = Stramash_fault_inject.Fault
module Integrity = Stramash_fault_inject.Integrity
module Env = Stramash_kernel.Env
module Policy = Stramash_placement.Policy

let default_flips = 6
let default_msg_rate = 0.0005
let default_pte_rate = 0.002

(* Flips need replica pairs to land on, and pairs need the placement
   engine replicating remote-read pages. Static-shm replicates every
   cross-node read (adaptive only promotes read-hot pages, which leaves
   is/mg/ft with an empty roster), so every machine in this campaign
   runs with the shm policy attached. *)
let policy = Policy.Static_shm

(* Bit-flip schedule: spread over [start, wall) with seeded jitter,
   alternating the preferred owner node, 1-2 bits per strike. The start
   anchors just after the first far-node landing — the earliest moment
   replica pairs can exist; events that come due before a pair exists
   stay queued in the injector and land at the next eligible tick. *)
let schedule ~seed ~wall ~anchor ~flips =
  let rng = Rng.create ~seed:(Int64.logxor seed 0x5DC0FFEE5DCL) in
  let start =
    match anchor with
    | Some a when a < wall -> a + Rng.int_in rng 200 1200
    | _ -> (wall / 8) + Rng.int_in rng 0 1000
  in
  let start = max 1 start in
  let span = max flips (wall - start) in
  List.init flips (fun i ->
      {
        Plan.bf_at = start + (span * i / max 1 flips) + Rng.int_in rng 0 (max 1 (span / (4 * max 1 flips)));
        bf_node = i mod 2;
        bf_bits = 1 + Rng.int rng 2;
      })

(* Kill schedule for the soak composition: corruption and crash-stop
   chaos in one plan, every death's checkpoint torn so the v2 header
   rejects it and restart proves the shadow fallback. *)
let kill_schedule ~seed ~wall ~origin ~anchor ~kills =
  if kills <= 0 then []
  else
    let rng = Rng.create ~seed:(Int64.logxor seed 0x5C12B0BB5L) in
    let first = match anchor with Some a when a < wall -> a | _ -> wall / 4 in
    let gap = max 4 ((wall - first) / max 1 kills) in
    let downtime = max 1 (min Chaos_experiments.default_downtime (gap / 2)) in
    List.init kills (fun i ->
        let node = if i mod 2 = 0 then origin else Node_id.other origin in
        {
          Plan.node;
          kill_at = max 1 (first + (gap * i) + Rng.int_in rng 500 2000);
          restart_after = Some downtime;
        })

let scrub_config ~flips ~msg_rate ~pte_rate ~events =
  {
    Plan.default with
    Plan.corrupt_flips = flips;
    corrupt_msg_rate = msg_rate;
    corrupt_msg_truncate_rate = msg_rate /. 2.0;
    corrupt_pte_rate = pte_rate;
    corrupt_ckpt_rate = (if events = [] then 0.0 else 1.0);
    scrub_enabled = true;
    scrub_interval_cycles = Cycles.of_us 10.0;
    scrub_pages_per_epoch = 32;
    node_events = events;
  }

type config = {
  seed : int64;
  bench : string;
  flips : int;
  msg_rate : float;
  pte_rate : float;
  kills : int;
  cache_mode : Cache_sim.mode;
}

let default =
  {
    seed = 0x5DCL;
    bench = "is";
    flips = default_flips;
    msg_rate = default_msg_rate;
    pte_rate = default_pte_rate;
    kills = 0;
    cache_mode = Cache_sim.Fast;
  }

(* The config shape the CLI validates before committing to a run: the
   user's knobs in place, a placeholder flip carrying nothing exotic. *)
let probe_config { flips; msg_rate; pte_rate; _ } =
  scrub_config
    ~flips:(List.init (max 1 flips) (fun i -> { Plan.bf_at = 1 + i; bf_node = 0; bf_bits = 1 }))
    ~msg_rate ~pte_rate ~events:[]

let campaign ?(on_metrics = Campaign.no_metrics) fmt
    { seed; bench; flips; msg_rate; pte_rate; kills; cache_mode } =
  match Campaign.spec_of_bench fmt ~campaign:"scrub" bench with
  | None -> Campaign.Unknown_bench
  | Some spec ->
      (* --- corruption-free baseline: fingerprint + schedule anchor *)
      let base = Campaign.baseline ~policy ~seed ~cache_mode spec in
      let wall = base.Campaign.wall and anchor = base.Campaign.anchor in
      let flip_events = schedule ~seed ~wall ~anchor ~flips in
      let kill_events = kill_schedule ~seed ~wall ~origin:base.Campaign.origin ~anchor ~kills in
      let config =
        scrub_config ~flips:flip_events ~msg_rate ~pte_rate ~events:kill_events
      in
      Format.fprintf fmt
        "scrub campaign: bench=%s seed=%Ld flips=%d msg-rate=%.4f pte-rate=%.4f kills=%d@."
        bench seed flips msg_rate pte_rate (List.length kill_events);
      Campaign.pp_baseline fmt base;
      List.iter
        (fun (bf : Plan.bit_flip) ->
          Format.fprintf fmt "  schedule: flip %d bit%s near node %d at %d@." bf.Plan.bf_bits
            (if bf.Plan.bf_bits = 1 then "" else "s")
            bf.Plan.bf_node bf.Plan.bf_at)
        flip_events;
      List.iter
        (fun (ev : Plan.node_event) ->
          Format.fprintf fmt "  schedule: kill %s at %d, restart +%d (checkpoint torn)@."
            (Node_id.to_string ev.Plan.node) ev.Plan.kill_at
            (match ev.Plan.restart_after with Some d -> d | None -> -1))
        kill_events;
      (* --- instrumented run *)
      let machine = Campaign.stramash ~seed ~cache_mode ~inject:config () in
      ignore (Campaign.attach_placement ~policy machine);
      let proc, thread = Machine.load machine spec in
      let env = Machine.env machine in
      let recoveries = ref 0 in
      let dirty_audits = ref 0 in
      let integrity_store () =
        match Machine.inject_plan machine with Some plan -> Plan.integrity plan | None -> None
      in
      let audit_now ?extra label =
        if not (Campaign.audit fmt ~label machine ~proc ?extra ()) then incr dirty_audits
      in
      let on_recovery node =
        incr recoveries;
        audit_now (Printf.sprintf "recovery-%d:%s" !recoveries (Node_id.to_string node))
      in
      let run () =
        let result = Runner.run ~on_recovery machine proc thread spec in
        (* shutdown sweep: every still-tracked frame verified, so nothing
           injected can be latent when the final audit proves memory *)
        (match integrity_store () with
        | Some st ->
            let s = Integrity.sweep_all st env.Env.phys ~now:result.Runner.wall_cycles in
            Format.fprintf fmt
              "shutdown sweep: %d pages verified, %d repaired, %d unrepaired@."
              s.Integrity.ts_scanned
              (List.length s.Integrity.ts_repairs)
              s.Integrity.ts_unrepaired
        | None -> ());
        let chk = Campaign.checksum machine ~proc in
        (* the fingerprint proof runs only after the shutdown sweep —
           mid-run a flip may legitimately still be latent *)
        audit_now "final"
          ?extra:
            (Option.map
               (fun st -> [ ("integrity-fingerprints", Integrity.audit_clean st env.Env.phys) ])
               (integrity_store ()));
        if not (Campaign.teardown fmt ~label:"teardown" machine ~proc) then incr dirty_audits;
        (result, chk)
      in
      let publish () =
        match Machine.inject_plan machine with
        | Some plan -> on_metrics ~label:"scrub" (Plan.metrics plan)
        | None -> ()
      in
      (match run () with
      | exception Fault.Error e ->
          Format.fprintf fmt "unrecovered failure: %s@." (Fault.to_string e);
          publish ();
          Format.fprintf fmt "campaign verdict: %s@." (Campaign.verdict_to_string Unrecovered);
          Campaign.Unrecovered
      | result, chk ->
          Format.fprintf fmt
            "scrub run: wall=%d cycles, %d instructions, %d migrations, %d messages@."
            result.Runner.wall_cycles result.Runner.instructions result.Runner.migrations
            result.Runner.messages;
          let plan = Option.get (Machine.inject_plan machine) in
          Plan.report fmt plan;
          let injected = Plan.corruption_injected plan in
          let detected = Plan.corruption_detected plan in
          let repaired = Plan.corruption_repaired plan in
          let fallbacks = Plan.corruption_fallbacks plan in
          let unrepaired = Plan.corruption_unrepaired plan in
          let reg = Plan.metrics plan in
          let outstanding =
            match integrity_store () with Some st -> Integrity.flips_outstanding st | None -> 0
          in
          let exposure =
            match integrity_store () with
            | Some st -> Integrity.max_exposure_cycles st
            | None -> 0
          in
          Format.fprintf fmt
            "corruption: injected=%d detected=%d repaired=%d fallbacks=%d unrepaired=%d \
             never-landed=%d@."
            injected detected repaired fallbacks unrepaired outstanding;
          Format.fprintf fmt
            "exposure: max=%d cycles, total detection latency=%d cycles, %d pages scanned \
             in %d sweeps@."
            exposure
            (Metrics.get reg "corruption.detection_latency_cycles")
            (Metrics.get reg "scrub.pages_scanned")
            (Metrics.get reg "scrub.epochs");
          ignore (Campaign.survivor fmt ~label:"survivor" base chk);
          publish ();
          (* All injected corruption detected; everything healed without
             loss; of the corruptions a replica could heal (everything
             except torn checkpoints, whose only repair *is* the shadow
             fallback), at least 90% avoided the fallback; the audits
             (fingerprint proof included) stayed clean. The NPB checksum
             is reported above but not gated: a read landing inside a
             detection window may legitimately observe the corrupt value
             — that exposure is what the campaign measures. *)
          let verdict =
            if !recoveries < List.length kill_events then Campaign.Unrecovered
            else if
              !dirty_audits = 0 && injected > 0 && detected = injected && unrepaired = 0
              && repaired + fallbacks = detected
              && 10 * repaired >= 9 * (detected - fallbacks)
            then Clean
            else Violations
          in
          Format.fprintf fmt "campaign verdict: %s (%d dirty audits, %d/%d detected)@."
            (Campaign.verdict_to_string verdict) !dirty_audits detected injected;
          verdict)

(* Experiments-registry entry: one campaign with the default schedule. *)
let scrub fmt = ignore (campaign fmt default)
