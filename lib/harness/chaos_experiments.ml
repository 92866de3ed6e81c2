(* Chaos campaign: crash-stop node failures under a live NPB workload.

   The campaign first runs the workload fault-free to fingerprint it
   (wall cycles + the NPB checksum word), then replays it under a seeded
   kill/restart schedule spread across that baseline wall, auditing the
   kernel invariants after every recovery and comparing the surviving
   result's checksum against the no-fault fingerprint. Output is a pure
   function of (seed, bench, kills, downtime, cache mode): the schedule's
   jitter comes from an Rng split off the seed, so two runs with the same
   arguments are byte-identical. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Cycles = Stramash_sim.Cycles
module Metrics = Stramash_sim.Metrics
module Cache_sim = Stramash_cache.Cache_sim
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Os = Stramash_machine.Os
module Spec = Stramash_machine.Spec
module Process = Stramash_kernel.Process
module Plan = Stramash_fault_inject.Plan
module Fault = Stramash_fault_inject.Fault
module Audit = Stramash_fault_inject.Audit
module Stramash_os = Stramash_core.Stramash_os
module Stramash_fault = Stramash_core.Stramash_fault
module Global_alloc = Stramash_core.Global_alloc
module Checkpoint = Stramash_core.Checkpoint
module W = Stramash_workloads
module Placement_engine = Stramash_placement.Engine

let default_downtime = Cycles.of_us 40.0

type config = {
  seed : int64;
  bench : string;
  kills : int;
  downtime : int;
  cache_mode : Cache_sim.mode;
  placement : Stramash_placement.Policy.t option;
}

let default =
  {
    seed = 0xC4A05L;
    bench = "is";
    kills = 3;
    downtime = default_downtime;
    cache_mode = Cache_sim.Fast;
    placement = None;
  }

(* Optionally run the campaign with a page-placement engine attached —
   the placement acceptance gate reruns the kill/restart soak with the
   adaptive policy live, so degraded collapses and restart reconciles
   get audited too. *)
let attach_placement ?policy machine =
  match policy with
  | None -> ()
  | Some policy -> (
      match Machine.os machine with
      | Os.Stramash os -> Machine.attach_placement machine (Placement_engine.create ~policy os)
      | _ -> ())

(* Read the NPB checksum word through whichever kernel still maps it —
   this is the workload fingerprint that must survive the chaos. *)
let checksum machine ~proc =
  List.find_map
    (fun node ->
      Machine.read_user machine ~proc ~node ~vaddr:W.Npb_common.checksum_vaddr ~width:8)
    Node_id.all

(* First cycle at which the baseline run lands the thread on a node other
   than its origin — the moment that node's page table is coldest, and so
   the worst possible time for the origin to die. *)
let far_anchor ~(spec : Spec.t) ~origin (result : Runner.result) =
  List.fold_left
    (fun acc (id, cyc) ->
      match Spec.target_for spec id with
      | Some node when not (Node_id.equal node origin) -> (
          match acc with Some c when c <= cyc -> acc | _ -> Some cyc)
      | _ -> acc)
    None result.Runner.phase_marks

(* Alternating-node kills with seeded jitter; restarts come [downtime]
   later, clamped so the two nodes are never down at once. When the
   baseline exposes a far-node landing, the first kill takes the origin
   down just after it — the survivor must then resolve its cold-page
   faults through the degraded message walk instead of the fused path;
   the remaining kills spread over the rest of the run. *)
let schedule ~seed ~wall ~kills ~downtime ~origin ~anchor =
  let rng = Rng.create ~seed:(Int64.logxor seed 0x5C4A05C4A05L) in
  match anchor with
  | Some anchor when kills >= 1 && anchor < wall ->
      let spacing = max 4 ((wall - anchor) / kills) in
      let downtime = max 1 (min downtime (spacing / 2)) in
      ( List.init kills (fun i ->
            if i = 0 then
              {
                Plan.node = origin;
                kill_at = max 1 (anchor + Rng.int_in rng 500 2000);
                restart_after = Some downtime;
              }
            else
              let node = if i mod 2 = 1 then Node_id.other origin else origin in
              let jitter = Rng.int_in rng (-(spacing / 8)) (spacing / 8) in
              {
                Plan.node;
                kill_at = anchor + (spacing * i) + jitter;
                restart_after = Some downtime;
              }),
        downtime )
  | _ ->
      let gap = max 2 (wall / (kills + 1)) in
      let downtime = max 1 (min downtime (gap / 2)) in
      ( List.init kills (fun i ->
            let node = if i mod 2 = 0 then origin else Node_id.other origin in
            let jitter = Rng.int_in rng (-(gap / 8)) (gap / 8) in
            {
              Plan.node;
              kill_at = max 1 ((gap * (i + 1)) + jitter);
              restart_after = Some downtime;
            }),
        downtime )

let campaign ?(on_metrics = Campaign.no_metrics) fmt
    { seed; bench; kills; downtime; cache_mode; placement } =
  match Fault_experiments.spec_of_bench bench with
  | None ->
      Format.fprintf fmt "unknown benchmark %s (chaos campaign runs %s)@." bench
        (String.concat " | " Fault_experiments.benches);
      Campaign.Unknown_bench
  | Some spec ->
      (* --- fault-free baseline: the fingerprint the survivors must match *)
      let baseline =
        Machine.create
          {
            Machine.default_config with
            Machine.os = Machine.Stramash_kernel_os;
            seed;
            cache_mode;
          }
      in
      attach_placement ?policy:placement baseline;
      let bproc, bthread = Machine.load baseline spec in
      let bresult = Runner.run baseline bproc bthread spec in
      let bchecksum = checksum baseline ~proc:bproc in
      let origin = bproc.Process.origin in
      let anchor = far_anchor ~spec ~origin bresult in
      Machine.exit_process baseline bproc;
      let events, downtime =
        schedule ~seed ~wall:bresult.Runner.wall_cycles ~kills ~downtime ~origin ~anchor
      in
      Format.fprintf fmt "chaos campaign: bench=%s seed=%Ld kills=%d downtime=%d cycles@." bench
        seed (List.length events) downtime;
      Format.fprintf fmt "baseline: wall=%d cycles, checksum=%s@." bresult.Runner.wall_cycles
        (match bchecksum with Some c -> Printf.sprintf "0x%Lx" c | None -> "<unmapped>");
      List.iter
        (fun (ev : Plan.node_event) ->
          Format.fprintf fmt "  schedule: kill %s at %d, restart +%d@."
            (Node_id.to_string ev.Plan.node) ev.Plan.kill_at
            (match ev.Plan.restart_after with Some d -> d | None -> -1))
        events;
      (* --- chaos run *)
      let config = { Plan.default with Plan.node_events = events } in
      let machine =
        Machine.create
          {
            Machine.default_config with
            Machine.os = Machine.Stramash_kernel_os;
            seed;
            cache_mode;
            inject = Some config;
          }
      in
      attach_placement ?policy:placement machine;
      let proc, thread = Machine.load machine spec in
      let env = Machine.env machine in
      let recoveries = ref 0 in
      let dirty_audits = ref 0 in
      let audit_now label =
        let extra, held, ledger =
          match Machine.os machine with
          | Os.Stramash os ->
              let faults = Stramash_os.faults os in
              ( [ ("ptl-quiescent", Stramash_fault.ptls_quiescent faults) ],
                List.map
                  (fun (f : Checkpoint.futex_image) ->
                    (f.Checkpoint.f_uaddr, f.Checkpoint.f_tid))
                  (Stramash_fault.held_waiters faults),
                Global_alloc.ledger (Stramash_os.global_alloc os) )
          | _ -> ([], [], [])
        in
        let report =
          Audit.run ~env ~procs:[ proc ] ~threads:(Machine.threads machine) ~held ~ledger
            ~extra ()
        in
        if Audit.is_clean report then
          Format.fprintf fmt "audit[%s]: clean (%d checks)@." label report.Audit.checks
        else begin
          incr dirty_audits;
          Format.fprintf fmt "audit[%s]: %a" label Audit.pp report
        end
      in
      let on_recovery node =
        incr recoveries;
        audit_now (Printf.sprintf "recovery-%d:%s" !recoveries (Node_id.to_string node))
      in
      let run () =
        let result = Runner.run ~on_recovery machine proc thread spec in
        let chk = checksum machine ~proc in
        audit_now "final";
        let mapped = Audit.mapped_frames ~env ~proc in
        Machine.exit_process machine proc;
        let teardown = Audit.check_teardown ~env ~procs:[ proc ] ~mapped in
        if not (Audit.is_clean teardown) then begin
          incr dirty_audits;
          Format.fprintf fmt "audit[teardown]: %a" Audit.pp teardown
        end
        else
          Format.fprintf fmt "audit[teardown]: clean (%d frames tracked)@." (List.length mapped);
        (result, chk)
      in
      let publish_metrics () =
        match Machine.inject_plan machine with
        | Some plan -> on_metrics ~label:"fault_plan" (Plan.metrics plan)
        | None -> ()
      in
      (match run () with
      | exception Fault.Error e ->
          Format.fprintf fmt "unrecovered failure: %s@." (Fault.to_string e);
          publish_metrics ();
          Format.fprintf fmt "campaign verdict: %s@." (Campaign.verdict_to_string Unrecovered);
          Campaign.Unrecovered
      | result, chk ->
          Format.fprintf fmt
            "chaos run: wall=%d cycles, %d instructions, %d migrations, %d messages@."
            result.Runner.wall_cycles result.Runner.instructions result.Runner.migrations
            result.Runner.messages;
          List.iter
            (fun node ->
              Format.fprintf fmt "  %s downtime: %d cycles@." (Node_id.to_string node)
                result.Runner.ext.Runner.node_downtime.(Node_id.index node))
            Node_id.all;
          (match Machine.inject_plan machine with
          | Some plan -> Plan.report fmt plan
          | None -> ());
          let fingerprint_ok = chk = bchecksum && chk <> None in
          Format.fprintf fmt "survivor checksum: %s (%s baseline)@."
            (match chk with Some c -> Printf.sprintf "0x%Lx" c | None -> "<unmapped>")
            (if fingerprint_ok then "matches" else "DIFFERS from");
          let metrics_ok =
            match Machine.inject_plan machine with
            | Some plan ->
                Metrics.get (Plan.metrics plan) "chaos.downtime_cycles" > 0
                && Metrics.get (Plan.metrics plan) "chaos.degraded_cycles" > 0
            | None -> false
          in
          if not metrics_ok then
            Format.fprintf fmt "warning: downtime/degraded counters did not advance@.";
          publish_metrics ();
          let verdict =
            if !recoveries < List.length events then Campaign.Unrecovered
            else if !dirty_audits = 0 && fingerprint_ok then Clean
            else Violations
          in
          Format.fprintf fmt "campaign verdict: %s (%d recoveries, %d dirty audits)@."
            (Campaign.verdict_to_string verdict) !recoveries !dirty_audits;
          verdict)

(* Experiments-registry entry: one campaign with the default schedule. *)
let chaos fmt = ignore (campaign fmt default)
