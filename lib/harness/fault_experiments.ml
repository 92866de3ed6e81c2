(* Fault-injection campaign: run a workload on the fused kernel with an
   armed fault plan, then audit kernel state.

   Everything printed is a pure function of (seed, bench, plan config):
   the plan draws from private streams split off a seed derived from the
   machine seed, so two runs with the same arguments are byte-identical
   — the property the determinism tests pin down. *)

module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Os = Stramash_machine.Os
module Plan = Stramash_fault_inject.Plan
module Audit = Stramash_fault_inject.Audit
module Stramash_os = Stramash_core.Stramash_os
module Stramash_fault = Stramash_core.Stramash_fault
module W = Stramash_workloads

let plan_config ?(drop_rate = 0.05) ?(ipi_loss = 0.02) ?(walk_fail = 0.02)
    ?(ptl_timeout = 0.01) ?(alloc_fail = 0.005) () =
  {
    Plan.default with
    Plan.msg_drop_rate = drop_rate;
    msg_delay_rate = drop_rate /. 2.0;
    ipi_loss_rate = ipi_loss;
    ipi_jitter_rate = ipi_loss;
    walk_fail_rate = walk_fail;
    ptl_timeout_rate = ptl_timeout;
    alloc_fail_rate = alloc_fail;
  }

(* Small problem sizes: the campaign's point is fault-path coverage, not
   steady-state performance, and the tests run it twice back to back.
   The set itself comes from the shared NPB table. *)
let benches = W.Npb_suite.fig9_names

let spec_of_bench bench = List.assoc_opt bench (W.Npb_suite.fig9_set ~small:true)

type config = { seed : int64; bench : string; plan : Plan.config }

let default = { seed = 0xC0FFEEL; bench = "is"; plan = plan_config () }

let campaign ?(on_metrics = Campaign.no_metrics) fmt { seed; bench; plan } =
  match spec_of_bench bench with
  | None ->
      Format.fprintf fmt "unknown benchmark %s (faults campaign runs is | cg | mg | ft)@." bench;
      Campaign.Unknown_bench
  | Some spec ->
      let machine =
        Machine.create
          {
            Machine.default_config with
            Machine.os = Machine.Stramash_kernel_os;
            seed;
            inject = Some plan;
          }
      in
      let proc, thread = Machine.load machine spec in
      let result = Runner.run machine proc thread spec in
      Format.fprintf fmt "faults campaign: bench=%s seed=%Ld@." bench seed;
      Format.fprintf fmt
        "run: wall=%d cycles, %d instructions, %d migrations, %d messages, %d fallback pages@."
        result.Runner.wall_cycles result.Runner.instructions result.Runner.migrations
        result.Runner.messages result.Runner.replicated_pages;
      (match Machine.inject_plan machine with
      | Some plan ->
          Plan.report fmt plan;
          on_metrics ~label:"fault_plan" (Plan.metrics plan)
      | None -> ());
      let env = Machine.env machine in
      let extra =
        match Machine.os machine with
        | Os.Stramash os ->
            [ ("ptl-quiescent", Stramash_fault.ptls_quiescent (Stramash_os.faults os)) ]
        | _ -> []
      in
      let audit = Audit.run ~env ~procs:[ proc ] ~extra () in
      Format.fprintf fmt "post-run audit: %a@." Audit.pp audit;
      let mapped = Audit.mapped_frames ~env ~proc in
      Machine.exit_process machine proc;
      let teardown = Audit.check_teardown ~env ~procs:[ proc ] ~mapped in
      Format.fprintf fmt "teardown audit (%d frames tracked): %a@." (List.length mapped)
        Audit.pp teardown;
      let clean = Audit.is_clean audit && Audit.is_clean teardown in
      let verdict = if clean then Campaign.Clean else Campaign.Violations in
      Format.fprintf fmt "campaign verdict: %s@." (Campaign.verdict_to_string verdict);
      verdict

(* Experiments-registry entry: one moderate-intensity campaign plus a
   no-fault control, both audited. *)
let faults fmt =
  let config = { default with seed = 0xFA017L } in
  ignore (campaign fmt config);
  Format.fprintf fmt "@.";
  ignore (campaign fmt { config with plan = Plan.default })
