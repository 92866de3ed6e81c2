(* Adaptive page-placement experiments: the CG crossover table and the
   verdict campaign behind the `place` CLI subcommand.

   The crossover experiment reruns the NPB quartet under the three
   placement policies on the Stramash personality and normalises each
   wall against a Popcorn-SHM run of the same spec — the paper's CG case
   is the motivating 0.85x deficit that Adaptive must close. The
   campaign is the correctness side: a seeded Adaptive run must produce
   byte-identical results when repeated, survive the Paranoid
   cross-checking engine at the same wall, and leave the kernel
   invariant audit and teardown sweep clean. *)

module Cycles = Stramash_sim.Cycles
module Metrics = Stramash_sim.Metrics
module Cache_sim = Stramash_cache.Cache_sim
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Os = Stramash_machine.Os
module Process = Stramash_kernel.Process
module Audit = Stramash_fault_inject.Audit
module Checkpoint = Stramash_core.Checkpoint
module Stramash_os = Stramash_core.Stramash_os
module Stramash_fault = Stramash_core.Stramash_fault
module Global_alloc = Stramash_core.Global_alloc
module Engine = Stramash_placement.Engine
module Policy = Stramash_placement.Policy
module W = Stramash_workloads

let default_seed = 0x91ACEL

(* Full-size NPB specs (as in Figs. 9-10): the CG crossover only shows at
   class size — the small fault-campaign specs amortise too few remote
   misses for SHM's replicate-always to win. The verdict campaign keeps
   the small specs so CI stays quick. *)
let full_spec_of_bench = function
  | "is" -> Some (W.Npb_is.spec ())
  | "cg" -> Some (W.Npb_cg.spec ())
  | "mg" -> Some (W.Npb_mg.spec ())
  | "ft" -> Some (W.Npb_ft.spec ())
  | _ -> None

let attach ?epoch ~policy machine =
  match Machine.os machine with
  | Os.Stramash os ->
      let engine = Engine.create ?epoch ~policy os in
      Machine.attach_placement machine engine;
      engine
  | _ -> invalid_arg "placement: the engine requires the Stramash personality"

(* One seeded Stramash run under [policy]; the engine is attached before
   load so the write hook covers the whole lifetime. *)
let run_policy ?(seed = default_seed) ?(cache_mode = Cache_sim.Fast) ?epoch ~policy spec =
  let machine =
    Machine.create
      { Machine.default_config with Machine.os = Machine.Stramash_kernel_os; seed; cache_mode }
  in
  let engine = attach ?epoch ~policy machine in
  let proc, thread = Machine.load machine spec in
  let result = Runner.run machine proc thread spec in
  (machine, engine, proc, result)

(* The replicate-always reference the crossover normalises against. *)
let run_shm ?(seed = default_seed) ?(cache_mode = Cache_sim.Fast) spec =
  let machine =
    Machine.create
      { Machine.default_config with Machine.os = Machine.Popcorn_shm; seed; cache_mode }
  in
  let proc, thread = Machine.load machine spec in
  let result = Runner.run machine proc thread spec in
  Machine.exit_process machine proc;
  result

let policies = [ Policy.Static_stramash; Policy.Adaptive; Policy.Static_shm ]

type cell = { wall : int; counters : (string * int) list }

let counter counters name = match List.assoc_opt name counters with Some v -> v | None -> 0

let crossover fmt =
  let r =
    Report.create ~title:"Adaptive page placement: NPB wall time vs Popcorn-SHM"
      ~note:
        "speedup = SHM wall / config wall (higher is better); static-stramash is the fused \
         kernel's always-remote path — the paper's CG crossover where SHM's replicate-then-read \
         wins by ~1.18x; adaptive must close it without losing IS/FT"
      ~columns:
        [ "bench"; "shm wall (ms)"; "static-stramash"; "adaptive"; "static-shm"; "adaptive acts" ]
  in
  List.iter
    (fun bench ->
      match full_spec_of_bench bench with
      | None -> ()
      | Some spec ->
          let shm = run_shm spec in
          let cells =
            List.map
              (fun policy ->
                let machine, engine, proc, result = run_policy ~policy spec in
                let counters = Engine.counters engine in
                Machine.exit_process machine proc;
                (policy, { wall = result.Runner.wall_cycles; counters }))
              policies
          in
          let speedup policy =
            let c = List.assoc policy cells in
            Report.cell_x (float_of_int shm.Runner.wall_cycles /. float_of_int c.wall)
          in
          let a = List.assoc Policy.Adaptive cells in
          Report.add_row r
            [
              bench;
              Report.cell_f (Cycles.to_ms shm.Runner.wall_cycles);
              speedup Policy.Static_stramash;
              speedup Policy.Adaptive;
              speedup Policy.Static_shm;
              Printf.sprintf "%dR/%dC/%dM"
                (counter a.counters "placement.replications")
                (counter a.counters "placement.collapses")
                (counter a.counters "placement.migrations");
            ])
    Fault_experiments.benches;
  Report.print fmt r

(* Kernel invariant audit with the Stramash-specific extras, same shape
   as the chaos campaign's. *)
let audit_now fmt machine ~proc ~dirty label =
  let env = Machine.env machine in
  let extra, held, ledger =
    match Machine.os machine with
    | Os.Stramash os ->
        let faults = Stramash_os.faults os in
        ( [ ("ptl-quiescent", Stramash_fault.ptls_quiescent faults) ],
          List.map
            (fun (f : Checkpoint.futex_image) -> (f.Checkpoint.f_uaddr, f.Checkpoint.f_tid))
            (Stramash_fault.held_waiters faults),
          Global_alloc.ledger (Stramash_os.global_alloc os) )
    | _ -> ([], [], [])
  in
  let report =
    Audit.run ~env ~procs:[ proc ] ~threads:(Machine.threads machine) ~held ~ledger ~extra ()
  in
  if Audit.is_clean report then
    Format.fprintf fmt "audit[%s]: clean (%d checks)@." label report.Audit.checks
  else begin
    incr dirty;
    Format.fprintf fmt "audit[%s]: %a" label Audit.pp report
  end

(* Fingerprint of a run for the determinism and Paranoid cross-checks:
   everything the placement engine could perturb. *)
let fingerprint (result : Runner.result) counters =
  (result.Runner.wall_cycles, result.Runner.instructions, result.Runner.migrations, counters)

type config = {
  seed : int64;
  bench : string;
  policy : Policy.t;
  epoch : int option;
  cache_mode : Cache_sim.mode;
}

let default =
  {
    seed = default_seed;
    bench = "cg";
    policy = Policy.Adaptive;
    epoch = None;
    cache_mode = Cache_sim.Fast;
  }

let campaign ?(on_metrics = Campaign.no_metrics) fmt { seed; bench; policy; epoch; cache_mode } =
  match Fault_experiments.spec_of_bench bench with
  | None ->
      Format.fprintf fmt "unknown benchmark %s (placement campaign runs %s)@." bench
        (String.concat " | " Fault_experiments.benches);
      Campaign.Unknown_bench
  | Some spec ->
      Format.fprintf fmt "placement campaign: bench=%s policy=%s seed=%Ld epoch=%s@." bench
        (Policy.to_string policy) seed
        (match epoch with Some e -> string_of_int e | None -> "default");
      let dirty = ref 0 in
      let run cache_mode =
        let machine, engine, proc, result = run_policy ~seed ~cache_mode ?epoch ~policy spec in
        let counters = Engine.counters engine in
        (machine, proc, result, counters)
      in
      (match run cache_mode with
      | exception Cache_sim.Divergence msg ->
          incr dirty;
          Format.fprintf fmt "paranoid divergence: %s@." msg;
          Format.fprintf fmt "campaign verdict: %s@." (Campaign.verdict_to_string Violations);
          on_metrics ~label:"placement" (Metrics.registry ());
          Campaign.Violations
      | machine, proc, result, counters ->
          Format.fprintf fmt "run: wall=%d cycles, %d instructions, %d migrations@."
            result.Runner.wall_cycles result.Runner.instructions result.Runner.migrations;
          List.iter (fun (k, v) -> Format.fprintf fmt "  %s = %d@." k v) counters;
          audit_now fmt machine ~proc ~dirty "final";
          let env = Machine.env machine in
          let mapped = Audit.mapped_frames ~env ~proc in
          Machine.exit_process machine proc;
          let teardown = Audit.check_teardown ~env ~procs:[ proc ] ~mapped in
          if Audit.is_clean teardown then
            Format.fprintf fmt "audit[teardown]: clean (%d frames tracked)@."
              (List.length mapped)
          else begin
            incr dirty;
            Format.fprintf fmt "audit[teardown]: %a" Audit.pp teardown
          end;
          (* Same seed, same arguments: the decision stream must replay
             byte-identically. *)
          let machine2, proc2, result2, counters2 = run cache_mode in
          Machine.exit_process machine2 proc2;
          let deterministic = fingerprint result counters = fingerprint result2 counters2 in
          Format.fprintf fmt "determinism: %s@."
            (if deterministic then "replay identical" else "REPLAY DIVERGED");
          if not deterministic then incr dirty;
          (* The Paranoid engine runs fast path and reference side by side
             and raises on any divergence; its wall must equal the Fast
             run's, so placement decisions are engine-independent. *)
          let paranoid_ok =
            if cache_mode = Cache_sim.Paranoid then true
            else
              match run Cache_sim.Paranoid with
              | exception Cache_sim.Divergence msg ->
                  Format.fprintf fmt "paranoid divergence: %s@." msg;
                  false
              | machine3, proc3, result3, counters3 ->
                  audit_now fmt machine3 ~proc:proc3 ~dirty "paranoid";
                  Machine.exit_process machine3 proc3;
                  fingerprint result counters = fingerprint result3 counters3
          in
          Format.fprintf fmt "paranoid cross-check: %s@."
            (if paranoid_ok then "agrees with fast path" else "DISAGREES");
          if not paranoid_ok then incr dirty;
          let registry = Metrics.registry () in
          List.iter (fun (k, v) -> Metrics.set registry k v) counters;
          Metrics.set registry "placement.wall_cycles" result.Runner.wall_cycles;
          on_metrics ~label:"placement" registry;
          let verdict = if !dirty = 0 then Campaign.Clean else Campaign.Violations in
          Format.fprintf fmt "campaign verdict: %s (%d dirty checks)@."
            (Campaign.verdict_to_string verdict) !dirty;
          verdict)

(* Experiments-registry entry: crossover table plus one Adaptive CG
   verdict soak. *)
let placement fmt =
  crossover fmt;
  ignore (campaign fmt default)
