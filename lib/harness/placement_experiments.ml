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
module Engine = Stramash_placement.Engine
module Policy = Stramash_placement.Policy
module W = Stramash_workloads

let default_seed = 0x91ACEL

(* One seeded Stramash run under [policy]; the engine is attached before
   load so the write hook covers the whole lifetime. *)
let run_policy ?(seed = default_seed) ?(cache_mode = Cache_sim.Fast) ?epoch ~policy spec =
  let machine = Campaign.stramash ~seed ~cache_mode () in
  let engine = Campaign.attach_placement ?epoch ~policy machine in
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
  (* Full-size NPB specs (as in Figs. 9-10): the CG crossover only shows
     at class size — the small campaign specs amortise too few remote
     misses for SHM's replicate-always to win. The verdict campaign keeps
     the small specs so CI stays quick. *)
  List.iter
    (fun (bench, spec) ->
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
    (W.Npb_suite.fig9_set ~small:false);
  Report.print fmt r

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
  match Campaign.spec_of_bench fmt ~campaign:"placement" bench with
  | None -> Campaign.Unknown_bench
  | Some spec ->
      Format.fprintf fmt "placement campaign: bench=%s policy=%s seed=%Ld epoch=%s@." bench
        (Policy.to_string policy) seed
        (match epoch with Some e -> string_of_int e | None -> "default");
      let dirty = ref 0 in
      let audited clean = if not clean then incr dirty in
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
          audited (Campaign.audit fmt ~label:"final" machine ~proc ());
          audited (Campaign.teardown fmt ~label:"teardown" machine ~proc);
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
                  audited (Campaign.audit fmt ~label:"paranoid" machine3 ~proc:proc3 ());
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
