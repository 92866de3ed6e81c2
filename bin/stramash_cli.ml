(* stramash_cli — command-line front end for the Stramash reproduction.

   Subcommands:
     list                         show available experiments and workloads
     experiment <id>...           regenerate specific tables/figures
     npb <bench>                  run one NPB-like kernel under one config
     redis                        run the network-serving model
     futex <loops>                run the futex microbenchmark
     faults                       run the fault-injection campaign + audit
     chaos                        run the node-failure chaos campaign
     place                        run the page-placement campaign
     gray                         run the gray-failure breaker-on/off campaign
     scrub                        run the silent-data-corruption campaign
     serve                        run the open-loop serving campaign (tail SLOs)
     obs <file>                   analyse a trace or metrics snapshot offline
     machine                      describe the simulated platform
     disasm <bench>               disassemble a workload's image

   The six campaign subcommands are all made by [campaign_cmd];
   chaos, scrub and serve also run as soaks. *)

open Cmdliner
module H = Stramash_harness
module W = Stramash_workloads
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Layout = Stramash_mem.Layout
module Node_id = Stramash_sim.Node_id
module Cycles = Stramash_sim.Cycles
module Metrics = Stramash_sim.Metrics
module Plan = Stramash_fault_inject.Plan
module Cache_sim = Stramash_cache.Cache_sim

let fmt = Format.std_formatter

(* ---------- shared arguments ---------- *)

let os_conv =
  let parse = function
    | "vanilla" -> Ok Machine.Vanilla
    | "popcorn-shm" -> Ok Machine.Popcorn_shm
    | "popcorn-tcp" -> Ok Machine.Popcorn_tcp
    | "stramash" -> Ok Machine.Stramash_kernel_os
    | "stramash-nofutexopt" -> Ok Machine.Stramash_no_futex_opt
    | s -> Error (`Msg (Printf.sprintf "unknown OS personality %S" s))
  in
  Arg.conv (parse, fun ppf os -> Format.pp_print_string ppf (Machine.os_choice_name os))

let hw_conv =
  let parse = function
    | "separated" -> Ok Layout.Separated
    | "shared" -> Ok Layout.Shared
    | "fully-shared" -> Ok Layout.Fully_shared
    | s -> Error (`Msg (Printf.sprintf "unknown hardware model %S" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Layout.hw_model_to_string m))

let os_arg =
  Arg.(
    value
    & opt os_conv Machine.Stramash_kernel_os
    & info [ "o"; "os" ] ~docv:"OS"
        ~doc:"OS personality: vanilla | popcorn-shm | popcorn-tcp | stramash | stramash-nofutexopt")

let hw_arg =
  Arg.(
    value
    & opt hw_conv Layout.Shared
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Hardware model: separated | shared | fully-shared")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the artifact-style per-node dump")

(* Fast-path engine selection: the default Fast mode and the Reference
   engine are cycle-identical by construction; --paranoid proves it on the
   actual run. *)
let paranoid_arg =
  Arg.(
    value & flag
    & info [ "paranoid" ]
        ~doc:
          "Cross-check every fast-path answer against the reference engine and audit cache/memory \
           invariants at scheduling-quantum boundaries; the run fails on the first divergence in \
           value, latency, or coherence state")

let reference_arg =
  Arg.(
    value & flag
    & info [ "reference" ]
        ~doc:"Disable the fast-path layers and run the pre-fast-path reference engine (baselines)")

let cache_mode_term =
  Term.(
    const (fun paranoid reference ->
        if paranoid then Cache_sim.Paranoid
        else if reference then Cache_sim.Reference
        else Cache_sim.Fast)
    $ paranoid_arg $ reference_arg)

(* Bench names resolve through the shared NPB table, the same one the
   bench harness's --perf/--domains sweeps and CI run. *)
let spec_of_bench = W.Npb_suite.spec_of_name

(* ---------- observability (--trace / --metrics-json / --trace-filter) ---------- *)

module Obs = Stramash_obs
module Trace = Stramash_obs.Trace

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a cycle-timestamped trace of the run to $(docv): Chrome trace-event JSON \
           (open in Perfetto or chrome://tracing), or a JSONL event stream when $(docv) \
           ends in .jsonl")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write a machine-readable metrics snapshot (cycle attribution + counters) to $(docv)")

let filter_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-filter" ] ~docv:"SUBSYS"
        ~doc:
          "Comma-separated subsystems to restrict tracing to (e.g. msg,ipi,futex); \
           default records every subsystem")

let obs_term = Term.(const (fun t m f -> (t, m, f)) $ trace_arg $ metrics_arg $ filter_arg)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Fail before the (possibly minutes-long) run, not after it. *)
let check_writable = function
  | None -> true
  | Some path -> (
      match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
      | oc ->
          close_out oc;
          true
      | exception Sys_error msg ->
          Format.eprintf "stramash_cli: cannot write output file: %s@." msg;
          false)

(* Install a tracer for the duration of [f] when either output flag is
   given, then render the sinks. Tracing stays completely off otherwise. *)
let run_with_obs (trace_file, metrics_file, filter) ?(extra = fun (_ : Obs.Snapshot.t) -> ())
    ?(fastpath = fun () -> []) f =
  match (trace_file, metrics_file) with
  | None, None -> f ()
  | _ when not (check_writable trace_file && check_writable metrics_file) -> 1
  | _ ->
      let filter =
        match filter with
        | None -> []
        | Some s ->
            String.split_on_char ',' s |> List.map String.trim
            |> List.filter (fun x -> x <> "")
      in
      let tracer = Trace.create ~filter () in
      Trace.install tracer;
      let finish () =
        Trace.uninstall ();
        (match trace_file with
        | Some path ->
            let data =
              if Filename.check_suffix path ".jsonl" then Trace.jsonl_string tracer
              else Trace.chrome_string tracer
            in
            write_file path data;
            Format.fprintf fmt "trace: %s (%d events recorded, %d dropped)@." path
              (Trace.recorded tracer) (Trace.dropped tracer)
        | None -> ());
        (match metrics_file with
        | Some path ->
            let snap = Obs.Snapshot.create () in
            Obs.Snapshot.add_trace snap tracer;
            Obs.Snapshot.add_causal snap tracer;
            extra snap;
            write_file path (Obs.Snapshot.to_string snap);
            Format.fprintf fmt "metrics: %s@." path
        | None -> ());
        H.Obs_report.print ~fastpath:(fastpath ()) fmt tracer
      in
      (match f () with
      | code ->
          finish ();
          code
      | exception e ->
          Trace.uninstall ();
          raise e)

(* ---------- list ---------- *)

let list_cmd =
  let run () =
    Format.fprintf fmt "Experiments (run with `stramash_cli experiment <id>`):@.";
    List.iter
      (fun e -> Format.fprintf fmt "  %-10s %s@." e.H.Experiments.id e.H.Experiments.title)
      H.Experiments.all;
    Format.fprintf fmt "@.NPB-like workloads (run with `stramash_cli npb <name>`):@.";
    Format.fprintf fmt "  %s@." (String.concat " " W.Npb_suite.all_names);
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiments and workloads") Term.(const run $ const ())

(* ---------- experiment ---------- *)

let experiment_cmd =
  let ids_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (see `list`)")
  in
  let run ids obs =
    run_with_obs obs (fun () ->
        let rec go = function
          | [] -> 0
          | id :: rest -> (
              match H.Experiments.find id with
              | Some e ->
                  Format.fprintf fmt "@.=== %s: %s ===@." e.H.Experiments.id e.H.Experiments.title;
                  e.H.Experiments.run fmt;
                  go rest
              | None ->
                  Format.fprintf fmt "unknown experiment %s (try `stramash_cli list`)@." id;
                  1)
        in
        go ids)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one or more of the paper's tables/figures")
    Term.(const run $ ids_arg $ obs_term)

(* ---------- npb ---------- *)

let npb_cmd =
  let bench_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"is | cg | mg | ft | ep | lu | sp")
  in
  let run bench os hw_model verbose cache_mode obs =
    match spec_of_bench bench with
    | None ->
        Format.fprintf fmt "unknown benchmark %s@." bench;
        1
    | Some spec ->
        let last_result = ref None in
        let extra snap =
          match !last_result with
          | None -> ()
          | Some result ->
              Obs.Snapshot.add_counters snap "node_cycles"
                (List.map
                   (fun node ->
                     ( Node_id.to_string node,
                       result.Runner.node_cycles.(Node_id.index node) ))
                   Node_id.all);
              Obs.Snapshot.add_registry snap "cache" result.Runner.cache;
              Obs.Snapshot.add_counters snap "fastpath" (Runner.fastpath_counters result)
        in
        let fastpath () =
          match !last_result with None -> [] | Some r -> Runner.fastpath_counters r
        in
        run_with_obs obs ~extra ~fastpath (fun () ->
            let machine =
              Machine.create { Machine.default_config with os; hw_model; cache_mode }
            in
            let proc, thread = Machine.load machine spec in
            let result = Runner.run machine proc thread spec in
            last_result := Some result;
            Format.fprintf fmt
              "%s on %s/%s: wall %.3f ms, %d instructions, %d messages, %d replicated pages@."
              bench (Machine.os_choice_name os)
              (Layout.hw_model_to_string hw_model)
              (Cycles.to_ms result.Runner.wall_cycles)
              result.Runner.instructions result.Runner.messages result.Runner.replicated_pages;
            (if cache_mode <> Cache_sim.Reference then
               let hits = Array.fold_left ( + ) 0 result.Runner.ext.Runner.l0_hits in
               let total = hits + Array.fold_left ( + ) 0 result.Runner.ext.Runner.l0_misses in
               if total > 0 then
                 Format.fprintf fmt "fast-path L0: %d of %d accesses (%.1f%%)%s@." hits total
                   (100.0 *. float_of_int hits /. float_of_int total)
                   (if cache_mode = Cache_sim.Paranoid then "; paranoid cross-check passed" else ""));
            if verbose then Runner.pp_result fmt result;
            0)
  in
  Cmd.v
    (Cmd.info "npb" ~doc:"Run one NPB-like kernel with cross-ISA migration")
    Term.(const run $ bench_arg $ os_arg $ hw_arg $ verbose_arg $ cache_mode_term $ obs_term)

(* ---------- redis ---------- *)

let redis_cmd =
  let requests_arg =
    Arg.(value & opt int 10_000 & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests per op")
  in
  let run os requests obs =
    run_with_obs obs (fun () ->
        match os with
        | Machine.Vanilla ->
            Format.fprintf fmt "the redis model needs a migratable OS personality@.";
            1
        | _ ->
            List.iter
              (fun (r : W.Redis.result) ->
                Format.fprintf fmt "%-6s %10.0f cycles/request (%.2f us)@."
                  (W.Redis.op_name r.W.Redis.op) r.W.Redis.cycles_per_request
                  (Cycles.to_us (int_of_float r.W.Redis.cycles_per_request)))
              (W.Redis.run ~os ~requests ());
            0)
  in
  Cmd.v
    (Cmd.info "redis" ~doc:"Run the Redis-like network-serving model")
    Term.(const run $ os_arg $ requests_arg $ obs_term)

(* ---------- futex ---------- *)

let futex_cmd =
  let loops_arg = Arg.(value & pos 0 int 1000 & info [] ~docv:"LOOPS" ~doc:"Lock/unlock loops") in
  let run loops obs =
    run_with_obs obs (fun () ->
        List.iter
          (fun (label, wall) -> Format.fprintf fmt "%-34s %10.3f ms@." label (Cycles.to_ms wall))
          (H.Micro_experiments.fig13_walls ~loops);
        0)
  in
  Cmd.v
    (Cmd.info "futex" ~doc:"Run the futex microbenchmark")
    Term.(const run $ loops_arg $ obs_term)

(* ---------- campaigns (faults / chaos / place / gray / scrub / serve) ---------- *)

(* Every campaign subcommand is built by [campaign_cmd] and shares one
   contract: exit codes 0 = campaign ran clean, 1 = invariant violation
   or unrecovered failure, 2 = unusable arguments. A campaign's config
   term checks its arguments and yields [Error msg] when they are
   unusable, so the run fails fast — before observability sinks are
   installed or a possibly minutes-long run starts. *)

let ( let* ) = Result.bind
let usage_error = H.Campaign.(exit_code Unknown_bench)

let seed_arg default doc =
  Arg.(value & opt int64 default & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let campaign_bench_arg =
  Arg.(value & opt string "is" & info [ "b"; "bench" ] ~docv:"BENCH" ~doc:"is | cg | mg | ft")

let check_bench ~campaign bench =
  if List.mem bench H.Fault_experiments.benches then Ok ()
  else
    Error
      (Printf.sprintf "unknown benchmark %s (%s campaign runs %s)" bench campaign
         (String.concat " | " H.Fault_experiments.benches))

(* One structural validation shared by every campaign that arms a plan. *)
let check_plan config =
  Result.map_error (Printf.sprintf "invalid fault-plan config: %s") (Plan.validate config)

(* What soak mode needs from a campaign: a cell's config at a derived
   seed, and the config fields --soak-json echoes. *)
type 'cfg soak = { at_seed : 'cfg -> int64 -> 'cfg; params : 'cfg -> (string * Obs.Json.t) list }

(* Where a --metrics-json snapshot's campaign stamp comes from: the armed
   plan's registry (filed under the given label), or — for campaigns that
   arm no plan — the seed and the default plan's fingerprint. Either way
   any output file traces back to its exact parameters. *)
type stamp = Plan_registry of string | Default_plan

let soak_term =
  let soak_arg =
    Arg.(value & opt int 1 & info [ "soak" ] ~docv:"CELLS"
         ~doc:"Run $(docv) independent campaign cells at derived seeds (seed, seed+1, ...); \
               the soak verdict is the worst across cells")
  in
  let domains_arg =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D"
         ~doc:"Host domains to spread soak cells across. Cell outputs are buffered and emitted \
               in cell order, so the soak's output and verdicts are byte-identical for any $(docv)")
  in
  let soak_json_arg =
    Arg.(value & opt (some string) None & info [ "soak-json" ] ~docv:"FILE"
         ~doc:"Write the per-cell soak verdicts as JSON to $(docv) (deterministic: contains no \
               timings or host facts, so 1-domain and N-domain soaks write identical files)")
  in
  Term.(const (fun cells domains json -> (cells, domains, json))
        $ soak_arg $ domains_arg $ soak_json_arg)

let campaign_cmd ~name ~doc ~seed ~stamp
    ~(run : ?on_metrics:H.Campaign.on_metrics -> Format.formatter -> 'cfg -> H.Campaign.verdict)
    ?soak config =
  let single cfg obs =
    let registries = ref [] in
    let add_stamp snap ~seed ~fingerprint =
      Obs.Snapshot.add_counters snap "campaign"
        [ ("seed", seed); ("config_fingerprint", fingerprint) ]
    in
    let extra snap =
      List.iter
        (fun (label, reg) -> Obs.Snapshot.add_registry snap label reg)
        (List.rev !registries);
      match stamp with
      | Plan_registry label ->
          Option.iter
            (fun reg ->
              add_stamp snap ~seed:(Metrics.get reg "plan.seed")
                ~fingerprint:(Metrics.get reg "plan.config_fingerprint"))
            (List.assoc_opt label !registries)
      | Default_plan ->
          add_stamp snap ~seed:(Int64.to_int (seed cfg))
            ~fingerprint:(Plan.config_fingerprint Plan.default)
    in
    run_with_obs obs ~extra (fun () ->
        H.Campaign.exit_code
          (run fmt cfg ~on_metrics:(fun ~label reg -> registries := (label, reg) :: !registries)))
  in
  let soaked s cfg (cells, domains, json) (trace_file, metrics_file, _) =
    if cells < 1 || domains < 1 then begin
      Format.eprintf "%s: --soak and --domains must be >= 1@." name;
      usage_error
    end
    else if trace_file <> None || metrics_file <> None then begin
      (* Cells render into private buffers; the process-global tracer
         cannot be shared across them. *)
      Format.eprintf
        "%s: --trace/--metrics-json capture one campaign through the process-global tracer and \
         cannot be combined with a soak (--soak/--domains)@."
        name;
      usage_error
    end
    else if not (check_writable json) then usage_error
    else begin
      let result =
        H.Campaign.soak fmt ~name ~seed:(seed cfg) ~cells ~domains (fun seed cell_fmt ->
            run cell_fmt (s.at_seed cfg seed))
      in
      Option.iter
        (fun path ->
          let params = s.params (s.at_seed cfg (seed cfg)) in
          write_file path (Obs.Json.to_string (H.Campaign.soak_json ~name ~params result) ^ "\n");
          Format.fprintf fmt "soak json: %s@." path)
        json;
      H.Campaign.exit_code (fst result)
    end
  in
  let main config soak obs =
    match (config, soak) with
    | Error msg, _ ->
        Format.eprintf "%s@." msg;
        usage_error
    | Ok cfg, Some (s, ((cells, domains, json) as flags))
      when cells <> 1 || domains <> 1 || json <> None ->
        soaked s cfg flags obs
    | Ok cfg, _ -> single cfg obs
  in
  let soak =
    match soak with
    | None -> Term.const None
    | Some s -> Term.(const (fun flags -> Some (s, flags)) $ soak_term)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const main $ config $ soak $ obs_term)

(* ---------- faults ---------- *)

let faults_cmd =
  let module C = H.Fault_experiments in
  let rate name doc default =
    Arg.(value & opt float default & info [ name ] ~docv:"RATE" ~doc)
  in
  let drop_arg = rate "drop-rate" "Message-drop probability per transmission attempt" 0.05 in
  let ipi_arg = rate "ipi-loss" "IPI loss (and jitter) probability" 0.02 in
  let walk_arg = rate "walk-fail" "Transient remote PTE read-failure probability" 0.02 in
  let ptl_arg = rate "ptl-timeout" "Page-table-lock acquisition timeout probability" 0.01 in
  let alloc_arg = rate "alloc-fail" "Injected frame-allocator exhaustion probability" 0.005 in
  let config seed bench drop_rate ipi_loss walk_fail ptl_timeout alloc_fail =
    let plan = C.plan_config ~drop_rate ~ipi_loss ~walk_fail ~ptl_timeout ~alloc_fail () in
    let* () = check_bench ~campaign:"faults" bench in
    let* () = check_plan plan in
    Ok { C.seed; bench; plan }
  in
  campaign_cmd ~name:"faults"
    ~doc:"Run a deterministic fault-injection campaign and audit kernel invariants"
    ~seed:(fun c -> c.C.seed) ~stamp:(Plan_registry "fault_plan") ~run:C.campaign
    Term.(
      const config
      $ seed_arg C.default.seed
          "Machine seed; the fault plan derives from it, so the same seed replays the same faults"
      $ campaign_bench_arg $ drop_arg $ ipi_arg $ walk_arg $ ptl_arg $ alloc_arg)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let module C = H.Chaos_experiments in
  let kills_arg =
    Arg.(value & opt int C.default.kills & info [ "k"; "kills" ] ~docv:"N"
         ~doc:"Kill/restart cycles to inject, alternating between the two kernel instances")
  in
  let downtime_arg =
    Arg.(value & opt int C.default.downtime
         & info [ "d"; "downtime" ] ~docv:"CYCLES"
             ~doc:"Cycles a killed node stays down before restarting (clamped to half the kill gap)")
  in
  let placement_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "placement" ] ~docv:"POLICY"
          ~doc:
            "Attach a page-placement engine with this policy (static-stramash | static-shm | \
             adaptive) to both the baseline and the chaos run, so degraded replica collapses \
             and restart reconciles happen under the campaign's audits")
  in
  let config seed bench kills downtime cache_mode placement =
    let* () = check_bench ~campaign:"chaos" bench in
    let* placement =
      match placement with
      | None -> Ok None
      | Some p -> (
          match Stramash_placement.Policy.of_string p with
          | Some policy -> Ok (Some policy)
          | None ->
              Error
                (Printf.sprintf
                   "unknown placement policy %s (static-stramash | static-shm | adaptive)" p))
    in
    let* () = check_plan Plan.default in
    Ok { C.seed; bench; kills; downtime; cache_mode; placement }
  in
  let params (c : C.config) =
    Obs.Json.
      [
        ("bench", String c.bench);
        ("kills", Int c.kills);
        ("downtime", Int c.downtime);
        ( "placement",
          match c.placement with
          | Some p -> String (Stramash_placement.Policy.to_string p)
          | None -> Null );
      ]
  in
  campaign_cmd ~name:"chaos"
    ~doc:
      "Run a deterministic node-failure chaos campaign: crash-stop kernel kills, \
       degraded-mode fallback, checkpoint/restore recovery, and invariant audits"
    ~seed:(fun c -> c.C.seed) ~stamp:(Plan_registry "fault_plan") ~run:C.campaign
    ~soak:{ at_seed = (fun c seed -> { c with C.seed }); params }
    Term.(
      const config
      $ seed_arg C.default.seed
          "Campaign seed; schedule jitter and the machine both derive from it, so the same seed \
           replays the same kills, restarts, and recoveries byte-for-byte"
      $ campaign_bench_arg $ kills_arg $ downtime_arg $ cache_mode_term $ placement_arg)

(* ---------- place ---------- *)

let place_cmd =
  let module C = H.Placement_experiments in
  let policy_conv =
    let parse s =
      match Stramash_placement.Policy.of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown placement policy %S" s))
    in
    Arg.conv
      (parse, fun ppf p -> Format.pp_print_string ppf (Stramash_placement.Policy.to_string p))
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv C.default.policy
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:"Placement policy: static-stramash | static-shm | adaptive")
  in
  let epoch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "e"; "epoch" ] ~docv:"QUANTA"
          ~doc:"Scheduling quanta per placement epoch (default: engine default)")
  in
  let config seed bench policy epoch cache_mode =
    let* () = check_bench ~campaign:"placement" bench in
    let* () = check_plan Plan.default in
    Ok { C.seed; bench; policy; epoch; cache_mode }
  in
  campaign_cmd ~name:"place"
    ~doc:
      "Run the page-placement campaign: a seeded policy run with kernel invariant audits, a \
       determinism replay, and a Paranoid-engine cross-check"
    ~seed:(fun c -> c.C.seed) ~stamp:Default_plan ~run:C.campaign
    Term.(
      const config
      $ seed_arg C.default.seed
          "Machine seed; placement decisions derive from the seeded run, so the same seed \
           replays the same replicate/collapse/migrate stream byte-for-byte"
      $ campaign_bench_arg $ policy_arg $ epoch_arg $ cache_mode_term)

(* ---------- gray ---------- *)

let gray_cmd =
  let module C = H.Gray_experiments in
  let factor_arg =
    Arg.(value & opt float C.default.factor
         & info [ "f"; "factor" ] ~docv:"FACTOR"
             ~doc:"Service-time inflation inside the slow-down window (>= 1.0)")
  in
  let config seed bench factor cache_mode =
    let* () = check_bench ~campaign:"gray" bench in
    let cfg = { C.seed; bench; factor; cache_mode } in
    let* () = check_plan (C.probe_config cfg) in
    Ok cfg
  in
  campaign_cmd ~name:"gray"
    ~doc:
      "Run a deterministic gray-failure campaign: a slow-but-alive origin node (latency \
       inflation, link flaps, PTL stalls), executed breaker-off then breaker-on, with \
       per-operation latency percentiles comparing the two"
    ~seed:(fun c -> c.C.seed) ~stamp:(Plan_registry "gray_on") ~run:C.campaign
    Term.(
      const config
      $ seed_arg C.default.seed
          "Campaign seed; the gray schedule's jitter and both machines derive from it, so the \
           same seed replays the same slow-downs, flaps, and breaker decisions byte-for-byte"
      $ campaign_bench_arg $ factor_arg $ cache_mode_term)

(* ---------- scrub ---------- *)

let scrub_cmd =
  let module C = H.Integrity_experiments in
  let flips_arg =
    Arg.(value & opt int C.default.flips
         & info [ "f"; "flips" ] ~docv:"N"
             ~doc:"Page bit-flip injection events to schedule across the run")
  in
  let msg_rate_arg =
    Arg.(value & opt float C.default.msg_rate
         & info [ "msg-rate" ] ~docv:"RATE"
             ~doc:"Per-message payload-corruption probability (half of these truncate instead \
                   of flipping bytes); detected by the CRC32 frame and repaired by retransmit")
  in
  let pte_rate_arg =
    Arg.(value & opt float C.default.pte_rate
         & info [ "pte-rate" ] ~docv:"RATE"
             ~doc:"Per-install stale-PTE corruption probability in the remote walker; detected \
                   by the verify-after-install read-back and repaired by reinstall")
  in
  let kills_arg =
    Arg.(value & opt int C.default.kills & info [ "k"; "kills" ] ~docv:"N"
         ~doc:"Kill/restart cycles to fold into the same plan; every death's checkpoint is \
               torn, proving the versioned-header rejection and the shadow fallback. Soak \
               cells run at least one, composing the corruption and kill/restart schedules")
  in
  let config seed bench flips msg_rate pte_rate kills cache_mode =
    let* () = check_bench ~campaign:"scrub" bench in
    let cfg = { C.seed; bench; flips; msg_rate; pte_rate; kills; cache_mode } in
    let* () = check_plan (C.probe_config cfg) in
    Ok cfg
  in
  let params (c : C.config) =
    Obs.Json.
      [
        ("bench", String c.bench);
        ("flips", Int c.flips);
        ("msg_rate", Float c.msg_rate);
        ("pte_rate", Float c.pte_rate);
        ("kills", Int c.kills);
      ]
  in
  campaign_cmd ~name:"scrub"
    ~doc:
      "Run a deterministic silent-data-corruption campaign: seeded page bit flips, message \
       corruption, stale PTE installs and torn checkpoints, detected by CRC framing, a \
       background page scrubber and verify-after-install, and healed by replica-backed \
       repair, retransmit, and checkpoint fallback"
    ~seed:(fun c -> c.C.seed) ~stamp:(Plan_registry "scrub") ~run:C.campaign
    ~soak:{ at_seed = (fun c seed -> { c with C.seed; kills = max 1 c.C.kills }); params }
    Term.(
      const config
      $ seed_arg C.default.seed
          "Campaign seed; the corruption schedule, any kill schedule, and the machine all \
           derive from it, so the same seed replays the same flips, detections, and repairs \
           byte-for-byte"
      $ campaign_bench_arg $ flips_arg $ msg_rate_arg $ pte_rate_arg $ kills_arg
      $ cache_mode_term)

(* ---------- serve (open-loop serving campaign) ---------- *)

let serve_cmd =
  let module C = H.Serve_experiments in
  let d = C.default in
  let keys_arg =
    Arg.(value & opt int d.keys & info [ "K"; "keys" ] ~docv:"N"
         ~doc:"Keyspace size (64 B slots in a real process segment; default 1 Mi keys)")
  in
  let theta_arg =
    Arg.(value & opt float d.theta & info [ "theta" ] ~docv:"T"
         ~doc:"Zipfian popularity exponent (> 0; rank 0 is the hottest key)")
  in
  let rate_arg =
    Arg.(value & opt float d.rate & info [ "r"; "rate" ] ~docv:"RPS"
         ~doc:"Open-loop arrival rate in requests per second; arrivals are stamped by the \
               schedule, never by the previous reply")
  in
  let requests_arg =
    Arg.(value & opt int d.requests & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests per cell")
  in
  let payload_arg =
    Arg.(value & opt int d.payload
         & info [ "payload" ] ~docv:"BYTES" ~doc:"Value payload per request")
  in
  let factor_arg =
    Arg.(value & opt float d.factor & info [ "factor" ] ~docv:"F"
         ~doc:"Gray slow-down inflation factor for the gray-composed cell")
  in
  let comp name doc = Arg.(value & opt bool true & info [ name ] ~docv:"BOOL" ~doc) in
  let placement_arg = comp "placement" "Include the adaptive-placement-composed cell" in
  let chaos_arg = comp "chaos" "Include the chaos kill/restart-composed cell" in
  let gray_arg = comp "gray" "Include the gray slow-down-composed cell" in
  let scrub_arg = comp "scrub" "Include the corruption + scrubber-composed cell" in
  let config seed keys theta rate requests payload factor placement chaos gray scrub cache_mode =
    let cfg =
      { C.seed; keys; theta; rate; requests; payload; cache_mode; placement; chaos; gray; scrub;
        factor }
    in
    let* () =
      Result.map_error (Printf.sprintf "invalid serve config: %s")
        (Stramash_serve.Serve.validate (C.base cfg))
    in
    Ok cfg
  in
  let params (c : C.config) =
    Obs.Json.
      [
        ("keys", Int c.keys);
        ("theta", Float c.theta);
        ("rate_rps", Float c.rate);
        ("requests", Int c.requests);
        ("payload", Int c.payload);
        ("factor", Float c.factor);
        ("placement", Bool c.placement);
        ("chaos", Bool c.chaos);
        ("gray", Bool c.gray);
        ("scrub", Bool c.scrub);
      ]
  in
  campaign_cmd ~name:"serve"
    ~doc:
      "Run the open-loop serving campaign: million-key Zipfian request harness with \
       per-request tail-latency SLOs, measured under Popcorn and Stramash and composed with \
       chaos kill/restart, gray slow-down, corruption scrubbing, and adaptive placement"
    ~seed:(fun c -> c.C.seed) ~stamp:Default_plan ~run:C.campaign
    ~soak:{ at_seed = (fun c seed -> { c with C.seed }); params }
    Term.(
      const config
      $ seed_arg d.seed
          "Campaign seed; the arrival schedule, key stream, fault schedules and machine all \
           derive from it, so the same seed replays the same campaign byte-for-byte"
      $ keys_arg $ theta_arg $ rate_arg $ requests_arg $ payload_arg $ factor_arg
      $ placement_arg $ chaos_arg $ gray_arg $ scrub_arg $ cache_mode_term)

(* ---------- obs (offline causal-trace analysis) ---------- *)

module Causal = Stramash_obs.Causal

(* Snapshot files store the causal sections pre-computed; rebuild blame
   rows from the JSON so the same table renderer serves both inputs. *)
let blame_rows_of_json json =
  match Obs.Json.get_list json with
  | None -> []
  | Some rows ->
      List.filter_map
        (fun row ->
          let int k = Option.bind (Obs.Json.member k row) Obs.Json.get_int in
          let str k = Option.bind (Obs.Json.member k row) Obs.Json.get_string in
          match (str "subsys", str "op") with
          | Some subsys, Some op ->
              let get k = Option.value ~default:0 (int k) in
              Some
                {
                  Causal.b_subsys = subsys;
                  b_op = op;
                  b_hops = get "hops";
                  b_cycles = get "cycles";
                  b_node = [| get "x86_cycles"; get "arm_cycles" |];
                }
          | _ -> None)
        rows

let blocked_rows_of_json json =
  let tbl = Hashtbl.create 8 in
  (match Obs.Json.get_obj json with
  | None -> ()
  | Some nodes ->
      List.iter
        (fun (node_name, fields) ->
          match
            ( List.find_index (fun n -> Node_id.to_string n = node_name) Node_id.all,
              Obs.Json.get_obj fields )
          with
          | Some idx, Some fields ->
              List.iter
                (fun (subsys, v) ->
                  if subsys <> "total" then
                    match Obs.Json.get_int v with
                    | Some cycles ->
                        let row =
                          match Hashtbl.find_opt tbl subsys with
                          | Some row -> row
                          | None ->
                              let row = Array.make (List.length Node_id.all) 0 in
                              Hashtbl.add tbl subsys row;
                              row
                        in
                        row.(idx) <- row.(idx) + cycles
                    | None -> ())
                fields
          | _ -> ())
        nodes);
  Hashtbl.fold (fun s row acc -> (s, row) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let print_exemplar (f : Causal.flow) =
  Format.fprintf fmt "  flow %d: %s.%s on %s, %d cycles, %d spans@." f.Causal.f_id
    f.Causal.f_root_subsys f.Causal.f_root_op
    (Node_id.to_string (Node_id.of_index f.Causal.f_node))
    f.Causal.f_cycles f.Causal.f_spans;
  List.iter
    (fun (h : Causal.hop) ->
      Format.fprintf fmt "    %-4s %s.%s %d@."
        (Node_id.to_string (Node_id.of_index h.Causal.h_node))
        h.Causal.h_subsys h.Causal.h_op h.Causal.h_cycles)
    f.Causal.f_path

let obs_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "A --trace output (Chrome trace-event JSON, or JSONL) or a --metrics-json snapshot \
             with causal sections")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"OUT"
          ~doc:
            "Write a folded-stack flamegraph to $(docv) (one 'node;frames count' line per stack; \
             feed to flamegraph.pl or speedscope). Needs a trace file, not a snapshot")
  in
  let percentile_arg =
    Arg.(
      value & opt float 0.99
      & info [ "percentile" ] ~docv:"P" ~doc:"Tail threshold for exemplar flows (0 < P < 1)")
  in
  let exemplars_arg =
    Arg.(value & opt int 8 & info [ "exemplars" ] ~docv:"N" ~doc:"Tail exemplar traces to keep")
  in
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Blame-table rows to print (0 = all)")
  in
  let run file flame percentile exemplars top =
    let contents =
      match open_in_bin file with
      | ic ->
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          Some s
      | exception Sys_error msg ->
          Format.eprintf "stramash_cli obs: %s@." msg;
          None
    in
    match contents with
    | None -> 2
    | Some contents -> (
        let snapshot_sections =
          match Obs.Json.parse (String.trim contents) with
          | Ok json -> (
              match (Obs.Json.member "critical_path" json, Obs.Json.member "blocked_on_remote" json) with
              | Some cp, Some blocked -> Some (cp, blocked)
              | _ -> None)
          | Error _ -> None
        in
        match snapshot_sections with
        | Some (cp, blocked) ->
            if flame <> None then begin
              Format.eprintf
                "stramash_cli obs: --flame needs a trace file; a snapshot has no event stream@.";
              2
            end
            else begin
              let flows = Option.bind (Obs.Json.member "flows" cp) Obs.Json.get_int in
              let cross = Option.bind (Obs.Json.member "cross_node_flows" cp) Obs.Json.get_int in
              (* No file name in the report body: same-seed runs must
                 produce byte-identical output whatever the paths are. *)
              Format.fprintf fmt "snapshot: %d flows, %d cross-node@."
                (Option.value ~default:0 flows)
                (Option.value ~default:0 cross);
              H.Report.print fmt
                (H.Obs_report.blame_report ~top
                   (blame_rows_of_json
                      (Option.value ~default:(Obs.Json.List []) (Obs.Json.member "blame" cp))));
              H.Obs_report.print_blocked_rows fmt (blocked_rows_of_json blocked);
              0
            end
        | None -> (
            match Causal.events_of_string contents with
            | Error msg ->
                Format.eprintf "stramash_cli obs: cannot read %s: %s@." file msg;
                2
            | Ok events -> (
                match Causal.Reservoir.create ~percentile ~max_keep:exemplars () with
                | exception Invalid_argument msg ->
                    Format.eprintf "stramash_cli obs: %s@." msg;
                    2
                | reservoir ->
                    let flows = Causal.flows_of_events events in
                    let cross = Causal.cross_node_flows flows in
                    Format.fprintf fmt "trace: %d events, %d flows, %d cross-node@."
                      (List.length events) (List.length flows) (List.length cross);
                    H.Report.print fmt (H.Obs_report.blame_report ~top (Causal.blame flows));
                    H.Obs_report.print_blocked_rows fmt (Causal.blocked_of_flows flows);
                    List.iter (Causal.Reservoir.offer reservoir) flows;
                    let threshold, tail = Causal.Reservoir.finalize reservoir in
                    if tail <> [] then begin
                      Format.fprintf fmt "tail exemplars (p%g >= %d cycles over %d flows):@."
                        (100.0 *. percentile) threshold
                        (Causal.Reservoir.count reservoir);
                      List.iter print_exemplar tail
                    end;
                    (match flame with
                    | None -> ()
                    | Some out ->
                        write_file out (Causal.folded events);
                        Format.fprintf fmt "flamegraph: %s@." out);
                    0)))
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Analyse a trace or metrics snapshot offline: assemble causal flows, print the \
          critical-path blame table, the blocked-on-remote summary, and tail-exemplar traces; \
          optionally export a folded-stack flamegraph")
    Term.(const run $ file_arg $ flame_arg $ percentile_arg $ exemplars_arg $ top_arg)

(* ---------- disasm ---------- *)

let disasm_cmd =
  let bench_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"is | cg | mg | ft | ep | lu | sp")
  in
  let isa_conv =
    let parse = function
      | "x86" -> Ok Node_id.X86
      | "arm" -> Ok Node_id.Arm
      | s -> Error (`Msg (Printf.sprintf "unknown ISA %S (x86 | arm)" s))
    in
    Arg.conv (parse, Node_id.pp)
  in
  let isa_arg =
    Arg.(value & opt isa_conv Node_id.X86 & info [ "i"; "isa" ] ~docv:"ISA" ~doc:"x86 | arm")
  in
  let limit_arg =
    Arg.(value & opt int 80 & info [ "n"; "limit" ] ~docv:"N" ~doc:"Instructions to print (0 = all)")
  in
  let run bench isa limit =
    match spec_of_bench bench with
    | None ->
        Format.fprintf fmt "unknown benchmark %s@." bench;
        1
    | Some spec ->
        let image = Stramash_isa.Codegen.lower ~isa spec.Stramash_machine.Spec.mir in
        let rendered = Format.asprintf "%a" Stramash_isa.Machine.pp_program image in
        let lines = String.split_on_char '\n' rendered in
        let shown = if limit = 0 then lines else List.filteri (fun i _ -> i <= limit) lines in
        List.iter (Format.fprintf fmt "%s@.") shown;
        if limit <> 0 && List.length lines > limit + 1 then
          Format.fprintf fmt "... (%d more instructions; --limit 0 for all)@."
            (List.length lines - limit - 1);
        0
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a workload's image for one ISA")
    Term.(const run $ bench_arg $ isa_arg $ limit_arg)

(* ---------- machine ---------- *)

let machine_cmd =
  let run () =
    Format.fprintf fmt "Simulated platform (paper Figs. 1, 3, 4):@.";
    Format.fprintf fmt "  nodes: x86-64 island + AArch64 island, cache-coherent shared memory@.";
    Format.fprintf fmt "  physical memory: %d GB total@." (Layout.total_memory / Stramash_mem.Addr.gib 1);
    Format.fprintf fmt "  x86 private:  %a@." Layout.pp_region Layout.x86_private;
    Format.fprintf fmt "  arm private:  %a@." Layout.pp_region Layout.arm_private;
    Format.fprintf fmt "  message ring: %a@." Layout.pp_region Layout.message_ring;
    Format.fprintf fmt "  global pool:  %a@." Layout.pp_region Layout.pool;
    Format.fprintf fmt "  canonical clock: %.1f GHz; cross-ISA IPI: %.1f us; TCP RTT: 75 us@."
      Cycles.frequency_ghz
      (Cycles.to_us Stramash_interconnect.Ipi.cross_isa_ipi_cycles);
    H.Validation.table2 fmt;
    0
  in
  Cmd.v (Cmd.info "machine" ~doc:"Describe the simulated platform") Term.(const run $ const ())

let () =
  (* The interpreter's Int64 register file allocates on every write; a
     larger minor heap keeps that churn out of the collector's way. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let info =
    Cmd.info "stramash_cli" ~version:"1.0.0"
      ~doc:"Fused-kernel OS (Stramash, ASPLOS'25) reproduction toolkit"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            experiment_cmd;
            npb_cmd;
            redis_cmd;
            futex_cmd;
            faults_cmd;
            chaos_cmd;
            place_cmd;
            gray_cmd;
            scrub_cmd;
            serve_cmd;
            obs_cmd;
            machine_cmd;
            disasm_cmd;
          ]))
