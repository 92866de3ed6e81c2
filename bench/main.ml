(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (run with no arguments for the full sweep, or name experiment
   ids; `--list` shows them). `--perf` measures host instructions/sec of
   the fast-path engine against the reference engine on the NPB set and
   writes BENCH_3.json; with `--domains[=1,2,4]` it instead sweeps the
   host-scaling curve (D replica machines on D domains) and writes
   BENCH_6.json. `--serve` runs the open-loop serving
   latency sweep and writes BENCH_7.json. *)

module H = Stramash_harness

let usage () =
  Format.printf
    "usage: main.exe [--list] [--perf] [--perf --domains[=1,2,4]] [--placement] \
     [--serve] [EXPERIMENT-ID]...@.";
  Format.printf "experiments:@.";
  List.iter
    (fun e -> Format.printf "  %-10s %s@." e.H.Experiments.id e.H.Experiments.title)
    H.Experiments.all

(* ---------- `--perf`: fast-path vs reference instructions/sec ---------- *)

module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Cache_sim = Stramash_cache.Cache_sim
module Json = Stramash_obs.Json
module W = Stramash_workloads

(* One shared workload table (bench, harness, CLI, CI all key on it). *)
let perf_benches () = W.Npb_suite.perf_set ()

(* Pre-fast-path baseline: simulated instructions per host CPU second of
   the tree as of commit cdf6cbd (before the fast-path engine existed),
   measured with this same harness on the reference hardware used for
   BENCH_3.json. The speedup_vs_baseline column compares against these
   fixed numbers; the in-run reference column tracks engine-vs-engine on
   whatever host runs the bench. *)
let baseline_ips =
  [
    ("is", 6_388_848.); ("cg", 9_088_819.); ("mg", 12_519_002.); ("ft", 10_100_272.);
    ("ep", 4_913_968.);
  ]

(* Best-of-N host-CPU-seconds for one full simulated run (the simulator is
   single-threaded, so CPU time is the stable measure). *)
let time_run ~cache_mode spec =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to 3 do
    let machine = Machine.create { Machine.default_config with cache_mode } in
    let proc, thread = Machine.load machine spec in
    let t0 = Sys.time () in
    let r = Runner.run machine proc thread spec in
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let run_perf () =
  Format.printf "@.=== Fast-path perf: host instructions/sec, fast vs reference engine ===@.";
  Format.printf "  %-6s %12s %14s %14s %8s %12s@." "bench" "instructions" "reference ips"
    "fast ips" "speedup" "vs baseline";
  let rows =
    List.map
      (fun (name, spec) ->
        let ref_r, ref_t = time_run ~cache_mode:Cache_sim.Reference spec in
        let fast_r, fast_t = time_run ~cache_mode:Cache_sim.Fast spec in
        (* the perf harness doubles as an exactness check: both engines
           must simulate the identical run *)
        if
          fast_r.Runner.wall_cycles <> ref_r.Runner.wall_cycles
          || fast_r.Runner.instructions <> ref_r.Runner.instructions
        then
          failwith
            (Printf.sprintf "%s: fast and reference runs diverged (wall %d vs %d, instr %d vs %d)"
               name fast_r.Runner.wall_cycles ref_r.Runner.wall_cycles fast_r.Runner.instructions
               ref_r.Runner.instructions);
        let instr = fast_r.Runner.instructions in
        let ips t = float_of_int instr /. t in
        let speedup = ref_t /. fast_t in
        let vs_baseline =
          match List.assoc_opt name baseline_ips with
          | Some b -> ips fast_t /. b
          | None -> nan
        in
        Format.printf "  %-6s %12d %14.0f %14.0f %7.2fx %11.2fx@." name instr (ips ref_t)
          (ips fast_t) speedup vs_baseline;
        (name, instr, ref_t, fast_t, speedup, vs_baseline))
      (perf_benches ())
  in
  let geomean =
    exp
      (List.fold_left (fun acc (_, _, _, _, s, _) -> acc +. log s) 0.0 rows
      /. float_of_int (List.length rows))
  in
  Format.printf "  geomean speedup (vs in-run reference engine): %.2fx@." geomean;
  let json =
    Json.Obj
      [
        ("schema", Json.String "stramash-bench/3");
        ("metric", Json.String "simulated instructions per host cpu second");
        ( "baseline",
          Json.String
            "pre-fast-path tree (commit cdf6cbd) measured with this harness; see baseline_ips" );
        ( "benchmarks",
          Json.List
            (List.map
               (fun (name, instr, ref_t, fast_t, speedup, vs_baseline) ->
                 Json.Obj
                   [
                     ("bench", Json.String name);
                     ("instructions", Json.Int instr);
                     ("reference_seconds", Json.Float ref_t);
                     ("fast_seconds", Json.Float fast_t);
                     ("reference_ips", Json.Float (float_of_int instr /. ref_t));
                     ("fast_ips", Json.Float (float_of_int instr /. fast_t));
                     ( "baseline_ips",
                       match List.assoc_opt name baseline_ips with
                       | Some b -> Json.Float b
                       | None -> Json.Null );
                     ("speedup", Json.Float speedup);
                     ("speedup_vs_baseline", Json.Float vs_baseline);
                   ])
               rows) );
        ("geomean_speedup", Json.Float geomean);
      ]
  in
  let oc = open_out "BENCH_3.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "  wrote BENCH_3.json@."

(* ---------- `--domains`: host-scaling curve, BENCH_6.json ---------- *)

module Domain_pool = Stramash_sim.Domain_pool

(* Committed BENCH_3.json fast_ips: the fixed yardstick the scaling curve
   is normalised against, copied from the checked-in file so a BENCH_6
   run never needs (or clobbers) BENCH_3. *)
let bench3_fast_ips =
  [
    ("is", 12_061_166.2673); ("cg", 13_362_351.7243); ("mg", 22_995_571.454);
    ("ft", 21_276_597.3259); ("ep", 7_680_710.53482);
  ]

(* Aggregate throughput of D fingerprint-identical replica machines, one
   per domain slot: wall-clock is the right denominator here (the whole
   point is host parallelism), instructions the numerator is D times one
   replica's count. Every replica must simulate the identical run — the
   determinism half of the scaling claim — so divergence is fatal, not a
   warning. *)
let time_domains ~domains spec =
  let replica () =
    let machine = Machine.create { Machine.default_config with cache_mode = Cache_sim.Fast } in
    let proc, thread = Machine.load machine spec in
    let r = Runner.run machine proc thread spec in
    (r.Runner.wall_cycles, r.Runner.instructions)
  in
  let instr = ref 0 in
  let best = ref infinity in
  for _ = 1 to 2 do
    let t0 = Unix.gettimeofday () in
    let results = Domain_pool.map ~domains (Array.init domains (fun _ -> replica)) in
    let dt = Unix.gettimeofday () -. t0 in
    let w0, i0 = results.(0) in
    Array.iteri
      (fun i (w, ic) ->
        if w <> w0 || ic <> i0 then
          failwith
            (Printf.sprintf "replica %d diverged from replica 0 (wall %d vs %d, instr %d vs %d)"
               i w w0 ic i0))
      results;
    instr := i0;
    if dt < !best then best := dt
  done;
  (!instr, !best)

let run_perf6 domains_list =
  Format.printf
    "@.=== Host scaling: aggregate simulated instructions per host wall second ===@.";
  Format.printf "  (D replica machines via Domain_pool; host has %d cores)@."
    (Domain.recommended_domain_count ());
  Format.printf "  %-6s %4s %12s %14s %12s@." "bench" "D" "instructions" "ips" "vs BENCH_3";
  let rows =
    List.map
      (fun (name, spec) ->
        let cells =
          List.map
            (fun domains ->
              let instr, t = time_domains ~domains spec in
              let ips = float_of_int (domains * instr) /. t in
              let vs_b3 =
                match List.assoc_opt name bench3_fast_ips with
                | Some b -> ips /. b
                | None -> nan
              in
              Format.printf "  %-6s %4d %12d %14.0f %11.2fx@." name domains instr ips vs_b3;
              (domains, instr, t, ips, vs_b3))
            domains_list
        in
        (name, cells))
      (perf_benches ())
  in
  let max_d = List.fold_left max 1 domains_list in
  (* The headline number (and CI's regression signal): geomean over the
     suite of aggregate ips at the widest D, against the committed
     BENCH_3 fast_ips. *)
  let geomean =
    let logs =
      List.filter_map
        (fun (_, cells) ->
          List.find_map
            (fun (d, _, _, _, vs) -> if d = max_d then Some (log vs) else None)
            cells)
        rows
    in
    exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
  in
  Format.printf "  geomean vs committed BENCH_3 fast_ips at %d domains: %.2fx@." max_d geomean;
  let json =
    Json.Obj
      [
        ("schema", Json.String "stramash-bench/6");
        ( "metric",
          Json.String
            "aggregate simulated instructions per host wall second across D replica machines" );
        ( "baseline",
          Json.String "committed BENCH_3.json fast_ips (fixed copy; see bench3_fast_ips)" );
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("domains", Json.List (List.map (fun d -> Json.Int d) domains_list));
        ( "benchmarks",
          Json.List
            (List.map
               (fun (name, cells) ->
                 Json.Obj
                   [
                     ("bench", Json.String name);
                     ( "baseline_fast_ips",
                       match List.assoc_opt name bench3_fast_ips with
                       | Some b -> Json.Float b
                       | None -> Json.Null );
                     ( "curve",
                       Json.List
                         (List.map
                            (fun (domains, instr, t, ips, vs) ->
                              Json.Obj
                                [
                                  ("domains", Json.Int domains);
                                  ("instructions_per_replica", Json.Int instr);
                                  ("wall_seconds", Json.Float t);
                                  ("ips", Json.Float ips);
                                  ("vs_bench3_fast_ips", Json.Float vs);
                                ])
                            cells) );
                   ])
               rows) );
        ("geomean_vs_bench3", Json.Float geomean);
      ]
  in
  let oc = open_out "BENCH_6.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "  wrote BENCH_6.json@."

(* ---------- `--placement`: adaptive vs static placement, BENCH_5.json ---------- *)

module Policy = Stramash_placement.Policy
module Engine = Stramash_placement.Engine

(* Simulated wall cycles (not host time): placement quality is a
   simulated-performance claim. Each Stramash config runs under one
   policy; Popcorn-SHM is the normalisation reference the paper's CG
   crossover is stated against. *)
let run_placement () =
  Format.printf "@.=== Page placement: adaptive vs static, wall cycles vs Popcorn-SHM ===@.";
  Format.printf "  %-6s %12s %16s %16s %16s@." "bench" "shm wall" "static-stramash"
    "adaptive" "static-shm";
  let policies =
    [
      ("static_stramash", Policy.Static_stramash);
      ("adaptive", Policy.Adaptive);
      ("static_shm", Policy.Static_shm);
    ]
  in
  let rows =
    List.map
      (fun bench ->
        let spec = Option.get (W.Npb_suite.spec_of_name bench) in
        let shm = H.Placement_experiments.run_shm spec in
        let shm_wall = shm.Runner.wall_cycles in
        let cells =
          List.map
            (fun (label, policy) ->
              let machine, engine, proc, result =
                H.Placement_experiments.run_policy ~policy spec
              in
              let counters = Engine.counters engine in
              Machine.exit_process machine proc;
              (label, result.Runner.wall_cycles, counters))
            policies
        in
        let speedup wall = float_of_int shm_wall /. float_of_int wall in
        let cell label =
          let _, wall, _ = List.find (fun (l, _, _) -> l = label) cells in
          Printf.sprintf "%5.2fx" (speedup wall)
        in
        Format.printf "  %-6s %12d %16s %16s %16s@." bench shm_wall (cell "static_stramash")
          (cell "adaptive") (cell "static_shm");
        (bench, shm_wall, cells))
      [ "is"; "cg"; "ft" ]
  in
  let json =
    Json.Obj
      [
        ("schema", Json.String "stramash-bench/5");
        ("metric", Json.String "simulated wall cycles; speedup = shm_wall / wall");
        ( "reference",
          Json.String "popcorn-shm on the same full-size spec, seed and hardware model" );
        ( "benchmarks",
          Json.List
            (List.map
               (fun (bench, shm_wall, cells) ->
                 Json.Obj
                   [
                     ("bench", Json.String bench);
                     ("shm_wall_cycles", Json.Int shm_wall);
                     ( "configs",
                       Json.Obj
                         (List.map
                            (fun (label, wall, counters) ->
                              ( label,
                                Json.Obj
                                  [
                                    ("wall_cycles", Json.Int wall);
                                    ( "speedup_vs_shm",
                                      Json.Float (float_of_int shm_wall /. float_of_int wall) );
                                    ( "counters",
                                      Json.Obj
                                        (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
                                  ] ))
                            cells) );
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_5.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "  wrote BENCH_5.json@."

(* ---------- `--serve`: open-loop serving latency, BENCH_7.json ---------- *)

module Serve = Stramash_serve.Serve
module Slo = Stramash_serve.Slo
module Histogram = Stramash_sim.Metrics.Histogram

(* Two offered loads over the full 2^20-key store: 10k req/s sits below
   every personality's capacity (latency is service time plus mild
   queueing); 20k req/s is comfortable for Stramash but beyond
   Popcorn-SHM's capacity, so the open-loop harness shows Popcorn's
   queue diverging while Stramash holds its SLO at the same load. *)
let serve_rates = [ 10_000.0; 20_000.0 ]

let serve_base = { Serve.default with keys = 1 lsl 20; requests = 20_000 }

let serve_hist_json h =
  let us c = Json.Float (Slo.cycles_to_us c) in
  Json.Obj
    [
      ("n", Json.Int (Histogram.count h));
      ("p50_us", us (Histogram.p50 h));
      ("p95_us", us (Histogram.p95 h));
      ("p99_us", us (Histogram.p99 h));
      ("mean_us", us (Histogram.mean h));
      ("max_us", us (Histogram.max_value h));
    ]

let run_serve () =
  Format.printf "@.=== Open-loop serving: per-op latency vs arrival rate ===@.";
  Format.printf "  (latency = completion - scheduled arrival; %d Zipfian keys, theta %.2f)@."
    serve_base.Serve.keys serve_base.Serve.theta;
  let configs =
    [
      ("popcorn-shm", { serve_base with Serve.os = Machine.Popcorn_shm });
      ("stramash", serve_base);
      ("stramash+placement", { serve_base with Serve.placement = true });
    ]
  in
  let rate_rows =
    List.map
      (fun rate ->
        Format.printf "  rate %.0f req/s, %d requests:@." rate serve_base.Serve.requests;
        let cells =
          List.map
            (fun (label, cfg) ->
              let outcome = Serve.run { cfg with Serve.rate } in
              let us c = Slo.cycles_to_us c in
              let all = outcome.Serve.o_all in
              Format.printf "    %-20s p50 %7.1fus  p95 %7.1fus  p99 %7.1fus  max %8.1fus  slo %s@."
                label (us (Histogram.p50 all)) (us (Histogram.p95 all)) (us (Histogram.p99 all))
                (us (Histogram.max_value all))
                (if outcome.Serve.o_slo.Slo.pass then "pass" else "FAIL");
              (label, outcome))
            configs
        in
        (rate, cells))
      serve_rates
  in
  let slo = serve_base.Serve.slo in
  let json =
    Json.Obj
      [
        ("schema", Json.String "stramash-bench/7");
        ( "metric",
          Json.String
            "open-loop request latency in microseconds: completion minus scheduled arrival, so \
             queueing delay is included and coordinated omission is impossible" );
        ("keys", Json.Int serve_base.Serve.keys);
        ("theta", Json.Float serve_base.Serve.theta);
        ("requests", Json.Int serve_base.Serve.requests);
        ("payload_bytes", Json.Int serve_base.Serve.payload);
        ("seed", Json.String (Int64.to_string serve_base.Serve.seed));
        ( "slo_us",
          Json.Obj
            [
              ("p50", Json.Float slo.Slo.p50_us);
              ("p95", Json.Float slo.Slo.p95_us);
              ("p99", Json.Float slo.Slo.p99_us);
            ] );
        ( "rates",
          Json.List
            (List.map
               (fun (rate, cells) ->
                 Json.Obj
                   [
                     ("rate_rps", Json.Float rate);
                     ( "configs",
                       Json.Obj
                         (List.map
                            (fun (label, outcome) ->
                              ( label,
                                Json.Obj
                                  [
                                    ("slo_pass", Json.Bool outcome.Serve.o_slo.Slo.pass);
                                    ( "ops",
                                      Json.Obj
                                        (List.map
                                           (fun (op, h) -> (op, serve_hist_json h))
                                           (outcome.Serve.o_rows
                                           @ [ ("all", outcome.Serve.o_all) ])) );
                                  ] ))
                            cells) );
                   ])
               rate_rows) );
      ]
  in
  let oc = open_out "BENCH_7.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "  wrote BENCH_7.json@."

let () =
  (* The interpreter's Int64 register file allocates on every write; a
     larger minor heap keeps that churn out of the collector's way. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let args = List.tl (Array.to_list Sys.argv) in
  let is_flag a = String.length a > 2 && String.sub a 0 2 = "--" in
  let flags, ids = List.partition is_flag args in
  if List.mem "--help" flags || List.mem "--list" flags then usage ()
  else begin
    let fmt = Format.std_formatter in
    (* --domains[=1,2,4] switches --perf from the single-host BENCH_3
       measurement to the BENCH_6 host-scaling sweep. *)
    let domains_list =
      List.find_map
        (fun flag ->
          if flag = "--domains" then Some [ 1; 2; 4 ]
          else
            match String.length flag > 10 && String.sub flag 0 10 = "--domains=" with
            | true ->
                Some
                  (String.sub flag 10 (String.length flag - 10)
                  |> String.split_on_char ','
                  |> List.map (fun s ->
                         match int_of_string_opt (String.trim s) with
                         | Some d when d >= 1 -> d
                         | _ -> failwith (Printf.sprintf "bad --domains value %S" s)))
            | false -> None)
        flags
    in
    (match ids with
    | []
      when List.mem "--perf" flags || List.mem "--placement" flags
           || List.mem "--serve" flags || domains_list <> None ->
        ()
    | [] -> H.Experiments.run_all fmt
    | ids ->
        List.iter
          (fun id ->
            match H.Experiments.find id with
            | Some e ->
                Format.fprintf fmt "@.=============== %s: %s ===============@."
                  e.H.Experiments.id e.H.Experiments.title;
                e.H.Experiments.run fmt
            | None ->
                Format.fprintf fmt "unknown experiment %s@." id;
                usage ())
          ids);
    (match domains_list with
    | Some domains -> run_perf6 domains
    | None -> if List.mem "--perf" flags then run_perf ());
    if List.mem "--placement" flags then run_placement ();
    if List.mem "--serve" flags then run_serve ()
  end
