module Cache_config = Stramash_cache.Config
module Layout = Stramash_mem.Layout
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Spec = Stramash_machine.Spec
module W = Stramash_workloads

type run_summary = {
  bench : string;
  config : string;
  wall : int;
  messages : int;
  replicated : int;
}

(* The bench set lives in the shared NPB table ({!W.Npb_suite}), which
   bench --perf, the CLI and CI key on as well. *)
let benchmarks ~small = W.Npb_suite.fig9_set ~small

(* The paper's Fig. 9 configurations: Vanilla; Popcorn-TCP (memory-model
   independent); Popcorn-SHM and Stramash on each of the three hardware
   models. *)
let configurations =
  [
    ("vanilla", Machine.Vanilla, Layout.Shared);
    ("popcorn-tcp", Machine.Popcorn_tcp, Layout.Shared);
    ("shm-separated", Machine.Popcorn_shm, Layout.Separated);
    ("shm-shared", Machine.Popcorn_shm, Layout.Shared);
    ("shm-fullyshared", Machine.Popcorn_shm, Layout.Fully_shared);
    ("stramash-separated", Machine.Stramash_kernel_os, Layout.Separated);
    ("stramash-shared", Machine.Stramash_kernel_os, Layout.Shared);
    ("stramash-fullyshared", Machine.Stramash_kernel_os, Layout.Fully_shared);
  ]

let run_one ?l3_size ~os ~hw_model spec =
  let cache_config =
    Option.map (Cache_config.with_l3_size (Cache_config.default hw_model)) l3_size
  in
  let machine = Machine.create { Machine.default_config with os; hw_model; cache_config } in
  let proc, thread = Machine.load machine spec in
  Runner.run machine proc thread spec

let fig9_data ?(small = false) () =
  List.concat_map
    (fun (bench, spec) ->
      List.map
        (fun (config, os, hw_model) ->
          let r = run_one ~os ~hw_model spec in
          {
            bench;
            config;
            wall = r.Runner.wall_cycles;
            messages = r.Runner.messages;
            replicated = r.Runner.replicated_pages;
          })
        configurations)
    (benchmarks ~small)

(* Fig. 9 and Table 3 share one (expensive) sweep. *)
let full_data = lazy (fig9_data ())

let fig9 fmt =
  let data = Lazy.force full_data in
  let r =
    Report.create ~title:"Fig. 9: NPB cross-ISA migration, runtime normalised to Vanilla"
      ~note:"lower is better; paper: Stramash up to ~2.1x faster than Popcorn-SHM (IS), ~2.6x \
             vs TCP; Fully Shared Stramash closest to Vanilla"
      ~columns:[ "bench"; "config"; "norm. runtime"; "wall (ms)"; "" ]
  in
  List.iter
    (fun (bench, _) ->
      let rows = List.filter (fun s -> s.bench = bench) data in
      let vanilla =
        match List.find_opt (fun s -> s.config = "vanilla") rows with
        | Some v -> float_of_int v.wall
        | None -> 1.0
      in
      List.iter
        (fun s ->
          let norm = float_of_int s.wall /. vanilla in
          Report.add_row r
            [
              bench;
              s.config;
              Report.cell_f norm;
              Report.cell_f (Stramash_sim.Cycles.to_ms s.wall);
              Report.bar norm ~max:8.0 ~width:32;
            ])
        rows)
    (benchmarks ~small:false);
  Report.print fmt r

let table3 fmt =
  let data = Lazy.force full_data in
  let r =
    Report.create
      ~title:"Table 3: message count & replicated pages during runtime migration"
      ~note:"Popcorn-SHM vs Stramash on the Shared model; paper: >99% reductions except FT pages"
      ~columns:
        [ "bench"; "msgs popcorn"; "msgs stramash"; "reduced"; "pages popcorn"; "pages stramash"; "reduced" ]
  in
  List.iter
    (fun (bench, _) ->
      let find config = List.find (fun s -> s.bench = bench && s.config = config) data in
      let p = find "shm-shared" and s = find "stramash-shared" in
      let reduction a b = if a = 0 then 0.0 else 1.0 -. (float_of_int b /. float_of_int a) in
      Report.add_row r
        [
          bench;
          string_of_int p.messages;
          string_of_int s.messages;
          Report.cell_pct (reduction p.messages s.messages);
          string_of_int p.replicated;
          string_of_int s.replicated;
          Report.cell_pct (reduction p.replicated s.replicated);
        ])
    (benchmarks ~small:false);
  Report.print fmt r

(* Extension kernels (the paper's §8.3 runs NPB "amongst others"): the
   compute-bound EP, wavefront LU-like, and line-solver SP-like. *)
let extension_benchmarks () =
  [
    ("ep", W.Npb_ep.spec ());
    ("lu", W.Npb_lu.spec ());
    ("sp", W.Npb_sp.spec ());
  ]

let fig9_extended fmt =
  let r =
    Report.create ~title:"Fig. 9 (extended): EP / LU-like / SP-like kernels"
      ~note:"beyond the paper's plotted set; EP is compute-bound, so OS design barely matters"
      ~columns:[ "bench"; "config"; "norm. runtime"; "wall (ms)" ]
  in
  List.iter
    (fun (bench, spec) ->
      let vanilla = ref 1.0 in
      List.iter
        (fun (config, os, hw_model) ->
          let res = run_one ~os ~hw_model spec in
          if config = "vanilla" then vanilla := float_of_int res.Runner.wall_cycles;
          Report.add_row r
            [
              bench;
              config;
              Report.cell_f (float_of_int res.Runner.wall_cycles /. !vanilla);
              Report.cell_f (Stramash_sim.Cycles.to_ms res.Runner.wall_cycles);
            ])
        [
          ("vanilla", Machine.Vanilla, Layout.Shared);
          ("popcorn-tcp", Machine.Popcorn_tcp, Layout.Shared);
          ("shm-shared", Machine.Popcorn_shm, Layout.Shared);
          ("stramash-shared", Machine.Stramash_kernel_os, Layout.Shared);
        ])
    (extension_benchmarks ());
  Report.print fmt r

let fig9_breakdown fmt =
  let r =
    Report.create ~title:"Fig. 9 breakdown: INST vs memory overhead vs MSG/OS (Shared model)"
      ~note:"the paper's \"performance improvement breakdown\" (\u{00a7}9.2.1): messaging is not \
             the dominant SHM cost; memory behaviour is"
      ~columns:[ "bench"; "config"; "wall (ms)"; "INST"; "mem stalls"; "MSG/OS rest" ]
  in
  List.iter
    (fun (bench, spec) ->
      List.iter
        (fun (config, os) ->
          let res = run_one ~os ~hw_model:Layout.Shared spec in
          let wall = res.Runner.wall_cycles in
          (* Sum per-node components; the MSG/OS bucket is everything the
             meters absorbed that was neither a user instruction nor a
             user memory stall (kernel walks, DSM copies, ring transfers,
             IPIs, handler work). *)
          let total arr = Array.fold_left ( + ) 0 arr in
          let inst = total res.Runner.node_icounts in
          let stalls = total res.Runner.node_user_stalls in
          let busy =
            List.fold_left
              (fun acc node -> acc + Runner.node_busy res node)
              0 Stramash_sim.Node_id.all
          in
          let rest = max 0 (busy - inst - stalls) in
          let pct v = Report.cell_pct (float_of_int v /. float_of_int (max busy 1)) in
          ignore wall;
          Report.add_row r
            [
              bench;
              config;
              Report.cell_f (Stramash_sim.Cycles.to_ms res.Runner.wall_cycles);
              pct inst;
              pct stalls;
              pct rest;
            ])
        [ ("shm-shared", Machine.Popcorn_shm); ("stramash-shared", Machine.Stramash_kernel_os) ])
    (benchmarks ~small:false);
  Report.print fmt r

let fig10 fmt =
  let l3_small = None (* scaled 4MB default *) in
  let l3_big = Some (Stramash_mem.Addr.mib 2) (* scaled 32MB *) in
  let r =
    Report.create ~title:"Fig. 10: IS vs CG under different L3 sizes"
      ~note:"paper: bigger L3 closes CG's Stramash gap (34% -> <1%) and shrinks the IS win \
             (2.1x -> 1.6x); labels use paper-equivalent sizes (16x scale)"
      ~columns:[ "bench"; "L3"; "config"; "wall (ms)"; "stramash vs shm" ]
  in
  let benches =
    [ ("is", W.Npb_is.spec ()); ("cg", W.Npb_cg.spec ()) ]
  in
  List.iter
    (fun (bench, spec) ->
      List.iter
        (fun (l3_label, l3_size) ->
          let shm = run_one ?l3_size ~os:Machine.Popcorn_shm ~hw_model:Layout.Shared spec in
          let str = run_one ?l3_size ~os:Machine.Stramash_kernel_os ~hw_model:Layout.Shared spec in
          let ratio = float_of_int shm.Runner.wall_cycles /. float_of_int str.Runner.wall_cycles in
          Report.add_row r
            [
              bench;
              l3_label;
              "shm-shared";
              Report.cell_f (Stramash_sim.Cycles.to_ms shm.Runner.wall_cycles);
              "";
            ];
          Report.add_row r
            [
              bench;
              l3_label;
              "stramash-shared";
              Report.cell_f (Stramash_sim.Cycles.to_ms str.Runner.wall_cycles);
              Report.cell_x ratio;
            ])
        [ ("4MB", l3_small); ("32MB", l3_big) ])
    benches;
  Report.print fmt r
