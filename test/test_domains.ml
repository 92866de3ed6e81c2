(* Determinism of multicore host execution: simulated results must be a
   pure function of the simulated configuration, never of how many host
   domains ran them. Covers 1-vs-N machine-level identity on NPB benches,
   byte-identical chaos- and scrub-soak rendering across domain counts
   (each cell exactly a campaign at its derived seed). *)

module Node_id = Stramash_sim.Node_id
module Domain_pool = Stramash_sim.Domain_pool
module Cache_sim = Stramash_cache.Cache_sim
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module W = Stramash_workloads
module CE = Stramash_harness.Chaos_experiments
module IE = Stramash_harness.Integrity_experiments
module Campaign = Stramash_harness.Campaign

let small_spec bench =
  match List.assoc_opt bench (W.Npb_suite.fig9_set ~small:true) with
  | Some spec -> spec
  | None -> Alcotest.failf "unknown bench %s" bench

(* One full simulated machine, reduced to the facts a replica must agree
   on: timing, work, traffic, and the workload's memory fingerprint. *)
let run_cell bench () =
  let spec = small_spec bench in
  let machine = Machine.create { Machine.default_config with cache_mode = Cache_sim.Fast } in
  let proc, thread = Machine.load machine spec in
  let result = Runner.run machine proc thread spec in
  ( result.Runner.wall_cycles,
    result.Runner.instructions,
    result.Runner.messages,
    Campaign.checksum machine ~proc )

let test_domain_identity_npb () =
  let cells = Array.of_list [ "is"; "cg"; "is"; "cg" ] in
  let tasks = Array.map run_cell cells in
  let sequential = Domain_pool.map ~domains:1 tasks in
  let parallel = Domain_pool.map ~domains:4 tasks in
  Array.iteri
    (fun i seq ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d (%s) identical across domain counts" i cells.(i))
        true
        (seq = parallel.(i)))
    sequential

let render f =
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  let result = f fmt in
  Format.pp_print_flush fmt ();
  (result, Buffer.contents buf)

let render_soak ~name ~seed ~domains cell =
  let (verdict, cells), out =
    render (fun fmt -> Campaign.soak fmt ~name ~seed ~cells:2 ~domains cell)
  in
  (verdict, cells, out)

(* A soak passes its whole config to every cell: cell i must render
   byte-for-byte as a single campaign run at seed + i. *)
let check_cells_are_campaigns ~name ~seed cell (verdict, cells, out) =
  let expected =
    Printf.sprintf "%s soak: cells=2 base seed=%Ld\n" name seed
    ^ String.concat ""
        (List.map
           (fun (i, cell_seed, _) ->
             Alcotest.(check int64) "cell seed is seed + index" (Int64.add seed (Int64.of_int i))
               cell_seed;
             Printf.sprintf "\n--- cell %d (seed %Ld) ---\n%s" i cell_seed
               (snd (render (cell cell_seed))))
           cells)
    ^ Printf.sprintf "\nsoak verdict: %s (2 cells)\n" (Campaign.verdict_to_string verdict)
  in
  Alcotest.(check string) (name ^ " soak cells are campaigns at seed + i") expected out

let check_soak_byte_identical ~name ~seed cell =
  let ((v1, c1, out1) as soak) = render_soak ~name ~seed ~domains:1 cell in
  let v2, c2, out2 = render_soak ~name ~seed ~domains:2 cell in
  Alcotest.(check string) "rendered soak byte-identical" out1 out2;
  Alcotest.(check bool) "per-cell verdicts identical" true (c1 = c2);
  Alcotest.(check string) "overall verdict identical" (Campaign.verdict_to_string v1)
    (Campaign.verdict_to_string v2);
  Alcotest.(check string) "soak is clean" "CLEAN" (Campaign.verdict_to_string v1);
  check_cells_are_campaigns ~name ~seed cell soak

let test_soak_byte_identical () =
  let config = { CE.default with kills = 2 } in
  check_soak_byte_identical ~name:"chaos" ~seed:config.seed (fun seed fmt ->
      CE.campaign fmt { config with seed })

let test_scrub_soak_cells () =
  let config = { IE.default with seed = 42L; kills = 1 } in
  check_soak_byte_identical ~name:"scrub" ~seed:config.seed (fun seed fmt ->
      IE.campaign fmt { config with seed })

let () =
  Alcotest.run "domains"
    [
      ( "determinism",
        [
          Alcotest.test_case "1-vs-4-domain NPB identity" `Quick test_domain_identity_npb;
          Alcotest.test_case "soak renders byte-identical" `Quick test_soak_byte_identical;
          Alcotest.test_case "scrub soak cells are campaigns" `Quick test_scrub_soak_cells;
        ] );
    ]
