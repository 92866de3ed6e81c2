(* Shared campaign plumbing. Every seeded campaign returns one of four
   verdicts, the CLI maps them onto one exit-code contract, and every
   soak runs through the one [soak] below, so a fix to the soak path (or
   a config knob a campaign grows) reaches all of them at once. *)

module Json = Stramash_obs.Json

type verdict = Clean | Violations | Unrecovered | Unknown_bench

let verdict_to_string = function
  | Clean -> "CLEAN"
  | Violations -> "VIOLATIONS"
  | Unrecovered -> "UNRECOVERED"
  | Unknown_bench -> "UNKNOWN-BENCH"

(* 0 = campaign ran and every fault recovered; 1 = invariant violation or
   unrecovered failure; 2 = unusable arguments. *)
let exit_code = function
  | Clean -> 0
  | Violations | Unrecovered -> 1
  | Unknown_bench -> 2

let worst = List.fold_left (fun acc v -> if exit_code v > exit_code acc then v else acc) Clean

type on_metrics = label:string -> Stramash_sim.Metrics.registry -> unit

let no_metrics ~label:_ _ = ()

type soak = verdict * (int * int64 * verdict) list

(* --- soak: K campaign cells over D host domains ------------------------

   Each cell is a full campaign at a derived seed (seed + cell index)
   rendered into its own buffer, so cells share no mutable state and the
   printed output is a pure function of the arguments: cells run via
   {!Stramash_sim.Domain_pool} on [domains] host domains, but buffers are
   emitted in cell order whatever the host interleaving. The header names
   no host facts (domain count included) for the same reason. *)
let soak fmt ~name ~seed ~cells ~domains cell =
  let run i () =
    let buf = Buffer.create 4096 in
    let bfmt = Format.formatter_of_buffer buf in
    let seed_i = Int64.add seed (Int64.of_int i) in
    let verdict = cell seed_i bfmt in
    Format.pp_print_flush bfmt ();
    (seed_i, verdict, Buffer.contents buf)
  in
  Format.fprintf fmt "%s soak: cells=%d base seed=%Ld@." name cells seed;
  let results = Stramash_sim.Domain_pool.map ~domains (Array.init cells run) in
  let cells =
    List.mapi
      (fun i (seed_i, verdict, output) ->
        Format.fprintf fmt "@.--- cell %d (seed %Ld) ---@.%s" i seed_i output;
        (i, seed_i, verdict))
      (Array.to_list results)
  in
  let verdict = worst (List.map (fun (_, _, v) -> v) cells) in
  Format.fprintf fmt "@.soak verdict: %s (%d cells)@." (verdict_to_string verdict)
    (List.length cells);
  (verdict, cells)

let soak_json ~name ~params (verdict, cells) =
  let cell (i, seed, v) =
    Json.Obj
      [
        ("cell", Json.Int i);
        ("seed", Json.Int (Int64.to_int seed));
        ("verdict", Json.String (verdict_to_string v));
      ]
  in
  Json.Obj
    ((("schema", Json.String (Printf.sprintf "stramash-%s-soak/1" name)) :: params)
    @ [
        ("cells", Json.List (List.map cell cells));
        ("verdict", Json.String (verdict_to_string verdict));
      ])
