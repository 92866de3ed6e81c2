(* Shared campaign plumbing. Every seeded campaign returns one of four
   verdicts, the CLI maps them onto one exit-code contract, and every
   soak runs through the one [soak] below, so a fix to the soak path (or
   a config knob a campaign grows) reaches all of them at once. The
   audited-run kit at the end is the other half: the steps the fault
   campaigns share (spec guard, Stramash machine, placement attach,
   fault-free baseline, kernel audit, teardown audit, survivor line)
   exist once, and a campaign that prints something different passes
   the difference in as data. *)

module Json = Stramash_obs.Json
module Node_id = Stramash_sim.Node_id
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Os = Stramash_machine.Os
module Spec = Stramash_machine.Spec
module Process = Stramash_kernel.Process
module Audit = Stramash_fault_inject.Audit
module Checkpoint = Stramash_core.Checkpoint
module Stramash_os = Stramash_core.Stramash_os
module Stramash_fault = Stramash_core.Stramash_fault
module Global_alloc = Stramash_core.Global_alloc
module Engine = Stramash_placement.Engine
module W = Stramash_workloads

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

(* --- the audited-run kit ----------------------------------------------- *)

(* Small problem sizes: a campaign's point is fault-path coverage, not
   steady-state performance, and the tests run each one twice back to
   back. The set itself comes from the shared NPB table. *)
let benches = W.Npb_suite.fig9_names

let unknown_bench ~campaign bench =
  Printf.sprintf "unknown benchmark %s (%s campaign runs %s)" bench campaign
    (String.concat " | " benches)

let spec_of_bench fmt ~campaign bench =
  match List.assoc_opt bench (W.Npb_suite.fig9_set ~small:true) with
  | Some _ as spec -> spec
  | None ->
      Format.fprintf fmt "%s@." (unknown_bench ~campaign bench);
      None

let stramash ~seed ~cache_mode ?inject () =
  Machine.create
    {
      Machine.default_config with
      Machine.os = Machine.Stramash_kernel_os;
      seed;
      cache_mode;
      inject;
    }

let stramash_os machine =
  match Machine.os machine with
  | Os.Stramash os -> os
  | _ -> invalid_arg "Campaign: audited runs require the Stramash personality"

let attach_placement ?epoch ~policy machine =
  let engine = Engine.create ?epoch ~policy (stramash_os machine) in
  Machine.attach_placement machine engine;
  engine

(* Read the NPB checksum word through whichever kernel still maps it —
   the workload fingerprint every survivor is compared against. *)
let checksum machine ~proc =
  List.find_map
    (fun node ->
      Machine.read_user machine ~proc ~node ~vaddr:W.Npb_common.checksum_vaddr ~width:8)
    Node_id.all

let pp_checksum fmt = function
  | Some c -> Format.fprintf fmt "0x%Lx" c
  | None -> Format.pp_print_string fmt "<unmapped>"

(* First cycle at which a run lands the thread on a node other than its
   origin — the moment that node's page table is coldest, and so the
   worst possible time for the origin to die or slow down. *)
let far_anchor ~(spec : Spec.t) ~origin (result : Runner.result) =
  List.fold_left
    (fun acc (id, cyc) ->
      match Spec.target_for spec id with
      | Some node when not (Node_id.equal node origin) -> (
          match acc with Some c when c <= cyc -> acc | _ -> Some cyc)
      | _ -> acc)
    None result.Runner.phase_marks

type baseline = { wall : int; checksum : int64 option; origin : Node_id.t; anchor : int option }

let baseline ?policy ~seed ~cache_mode spec =
  let machine = stramash ~seed ~cache_mode () in
  Option.iter (fun policy -> ignore (attach_placement ~policy machine)) policy;
  let proc, thread = Machine.load machine spec in
  let result = Runner.run machine proc thread spec in
  let sum = checksum machine ~proc in
  let origin = proc.Process.origin in
  let anchor = far_anchor ~spec ~origin result in
  Machine.exit_process machine proc;
  { wall = result.Runner.wall_cycles; checksum = sum; origin; anchor }

let pp_baseline fmt b =
  Format.fprintf fmt "baseline: wall=%d cycles, checksum=%a@." b.wall pp_checksum b.checksum

let survivor fmt ~label b sum =
  let ok = sum = b.checksum && sum <> None in
  Format.fprintf fmt "%s checksum: %a (%s baseline)@." label pp_checksum sum
    (if ok then "matches" else "DIFFERS from");
  ok

(* The kernel invariant audit with the fused kernel's own predicates:
   page-table locks quiescent, waiters parked by a death, and the
   global allocator's ledger. *)
let audit fmt ~label machine ~proc ?(extra = []) () =
  let os = stramash_os machine in
  let faults = Stramash_os.faults os in
  let held =
    List.map
      (fun (f : Checkpoint.futex_image) -> (f.Checkpoint.f_uaddr, f.Checkpoint.f_tid))
      (Stramash_fault.held_waiters faults)
  in
  let report =
    Audit.run ~env:(Machine.env machine) ~procs:[ proc ] ~threads:(Machine.threads machine)
      ~held
      ~ledger:(Global_alloc.ledger (Stramash_os.global_alloc os))
      ~extra:(extra @ [ ("ptl-quiescent", Stramash_fault.ptls_quiescent faults) ])
      ()
  in
  let clean = Audit.is_clean report in
  if clean then Format.fprintf fmt "audit[%s]: clean (%d checks)@." label report.Audit.checks
  else Format.fprintf fmt "audit[%s]: %a" label Audit.pp report;
  clean

(* The paper's §6.4 teardown invariant: every frame the process mapped
   is free again once it exits. *)
let teardown fmt ~label machine ~proc =
  let env = Machine.env machine in
  let mapped = Audit.mapped_frames ~env ~proc in
  Machine.exit_process machine proc;
  let report = Audit.check_teardown ~env ~procs:[ proc ] ~mapped in
  let clean = Audit.is_clean report in
  if clean then
    Format.fprintf fmt "audit[%s]: clean (%d frames tracked)@." label (List.length mapped)
  else Format.fprintf fmt "audit[%s]: %a" label Audit.pp report;
  clean
