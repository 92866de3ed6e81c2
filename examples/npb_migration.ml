(* Run the NPB-like kernels with cross-ISA migration under every OS
   personality (paper Fig. 9 in miniature), checking results against the
   host-computed references. The output holds simulated numbers only, so
   two runs print the same bytes. *)

module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Spec = Stramash_machine.Spec
module Node_id = Stramash_sim.Node_id
module W = Stramash_workloads

let check_i64 machine proc expected =
  match
    Machine.read_user machine ~proc ~node:Node_id.X86 ~vaddr:W.Npb_common.checksum_vaddr ~width:8
  with
  | Some got when got = expected -> "ok"
  | Some got -> Printf.sprintf "MISMATCH (got %Ld, want %Ld)" got expected
  | None -> "UNMAPPED"

let check_f64 machine proc expected =
  match
    Machine.read_user_f64 machine ~proc ~node:Node_id.X86 ~vaddr:W.Npb_common.checksum_vaddr
  with
  | Some got when got = expected -> "ok"
  | Some got -> Printf.sprintf "MISMATCH (got %.17g, want %.17g)" got expected
  | None -> "UNMAPPED"

let () =
  let specs =
    [
      ("is", W.Npb_is.spec (), `I64 (W.Npb_is.expected_checksum W.Npb_is.default));
      ("cg", W.Npb_cg.spec (), `F64 (W.Npb_cg.expected_checksum W.Npb_cg.default));
      ("mg", W.Npb_mg.spec (), `F64 (W.Npb_mg.expected_checksum W.Npb_mg.default));
      ("ft", W.Npb_ft.spec (), `F64 (W.Npb_ft.expected_checksum W.Npb_ft.default));
      ("ep", W.Npb_ep.spec (), `I64 (W.Npb_ep.expected_checksum W.Npb_ep.default));
    ]
  in
  List.iter
    (fun (name, spec, expected) ->
      Format.printf "@.== %s: %s ==@." name spec.Spec.description;
      List.iter
        (fun os ->
          let machine = Machine.create { Machine.default_config with os } in
          let proc, thread = Machine.load machine spec in
          let r = Runner.run machine proc thread spec in
          let verdict =
            match expected with
            | `I64 v -> check_i64 machine proc v
            | `F64 v -> check_f64 machine proc v
          in
          Format.printf
            "  %-12s wall=%9.3f ms  instr=%9d  msgs=%6d  repl=%5d  [%s]@."
            (Machine.os_choice_name os)
            (Stramash_sim.Cycles.to_ms r.Runner.wall_cycles)
            r.Runner.instructions r.Runner.messages r.Runner.replicated_pages verdict)
        Machine.all_os_choices)
    specs
