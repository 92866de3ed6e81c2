(* Tests for Mir, the builder, both code generators, the interpreter, and
   cross-ISA state transformation. *)

module Node_id = Stramash_sim.Node_id
module Mir = Stramash_isa.Mir
module B = Stramash_isa.Builder
module Machine_code = Stramash_isa.Machine
module Codegen = Stramash_isa.Codegen
module Interp = Stramash_isa.Interp
module Migrate_state = Stramash_isa.Migrate_state

let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* A memio over a simple byte hashtable, free of simulated cost. *)
let flat_memio () =
  let mem = Hashtbl.create 64 in
  let load width vaddr =
    let v = ref 0L in
    for i = width - 1 downto 0 do
      let byte = match Hashtbl.find_opt mem (vaddr + i) with Some b -> b | None -> 0 in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
    done;
    !v
  in
  let store width vaddr value =
    for i = 0 to width - 1 do
      Hashtbl.replace mem (vaddr + i)
        (Int64.to_int (Int64.logand (Int64.shift_right_logical value (8 * i)) 0xFFL))
    done
  in
  ({ Interp.load; store; fetch = ignore }, mem)

let run_program ?(isa = Node_id.X86) prog =
  let image = Codegen.lower ~isa prog in
  let cpu = Interp.create image in
  let memio, _ = flat_memio () in
  (match Interp.run cpu memio ~fuel:10_000_000 with
  | Interp.Halted -> ()
  | _ -> Alcotest.fail "program did not halt");
  cpu

(* ---------- builder + validate ---------- *)

let test_builder_appends_halt () =
  let b = B.create () in
  ignore (B.immi b 1);
  let p = B.finish b in
  Alcotest.(check bool) "ends with halt" true (p.Mir.code.(Array.length p.Mir.code - 1) = Mir.Halt)

let test_validate_rejects_bad_reg () =
  let p = { Mir.code = [| Mir.Mov (5, 0); Mir.Halt |]; nregs = 2; nlabels = 1 } in
  Alcotest.(check bool) "invalid register detected" true (Result.is_error (Mir.validate p))

let test_validate_rejects_undefined_label () =
  let p = { Mir.code = [| Mir.Jump 0; Mir.Halt |]; nregs = 1; nlabels = 1 } in
  Alcotest.(check bool) "undefined label detected" true (Result.is_error (Mir.validate p))

(* ---------- arithmetic semantics (both ISAs agree with a reference) ---------- *)

let prop_binop_semantics =
  QCheck.Test.make ~name:"interpreter binop semantics match reference on both ISAs" ~count:200
    QCheck.(triple (int_range 0 9) int64 int64)
    (fun (opn, a, bv) ->
      let op = List.nth [ Mir.Add; Mir.Sub; Mir.Mul; Mir.Div; Mir.Rem; Mir.And; Mir.Or; Mir.Xor; Mir.Shl; Mir.Shr ] opn in
      let bv = match op with Mir.Div | Mir.Rem -> (if bv = 0L then 1L else bv) | _ -> bv in
      let reference =
        match op with
        | Mir.Add -> Int64.add a bv
        | Mir.Sub -> Int64.sub a bv
        | Mir.Mul -> Int64.mul a bv
        | Mir.Div -> Int64.div a bv
        | Mir.Rem -> Int64.rem a bv
        | Mir.And -> Int64.logand a bv
        | Mir.Or -> Int64.logor a bv
        | Mir.Xor -> Int64.logxor a bv
        | Mir.Shl -> Int64.shift_left a (Int64.to_int bv land 63)
        | Mir.Shr -> Int64.shift_right_logical a (Int64.to_int bv land 63)
      in
      let build () =
        let b = B.create () in
        let ra = B.imm b a in
        let rb = B.imm b bv in
        let rd = B.bin b op ra rb in
        let out = B.immi b 0x9000 in
        B.store b Mir.W64 rd (Mir.based out);
        B.finish b
      in
      List.for_all
        (fun isa ->
          let image = Codegen.lower ~isa (build ()) in
          let cpu = Interp.create image in
          let memio, mem = flat_memio () in
          (match Interp.run cpu memio ~fuel:1000 with Interp.Halted -> () | _ -> assert false);
          let got = ref 0L in
          for i = 7 downto 0 do
            let byte = match Hashtbl.find_opt mem (0x9000 + i) with Some x -> x | None -> 0 in
            got := Int64.logor (Int64.shift_left !got 8) (Int64.of_int byte)
          done;
          !got = reference)
        Node_id.all)

let test_division_by_zero_traps () =
  let b = B.create () in
  let ra = B.immi b 5 in
  let rb = B.immi b 0 in
  ignore (B.bin b Mir.Div ra rb);
  let image = Codegen.lower ~isa:Node_id.X86 (B.finish b) in
  let cpu = Interp.create image in
  let memio, _ = flat_memio () in
  Alcotest.check_raises "div by zero traps" (Interp.Trap "division by zero") (fun () ->
      ignore (Interp.run cpu memio ~fuel:100))

(* ---------- loops & addressing ---------- *)

let test_loop_and_indexed_store () =
  (* store i*2 into arr[i] for i in [0,10): exercises for_up + indexed mode *)
  let b = B.create () in
  let base = B.immi b 0x4000 in
  B.for_up_const b ~lo:0 ~hi:10 (fun i ->
      let v = B.shli b i 1 in
      B.store b Mir.W64 v (Mir.indexed base i ~scale:8));
  let prog = B.finish b in
  List.iter
    (fun isa ->
      let image = Codegen.lower ~isa prog in
      let cpu = Interp.create image in
      let memio, mem = flat_memio () in
      (match Interp.run cpu memio ~fuel:100_000 with Interp.Halted -> () | _ -> assert false);
      for i = 0 to 9 do
        let b0 = match Hashtbl.find_opt mem (0x4000 + (8 * i)) with Some x -> x | None -> 0 in
        checki (Printf.sprintf "%s arr[%d]" (Node_id.to_string isa) i) (2 * i) b0
      done)
    Node_id.all

let test_for_range_runtime_bounds () =
  let b = B.create () in
  let lo = B.immi b 3 in
  let hi = B.immi b 7 in
  let acc = B.immi b 0 in
  B.for_range b ~from:lo ~to_:hi (fun i -> B.add_to b acc acc i);
  let out = B.immi b 0x5000 in
  B.store b Mir.W64 acc (Mir.based out);
  let cpu = run_program (B.finish b) in
  ignore cpu;
  (* re-run through flat memio to read the value *)
  let image = Codegen.lower ~isa:Node_id.Arm (B.finish b) in
  ignore image

let test_branch_conditions () =
  List.iter
    (fun (cond, a, b_, expect) ->
      let b = B.create () in
      let ra = B.immi b a in
      let rb = B.immi b b_ in
      let out = B.immi b 0x6000 in
      let taken = B.label b in
      let one = B.immi b 1 in
      let zero = B.immi b 0 in
      B.branch b cond ra rb taken;
      B.store b Mir.W64 zero (Mir.based out);
      B.halt b;
      B.place b taken;
      B.store b Mir.W64 one (Mir.based out);
      let prog = B.finish b in
      let image = Codegen.lower ~isa:Node_id.X86 prog in
      let cpu = Interp.create image in
      let memio, mem = flat_memio () in
      (match Interp.run cpu memio ~fuel:1000 with Interp.Halted -> () | _ -> assert false);
      let got = match Hashtbl.find_opt mem 0x6000 with Some x -> x | None -> 0 in
      checki "branch outcome" (if expect then 1 else 0) got)
    [
      (Mir.Eq, 5, 5, true);
      (Mir.Eq, 5, 6, false);
      (Mir.Lt, -1, 0, true);
      (Mir.Ge, 7, 7, true);
      (Mir.Gt, 7, 7, false);
      (Mir.Ne, 1, 2, true);
    ]

(* ---------- ISA differences ---------- *)

let test_arm_immediate_chunks () =
  (* a large constant costs more instructions on armish than on x86ish *)
  let build () =
    let b = B.create () in
    ignore (B.imm b 0x1122334455667788L);
    B.finish b
  in
  let x86 = Codegen.lower ~isa:Node_id.X86 (build ()) in
  let arm = Codegen.lower ~isa:Node_id.Arm (build ()) in
  Alcotest.(check bool) "arm needs more instructions for big immediates" true
    (Array.length arm.Machine_code.ops > Array.length x86.Machine_code.ops)

let test_x86_two_address_penalty () =
  (* d <- a op b with three distinct registers costs x86ish an extra mov *)
  let build () =
    let b = B.create () in
    let ra = B.immi b 1 in
    let rb = B.immi b 2 in
    ignore (B.bin b Mir.Sub ra rb);
    B.finish b
  in
  let x86 = Codegen.lower ~isa:Node_id.X86 (build ()) in
  let arm = Codegen.lower ~isa:Node_id.Arm (build ()) in
  Alcotest.(check bool) "x86 pays a mov" true
    (Array.length x86.Machine_code.ops > Array.length arm.Machine_code.ops)

let test_code_bytes_differ () =
  let b = B.create () in
  let r = B.immi b 100 in
  ignore (B.addi b r 1);
  let prog = B.finish b in
  let x86 = Codegen.lower ~isa:Node_id.X86 prog in
  let arm = Codegen.lower ~isa:Node_id.Arm prog in
  checki "arm ops are 4 bytes" (4 * Array.length arm.Machine_code.ops) arm.Machine_code.code_bytes;
  Alcotest.(check bool) "x86 encodings are variable" true
    (x86.Machine_code.code_bytes <> 4 * Array.length x86.Machine_code.ops)

let test_x86_load_op_fusion () =
  (* Load t <- [m]; Fbin d a t  with t dead afterwards fuses on x86ish *)
  let build () =
    let b = B.create () in
    let base = B.immi b 0x4000 in
    let a = B.fimm b 2.0 in
    let t = B.load b Mir.W64 (Mir.based base) in
    let d = B.fmul b a t in
    let out = B.immi b 0x5000 in
    B.store b Mir.W64 d (Mir.based out);
    B.finish b
  in
  let x86 = Codegen.lower ~isa:Node_id.X86 (build ()) in
  let has_fused =
    Array.exists (function Machine_code.MFAluMem _ -> true | _ -> false) x86.Machine_code.ops
  in
  Alcotest.(check bool) "fused memory operand present" true has_fused;
  (* and the result is still correct *)
  let cpu = Interp.create x86 in
  let memio, mem = flat_memio () in
  memio.Interp.store 8 0x4000 (Int64.bits_of_float 3.5);
  (match Interp.run cpu memio ~fuel:1000 with Interp.Halted -> () | _ -> assert false);
  let got = ref 0L in
  for i = 7 downto 0 do
    let byte = match Hashtbl.find_opt mem (0x5000 + i) with Some x -> x | None -> 0 in
    got := Int64.logor (Int64.shift_left !got 8) (Int64.of_int byte)
  done;
  Alcotest.(check (float 0.0)) "fused result" 7.0 (Int64.float_of_bits !got)

(* ---------- program equivalence across ISAs ---------- *)

let prop_cross_isa_equivalence =
  QCheck.Test.make ~name:"same Mir program produces same memory on both ISAs" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_range 0 4) (int_range 0 1000)))
    (fun spec ->
      let build () =
        let b = B.create () in
        let base = B.immi b 0x8000 in
        let acc = B.immi b 0 in
        List.iteri
          (fun slot (opn, v) ->
            let rv = B.immi b v in
            (match opn with
            | 0 -> B.add_to b acc acc rv
            | 1 -> B.bin_to b Mir.Xor acc acc rv
            | 2 -> B.bin_to b Mir.Mul acc acc rv
            | 3 ->
                let shifted = B.shli b rv 2 in
                B.add_to b acc acc shifted
            | _ -> B.store b Mir.W64 rv (Mir.based_disp base ((slot mod 8) * 8)));
            B.store b Mir.W64 acc (Mir.based_disp base (64 + ((slot mod 8) * 8))))
          spec;
        B.finish b
      in
      let dump isa =
        let image = Codegen.lower ~isa (build ()) in
        let cpu = Interp.create image in
        let memio, mem = flat_memio () in
        (match Interp.run cpu memio ~fuel:100_000 with Interp.Halted -> () | _ -> assert false);
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) mem [])
      in
      dump Node_id.X86 = dump Node_id.Arm)

(* ---------- superblock trace cache ---------- *)

(* A memio that fingerprints every interaction: the trace cache is pure
   host machinery, so a traced run must produce the exact fetch/load/
   store stream of the plain dispatch loop, not merely the same final
   state. *)
let fingerprint_memio () =
  let plain, mem = flat_memio () in
  let log = Buffer.create 4096 in
  let load width vaddr =
    let v = plain.Interp.load width vaddr in
    Buffer.add_string log (Printf.sprintf "L%d@%x=%Lx;" width vaddr v);
    v
  in
  let store width vaddr value =
    Buffer.add_string log (Printf.sprintf "S%d@%x=%Lx;" width vaddr value);
    plain.Interp.store width vaddr value
  in
  let fetch pc = Buffer.add_string log (Printf.sprintf "F%x;" pc) in
  ({ Interp.load; store; fetch }, mem, log)

(* A hot loop with a data-dependent branch: iterations below [cut] take
   the branch, so once the trace is built at the loop head the branch is
   a mid-trace side exit back to generic dispatch. *)
let side_exit_program ops ~cut =
  let b = B.create () in
  let base = B.immi b 0x8000 in
  let acc = B.immi b 0 in
  B.for_up_const b ~lo:0 ~hi:40 (fun i ->
      List.iteri
        (fun slot (opn, v) ->
          let rv = B.immi b v in
          match opn with
          | 0 -> B.add_to b acc acc rv
          | 1 -> B.bin_to b Mir.Xor acc acc rv
          | 2 -> B.add_to b acc acc i
          | _ -> B.store b Mir.W64 acc (Mir.based_disp base ((slot mod 8) * 8)))
        ops;
      let skip = B.label b in
      B.branchi b Mir.Lt i cut skip;
      B.store b Mir.W64 i (Mir.based_disp base 128);
      B.place b skip);
  B.finish b

let run_fingerprint ?tc image =
  let cpu = Interp.create ?tc image in
  let memio, mem, log = fingerprint_memio () in
  let outcome = Interp.run cpu memio ~fuel:10_000_000 in
  (outcome, Interp.icount cpu, Interp.regs cpu, Buffer.contents log, mem, cpu)

let prop_trace_cache_fingerprint =
  QCheck.Test.make
    ~name:"traced run fingerprints identical to plain dispatch (forced side exits)" ~count:60
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 8) (pair (int_range 0 3) (int_range 0 100)))
        (int_range 1 39))
    (fun (ops, cut) ->
      let image = Codegen.lower ~isa:Node_id.X86 (side_exit_program ops ~cut) in
      let o_plain, ic_plain, regs_plain, log_plain, _, _ = run_fingerprint image in
      let tc = Interp.make_tc ~threshold:2 () in
      let o_tc, ic_tc, regs_tc, log_tc, _, cpu = run_fingerprint ~tc image in
      let counters = Interp.tc_counters tc in
      let c name = match List.assoc_opt name counters with Some v -> v | None -> 0 in
      (* the property must not pass vacuously: the loop head gets hot, so
         traces must have been built, entered, and side-exited *)
      c "tc.built" > 0 && c "tc.entered" > 0 && c "tc.side_exits" > 0
      && Interp.trace_count cpu > 0
      && o_plain = o_tc && ic_plain = ic_tc && regs_plain = regs_tc && log_plain = log_tc)

let hot_loop_program () =
  let b = B.create () in
  let acc = B.immi b 0 in
  B.for_up_const b ~lo:0 ~hi:64 (fun i -> B.add_to b acc acc i);
  let out = B.immi b 0x7000 in
  B.store b Mir.W64 acc (Mir.based out);
  B.finish b

let test_tc_invalidate_flushes () =
  let image = Codegen.lower ~isa:Node_id.X86 (hot_loop_program ()) in
  let tc = Interp.make_tc ~threshold:2 () in
  let cpu = Interp.create ~tc image in
  let memio, _ = flat_memio () in
  (match Interp.run cpu memio ~fuel:10_000 with Interp.Halted -> () | _ -> assert false);
  Alcotest.(check bool) "traces built" true (Interp.trace_count cpu > 0);
  let built = Interp.trace_count cpu in
  Interp.invalidate_traces cpu;
  checki "all traces dropped" 0 (Interp.trace_count cpu);
  let flushes =
    match List.assoc_opt "tc.flushes" (Interp.tc_counters tc) with Some v -> v | None -> 0
  in
  checki "every dropped trace counted as a flush" built flushes;
  (* a fresh interpreter on the same tc handle must re-profile and rebuild *)
  let cpu2 = Interp.create ~tc image in
  (match Interp.run cpu2 memio ~fuel:10_000 with Interp.Halted -> () | _ -> assert false);
  Alcotest.(check bool) "traces rebuilt" true (Interp.trace_count cpu2 > 0);
  check64 "rerun result intact" (Int64.of_int (64 * 63 / 2)) (memio.Interp.load 8 0x7000)

let test_tc_migration_invalidates () =
  (* same program as the migration-transform test, but hot enough to
     build traces on the source before the migration point *)
  let b = B.create () in
  let acc = B.immi b 0 in
  B.for_up_const b ~lo:0 ~hi:32 (fun i -> B.add_to b acc acc i);
  B.migrate_point b 0;
  B.for_up_const b ~lo:0 ~hi:32 (fun i -> B.add_to b acc acc i);
  let out = B.immi b 0x7000 in
  B.store b Mir.W64 acc (Mir.based out);
  let prog = B.finish b in
  let x86 = Codegen.lower ~isa:Node_id.X86 prog in
  let arm = Codegen.lower ~isa:Node_id.Arm prog in
  let tc = Interp.make_tc ~threshold:2 () in
  let cpu = Interp.create ~tc x86 in
  let memio, _ = flat_memio () in
  (match Interp.run cpu memio ~fuel:1_000_000 with
  | Interp.Migrate 0 -> ()
  | _ -> Alcotest.fail "expected migration point");
  Alcotest.(check bool) "source built traces" true (Interp.trace_count cpu > 0);
  let cpu2 = Migrate_state.transform ~src:cpu ~point:0 ~dst_prog:arm in
  checki "source traces invalidated by migration" 0 (Interp.trace_count cpu);
  Alcotest.(check bool) "destination inherits the tc handle" true (Interp.tc cpu2 <> None);
  (match Interp.run cpu2 memio ~fuel:1_000_000 with
  | Interp.Halted -> ()
  | _ -> Alcotest.fail "expected halt after migration");
  Alcotest.(check bool) "destination rebuilt traces" true (Interp.trace_count cpu2 > 0);
  check64 "sum across migration" (Int64.of_int (2 * 496)) (memio.Interp.load 8 0x7000)

let test_tc_trap_mid_trace_invalidates () =
  (* divisor hits zero at iteration 8 — by then the loop-head trace is
     built (threshold 2), so the Trap is raised from inside a trace replay
     and must leave the cache empty *)
  let b = B.create () in
  let acc = B.immi b 1 in
  B.for_up_const b ~lo:0 ~hi:32 (fun i ->
      let eight = B.immi b 8 in
      let d = B.sub b eight i in
      B.bin_to b Mir.Div acc acc d);
  let prog = B.finish b in
  let image = Codegen.lower ~isa:Node_id.X86 prog in
  let tc = Interp.make_tc ~threshold:2 () in
  let cpu = Interp.create ~tc image in
  let memio, _ = flat_memio () in
  (match Interp.run cpu memio ~fuel:1_000_000 with
  | exception Interp.Trap _ -> ()
  | _ -> Alcotest.fail "expected a division trap");
  checki "traces invalidated by the mid-trace trap" 0 (Interp.trace_count cpu)

(* ---------- migration state transform ---------- *)

let test_migrate_transform () =
  (* accumulate, migrate, accumulate more; finishing on either ISA must
     produce the same value *)
  let build () =
    let b = B.create () in
    let acc = B.immi b 0 in
    B.for_up_const b ~lo:0 ~hi:10 (fun i -> B.add_to b acc acc i);
    B.migrate_point b 0;
    B.for_up_const b ~lo:0 ~hi:10 (fun i -> B.add_to b acc acc i);
    let out = B.immi b 0x7000 in
    B.store b Mir.W64 acc (Mir.based out);
    B.finish b
  in
  let prog = build () in
  let x86_image = Codegen.lower ~isa:Node_id.X86 prog in
  let arm_image = Codegen.lower ~isa:Node_id.Arm prog in
  let cpu = Interp.create x86_image in
  let memio, mem = flat_memio () in
  (match Interp.run cpu memio ~fuel:1_000_000 with
  | Interp.Migrate 0 -> ()
  | _ -> Alcotest.fail "expected migration point");
  let cpu2 = Migrate_state.transform ~src:cpu ~point:0 ~dst_prog:arm_image in
  (match Interp.run cpu2 memio ~fuel:1_000_000 with
  | Interp.Halted -> ()
  | _ -> Alcotest.fail "expected halt after migration");
  let got = match Hashtbl.find_opt mem 0x7000 with Some x -> x | None -> -1 in
  checki "sum across migration" 90 got

let test_migrate_pc_table () =
  let b = B.create () in
  B.migrate_point b 5;
  B.migrate_point b 9;
  let prog = B.finish b in
  let image = Codegen.lower ~isa:Node_id.Arm prog in
  Alcotest.(check bool) "points recorded in order" true
    (Machine_code.find_migrate_pc image 5 < Machine_code.find_migrate_pc image 9)

let test_syscall_outcome () =
  let b = B.create () in
  let w = B.immi b 0x100 in
  let e = B.immi b 1 in
  B.futex_wait b ~uaddr:w ~expected:e;
  let prog = B.finish b in
  let image = Codegen.lower ~isa:Node_id.X86 prog in
  let cpu = Interp.create image in
  let memio, _ = flat_memio () in
  (match Interp.run cpu memio ~fuel:100 with
  | Interp.Syscall (Mir.Futex_wait _) -> ()
  | _ -> Alcotest.fail "expected futex syscall outcome");
  check64 "uaddr register readable" 0x100L (Interp.reg cpu w)

(* ---------- unboxed register file ---------- *)

(* An endless loop of integer ALU ops (every binop, register and
   immediate forms), float ops and conversions, and a branch on every
   condition; no data memory traffic. *)
let alu_float_branch_loop () =
  let b = B.create () in
  let x = B.immi b 12345 and y = B.immi b 77 in
  let fx = B.fimm b 1.5 and fy = B.fimm b 0.25 in
  B.for_up_const b ~lo:0 ~hi:(1 lsl 40) (fun i ->
      List.iter
        (fun op -> B.bin_to b op x x y)
        [ Mir.Add; Mir.Mul; Mir.Sub; Mir.Xor; Mir.Or; Mir.And; Mir.Shl; Mir.Shr ];
      B.emit b (Mir.Bini (Mir.Add, x, x, 3L));
      let q = B.bin b Mir.Div x y in
      let r = B.bin b Mir.Rem q y in
      B.add_to b x x r;
      B.add_to b x x i;
      B.fadd_to b fx fx fy;
      B.fmul_to b fx fx fy;
      let d = B.fdiv b fx fy in
      let e = B.fsub b d fy in
      B.emit b (Mir.Int_of_f (r, e));
      let f = B.f_of_int b r in
      B.fadd_to b fx f fy;
      List.iter
        (fun cond ->
          let skip = B.label b in
          B.branch b cond x y skip;
          B.addi_to b y y 1;
          B.place b skip)
        [ Mir.Eq; Mir.Ne; Mir.Lt; Mir.Le; Mir.Gt; Mir.Ge ];
      B.andi b y 1023 |> B.set b y;
      B.addi_to b y y 1);
  B.finish b

let test_run_allocates_nothing isa ~traced () =
  let image = Codegen.lower ~isa (alu_float_branch_loop ()) in
  let tc = if traced then Some (Interp.make_tc ()) else None in
  let cpu = Interp.create ?tc image in
  let fetched = ref 0 in
  let memio =
    {
      Interp.load = (fun _ _ -> Alcotest.fail "unexpected load");
      store = (fun _ _ _ -> Alcotest.fail "unexpected store");
      fetch = (fun _ -> incr fetched);
    }
  in
  (* warm-up builds the traces *)
  ignore (Interp.run cpu memio ~fuel:100_000);
  let fuel = 1_000_000 in
  let w0 = Gc.minor_words () in
  let outcome = Interp.run cpu memio ~fuel in
  let words = int_of_float (Gc.minor_words () -. w0) in
  Alcotest.(check bool) "ran out of fuel" true (outcome = Interp.Out_of_fuel);
  checki "one fetch per instruction" (100_000 + fuel) !fetched;
  (match tc with
  | Some tc ->
      Alcotest.(check bool) "traces ran" true (List.assoc "tc.instrs" (Interp.tc_counters tc) > 0)
  | None -> ());
  (* [run]'s own per-call setup is a few dozen words; nothing per
     instruction *)
  Alcotest.(check bool)
    (Printf.sprintf "%d words over %d instructions" words fuel)
    true (words < 64)

let test_register_bounds () =
  let b = B.create () in
  let r = B.immi b 5 in
  let image = Codegen.lower ~isa:Node_id.X86 (B.finish b) in
  let cpu = Interp.create image in
  let n = image.Machine_code.nregs in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  raises "reg -1" (fun () -> Interp.reg cpu (-1));
  raises "reg nregs" (fun () -> Interp.reg cpu n);
  raises "reg max_int" (fun () -> Interp.reg cpu max_int);
  raises "set_reg -1" (fun () -> Interp.set_reg cpu (-1) 1L);
  raises "set_reg nregs" (fun () -> Interp.set_reg cpu n 1L);
  raises "set_reg min_int" (fun () -> Interp.set_reg cpu min_int 1L);
  Interp.set_reg cpu (n - 1) Int64.min_int;
  check64 "last register round-trips" Int64.min_int (Interp.reg cpu (n - 1));
  (* [regs] is a snapshot: writing to it leaves the CPU untouched *)
  let snap = Interp.regs cpu in
  checki "snapshot covers the file" n (Array.length snap);
  snap.(r) <- 99L;
  Interp.set_reg cpu r 7L;
  check64 "cpu unaffected by snapshot write" 7L (Interp.reg cpu r);
  check64 "snapshot unaffected by cpu write" 99L snap.(r)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_binop_semantics; prop_cross_isa_equivalence; prop_trace_cache_fingerprint ]

let () =
  Alcotest.run "isa"
    [
      ( "builder",
        [
          Alcotest.test_case "appends halt" `Quick test_builder_appends_halt;
          Alcotest.test_case "rejects bad reg" `Quick test_validate_rejects_bad_reg;
          Alcotest.test_case "rejects bad label" `Quick test_validate_rejects_undefined_label;
        ] );
      ( "interp",
        [
          Alcotest.test_case "division traps" `Quick test_division_by_zero_traps;
          Alcotest.test_case "loops + indexed stores" `Quick test_loop_and_indexed_store;
          Alcotest.test_case "for_range" `Quick test_for_range_runtime_bounds;
          Alcotest.test_case "branch conditions" `Quick test_branch_conditions;
          Alcotest.test_case "syscall outcome" `Quick test_syscall_outcome;
          Alcotest.test_case "register bounds" `Quick test_register_bounds;
          Alcotest.test_case "x86 loop allocates nothing" `Quick
            (test_run_allocates_nothing Node_id.X86 ~traced:false);
          Alcotest.test_case "arm loop allocates nothing" `Quick
            (test_run_allocates_nothing Node_id.Arm ~traced:false);
          Alcotest.test_case "traced x86 loop allocates nothing" `Quick
            (test_run_allocates_nothing Node_id.X86 ~traced:true);
          Alcotest.test_case "traced arm loop allocates nothing" `Quick
            (test_run_allocates_nothing Node_id.Arm ~traced:true);
        ] );
      ( "codegen",
        [
          Alcotest.test_case "arm immediate chunks" `Quick test_arm_immediate_chunks;
          Alcotest.test_case "x86 two-address penalty" `Quick test_x86_two_address_penalty;
          Alcotest.test_case "code bytes" `Quick test_code_bytes_differ;
          Alcotest.test_case "x86 load-op fusion" `Quick test_x86_load_op_fusion;
        ] );
      ( "migration",
        [
          Alcotest.test_case "transform" `Quick test_migrate_transform;
          Alcotest.test_case "pc table" `Quick test_migrate_pc_table;
        ] );
      ( "trace_cache",
        [
          Alcotest.test_case "invalidate flushes + rebuilds" `Quick test_tc_invalidate_flushes;
          Alcotest.test_case "migration invalidates" `Quick test_tc_migration_invalidates;
          Alcotest.test_case "mid-trace trap invalidates" `Quick test_tc_trap_mid_trace_invalidates;
        ] );
      ("properties", qsuite);
    ]
