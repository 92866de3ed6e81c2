type memio = {
  load : int -> int -> int64;
  store : int -> int -> int64 -> unit;
  fetch : int -> unit;
}

(* ---------- superblock trace cache ----------------------------------------

   Hot straight-line Mir regions are pre-decoded into flat slot arrays and
   replayed without the per-instruction bounds/guard checks of the generic
   dispatch loop. The design constraints, in order:

   - Exactness. A trace replays the same architectural effects in the
     same order as the generic loop: one [memio.fetch] per instruction at
     the same text vaddr, the same loads/stores, the same icount and fuel
     accounting. pc/icount/fuel are maintained per step, so an exception
     raised anywhere mid-trace (a trap, an unrecoverable fault from
     memio) observes exactly the state the generic loop would have had.
     The trace cache is host-side machinery only: nothing simulated can
     distinguish a traced run from an untraced one.

   - Guard hoisting. A trace is entered only when the remaining fuel
     covers its full length and its leader pc was bounds-checked by the
     dispatch loop, so the per-step bounds and fuel-exhaustion guards
     are checked once per trace, not once per instruction.

   - Side exits. A taken branch mid-trace exits back to the generic
     dispatch path (after recording the target as a potential leader);
     an untaken branch falls through inside the trace. The terminal
     instruction may be an unconditional jump; a back-jump to the
     trace's own leader re-enters without another table lookup.

   - Invalidation. Traces are dropped (and counted) on migration (a
     fresh interpreter on the destination ISA), on checkpoint restore
     and crash-stop fault injection on the executing node (the runner
     calls {!invalidate_traces}), and on any exceptional exit from
     {!run} — decoded slots are static today, so this is hygiene, but
     it is the contract that keeps the cache safe against any future
     event that can change control flow or code mappings. *)

type tc_stats = {
  mutable tc_built : int; (* traces constructed *)
  mutable tc_entered : int; (* trace executions, loop-back re-entries included *)
  mutable tc_instrs : int; (* instructions retired inside traces *)
  mutable tc_side_exits : int; (* taken branches that left a trace early *)
  mutable tc_flushes : int; (* traces dropped by invalidation *)
}

(* Shared by every interpreter of one machine (threads, both nodes, and
   across migrations), so the counters describe the whole run. Machines
   never share a [tc], which keeps independent machines on separate host
   domains race-free. *)
type tc = { threshold : int; max_trace : int; stats : tc_stats }

let make_tc ?(threshold = 32) ?(max_trace = 256) () =
  if threshold < 1 then invalid_arg "Interp.make_tc: threshold must be >= 1";
  if max_trace < 1 then invalid_arg "Interp.make_tc: max_trace must be >= 1";
  {
    threshold;
    max_trace;
    stats = { tc_built = 0; tc_entered = 0; tc_instrs = 0; tc_side_exits = 0; tc_flushes = 0 };
  }

let tc_counters tc =
  [
    ("tc.built", tc.stats.tc_built);
    ("tc.entered", tc.stats.tc_entered);
    ("tc.instrs", tc.stats.tc_instrs);
    ("tc.side_exits", tc.stats.tc_side_exits);
    ("tc.flushes", tc.stats.tc_flushes);
  ]

(* Pre-decoded trace slot: the opcode with its operands resolved at build
   time — load/store widths already in bytes, so no per-step width
   decode, and no cross-module helper calls on the replay path. *)
type slot =
  | SImm of int * int64
  | SMovR of int * int
  | SAlu3 of Mir.binop * int * int * int
  | SAlu2 of Mir.binop * int * int
  | SAluI of Mir.binop * int * int64
  | SAlu3I of Mir.binop * int * int * int64
  | SLoad of int * int * Machine.mem (* bytes, dst, address *)
  | SStore of int * int * Machine.mem (* bytes, src, address *)
  | SAluMem of Mir.binop * int * Machine.mem
  | SFAluMem of Mir.fbinop * int * Machine.mem
  | SFAlu3 of Mir.fbinop * int * int * int
  | SFAlu2 of Mir.fbinop * int * int
  | SCvtIF of int * int
  | SCvtFI of int * int
  | SJmp of int (* terminal only *)
  | SBr of Mir.cond * int * int * int (* side exit when taken *)

type trace = {
  t_leader : int;
  t_len : int;
  t_slots : slot array;
  t_vaddrs : int array; (* code_base + code_off.(pc), precomputed *)
  t_loopback : bool; (* terminal slot jumps back to t_leader *)
}

(* The register file is a [Bytes.t] of 8 bytes per register, read and
   written through the unboxed 64-bit primitives: an [int64 array] stores
   boxed values, so every register write would allocate. *)
type t = {
  prog : Machine.program;
  nregs : int;
  register_file : Bytes.t;
  mutable pc : int;
  mutable icount : int;
  mutable halted : bool;
  tc : tc option;
  leader_counts : int array; (* per pc; [||] when tracing is off *)
  traces : trace option array; (* per leader pc; [||] when tracing is off *)
}

type outcome = Out_of_fuel | Halted | Migrate of int | Syscall of Mir.syscall

exception Trap of string

(* Every register index is validated here, once, so the dispatch loop can
   use unsafe array accesses on the register file. *)
let validate_registers (prog : Machine.program) =
  let n = prog.Machine.nregs in
  let ok r = r >= 0 && r < n in
  let okm (m : Machine.mem) =
    ok m.Machine.mbase
    && match m.Machine.mindex with None -> true | Some i -> ok i
  in
  let valid = function
    | Machine.MImm (r, _) -> ok r
    | Machine.MMovR (d, s)
    | Machine.MAlu2 (_, d, s)
    | Machine.MFAlu2 (_, d, s)
    | Machine.MCvtIF (d, s)
    | Machine.MCvtFI (d, s) -> ok d && ok s
    | Machine.MAlu3 (_, d, a, b) | Machine.MFAlu3 (_, d, a, b) -> ok d && ok a && ok b
    | Machine.MAluI (_, d, _) -> ok d
    | Machine.MAlu3I (_, d, a, _) -> ok d && ok a
    | Machine.MLoad (_, d, m) | Machine.MAluMem (_, d, m) | Machine.MFAluMem (_, d, m) ->
        ok d && okm m
    | Machine.MStore (_, s, m) -> ok s && okm m
    | Machine.MBr (_, a, b, _) -> ok a && ok b
    | Machine.MJmp _ | Machine.MSyscall _ | Machine.MMigrate _ | Machine.MHalt -> true
  in
  Array.iteri
    (fun i op ->
      if not (valid op) then
        invalid_arg
          (Printf.sprintf "Interp.create: op %d references a register outside nregs=%d" i n))
    prog.Machine.ops

let create ?tc prog =
  validate_registers prog;
  let nops = Array.length prog.Machine.ops in
  {
    prog;
    nregs = prog.Machine.nregs;
    register_file = Bytes.make (8 * prog.Machine.nregs) '\000';
    pc = 0;
    icount = 0;
    halted = false;
    tc;
    leader_counts = (match tc with Some _ -> Array.make nops 0 | None -> [||]);
    traces = (match tc with Some _ -> Array.make nops None | None -> [||]);
  }

let program t = t.prog
let pc t = t.pc
let set_pc t pc = t.pc <- pc
let icount t = t.icount

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Unchecked register access for the dispatch loop, whose register
   indices were all validated at [create]; every other caller goes
   through the checked [reg]/[set_reg]. *)
let[@inline always] get regs r = get64u regs (8 * r)
let[@inline always] set regs r v = set64u regs (8 * r) v

let check_reg t r fn =
  if r < 0 || r >= t.nregs then
    invalid_arg (Printf.sprintf "Interp.%s: register %d outside nregs=%d" fn r t.nregs)

let reg t r =
  check_reg t r "reg";
  get t.register_file r

let set_reg t r v =
  check_reg t r "set_reg";
  set t.register_file r v

let regs t = Array.init t.nregs (fun r -> get t.register_file r)

let copy_regs ~src ~dst =
  let n = min src.nregs dst.nregs in
  Bytes.blit src.register_file 0 dst.register_file 0 (8 * n);
  n

let halted t = t.halted
let tc t = t.tc

let trace_count t =
  Array.fold_left (fun acc tr -> match tr with Some _ -> acc + 1 | None -> acc) 0 t.traces

let invalidate_traces t =
  match t.tc with
  | None -> ()
  | Some tc ->
      let dropped = ref 0 in
      Array.iteri
        (fun i tr ->
          match tr with
          | Some _ ->
              incr dropped;
              t.traces.(i) <- None
          | None -> ())
        t.traces;
      Array.fill t.leader_counts 0 (Array.length t.leader_counts) 0;
      tc.stats.tc_flushes <- tc.stats.tc_flushes + !dropped

(* [regs.(d) <- a op b]. Inlined at every use, and each arm stores its
   own result, so the operands and the result stay unboxed: an [int64]
   returned from a call, or joined from match arms, would be boxed. *)
let[@inline always] binop_into regs d op a b =
  match op with
  | Mir.Add -> set regs d (Int64.add a b)
  | Mir.Sub -> set regs d (Int64.sub a b)
  | Mir.Mul -> set regs d (Int64.mul a b)
  | Mir.Div -> if b = 0L then raise (Trap "division by zero") else set regs d (Int64.div a b)
  | Mir.Rem -> if b = 0L then raise (Trap "remainder by zero") else set regs d (Int64.rem a b)
  | Mir.And -> set regs d (Int64.logand a b)
  | Mir.Or -> set regs d (Int64.logor a b)
  | Mir.Xor -> set regs d (Int64.logxor a b)
  | Mir.Shl -> set regs d (Int64.shift_left a (Int64.to_int b land 63))
  | Mir.Shr -> set regs d (Int64.shift_right_logical a (Int64.to_int b land 63))

(* [regs.(d) <- a op b] on the IEEE doubles whose bits [a] and [b] hold;
   unboxed as [binop_into]. *)
let[@inline always] fbinop_into regs d op a b =
  let x = Int64.float_of_bits a and y = Int64.float_of_bits b in
  match op with
  | Mir.Fadd -> set regs d (Int64.bits_of_float (x +. y))
  | Mir.Fsub -> set regs d (Int64.bits_of_float (x -. y))
  | Mir.Fmul -> set regs d (Int64.bits_of_float (x *. y))
  | Mir.Fdiv -> set regs d (Int64.bits_of_float (x /. y))

(* Local mirror of [Mir.eval_cond] (identical semantics): the dispatch
   loop and the trace replayer take a branch per loop iteration, so the
   comparison must not be a cross-module call (no flambda, so those never
   inline), and it is inlined so its operands are never boxed. *)
let[@inline always] eval_cond cond (a : int64) (b : int64) =
  match cond with
  | Mir.Eq -> a = b
  | Mir.Ne -> a <> b
  | Mir.Lt -> a < b
  | Mir.Le -> a <= b
  | Mir.Gt -> a > b
  | Mir.Ge -> a >= b

(* Local mirror of [Mir.bytes_of_width], for the same reason. *)
let bytes_of_width = function Mir.W8 -> 1 | Mir.W16 -> 2 | Mir.W32 -> 4 | Mir.W64 -> 8

(* Register indices were validated at [create]; unsafe accesses here are in
   bounds by construction. *)
let effective_address regs (m : Machine.mem) =
  let base = Int64.to_int (get regs m.Machine.mbase) in
  let idx =
    match m.Machine.mindex with
    | None -> 0
    | Some i -> Int64.to_int (get regs i) * m.Machine.mscale
  in
  base + idx + m.Machine.mdisp

(* Build a superblock starting at [leader]: the longest straight-line run
   of pre-decodable ops, ending early at (and including) an unconditional
   jump, and excluding syscall/migrate/halt terminators — the generic
   loop handles those. Branches stay inside the trace as side exits. *)
let build_trace t tc ~leader =
  let ops = t.prog.Machine.ops in
  let code_off = t.prog.Machine.code_off in
  let nops = Array.length ops in
  let code_base = Codegen.code_base in
  let rec scan pc acc n =
    if pc >= nops || n >= tc.max_trace then List.rev acc
    else
      match ops.(pc) with
      | Machine.MSyscall _ | Machine.MMigrate _ | Machine.MHalt -> List.rev acc
      | Machine.MImm (r, v) -> scan (pc + 1) (SImm (r, v) :: acc) (n + 1)
      | Machine.MMovR (d, s) -> scan (pc + 1) (SMovR (d, s) :: acc) (n + 1)
      | Machine.MAlu3 (op, d, a, b) -> scan (pc + 1) (SAlu3 (op, d, a, b) :: acc) (n + 1)
      | Machine.MAlu2 (op, d, s) -> scan (pc + 1) (SAlu2 (op, d, s) :: acc) (n + 1)
      | Machine.MAluI (op, d, v) -> scan (pc + 1) (SAluI (op, d, v) :: acc) (n + 1)
      | Machine.MAlu3I (op, d, a, v) -> scan (pc + 1) (SAlu3I (op, d, a, v) :: acc) (n + 1)
      | Machine.MLoad (w, d, m) -> scan (pc + 1) (SLoad (bytes_of_width w, d, m) :: acc) (n + 1)
      | Machine.MStore (w, s, m) ->
          scan (pc + 1) (SStore (bytes_of_width w, s, m) :: acc) (n + 1)
      | Machine.MAluMem (op, d, m) -> scan (pc + 1) (SAluMem (op, d, m) :: acc) (n + 1)
      | Machine.MFAluMem (op, d, m) -> scan (pc + 1) (SFAluMem (op, d, m) :: acc) (n + 1)
      | Machine.MFAlu3 (op, d, a, b) -> scan (pc + 1) (SFAlu3 (op, d, a, b) :: acc) (n + 1)
      | Machine.MFAlu2 (op, d, s) -> scan (pc + 1) (SFAlu2 (op, d, s) :: acc) (n + 1)
      | Machine.MCvtIF (d, s) -> scan (pc + 1) (SCvtIF (d, s) :: acc) (n + 1)
      | Machine.MCvtFI (d, s) -> scan (pc + 1) (SCvtFI (d, s) :: acc) (n + 1)
      | Machine.MJmp target -> List.rev (SJmp target :: acc)
      | Machine.MBr (c, a, b, target) -> scan (pc + 1) (SBr (c, a, b, target) :: acc) (n + 1)
  in
  match scan leader [] 0 with
  | [] -> () (* the leader itself is a terminator the trace cannot hold *)
  | slots ->
      let t_slots = Array.of_list slots in
      let t_len = Array.length t_slots in
      let t_vaddrs =
        Array.init t_len (fun j -> code_base + Array.unsafe_get code_off (leader + j))
      in
      let t_loopback =
        match t_slots.(t_len - 1) with SJmp target -> target = leader | _ -> false
      in
      t.traces.(leader) <- Some { t_leader = leader; t_len; t_slots; t_vaddrs; t_loopback };
      tc.stats.tc_built <- tc.stats.tc_built + 1

(* Control-transfer target bookkeeping: bump the leader counter and build
   the trace the moment the threshold is crossed. Host-side heuristic
   state only — nothing simulated depends on it. *)
let note_leader t target =
  match t.tc with
  | None -> ()
  | Some tc ->
      if target >= 0 && target < Array.length t.leader_counts then begin
        match t.traces.(target) with
        | Some _ -> ()
        | None ->
            let c = t.leader_counts.(target) + 1 in
            t.leader_counts.(target) <- c;
            if c = tc.threshold then build_trace t tc ~leader:target
      end

let run t memio ~fuel =
  if t.halted then Halted
  else begin
    let ops = t.prog.Machine.ops in
    let code_off = t.prog.Machine.code_off in
    let regs = t.register_file in
    let nops = Array.length ops in
    let code_base = Codegen.code_base in
    (* Hoist the memio closures out of their record: one field load here
       instead of one per simulated instruction. *)
    let fetch = memio.fetch in
    let load = memio.load in
    let store = memio.store in
    let remaining = ref fuel in
    let result = ref Out_of_fuel in
    let running = ref true in
    (* [pc] and [icount] live in locals for the duration of the loop and are
       flushed on every exit path. Nothing observes them mid-run: the memio
       closures never read interpreter state, and external readers
       ([Runner.account], the schedulers) only run between [run] calls. *)
    let pcr = ref t.pc in
    let ic = ref t.icount in
    let flush () =
      t.pc <- !pcr;
      t.icount <- !ic
    in
    let traces = t.traces in
    let tc_on = t.tc <> None in
    let tc_stats =
      match t.tc with
      | Some tc -> tc.stats
      | None ->
          { tc_built = 0; tc_entered = 0; tc_instrs = 0; tc_side_exits = 0; tc_flushes = 0 }
    in
    (* Replay a trace whose entry guards already passed: leader bounds
       checked by the dispatch loop, [!remaining >= t_len] checked at
       entry (and again before each loop-back), so the per-step guards
       reduce to the slot walk itself. pc/icount/fuel advance per step
       exactly as the generic loop's, which is what makes a mid-trace
       exception (trap, unrecoverable fault) land with identical state. *)
    let exec_trace tr =
      let stats = tc_stats in
      let slots = tr.t_slots in
      let vaddrs = tr.t_vaddrs in
      let len = tr.t_len in
      let leader = tr.t_leader in
      let again = ref true in
      while !again do
        again := false;
        stats.tc_entered <- stats.tc_entered + 1;
        let i = ref 0 in
        let exited = ref false in
        while (not !exited) && !i < len do
          let j = !i in
          fetch (Array.unsafe_get vaddrs j);
          ic := !ic + 1;
          decr remaining;
          pcr := leader + j + 1;
          (match Array.unsafe_get slots j with
          | SImm (r, v) -> set regs r v
          | SMovR (d, s) -> set regs d (get regs s)
          | SAlu3 (op, d, a, b) -> binop_into regs d op (get regs a) (get regs b)
          | SAlu2 (op, d, s) -> binop_into regs d op (get regs d) (get regs s)
          | SAluI (op, d, v) -> binop_into regs d op (get regs d) v
          | SAlu3I (op, d, a, v) -> binop_into regs d op (get regs a) v
          | SLoad (bytes, d, m) ->
              let va = effective_address regs m in
              set regs d (load bytes va)
          | SStore (bytes, s, m) ->
              let va = effective_address regs m in
              store bytes va (get regs s)
          | SAluMem (op, d, m) ->
              let va = effective_address regs m in
              binop_into regs d op (get regs d) (load 8 va)
          | SFAluMem (op, d, m) ->
              let va = effective_address regs m in
              fbinop_into regs d op (get regs d) (load 8 va)
          | SFAlu3 (op, d, a, b) -> fbinop_into regs d op (get regs a) (get regs b)
          | SFAlu2 (op, d, s) -> fbinop_into regs d op (get regs d) (get regs s)
          | SCvtIF (d, s) -> set regs d (Int64.bits_of_float (Int64.to_float (get regs s)))
          | SCvtFI (d, s) -> set regs d (Int64.of_float (Int64.float_of_bits (get regs s)))
          | SJmp target ->
              (* Terminal slot by construction (j = len - 1). *)
              pcr := target;
              if target <> leader then note_leader t target
          | SBr (c, a, b, target) ->
              if eval_cond c (get regs a) (get regs b) then begin
                pcr := target;
                exited := true;
                stats.tc_side_exits <- stats.tc_side_exits + 1;
                note_leader t target
              end);
          incr i
        done;
        stats.tc_instrs <- stats.tc_instrs + !i;
        if (not !exited) && tr.t_loopback && !remaining >= len then again := true
      done
    in
    (try
       while !running && !remaining > 0 do
         let pc = !pcr in
         if pc < 0 || pc >= nops then raise (Trap "pc out of text segment");
         match (if tc_on then Array.unsafe_get traces pc else None) with
         | Some tr when !remaining >= tr.t_len -> exec_trace tr
         | _ -> (
             fetch (code_base + Array.unsafe_get code_off pc);
             ic := !ic + 1;
             decr remaining;
             pcr := pc + 1;
             (* [pc < nops] was just checked, so ops/code_off reads are in
                bounds; register indices were validated at [create]. *)
             match Array.unsafe_get ops pc with
             | Machine.MImm (r, v) -> set regs r v
             | Machine.MMovR (d, s) -> set regs d (get regs s)
             | Machine.MAlu3 (op, d, a, b) -> binop_into regs d op (get regs a) (get regs b)
             | Machine.MAlu2 (op, d, s) -> binop_into regs d op (get regs d) (get regs s)
             | Machine.MAluI (op, d, v) -> binop_into regs d op (get regs d) v
             | Machine.MAlu3I (op, d, a, v) -> binop_into regs d op (get regs a) v
             | Machine.MLoad (w, d, m) ->
                 let va = effective_address regs m in
                 set regs d (load (bytes_of_width w) va)
             | Machine.MStore (w, s, m) ->
                 let va = effective_address regs m in
                 store (bytes_of_width w) va (get regs s)
             | Machine.MAluMem (op, d, m) ->
                 let va = effective_address regs m in
                 binop_into regs d op (get regs d) (load 8 va)
             | Machine.MFAluMem (op, d, m) ->
                 let va = effective_address regs m in
                 fbinop_into regs d op (get regs d) (load 8 va)
             | Machine.MFAlu3 (op, d, a, b) -> fbinop_into regs d op (get regs a) (get regs b)
             | Machine.MFAlu2 (op, d, s) -> fbinop_into regs d op (get regs d) (get regs s)
             | Machine.MCvtIF (d, s) ->
                 set regs d (Int64.bits_of_float (Int64.to_float (get regs s)))
             | Machine.MCvtFI (d, s) ->
                 set regs d (Int64.of_float (Int64.float_of_bits (get regs s)))
             | Machine.MJmp target ->
                 pcr := target;
                 note_leader t target
             | Machine.MBr (c, a, b, target) ->
                 if eval_cond c (get regs a) (get regs b) then begin
                   pcr := target;
                   note_leader t target
                 end
             | Machine.MSyscall s ->
                 result := Syscall s;
                 running := false
             | Machine.MMigrate id ->
                 result := Migrate id;
                 running := false
             | Machine.MHalt ->
                 t.halted <- true;
                 result := Halted;
                 running := false)
       done
     with e ->
       flush ();
       (* An exceptional exit voids the control-flow assumptions the
          traces were built under; drop them (counted as flushes). *)
       invalidate_traces t;
       raise e);
    flush ();
    !result
  end
