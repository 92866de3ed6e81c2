type memio = {
  load : int -> int -> int64;
  store : int -> int -> int64 -> unit;
  fetch : int -> unit;
}

(* Inert trace-cache shim, kept only for perfbench (see the interface). *)
type tc = unit

let make_tc () = ()
let tc_counters () = []

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

let create ?tc:_ prog =
  validate_registers prog;
  {
    prog;
    nregs = prog.Machine.nregs;
    register_file = Bytes.make (8 * prog.Machine.nregs) '\000';
    pc = 0;
    icount = 0;
    halted = false;
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
let tc _ = None

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
   loop takes a branch per loop iteration, so the
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
    (try
       while !running && !remaining > 0 do
         let pc = !pcr in
         if pc < 0 || pc >= nops then raise (Trap "pc out of text segment");
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
         | Machine.MJmp target -> pcr := target
         | Machine.MBr (c, a, b, target) ->
             if eval_cond c (get regs a) (get regs b) then pcr := target
         | Machine.MSyscall s ->
             result := Syscall s;
             running := false
         | Machine.MMigrate id ->
             result := Migrate id;
             running := false
         | Machine.MHalt ->
             t.halted <- true;
             result := Halted;
             running := false
       done
     with e ->
       flush ();
       raise e);
    flush ();
    !result
  end
