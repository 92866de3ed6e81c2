(** Interpreter for machine programs — the CPU-emulation half of
    Stramash-QEMU.

    The interpreter is purely architectural: it executes instructions and
    counts them (icount, §7.3). All memory traffic goes through the
    {!memio} callbacks supplied by the node, which perform address
    translation and cache simulation and account the resulting latency;
    instruction fetches are reported per instruction with their text-segment
    virtual address so the I-cache is exercised. *)

type memio = {
  load : int -> int -> int64; (* load width_bytes vaddr, zero-extended *)
  store : int -> int -> int64 -> unit; (* store width_bytes vaddr value *)
  fetch : int -> unit; (* instruction fetch at code vaddr *)
}

type t

type outcome =
  | Out_of_fuel (* fuel exhausted; call {!run} again *)
  | Halted
  | Migrate of int (* reached migration point [id] *)
  | Syscall of Mir.syscall (* kernel must handle, then re-run *)

exception Trap of string
(** Division by zero or a jump out of the text segment. *)

(** {2 Inert trace-cache shim}

    Kept only because the perfbench harness links these names;
    the superblock trace cache they configured was deleted, and the next
    benchmark change deletes them too. [create] ignores [?tc], [tc]
    returns [None] and [tc_counters] returns [[]]. *)

type tc = unit

val make_tc : unit -> tc
val tc_counters : tc -> (string * int) list
val create : ?tc:tc -> Machine.program -> t
val tc : t -> tc option

val program : t -> Machine.program
val pc : t -> int
val set_pc : t -> int -> unit
val icount : t -> int
val reg : t -> Mir.reg -> int64
(** Raises [Invalid_argument] for a register outside the program's
    [nregs]. *)

val set_reg : t -> Mir.reg -> int64 -> unit
(** Raises [Invalid_argument] for a register outside the program's
    [nregs]. *)

val regs : t -> int64 array
(** A copy of the register file; later writes to either side are not
    shared. *)

val copy_regs : src:t -> dst:t -> int
(** Copy the registers the two files have in common (the first
    [min] of their [nregs]) from [src] to [dst]; returns how many. *)

val run : t -> memio -> fuel:int -> outcome
(** Execute at most [fuel] instructions. {!pc} and {!icount} are current
    on every exit, exceptions included: a division trap leaves {!pc} just
    past the dividing instruction, which {!icount} counts. *)

val halted : t -> bool
