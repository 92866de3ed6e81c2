(** Interpreter for machine programs — the CPU-emulation half of
    Stramash-QEMU.

    The interpreter is purely architectural: it executes instructions and
    counts them (icount, §7.3). All memory traffic goes through the
    {!memio} callbacks supplied by the node, which perform address
    translation and cache simulation and account the resulting latency;
    instruction fetches are reported per instruction with their text-segment
    virtual address so the I-cache is exercised.

    {2 Superblock trace cache}

    When created with a {!tc} handle, the interpreter detects hot
    straight-line Mir regions (execution-count threshold per control
    transfer target), pre-decodes them into flat slot arrays with
    operands resolved, and replays them with the per-instruction
    bounds/fuel guards hoisted to trace entry. Taken branches are side
    exits back to the generic dispatch path; a terminal back-jump
    re-enters the trace without another table lookup. The cache is
    host-side machinery only: a traced run performs exactly the same
    [memio] calls, icount and fuel accounting as an untraced one, and
    mid-trace exceptions observe the same interpreter state the generic
    loop would have had. Traces are invalidated on migration, on
    checkpoint restore or fault injection on the executing node (the
    runner calls {!invalidate_traces}), and on any exceptional exit from
    {!run}. *)

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

type tc
(** Trace-cache configuration and counters, shared by every interpreter
    of one machine (all threads, both nodes, across migrations) so the
    counters describe the whole run. Never share a [tc] between machines
    that may run on different host domains. *)

val make_tc : ?threshold:int -> ?max_trace:int -> unit -> tc
(** [threshold] (default 32) is the execution count a control-transfer
    target must reach before a trace is built at it; [max_trace]
    (default 256) bounds trace length in instructions. *)

val tc_counters : tc -> (string * int) list
(** Host-side observability: [tc.built], [tc.entered], [tc.instrs],
    [tc.side_exits], [tc.flushes]. Deliberately not part of the model
    metrics, so registries stay bit-identical with the cache off. *)

val create : ?tc:tc -> Machine.program -> t
(** Without [?tc] the interpreter runs the plain dispatch loop (trace
    cache off). *)

val tc : t -> tc option
(** The handle this interpreter was created with — migration state
    transfer propagates it to the destination interpreter. *)

val invalidate_traces : t -> unit
(** Drop every built trace and reset leader counts, bumping the
    [tc.flushes] counter per dropped trace. Called by the runner on
    checkpoint restore and crash-stop injection against the executing
    node; a no-op when tracing is off. *)

val trace_count : t -> int
(** Built traces currently live (test observability). *)

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
(** Execute at most [fuel] instructions. *)

val halted : t -> bool
