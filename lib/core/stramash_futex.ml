module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Futex = Stramash_kernel.Futex
module Process = Stramash_kernel.Process
module Thread = Stramash_kernel.Thread
module Page_table = Stramash_kernel.Page_table
module Pte = Stramash_kernel.Pte
module Ipi = Stramash_interconnect.Ipi
module Trace = Stramash_obs.Trace

type t = { env : Env.t; faults : Stramash_fault.t; mutable ipis : int }

let create env faults = { env; faults; ipis = 0 }
let ipis_sent t = t.ipis

(* Waiters normally queue in the origin kernel's bucket. While the origin
   is crash-stopped its buckets are unreachable, so futex traffic homes on
   the survivor; after the restart, wakes drain both homes (see
   [wake_acting]) so nothing queued during the downtime is stranded. *)
let home_node t ~origin =
  if Env.node_alive t.env origin then origin else Node_id.other origin

(* Resolve the futex word's physical address through the caller's own page
   table, faulting the page in if necessary (shared frame — the word is the
   same memory on both kernels). *)
let word_paddr t ~proc ~node ~uaddr =
  let mm = Env.ensure_mm t.env ~proc ~node in
  let io = Env.pt_io t.env ~actor:node ~owner:node in
  let leaf =
    let leaf = Page_table.walk mm.Process.pgtable io ~vaddr:uaddr in
    if Pte.present leaf then leaf
    else begin
      (* A futex on an unmapped or unmappable word cannot proceed; the
         typed error crosses to the CLI edge as an exception. *)
      Stramash_fault.handle_fault_exn t.faults ~proc ~node ~vaddr:uaddr ~write:true;
      let leaf = Page_table.walk mm.Process.pgtable io ~vaddr:uaddr in
      if not (Pte.present leaf) then
        invalid_arg
          (Printf.sprintf "Stramash_futex: fault handler left uaddr=0x%x unmapped" uaddr);
      leaf
    end
  in
  (Pte.frame ~isa:node leaf lsl Addr.page_shift) + Addr.page_offset uaddr

let wait_acting t ~actor ~proc ~thread ~uaddr ~expected =
  let meter = Env.meter t.env actor in
  let sp =
    if Trace.enabled () then
      Trace.span ~at:(Meter.get meter)
        ~tags:[ ("cross", string_of_bool (not (Node_id.equal actor proc.Process.origin))) ]
        ~flow_root:true ~node:actor ~subsys:"futex" ~op:"wait" ()
    else Trace.null
  in
  let t0 = Meter.get meter in
  let home = home_node t ~origin:proc.Process.origin in
  let kernel = Env.kernel t.env home in
  (* Direct access to the home (normally origin) kernel's futex bucket:
     CAS + queue ops by the acting node (remote latency when the actor is
     not the bucket's home). *)
  let bucket = Futex.bucket_addr kernel.Kernel.futexes ~uaddr in
  Env.charge_atomic t.env actor ~paddr:bucket;
  let wp = word_paddr t ~proc ~node:actor ~uaddr in
  Env.charge_load t.env actor ~paddr:wp;
  let value = Phys_mem.read t.env.Env.phys wp ~width:4 in
  let outcome =
    if Int64.logand value 0xFFFFFFFFL = Int64.logand expected 0xFFFFFFFFL then begin
      Futex.enqueue_waiter kernel.Kernel.futexes ~uaddr ~tid:thread.Thread.tid;
      Env.charge_store t.env actor ~paddr:bucket;
      Env.charge_store t.env actor ~paddr:bucket;
      `Block
    end
    else begin
      Env.charge_store t.env actor ~paddr:bucket;
      `Proceed
    end
  in
  if sp != Trace.null then begin
    let t1 = Meter.get meter in
    (* Bucket ops against another node's futex hash are coherent remote
       atomics: the whole sequence is serialized behind the home node. *)
    if not (Node_id.equal home actor) then Trace.add_blocked ~node:actor ~subsys:"futex" (t1 - t0);
    Trace.close ~at:t1
      ~tags:[ ("outcome", match outcome with `Block -> "block" | `Proceed -> "proceed") ]
      sp
  end;
  outcome

let wait t ~proc ~thread ~uaddr ~expected =
  wait_acting t ~actor:thread.Thread.node ~proc ~thread ~uaddr ~expected

let wake_acting t ~actor ~proc ~threads ~uaddr ~nwake =
  let node = actor in
  let meter = Env.meter t.env node in
  let sp =
    if Trace.enabled () then
      Trace.span ~at:(Meter.get meter) ~flow_root:true ~node ~subsys:"futex" ~op:"wake" ()
    else Trace.null
  in
  let t0 = Meter.get meter in
  let home = home_node t ~origin:proc.Process.origin in
  let drain_bucket knode n =
    if n <= 0 then []
    else begin
      let futexes = (Env.kernel t.env knode).Kernel.futexes in
      let bucket = Futex.bucket_addr futexes ~uaddr in
      Env.charge_atomic t.env node ~paddr:bucket;
      let rec collect n acc =
        if n = 0 then List.rev acc
        else
          match Futex.dequeue_waiter futexes ~uaddr with
          | None -> List.rev acc
          | Some tid ->
              Env.charge_load t.env node ~paddr:bucket;
              collect (n - 1) (tid :: acc)
      in
      let woken = collect n [] in
      Env.charge_store t.env node ~paddr:bucket;
      woken
    end
  in
  let woken = drain_bucket home nwake in
  (* Under a chaos schedule waiters can sit in three more places: the
     other live kernel's bucket (queued there while this one was down),
     and the downtime holding area (their own node died mid-wait). Plain
     runs never probe these — the paths stay bit-identical. *)
  let woken =
    if not (Stramash_fault.chaos_armed t.faults) then woken
    else begin
      let alt = Node_id.other home in
      let woken =
        if Env.node_alive t.env alt then
          woken @ drain_bucket alt (nwake - List.length woken)
        else woken
      in
      woken @ Stramash_fault.wake_held t.faults ~uaddr ~limit:(nwake - List.length woken)
    end
  in
  (* One cross-ISA IPI per waiter parked on the other kernel instance —
     unless that instance is dead (the wake takes effect at restart). *)
  List.iter
    (fun tid ->
      match List.find_opt (fun th -> th.Thread.tid = tid) threads with
      | Some th
        when (not (Node_id.equal th.Thread.node node))
             && Env.node_alive t.env th.Thread.node ->
          t.ipis <- t.ipis + 1;
          Meter.add (Env.meter t.env node) (Ipi.cross_isa_ipi_cycles / 8);
          (* triggering the IPI is cheap for the sender; delivery latency
             lands on the waiter via the machine's wake logic *)
          Trace.instant ~node ~subsys:"ipi" ~op:"futex_wake" ()
      | Some _ | None -> ())
    woken;
  if sp != Trace.null then begin
    let t1 = Meter.get meter in
    if not (Node_id.equal home node) then Trace.add_blocked ~node ~subsys:"futex" (t1 - t0);
    Trace.close ~at:t1
      ~tags:[ ("woken", string_of_int (List.length woken)) ]
      sp
  end;
  woken

let wake t ~proc ~thread ~threads ~uaddr ~nwake =
  wake_acting t ~actor:thread.Stramash_kernel.Thread.node ~proc ~threads ~uaddr ~nwake
