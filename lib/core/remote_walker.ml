module Meter = Stramash_sim.Meter
module Node_id = Stramash_sim.Node_id
module Env = Stramash_kernel.Env
module Page_table = Stramash_kernel.Page_table
module Process = Stramash_kernel.Process
module Pte = Stramash_kernel.Pte
module Vma = Stramash_kernel.Vma
module Fault = Stramash_fault_inject.Fault
module Plan = Stramash_fault_inject.Plan
module Trace = Stramash_obs.Trace

(* A transient remote PTE read failure costs this much before the retry,
   and the walk gives up with [Walk_failed] after this many attempts. *)
let walk_retry_cycles = Stramash_sim.Cycles.of_ns 600.0
let walk_max_attempts = 3

(* The actor's charged io over the owner's table. Remote walks and leaf
   installs never allocate a directory, so the owner's allocator in it is
   never called. *)
let io env ~actor ~owner_mm =
  Env.pt_io env ~actor ~owner:(Page_table.isa owner_mm.Process.pgtable)

(* A remote walk is the requester loading the owner's page-table lines
   over the coherent interconnect — there is no responder software, so the
   responder-side hops of the causal path are synthesized from the
   latency table: each read's remote premium ([remote_mem - mem]) is
   round-trip wire, the local-DRAM share is the remote memory system
   serving the line. Estimates are clamped to the observed span (reads
   that hit a local cache cost less than the table says), and the tiling
   [self | request wire | remote serve | reply wire] always sums to the
   walk's end-to-end duration. *)
let synth_remote_hops env ~actor ~flow ~subsys ~reads t0 t1 =
  if flow <> 0 && reads > 0 && t1 > t0 then begin
    let total = t1 - t0 in
    let lat = Stramash_cache.Config.latencies (Stramash_cache.Cache_sim.config env.Env.cache) actor in
    let diff = max 0 (lat.Stramash_mem.Latency.remote_mem - lat.Stramash_mem.Latency.mem) in
    let wire = min (total / 2) (reads * diff / 2) in
    let serve = max 0 (min (total - (2 * wire)) (reads * lat.Stramash_mem.Latency.mem)) in
    let peer = Node_id.other actor in
    let s0 = t1 - ((2 * wire) + serve) in
    let hop node sub op ts te =
      if te > ts then
        Trace.with_flow ~node ~flow (fun () ->
            Trace.close ~at:te (Trace.span ~at:ts ~node ~subsys:sub ~op ()))
    in
    hop peer "interconnect" "request" s0 (s0 + wire);
    hop peer subsys "serve" (s0 + wire) (s0 + wire + serve);
    hop actor "interconnect" "reply" (s0 + wire + serve) t1;
    Trace.add_blocked ~node:actor ~subsys ((2 * wire) + serve)
  end

let walk env ~actor ~owner_mm ~vaddr =
  if not (Trace.enabled ()) then
    Page_table.walk owner_mm.Process.pgtable (io env ~actor ~owner_mm) ~vaddr
  else begin
    let meter = Env.meter env actor in
    let sp =
      Trace.span ~at:(Meter.get meter) ~flow_root:true ~node:actor ~subsys:"remote_walker"
        ~op:"walk" ()
    in
    let reads = ref 0 in
    let io =
      let base = io env ~actor ~owner_mm in
      {
        base with
        Page_table.charge_read =
          (fun paddr ->
            incr reads;
            base.Page_table.charge_read paddr);
      }
    in
    let t0 = Meter.get meter in
    let result = Page_table.walk owner_mm.Process.pgtable io ~vaddr in
    let t1 = Meter.get meter in
    synth_remote_hops env ~actor ~flow:(Trace.flow_of sp) ~subsys:"remote_walker" ~reads:!reads
      t0 t1;
    Trace.close ~at:t1
      ~tags:[ ("present", if Pte.present result then "1" else "0") ]
      sp;
    result
  end

(* [walk] with injectable transient read failures: a faulted read costs
   the retry delay and is re-issued up to the plan's cap, after which the
   caller receives a typed error and degrades to the origin-fallback RPC
   (§9.2.3) instead of crashing. *)
let walk_checked env ~actor ~owner_mm ~vaddr ?inject () =
  match inject with
  | None -> Ok (walk env ~actor ~owner_mm ~vaddr)
  | Some plan ->
      let meter = Env.meter env actor in
      let sp =
        if Trace.enabled () then
          Trace.span ~at:(Meter.get meter) ~flow_root:true ~node:actor ~subsys:"remote_walker"
            ~op:"request" ()
        else Trace.null
      in
      (* In the two-node system the table owner is always the other
         kernel: its health absorbs walk outcomes, and a slow-down
         window on it stretches the coherent reads the walk issues. *)
      let peer = Node_id.other actor in
      let rec attempt_walk attempt burned =
        if Plan.walk_read_faulted plan then begin
          Plan.observe_failure plan ~peer ~now:(Meter.get meter);
          let pay = walk_retry_cycles in
          Meter.add (Env.meter env actor) pay;
          if attempt + 1 >= walk_max_attempts then
            Error (Fault.Walk_failed { vaddr; attempts = attempt + 1 })
          else begin
            Plan.note_walk_retry plan;
            attempt_walk (attempt + 1) (burned + pay)
          end
        end
        else begin
          if burned > 0 then Plan.record_recovery plan ~cycles:burned;
          let t0 = Meter.get meter in
          let r = walk env ~actor ~owner_mm ~vaddr in
          let base = Meter.get meter - t0 in
          let extra = Plan.inflate plan ~node:peer ~now:t0 ~cycles:base in
          if extra > 0 then Meter.add meter extra;
          Plan.record_op plan ~op:"remote_walk" ~cycles:(burned + base + extra);
          Plan.observe_service plan ~peer ~cycles:(base + extra) ~nominal:(max 1 base)
            ~now:(Meter.get meter);
          Ok r
        end
      in
      let result = attempt_walk 0 0 in
      if sp != Trace.null then
        Trace.close ~at:(Meter.get meter)
          ~tags:[ ("ok", match result with Ok _ -> "true" | Error _ -> "false") ]
          sp;
      result

let upper_levels_present env ~actor ~owner_mm ~vaddr =
  Page_table.upper_levels_present owner_mm.Process.pgtable (io env ~actor ~owner_mm) ~vaddr

let install_leaf_plain env ~actor ~owner_mm ~vaddr ~frame ~remote_owned =
  let flags = { Pte.default_flags with remote_owned } in
  if not (Trace.enabled ()) then
    Page_table.set_leaf_if_upper_present owner_mm.Process.pgtable (io env ~actor ~owner_mm)
      ~vaddr ~frame flags
  else begin
    let meter = Env.meter env actor in
    let sp =
      Trace.span ~at:(Meter.get meter) ~flow_root:true ~node:actor ~subsys:"remote_walker"
        ~op:"install_leaf" ()
    in
    let accesses = ref 0 in
    let io =
      let base = io env ~actor ~owner_mm in
      {
        base with
        Page_table.charge_read =
          (fun paddr ->
            incr accesses;
            base.Page_table.charge_read paddr);
        charge_write =
          (fun paddr ->
            incr accesses;
            base.Page_table.charge_write paddr);
      }
    in
    let t0 = Meter.get meter in
    let result =
      Page_table.set_leaf_if_upper_present owner_mm.Process.pgtable io ~vaddr ~frame flags
    in
    let t1 = Meter.get meter in
    synth_remote_hops env ~actor ~flow:(Trace.flow_of sp) ~subsys:"remote_walker"
      ~reads:!accesses t0 t1;
    Trace.close ~at:t1 sp;
    result
  end

(* With a corruption-armed plan, the cross-format PTE encode can go stale
   (the modelled SDC: the published frame number is off by one line). The
   defence is verify-after-install: read the leaf back through the same
   charged walker path and compare it to the frame we meant to publish;
   on mismatch, re-encode the correct leaf. Both the read-back and the
   re-install are billed to [actor], so detection has an honest cost.
   Unarmed plans skip the whole block and stay bit-identical. *)
let install_leaf env ~actor ~owner_mm ~vaddr ~frame ~remote_owned ?inject () =
  match inject with
  | Some plan when Plan.corruption_armed plan ->
      let corrupt = Plan.pte_corrupted plan in
      let first = if corrupt then frame lxor 1 else frame in
      let installed = install_leaf_plain env ~actor ~owner_mm ~vaddr ~frame:first ~remote_owned in
      if installed then begin
        let pgtable = owner_mm.Process.pgtable in
        let leaf = Page_table.walk pgtable (io env ~actor ~owner_mm) ~vaddr in
        if not (Pte.present leaf && Pte.frame ~isa:(Page_table.isa pgtable) leaf = frame) then begin
          ignore (install_leaf_plain env ~actor ~owner_mm ~vaddr ~frame ~remote_owned);
          Plan.note_pte_repair plan;
          if Trace.enabled () then
            Trace.instant ~node:actor ~subsys:"remote_walker" ~op:"pte_repair"
              ~tags:[ ("vaddr", Printf.sprintf "0x%x" vaddr) ]
              ()
        end;
        true
      end
      else false
  | _ -> install_leaf_plain env ~actor ~owner_mm ~vaddr ~frame ~remote_owned

let find_vma env ~actor ~owner_mm ~vaddr =
  let meter = Env.meter env actor in
  let sp =
    if Trace.enabled () then
      Trace.span ~at:(Meter.get meter) ~flow_root:true ~node:actor ~subsys:"remote_walker"
        ~op:"find_vma" ()
    else Trace.null
  in
  let accesses = ref 0 in
  let t0 = Meter.get meter in
  Env.charge_atomic env actor ~paddr:(Vma.lock_addr owner_mm.Process.vmas);
  incr accesses;
  let charge v =
    incr accesses;
    Env.charge_load env actor ~paddr:v.Vma.struct_addr
  in
  let result = Vma.find ~visit:charge owner_mm.Process.vmas ~vaddr in
  Env.charge_store env actor ~paddr:(Vma.lock_addr owner_mm.Process.vmas);
  incr accesses;
  if sp != Trace.null then begin
    let t1 = Meter.get meter in
    synth_remote_hops env ~actor ~flow:(Trace.flow_of sp) ~subsys:"remote_walker"
      ~reads:!accesses t0 t1;
    Trace.close ~at:t1 sp
  end;
  result
