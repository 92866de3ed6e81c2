module Node_id = Stramash_sim.Node_id
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Frame_alloc = Stramash_kernel.Frame_alloc
module Vma = Stramash_kernel.Vma
module Pte = Stramash_kernel.Pte
module Page_table = Stramash_kernel.Page_table
module Process = Stramash_kernel.Process
module Tlb = Stramash_kernel.Tlb
module Msg_layer = Stramash_popcorn.Msg_layer
module Fault = Stramash_fault_inject.Fault
module Plan = Stramash_fault_inject.Plan
module Futex = Stramash_kernel.Futex
module Thread = Stramash_kernel.Thread
module Trace = Stramash_obs.Trace
module Meter = Stramash_sim.Meter

(* Everything a survivor needs while a peer is down. The VMA shadow is
   decoded out of the checkpoint at death so degraded faults can resolve
   permissions without the (gone) origin VMA tree; pending mappings are
   survivor-local installs replayed into the restored origin table. *)
type downtime = {
  dt_node : Node_id.t;
  dt_died_at : int;
  dt_detect_at : int;
  dt_blob : string;
  dt_vmas : (int * (int * int * Vma.kind * bool) list) list;
      (* pid -> (start, end, kind, writable) *)
  dt_ptes : (int * int, int * bool) Hashtbl.t;
      (* (pid, page vaddr) -> (frame, writable): the dead table's leaves.
         A degraded fault on one of these re-maps the surviving frame —
         the data outlived the crash; only the mapping died. *)
  mutable dt_detected : bool;
  mutable dt_holding : Checkpoint.futex_image list; (* drained dead-node waiters *)
  mutable dt_woken : int list; (* tids woken out of holding during the downtime *)
  mutable dt_pending : (int * int * int * bool) list; (* pid, vaddr, frame, writable *)
}

type t = {
  env : Env.t;
  msg : Msg_layer.t;
  inject : Plan.t option;
  global_alloc : Global_alloc.t option;
  ptls : (int, Stramash_ptl.t) Hashtbl.t; (* pid -> origin-table lock *)
  downs : downtime option array; (* indexed by Node_id.index *)
  mutable fallback_pages : int;
  mutable remote_walks : int;
  mutable shared_mappings : int;
  mutable degraded_walks : int;
  mutable gray_fallbacks : int;
  mutable write_hook : (proc:Process.t -> node:Node_id.t -> vaddr:int -> bool) option;
      (* Consulted when a write faults on a page that is mapped but
         read-only: the placement engine collapses its replica there and
         returns true (the retry then sees a writable leaf). Without a
         hook — or when it declines — the fault is treated as the
         raced/spurious case it always was. *)
}

let create ?inject ?global_alloc env msg =
  {
    env;
    msg;
    inject;
    global_alloc;
    ptls = Hashtbl.create 16;
    downs = Array.make (List.length Node_id.all) None;
    fallback_pages = 0;
    remote_walks = 0;
    shared_mappings = 0;
    degraded_walks = 0;
    gray_fallbacks = 0;
    write_hook = None;
  }

let inject t = t.inject
let set_write_hook t f = t.write_hook <- Some f

(* A mapped-but-read-only leaf hit by a write: give the placement engine
   (if any) the chance to collapse a replica; otherwise it is the
   raced/spurious fault it always was and the retry proceeds. *)
let write_protect_fault t ~proc ~node ~vaddr ~write ~leaf_writable =
  if write && not leaf_writable then
    match t.write_hook with
    | Some hook -> ignore (hook ~proc ~node ~vaddr : bool)
    | None -> ()
let fallback_pages t = t.fallback_pages
let remote_walks t = t.remote_walks
let shared_mappings t = t.shared_mappings
let degraded_walks t = t.degraded_walks
let gray_fallbacks t = t.gray_fallbacks
let chaos_armed t = match t.inject with Some p -> Plan.chaos_armed p | None -> false
let plan_note t f = match t.inject with Some p -> f p | None -> ()
let downtime_of t node = t.downs.(Node_id.index node)
let node_down t node = downtime_of t node <> None

let reset_counters t =
  t.fallback_pages <- 0;
  t.remote_walks <- 0;
  t.shared_mappings <- 0

let ptl_for t ~proc =
  match Hashtbl.find_opt t.ptls proc.Process.pid with
  | Some ptl -> ptl
  | None ->
      let omm = Process.mm_exn proc proc.Process.origin in
      let ptl = Stramash_ptl.create t.env ~lock_addr:omm.Process.ptl_addr in
      Hashtbl.add t.ptls proc.Process.pid ptl;
      ptl

let ptls_quiescent t =
  Hashtbl.fold (fun _ ptl acc -> acc && not (Stramash_ptl.is_held ptl)) t.ptls true

let map_local t ~node ~(mm : Process.mm) ~vaddr ~frame ~writable =
  let io = Env.pt_io t.env ~actor:node ~owner:node in
  Page_table.map mm.Process.pgtable io ~vaddr:(Addr.page_base vaddr)
    ~frame:(frame lsr Addr.page_shift) { Pte.default_flags with writable };
  Tlb.flush_page (Env.tlb t.env node) ~vpage:(Addr.page_of vaddr)

(* Allocate a frame at [node], riding the global-allocator / hotplug path
   (§6.3) on exhaustion — whether the exhaustion is real or injected by
   the fault plan. Only when no block can be onlined either is the typed
   OOM surfaced to the caller. *)
let alloc_frame t ~node =
  let kernel = Env.kernel t.env node in
  let frames = kernel.Kernel.frames in
  let denied = match t.inject with Some plan -> Plan.alloc_denied plan | None -> false in
  let direct = if denied then None else Frame_alloc.alloc frames in
  match direct with
  | Some frame -> Ok frame
  | None -> (
      let oom () = Error (Fault.Out_of_memory { node = Node_id.to_string node }) in
      match t.global_alloc with
      | None -> oom ()
      | Some ga ->
          let granted =
            Global_alloc.check_pressure ga node
            ||
            match Global_alloc.request_block ga node with
            | Ok _ -> true
            | Error `Exhausted -> false
          in
          if granted then begin
            match t.inject with
            | Some plan -> Plan.note_hotplug_recovery plan
            | None -> ()
          end;
          (match Frame_alloc.alloc frames with Some f -> Ok f | None -> oom ()))

let alloc_zeroed t ~node =
  match alloc_frame t ~node with
  | Ok frame ->
      Phys_mem.zero_page t.env.Env.phys frame;
      Ok frame
  | Error _ as e -> e

(* Find the governing VMA: locally at the origin, or by the remote VMA
   walker on the origin's list (no replication of VMA structs). *)
let vma_for t ~proc ~node ~vaddr =
  let origin = proc.Process.origin in
  if Node_id.equal node origin then begin
    let mm = Process.mm_exn proc origin in
    let charge v = Env.charge_load t.env node ~paddr:v.Vma.struct_addr in
    Vma.find ~visit:charge mm.Process.vmas ~vaddr
  end
  else begin
    let omm = Process.mm_exn proc origin in
    Remote_walker.find_vma t.env ~actor:node ~owner_mm:omm ~vaddr
  end

(* §6.4 teardown: every kernel invalidates its own PTEs over the process's
   VMA ranges (held by the origin) and frees exactly the frames it
   allocated — determined by allocator ownership, which the remote-owned
   PTE flag mirrors on the origin side. *)
let exit_process t ~proc =
  let origin = proc.Process.origin in
  let omm = Process.mm_exn proc origin in
  let ranges = ref [] in
  Vma.iter omm.Process.vmas ~f:(fun vma -> ranges := (vma.Vma.v_start, vma.Vma.v_end) :: !ranges);
  List.iter
    (fun (node, mm) ->
      let io = Env.pt_io t.env ~actor:node ~owner:node in
      let kernel = Env.kernel t.env node in
      List.iter
        (fun (v_start, v_end) ->
          let vaddr = ref v_start in
          while !vaddr < v_end do
            let leaf = Page_table.walk mm.Process.pgtable io ~vaddr:!vaddr in
            if Pte.present leaf then begin
              ignore (Page_table.unmap mm.Process.pgtable io ~vaddr:!vaddr);
              Tlb.flush_page (Env.tlb t.env node) ~vpage:(Addr.page_of !vaddr);
              let paddr = Pte.frame ~isa:node leaf lsl Addr.page_shift in
              if
                Frame_alloc.owns_address kernel.Kernel.frames paddr
                && Frame_alloc.is_allocated kernel.Kernel.frames paddr
              then Frame_alloc.free kernel.Kernel.frames paddr
            end;
            vaddr := !vaddr + Addr.page_size
          done)
        !ranges)
    proc.Process.mms

(* Upper directory missing in the origin table (or a fault forced us off
   the fast path): the origin kernel handles the fault over a message
   round (§9.2.3), allocating and mapping at the origin; the requester
   then maps the same frame locally. *)
let origin_fallback_untraced t ~proc ~node ~(mm : Process.mm) ~vaddr ~writable =
  let origin = proc.Process.origin in
  let omm = Process.mm_exn proc origin in
  let result = ref (Error (Fault.Out_of_memory { node = Node_id.to_string origin })) in
  Msg_layer.rpc t.msg ~src:node ~label:"dir_fallback" ~req_bytes:64 ~resp_bytes:64
    ~handler:(fun () ->
      match alloc_zeroed t ~node:origin with
      | Error _ as e -> result := e
      | Ok frame ->
          let oio = Env.pt_io t.env ~actor:origin ~owner:origin in
          Page_table.map omm.Process.pgtable oio ~vaddr:(Addr.page_base vaddr)
            ~frame:(frame lsr Addr.page_shift)
            { Pte.default_flags with writable };
          result := Ok frame);
  match !result with
  | Error _ as e -> e
  | Ok frame ->
      map_local t ~node ~mm ~vaddr ~frame ~writable;
      t.fallback_pages <- t.fallback_pages + 1;
      Ok ()

let origin_fallback t ~proc ~node ~mm ~vaddr ~writable =
  if not (Trace.enabled ()) then origin_fallback_untraced t ~proc ~node ~mm ~vaddr ~writable
  else begin
    let meter = Env.meter t.env node in
    let sp =
      Trace.span ~at:(Meter.get meter) ~node ~subsys:"stramash_fault" ~op:"origin_fallback" ()
    in
    let result = origin_fallback_untraced t ~proc ~node ~mm ~vaddr ~writable in
    Trace.close ~at:(Meter.get meter)
      ~tags:[ ("ok", match result with Ok () -> "true" | Error _ -> "false") ]
      sp;
    result
  end

(* Circuit-breaker diversion: the peer's health score tripped, so skip
   the fused shared-memory path (remote walk under the origin PTL)
   entirely and let the origin serve the fault over one message round —
   the same Popcorn-style message-walk shape as the crash-stop degraded
   mode, but against a live (merely slow) origin. The origin walks its
   own table; an existing page is shared as-is, a missing one is
   allocated and mapped origin-side, all without touching the PTL (kernel
   entries are serialised origin-side, as in [origin_fallback]). *)
let gray_fallback_untraced t ~proc ~node ~(mm : Process.mm) ~vaddr ~writable =
  let origin = proc.Process.origin in
  let omm = Process.mm_exn proc origin in
  let result = ref (Error (Fault.Out_of_memory { node = Node_id.to_string origin })) in
  Msg_layer.rpc t.msg ~src:node ~label:"gray_walk" ~req_bytes:64 ~resp_bytes:64
    ~handler:(fun () ->
      let oio = Env.pt_io t.env ~actor:origin ~owner:origin in
      let leaf = Page_table.walk omm.Process.pgtable oio ~vaddr in
      if Pte.present leaf then result := Ok (Pte.frame ~isa:origin leaf lsl Addr.page_shift)
      else
        match alloc_zeroed t ~node:origin with
        | Error _ as e -> result := e
        | Ok frame ->
            Page_table.map omm.Process.pgtable oio ~vaddr:(Addr.page_base vaddr)
              ~frame:(frame lsr Addr.page_shift)
              { Pte.default_flags with writable };
            result := Ok frame);
  match !result with
  | Error _ as e -> e
  | Ok frame ->
      map_local t ~node ~mm ~vaddr ~frame ~writable;
      t.gray_fallbacks <- t.gray_fallbacks + 1;
      plan_note t Plan.note_breaker_fallback;
      Ok ()

let gray_fallback t ~proc ~node ~mm ~vaddr ~writable =
  if not (Trace.enabled ()) then gray_fallback_untraced t ~proc ~node ~mm ~vaddr ~writable
  else begin
    let meter = Env.meter t.env node in
    let sp =
      Trace.span ~at:(Meter.get meter) ~node ~subsys:"stramash_fault" ~op:"gray_fallback" ()
    in
    let result = gray_fallback_untraced t ~proc ~node ~mm ~vaddr ~writable in
    Trace.close ~at:(Meter.get meter)
      ~tags:[ ("ok", match result with Ok () -> "true" | Error _ -> "false") ]
      sp;
    result
  end

(* A fault (transient walk failure, PTL timeout) pushed the fast path off
   the road: degrade to the origin-fallback protocol instead of crashing. *)
let escalate_to_fallback t ~proc ~node ~mm ~vaddr ~writable =
  (match t.inject with Some plan -> Plan.note_fallback_escalation plan | None -> ());
  origin_fallback t ~proc ~node ~mm ~vaddr ~writable

let remote_fault_untraced t ~proc ~node ~(mm : Process.mm) ~vaddr ~writable =
  let origin = proc.Process.origin in
  let omm = Process.mm_exn proc origin in
  let ptl = ptl_for t ~proc in
  let locked =
    Stramash_ptl.try_with_lock ptl ~actor:node ?inject:t.inject (fun () ->
        t.remote_walks <- t.remote_walks + 1;
        match
          Remote_walker.walk_checked t.env ~actor:node ~owner_mm:omm ~vaddr ?inject:t.inject ()
        with
        | Error _ as e -> e
        | Ok leaf when Pte.present leaf ->
            (* The page exists at the origin: map the same frame; coherent
               shared memory does the rest. *)
            map_local t ~node ~mm ~vaddr
              ~frame:(Pte.frame ~isa:origin leaf lsl Addr.page_shift)
              ~writable;
            t.shared_mappings <- t.shared_mappings + 1;
            Ok `Done
        | Ok _ ->
            if Remote_walker.upper_levels_present t.env ~actor:node ~owner_mm:omm ~vaddr then begin
              (* Fast path: allocate node-locally, install the PTE in both
                 tables (origin's in origin format, marked remote-owned so
                 the origin never frees it). Install into the origin table
                 first: if it refuses, return the frame and fall back
                 rather than leaving a half-done mapping. *)
              match alloc_zeroed t ~node with
              | Error _ as e -> e
              | Ok frame ->
                  let installed =
                    Remote_walker.install_leaf t.env ~actor:node ~owner_mm:omm
                      ~vaddr:(Addr.page_base vaddr) ~frame:(frame lsr Addr.page_shift)
                      ~remote_owned:true ?inject:t.inject ()
                  in
                  if installed then begin
                    map_local t ~node ~mm ~vaddr ~frame ~writable;
                    t.shared_mappings <- t.shared_mappings + 1;
                    Ok `Done
                  end
                  else begin
                    Frame_alloc.free (Env.kernel t.env node).Kernel.frames frame;
                    Ok `Need_fallback
                  end
            end
            else Ok `Need_fallback)
  in
  match locked with
  | Ok (Ok `Done) -> Ok ()
  | Ok (Ok `Need_fallback) -> origin_fallback t ~proc ~node ~mm ~vaddr ~writable
  | Ok (Error (Fault.Walk_failed _)) -> escalate_to_fallback t ~proc ~node ~mm ~vaddr ~writable
  | Ok (Error _ as e) -> e
  | Error (Fault.Lock_timeout _) -> escalate_to_fallback t ~proc ~node ~mm ~vaddr ~writable
  | Error _ as e -> e

let remote_fault t ~proc ~node ~mm ~vaddr ~writable =
  if not (Trace.enabled ()) then remote_fault_untraced t ~proc ~node ~mm ~vaddr ~writable
  else begin
    let meter = Env.meter t.env node in
    let sp =
      Trace.span ~at:(Meter.get meter) ~node ~subsys:"stramash_fault" ~op:"remote_fault" ()
    in
    let result = remote_fault_untraced t ~proc ~node ~mm ~vaddr ~writable in
    Trace.close ~at:(Meter.get meter)
      ~tags:[ ("ok", match result with Ok () -> "true" | Error _ -> "false") ]
      sp;
    result
  end

(* Extra cost of one message-based (Popcorn-style) walk while degraded. *)
let degraded_walk_penalty_cycles = Stramash_sim.Cycles.of_us 3.0

(* Popcorn-style degraded mode (the fused fast path's fallback while a
   peer is crash-stopped): the origin kernel is gone, so the survivor can
   touch neither its VMA tree nor its page table. Permissions come from
   the checkpoint's VMA shadow; the walk itself is modelled as the message
   round the origin would have served, at a fixed penalty. The page is
   mapped survivor-locally only — the origin-table install is deferred to
   [on_node_restart]'s reconcile pass. *)
let degraded_fault t dt ~proc ~node ~vaddr ~write =
  let meter = Env.meter t.env node in
  (* The survivor only learns of the death when the watchdog fires: a
     fault landing inside the detection window stalls until then. *)
  if Meter.get meter < dt.dt_detect_at then begin
    let stall = dt.dt_detect_at - Meter.get meter in
    Meter.add meter stall;
    plan_note t (fun p -> Plan.add_degraded_cycles p ~cycles:stall)
  end;
  let ranges = Option.value ~default:[] (List.assoc_opt proc.Process.pid dt.dt_vmas) in
  match List.find_opt (fun (s, e, _, _) -> s <= vaddr && vaddr < e) ranges with
  | None ->
      Error
        (Fault.Segfault { pid = proc.Process.pid; vaddr; node = Node_id.to_string node })
  | Some (_, _, _, writable) -> (
      let mm = Env.ensure_mm t.env ~proc ~node in
      let local_io = Env.pt_io t.env ~actor:node ~owner:node in
      let leaf = Page_table.walk mm.Process.pgtable local_io ~vaddr in
      if Pte.present leaf then begin
        write_protect_fault t ~proc ~node ~vaddr ~write
          ~leaf_writable:(Pte.writable ~isa:node leaf);
        Ok ()
      end
      else begin
        let penalty = if Option.is_some t.inject then degraded_walk_penalty_cycles else 0 in
        Meter.add meter penalty;
        Msg_layer.record_async t.msg ~label:"degraded_walk";
        t.degraded_walks <- t.degraded_walks + 1;
        plan_note t Plan.note_degraded_walk;
        plan_note t (fun p -> Plan.add_degraded_cycles p ~cycles:penalty);
        match Hashtbl.find_opt dt.dt_ptes (proc.Process.pid, Addr.page_base vaddr) with
        | Some (frame, _) ->
            (* The page existed in the dead table: its frame survived the
               crash (memory inventory), only the mapping was lost. *)
            map_local t ~node ~mm ~vaddr ~frame:(frame lsl Addr.page_shift) ~writable;
            Ok ()
        | None -> (
            match alloc_zeroed t ~node with
            | Error _ as e -> e
            | Ok frame ->
                map_local t ~node ~mm ~vaddr ~frame ~writable;
                dt.dt_pending <-
                  (proc.Process.pid, Addr.page_base vaddr, frame lsr Addr.page_shift, writable)
                  :: dt.dt_pending;
                Ok ())
      end)

let handle_fault_fused t ~proc ~node ~vaddr ~write =
  let origin = proc.Process.origin in
  let mm = Env.ensure_mm t.env ~proc ~node in
  match vma_for t ~proc ~node ~vaddr with
  | None ->
      Error
        (Fault.Segfault { pid = proc.Process.pid; vaddr; node = Node_id.to_string node })
  | Some vma -> (
      let writable = vma.Vma.writable in
      let local_io = Env.pt_io t.env ~actor:node ~owner:node in
      let leaf = Page_table.walk mm.Process.pgtable local_io ~vaddr in
      if Pte.present leaf then begin
        (* Raced/spurious for a writable leaf; for a read-only leaf a
           write here is a replica collapse request. *)
        write_protect_fault t ~proc ~node ~vaddr ~write
          ~leaf_writable:(Pte.writable ~isa:node leaf);
        Ok ()
      end
      else if Node_id.equal node origin then begin
        (* Fresh anon page at the origin. *)
        match alloc_zeroed t ~node with
        | Error _ as e -> e
        | Ok frame ->
            map_local t ~node ~mm ~vaddr ~frame ~writable;
            Ok ()
      end
      else begin
        (* Per-peer circuit breaker: a tripped origin is served over
           the message-walk fallback instead of the fused path, with
           paced probes re-exercising the fused path so hysteresis
           can re-admit a recovered peer. *)
        match t.inject with
        | None -> remote_fault t ~proc ~node ~mm ~vaddr ~writable
        | Some plan -> (
            let now = Meter.get (Env.meter t.env node) in
            match Plan.breaker_route plan ~peer:origin ~now with
            | `Fused -> remote_fault t ~proc ~node ~mm ~vaddr ~writable
            | `Divert -> gray_fallback t ~proc ~node ~mm ~vaddr ~writable
            | `Probe ->
                let result = remote_fault t ~proc ~node ~mm ~vaddr ~writable in
                Plan.breaker_probe_done plan ~peer:origin
                  ~now:(Meter.get (Env.meter t.env node));
                result)
      end)

let handle_fault_untraced t ~proc ~node ~vaddr ~write =
  let origin = proc.Process.origin in
  match downtime_of t origin with
  | Some dt when not (Node_id.equal node origin) ->
      degraded_fault t dt ~proc ~node ~vaddr ~write
  | _ -> handle_fault_fused t ~proc ~node ~vaddr ~write

(* Remote (non-origin) faults are the operations the gray campaign's
   latency verdict compares breaker-on vs breaker-off, so their end-to-end
   service time feeds the plan's "fault" histogram. *)
let handle_fault_measured t ~proc ~node ~vaddr ~write =
  match t.inject with
  | Some plan when not (Node_id.equal node proc.Process.origin) ->
      let meter = Env.meter t.env node in
      let t0 = Meter.get meter in
      let result = handle_fault_untraced t ~proc ~node ~vaddr ~write in
      Plan.record_op plan ~op:"fault" ~cycles:(Meter.get meter - t0);
      result
  | _ -> handle_fault_untraced t ~proc ~node ~vaddr ~write

let handle_fault t ~proc ~node ~vaddr ~write =
  if not (Trace.enabled ()) then handle_fault_measured t ~proc ~node ~vaddr ~write
  else begin
    let meter = Env.meter t.env node in
    let sp =
      Trace.span ~at:(Meter.get meter)
        ~tags:[ ("origin", string_of_bool (Node_id.equal node proc.Process.origin)) ]
        ~flow_root:true ~node ~subsys:"stramash_fault" ~op:"fault" ()
    in
    let result = handle_fault_measured t ~proc ~node ~vaddr ~write in
    Trace.close ~at:(Meter.get meter)
      ~tags:[ ("ok", match result with Ok () -> "true" | Error _ -> "false") ]
      sp;
    result
  end

let handle_fault_exn t ~proc ~node ~vaddr ~write =
  Fault.get_exn (handle_fault t ~proc ~node ~vaddr ~write)

(* --- crash-stop: death, detection, restart ------------------------------ *)

let detection_latency t =
  if Option.is_some t.inject then Stramash_interconnect.Heartbeat.detection_latency else 0

(* Crash a node at a quantum boundary (kernel entries are serialised, so
   every structure is quiescent). Order matters: break the dead node's
   PTLs (bumped liveness epoch fences its tokens), sweep both kernels'
   futex buckets (dead-thread waiters park in the holding area, live
   waiters queued in the dead kernel requeue into the survivor), capture
   and encode the checkpoint, then discard the derived state and sweep the
   hotplug ledger. [Env.liveness] must already record the node as dead. *)
let on_node_death t ~procs ~threads ~node ~now =
  if Env.node_alive t.env node then invalid_arg "on_node_death: node is still alive";
  let survivor = Node_id.other node in
  Hashtbl.fold (fun pid ptl acc -> (pid, ptl) :: acc) t.ptls []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  |> List.iter (fun (_, ptl) ->
         if Stramash_ptl.break_dead ptl ~actor:survivor then plan_note t Plan.note_lock_break);
  let node_of tid =
    match List.find_opt (fun (th : Thread.t) -> th.Thread.tid = tid) threads with
    | Some th -> th.Thread.node
    | None -> invalid_arg (Printf.sprintf "on_node_death: unknown waiter tid %d" tid)
  in
  let holding = ref [] in
  List.iter
    (fun knode ->
      let futexes = (Env.kernel t.env knode).Kernel.futexes in
      List.iter
        (fun (uaddr, _) ->
          List.iter
            (fun tid ->
              if Node_id.equal (node_of tid) node then begin
                holding :=
                  { Checkpoint.f_home = knode; f_uaddr = uaddr; f_tid = tid } :: !holding;
                plan_note t Plan.note_waiter_parked
              end
              else if Node_id.equal knode node then begin
                let sfutexes = (Env.kernel t.env survivor).Kernel.futexes in
                Env.charge_atomic t.env survivor
                  ~paddr:(Futex.bucket_addr sfutexes ~uaddr);
                Futex.enqueue_waiter sfutexes ~uaddr ~tid;
                plan_note t Plan.note_waiter_requeued
              end
              else Futex.enqueue_waiter futexes ~uaddr ~tid)
            (Futex.drain futexes ~uaddr))
        (Futex.snapshot futexes))
    Node_id.all;
  let holding = List.rev !holding in
  let image = Checkpoint.capture t.env ~node ~procs ~futexes:holding in
  let blob = Checkpoint.encode image in
  plan_note t (fun p -> Plan.note_checkpoint p ~bytes:(String.length blob));
  (* Injected tear: keep only a seeded fraction of the blob, modelling a
     write cut off mid-image at the crash boundary. The v2 header makes
     restart detect it and take the shadow fallback. *)
  let blob =
    match t.inject with
    | None -> blob
    | Some p -> (
        match Plan.ckpt_torn_fraction p with
        | None -> blob
        | Some frac ->
            let keep =
              min (String.length blob - 1)
                (max 1 (int_of_float (frac *. float_of_int (String.length blob))))
            in
            if Trace.enabled () then
              Trace.instant ~node ~subsys:"fault" ~op:"ckpt_tear"
                ~tags:
                  [
                    ("kept_bytes", string_of_int keep);
                    ("full_bytes", string_of_int (String.length blob));
                  ]
                ();
            String.sub blob 0 keep)
  in
  (* Shadow every captured proc, not only the ones whose origin is the
     dying node: degraded faults consult the shadow for origin procs
     alone, but the torn-checkpoint fallback rebuilds the whole image
     from it, and the capture includes migrated-in mms too. *)
  let shadow =
    List.map
      (fun (p : Checkpoint.proc_image) ->
        ( p.Checkpoint.pid,
          List.map
            (fun (v : Checkpoint.vma_image) ->
              (v.Checkpoint.v_start, v.Checkpoint.v_end, v.Checkpoint.v_kind,
               v.Checkpoint.v_writable))
            p.Checkpoint.vmas ))
      image.Checkpoint.procs
  in
  let pte_shadow = Hashtbl.create 256 in
  List.iter
    (fun (p : Checkpoint.proc_image) ->
      List.iter
        (fun (pte : Checkpoint.pte_image) ->
          Hashtbl.replace pte_shadow
            (p.Checkpoint.pid, pte.Checkpoint.p_vaddr)
            (pte.Checkpoint.p_frame, pte.Checkpoint.p_writable))
        p.Checkpoint.ptes)
    image.Checkpoint.procs;
  Checkpoint.discard t.env ~node ~procs;
  List.iter
    (fun pr ->
      if Node_id.equal pr.Process.origin node then Hashtbl.remove t.ptls pr.Process.pid)
    procs;
  (match t.global_alloc with
  | None -> ()
  | Some ga ->
      let reclaimed, orphaned = Global_alloc.on_node_death ga ~node ~actor:survivor in
      plan_note t (fun p -> Plan.note_blocks_reclaimed p reclaimed);
      plan_note t (fun p -> Plan.note_blocks_orphaned p orphaned));
  t.downs.(Node_id.index node) <-
    Some
      {
        dt_node = node;
        dt_died_at = now;
        dt_detect_at = now + detection_latency t;
        dt_blob = blob;
        dt_vmas = shadow;
        dt_ptes = pte_shadow;
        dt_detected = false;
        dt_holding = holding;
        dt_woken = [];
        dt_pending = [];
      };
  plan_note t (fun p -> Plan.note_node_death p node);
  if Trace.enabled () then
    Trace.instant ~node ~subsys:"chaos" ~op:"node_death"
      ~tags:
        [
          ("at", string_of_int now);
          ("checkpoint_bytes", string_of_int (String.length blob));
          ("parked_waiters", string_of_int (List.length holding));
        ]
      ()

let on_peer_detected t ~node ~now =
  match downtime_of t node with
  | None -> ()
  | Some dt ->
      if not dt.dt_detected then begin
        dt.dt_detected <- true;
        plan_note t (fun p -> Plan.note_watchdog_detection p node);
        if Trace.enabled () then
          Trace.instant ~node ~subsys:"chaos" ~op:"watchdog_detect"
            ~tags:[ ("at", string_of_int now) ]
            ()
      end

(* Restart: decode the blob, re-materialise page tables and VMA trees,
   replay the survivor's deferred installs into the restored origin table
   (remote-owned iff the frame came from the survivor's allocator), and
   re-park checkpointed waiters minus any woken during the downtime.
   [Env.liveness] must already record the node as alive again — its epoch
   bump is what keeps pre-crash lock tokens fenced out. *)
let on_node_restart t ~procs ~node ~now =
  if not (Env.node_alive t.env node) then invalid_arg "on_node_restart: node is still dead";
  match downtime_of t node with
  | None -> invalid_arg "on_node_restart: node is not down"
  | Some dt ->
      t.downs.(Node_id.index node) <- None;
      let image =
        match Checkpoint.decode dt.dt_blob with
        | Ok image -> image
        | Error err ->
            (* The checkpoint failed its integrity check (torn or
               bit-rotted while the node was down). Fall back to the
               survivor-held shadows: the VMA ranges and PTE leaves that
               degraded faults have been resolving against all along,
               plus the drained waiter list. Remote-owned bits are
               recomputed from frame-allocator ownership, the same rule
               the deferred-install replay uses below. *)
            plan_note t Plan.note_ckpt_detected;
            let kernel = Env.kernel t.env node in
            let procs_img =
              List.map
                (fun (pid, vmas) ->
                  let vmas =
                    List.map
                      (fun (s, e, k, w) ->
                        { Checkpoint.v_start = s; v_end = e; v_kind = k; v_writable = w })
                      vmas
                  in
                  let ptes =
                    Hashtbl.fold
                      (fun (p, va) (fr, w) acc -> if p = pid then (va, fr, w) :: acc else acc)
                      dt.dt_ptes []
                    |> List.sort compare
                    |> List.map (fun (va, fr, w) ->
                           {
                             Checkpoint.p_vaddr = va;
                             p_frame = fr;
                             p_writable = w;
                             p_remote_owned =
                               not
                                 (Frame_alloc.owns_address kernel.Kernel.frames
                                    (fr lsl Addr.page_shift));
                           })
                  in
                  { Checkpoint.pid; vmas; ptes })
                dt.dt_vmas
            in
            plan_note t Plan.note_ckpt_fallback;
            if Trace.enabled () then
              Trace.instant ~node ~subsys:"chaos" ~op:"ckpt_fallback"
                ~tags:[ ("error", Checkpoint.decode_error_to_string err) ]
                ();
            { Checkpoint.node; procs = procs_img; futexes = dt.dt_holding }
      in
      let stats = Checkpoint.restore t.env ~procs image in
      plan_note t (fun p -> Plan.note_restore p ~pages:stats.Checkpoint.restored_pages);
      let io = Env.pt_io t.env ~actor:node ~owner:node in
      let kernel = Env.kernel t.env node in
      List.iter
        (fun (pid, vaddr, frame, writable) ->
          match List.find_opt (fun pr -> pr.Process.pid = pid) procs with
          | None -> () (* exited during the downtime *)
          | Some proc -> (
              match Process.mm proc node with
              | None -> ()
              | Some omm ->
                  let remote_owned =
                    not
                      (Frame_alloc.owns_address kernel.Kernel.frames
                         (frame lsl Addr.page_shift))
                  in
                  if not (Pte.present (Page_table.walk omm.Process.pgtable io ~vaddr)) then
                    Page_table.map omm.Process.pgtable io ~vaddr ~frame
                      { Pte.default_flags with writable; remote_owned }))
        (List.rev dt.dt_pending);
      List.iter
        (fun (f : Checkpoint.futex_image) ->
          if not (List.mem f.Checkpoint.f_tid dt.dt_woken) then begin
            let futexes = (Env.kernel t.env f.Checkpoint.f_home).Kernel.futexes in
            Env.charge_atomic t.env node
              ~paddr:(Futex.bucket_addr futexes ~uaddr:f.Checkpoint.f_uaddr);
            Futex.enqueue_waiter futexes ~uaddr:f.Checkpoint.f_uaddr ~tid:f.Checkpoint.f_tid
          end)
        image.Checkpoint.futexes;
      plan_note t (fun p -> Plan.note_node_restart p node);
      plan_note t (fun p -> Plan.add_downtime_cycles p ~cycles:(now - dt.dt_died_at));
      if Trace.enabled () then
        Trace.instant ~node ~subsys:"chaos" ~op:"node_restart"
          ~tags:
            [
              ("at", string_of_int now);
              ("downtime", string_of_int (now - dt.dt_died_at));
              ("restored_pages", string_of_int stats.Checkpoint.restored_pages);
            ]
          ()

(* Waiters parked in a downtime holding area are logically wakeable: a
   survivor's FUTEX_WAKE pops them (FIFO) and the woken tid is recorded so
   the restart does not re-park it. *)
let wake_held t ~uaddr ~limit =
  let woken = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some dt ->
          let rec go acc = function
            | [] -> List.rev acc
            | (f : Checkpoint.futex_image) :: rest ->
                if f.Checkpoint.f_uaddr = uaddr && List.length !woken < limit then begin
                  woken := f.Checkpoint.f_tid :: !woken;
                  dt.dt_woken <- f.Checkpoint.f_tid :: dt.dt_woken;
                  go acc rest
                end
                else go (f :: acc) rest
          in
          dt.dt_holding <- go [] dt.dt_holding)
    t.downs;
  List.rev !woken

let held_waiters t =
  Array.to_list t.downs
  |> List.concat_map (function None -> [] | Some dt -> dt.dt_holding)
