module Node_id = Stramash_sim.Node_id
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Vma = Stramash_kernel.Vma
module Pte = Stramash_kernel.Pte
module Page_table = Stramash_kernel.Page_table
module Process = Stramash_kernel.Process
module Tlb = Stramash_kernel.Tlb
module Fault = Stramash_fault_inject.Fault
module Trace = Stramash_obs.Trace
module Meter = Stramash_sim.Meter

(* Per-node view of one user page. *)
type pstate = Absent | Read_copy of int | Owner of int (* frame paddr *)

type page = { mutable st : pstate array }

type t = {
  env : Env.t;
  msg : Msg_layer.t;
  pages : (int * int, page) Hashtbl.t; (* (pid, vpage) -> states *)
  (* Frames that ever took part in a replication: a dirty write-back to
     one of them triggers the consistency policy (paper §9.2.2). *)
  tracked_frames : (int, unit) Hashtbl.t;
  mutable replicated : int;
  mutable wb_updates : int;
}

(* Batched/piggybacked line update: ring-enqueue work without an IPI. *)
let wb_update_cost = 250

let create env msg =
  let t =
    {
      env;
      msg;
      pages = Hashtbl.create 4096;
      tracked_frames = Hashtbl.create 4096;
      replicated = 0;
      wb_updates = 0;
    }
  in
  let hook node ~line =
    let frame_number = line lsr (Addr.page_shift - Addr.line_shift) in
    if Hashtbl.mem t.tracked_frames frame_number then begin
      t.wb_updates <- t.wb_updates + 1;
      Stramash_sim.Meter.add (Env.meter t.env node) wb_update_cost;
      Msg_layer.record_async t.msg ~label:"dsm_wb_update";
      Trace.instant ~node ~subsys:"dsm" ~op:"wb_update" ()
    end
  in
  Stramash_cache.Cache_sim.add_writeback_hook env.Env.cache hook;
  t
let msg_layer t = t.msg
let replicated_pages t = t.replicated

let wb_updates t = t.wb_updates

let reset_counters t =
  t.replicated <- 0;
  t.wb_updates <- 0;
  Msg_layer.reset_counts t.msg

let page t ~pid ~vpage =
  match Hashtbl.find_opt t.pages (pid, vpage) with
  | Some p -> p
  | None ->
      let p = { st = [| Absent; Absent |] } in
      Hashtbl.add t.pages (pid, vpage) p;
      p

let state p node = p.st.(Node_id.index node)
let set_state p node s = p.st.(Node_id.index node) <- s

(* Find the VMA covering [vaddr] in [node]'s descriptor, fetching a replica
   from the origin over the messaging layer if needed (Popcorn's remote VMA
   fault, §6.4). *)
let vma_for t ~proc ~node ~vaddr =
  let mm = Env.ensure_mm t.env ~proc ~node in
  let charge v = Env.charge_load t.env node ~paddr:v.Vma.struct_addr in
  match Vma.find ~visit:charge mm.Process.vmas ~vaddr with
  | Some vma -> Some vma
  | None ->
      let origin = proc.Process.origin in
      if Node_id.equal node origin then None
      else begin
        let found = ref None in
        Msg_layer.rpc t.msg ~src:node ~label:"vma_req" ~req_bytes:64 ~resp_bytes:96
          ~handler:(fun () ->
            let omm = Process.mm_exn proc origin in
            let charge_o v = Env.charge_load t.env origin ~paddr:v.Vma.struct_addr in
            Env.charge_atomic t.env origin ~paddr:(Vma.lock_addr omm.Process.vmas);
            found := Vma.find ~visit:charge_o omm.Process.vmas ~vaddr);
        match !found with
        | None -> None
        | Some ovma ->
            let vma =
              Vma.add mm.Process.vmas ~start:ovma.Vma.v_start ~end_:ovma.Vma.v_end ovma.Vma.kind
                ~writable:ovma.Vma.writable
            in
            Env.charge_store t.env node ~paddr:vma.Vma.struct_addr;
            Some vma
      end

let map_into t ~node ~(mm : Process.mm) ~vaddr ~frame ~writable =
  let io = Env.pt_io t.env ~actor:node ~owner:node in
  let flags = { Pte.default_flags with writable } in
  Page_table.map mm.Process.pgtable io ~vaddr:(Addr.page_base vaddr)
    ~frame:(frame lsr Addr.page_shift) flags;
  Tlb.flush_page (Env.tlb t.env node) ~vpage:(Addr.page_of vaddr)

let downgrade_to_ro t ~node ~(mm : Process.mm) ~vaddr =
  let io = Env.pt_io t.env ~actor:node ~owner:node in
  ignore
    (Page_table.update_flags mm.Process.pgtable io ~vaddr:(Addr.page_base vaddr)
       { Pte.default_flags with writable = false });
  Tlb.flush_page (Env.tlb t.env node) ~vpage:(Addr.page_of vaddr)

let unmap_from t ~node ~(mm : Process.mm) ~vaddr =
  let io = Env.pt_io t.env ~actor:node ~owner:node in
  ignore (Page_table.unmap mm.Process.pgtable io ~vaddr:(Addr.page_base vaddr));
  Tlb.flush_page (Env.tlb t.env node) ~vpage:(Addr.page_of vaddr)

let alloc_zeroed t ~node =
  let kernel = Env.kernel t.env node in
  let frame = Kernel.alloc_frame_exn kernel in
  Phys_mem.zero_page t.env.Env.phys frame;
  frame

let free_frame t ~node frame =
  Stramash_kernel.Frame_alloc.free (Env.kernel t.env node).Kernel.frames frame

(* Copy one page's content across the messaging layer: the holder streams
   it out (loads at the holder), the requester writes its fresh local copy
   (stores at the requester). The message payload itself is billed by the
   messaging layer. *)
let replicate_page t ~from_node ~from_frame ~to_node =
  let to_frame = alloc_zeroed t ~node:to_node in
  Env.charge_bytes_load t.env from_node ~paddr:from_frame ~len:Addr.page_size;
  Phys_mem.copy_page t.env.Env.phys ~src:from_frame ~dst:to_frame;
  Env.charge_bytes_store t.env to_node ~paddr:to_frame ~len:Addr.page_size;
  t.replicated <- t.replicated + 1;
  Hashtbl.replace t.tracked_frames (from_frame lsr Addr.page_shift) ();
  Hashtbl.replace t.tracked_frames (to_frame lsr Addr.page_shift) ();
  Trace.instant ~node:to_node ~subsys:"dsm" ~op:"fetch" ();
  to_frame

(* The origin allocates an anonymous page on behalf of a remote requester
   (message round 1 of 2, §6.4 "Stramash Page Fault Handler" contrast). *)
let origin_alloc t ~proc ~vaddr =
  let origin = proc.Process.origin in
  let p = page t ~pid:proc.Process.pid ~vpage:(Addr.page_of vaddr) in
  let frame = alloc_zeroed t ~node:origin in
  let omm = Process.mm_exn proc origin in
  map_into t ~node:origin ~mm:omm ~vaddr ~frame ~writable:true;
  set_state p origin (Owner frame)

let handle_fault_untraced t ~proc ~node ~vaddr ~write =
  let origin = proc.Process.origin in
  let other = Node_id.other node in
  let pid = proc.Process.pid in
  let vpage = Addr.page_of vaddr in
  match vma_for t ~proc ~node ~vaddr with
  | None -> Error (Fault.Segfault { pid; vaddr; node = Node_id.to_string node })
  | Some vma ->
      let mm = Process.mm_exn proc node in
      let p = page t ~pid ~vpage in
      let writable_vma = vma.Vma.writable in
      if not write then begin
        match state p node with
        | Owner frame -> map_into t ~node ~mm ~vaddr ~frame ~writable:writable_vma
        | Read_copy frame -> map_into t ~node ~mm ~vaddr ~frame ~writable:false
        | Absent -> (
            match state p other with
            | Owner oframe | Read_copy oframe ->
                (* Fetch a read-only replica from the current holder. *)
                let frame = ref 0 in
                Msg_layer.rpc t.msg ~src:node ~label:"page_fetch" ~req_bytes:64
                  ~resp_bytes:Addr.page_size ~handler:(fun () ->
                    (match state p other with
                    | Owner f ->
                        let omm = Process.mm_exn proc other in
                        downgrade_to_ro t ~node:other ~mm:omm ~vaddr;
                        set_state p other (Read_copy f)
                    | Read_copy _ | Absent -> ());
                    frame := replicate_page t ~from_node:other ~from_frame:oframe ~to_node:node);
                map_into t ~node ~mm ~vaddr ~frame:!frame ~writable:false;
                set_state p node (Read_copy !frame)
            | Absent ->
                if Node_id.equal node origin then begin
                  let frame = alloc_zeroed t ~node in
                  map_into t ~node ~mm ~vaddr ~frame ~writable:writable_vma;
                  set_state p node (Owner frame)
                end
                else begin
                  (* Round 1: origin allocates. Round 2: replicate. *)
                  Msg_layer.rpc t.msg ~src:node ~label:"page_alloc" ~req_bytes:64 ~resp_bytes:64
                    ~handler:(fun () -> origin_alloc t ~proc ~vaddr);
                  let oframe =
                    match state p origin with
                    | Owner f | Read_copy f -> f
                    | Absent -> assert false
                  in
                  let frame = ref 0 in
                  Msg_layer.rpc t.msg ~src:node ~label:"page_fetch" ~req_bytes:64
                    ~resp_bytes:Addr.page_size ~handler:(fun () ->
                      let omm = Process.mm_exn proc origin in
                      downgrade_to_ro t ~node:origin ~mm:omm ~vaddr;
                      set_state p origin (Read_copy oframe);
                      frame := replicate_page t ~from_node:origin ~from_frame:oframe ~to_node:node);
                  map_into t ~node ~mm ~vaddr ~frame:!frame ~writable:false;
                  set_state p node (Read_copy !frame)
                end)
      end
      else begin
        (* Write fault. *)
        match state p node with
        | Owner frame -> map_into t ~node ~mm ~vaddr ~frame ~writable:true
        | Read_copy frame ->
            (* Upgrade: invalidate the other copy, keep ours writable. *)
            (match state p other with
            | Owner oframe | Read_copy oframe ->
                Msg_layer.rpc t.msg ~src:node ~label:"invalidate" ~req_bytes:64 ~resp_bytes:64
                  ~handler:(fun () ->
                    let omm = Process.mm_exn proc other in
                    unmap_from t ~node:other ~mm:omm ~vaddr;
                    free_frame t ~node:other oframe;
                    set_state p other Absent;
                    Trace.instant ~node:other ~subsys:"dsm" ~op:"invalidate" ())
            | Absent -> ());
            map_into t ~node ~mm ~vaddr ~frame ~writable:true;
            set_state p node (Owner frame)
        | Absent -> (
            match state p other with
            | Owner oframe | Read_copy oframe ->
                (* Ownership transfer with content; the previous holder's
                   local copy is recycled by its kernel. *)
                let frame = ref 0 in
                Msg_layer.rpc t.msg ~src:node ~label:"page_fetch_own" ~req_bytes:64
                  ~resp_bytes:Addr.page_size ~handler:(fun () ->
                    let omm = Process.mm_exn proc other in
                    unmap_from t ~node:other ~mm:omm ~vaddr;
                    frame := replicate_page t ~from_node:other ~from_frame:oframe ~to_node:node;
                    free_frame t ~node:other oframe;
                    set_state p other Absent);
                map_into t ~node ~mm ~vaddr ~frame:!frame ~writable:true;
                set_state p node (Owner !frame)
            | Absent ->
                if Node_id.equal node origin then begin
                  let frame = alloc_zeroed t ~node in
                  map_into t ~node ~mm ~vaddr ~frame ~writable:true;
                  set_state p node (Owner frame)
                end
                else begin
                  Msg_layer.rpc t.msg ~src:node ~label:"page_alloc" ~req_bytes:64 ~resp_bytes:64
                    ~handler:(fun () -> origin_alloc t ~proc ~vaddr);
                  let oframe =
                    match state p origin with Owner f | Read_copy f -> f | Absent -> assert false
                  in
                  let frame = ref 0 in
                  Msg_layer.rpc t.msg ~src:node ~label:"page_fetch_own" ~req_bytes:64
                    ~resp_bytes:Addr.page_size ~handler:(fun () ->
                      let omm = Process.mm_exn proc origin in
                      unmap_from t ~node:origin ~mm:omm ~vaddr;
                      frame := replicate_page t ~from_node:origin ~from_frame:oframe ~to_node:node;
                      free_frame t ~node:origin oframe;
                      set_state p origin Absent);
                  map_into t ~node ~mm ~vaddr ~frame:!frame ~writable:true;
                  set_state p node (Owner !frame)
                end)
      end;
      Ok ()

let handle_fault t ~proc ~node ~vaddr ~write =
  if not (Trace.enabled ()) then handle_fault_untraced t ~proc ~node ~vaddr ~write
  else begin
    let meter = Env.meter t.env node in
    let sp =
      Trace.span ~at:(Meter.get meter)
        ~tags:[ ("write", string_of_bool write) ]
        ~flow_root:true ~node ~subsys:"dsm" ~op:"fault" ()
    in
    let result = handle_fault_untraced t ~proc ~node ~vaddr ~write in
    Trace.close ~at:(Meter.get meter)
      ~tags:[ ("ok", match result with Ok () -> "true" | Error _ -> "false") ]
      sp;
    result
  end

let seed_owner t ~pid ~origin ~vaddr ~frame =
  let p = page t ~pid ~vpage:(Addr.page_of vaddr) in
  set_state p origin (Owner frame)

let frame_for_read t ~proc ~node ~vaddr =
  ignore proc;
  match Hashtbl.find_opt t.pages (proc.Process.pid, Addr.page_of vaddr) with
  | None -> None
  | Some p -> (
      match state p node with Owner f | Read_copy f -> Some f | Absent -> None)

let check_invariants t ~proc =
  let pid = proc.Process.pid in
  let silent_io = Env.silent_io t.env in
  let exception Bad of string in
  let fail fmt_str = Printf.ksprintf (fun s -> raise (Bad s)) fmt_str in
  try
    Hashtbl.iter
      (fun (p, vpage) page ->
        if p = pid then begin
          let states = List.map (fun node -> (node, state page node)) Node_id.all in
          let owners = List.filter (fun (_, s) -> match s with Owner _ -> true | _ -> false) states in
          let readers =
            List.filter (fun (_, s) -> match s with Read_copy _ -> true | _ -> false) states
          in
          if List.length owners > 1 then fail "page 0x%x has two owners" vpage;
          if owners <> [] && readers <> [] then
            fail "page 0x%x has an owner and a read replica simultaneously" vpage;
          List.iter
            (fun (node, s) ->
              match (s, Process.mm proc node) with
              | (Owner f | Read_copy f), Some mm -> (
                  let leaf =
                    Page_table.walk mm.Process.pgtable silent_io ~vaddr:(vpage lsl Addr.page_shift)
                  in
                  (* a state can outlive its mapping (pre-map fault) *)
                  if Pte.present leaf then begin
                    if Pte.frame ~isa:node leaf <> f lsr Addr.page_shift then
                      fail "page 0x%x: PT frame disagrees with DSM state on %s" vpage
                        (Node_id.to_string node);
                    if
                      Pte.writable ~isa:node leaf
                      && not (match s with Owner _ -> true | _ -> false)
                    then
                      fail "page 0x%x writable at %s without ownership" vpage
                        (Node_id.to_string node)
                  end)
              | (Owner _ | Read_copy _), None ->
                  fail "page 0x%x held by %s which has no mm" vpage (Node_id.to_string node)
              | Absent, _ -> ())
            states
        end)
      t.pages;
    Ok ()
  with Bad s -> Error s

let exit_process t ~proc =
  let pid = proc.Process.pid in
  let doomed = ref [] in
  Hashtbl.iter
    (fun (p, vpage) page -> if p = pid then doomed := (vpage, page) :: !doomed)
    t.pages;
  List.iter
    (fun (vpage, page) ->
      List.iter
        (fun node ->
          match state page node with
          | Absent -> ()
          | Owner frame | Read_copy frame ->
              (match Process.mm proc node with
              | Some mm -> unmap_from t ~node ~mm ~vaddr:(vpage lsl Addr.page_shift)
              | None -> ());
              let kernel = Env.kernel t.env node in
              Stramash_kernel.Frame_alloc.free kernel.Kernel.frames frame;
              set_state page node Absent)
        Stramash_sim.Node_id.all;
      Hashtbl.remove t.pages (pid, vpage))
    !doomed
