module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Metrics = Stramash_sim.Metrics
module Cycles = Stramash_sim.Cycles
module Layout = Stramash_mem.Layout
module Phys_mem = Stramash_mem.Phys_mem
module Cache_sim = Stramash_cache.Cache_sim
module Env = Stramash_kernel.Env
module Process = Stramash_kernel.Process
module Thread = Stramash_kernel.Thread
module Tlb = Stramash_kernel.Tlb
module Mir = Stramash_isa.Mir
module Interp = Stramash_isa.Interp
module Ipi = Stramash_interconnect.Ipi
module Heartbeat = Stramash_interconnect.Heartbeat
module Liveness = Stramash_sim.Liveness
module Plan = Stramash_fault_inject.Plan
module Fault = Stramash_fault_inject.Fault
module Trace = Stramash_obs.Trace
module Quantum = Stramash_sim.Quantum
module Placement = Stramash_placement.Engine

(* Counters that accreted onto the result across PRs (fast-path L0,
   chaos downtime, placement) live in one extension record, so the next
   subsystem adds a field here instead of another top-level array. *)
type ext = {
  l0_hits : int array;
  l0_misses : int array;
  node_downtime : int array; (* cycles each node spent crash-stopped *)
  placement : (string * int) list; (* placement.* counters; [] when detached *)
  trace_cache : (string * int) list; (* always []; kept only for perfbench *)
}

type result = {
  os_name : string;
  hw_model : Layout.hw_model;
  wall_cycles : int;
  node_cycles : int array;
  node_icounts : int array;
  instructions : int;
  migrations : int;
  messages : int;
  replicated_pages : int;
  tlb_misses : int array;
  cache : Metrics.registry;
  phase_marks : (int * int) list;
  node_user_stalls : int array;
  node_idle : int array;
  ext : ext;
}

let fastpath_counters r =
  List.concat_map
    (fun node ->
      let i = Node_id.index node in
      let name c = Node_id.to_string node ^ "." ^ c in
      [ (name "l0_hits", r.ext.l0_hits.(i)); (name "l0_misses", r.ext.l0_misses.(i)) ])
    Node_id.all

let node_busy r node =
  let i = Node_id.index node in
  r.node_cycles.(i) - r.node_idle.(i)

let phase_span r ~start ~stop =
  match (List.assoc_opt start r.phase_marks, List.assoc_opt stop r.phase_marks) with
  | Some a, Some b -> b - a
  | _ -> invalid_arg "Runner.phase_span: missing phase mark"

exception Deadlock of string

(* Paranoid mode: beyond the per-access cross-check inside Cache_sim,
   audit the structural invariants (cache inclusion/directory agreement,
   phys page-pointer cache). The audit walks every tracked line, so the
   scheduler runs it on a deterministic stride rather than every quantum,
   and once more when the run ends. *)
let paranoid_audit env ~what =
  (match Cache_sim.check_consistency env.Env.cache with
  | Ok () -> ()
  | Error msg -> raise (Cache_sim.Divergence (what ^ ": " ^ msg)));
  match Phys_mem.self_check env.Env.phys with
  | Ok () -> ()
  | Error msg -> raise (Cache_sim.Divergence (what ^ ": " ^ msg))

(* One scheduling-quantum boundary: the Paranoid structural audit on a
   1-in-64 stride, then the machine's quantum hooks (placement epoch
   tick, integrity scrubber) in registration order. [run]'s scheduler
   calls it after every quantum; the open-loop serving subsystem calls it
   at the boundaries it paces itself. [count] is the caller's quantum
   counter, carried across calls so the audit stride matches a single
   continuous run. *)
let quantum_boundary machine ~count ~now =
  let env = Machine.env machine in
  incr count;
  if Cache_sim.mode env.Env.cache = Cache_sim.Paranoid && !count land 63 = 0 then
    paranoid_audit env ~what:"paranoid audit";
  Quantum.fire (Machine.quantum machine) ~now

let resolve_futex_args thread (syscall : Mir.syscall) =
  let reg = Interp.reg thread.Thread.cpu in
  match syscall with
  | Mir.Futex_wait { uaddr; expected } -> `Wait (Int64.to_int (reg uaddr), reg expected)
  | Mir.Futex_wake { uaddr; nwake } -> `Wake (Int64.to_int (reg uaddr), nwake)

(* Assemble the result from the machine's counters plus the scheduler's
   accumulators. (This replaces an earlier [collect] helper that
   hard-zeroed icounts/stalls and made [run_scheduler] patch the record
   afterwards; everything is now collected in one place.) *)
let collect machine ~node_icounts ~migrations ~user_stalls ~idle ~marks =
  let env = Machine.env machine in
  let os = Machine.os machine in
  let cache = env.Env.cache in
  let node_cycles = Array.map Meter.get env.Env.meters in
  let wall = Array.fold_left max 0 node_cycles in
  let per_node stat =
    Array.of_list (List.map (fun node -> Cache_sim.stat cache node stat) Node_id.all)
  in
  {
    os_name = Os.name os;
    hw_model = env.Env.hw_model;
    wall_cycles = wall;
    node_cycles;
    node_icounts;
    instructions = Array.fold_left ( + ) 0 node_icounts;
    migrations;
    messages = Os.message_count os;
    replicated_pages = Os.replicated_pages os;
    tlb_misses = Array.map Tlb.misses env.Env.tlbs;
    cache = Cache_sim.stats cache;
    phase_marks = marks;
    node_user_stalls = user_stalls;
    node_idle = idle;
    ext =
      {
        l0_hits = per_node "l0_hits";
        l0_misses = per_node "l0_misses";
        node_downtime =
          (let liveness = env.Env.liveness in
           Array.of_list
             (List.map
                (fun node ->
                  (* completed downtimes, plus the open interval of a node
                     still dead at collection *)
                  Liveness.downtime liveness node
                  + (if Liveness.is_alive liveness node then 0
                     else wall - Liveness.died_at liveness node))
                Node_id.all));
        placement =
          (match Machine.placement machine with
          | Some engine -> Placement.counters engine
          | None -> []);
        trace_cache = [];
      };
  }

(* The scheduler: run the runnable thread whose node clock is lowest,
   interleaving in [fuel]-instruction quanta. Handles migration points,
   futex syscalls and completion for any number of threads. *)
(* Deterministic chaos mailbox: the pending crash-stop kills and
   restarts the scheduler drains at quantum boundaries. Drain order is a
   pure function of simulated time — due-time ascending, restart before
   kill on a tie (a node revived at cycle T must be back before a
   same-cycle kill targets its peer; the schedule never leaves both
   nodes dead at once). Nothing about the order depends on host
   scheduling or list-construction accidents, which is what lets
   1-domain and N-domain soaks replay the same failure sequence
   byte-for-byte. *)
module Chaos_mailbox = struct
  type event = Kill of Plan.node_event | Restart of Node_id.t

  type t = {
    mutable kills : Plan.node_event list; (* plan order = due order *)
    mutable restarts : (Node_id.t * int) list; (* sorted by due time *)
  }

  let create events = { kills = events; restarts = [] }

  let post_restart t node ~at =
    t.restarts <- List.merge (fun (_, a) (_, b) -> compare (a : int) b) t.restarts [ (node, at) ]

  let next_due t =
    let kill = match t.kills with ev :: _ -> Some (ev.Plan.kill_at, Kill ev) | [] -> None in
    let restart = match t.restarts with (n, at) :: _ -> Some (at, Restart n) | [] -> None in
    match (kill, restart) with
    | None, x | x, None -> x
    | Some (tk, _), Some (tr, _) -> if tr <= tk then restart else kill

  let pop t = function
    | Kill _ -> t.kills <- List.tl t.kills
    | Restart _ -> t.restarts <- List.tl t.restarts

  let earliest_restart t = match t.restarts with [] -> None | r :: _ -> Some r
  let restart_for t node = List.find_opt (fun (n, _) -> Node_id.equal n node) t.restarts

  let drain_restarts t =
    let rs = t.restarts in
    t.restarts <- [];
    rs
end

let run_scheduler ?on_recovery machine items ~fuel =
  (* items : (spec, proc, thread) list — each thread belongs to a process
     with its own migration plan *)
  let env = Machine.env machine in
  let os = Machine.os machine in
  let liveness = env.Env.liveness in
  let node_icounts = [| 0; 0 |] in
  let user_stalls = [| 0; 0 |] in
  let idle = [| 0; 0 |] in
  let migrations = ref 0 in
  let marks = ref [] in
  let seg_start = Hashtbl.create 8 in
  let threads = List.map (fun (_, _, th) -> th) items in
  let owner = Hashtbl.create 8 in
  List.iter
    (fun (spec, proc, th) ->
      Hashtbl.replace seg_start th.Thread.tid 0;
      Hashtbl.replace owner th.Thread.tid (spec, proc))
    items;
  let spec_of th = fst (Hashtbl.find owner th.Thread.tid) in
  let proc_of th = snd (Hashtbl.find owner th.Thread.tid) in
  (* Per-node depth-0 spans covering the whole run: their durations equal
     the meters' advance, which is what lets the attribution table be
     checked against the Meter cycle counts. *)
  let traced = Trace.enabled () in
  let run_spans =
    if traced then begin
      Trace.set_clock (fun node -> Meter.get (Env.meter env node));
      List.map
        (fun node ->
          Trace.span ~at:(Meter.get (Env.meter env node)) ~node ~subsys:"runner" ~op:"run" ())
        Node_id.all
    end
    else []
  in
  let account th =
    let count = Interp.icount th.Thread.cpu in
    let prev = Hashtbl.find seg_start th.Thread.tid in
    let idx = Node_id.index th.Thread.node in
    node_icounts.(idx) <- node_icounts.(idx) + (count - prev);
    Hashtbl.replace seg_start th.Thread.tid count
  in
  (* Jump a node's clock to [at] (a migration arrival, a futex wake, a
     restart), accounting the gap as idle time. *)
  let advance_to node at =
    let m = Env.meter env node in
    if Meter.get m < at then begin
      idle.(Node_id.index node) <- idle.(Node_id.index node) + (at - Meter.get m);
      Meter.set m at
    end
  in
  let quanta = ref 0 in
  let finished th = th.Thread.state = Thread.Finished in
  (* --- crash-stop chaos schedule (quantum-boundary processing) ---------- *)
  let chaos_events =
    match Machine.inject_plan machine with Some p -> Plan.node_events p | None -> []
  in
  if chaos_events <> [] && not (Os.supports_chaos os) then
    invalid_arg "Runner: chaos schedule requires the Stramash personality";
  let mailbox = Chaos_mailbox.create chaos_events in
  let procs =
    List.fold_left
      (fun acc (_, p, _) ->
        if List.exists (fun q -> q.Process.pid = p.Process.pid) acc then acc else p :: acc)
      [] items
    |> List.rev
  in
  let wall () = Array.fold_left (fun a m -> max a (Meter.get m)) 0 env.Env.meters in
  let do_kill (ev : Plan.node_event) =
    let node = ev.Plan.node in
    if not (Liveness.is_alive liveness (Node_id.other node)) then
      invalid_arg "Runner: chaos schedule kills a node while its peer is already dead";
    let now = wall () in
    Liveness.kill liveness node ~at:now;
    Os.on_node_death os ~procs ~threads:(Machine.threads machine) ~node ~now;
    match ev.Plan.restart_after with
    | None -> ()
    | Some d -> Chaos_mailbox.post_restart mailbox node ~at:(now + d)
  in
  let do_restart node ~at =
    Liveness.revive liveness node ~at;
    advance_to node at;
    Os.on_node_restart os ~procs ~node ~now:at;
    (* The checkpoint restore faithfully reinstalls any replica leaf the
       node held at death; if the replica was collapsed while it was
       down, the placement engine must correct that before any thread
       runs against the stale mapping. *)
    (match Machine.placement machine with
    | Some engine -> Placement.reconcile engine ~node
    | None -> ());
    match on_recovery with Some f -> f node | None -> ()
  in
  (* Watchdog bookkeeping: live nodes publish beats at their own clocks;
     a survivor whose peer has gone silent past the miss threshold
     declares it dead (the perceived-death event behind the detection
     metrics — ground-truth transitions are the schedule's job). *)
  let heartbeat_work () =
    match Os.heartbeat os with
    | None -> ()
    | Some hb ->
        List.iter
          (fun node ->
            if Liveness.is_alive liveness node then
              Os.heartbeat_tick os ~src:node ~now:(Meter.get (Env.meter env node)))
          Node_id.all;
        List.iter
          (fun peer ->
            if not (Liveness.is_alive liveness peer) then begin
              let survivor = Node_id.other peer in
              if Liveness.is_alive liveness survivor then begin
                let now = Meter.get (Env.meter env survivor) in
                if Heartbeat.suspects hb ~peer ~now && not (Heartbeat.is_suspected hb ~peer)
                then begin
                  Heartbeat.declare_dead hb ~peer ~now;
                  Os.on_peer_detected os ~node:peer ~now;
                  (* Actual detection latency (death to watchdog firing),
                     vs. the worst-case interval * miss_threshold bound. *)
                  match Machine.inject_plan machine with
                  | Some plan ->
                      Plan.note_detection_latency plan
                        ~cycles:(now - Liveness.died_at liveness peer)
                  | None -> ()
                end
              end
            end)
          Node_id.all
  in
  let rec process_chaos () =
    match Chaos_mailbox.next_due mailbox with
    | Some (at, ev) when at <= wall () ->
        Chaos_mailbox.pop mailbox ev;
        (match ev with
        | Chaos_mailbox.Kill ev -> do_kill ev
        | Chaos_mailbox.Restart node -> do_restart node ~at);
        process_chaos ()
    | _ -> heartbeat_work ()
  in
  let chaos = chaos_events <> [] in
  let rec loop () =
    if chaos then process_chaos ();
    let live = List.filter (fun th -> not (finished th)) threads in
    if live <> [] then begin
      let runnable =
        List.filter
          (fun th -> Thread.is_runnable th && Liveness.is_alive liveness th.Thread.node)
          live
      in
      match runnable with
      | [] -> (
          (* Nothing can run. If threads are frozen on a dead node and a
             restart is scheduled, idle the platform forward to it; with
             no restart coming, the failure is unrecoverable. *)
          let frozen =
            List.filter (fun th -> not (Liveness.is_alive liveness th.Thread.node)) live
          in
          match (Chaos_mailbox.earliest_restart mailbox, frozen) with
          | Some (_, at), _ ->
              List.iter
                (fun node -> if Liveness.is_alive liveness node then advance_to node at)
                Node_id.all;
              process_chaos ();
              loop ()
          | None, th :: _ ->
              raise
                (Fault.Error
                   (Fault.Node_dead
                      { node = Node_id.to_string th.Thread.node; op = "schedule" }))
          | _ ->
              raise
                (Deadlock
                   (String.concat ", "
                      (List.map
                         (fun th ->
                           Format.asprintf "tid%d:%a" th.Thread.tid Thread.pp_state
                             th.Thread.state)
                         live))))
      | _ ->
          let th =
            List.fold_left
              (fun best cand ->
                let mb = Meter.get (Env.meter env best.Thread.node) in
                let mc = Meter.get (Env.meter env cand.Thread.node) in
                if mc < mb then cand else best)
              (List.hd runnable) (List.tl runnable)
          in
          let mmu = Mmu.create machine (proc_of th) ~node:th.Thread.node in
          let outcome = Interp.run th.Thread.cpu (Mmu.memio mmu ~user_stalls) ~fuel in
          quantum_boundary machine ~count:quanta ~now:(wall ());
          (match outcome with
          | Interp.Out_of_fuel -> account th
          | Interp.Halted ->
              account th;
              th.Thread.state <- Thread.Finished
          | Interp.Migrate point -> (
              account th;
              if not (List.mem_assoc point !marks) then begin
                marks := (point, Meter.get (Env.meter env th.Thread.node)) :: !marks;
                if traced then
                  Trace.instant ~node:th.Thread.node ~subsys:"runner" ~op:"phase"
                    ~tags:[ ("point", string_of_int point) ]
                    ()
              end;
              match Spec.target_for (spec_of th) point with
              | Some dst
                when Os.supports_migration os && not (Node_id.equal dst th.Thread.node) ->
                  let src_node = th.Thread.node in
                  if not (Liveness.is_alive liveness dst) then begin
                    (* Destination is crash-stopped: the migration request
                       blocks at the source until the peer returns. With no
                       restart scheduled the thread can never arrive. *)
                    match Chaos_mailbox.restart_for mailbox dst with
                    | None ->
                        raise
                          (Fault.Error
                             (Fault.Node_dead { node = Node_id.to_string dst; op = "migrate" }))
                    | Some (_, at) ->
                        let stall = at - Meter.get (Env.meter env src_node) in
                        advance_to src_node at;
                        (match Machine.inject_plan machine with
                        | Some p when stall > 0 -> Plan.add_degraded_cycles p ~cycles:stall
                        | _ -> ());
                        process_chaos ()
                  end;
                  let sp =
                    if traced then
                      Trace.span ~at:(Meter.get (Env.meter env src_node)) ~flow_root:true
                        ~node:src_node ~subsys:"runner" ~op:"migrate" ()
                    else Trace.null
                  in
                  Os.migrate os ~proc:(proc_of th) ~thread:th ~dst ~point;
                  incr migrations;
                  advance_to dst (Meter.get (Env.meter env src_node));
                  if sp != Trace.null then
                    Trace.close ~at:(Meter.get (Env.meter env src_node)) sp;
                  Hashtbl.replace seg_start th.Thread.tid (Interp.icount th.Thread.cpu)
              | Some _ | None -> ())
          | Interp.Syscall syscall -> (
              account th;
              match resolve_futex_args th syscall with
              | `Wait (uaddr, expected) -> (
                  match Os.futex_wait os ~env ~proc:(proc_of th) ~thread:th ~uaddr ~expected with
                  | `Block -> th.Thread.state <- Thread.Blocked_futex uaddr
                  | `Proceed -> ())
              | `Wake (uaddr, nwake) ->
                  let woken =
                    Os.futex_wake os ~env ~proc:(proc_of th) ~thread:th
                      ~threads:(Machine.threads machine) ~uaddr ~nwake
                  in
                  let wake_time = Meter.get (Env.meter env th.Thread.node) in
                  List.iter
                    (fun tid ->
                      match
                        List.find_opt (fun t2 -> t2.Thread.tid = tid) (Machine.threads machine)
                      with
                      | Some waiter ->
                          waiter.Thread.state <- Thread.Ready;
                          (* A waiter on a crash-stopped node becomes Ready
                             but its clock stays parked: it resumes when the
                             restart advances the node's meter. *)
                          if Liveness.is_alive liveness waiter.Thread.node then begin
                            let delivery =
                              if Node_id.equal waiter.Thread.node th.Thread.node then
                                Cycles.of_ns 300.0
                              else Ipi.cross_isa_ipi_cycles
                            in
                            advance_to waiter.Thread.node (wake_time + delivery)
                          end
                      | None -> ())
                    woken));
          loop ()
    end
  in
  loop ();
  (* Restarts still pending when the workload finishes fire now: the
     platform ends the run fully recovered (kills that never came due are
     dropped). *)
  if chaos then
    List.iter (fun (node, at) -> do_restart node ~at) (Chaos_mailbox.drain_restarts mailbox);
  List.iter2
    (fun node sp -> Trace.close ~at:(Meter.get (Env.meter env node)) sp)
    (if run_spans = [] then [] else Node_id.all)
    run_spans;
  if Cache_sim.mode env.Env.cache = Cache_sim.Paranoid then
    paranoid_audit env ~what:"paranoid final audit";
  collect machine ~node_icounts ~migrations:!migrations ~user_stalls ~idle
    ~marks:(List.rev !marks)

let run ?on_recovery machine proc thread spec =
  run_scheduler ?on_recovery machine [ (spec, proc, thread) ] ~fuel:50_000

let run_threads ?on_recovery machine proc threads spec =
  run_scheduler ?on_recovery machine (List.map (fun th -> (spec, proc, th)) threads) ~fuel:400

let run_workloads ?on_recovery machine items = run_scheduler ?on_recovery machine items ~fuel:2_000

let pp_result fmt r =
  let pct x = 100.0 *. x in
  Format.fprintf fmt "=== %s / %s ===@." r.os_name (Layout.hw_model_to_string r.hw_model);
  List.iter
    (fun node ->
      let idx = Node_id.index node in
      let g name = Metrics.get r.cache (Node_id.to_string node ^ "." ^ name) in
      let rate h a = if a = 0 then 0.0 else float_of_int h /. float_of_int a in
      Format.fprintf fmt "%s:@." (Node_id.to_string node);
      Format.fprintf fmt "  L1 Cache Hit Rate: %.2f%%@."
        (pct
           (rate
              (g "l1d_hits" + g "l1i_hits")
              (g "l1d_accesses" + g "l1i_accesses")));
      (let l0_total = r.ext.l0_hits.(idx) + r.ext.l0_misses.(idx) in
       if l0_total > 0 then
         Format.fprintf fmt "  L0 Fast-Path Hit Rate: %.2f%% (%d of %d accesses)@."
           (pct (rate r.ext.l0_hits.(idx) l0_total))
           r.ext.l0_hits.(idx) l0_total);
      Format.fprintf fmt "  L2 Cache Hit Rate: %.2f%%@." (pct (rate (g "l2_hits") (g "l2_accesses")));
      Format.fprintf fmt "  L3 Cache Hit Rate: %.2f%%@." (pct (rate (g "l3_hits") (g "l3_accesses")));
      Format.fprintf fmt "  Local Memory Hits: %d@." (g "local_mem_hits");
      Format.fprintf fmt "  Remote Memory Hits: %d@." (g "remote_mem_hits");
      Format.fprintf fmt "  Remote Shared Memory Hits: %d@." (g "remote_shared_mem_hits");
      Format.fprintf fmt "  Number of Instructions: %d@." r.node_icounts.(idx);
      Format.fprintf fmt "  Runtime: %d cycles (%.3f ms)@." r.node_cycles.(idx)
        (Cycles.to_ms r.node_cycles.(idx)))
    Node_id.all;
  Format.fprintf fmt "Wall: %d cycles (%.3f ms); migrations=%d messages=%d replicated=%d@."
    r.wall_cycles (Cycles.to_ms r.wall_cycles) r.migrations r.messages r.replicated_pages
