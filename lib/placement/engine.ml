(* The adaptive page-placement engine.

   Samples flow in from the runner's memory pipeline (one [sample] per
   user access, free of simulated cost — sampling must never perturb the
   cycle-exact engines); decisions fire at scheduling-quantum boundaries
   every [epoch] quanta. Three actions exist:

   - {b replicate}: a read-hot remotely-homed page gets a local copy at
     the reading node. Every kernel's leaf for the page is downgraded to
     read-only first (with a cross-ISA TLB-shootdown round charged at the
     Fig. 5-6 IPI cost), so any later write must fault — which is the
     collapse trigger. The replica frame is never writable, so it stays
     bit-identical to the home frame by construction.
   - {b collapse}: the write hook registered with [Stramash_fault] fires
     on a write to a read-only-mapped page; under the origin PTL (the
     PR-4 fencing tokens keep this honest across crashes) the
     pre-replication leaves are restored, both TLBs shot down, and the
     replica frame freed. If the peer kernel is dead the survivor only
     restores its own leaf and leaves the rest to [reconcile], which the
     runner calls at the peer's restart before any thread executes.
   - {b migrate}: a page written exclusively by the far node moves its
     home frame there — allocated through [Stramash_fault.alloc_frame],
     which rides the Global_alloc hotplug-donation path on exhaustion —
     and every table is re-pointed at the new frame.

   Everything the engine touches is charged through the ordinary cache
   pipeline ([Env.charge_*], [Env.pt_io]), so placement costs land on the
   meters the same way kernel work does, in every cache-engine mode. *)

module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Phys_mem = Stramash_mem.Phys_mem
module Latency = Stramash_mem.Latency
module Cache_sim = Stramash_cache.Cache_sim
module Config = Stramash_cache.Config
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Frame_alloc = Stramash_kernel.Frame_alloc
module Page_table = Stramash_kernel.Page_table
module Pte = Stramash_kernel.Pte
module Tlb = Stramash_kernel.Tlb
module Process = Stramash_kernel.Process
module Ipi = Stramash_interconnect.Ipi
module Stramash_os = Stramash_core.Stramash_os
module Stramash_fault = Stramash_core.Stramash_fault
module Stramash_ptl = Stramash_core.Stramash_ptl
module Plan = Stramash_fault_inject.Plan
module Integrity = Stramash_fault_inject.Integrity
module Trace = Stramash_obs.Trace

(* Pre-replication leaf image of one kernel's table: [None] means the
   kernel had no leaf and the engine installed a temporary read-only one
   (to be unmapped again at collapse). *)
type saved_leaf = { s_frame : int (* frame number *); s_flags : Pte.flags }

type replica = {
  r_pid : int;
  r_vaddr : int; (* page base *)
  r_reader : Node_id.t;
  r_replica_frame : int; (* paddr *)
  r_home_frame : int; (* paddr *)
  r_saved : (Node_id.t * saved_leaf option) list;
  mutable r_pending : Node_id.t list;
      (* nodes whose tables still hold post-replication leaves after a
         degraded collapse — restored by [reconcile] at their restart *)
}

type counters = {
  mutable epochs : int;
  mutable replications : int;
  mutable collapses : int;
  mutable degraded_collapses : int;
  mutable reconciles : int;
  mutable migrations : int;
  mutable shootdown_rounds : int;
  mutable ptl_denied : int;
}

type t = {
  policy : Policy.t;
  epoch : int; (* quanta per epoch *)
  max_actions : int; (* replications+migrations per epoch tick *)
  payback : int;
  min_remote : int;
  cool : int; (* epochs a write-collapsed page is barred from re-replication *)
  warm : int; (* epochs of page history the adaptive policy demands before acting *)
  hotness : Hotness.t;
  env : Env.t;
  cache : Cache_sim.t;
  faults : Stramash_fault.t;
  procs : (int, Process.t) Hashtbl.t;
  replicas : (int * int, replica) Hashtbl.t; (* (pid, page vaddr) *)
  cooldown : (int * int, int) Hashtbl.t; (* (pid, page vaddr) -> epoch when eligible again *)
  mutable quanta : int;
  c : counters;
}

let policy t = t.policy
let epoch t = t.epoch

let create ?(epoch = 4) ?(max_actions = 64) ?(payback = 4) ?(min_remote = 16) ?(cooldown = 8)
    ?(warmup = 5) ~policy os =
  let env = Stramash_os.env os in
  let t =
    {
      policy;
      epoch = max 1 epoch;
      max_actions;
      payback = max 1 payback;
      min_remote;
      cool = max 0 cooldown;
      warm = max 0 warmup;
      hotness = Hotness.create ();
      env;
      cache = env.Env.cache;
      faults = Stramash_os.faults os;
      procs = Hashtbl.create 4;
      replicas = Hashtbl.create 64;
      cooldown = Hashtbl.create 64;
      quanta = 0;
      c =
        {
          epochs = 0;
          replications = 0;
          collapses = 0;
          degraded_collapses = 0;
          reconciles = 0;
          migrations = 0;
          shootdown_rounds = 0;
          ptl_denied = 0;
        };
    }
  in
  t

let register_proc t proc = Hashtbl.replace t.procs proc.Process.pid proc

(* ---------- sampling (cost-free) ---------- *)

let sample t ~pid ~node ~vaddr ~write ~latency =
  let remote =
    match Cache_sim.latency_class t.cache ~node latency with
    | `Remote_mem -> true
    | `Local_mem | `Cache -> false
  in
  (* Write recency is the churn predictor: a page written within the last
     [cool] epochs is barred from replication, so phased read-then-write
     workloads (IS ranks) never enter the replicate/fault/collapse cycle,
     while init-once-read-forever data (CG's matrix) becomes eligible as
     soon as its init writes age out. *)
  if write then Hashtbl.replace t.cooldown (pid, Addr.page_base vaddr) (t.c.epochs + t.cool);
  Hotness.touch t.hotness ~pid ~node ~vaddr ~write ~remote ~now:t.c.epochs

(* ---------- helpers ---------- *)

let frame_owner t paddr =
  List.find_opt
    (fun n -> Frame_alloc.owns_address (Env.kernel t.env n).Kernel.frames paddr)
    Node_id.all

let remote_owned_for t ~node ~frame_paddr =
  match frame_owner t frame_paddr with
  | Some owner -> not (Node_id.equal owner node)
  | None -> true

(* [node]'s leaf for [vaddr] as (frame number, flags). Placement saves
   and rewrites whole flag sets, so it decodes all of them. *)
let leaf_of t ~(proc : Process.t) ~node ~vaddr =
  match Process.mm proc node with
  | None -> None
  | Some mm ->
      let leaf = Page_table.walk mm.Process.pgtable (Env.silent_io t.env) ~vaddr in
      if Pte.present leaf then Some (Pte.frame ~isa:node leaf, Pte.flags ~isa:node leaf)
      else None

(* Invalidate both kernels' cached translations for the page. The actor's
   own flush is local; the peer's is a cross-ISA shootdown — one IPI
   round charged to the actor's meter (the peer is interrupted, not
   stalled). A dead peer has no TLB state to shoot down. *)
let shootdown_round t ~actor ~vaddr =
  let vpage = Addr.page_of vaddr in
  Tlb.flush_page (Env.tlb t.env actor) ~vpage;
  let peer = Node_id.other actor in
  if Env.node_alive t.env peer then begin
    Tlb.shootdown (Env.tlb t.env peer) ~vpage;
    Meter.add (Env.meter t.env actor) Ipi.tlb_shootdown_cycles;
    t.c.shootdown_rounds <- t.c.shootdown_rounds + 1
  end

let free_frame t paddr =
  match frame_owner t paddr with
  | Some owner ->
      let frames = (Env.kernel t.env owner).Kernel.frames in
      if Frame_alloc.is_allocated frames paddr then Frame_alloc.free frames paddr
  | None -> ()

let note op ~node ~vaddr =
  if Trace.enabled () then
    Trace.instant ~node
      ~flow:(Trace.fresh_flow ~node)
      ~subsys:"placement" ~op
      ~tags:[ ("vaddr", Printf.sprintf "0x%x" vaddr) ]
      ()

(* ---------- integrity (silent-data-corruption defence) ---------- *)

(* Replica pairs are the repair substrate for the SDC campaign: both
   frames are read-only while the pair exists, so each is a valid clean
   copy of the other. [pair] seals them into the plan's fingerprint
   store at replication; [check_and_unpair] is the choke point run
   before anything dissolves a pair (collapse, drain) — a last charged
   verify-and-repair, so corruption can never slip out of the tracked
   set when its repair source goes away. Plans without a corruption
   schedule have no store and skip all of this. *)
let integrity t =
  match Stramash_fault.inject t.faults with
  | Some plan -> Plan.integrity plan
  | None -> None

let pair_replica t (rep : replica) =
  match integrity t with
  | None -> ()
  | Some st ->
      let home_node =
        match frame_owner t rep.r_home_frame with
        | Some owner -> owner
        | None -> Node_id.other rep.r_reader
      in
      Integrity.pair st t.env.Env.phys ~home:rep.r_home_frame ~home_node
        ~replica:rep.r_replica_frame ~replica_node:rep.r_reader

let check_and_unpair t ~actor (rep : replica) =
  match integrity t with
  | None -> ()
  | Some st ->
      let meter = Env.meter t.env actor in
      let s =
        Integrity.check_pair st t.env.Env.phys ~home:rep.r_home_frame
          ~replica:rep.r_replica_frame ~now:(Meter.get meter)
      in
      Meter.add meter (s.Integrity.ts_scanned * Integrity.scan_cost_cycles);
      List.iter
        (fun (r : Integrity.repair) ->
          Meter.add meter
            (if Node_id.equal r.Integrity.rp_src r.Integrity.rp_dst then
               Integrity.repair_local_cycles
             else Integrity.repair_cross_cycles))
        s.Integrity.ts_repairs;
      Integrity.unpair st ~home:rep.r_home_frame ~replica:rep.r_replica_frame

(* ---------- replicate ---------- *)

(* Install a local copy of [vaddr]'s page at [reader]. Preconditions
   checked here rather than assumed: both kernels alive and holding mms
   (a kernel without an mm could later fault the page in writable and
   bypass the collapse trigger), every existing leaf pointing at the same
   frame (pages already diverged by the Popcorn fallback path are not
   ours to manage). All table writes happen under the origin PTL so the
   PR-4 fencing epochs apply. *)
let replicate t ~(proc : Process.t) ~vaddr ~reader =
  let vaddr = Addr.page_base vaddr in
  if not (List.for_all (fun n -> Env.node_alive t.env n) Node_id.all) then false
  else if not (List.for_all (fun n -> Process.mm proc n <> None) Node_id.all) then false
  else begin
    let leaves = List.map (fun n -> (n, leaf_of t ~proc ~node:n ~vaddr)) Node_id.all in
    let frames =
      List.filter_map (function _, Some (pfn, _) -> Some pfn | _, None -> None) leaves
    in
    match frames with
    | [] -> false
    | pfn :: rest when List.for_all (Int.equal pfn) rest -> (
        let home_frame = pfn lsl Addr.page_shift in
        let ptl = Stramash_fault.ptl_for t.faults ~proc in
        match Stramash_ptl.acquire ptl ~actor:reader with
        | Error _ ->
            t.c.ptl_denied <- t.c.ptl_denied + 1;
            false
        | Ok token -> (
            match Stramash_fault.alloc_frame t.faults ~node:reader with
            | Error _ ->
                ignore (Stramash_ptl.release ptl ~token);
                false
            | Ok replica_frame ->
                (* the copy itself: a bulk read of the home page and a
                   bulk write of the replica, performed by the reader *)
                Env.charge_bytes_load t.env reader ~paddr:home_frame ~len:Addr.page_size;
                Env.charge_bytes_store t.env reader ~paddr:replica_frame ~len:Addr.page_size;
                Phys_mem.copy_page t.env.Env.phys ~src:home_frame ~dst:replica_frame;
                let saved =
                  List.map
                    (fun (n, leaf) ->
                      let mm = Process.mm_exn proc n in
                      let io = Env.pt_io t.env ~actor:reader ~owner:n in
                      let target =
                        if Node_id.equal n reader then replica_frame else home_frame
                      in
                      let flags =
                        match leaf with
                        | Some (_, f) -> f
                        | None -> Pte.default_flags
                      in
                      Page_table.map mm.Process.pgtable io ~vaddr
                        ~frame:(target lsr Addr.page_shift)
                        {
                          flags with
                          Pte.writable = false;
                          remote_owned = remote_owned_for t ~node:n ~frame_paddr:target;
                        };
                      (n, Option.map (fun (pfn, f) -> { s_frame = pfn; s_flags = f }) leaf))
                    leaves
                in
                shootdown_round t ~actor:reader ~vaddr;
                let rep =
                  {
                    r_pid = proc.Process.pid;
                    r_vaddr = vaddr;
                    r_reader = reader;
                    r_replica_frame = replica_frame;
                    r_home_frame = home_frame;
                    r_saved = saved;
                    r_pending = [];
                  }
                in
                Hashtbl.replace t.replicas (proc.Process.pid, vaddr) rep;
                pair_replica t rep;
                ignore (Stramash_ptl.release ptl ~token);
                t.c.replications <- t.c.replications + 1;
                note "replicate" ~node:reader ~vaddr;
                true))
    | _ -> false
  end

(* ---------- collapse ---------- *)

let restore_leaf t ~(proc : Process.t) ~actor ~node ~vaddr saved =
  match Process.mm proc node with
  | None -> ()
  | Some mm -> (
      let io = Env.pt_io t.env ~actor ~owner:node in
      match saved with
      | Some { s_frame; s_flags } ->
          Page_table.map mm.Process.pgtable io ~vaddr ~frame:s_frame s_flags
      | None -> ignore (Page_table.unmap mm.Process.pgtable io ~vaddr : bool))

(* Undo a replication: restore every kernel's pre-replication leaf, shoot
   down both TLBs, free the replica frame. The replica was never
   writable, so home and replica are bit-identical and no data moves —
   the cost is the lock round, the table writes and the shootdown IPI.
   With the peer dead only the writer's own leaf can be restored; the
   rest is parked on [r_pending] for [reconcile]. *)
let collapse t ~(proc : Process.t) (rep : replica) ~writer =
  let vaddr = rep.r_vaddr in
  let peer = Node_id.other writer in
  (* Both frames are still read-only here (the triggering write has not
     landed yet), so this is the last moment each is a trustworthy
     repair source for the other — even the degraded path must dissolve
     the pair now, before the writer's restored leaf lets divergence in. *)
  check_and_unpair t ~actor:writer rep;
  if Env.node_alive t.env peer then begin
    let ptl = Stramash_fault.ptl_for t.faults ~proc in
    let token =
      match Stramash_ptl.acquire ptl ~actor:writer with
      | Ok token -> Some token
      | Error _ ->
          (* kernel entries are serialised, so this is defensive: restore
             the mappings anyway (the replica is read-only, so state is
             consistent either way) and count the anomaly *)
          t.c.ptl_denied <- t.c.ptl_denied + 1;
          None
    in
    List.iter (fun (n, saved) -> restore_leaf t ~proc ~actor:writer ~node:n ~vaddr saved)
      rep.r_saved;
    shootdown_round t ~actor:writer ~vaddr;
    free_frame t rep.r_replica_frame;
    (match token with Some token -> ignore (Stramash_ptl.release ptl ~token) | None -> ());
    Hashtbl.remove t.replicas (rep.r_pid, vaddr);
    t.c.collapses <- t.c.collapses + 1;
    note "collapse" ~node:writer ~vaddr
  end
  else begin
    (* degraded: the peer's table is checkpointed away; fix only our own
       leaf now, reconcile the peer's (and free the replica) at restart *)
    (match List.assoc_opt writer rep.r_saved with
    | Some saved -> restore_leaf t ~proc ~actor:writer ~node:writer ~vaddr saved
    | None -> ());
    Tlb.flush_page (Env.tlb t.env writer) ~vpage:(Addr.page_of vaddr);
    rep.r_pending <- [ peer ];
    t.c.degraded_collapses <- t.c.degraded_collapses + 1;
    note "collapse-degraded" ~node:writer ~vaddr
  end

(* The write hook: a write faulted on a mapped-but-read-only page. If it
   is one of ours, collapse; the retried access then sees the restored
   (writable, or absent-and-refaultable) leaf. *)
let on_write_fault t ~(proc : Process.t) ~node ~vaddr =
  match Hashtbl.find_opt t.replicas (proc.Process.pid, Addr.page_base vaddr) with
  | Some rep when rep.r_pending = [] ->
      (* a write just burned this page: bar re-replication for a while so
         write-phased workloads don't churn replicate/collapse rounds *)
      Hashtbl.replace t.cooldown (rep.r_pid, rep.r_vaddr) (t.c.epochs + t.cool);
      collapse t ~proc rep ~writer:node;
      true
  | _ -> false

(* Restore [node]'s half of any replica collapsed while it was down. The
   runner calls this inside the restart path, after the checkpoint
   restore and before any thread executes — so the stale replica leaf the
   checkpoint faithfully reinstalled is corrected before it can be read. *)
let reconcile t ~node =
  let fixups =
    Hashtbl.fold
      (fun _ rep acc -> if List.mem node rep.r_pending then rep :: acc else acc)
      t.replicas []
    |> List.sort (fun a b -> compare (a.r_pid, a.r_vaddr) (b.r_pid, b.r_vaddr))
  in
  List.iter
    (fun rep ->
      (match Hashtbl.find_opt t.procs rep.r_pid with
      | Some proc -> (
          match List.assoc_opt node rep.r_saved with
          | Some saved -> restore_leaf t ~proc ~actor:node ~node ~vaddr:rep.r_vaddr saved
          | None -> ())
      | None -> ());
      Tlb.flush_page (Env.tlb t.env node) ~vpage:(Addr.page_of rep.r_vaddr);
      rep.r_pending <- List.filter (fun n -> not (Node_id.equal n node)) rep.r_pending;
      if rep.r_pending = [] then begin
        free_frame t rep.r_replica_frame;
        Hashtbl.remove t.replicas (rep.r_pid, rep.r_vaddr);
        t.c.reconciles <- t.c.reconciles + 1;
        note "reconcile" ~node ~vaddr:rep.r_vaddr
      end)
    fixups

(* ---------- migrate ---------- *)

(* Move a page's home frame to [dst]: allocate there (riding the hotplug
   donation path on exhaustion), copy, re-point every kernel's leaf at
   the new frame (recomputing the remote-owned mirror from allocator
   ownership), shoot down both TLBs, free the old frame. *)
let migrate t ~(proc : Process.t) ~vaddr ~dst ~old_frame =
  let vaddr = Addr.page_base vaddr in
  if not (List.for_all (fun n -> Env.node_alive t.env n) Node_id.all) then false
  else begin
    let ptl = Stramash_fault.ptl_for t.faults ~proc in
    match Stramash_ptl.acquire ptl ~actor:dst with
    | Error _ ->
        t.c.ptl_denied <- t.c.ptl_denied + 1;
        false
    | Ok token -> (
        match Stramash_fault.alloc_frame t.faults ~node:dst with
        | Error _ ->
            ignore (Stramash_ptl.release ptl ~token);
            false
        | Ok new_frame ->
            Env.charge_bytes_load t.env dst ~paddr:old_frame ~len:Addr.page_size;
            Env.charge_bytes_store t.env dst ~paddr:new_frame ~len:Addr.page_size;
            Phys_mem.copy_page t.env.Env.phys ~src:old_frame ~dst:new_frame;
            List.iter
              (fun n ->
                match leaf_of t ~proc ~node:n ~vaddr with
                | Some (pfn, flags) when pfn = old_frame lsr Addr.page_shift ->
                    let mm = Process.mm_exn proc n in
                    let io = Env.pt_io t.env ~actor:dst ~owner:n in
                    Page_table.map mm.Process.pgtable io ~vaddr
                      ~frame:(new_frame lsr Addr.page_shift)
                      {
                        flags with
                        Pte.remote_owned =
                          remote_owned_for t ~node:n ~frame_paddr:new_frame;
                      }
                | _ -> ())
              Node_id.all;
            shootdown_round t ~actor:dst ~vaddr;
            free_frame t old_frame;
            ignore (Stramash_ptl.release ptl ~token);
            t.c.migrations <- t.c.migrations + 1;
            note "migrate" ~node:dst ~vaddr;
            true)
  end

(* ---------- the epoch tick ---------- *)

let lat_of t node = Config.latencies (Cache_sim.config t.cache) node

let view_for t ~home (p : Hotness.page) =
  let reader = Node_id.other home in
  let l = lat_of t reader in
  let gain = max 1 (l.Latency.remote_mem - l.Latency.mem) in
  let lines = Addr.page_size / 64 in
  let copy = lines * (l.Latency.remote_mem + l.Latency.mem) in
  {
    Policy.home;
    reads = p.Hotness.reads;
    writes = p.Hotness.writes;
    remote = p.Hotness.remote;
    gain_per_miss = gain;
    act_cost = copy + Ipi.tlb_shootdown_cycles;
    payback = t.payback;
    min_remote = t.min_remote;
    age = t.c.epochs - p.Hotness.born;
    warmup = t.warm;
  }

let decide_and_act t =
  (* Frames shared between processes would make per-proc leaf rewrites
     unsound; the single-process NPB harness is the supported shape. *)
  if Hashtbl.length t.procs = 1 then begin
    let actions = ref 0 in
    List.iter
      (fun ((pid, vaddr), stats) ->
        if !actions < t.max_actions && not (Hashtbl.mem t.replicas (pid, vaddr)) then
          match Hashtbl.find_opt t.procs pid with
          | None -> ()
          | Some proc -> (
              let leaves =
                List.filter_map
                  (fun n -> Option.map fst (leaf_of t ~proc ~node:n ~vaddr))
                  Node_id.all
              in
              match leaves with
              | pfn :: rest when List.for_all (Int.equal pfn) rest -> (
                  let frame = pfn lsl Addr.page_shift in
                  match Layout.home_node frame with
                  | None -> ()
                  | Some home -> (
                      match Policy.decide t.policy (view_for t ~home stats) with
                      | Policy.Keep -> ()
                      | Policy.Replicate reader ->
                          let cooling =
                            match Hashtbl.find_opt t.cooldown (pid, vaddr) with
                            | Some until -> t.c.epochs < until
                            | None -> false
                          in
                          if (not cooling) && replicate t ~proc ~vaddr ~reader then
                            incr actions
                      | Policy.Migrate dst ->
                          if migrate t ~proc ~vaddr ~dst ~old_frame:frame then incr actions))
              | _ -> ()))
      (Hotness.to_sorted t.hotness)
  end

let tick t ~now:_ =
  t.quanta <- t.quanta + 1;
  if t.quanta mod t.epoch = 0 && List.for_all (fun n -> Env.node_alive t.env n) Node_id.all
  then begin
    t.c.epochs <- t.c.epochs + 1;
    decide_and_act t;
    Hotness.decay t.hotness
  end

(* ---------- teardown ---------- *)

(* Collapse every replica a process still holds, so the §6.4 exit sweep
   sees exactly the mappings (and allocator state) it would have seen
   without placement. Restores only live kernels' leaves — a dead
   kernel's table is already checkpointed away and owns no frames the
   sweep will visit. *)
let drain t ~(proc : Process.t) =
  let mine =
    Hashtbl.fold
      (fun _ rep acc -> if rep.r_pid = proc.Process.pid then rep :: acc else acc)
      t.replicas []
    |> List.sort (fun a b -> compare a.r_vaddr b.r_vaddr)
  in
  List.iter
    (fun rep ->
      (* never-collapsed pairs are still sealed; degraded-collapsed ones
         were unpaired at collapse time and this is a no-op for them *)
      (if rep.r_pending = [] then
         let actor =
           if Env.node_alive t.env rep.r_reader then rep.r_reader
           else Node_id.other rep.r_reader
         in
         check_and_unpair t ~actor rep);
      List.iter
        (fun (n, saved) ->
          if Env.node_alive t.env n && not (List.mem n rep.r_pending) then begin
            restore_leaf t ~proc ~actor:n ~node:n ~vaddr:rep.r_vaddr saved;
            Tlb.flush_page (Env.tlb t.env n) ~vpage:(Addr.page_of rep.r_vaddr)
          end)
        rep.r_saved;
      free_frame t rep.r_replica_frame;
      Hashtbl.remove t.replicas (rep.r_pid, rep.r_vaddr);
      t.c.collapses <- t.c.collapses + 1)
    mine;
  Hashtbl.remove t.procs proc.Process.pid

(* ---------- reporting ---------- *)

let live_replicas t = Hashtbl.length t.replicas

let tlb_shootdowns t =
  List.fold_left (fun acc n -> acc + Tlb.shootdowns (Env.tlb t.env n)) 0 Node_id.all

let counters t =
  [
    ("placement.samples", Hotness.samples t.hotness);
    ("placement.pages_tracked", Hotness.size t.hotness);
    ("placement.epochs", t.c.epochs);
    ("placement.replications", t.c.replications);
    ("placement.collapses", t.c.collapses);
    ("placement.degraded_collapses", t.c.degraded_collapses);
    ("placement.reconciles", t.c.reconciles);
    ("placement.migrations", t.c.migrations);
    ("placement.live_replicas", live_replicas t);
    ("placement.shootdown_rounds", t.c.shootdown_rounds);
    ("placement.tlb_shootdowns", tlb_shootdowns t);
    ("placement.ptl_denied", t.c.ptl_denied);
  ]

(* Wire the collapse trigger into the fault path. Separate from [create]
   so callers construct the engine before deciding which machine owns
   it; [Machine.attach_placement] calls this exactly once. *)
let install_write_hook t =
  Stramash_fault.set_write_hook t.faults (fun ~proc ~node ~vaddr ->
      on_write_fault t ~proc ~node ~vaddr)
