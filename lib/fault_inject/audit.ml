module Node_id = Stramash_sim.Node_id
module Liveness = Stramash_sim.Liveness
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Frame_alloc = Stramash_kernel.Frame_alloc
module Futex = Stramash_kernel.Futex
module Page_table = Stramash_kernel.Page_table
module Pte = Stramash_kernel.Pte
module Process = Stramash_kernel.Process
module Thread = Stramash_kernel.Thread
module Vma = Stramash_kernel.Vma

type violation = { check : string; detail : string }
type report = { checks : int; violations : violation list }

let is_clean r = r.violations = []

let pp fmt r =
  Format.fprintf fmt "audit: %d checks, %d violations@." r.checks (List.length r.violations);
  List.iter (fun v -> Format.fprintf fmt "  [%s] %s@." v.check v.detail) r.violations

let frame_owner env paddr =
  List.find_opt
    (fun node -> Frame_alloc.owns_address (Env.kernel env node).Kernel.frames paddr)
    Node_id.all

(* VMAs live only at the origin; remote mms borrow the origin's ranges
   (paper §6.4), so every table is audited against the origin VMA list. *)
let origin_ranges proc =
  let omm = Process.mm_exn proc proc.Process.origin in
  let ranges = ref [] in
  Vma.iter omm.Process.vmas ~f:(fun vma ->
      ranges := (vma.Vma.v_start, vma.Vma.v_end) :: !ranges);
  List.rev !ranges

let iter_leaves env ~proc ~f =
  (* Auditing must observe, not perturb: walks are free of cache charges
     and must never fault in a directory page. *)
  let io = Env.silent_io env in
  let ranges = origin_ranges proc in
  List.iter
    (fun (node, mm) ->
      List.iter
        (fun (v_start, v_end) ->
          let vaddr = ref v_start in
          while !vaddr < v_end do
            let leaf = Page_table.walk mm.Process.pgtable io ~vaddr:!vaddr in
            if Pte.present leaf then
              f ~node ~vaddr:!vaddr ~paddr:(Pte.frame ~isa:node leaf lsl Addr.page_shift) ~leaf;
            vaddr := !vaddr + Addr.page_size
          done)
        ranges)
    proc.Process.mms

let run ~env ~procs ?threads ?held ?ledger ?(extra = []) () =
  let checks = ref 0 in
  let violations = ref [] in
  let bad check detail = violations := { check; detail } :: !violations in
  let global_frames = Hashtbl.create 256 in
  List.iter
    (fun proc ->
      let origin = proc.Process.origin in
      let proc_frames = Hashtbl.create 64 in
      iter_leaves env ~proc ~f:(fun ~node ~vaddr ~paddr ~leaf ->
          incr checks;
          match frame_owner env paddr with
          | None ->
              bad "frame-owner"
                (Printf.sprintf "pid=%d %s vaddr=0x%x maps paddr=0x%x owned by no allocator"
                   proc.Process.pid (Node_id.to_string node) vaddr paddr)
          | Some owner ->
              incr checks;
              if not (Frame_alloc.is_allocated (Env.kernel env owner).Kernel.frames paddr) then
                bad "frame-allocated"
                  (Printf.sprintf "pid=%d %s vaddr=0x%x maps freed frame paddr=0x%x"
                     proc.Process.pid (Node_id.to_string node) vaddr paddr);
              (* The remote-owned software bit is meaningful only in the
                 origin's table: set exactly when the other kernel installed
                 the PTE out of its own memory (so the origin must not free
                 the frame at teardown). *)
              if Node_id.equal node origin then begin
                incr checks;
                let expect = not (Node_id.equal owner origin) in
                let remote_owned = Pte.remote_owned ~isa:node leaf in
                if remote_owned <> expect then
                  bad "remote-owned-flag"
                    (Printf.sprintf
                       "pid=%d origin table vaddr=0x%x: remote_owned=%b but frame owner is %s"
                       proc.Process.pid vaddr remote_owned (Node_id.to_string owner))
              end;
              (* Shared intent: both kernels may map one frame only at the
                 same vaddr (the §6.4 shared-frame fast path). *)
              incr checks;
              (match Hashtbl.find_opt proc_frames paddr with
              | Some v when v <> vaddr ->
                  bad "shared-intent"
                    (Printf.sprintf "pid=%d frame 0x%x mapped at both 0x%x and 0x%x"
                       proc.Process.pid paddr v vaddr)
              | Some _ -> ()
              | None -> Hashtbl.add proc_frames paddr vaddr);
              incr checks;
              (match Hashtbl.find_opt global_frames paddr with
              | Some pid when pid <> proc.Process.pid ->
                  bad "cross-process-alias"
                    (Printf.sprintf "frame 0x%x mapped by both pid=%d and pid=%d" paddr pid
                       proc.Process.pid)
              | _ -> Hashtbl.replace global_frames paddr proc.Process.pid)))
    procs;
  (* Futex waiter lists: every queued tid must name an existing thread,
     blocked on exactly that futex word, on a live node (dead-node waiters
     are parked in the downtime holding area, never left in a queue). *)
  (match threads with
  | None -> ()
  | Some threads ->
      let liveness = env.Env.liveness in
      let find tid = List.find_opt (fun th -> th.Thread.tid = tid) threads in
      List.iter
        (fun node ->
          let futexes = (Env.kernel env node).Kernel.futexes in
          Futex.iter_waiters futexes ~f:(fun ~uaddr ~tid ->
              incr checks;
              match find tid with
              | None ->
                  bad "futex-waiter"
                    (Printf.sprintf "%s bucket 0x%x queues absent tid=%d"
                       (Node_id.to_string node) uaddr tid)
              | Some th ->
                  incr checks;
                  if not (Liveness.is_alive liveness th.Thread.node) then
                    bad "futex-waiter"
                      (Printf.sprintf "%s bucket 0x%x queues tid=%d of dead node %s"
                         (Node_id.to_string node) uaddr tid
                         (Node_id.to_string th.Thread.node));
                  incr checks;
                  (match th.Thread.state with
                  | Thread.Blocked_futex u when u = uaddr -> ()
                  | st ->
                      bad "futex-waiter"
                        (Format.asprintf "%s bucket 0x%x queues tid=%d in state %a"
                           (Node_id.to_string node) uaddr tid Thread.pp_state st))))
        Node_id.all;
      (* the holding area is the dual: only dead-node threads may park there *)
      List.iter
        (fun (uaddr, tid) ->
          incr checks;
          match find tid with
          | None ->
              bad "futex-held"
                (Printf.sprintf "holding area parks absent tid=%d (uaddr=0x%x)" tid uaddr)
          | Some th ->
              incr checks;
              if Liveness.is_alive liveness th.Thread.node then
                bad "futex-held"
                  (Printf.sprintf "holding area parks tid=%d but node %s is alive" tid
                     (Node_id.to_string th.Thread.node)))
        (Option.value ~default:[] held));
  (* Hotplug ledger: a donated block is either owned by a live node or
     orphaned by a dead one — a dead node's non-orphaned block escaped the
     death sweep; an orphaned block under a live owner escaped restart
     re-adoption. *)
  (match ledger with
  | None -> ()
  | Some entries ->
      let liveness = env.Env.liveness in
      List.iter
        (fun (owner, (region : Layout.region), orphaned) ->
          incr checks;
          let alive = Liveness.is_alive liveness owner in
          if orphaned && alive then
            bad "hotplug-ledger"
              (Printf.sprintf "block 0x%x-0x%x orphaned but owner %s is alive" region.Layout.lo
                 region.Layout.hi (Node_id.to_string owner));
          if (not orphaned) && not alive then
            bad "hotplug-ledger"
              (Printf.sprintf "block 0x%x-0x%x owned by dead node %s and not orphaned"
                 region.Layout.lo region.Layout.hi (Node_id.to_string owner)))
        entries);
  List.iter
    (fun (name, ok) ->
      incr checks;
      if not ok then bad "extra" name)
    extra;
  { checks = !checks; violations = List.rev !violations }

let mapped_frames ~env ~proc =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  iter_leaves env ~proc ~f:(fun ~node:_ ~vaddr:_ ~paddr ~leaf:_ ->
      if not (Hashtbl.mem seen paddr) then begin
        Hashtbl.add seen paddr ();
        match frame_owner env paddr with
        | Some owner -> acc := (owner, paddr) :: !acc
        | None -> ()
      end);
  List.rev !acc

let check_teardown ~env ~procs ~mapped =
  let checks = ref 0 in
  let violations = ref [] in
  let bad check detail = violations := { check; detail } :: !violations in
  List.iter
    (fun proc ->
      iter_leaves env ~proc ~f:(fun ~node ~vaddr ~paddr:_ ~leaf:_ ->
          incr checks;
          bad "teardown-leaf"
            (Printf.sprintf "pid=%d %s table still maps vaddr=0x%x after exit" proc.Process.pid
               (Node_id.to_string node) vaddr)))
    procs;
  List.iter
    (fun (owner, paddr) ->
      incr checks;
      if Frame_alloc.is_allocated (Env.kernel env owner).Kernel.frames paddr then
        bad "frame-leak"
          (Printf.sprintf "frame 0x%x (owner %s) still allocated after exit" paddr
             (Node_id.to_string owner)))
    mapped;
  { checks = !checks; violations = List.rev !violations }
