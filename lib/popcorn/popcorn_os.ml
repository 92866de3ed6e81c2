module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Futex = Stramash_kernel.Futex
module Process = Stramash_kernel.Process
module Thread = Stramash_kernel.Thread
module Migrate_state = Stramash_isa.Migrate_state
module Interp = Stramash_isa.Interp

type t = { env : Env.t; dsm : Dsm.t }

let create env kind ?notify ?tcp ?inject () =
  let msg = Msg_layer.create kind env ?notify ?tcp ?inject () in
  { env; dsm = Dsm.create env msg }

let env t = t.env
let dsm t = t.dsm
let msg t = Dsm.msg_layer t.dsm

let handle_fault t ~proc ~node ~vaddr ~write = Dsm.handle_fault t.dsm ~proc ~node ~vaddr ~write

(* Thread state is serialised into the migration message (register file +
   kernel context, ~2 KB as in Popcorn's pcn_kmsg sizing for task state);
   the destination runs the state transformation. *)
let migrate t ~proc ~thread ~dst ~point =
  let src = thread.Thread.node in
  if Node_id.equal src dst then invalid_arg "Popcorn_os.migrate: already on destination";
  let module Trace = Stramash_obs.Trace in
  let src_meter = Env.meter t.env src in
  let sp =
    if Trace.enabled () then
      Trace.span ~at:(Meter.get src_meter)
        ~tags:[ ("dst", Node_id.to_string dst) ]
        ~flow_root:true ~node:src ~subsys:"migrate" ~op:"transfer" ()
    else Trace.null
  in
  Msg_layer.rpc (msg t) ~src ~label:"migrate" ~req_bytes:2048 ~resp_bytes:128
    ~handler:(fun () ->
      ignore (Env.ensure_mm t.env ~proc ~node:dst);
      Meter.add (Env.meter t.env dst) Migrate_state.transform_cost_instructions);
  if sp != Trace.null then Trace.close ~at:(Meter.get src_meter) sp;
  thread.Thread.cpu <-
    Migrate_state.transform ~src:thread.Thread.cpu ~point ~dst_prog:(Process.image proc dst);
  thread.Thread.node <- dst;
  thread.Thread.migrations <- thread.Thread.migrations + 1

let exit_process t ~proc = Dsm.exit_process t.dsm ~proc

let user_frame t ~proc ~node ~vaddr =
  match Dsm.frame_for_read t.dsm ~proc ~node ~vaddr with
  | Some frame -> frame
  | None -> (
      (match Dsm.handle_fault t.dsm ~proc ~node ~vaddr ~write:false with
      | Ok () -> ()
      | Error e -> raise (Stramash_fault_inject.Fault.Error e));
      match Dsm.frame_for_read t.dsm ~proc ~node ~vaddr with
      | Some frame -> frame
      | None ->
          invalid_arg
            (Printf.sprintf "Popcorn_os.user_frame: fault left 0x%x unmapped" vaddr))

(* Check the futex word and queue the caller, at the origin kernel. *)
let wait_at_origin t ~proc ~tid ~uaddr ~expected =
  let origin = proc.Process.origin in
  let kernel = Env.kernel t.env origin in
  let bucket = Futex.bucket_addr kernel.Kernel.futexes ~uaddr in
  Env.charge_atomic t.env origin ~paddr:bucket;
  let frame = user_frame t ~proc ~node:origin ~vaddr:uaddr in
  let word_paddr = frame + Addr.page_offset uaddr in
  Env.charge_load t.env origin ~paddr:word_paddr;
  let value = Phys_mem.read t.env.Env.phys word_paddr ~width:4 in
  if Int64.logand value 0xFFFFFFFFL = Int64.logand expected 0xFFFFFFFFL then begin
    Futex.enqueue_waiter kernel.Kernel.futexes ~uaddr ~tid;
    Env.charge_store t.env origin ~paddr:bucket;
    `Block
  end
  else `Proceed

let futex_wait t ~proc ~thread ~uaddr ~expected =
  let origin = proc.Process.origin in
  let node = thread.Thread.node in
  if Node_id.equal node origin then
    wait_at_origin t ~proc ~tid:thread.Thread.tid ~uaddr ~expected
  else begin
    let decision = ref `Proceed in
    Msg_layer.rpc (msg t) ~src:node ~label:"futex_wait" ~req_bytes:96 ~resp_bytes:64
      ~handler:(fun () ->
        decision := wait_at_origin t ~proc ~tid:thread.Thread.tid ~uaddr ~expected);
    !decision
  end

let wake_at_origin t ~proc ~threads ~uaddr ~nwake =
  let origin = proc.Process.origin in
  let kernel = Env.kernel t.env origin in
  let bucket = Futex.bucket_addr kernel.Kernel.futexes ~uaddr in
  Env.charge_atomic t.env origin ~paddr:bucket;
  let rec collect n acc =
    if n = 0 then List.rev acc
    else
      match Futex.dequeue_waiter kernel.Kernel.futexes ~uaddr with
      | None -> List.rev acc
      | Some tid -> collect (n - 1) (tid :: acc)
  in
  let woken = collect nwake [] in
  (* Waking a thread parked on another kernel instance requires a one-way
     message from the origin. *)
  List.iter
    (fun tid ->
      match List.find_opt (fun th -> th.Thread.tid = tid) threads with
      | Some th when not (Node_id.equal th.Thread.node origin) ->
          Msg_layer.notify (msg t) ~src:origin ~label:"futex_wake_remote" ~bytes:64
            ~handler:(fun () ->
              Env.charge_load t.env th.Thread.node
                ~paddr:(Futex.bucket_addr kernel.Kernel.futexes ~uaddr))
      | Some _ | None -> ())
    woken;
  woken

let futex_wake t ~proc ~thread ~threads ~uaddr ~nwake =
  let origin = proc.Process.origin in
  let node = thread.Thread.node in
  if Node_id.equal node origin then wake_at_origin t ~proc ~threads ~uaddr ~nwake
  else begin
    let woken = ref [] in
    Msg_layer.rpc (msg t) ~src:node ~label:"futex_wake" ~req_bytes:96 ~resp_bytes:64
      ~handler:(fun () -> woken := wake_at_origin t ~proc ~threads ~uaddr ~nwake);
    !woken
  end
