module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Rng = Stramash_sim.Rng
module Env = Stramash_kernel.Env
module Process = Stramash_kernel.Process
module Thread = Stramash_kernel.Thread
module Migrate_state = Stramash_isa.Migrate_state
module Msg_layer = Stramash_popcorn.Msg_layer

type t = {
  env : Env.t;
  msg : Msg_layer.t;
  faults : Stramash_fault.t;
  futexes : Stramash_futex.t;
  global_alloc : Global_alloc.t;
  futex_optimized : bool;
}

let create ?(futex_optimized = true) ?inject env () =
  let module Plan = Stramash_fault_inject.Plan in
  let heartbeat =
    (* Only chaos schedules attach the watchdog: plain runs carry no
       heartbeat traffic and stay bit-identical to pre-chaos builds. *)
    match inject with
    | Some plan when Plan.chaos_armed plan -> Some (Stramash_interconnect.Heartbeat.create ())
    | _ -> None
  in
  let msg = Msg_layer.create Msg_layer.Shm env ?inject ?heartbeat () in
  let global_alloc = Global_alloc.create env ~rng:(Rng.create ~seed:0x57A3A54L) () in
  let faults = Stramash_fault.create ?inject ~global_alloc env msg in
  let futexes = Stramash_futex.create env faults in
  { env; msg; faults; futexes; global_alloc; futex_optimized }

let futex_optimized t = t.futex_optimized
let inject t = Stramash_fault.inject t.faults

let env t = t.env
let faults t = t.faults
let futexes t = t.futexes
let msg t = t.msg
let global_alloc t = t.global_alloc

let handle_fault t ~proc ~node ~vaddr ~write =
  Stramash_fault.handle_fault t.faults ~proc ~node ~vaddr ~write

(* Migration still uses one message round for the handshake (the thread's
   registers travel by reference through the fused VAS; only a descriptor
   is exchanged), then the destination performs state transformation. *)
let migrate t ~proc ~thread ~dst ~point =
  let src = thread.Thread.node in
  if Node_id.equal src dst then invalid_arg "Stramash_os.migrate: already on destination";
  let module Trace = Stramash_obs.Trace in
  let src_meter = Env.meter t.env src in
  let sp =
    if Trace.enabled () then
      Trace.span ~at:(Meter.get src_meter)
        ~tags:[ ("dst", Node_id.to_string dst) ]
        ~flow_root:true ~node:src ~subsys:"migrate" ~op:"transfer" ()
    else Trace.null
  in
  Msg_layer.rpc t.msg ~src ~label:"migrate" ~req_bytes:256 ~resp_bytes:64 ~handler:(fun () ->
      ignore (Env.ensure_mm t.env ~proc ~node:dst);
      Meter.add (Env.meter t.env dst) Migrate_state.transform_cost_instructions);
  if sp != Trace.null then Trace.close ~at:(Meter.get src_meter) sp;
  thread.Thread.cpu <-
    Migrate_state.transform ~src:thread.Thread.cpu ~point ~dst_prog:(Process.image proc dst);
  thread.Thread.node <- dst;
  thread.Thread.migrations <- thread.Thread.migrations + 1

(* With the optimisation off, a non-origin caller falls back to the
   origin-managed message protocol (the Fig. 13 "regular" case): the op is
   requested over the messaging layer and executed by the origin kernel. *)
let futex_wait t ~proc ~thread ~uaddr ~expected =
  let node = thread.Thread.node in
  let origin = proc.Process.origin in
  if t.futex_optimized || Node_id.equal node origin then
    Stramash_futex.wait t.futexes ~proc ~thread ~uaddr ~expected
  else begin
    let decision = ref `Proceed in
    Msg_layer.rpc t.msg ~src:node ~label:"futex_wait" ~req_bytes:96 ~resp_bytes:64
      ~handler:(fun () ->
        decision :=
          Stramash_futex.wait_acting t.futexes ~actor:origin ~proc ~thread ~uaddr ~expected);
    !decision
  end

let exit_process t ~proc = Stramash_fault.exit_process t.faults ~proc

let futex_wake t ~proc ~thread ~threads ~uaddr ~nwake =
  let node = thread.Thread.node in
  let origin = proc.Process.origin in
  if t.futex_optimized || Node_id.equal node origin then
    Stramash_futex.wake t.futexes ~proc ~thread ~threads ~uaddr ~nwake
  else begin
    let woken = ref [] in
    Msg_layer.rpc t.msg ~src:node ~label:"futex_wake" ~req_bytes:96 ~resp_bytes:64
      ~handler:(fun () ->
        woken := Stramash_futex.wake_acting t.futexes ~actor:origin ~proc ~threads ~uaddr ~nwake);
    !woken
  end

(* --- crash-stop plumbing (driven by the machine runner) ----------------- *)

let heartbeat t = Msg_layer.heartbeat t.msg
let heartbeat_tick t ~src ~now = Msg_layer.heartbeat_tick t.msg ~src ~now
let node_down t node = Stramash_fault.node_down t.faults node

let on_node_death t ~procs ~threads ~node ~now =
  Stramash_fault.on_node_death t.faults ~procs ~threads ~node ~now

let on_peer_detected t ~node ~now = Stramash_fault.on_peer_detected t.faults ~node ~now

let on_node_restart t ~procs ~node ~now =
  Stramash_fault.on_node_restart t.faults ~procs ~node ~now
