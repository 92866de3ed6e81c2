module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Env = Stramash_kernel.Env
module Layout = Stramash_mem.Layout
module Fault = Stramash_fault_inject.Fault
module Plan = Stramash_fault_inject.Plan
module Trace = Stramash_obs.Trace

(* A timed-out PTL acquire backs off this long before retrying (also the
   nominal cost of an uncontended acquire the health score compares
   against), and gives up with [Lock_timeout] after this many attempts. *)
let ptl_backoff_cycles = Stramash_sim.Cycles.of_us 1.0
let ptl_max_attempts = 4

(* Ownership is a fencing token, not a bare node id: the epoch is the
   holder's liveness epoch at acquisition time. Every crash and every
   restart bumps the node's epoch, so a token minted before a crash can
   never match the node's current epoch again — a zombie restart replaying
   its pre-crash token is rejected instead of silently re-acquiring stale
   ownership. *)
type token = { node : Node_id.t; epoch : int }

type t = {
  env : Env.t;
  lock_addr : int;
  mutable held_by : token option;
  mutable acquisitions : int;
  mutable remote_acquisitions : int;
  mutable breaks : int;
  mutable stale_rejections : int;
}

let create env ~lock_addr =
  {
    env;
    lock_addr;
    held_by = None;
    acquisitions = 0;
    remote_acquisitions = 0;
    breaks = 0;
    stale_rejections = 0;
  }

let lock_addr t = t.lock_addr
let is_held t = t.held_by <> None
let holder t = Option.map (fun tok -> tok.node) t.held_by
let mint t ~actor = { node = actor; epoch = Env.node_epoch t.env actor }

let with_lock t ~actor f =
  if t.held_by <> None then
    invalid_arg "Stramash_ptl.with_lock: lock already held (kernel entry not serialised)";
  let traced = Trace.enabled () in
  let meter = Env.meter t.env actor in
  let acq =
    if traced then
      Trace.span ~at:(Meter.get meter) ~flow_root:true ~node:actor ~subsys:"ptl" ~op:"acquire" ()
    else Trace.null
  in
  let acq_start = Meter.get meter in
  Env.charge_atomic t.env actor ~paddr:t.lock_addr;
  t.held_by <- Some (mint t ~actor);
  t.acquisitions <- t.acquisitions + 1;
  let remote =
    match Layout.locality t.env.Env.hw_model ~node:actor t.lock_addr with
    | Layout.Remote ->
        t.remote_acquisitions <- t.remote_acquisitions + 1;
        true
    | Layout.Local -> false
  in
  if traced then begin
    let acq_end = Meter.get meter in
    (* A remote acquisition is one coherent atomic serialized behind the
       other node's cache line — the whole CAS is blocked-on-remote. *)
    if remote then Trace.add_blocked ~node:actor ~subsys:"ptl" (acq_end - acq_start);
    Trace.close ~at:acq_end ~tags:[ ("remote", string_of_bool remote) ] acq
  end;
  let crit =
    if traced then Trace.span ~at:(Meter.get meter) ~node:actor ~subsys:"ptl" ~op:"critical" ()
    else Trace.null
  in
  let finish () =
    Env.charge_store t.env actor ~paddr:t.lock_addr;
    t.held_by <- None;
    if traced then Trace.close ~at:(Meter.get meter) crit
  in
  match f () with
  | result ->
      finish ();
      result
  | exception e ->
      finish ();
      raise e

(* Like [with_lock], but under a fault plan the CAS may time out: the
   actor pays a backoff and retries up to the plan's cap, after which the
   caller gets a typed error and degrades (the fault handler then takes
   the origin-fallback path rather than crashing). *)
let try_with_lock t ~actor ?inject f =
  match inject with
  | None -> Ok (with_lock t ~actor f)
  | Some plan ->
      let meter = Env.meter t.env actor in
      let sp =
        if Trace.enabled () then
          Trace.span ~at:(Meter.get meter) ~flow_root:true ~node:actor ~subsys:"ptl"
            ~op:"contend" ()
        else Trace.null
      in
      let peer = Node_id.other actor in
      let rec acquire attempt burned =
        let now = Meter.get meter in
        if Plan.ptl_acquire_timed_out plan then begin
          Plan.observe_failure plan ~peer ~now;
          let pay = ptl_backoff_cycles in
          Meter.add (Env.meter t.env actor) pay;
          if attempt + 1 >= ptl_max_attempts then
            Error (Fault.Lock_timeout { lock_addr = t.lock_addr; attempts = attempt + 1 })
          else acquire (attempt + 1) (burned + pay)
        end
        else begin
          if burned > 0 then Plan.record_recovery plan ~cycles:burned;
          (* A lock-holder stall window models the peer sitting on the
             PTL: the actor spins that long before its CAS lands. *)
          let stall = Plan.ptl_stall_extra plan ~now in
          if stall > 0 then Meter.add meter stall;
          let acquire_cycles = burned + stall + ptl_backoff_cycles in
          Plan.record_op plan ~op:"ptl_acquire" ~cycles:acquire_cycles;
          Plan.observe_service plan ~peer ~cycles:acquire_cycles
            ~nominal:ptl_backoff_cycles ~now:(Meter.get meter);
          Ok (with_lock t ~actor f)
        end
      in
      let result = acquire 0 0 in
      if sp != Trace.null then
        Trace.close ~at:(Meter.get meter)
          ~tags:[ ("ok", match result with Ok _ -> "true" | Error _ -> "false") ]
          sp;
      result

let acquisitions t = t.acquisitions
let remote_acquisitions t = t.remote_acquisitions
let breaks t = t.breaks
let stale_rejections t = t.stale_rejections

(* --- explicit token protocol (crash-stop model) ------------------------- *)

let token_current t tok = tok.epoch = Env.node_epoch t.env tok.node

let stale t tok =
  t.stale_rejections <- t.stale_rejections + 1;
  Error (Fault.Stale_token { lock_addr = t.lock_addr; node = Node_id.to_string tok.node; epoch = tok.epoch })

let acquire t ~actor =
  if not (Env.node_alive t.env actor) then
    Error (Fault.Node_dead { node = Node_id.to_string actor; op = "ptl_acquire" })
  else
    match t.held_by with
    | Some _ -> Error (Fault.Lock_timeout { lock_addr = t.lock_addr; attempts = 1 })
    | None ->
        Env.charge_atomic t.env actor ~paddr:t.lock_addr;
        let tok = mint t ~actor in
        t.held_by <- Some tok;
        t.acquisitions <- t.acquisitions + 1;
        Ok tok

(* A zombie replaying its pre-crash token to claim it still owns the lock.
   The CAS really happens (and is charged), but the fencing epoch check
   rejects any token from a superseded incarnation. *)
let reacquire t ~token =
  if not (Env.node_alive t.env token.node) then
    Error (Fault.Node_dead { node = Node_id.to_string token.node; op = "ptl_reacquire" })
  else begin
    Env.charge_atomic t.env token.node ~paddr:t.lock_addr;
    if not (token_current t token) then stale t token
    else
      match t.held_by with
      | Some held when held = token -> Ok ()
      | Some _ -> Error (Fault.Lock_timeout { lock_addr = t.lock_addr; attempts = 1 })
      | None ->
          t.held_by <- Some token;
          t.acquisitions <- t.acquisitions + 1;
          Ok ()
  end

let release t ~token =
  if not (Env.node_alive t.env token.node) then
    Error (Fault.Node_dead { node = Node_id.to_string token.node; op = "ptl_release" })
  else begin
    Env.charge_store t.env token.node ~paddr:t.lock_addr;
    if not (token_current t token) then stale t token
    else
      match t.held_by with
      | Some held when held = token ->
          t.held_by <- None;
          Ok ()
      | _ -> stale t token
  end

(* Survivor-side lock break: the word is force-cleared by [actor] once the
   watchdog has declared the holder dead. The store is real work and is
   charged to the breaker. *)
let break_dead t ~actor =
  match t.held_by with
  | Some tok when not (Env.node_alive t.env tok.node) ->
      Env.charge_store t.env actor ~paddr:t.lock_addr;
      t.held_by <- None;
      t.breaks <- t.breaks + 1;
      if Trace.enabled () then
        Trace.instant ~node:actor ~subsys:"ptl" ~op:"break_dead"
          ~tags:
            [
              ("holder", Node_id.to_string tok.node);
              ("epoch", string_of_int tok.epoch);
              ("lock", Printf.sprintf "0x%x" t.lock_addr);
            ]
          ();
      true
  | _ -> false
