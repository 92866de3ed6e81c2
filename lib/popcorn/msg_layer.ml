module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Metrics = Stramash_sim.Metrics
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Env = Stramash_kernel.Env
module Ring_buffer = Stramash_interconnect.Ring_buffer
module Tcp_link = Stramash_interconnect.Tcp_link
module Ipi = Stramash_interconnect.Ipi
module Plan = Stramash_fault_inject.Plan
module Fault = Stramash_fault_inject.Fault
module Integrity = Stramash_fault_inject.Integrity
module Liveness = Stramash_sim.Liveness
module Heartbeat = Stramash_interconnect.Heartbeat
module Trace = Stramash_obs.Trace

type kind = Shm | Tcp

type notify_mode = Ipi | Polling

type t = {
  kind : kind;
  env : Env.t;
  rings : unit Ring_buffer.t array; (* index = sender Node_id.index *)
  tcp : Tcp_link.t;
  staging : int array; (* per-node staging buffer paddr for TCP serialisation *)
  notify_kind : notify_mode;
  inject : Plan.t option;
  heartbeat : Heartbeat.t option;
  counts : Metrics.registry;
  mutable total : int;
}

(* Mean delay until a polling receiver notices a new message, and the
   busy-work it burns per message while spinning on the ring head. *)
let poll_notice_cycles = 400
let poll_busy_cycles = 300

(* Geometry of each direction's SHM ring. *)
let ring_slots = 512
let slot_bytes = 256

let create kind env ?(notify = Ipi) ?tcp ?inject ?heartbeat () =
  let ring sender_index =
    let sender = Node_id.of_index sender_index in
    (* Each direction gets half of a dedicated slice of the ring area. *)
    let base = Layout.message_ring.Layout.lo + (sender_index * Addr.mib 32) in
    Ring_buffer.create ~cache:env.Env.cache ~base ~slots:ring_slots ~slot_bytes ~sender
  in
  let staging =
    Array.map
      (fun kernel -> Stramash_kernel.Kheap.alloc kernel.Stramash_kernel.Kernel.kheap ~bytes:Addr.page_size)
      env.Env.kernels
  in
  {
    kind;
    env;
    rings = [| ring 0; ring 1 |];
    tcp = (match tcp with Some l -> l | None -> Tcp_link.create ());
    staging;
    notify_kind = notify;
    inject;
    heartbeat;
    counts = Metrics.registry ();
    total = 0;
  }

let transport t = t.kind
let notify_mode t = t.notify_kind
let heartbeat t = t.heartbeat

(* Heartbeats ride the message layer but are deliberately kept out of the
   RPC counters: they are liveness chatter, not workload traffic, and
   their rate (one per scheduling quantum) would drown the message-count
   results the experiments compare. *)
let heartbeat_tick t ~src ~now =
  match t.heartbeat with
  | None -> ()
  | Some hb ->
      if Trace.enabled () then
        Trace.instant ~at:now ~node:src
          ~flow:(Trace.fresh_flow ~node:src)
          ~subsys:"heartbeat" ~op:"beat" ();
      Heartbeat.beat hb ~node:src ~now;
      Metrics.incr t.counts "heartbeat"

let shm_notify_latency t ~dst =
  match t.notify_kind with
  | Ipi ->
      let d =
        Ipi.cross_isa_delivery ?inject:t.inject ~peer:dst
          ~now:(Meter.get (Env.meter t.env dst)) ()
      in
      (* A lost IPI is noticed by the receiver's backstop poll; it burns
         spin work while the sender waits out the detection timeout. *)
      if d.Ipi.lost then Meter.add (Env.meter t.env dst) poll_busy_cycles;
      d.Ipi.cycles
  | Polling ->
      (* the receiver pays its spin work; the sender only waits for the
         next poll to come around *)
      Meter.add (Env.meter t.env dst) poll_busy_cycles;
      poll_notice_cycles

let count t label =
  Metrics.incr t.counts label;
  t.total <- t.total + 1

(* Move one message from [src] to [dst]; returns the extra latency the
   sender observes before the handler can start (notification). Send-side
   work is charged to [src]'s meter, receive-side to [dst]'s. *)
let convey t ~src ~bytes =
  let dst = Node_id.other src in
  match t.kind with
  | Shm ->
      let ring = t.rings.(Node_id.index src) in
      (* RPCs are synchronous, so the ring never actually fills; drain
         defensively if it somehow did. *)
      (match Ring_buffer.send ring ~payload_bytes:bytes () with
      | Ok cost -> Meter.add (Env.meter t.env src) cost
      | Error `Full ->
          while Ring_buffer.length ring > 0 do
            ignore (Ring_buffer.recv ring)
          done;
          (match Ring_buffer.send ring ~payload_bytes:bytes () with
          | Ok cost -> Meter.add (Env.meter t.env src) cost
          | Error `Full -> invalid_arg "Msg_layer: message larger than ring"));
      let recv_cost = match Ring_buffer.recv ring with Some (c, ()) -> c | None -> 0 in
      Meter.add (Env.meter t.env dst) recv_cost;
      shm_notify_latency t ~dst
  | Tcp ->
      (* Serialise into the staging page (bounced through the cache),
         then pay the wire latency; receiver deserialises. *)
      let src_buf = t.staging.(Node_id.index src) in
      let dst_buf = t.staging.(Node_id.index dst) in
      let chunk = min bytes Addr.page_size in
      Env.charge_bytes_store t.env src ~paddr:src_buf ~len:chunk;
      Env.charge_bytes_load t.env dst ~paddr:dst_buf ~len:chunk;
      Tcp_link.one_way_cycles t.tcp ~payload_bytes:bytes

(* Like [convey], but under a fault plan each attempt may be dropped or —
   when a corruption schedule is armed — arrive with a damaged or
   truncated payload that the receiver's CRC32 framing check rejects: the
   sender burns the detection timeout plus exponential backoff, retries up
   to the plan's cap, and finally escalates to the reliable (always
   delivered) slow path so forward progress is guaranteed. Returns the
   latency the sender observes before the handler can start. *)
let deliver_untraced ?(label = "msg") t ~src ~bytes =
  match t.inject with
  | None -> convey t ~src ~bytes
  | Some plan ->
      let dst = Node_id.other src in
      (* Per-message CRC framing: the sender seals every attempt, the
         receiver verifies every arrival. Charged only when corruption is
         armed, so unarmed plans stay bit-identical to the pre-framing
         model. *)
      let crc_cost =
        if Plan.corruption_armed plan then Integrity.msg_crc_cycles ~bytes else 0
      in
      (* Deliver with gray effects on top of the base notify latency: a
         slow-window on the receiver inflates the sender-observed RTT,
         duplicates cost the receiver a discard, reordering adds queue
         delay. The completed RTT (or the drop) feeds the peer's health
         score, and backoff is health-adaptive and jittered. *)
      let finish burned extra =
        if burned > 0 then Plan.record_recovery plan ~cycles:burned;
        let now = Meter.get (Env.meter t.env src) in
        let base = convey t ~src ~bytes in
        let inflated = Plan.inflate plan ~node:dst ~now ~cycles:(base + extra) in
        let reorder = Plan.msg_reorder_extra plan in
        if Plan.msg_duplicated plan then
          (* receiver dequeues and discards the duplicate *)
          Meter.add (Env.meter t.env dst) poll_busy_cycles;
        let total = base + extra + inflated + reorder in
        Plan.observe_msg_rtt plan ~peer:dst ~cycles:total ~nominal:base ~now;
        total
      in
      (* Retransmit-with-backoff shared by drops and CRC rejections; the
         escalated reliable path re-frames the payload and always
         delivers clean, so a corrupt stream can delay but never wedge. *)
      let backoff_then ~attempt ~burned ~now retry =
        Plan.observe_failure plan ~peer:dst ~now;
        let pay = Plan.msg_backoff_for plan ~peer:dst ~attempt in
        Meter.add (Env.meter t.env src) pay;
        let burned = burned + pay in
        if Plan.msg_attempts_exhausted ~attempt:(attempt + 1) then begin
          Plan.note_msg_escalation plan;
          Plan.record_recovery plan ~cycles:burned;
          if crc_cost > 0 then begin
            Meter.add (Env.meter t.env src) crc_cost;
            Meter.add (Env.meter t.env dst) crc_cost
          end;
          finish 0 0
        end
        else begin
          Plan.note_msg_retry plan;
          retry (attempt + 1) burned
        end
      in
      let rec attempt_loop attempt burned =
        let now = Meter.get (Env.meter t.env src) in
        match Plan.msg_attempt_at plan ~now with
        | `Deliver extra -> (
            if crc_cost > 0 then Meter.add (Env.meter t.env src) crc_cost;
            match Plan.msg_corrupt_verdict plan with
            | `Clean ->
                if crc_cost > 0 then Meter.add (Env.meter t.env dst) crc_cost;
                finish burned extra
            | `Corrupt | `Truncated ->
                (* The damaged attempt still crosses the wire; the
                   receiver's framing check rejects it and the payload is
                   discarded before any handler sees it. *)
                ignore (convey t ~src ~bytes);
                if crc_cost > 0 then Meter.add (Env.meter t.env dst) crc_cost;
                Plan.note_msg_corruption_detected plan;
                if Trace.enabled () then
                  Trace.instant ~subsys:"msg" ~op:"crc_reject"
                    ~tags:
                      [
                        ( "error",
                          Fault.to_string
                            (Fault.Corrupt_message { label; attempts = attempt + 1 }) );
                      ]
                    ();
                backoff_then ~attempt ~burned ~now attempt_loop)
        | `Drop -> backoff_then ~attempt ~burned ~now attempt_loop
      in
      attempt_loop 0 0

let deliver ?label t ~src ~bytes =
  if not (Trace.enabled ()) then deliver_untraced ?label t ~src ~bytes
  else begin
    let meter = Env.meter t.env src in
    let sp =
      Trace.span ~at:(Meter.get meter)
        ~tags:[ ("bytes", string_of_int bytes) ]
        ~node:src ~subsys:"msg" ~op:"send" ()
    in
    let latency = deliver_untraced ?label t ~src ~bytes in
    Trace.close ~at:(Meter.get meter) sp;
    Trace.instant ~node:(Node_id.other src) ~subsys:"msg" ~op:"deliver" ();
    latency
  end

(* A message aimed at a crash-stopped peer is a dead letter: nothing
   dequeues it and no handler will ever run. Rather than silently dropping
   (or timing out through the injection path, which models *transient*
   loss), the send fails fast with a typed error so callers choose their
   degraded path explicitly. *)
let dead_letter t ~dst ~label ~op =
  (match t.inject with Some plan -> Plan.note_dead_node_message plan | None -> ());
  if Trace.enabled () then
    Trace.instant ~subsys:"msg" ~op:"dead_letter"
      ~tags:[ ("label", label); ("dst", Node_id.to_string dst) ]
      ();
  Error (Fault.Node_dead { node = Node_id.to_string dst; op })

(* Record a span with explicit endpoints on [node] carrying [flow]: the
   responder-side hops of an RPC, synthesized in the *requester's* clock
   so the flow's critical path lives in one clock domain and its hops
   tile the end-to-end interval exactly. *)
let synth_hop ~node ~flow ~subsys ~op ts te =
  if te > ts then
    Trace.with_flow ~node ~flow (fun () ->
        Trace.close ~at:te (Trace.span ~at:ts ~node ~subsys ~op ()))

let do_rpc t ~src ~label ~req_bytes ~resp_bytes ~handler =
  let dst = Node_id.other src in
  let src_meter = Env.meter t.env src in
  let dst_meter = Env.meter t.env dst in
  let sp =
    if Trace.enabled () then
      Trace.span ~at:(Meter.get src_meter)
        ~tags:[ ("label", label) ]
        ~flow_root:true ~node:src ~subsys:"msg" ~op:"rpc" ()
    else Trace.null
  in
  let flow = Trace.flow_of sp in
  count t label;
  let rpc_start = Meter.get src_meter in
  let notify_latency = deliver ~label t ~src ~bytes:req_bytes in
  let send_end = Meter.get src_meter in
  Meter.add src_meter notify_latency;
  let t1 = Meter.get src_meter in
  if sp != Trace.null then synth_hop ~node:dst ~flow ~subsys:"interconnect" ~op:"request" send_end t1;
  (* Peer handles the request; the requester blocks for that long. The
     responder's own spans record in its clock under the requester's flow. *)
  let handler_cycles =
    Meter.delta dst_meter (fun () -> Trace.with_flow ~node:dst ~flow handler)
  in
  Meter.add src_meter handler_cycles;
  let t2 = Meter.get src_meter in
  if sp != Trace.null then synth_hop ~node:dst ~flow ~subsys:"msg" ~op:"serve" t1 t2;
  (* Response. *)
  count t (label ^ "_reply");
  let reply_notify = ref 0 in
  let reply_latency =
    Meter.delta dst_meter (fun () ->
        Trace.with_flow ~node:dst ~flow (fun () ->
            reply_notify := deliver ~label:(label ^ "_reply") t ~src:dst ~bytes:resp_bytes))
  in
  Meter.add src_meter reply_latency;
  Meter.add src_meter !reply_notify;
  let t3 = Meter.get src_meter in
  (match t.inject with
  | Some plan -> Plan.record_op plan ~op:"msg_rpc" ~cycles:(t3 - rpc_start)
  | None -> ());
  if sp != Trace.null then begin
    synth_hop ~node:src ~flow ~subsys:"interconnect" ~op:"reply" t2 t3;
    (* Everything after the request left the sender is serialized behind
       the remote side: notification, remote handling, and the reply. *)
    Trace.add_blocked ~node:src ~subsys:"msg" (t3 - send_end);
    Trace.close ~at:t3 sp
  end

let rpc_checked t ~src ~label ~req_bytes ~resp_bytes ~handler =
  let dst = Node_id.other src in
  if not (Liveness.is_alive t.env.Env.liveness dst) then dead_letter t ~dst ~label ~op:"rpc"
  else Ok (do_rpc t ~src ~label ~req_bytes ~resp_bytes ~handler)

let rpc t ~src ~label ~req_bytes ~resp_bytes ~handler =
  Fault.get_exn (rpc_checked t ~src ~label ~req_bytes ~resp_bytes ~handler)

let do_notify t ~src ~label ~bytes ~handler =
  let dst = Node_id.other src in
  let src_meter = Env.meter t.env src in
  let sp =
    if Trace.enabled () then
      Trace.span ~at:(Meter.get src_meter)
        ~tags:[ ("label", label) ]
        ~flow_root:true ~node:src ~subsys:"msg" ~op:"notify" ()
    else Trace.null
  in
  let flow = Trace.flow_of sp in
  count t label;
  let lat = deliver ~label t ~src ~bytes in
  ignore lat;
  (* The peer processes the message on its own time, under the sender's
     flow so its spans still stitch to the notification. *)
  ignore
    (Meter.delta (Env.meter t.env dst) (fun () -> Trace.with_flow ~node:dst ~flow handler));
  if sp != Trace.null then Trace.close ~at:(Meter.get src_meter) sp

let notify_checked t ~src ~label ~bytes ~handler =
  let dst = Node_id.other src in
  if not (Liveness.is_alive t.env.Env.liveness dst) then dead_letter t ~dst ~label ~op:"notify"
  else Ok (do_notify t ~src ~label ~bytes ~handler)

let notify t ~src ~label ~bytes ~handler =
  Fault.get_exn (notify_checked t ~src ~label ~bytes ~handler)

let record_async t ~label = count t label

let message_count t = t.total
let count_for t label = Metrics.get t.counts label
let counts t = List.map (fun name -> (name, Metrics.get t.counts name)) (Metrics.names t.counts)

let reset_counts t =
  Metrics.reset t.counts;
  t.total <- 0
