open Stramash_sim

type node_event = { node : Node_id.t; kill_at : int; restart_after : int option }

type gray_window = { g_node : Node_id.t; g_start : int; g_len : int; g_factor : float }
type flap_burst = { fl_start : int; fl_len : int; fl_drop_rate : float; fl_delay_cycles : int }
type ptl_stall = { st_start : int; st_len : int; st_stall_cycles : int }

type bit_flip = { bf_at : int; bf_node : int; bf_bits : int }

type config = {
  (* message layer *)
  msg_drop_rate : float;
  msg_delay_rate : float;
  (* IPI *)
  ipi_loss_rate : float;
  ipi_jitter_rate : float;
  (* remote page-table walks *)
  walk_fail_rate : float;
  (* Stramash-PTL *)
  ptl_timeout_rate : float;
  (* frame allocator *)
  alloc_fail_rate : float;
  (* crash-stop node failures *)
  node_events : node_event list;
  (* gray failures *)
  gray_slow : gray_window list;
  gray_flaps : flap_burst list;
  gray_ptl_stalls : ptl_stall list;
  msg_dup_rate : float;
  msg_reorder_rate : float;
  (* health scoring / circuit breaker *)
  health_enabled : bool;
  breaker_probe_interval : int;
  (* silent data corruption *)
  corrupt_flips : bit_flip list;
  corrupt_msg_rate : float;
  corrupt_msg_truncate_rate : float;
  corrupt_ckpt_rate : float;
  corrupt_pte_rate : float;
  scrub_enabled : bool;
  scrub_interval_cycles : int;
  scrub_pages_per_epoch : int;
}

let default =
  {
    msg_drop_rate = 0.0;
    msg_delay_rate = 0.0;
    ipi_loss_rate = 0.0;
    ipi_jitter_rate = 0.0;
    walk_fail_rate = 0.0;
    ptl_timeout_rate = 0.0;
    alloc_fail_rate = 0.0;
    node_events = [];
    gray_slow = [];
    gray_flaps = [];
    gray_ptl_stalls = [];
    msg_dup_rate = 0.0;
    msg_reorder_rate = 0.0;
    health_enabled = true;
    breaker_probe_interval = Cycles.of_us 500.0;
    corrupt_flips = [];
    corrupt_msg_rate = 0.0;
    corrupt_msg_truncate_rate = 0.0;
    corrupt_ckpt_rate = 0.0;
    corrupt_pte_rate = 0.0;
    scrub_enabled = false;
    scrub_interval_cycles = Cycles.of_us 50.0;
    scrub_pages_per_epoch = 8;
  }

(* Fixed parameters of the message and IPI fault models. *)
let msg_delay_cycles = Cycles.of_us 5.0  (* one injected delivery delay spike *)
let msg_timeout_cycles = Cycles.of_us 20.0  (* sender-side loss-detection timeout *)
let msg_backoff_base_cycles = Cycles.of_us 2.0  (* doubles per retransmit *)
let msg_max_attempts = 6  (* retries before escalating to the reliable path *)
let msg_reorder_cycles = Cycles.of_us 1.0  (* one injected queue reordering *)
let ipi_jitter_cycles = Cycles.of_us 10.0  (* one injected IPI jitter spike *)

type t = {
  config : config;
  msg_rng : Rng.t;
  ipi_rng : Rng.t;
  walk_rng : Rng.t;
  ptl_rng : Rng.t;
  alloc_rng : Rng.t;
  gray_rng : Rng.t;
  corrupt_rng : Rng.t;
  metrics : Metrics.registry;
  recovery : Metrics.Histogram.t;
  gray_on : bool;
  health : Health.t option;
  ops : (string * Metrics.Histogram.t) list;
  corrupt_on : bool;
  integrity : Integrity.t option;
}

(* Kill/restart schedules are normalized at plan creation: sorted by kill
   time, with per-node sanity enforced up front so the runner can treat
   the list as a simple cursor. *)
let validate_events events =
  let sorted =
    List.stable_sort (fun a b -> compare (a.kill_at, Node_id.index a.node) (b.kill_at, Node_id.index b.node)) events
  in
  List.iter
    (fun e ->
      if e.kill_at < 0 then invalid_arg "Plan: node_event kill_at must be >= 0";
      match e.restart_after with
      | Some d when d <= 0 -> invalid_arg "Plan: node_event restart_after must be > 0"
      | _ -> ())
    sorted;
  List.iter
    (fun node ->
      let mine = List.filter (fun e -> Node_id.equal e.node node) sorted in
      let rec check = function
        | a :: (b :: _ as rest) ->
            (match a.restart_after with
            | None ->
                invalid_arg
                  "Plan: a node_event without restart_after must be the node's last"
            | Some d ->
                if b.kill_at < a.kill_at + d then
                  invalid_arg "Plan: overlapping node_events for one node");
            check rest
        | _ -> ()
      in
      check mine)
    Node_id.all;
  sorted

(* One place to reject a malformed config before a campaign starts, so
   the CLI can exit with a message instead of failing deep inside a run.
   [create] applies it too, raising Invalid_argument. *)
let validate config =
  let check cond msg = if not cond then failwith msg in
  try
    let rate name v =
      check (v >= 0.0 && v <= 1.0)
        (Printf.sprintf "Plan: %s must be in [0, 1] (got %g)" name v)
    in
    let non_neg name v =
      check (v >= 0) (Printf.sprintf "Plan: %s must be >= 0 (got %d)" name v)
    in
    let at_least name floor v =
      check (v >= floor) (Printf.sprintf "Plan: %s must be >= %d (got %d)" name floor v)
    in
    rate "msg_drop_rate" config.msg_drop_rate;
    rate "msg_delay_rate" config.msg_delay_rate;
    rate "ipi_loss_rate" config.ipi_loss_rate;
    rate "ipi_jitter_rate" config.ipi_jitter_rate;
    rate "walk_fail_rate" config.walk_fail_rate;
    rate "ptl_timeout_rate" config.ptl_timeout_rate;
    rate "alloc_fail_rate" config.alloc_fail_rate;
    rate "msg_dup_rate" config.msg_dup_rate;
    rate "msg_reorder_rate" config.msg_reorder_rate;
    at_least "breaker_probe_interval" 1 config.breaker_probe_interval;
    (try ignore (validate_events config.node_events)
     with Invalid_argument m -> failwith m);
    List.iter
      (fun w ->
        non_neg "gray_slow start" w.g_start;
        at_least "gray_slow length" 1 w.g_len;
        check (w.g_factor >= 1.0)
          (Printf.sprintf "Plan: gray_slow factor must be >= 1 (got %g)" w.g_factor))
      config.gray_slow;
    List.iter
      (fun node ->
        let mine =
          List.filter (fun w -> Node_id.equal w.g_node node) config.gray_slow
          |> List.sort (fun a b -> compare a.g_start b.g_start)
        in
        let rec overlap = function
          | a :: (b :: _ as rest) ->
              check
                (a.g_start + a.g_len <= b.g_start)
                "Plan: overlapping gray_slow windows for one node";
              overlap rest
          | _ -> ()
        in
        overlap mine)
      Node_id.all;
    List.iter
      (fun fl ->
        non_neg "gray_flaps start" fl.fl_start;
        at_least "gray_flaps length" 1 fl.fl_len;
        rate "gray_flaps drop rate" fl.fl_drop_rate;
        non_neg "gray_flaps delay" fl.fl_delay_cycles)
      config.gray_flaps;
    List.iter
      (fun st ->
        non_neg "gray_ptl_stalls start" st.st_start;
        at_least "gray_ptl_stalls length" 1 st.st_len;
        non_neg "gray_ptl_stalls stall" st.st_stall_cycles)
      config.gray_ptl_stalls;
    rate "corrupt_msg_rate" config.corrupt_msg_rate;
    rate "corrupt_msg_truncate_rate" config.corrupt_msg_truncate_rate;
    rate "corrupt_ckpt_rate" config.corrupt_ckpt_rate;
    rate "corrupt_pte_rate" config.corrupt_pte_rate;
    let nnodes = List.length Node_id.all in
    List.iter
      (fun bf ->
        non_neg "corrupt_flips at" bf.bf_at;
        check
          (bf.bf_bits >= 1 && bf.bf_bits <= 8)
          (Printf.sprintf "Plan: corrupt_flips bits must be in [1, 8] (got %d)" bf.bf_bits);
        check
          (bf.bf_node >= 0 && bf.bf_node < nnodes)
          (Printf.sprintf "Plan: corrupt_flips node index must be in [0, %d) (got %d)" nnodes
             bf.bf_node))
      config.corrupt_flips;
    at_least "scrub_interval_cycles" 1 config.scrub_interval_cycles;
    at_least "scrub_pages_per_epoch" 1 config.scrub_pages_per_epoch;
    Ok ()
  with Failure m -> Error m

(* A digest of the whole config, echoed in campaign JSON alongside the
   seed so any output can be traced back to its exact parameters. The
   marshalled bytes cover every list entry (Hashtbl.hash stops after a
   bounded number of values, so long flip or window schedules that
   differed only at the tail collided). Cut to 52 bits so the value is
   exact as a JSON number. Stable across runs of one binary. *)
let config_fingerprint (config : config) =
  let hex = Digest.to_hex (Digest.string (Marshal.to_string config [])) in
  int_of_string ("0x" ^ String.sub hex 0 13)

let gray_armed_config config =
  config.gray_slow <> [] || config.gray_flaps <> []
  || config.gray_ptl_stalls <> [] || config.msg_dup_rate > 0.0
  || config.msg_reorder_rate > 0.0

let corruption_armed_config config =
  config.corrupt_flips <> []
  || config.corrupt_msg_rate > 0.0
  || config.corrupt_msg_truncate_rate > 0.0
  || config.corrupt_ckpt_rate > 0.0
  || config.corrupt_pte_rate > 0.0

let op_names = [ "fault"; "remote_walk"; "msg_rpc"; "ptl_acquire" ]

let create ~seed config =
  (match validate config with Ok () -> () | Error m -> invalid_arg m);
  let config = { config with node_events = validate_events config.node_events } in
  (* One private stream per injection site, split off in a fixed order so
     adding draws at one site never perturbs decisions at another — and the
     workload RNG (a different seed entirely) is untouched. The gray,
     health, and corruption streams split last (in that order),
     preserving every earlier stream's sequence. *)
  let root = Rng.create ~seed in
  let msg_rng = Rng.split root in
  let ipi_rng = Rng.split root in
  let walk_rng = Rng.split root in
  let ptl_rng = Rng.split root in
  let alloc_rng = Rng.split root in
  let gray_rng = Rng.split root in
  let health_rng = Rng.split root in
  let corrupt_rng = Rng.split root in
  let metrics = Metrics.registry () in
  (* Echoed in every campaign's JSON snapshot: any output traces back to
     the exact (seed, config) pair that produced it. *)
  Metrics.set metrics "plan.seed" (Int64.to_int seed);
  Metrics.set metrics "plan.config_fingerprint" (config_fingerprint config);
  let gray_on = gray_armed_config config in
  let health =
    if gray_on && config.health_enabled then
      Some
        (Health.create ~rng:health_rng ~metrics
           ~probe_interval:config.breaker_probe_interval)
    else None
  in
  let ops =
    if gray_on then
      List.map
        (fun name ->
          ( name,
            Metrics.Histogram.create ~buckets:96 ~lo:0.0
              ~hi:(float_of_int (Cycles.of_us 200.0)) ))
        op_names
    else []
  in
  let corrupt_on = corruption_armed_config config in
  let integrity =
    if corrupt_on || config.scrub_enabled then
      Some
        (Integrity.create ~rng:corrupt_rng ~metrics
           ~flips:(List.map (fun bf -> (bf.bf_at, bf.bf_node, bf.bf_bits)) config.corrupt_flips)
           ~scrub:config.scrub_enabled
           ~interval:config.scrub_interval_cycles ~budget:config.scrub_pages_per_epoch)
    else None
  in
  {
    config;
    msg_rng;
    ipi_rng;
    walk_rng;
    ptl_rng;
    alloc_rng;
    gray_rng;
    corrupt_rng;
    metrics;
    recovery =
      Metrics.Histogram.create ~buckets:64 ~lo:0.0
        ~hi:(float_of_int (Cycles.of_us 200.0));
    gray_on;
    health;
    ops;
    corrupt_on;
    integrity;
  }

let metrics t = t.metrics

(* Guard on the rate before drawing: a zero-rate site consumes no RNG
   state, so enabling faults at one site leaves the others' decision
   sequences (and therefore metrics) bit-identical. *)
let hit rng rate = rate > 0.0 && Rng.float rng 1.0 < rate

(* Injected faults as point events under the "fault" subsystem. The plan
   has no notion of a node; the event inherits the node of the innermost
   open span — i.e. it lands inside the operation it perturbed. *)
let mark op = Stramash_obs.Trace.instant ~subsys:"fault" ~op ()

(* --- message layer ------------------------------------------------------ *)

let msg_attempt t =
  if hit t.msg_rng t.config.msg_drop_rate then begin
    Metrics.incr t.metrics "msg.drops";
    mark "msg_drop";
    `Drop
  end
  else if hit t.msg_rng t.config.msg_delay_rate then begin
    Metrics.incr t.metrics "msg.delay_spikes";
    mark "msg_delay";
    `Deliver msg_delay_cycles
  end
  else `Deliver 0

let msg_backoff ~attempt =
  (* Sender burns the full timeout discovering the loss, then backs off
     exponentially before retransmitting. *)
  let exp = if attempt >= 16 then 16 else attempt in
  msg_timeout_cycles + (msg_backoff_base_cycles * (1 lsl exp))

let msg_attempts_exhausted ~attempt = attempt >= msg_max_attempts

let note_msg_retry t = Metrics.incr t.metrics "msg.retries"
let note_msg_escalation t =
  Metrics.incr t.metrics "msg.escalations";
  mark "msg_escalation"

(* --- IPI ---------------------------------------------------------------- *)

let ipi_delivery t =
  if hit t.ipi_rng t.config.ipi_loss_rate then begin
    Metrics.incr t.metrics "ipi.lost";
    mark "ipi_lost";
    `Lost
  end
  else if hit t.ipi_rng t.config.ipi_jitter_rate then begin
    Metrics.incr t.metrics "ipi.jitter_spikes";
    mark "ipi_jitter";
    `Jitter ipi_jitter_cycles
  end
  else `On_time


(* --- remote walker ------------------------------------------------------ *)

let walk_read_faulted t =
  if hit t.walk_rng t.config.walk_fail_rate then begin
    Metrics.incr t.metrics "walk.transient_faults";
    mark "walk_transient";
    true
  end
  else false

let note_walk_retry t = Metrics.incr t.metrics "walk.retries"

(* --- PTL ---------------------------------------------------------------- *)

let ptl_acquire_timed_out t =
  if hit t.ptl_rng t.config.ptl_timeout_rate then begin
    Metrics.incr t.metrics "ptl.timeouts";
    mark "ptl_timeout";
    true
  end
  else false

(* --- frame allocator ---------------------------------------------------- *)

let alloc_denied t =
  if hit t.alloc_rng t.config.alloc_fail_rate then begin
    Metrics.incr t.metrics "alloc.denials";
    mark "alloc_denied";
    true
  end
  else false

let note_hotplug_recovery t =
  Metrics.incr t.metrics "alloc.hotplug_recoveries";
  mark "hotplug_recovery"
let note_fallback_escalation t = Metrics.incr t.metrics "fallback.escalations"

let record_recovery t ~cycles =
  Metrics.Histogram.record t.recovery (float_of_int cycles)

(* --- crash-stop node failures ------------------------------------------- *)

let node_events t = t.config.node_events
let chaos_armed t = t.config.node_events <> []

let note_detection_latency t ~cycles =
  Metrics.incr t.metrics "chaos.detections";
  Metrics.add t.metrics "chaos.detection_latency_cycles" cycles

let note_node_death t node =
  Metrics.incr t.metrics (Printf.sprintf "chaos.%s.deaths" (Node_id.to_string node));
  mark "node_death"

let note_node_restart t node =
  Metrics.incr t.metrics (Printf.sprintf "chaos.%s.restarts" (Node_id.to_string node));
  mark "node_restart"

let note_watchdog_detection t node =
  Metrics.incr t.metrics
    (Printf.sprintf "chaos.%s.watchdog_detections" (Node_id.to_string node));
  mark "watchdog_detect"

let note_lock_break t = Metrics.incr t.metrics "chaos.lock_breaks"
let note_stale_token t =
  Metrics.incr t.metrics "chaos.stale_tokens";
  mark "stale_token"
let note_waiter_parked t = Metrics.incr t.metrics "chaos.waiters_parked"
let note_waiter_requeued t = Metrics.incr t.metrics "chaos.waiters_requeued"
let note_blocks_reclaimed t n = Metrics.add t.metrics "chaos.blocks_reclaimed" n
let note_blocks_orphaned t n = Metrics.add t.metrics "chaos.blocks_orphaned" n
let note_degraded_walk t = Metrics.incr t.metrics "chaos.degraded_walks"
let note_dead_node_message t = Metrics.incr t.metrics "chaos.dead_node_messages"
let add_downtime_cycles t ~cycles = Metrics.add t.metrics "chaos.downtime_cycles" cycles
let add_degraded_cycles t ~cycles = Metrics.add t.metrics "chaos.degraded_cycles" cycles
let note_checkpoint t ~bytes =
  Metrics.incr t.metrics "chaos.checkpoints";
  Metrics.add t.metrics "chaos.checkpoint_bytes" bytes
let note_restore t ~pages =
  Metrics.incr t.metrics "chaos.restores";
  Metrics.add t.metrics "chaos.restored_pages" pages

(* --- gray failures ------------------------------------------------------ *)

let gray_armed t = t.gray_on
let health t = t.health

(* Window queries are pure in [now]: they draw no RNG state and add no
   cycles when the schedule is empty, so an unarmed gray plan is
   bit-identical to no gray plan at all. *)
let slow_factor t ~node ~now =
  List.fold_left
    (fun acc w ->
      if Node_id.equal w.g_node node && now >= w.g_start && now < w.g_start + w.g_len
      then Float.max acc w.g_factor
      else acc)
    1.0 t.config.gray_slow

let inflate t ~node ~now ~cycles =
  let f = slow_factor t ~node ~now in
  if f > 1.0 && cycles > 0 then begin
    let extra = int_of_float (float_of_int cycles *. (f -. 1.0)) in
    if extra > 0 then begin
      Metrics.add t.metrics "gray.inflated_cycles" extra;
      Metrics.incr t.metrics "gray.inflations"
    end;
    extra
  end
  else 0

let flap_at t ~now =
  List.find_opt
    (fun fl -> now >= fl.fl_start && now < fl.fl_start + fl.fl_len)
    t.config.gray_flaps

let msg_attempt_at t ~now =
  match flap_at t ~now with
  | Some fl when hit t.gray_rng fl.fl_drop_rate ->
      Metrics.incr t.metrics "gray.flap_drops";
      mark "flap_drop";
      `Drop
  | flap -> (
      let flap_delay =
        match flap with
        | Some fl when fl.fl_delay_cycles > 0 ->
            Metrics.incr t.metrics "gray.flap_delays";
            fl.fl_delay_cycles
        | _ -> 0
      in
      match msg_attempt t with
      | `Drop -> `Drop
      | `Deliver extra -> `Deliver (extra + flap_delay))

let msg_duplicated t =
  if hit t.gray_rng t.config.msg_dup_rate then begin
    Metrics.incr t.metrics "gray.msg_dups";
    mark "msg_dup";
    true
  end
  else false

let msg_reorder_extra t =
  if hit t.gray_rng t.config.msg_reorder_rate then begin
    Metrics.incr t.metrics "gray.msg_reorders";
    mark "msg_reorder";
    msg_reorder_cycles
  end
  else 0

let ptl_stall_extra t ~now =
  let extra =
    List.fold_left
      (fun acc st ->
        if now >= st.st_start && now < st.st_start + st.st_len then
          max acc st.st_stall_cycles
        else acc)
      0 t.config.gray_ptl_stalls
  in
  if extra > 0 then begin
    Metrics.add t.metrics "gray.ptl_stall_cycles" extra;
    Metrics.incr t.metrics "gray.ptl_stalls"
  end;
  extra

(* --- health / circuit breaker ------------------------------------------- *)

let observe_msg_rtt t ~peer ~cycles ~nominal ~now =
  match t.health with
  | Some h -> Health.observe_msg_rtt h ~peer ~cycles ~nominal ~now
  | None -> ()

let observe_service t ~peer ~cycles ~nominal ~now =
  match t.health with
  | Some h -> Health.observe_service h ~peer ~cycles ~nominal ~now
  | None -> ()

let observe_failure t ~peer ~now =
  match t.health with Some h -> Health.observe_failure h ~peer ~now | None -> ()

let breaker_route t ~peer ~now =
  match t.health with Some h -> Health.route h ~peer ~now | None -> `Fused

let breaker_probe_done t ~peer ~now =
  match t.health with Some h -> Health.probe_done h ~peer ~now | None -> ()

let note_breaker_fallback t =
  Metrics.incr t.metrics "gray.breaker_fallbacks";
  mark "breaker_fallback"

let msg_backoff_for t ~peer ~attempt =
  match t.health with
  | None -> msg_backoff ~attempt
  | Some h ->
      Health.backoff h ~peer ~attempt ~base:msg_backoff_base_cycles
        ~floor:msg_backoff_base_cycles ~cap:(2 * msg_timeout_cycles)
        ~default:msg_timeout_cycles

(* --- silent data corruption --------------------------------------------- *)

let corruption_armed t = t.corrupt_on
let integrity t = t.integrity
let scrub_enabled t = t.config.scrub_enabled

(* One verdict per delivery attempt, drawn only when corruption is
   armed: an unarmed plan draws no corrupt-stream state, so arming the
   scrubber alone (scrub on, injection off) is bit-identical to no
   corruption machinery at all. Truncation is drawn first, whole-payload
   corruption second, in a fixed order. *)
let msg_corrupt_verdict t =
  if not t.corrupt_on then `Clean
  else if hit t.corrupt_rng t.config.corrupt_msg_truncate_rate then begin
    Metrics.incr t.metrics "corruption.msg_truncated";
    mark "msg_truncated";
    `Truncated
  end
  else if hit t.corrupt_rng t.config.corrupt_msg_rate then begin
    Metrics.incr t.metrics "corruption.msg_corrupted";
    mark "msg_corrupt";
    `Corrupt
  end
  else `Clean

(* The receiver's CRC framing check caught a corrupted attempt: the
   detection is simultaneous with the check, and the retransmit loop the
   caller is already in is the repair. *)
let note_msg_corruption_detected t =
  Metrics.incr t.metrics "corruption.detected";
  Metrics.incr t.metrics "corruption.msg_retransmits";
  Metrics.incr t.metrics "corruption.repaired_retransmit"

(* Stale-PTE corruption in the remote-walker install path. *)
let pte_corrupted t =
  t.corrupt_on
  &&
  if hit t.corrupt_rng t.config.corrupt_pte_rate then begin
    Metrics.incr t.metrics "corruption.pte_stale";
    mark "pte_stale";
    true
  end
  else false

let note_pte_repair t =
  Metrics.incr t.metrics "corruption.detected";
  Metrics.incr t.metrics "corruption.repaired_owner";
  mark "pte_repair"

(* Torn checkpoint blobs: [Some fraction] truncates the encoded image to
   that prefix fraction. *)
let ckpt_torn_fraction t =
  if t.corrupt_on && hit t.corrupt_rng t.config.corrupt_ckpt_rate then begin
    Metrics.incr t.metrics "corruption.ckpt_torn";
    mark "ckpt_torn";
    Some (0.2 +. Rng.float t.corrupt_rng 0.7)
  end
  else None

let note_ckpt_detected t =
  Metrics.incr t.metrics "corruption.detected";
  mark "ckpt_rejected"

let note_ckpt_fallback t =
  Metrics.incr t.metrics "corruption.repaired_checkpoint";
  mark "ckpt_fallback"

let corruption_injected t =
  Metrics.get t.metrics "corruption.flips"
  + Metrics.get t.metrics "corruption.msg_corrupted"
  + Metrics.get t.metrics "corruption.msg_truncated"
  + Metrics.get t.metrics "corruption.ckpt_torn"
  + Metrics.get t.metrics "corruption.pte_stale"

let corruption_detected t = Metrics.get t.metrics "corruption.detected"

let corruption_repaired t =
  Metrics.get t.metrics "corruption.repaired_replica"
  + Metrics.get t.metrics "corruption.repaired_owner"
  + Metrics.get t.metrics "corruption.repaired_retransmit"

let corruption_fallbacks t = Metrics.get t.metrics "corruption.repaired_checkpoint"
let corruption_unrepaired t = Metrics.get t.metrics "corruption.unrepaired"

(* --- per-operation latency ---------------------------------------------- *)

let record_op t ~op ~cycles =
  match List.assoc_opt op t.ops with
  | Some h -> Metrics.Histogram.record h (float_of_int cycles)
  | None -> ()

let op_histograms t = t.ops

(* --- reporting ---------------------------------------------------------- *)

let report fmt t =
  Format.fprintf fmt "fault-injection counters:@.";
  let any =
    Metrics.fold t.metrics ~init:false ~f:(fun _ name v ->
        Format.fprintf fmt "  %-28s %d@." name v;
        true)
  in
  if not any then Format.fprintf fmt "  (no faults injected)@.";
  let h = t.recovery in
  let n = Metrics.Histogram.count h in
  if n > 0 then
    Format.fprintf fmt
      "recovery latency (cycles): n=%d mean=%.0f p50=%.0f p95=%.0f p99=%.0f@." n
      (Metrics.Histogram.mean h) (Metrics.Histogram.p50 h) (Metrics.Histogram.p95 h)
      (Metrics.Histogram.p99 h)
  else Format.fprintf fmt "recovery latency (cycles): n=0@.";
  (match t.health with Some health -> Health.report fmt health | None -> ());
  List.iter
    (fun (name, oph) ->
      let n = Metrics.Histogram.count oph in
      if n > 0 then
        Format.fprintf fmt
          "op latency[%s] (cycles): n=%d p50=%.0f p95=%.0f p99=%.0f@." name n
          (Metrics.Histogram.p50 oph) (Metrics.Histogram.p95 oph)
          (Metrics.Histogram.p99 oph))
    t.ops
