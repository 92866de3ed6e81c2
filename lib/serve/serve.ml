module Meter = Stramash_sim.Meter
module Metrics = Stramash_sim.Metrics
module Histogram = Stramash_sim.Metrics.Histogram
module Cycles = Stramash_sim.Cycles
module Rng = Stramash_sim.Rng
module Zipf = Stramash_sim.Zipf
module Addr = Stramash_mem.Addr
module Cache_sim = Stramash_cache.Cache_sim
module Env = Stramash_kernel.Env
module Machine = Stramash_machine.Machine
module Os = Stramash_machine.Os
module Runner = Stramash_machine.Runner
module Mmu = Stramash_machine.Mmu
module Plan = Stramash_fault_inject.Plan
module Redis = Stramash_workloads.Redis
module Engine = Stramash_placement.Engine
module Policy = Stramash_placement.Policy
module Trace = Stramash_obs.Trace

type config = {
  os : Machine.os_choice;
  keys : int;
  theta : float;
  rate : float;
  requests : int;
  payload : int;
  mix : Workload.mix;
  seed : int64;
  placement : bool;
  inject : Plan.config option;
  cache_mode : Cache_sim.mode;
  slo : Slo.thresholds;
}

let default =
  {
    os = Machine.Stramash_kernel_os;
    keys = 1 lsl 20;
    theta = 0.99;
    rate = 20_000.0;
    requests = 20_000;
    payload = 1024;
    mix = Workload.default_mix;
    seed = 0x5E12E5L;
    placement = false;
    inject = None;
    cache_mode = Cache_sim.Fast;
    slo = Slo.default;
  }

(* The driver paces a scheduling-quantum boundary every this many cycles
   of simulated time. *)
let quantum_cycles = Cycles.of_us 20.0

let is_stramash = function
  | Machine.Stramash_kernel_os | Machine.Stramash_no_futex_opt -> true
  | Machine.Vanilla | Machine.Popcorn_shm | Machine.Popcorn_tcp -> false

let validate cfg =
  let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (cfg.os <> Machine.Vanilla) "Vanilla cannot host the migrated server" in
  let* () = check (cfg.keys > 0) "keys must be positive" in
  let* () = check (cfg.theta > 0.0) "theta must be > 0" in
  let* () = check (cfg.rate > 0.0) "rate must be > 0 requests/s" in
  let* () = check (cfg.requests > 0) "requests must be positive" in
  let* () = check (cfg.payload > 0) "payload must be positive" in
  let* () = Workload.validate_mix cfg.mix in
  let* () = Slo.validate cfg.slo in
  let* () =
    check ((not cfg.placement) || is_stramash cfg.os) "placement requires the Stramash personality"
  in
  match cfg.inject with
  | None -> Ok ()
  | Some plan ->
      let* () = Plan.validate plan in
      let* () =
        check
          (plan.Plan.node_events = [] || is_stramash cfg.os)
          "a chaos schedule requires the Stramash personality"
      in
      check
        (List.for_all (fun e -> e.Plan.restart_after <> None) plan.Plan.node_events)
        "serve requires every node_event to carry restart_after (a dead server never drains its \
         queue)"

type outcome = {
  o_os : string;
  o_rows : (string * Histogram.t) list;
  o_all : Histogram.t;
  o_slo : Slo.report;
  o_wall : int;
  o_counters : (string * int) list;
  o_placement : (string * int) list;
  o_plan : Plan.t option;
}

(* Latency histograms: 0..2ms in 2048 uniform buckets (about 1 us per
   bucket); everything slower lands in the overflow bucket and the
   percentile clamp keeps tail estimates at the observed maximum. *)
let hist () = Histogram.create ~buckets:2048 ~lo:0.0 ~hi:(float_of_int (Cycles.of_us 2000.0))

let run cfg =
  (match validate cfg with Ok () -> () | Error msg -> invalid_arg ("Serve.run: " ^ msg));
  let machine =
    Machine.create
      {
        Machine.default_config with
        os = cfg.os;
        seed = cfg.seed;
        inject = cfg.inject;
        cache_mode = cfg.cache_mode;
      }
  in
  if cfg.placement then (
    match Machine.os machine with
    | Os.Stramash s -> Machine.attach_placement machine (Engine.create ~policy:Policy.Adaptive s)
    | Os.Vanilla | Os.Popcorn _ -> assert false (* validate rejected it *));
  let proc, _main_thread = Machine.load machine (Workload.store_spec ~keys:cfg.keys) in
  let server = Redis.make_server machine in
  let env = Machine.env machine in
  let node = Redis.node_of server in
  let meter = Env.meter env node in
  Trace.set_clock (fun n -> Meter.get (Env.meter env n));
  (* Charged like [Env.charge_bytes_*]: full access latency per line, so
     the keyspace phase prices like the Redis model's private dataset —
     except each line takes the runner's user-access path, so it may
     fault, replicate, or be sampled by placement. *)
  let mmu = Mmu.create machine proc ~node in
  let access_span ~vaddr ~write ~len =
    let kind = if write then Cache_sim.Store else Cache_sim.Load in
    let v = ref vaddr in
    for _ = 1 to Addr.lines_spanned vaddr ~len do
      Meter.add meter (Mmu.access mmu kind ~vaddr:!v);
      v := Addr.line_base !v + Addr.line_size
    done
  in
  (* -- seeded request streams ------------------------------------------ *)
  let root = Rng.create ~seed:cfg.seed in
  let arr_rng = Rng.split root in
  let mix_rng = Rng.split root in
  let key_rng = Rng.split root in
  let zipf = Zipf.create ~n:cfg.keys ~theta:cfg.theta in
  let mean_gap = Cycles.frequency_ghz *. 1e9 /. cfg.rate in
  let next_gap () =
    let u = Rng.float arr_rng 1.0 in
    max 1 (int_of_float (-.mean_gap *. log1p (-.u)))
  in
  (* -- compositions ----------------------------------------------------- *)
  let plan = Machine.inject_plan machine in
  let downtime =
    match cfg.inject with
    | None -> []
    | Some c ->
        List.filter_map
          (fun e ->
            match e.Plan.restart_after with
            | Some d -> Some (e.Plan.kill_at, e.Plan.kill_at + d)
            | None -> None)
          c.Plan.node_events
        |> List.sort compare
  in
  (* Either island down stalls admission: the request path crosses both
     kernels (origin socket work, server processing) on every request.
     Crash-stop at serve level is an availability model — requests whose
     service would begin inside a window begin at its end instead. *)
  let rec past_downtime t =
    match List.find_opt (fun (s, e) -> t >= s && t < e) downtime with
    | Some (_, e) -> past_downtime e
    | None -> t
  in
  let reg = Metrics.registry () in
  let qcount = ref 0 in
  let next_q = ref quantum_cycles in
  let pace now =
    while !next_q <= now do
      Runner.quantum_boundary machine ~count:qcount ~now:!next_q;
      next_q := !next_q + quantum_cycles
    done
  in
  let rows = List.map (fun op -> (Workload.op_name op, hist ())) Workload.all_ops in
  let all = hist () in
  let arrival = ref 0 in
  for _ = 1 to cfg.requests do
    arrival := !arrival + next_gap ();
    let op = Workload.pick cfg.mix mix_rng in
    Metrics.incr reg ("serve.op." ^ Workload.op_name op);
    (* Admission: catch the quantum clock up, then start at whichever is
       latest of the server clock, the arrival stamp, and the end of any
       downtime window covering that instant. *)
    let start0 = max (Meter.get meter) !arrival in
    let start1 = past_downtime start0 in
    if start1 > start0 then begin
      Metrics.incr reg "serve.stalled_requests";
      Metrics.add reg "serve.downtime_stall_cycles" (start1 - start0)
    end;
    pace start1;
    let start = max (Meter.get meter) start1 in
    if Meter.get meter < start then begin
      Metrics.add reg "serve.idle_cycles" (start - Meter.get meter);
      Meter.set meter start
    end;
    if start > !arrival then Metrics.add reg "serve.queue_wait_cycles" (start - !arrival);
    (* Service: the Redis cost model with the value phase routed at the
       keyspace through the kernel paths above. *)
    let pending = ref [] in
    let draw_keys n = List.init n (fun _ -> Zipf.sample zipf key_rng) in
    let scan_start k = min k (max 0 (cfg.keys - Workload.scan_len)) in
    (match op with
    | Workload.Mset -> pending := draw_keys Workload.mset_keys
    | Workload.Get | Workload.Set -> pending := draw_keys 1
    | Workload.Scan -> pending := [ scan_start (Zipf.sample zipf key_rng) ]);
    let value ~write =
      match !pending with
      | [] -> ()
      | k :: rest ->
          pending := rest;
          let len =
            match op with
            | Workload.Scan -> Workload.slot_bytes * min Workload.scan_len (cfg.keys - k)
            | Workload.Get | Workload.Set | Workload.Mset -> Workload.slot_bytes
          in
          access_span ~vaddr:(Workload.vaddr_of_key k) ~write ~len
    in
    let sp = Trace.span ~node ~subsys:"serve" ~op:(Workload.op_name op) ~flow_root:true () in
    let rop = Workload.redis_op op in
    Redis.deliver_to_server server ~bytes:(Redis.request_bytes rop ~payload:cfg.payload);
    let p0 = Meter.get meter in
    Redis.process_op ~value server rop ~payload:cfg.payload;
    (match plan with
    | Some p when Plan.gray_armed p ->
        let d = Meter.get meter - p0 in
        Meter.add meter (Plan.inflate p ~node ~now:p0 ~cycles:d)
    | _ -> ());
    Redis.reply_from_server server ~bytes:(Redis.reply_bytes rop);
    let latency = Meter.get meter - !arrival in
    if sp != Trace.null then
      Trace.close sp
        ~tags:[ ("arrival", string_of_int !arrival); ("latency_cycles", string_of_int latency) ]
    else Trace.close sp;
    let l = float_of_int latency in
    Histogram.record (List.assoc (Workload.op_name op) rows) l;
    Histogram.record all l
  done;
  pace (Meter.get meter);
  Metrics.add reg "serve.requests" cfg.requests;
  Metrics.add reg "serve.completed" (Histogram.count all);
  Metrics.add reg "serve.quanta" !qcount;
  Metrics.set reg "serve.wall_cycles" (Meter.get meter);
  let placement_counters =
    match Machine.placement machine with Some e -> Engine.counters e | None -> []
  in
  let wall = Meter.get meter in
  Machine.exit_process machine proc;
  {
    o_os = Os.name (Machine.os machine);
    o_rows = rows;
    o_all = all;
    o_slo = Slo.evaluate cfg.slo all;
    o_wall = wall;
    o_counters = Metrics.to_assoc reg;
    o_placement = placement_counters;
    o_plan = plan;
  }

let registry_of o =
  let r = Metrics.registry () in
  List.iter (fun (k, v) -> Metrics.set r k v) o.o_counters;
  r

let pp_row fmt name h =
  let us p = Slo.cycles_to_us (Histogram.percentile h p) in
  Format.fprintf fmt "  %-6s %8d %9.1f %9.1f %9.1f %9.1f %9.1f@." name (Histogram.count h)
    (us 0.50) (us 0.95) (us 0.99)
    (Slo.cycles_to_us (Histogram.mean h))
    (Slo.cycles_to_us (Histogram.max_value h))

let pp_outcome fmt o =
  Format.fprintf fmt "  %-6s %8s %9s %9s %9s %9s %9s@." "op" "n" "p50(us)" "p95(us)" "p99(us)"
    "mean" "max";
  List.iter (fun (name, h) -> pp_row fmt name h) o.o_rows;
  pp_row fmt "all" o.o_all;
  Slo.pp_report fmt o.o_slo
