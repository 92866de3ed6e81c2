(* perfbench: end-to-end and per-layer host cost of the simulator.

     perfbench.exe --workload npb-cg|npb-is-popcorn|serve-zipf
                   [--seed N] [--seconds S] [--trace 0|1]
     perfbench.exe --list

   One run measures one workload. It prints a table (metric, value, unit,
   better direction, layer, the end-to-end metric the layer should move)
   and then, as the last line of stdout, one JSON object
   {"correct", "attempted", "failed", "metrics"}. [--list] prints the
   catalogue alone.

   --trace 0 measures the end-to-end metrics with every tracer off: after
   one checked warm-up run it repeats fresh set-up + timed run for
   [--seconds] of wall time and reports medians over the repetitions.

   --trace 1 is the separate traced run. It repeats the untraced runs as a
   reference, then runs once more with the obs tracer installed (op counts
   and simulated cycles per kernel subsystem), records the cache access
   stream on another run, records the vaddr/fetch stream by running the
   Mir program on the interpreter alone over a flat memory, and replays
   each stream into a fresh Cache_sim, Tlb and Interp to time each layer
   alone. A replay whose fidelity check fails fails the run and reports 0
   for its layer. The benchmark's own spans are written to perfbench_out/.

   Host time is process CPU time (the simulator is single-threaded),
   corrected for host speed (see [calibrated]); simulated time is cycles
   on the model's clock. An "op" is a simulated instruction on npb-* and a
   simulated request on serve-zipf. The seed (default 42) is passed as
   Machine.config.seed and Serve.config.seed; seed 7 is the held-out seed
   on which a change meant only to speed up the simulator must also leave
   every simulated metric identical. *)

module Node_id = Stramash_sim.Node_id
module Metrics = Stramash_sim.Metrics
module Histogram = Metrics.Histogram
module Addr = Stramash_mem.Addr
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Spec = Stramash_machine.Spec
module Cache_sim = Stramash_cache.Cache_sim
module Cache_trace = Stramash_cache.Trace
module Interp = Stramash_isa.Interp
module Codegen = Stramash_isa.Codegen
module Tlb = Stramash_kernel.Tlb
module Obs = Stramash_obs.Trace
module Json = Stramash_obs.Json
module W = Stramash_workloads
module Serve = Stramash_serve.Serve
module Serve_workload = Stramash_serve.Workload
module Slo = Stramash_serve.Slo

(* ---------- metric catalogue ---------- *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  layer : string;
  moves : string;  (** the end-to-end metric a change in this layer should move *)
}

let m name unit_ better layer moves = { name; unit_; better; layer; moves }
let e2e name unit_ better = m name unit_ better "end-to-end" "-"

(* Every workload reports every metric. sim_ops_per_s is sim_instr_per_s
   on npb-* and sim_req_per_s on serve-zipf. An NPB kernel run is one job,
   so its p50 and p99 are its simulated completion time. *)
let end_to_end =
  [
    e2e "sim_ops_per_s" "1/s" Higher;
    e2e "setup_s" "s" Lower;
    e2e "alloc_words_per_op" "words" Lower;
    e2e "peak_heap_mb" "MB" Lower;
    e2e "sim_wall_cycles" "cycles" Lower;
    e2e "sim_p50_us" "sim_us" Lower;
    e2e "sim_p99_us" "sim_us" Lower;
  ]

let cache_moves = "sim_ops_per_s, alloc_words_per_op (npb-cg most, npb-is-popcorn less)"
let interp_moves = "sim_ops_per_s on npb-*; none on serve-zipf"
let tlb_moves = "sim_ops_per_s, sim_wall_cycles"
let kernel_moves = "sim_p99_us on serve-zipf; sim_wall_cycles on npb-cg"
let dsm_moves = "sim_wall_cycles, sim_ops_per_s on npb-is-popcorn; none elsewhere"
let serve_moves = "sim_p99_us, sim_ops_per_s on serve-zipf"
let gc_moves = "every host throughput"

let per_layer =
  [
    m "cache_sim.ns_per_access" "ns" Lower "Cache_sim" cache_moves;
    m "cache_sim.words_per_access" "words" Lower "Cache_sim" cache_moves;
    m "cache_sim.host_share" "frac" Lower "Cache_sim" cache_moves;
    m "cache_sim.accesses_per_instr" "count" Lower "Cache_sim" cache_moves;
    m "cache_sim.l0_hit_frac" "frac" Higher "Cache_sim" cache_moves;
    m "cache.l1d_miss_per_kinstr" "count" Lower "cache model" "sim_wall_cycles";
    m "cache.remote_mem_hits" "count" Lower "cache model" "sim_wall_cycles";
    m "cache.snoop_msgs" "count" Lower "cache model" "sim_wall_cycles";
    m "interp.ns_per_instr" "ns" Lower "Interp" interp_moves;
    m "interp.words_per_instr" "words" Lower "Interp" interp_moves;
    m "interp.host_share" "frac" Lower "Interp" interp_moves;
    m "interp.tc_instr_frac" "frac" Higher "Interp" interp_moves;
    m "tlb.ns_per_translate" "ns" Lower "Tlb" tlb_moves;
    m "tlb.miss_per_kinstr" "count" Lower "Tlb" tlb_moves;
    m "page_table.walk_misses" "count" Lower "Page_table" serve_moves;
    m "remote_walker.walks" "count" Lower "Remote_walker" kernel_moves;
    m "remote_walker.sim_cycles" "cycles" Lower "Remote_walker" kernel_moves;
    m "stramash_fault.faults" "count" Lower "Stramash_fault" kernel_moves;
    m "stramash_fault.sim_cycles" "cycles" Lower "Stramash_fault" kernel_moves;
    m "ptl.acquires" "count" Lower "Stramash_ptl" kernel_moves;
    m "blocked_on_remote_cycles" "cycles" Lower "Remote_walker/Stramash_ptl/Msg_layer" kernel_moves;
    m "msg.rpcs" "count" Lower "Msg_layer" dsm_moves;
    m "msg.sim_cycles" "cycles" Lower "Msg_layer" dsm_moves;
    m "dsm.wb_updates" "count" Lower "Dsm" dsm_moves;
    m "dsm.faults" "count" Lower "Dsm" dsm_moves;
    m "dsm.sim_cycles" "cycles" Lower "Dsm" dsm_moves;
    m "serve.queue_wait_cycles_per_req" "cycles" Lower "Serve" serve_moves;
    m "serve.quanta_per_req" "count" Lower "Serve" serve_moves;
    m "gc.minor_collections_per_mop" "count" Lower "OCaml runtime" gc_moves;
    m "gc.major_collections" "count" Lower "OCaml runtime" gc_moves;
    m "trace.overhead_frac" "frac" Lower "tracing" "none";
  ]

(* Layers a workload does not exercise report 0: serve-zipf runs no
   interpreter, and Serve.run builds its own machine, so it has no cache
   stream to replay. *)
let replay_layers = [ "Cache_sim"; "cache model"; "Interp"; "Tlb" ]

(* ---------- workloads ---------- *)

(* Why each workload is in the set:
   - npb-cg: read-dominated sparse gather under Stramash; the cache model
     (Cache_sim/Directory) does most of the host work, lib/popcorn idles.
   - npb-is-popcorn: write-intensive IS under Popcorn-SHM; loads Msg_layer
     and Dsm and the cache store/coherence path.
   - serve-zipf: Serve.default open-loop run under Stramash; no
     interpreter, cost is the Serve request loop, Redis byte charges and the
     kernel translate/fault paths. *)
type npb = {
  spec : Spec.t;
  os : Machine.os_choice;
  checksum : int64;  (** expected bits at Npb_common.checksum_vaddr *)
}

type workload = Npb of npb | Serve_zipf

let workload_names = [ "npb-cg"; "npb-is-popcorn"; "serve-zipf" ]

let workload_of_name = function
  | "npb-cg" ->
      Some
        (Npb
           {
             spec = W.Npb_cg.spec ();
             os = Machine.Stramash_kernel_os;
             checksum = Int64.bits_of_float (W.Npb_cg.expected_checksum W.Npb_cg.default);
           })
  | "npb-is-popcorn" ->
      Some
        (Npb
           {
             spec = W.Npb_is.spec ();
             os = Machine.Popcorn_shm;
             checksum = W.Npb_is.expected_checksum W.Npb_is.default;
           })
  | "serve-zipf" -> Some Serve_zipf
  | _ -> None

(* ---------- statistics and checks ---------- *)

let cpu () = Sys.time ()

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end;
  ok

(* Repeat [f] until [seconds] of wall time have passed and at least
   [min_reps] repetitions have run. *)
let repeat ~seconds ~min_reps f =
  let start = Unix.gettimeofday () in
  let rec go i acc =
    if i >= min_reps && Unix.gettimeofday () -. start >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* ---------- the benchmark's own spans (traced run only) ---------- *)

module Spans = struct
  type span = { id : int; name : string; parent : int; rep : int; t0 : float; mutable t1 : float }

  let on = ref false
  let closed : span list ref = ref []
  let stack : span list ref = ref []
  let next_id = ref 0
  let epoch = Unix.gettimeofday ()

  (* [rep] is given on a root span and nested spans inherit their
     parent's: 0 is the warm-up, 1.. the timed reps, and negative ids mark
     the traced run's other phases. *)
  let within ?rep name f =
    if not !on then f ()
    else begin
      let parent, prep = match !stack with p :: _ -> (p.id, p.rep) | [] -> (-1, 0) in
      let s =
        {
          id = !next_id;
          name;
          parent;
          rep = Option.value rep ~default:prep;
          t0 = Unix.gettimeofday () -. epoch;
          t1 = nan;
        }
      in
      incr next_id;
      stack := s :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.t1 <- Unix.gettimeofday () -. epoch;
          stack := List.tl !stack;
          closed := s :: !closed)
        f
    end

  (* One JSON object per line, in opening order. *)
  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("id", Json.Int s.id);
                  ("name", Json.String s.name);
                  ("parent", Json.Int s.parent);
                  ("rep", Json.Int s.rep);
                  ("start_s", Json.Float s.t0);
                  ("end_s", Json.Float s.t1);
                ]));
        output_char oc '\n')
      (List.sort (fun a b -> compare a.id b.id) !closed);
    close_out oc
end

(* ---------- host time ---------- *)

type host = {
  setup_s : float;  (** host CPU seconds of set-up, as measured *)
  run_s : float;  (** host CPU seconds of the timed call, as measured *)
  scale : float;  (** host seconds to reference seconds, see [calibrated] *)
  words : float;  (** minor-heap words allocated by the timed call *)
  minors : int;
  majors : int;
}

let ref_run h = h.run_s *. h.scale
let ref_setup h = h.setup_s *. h.scale

(* Time [f] in CPU seconds with its minor-heap allocation and collections.
   Words come from Gc.minor_words, which is exact: Gc.quick_stat's count
   only advances at minor collections. *)
let measure f =
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let t0 = cpu () in
  let x = f () in
  let dt = cpu () -. t0 in
  let s1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  ( x,
    {
      setup_s = 0.0;
      run_s = dt;
      scale = 1.0;
      words = w1 -. w0;
      minors = s1.Gc.minor_collections - s0.Gc.minor_collections;
      majors = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

(* Host speed on a shared machine drifts by up to 2x over minutes, mostly
   through memory-system contention from other tenants (a pure ALU loop
   does not move), and within a run it shifts in phases of several
   seconds. Every reported host time is therefore corrected by a fixed
   calibration loop that does not use the simulator: it builds and drops
   lists that outlive the minor heap, so it pays for allocation,
   promotion, major collection and memory bandwidth as the simulator does.
   The loop is timed before and after each timed interval, and host
   seconds are scaled to reference seconds: those of a host on which the
   loop takes [calib_ref_s]. On a 2-core Xeon VM the run-to-run spread
   (IQR/median) of throughput was 0.21-0.40 uncorrected over five runs,
   and 0.04-0.14 corrected over ten. The loop's own host time is printed
   with every result. *)
let calib_ref_s = 0.1
let calib_times = ref []

let calibrate () =
  Spans.within "calibrate" (fun () ->
      let t0 = cpu () in
      for _ = 1 to 5 do
        ignore (Sys.opaque_identity (List.length (List.init 200_000 (fun i -> (i, i)))))
      done;
      let dt = cpu () -. t0 in
      calib_times := dt :: !calib_times;
      dt)

(* [f ()] bracketed by calibration, with the factor that converts host
   seconds inside the bracket to reference seconds. *)
let calibrated f =
  let before = calibrate () in
  let x = f () in
  let after = calibrate () in
  (x, calib_ref_s /. ((before +. after) /. 2.0))

let timed f =
  let (x, h), scale = calibrated (fun () -> measure f) in
  (x, { h with scale })

(* The heap's high-water mark at the end of the first timed rep. Read
   later, it would depend on how many reps ran, that is on host speed. *)
let peak_heap_mb = ref 0.0

let note_peak_heap i =
  if i = 0 then
    peak_heap_mb :=
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Set-up alone is short, so it gets extra samples besides each rep's. *)
let setup_samples = 10

let extra_setups setup =
  let samples, scale =
    calibrated (fun () -> List.init setup_samples (fun _ -> (snd (measure setup)).run_s))
  in
  List.map (fun s -> s *. scale) samples

(* The host-side end-to-end metrics over the timed reps; [raw] are the
   uncorrected medians, printed beside the result. *)
let host_e2e ~ops ~setups hosts =
  let setups = setups @ List.map ref_setup hosts in
  ( [
      ("sim_ops_per_s", median (List.map (fun h -> ops /. ref_run h) hosts));
      ("setup_s", median setups);
      ("alloc_words_per_op", median (List.map (fun h -> h.words /. ops) hosts));
      ("peak_heap_mb", !peak_heap_mb);
    ],
    [
      ("raw sim_ops_per_s", median (List.map (fun h -> ops /. h.run_s) hosts));
      ("raw setup_s", median (List.map (fun h -> h.setup_s) hosts));
    ] )

(* ---------- npb workloads ---------- *)

type npb_run = { result : Runner.result; checksum_ok : bool; host : host }

let machine_config os seed = { Machine.default_config with os; seed }

let npb_setup ?attach ~seed w () =
  let machine = Machine.create (machine_config w.os seed) in
  Option.iter (fun f -> f machine) attach;
  let proc, thread = Machine.load machine w.spec in
  (machine, proc, thread)

(* Fresh set-up and one Runner.run, both inside one calibration bracket. *)
let npb_rep ?attach ~rep ~seed w =
  Spans.within ~rep "rep" (fun () ->
      let ((machine, proc, _), setup, (result, host)), scale =
        calibrated (fun () ->
            let ((machine, proc, thread) as loaded), setup =
              Spans.within "setup" (fun () -> measure (npb_setup ?attach ~seed w))
            in
            let run =
              Spans.within "Runner.run" (fun () ->
                  measure (fun () -> Runner.run machine proc thread w.spec))
            in
            (loaded, setup, run))
      in
      let checksum_ok =
        Machine.read_user machine ~proc ~node:Node_id.X86 ~vaddr:W.Npb_common.checksum_vaddr
          ~width:8
        = Some w.checksum
      in
      (machine, { result; checksum_ok; host = { host with setup_s = setup.run_s; scale } }))

(* Checksum right, and the same simulated run as the reference. *)
let check_npb_run ~what ~(reference : Runner.result) r =
  ignore (check (what ^ ": checksum") r.checksum_ok);
  ignore
    (check (what ^ ": instructions and wall_cycles repeat")
       (r.result.Runner.instructions = reference.Runner.instructions
       && r.result.Runner.wall_cycles = reference.Runner.wall_cycles))

let npb_reps ~seconds ~seed w =
  let _, warm = npb_rep ~rep:0 ~seed w in
  let reference = warm.result in
  ignore (check "warm-up: checksum" warm.checksum_ok);
  let reps =
    repeat ~seconds ~min_reps:3 (fun i ->
        let _, r = npb_rep ~rep:(i + 1) ~seed w in
        note_peak_heap i;
        check_npb_run ~what:(Printf.sprintf "rep %d" (i + 1)) ~reference r;
        r)
  in
  (reference, List.map (fun r -> r.host) reps)

let sim_us cycles = Slo.cycles_to_us (float_of_int cycles)

let npb_e2e ~seconds ~seed w =
  let reference, hosts = npb_reps ~seconds ~seed w in
  let setups = extra_setups (fun () -> ignore (npb_setup ~seed w ())) in
  let wall = reference.Runner.wall_cycles in
  let host, raw = host_e2e ~ops:(float_of_int reference.Runner.instructions) ~setups hosts in
  ( host
    @ [
        ("sim_wall_cycles", float_of_int wall);
        ("sim_p50_us", sim_us wall);
        ("sim_p99_us", sim_us wall);
      ],
    raw )

(* ---------- obs tracer counts ---------- *)

let with_obs f =
  let tracer = Obs.create ~capacity:4096 () in
  Obs.install tracer;
  Fun.protect ~finally:Obs.uninstall (fun () ->
      let x = f () in
      (x, tracer))

let obs_layers tracer =
  let rows = Obs.attribution tracer in
  let count subsys op =
    List.fold_left
      (fun acc (r : Obs.row) -> if r.subsys = subsys && r.op = op then acc + r.count else acc)
      0 rows
  in
  (* self cycles over the subsystem's spans: nested spans of other
     subsystems are not counted twice *)
  let cycles subsys =
    List.fold_left
      (fun acc (r : Obs.row) -> if r.subsys = subsys then acc + r.self_cycles else acc)
      0 rows
  in
  let blocked =
    List.fold_left (fun acc n -> acc + Obs.node_blocked_cycles tracer n) 0 Node_id.all
  in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("page_table.walk_misses", count "page_table" "walk_miss");
      ("remote_walker.walks", count "remote_walker" "walk");
      ("remote_walker.sim_cycles", cycles "remote_walker");
      ("stramash_fault.faults", count "stramash_fault" "fault");
      ("stramash_fault.sim_cycles", cycles "stramash_fault");
      ("ptl.acquires", count "ptl" "acquire");
      ("blocked_on_remote_cycles", blocked);
      ("msg.rpcs", count "msg" "rpc");
      ("msg.sim_cycles", cycles "msg");
      ("dsm.wb_updates", count "dsm" "wb_update");
      ("dsm.faults", count "dsm" "fault");
      ("dsm.sim_cycles", cycles "dsm");
    ]

(* ---------- replay: cache stream into a fresh Cache_sim ---------- *)

(* The recorded stream, copied out of the Trace into a tag byte (node,
   kind) and an address per access, so that the timed loop pays for
   Cache_sim.access and little else. On npb-cg the stream is 14.9 M
   accesses and the traced run peaks at about 1 GB resident, most of it
   the Trace's own arrays. *)
let replay_cache config trace =
  let n = Cache_trace.length trace in
  let tags = Bytes.create n and addrs = Array.make n 0 in
  let kinds = [| Cache_sim.Ifetch; Cache_sim.Load; Cache_sim.Store |] in
  let kind_index = function Cache_sim.Ifetch -> 0 | Cache_sim.Load -> 1 | Cache_sim.Store -> 2 in
  let i = ref 0 in
  Cache_trace.iter trace ~f:(fun e ->
      Bytes.set_uint8 tags !i
        ((Node_id.index e.Cache_trace.node * 4) + kind_index e.Cache_trace.kind);
      addrs.(!i) <- e.Cache_trace.paddr;
      incr i);
  let cache = Cache_sim.create config in
  let (), host =
    timed (fun () ->
        for i = 0 to n - 1 do
          let tag = Bytes.get_uint8 tags i in
          ignore
            (Cache_sim.access cache ~node:(Node_id.of_index (tag lsr 2)) kinds.(tag land 3)
               ~paddr:addrs.(i))
        done)
  in
  (n, host, Cache_sim.stats cache)

(* ---------- replay: the Mir program on Interp over a flat memory ---------- *)

(* The spec's segments and the stack as byte arrays; any other address is
   an error. *)
module Flat = struct
  type seg = { base : int; data : Bytes.t }
  type t = { segs : seg array; mutable last : seg }

  exception Unmapped of int

  let of_segment (s : Spec.segment) =
    let data = Bytes.make s.Spec.len '\000' in
    (match s.Spec.init with
    | Spec.Zeroed -> ()
    | Spec.F64s a ->
        Array.iteri (fun i f -> Bytes.set_int64_le data (8 * i) (Int64.bits_of_float f)) a
    | Spec.I64s a -> Array.iteri (fun i v -> Bytes.set_int64_le data (8 * i) v) a
    | Spec.I32s a -> Array.iteri (fun i v -> Bytes.set_int32_le data (4 * i) v) a);
    { base = s.Spec.base; data }

  let create (spec : Spec.t) =
    let stack = { base = Spec.stack_base; data = Bytes.make Spec.stack_len '\000' } in
    let segs = Array.of_list (stack :: List.map of_segment spec.Spec.segments) in
    { segs; last = stack }

  let inside s vaddr width = vaddr >= s.base && vaddr + width <= s.base + Bytes.length s.data

  let seg t vaddr width =
    if inside t.last vaddr width then t.last
    else
      match Array.find_opt (fun s -> inside s vaddr width) t.segs with
      | Some s ->
          t.last <- s;
          s
      | None -> raise (Unmapped vaddr)

  (* zero-extended, as Interp.memio.load *)
  let load t width vaddr =
    let s = seg t vaddr width in
    let off = vaddr - s.base in
    match width with
    | 1 -> Int64.of_int (Bytes.get_uint8 s.data off)
    | 2 -> Int64.of_int (Bytes.get_uint16_le s.data off)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le s.data off)) 0xFFFF_FFFFL
    | _ -> Bytes.get_int64_le s.data off

  let store t width vaddr v =
    let s = seg t vaddr width in
    let off = vaddr - s.base in
    match width with
    | 1 -> Bytes.set_uint8 s.data off (Int64.to_int v land 0xff)
    | 2 -> Bytes.set_uint16_le s.data off (Int64.to_int v land 0xffff)
    | 4 -> Bytes.set_int32_le s.data off (Int64.to_int32 v)
    | _ -> Bytes.set_int64_le s.data off v
end

(* Run-length-encoded translation stream: key = vpage lsl 1 lor write. *)
module Pages = struct
  type t = { mutable keys : int array; mutable counts : int array; mutable len : int }

  let create () = { keys = Array.make 4096 0; counts = Array.make 4096 0; len = 0 }

  let add t ~vaddr ~write =
    let key = (Addr.page_of vaddr lsl 1) lor if write then 1 else 0 in
    if t.len > 0 && t.keys.(t.len - 1) = key then t.counts.(t.len - 1) <- t.counts.(t.len - 1) + 1
    else begin
      if t.len = Array.length t.keys then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        t.keys <- grow t.keys;
        t.counts <- grow t.counts
      end;
      t.keys.(t.len) <- key;
      t.counts.(t.len) <- 1;
      t.len <- t.len + 1
    end
end

(* The Mir program on the x86 image, migration points passed through. *)
let interp_run image memio =
  let cpu = Interp.create ~tc:(Interp.make_tc ()) image in
  let rec go () =
    match Interp.run cpu memio ~fuel:(1 lsl 24) with
    | Interp.Halted -> ()
    | Interp.Out_of_fuel | Interp.Migrate _ -> go ()
    | Interp.Syscall _ -> failwith "perfbench: syscall in a single-threaded NPB kernel"
  in
  go ();
  (Interp.icount cpu, Option.fold ~none:[] ~some:Interp.tc_counters (Interp.tc cpu))

let x86_image spec = Codegen.lower ~isa:Node_id.X86 spec.Spec.mir
let flat_checksum flat = Flat.load flat 8 W.Npb_common.checksum_vaddr

let record_pages spec =
  let flat = Flat.create spec in
  let pages = Pages.create () in
  let memio =
    {
      Interp.load =
        (fun width vaddr ->
          Pages.add pages ~vaddr ~write:false;
          Flat.load flat width vaddr);
      store =
        (fun width vaddr v ->
          Pages.add pages ~vaddr ~write:true;
          Flat.store flat width vaddr v);
      fetch = (fun vaddr -> Pages.add pages ~vaddr ~write:false);
    }
  in
  ignore (interp_run (x86_image spec) memio);
  (pages, flat_checksum flat)

let replay_interp spec =
  let flat = Flat.create spec in
  let image = x86_image spec in
  let memio = { Interp.load = Flat.load flat; store = Flat.store flat; fetch = ignore } in
  let (icount, _), host = timed (fun () -> interp_run image memio) in
  (icount, host, flat_checksum flat)

let replay_tlb (pages : Pages.t) =
  let tlb = Tlb.create () in
  let translates = ref 0 in
  let (), host =
    timed (fun () ->
        for i = 0 to pages.Pages.len - 1 do
          let key = pages.Pages.keys.(i) in
          let vpage = key lsr 1 and write = key land 1 = 1 in
          for _ = 1 to pages.Pages.counts.(i) do
            if Tlb.translate tlb ~asid:1 ~vpage ~write < 0 then
              Tlb.insert tlb ~asid:1 ~vpage { Tlb.frame = vpage; writable = true }
          done;
          translates := !translates + pages.Pages.counts.(i)
        done)
  in
  (!translates, host)

(* ---------- npb traced run ---------- *)

let sum_stat reg suffix =
  Metrics.fold reg ~init:0 ~f:(fun acc k v ->
      if String.ends_with ~suffix:("." ^ suffix) k then acc + v else acc)

let gc_layers ~ops hosts =
  [
    ( "gc.minor_collections_per_mop",
      median (List.map (fun h -> ratio (float_of_int h.minors) (ops /. 1e6)) hosts) );
    ("gc.major_collections", median (List.map (fun h -> float_of_int h.majors) hosts));
  ]

let npb_layers ~seconds ~seed w =
  let reference, hosts = npb_reps ~seconds ~seed w in
  let instr = float_of_int reference.Runner.instructions in
  let untraced_s = median (List.map ref_run hosts) in
  let per_instr x = ratio (float_of_int x) instr in
  let sum_arr a = Array.fold_left ( + ) 0 a in
  (* obs tracer: kernel-layer op counts and simulated cycles *)
  let (_, traced), tracer =
    Spans.within ~rep:(-1) "obs_traced" (fun () ->
        with_obs (fun () -> npb_rep ~rep:(-1) ~seed w))
  in
  check_npb_run ~what:"obs-traced run" ~reference traced;
  (* recording run: a registered probe turns the fused fast path off, so
     this run feeds no timing *)
  let trace = Cache_trace.create () in
  let config, recorded =
    Spans.within ~rep:(-2) "record.cache_stream" (fun () ->
        let machine, r =
          npb_rep ~attach:(fun m -> Cache_trace.attach trace (Machine.cache m)) ~rep:(-2) ~seed w
        in
        (Cache_sim.config (Machine.cache machine), r))
  in
  check_npb_run ~what:"recording run" ~reference recorded;
  let accesses, cache_host, replayed =
    Spans.within ~rep:(-3) "replay.Cache_sim" (fun () -> replay_cache config trace)
  in
  let cache_valid =
    check "cache replay reproduces the run's cache registry"
      (Metrics.to_assoc recorded.result.Runner.cache = Metrics.to_assoc reference.Runner.cache
      && Metrics.to_assoc replayed = Metrics.to_assoc reference.Runner.cache)
  in
  (* the interpreter alone over a flat memory: vaddr/fetch stream, then timed *)
  let pages, recorded_sum =
    Spans.within ~rep:(-4) "record.vaddr_stream" (fun () -> record_pages w.spec)
  in
  let icount, interp_host, replay_sum =
    Spans.within ~rep:(-5) "replay.Interp" (fun () -> replay_interp w.spec)
  in
  let interp_valid =
    check "interp replay stores the expected checksum"
      (recorded_sum = w.checksum && replay_sum = w.checksum)
  in
  let translates, tlb_host = Spans.within ~rep:(-6) "replay.Tlb" (fun () -> replay_tlb pages) in
  let valid ok x = if ok then x else 0.0 in
  let ns host n = ratio (ref_run host *. 1e9) (float_of_int n) in
  let ext = reference.Runner.ext in
  let l0_hits = sum_arr ext.Runner.l0_hits and l0_misses = sum_arr ext.Runner.l0_misses in
  let tc_instrs = Option.value (List.assoc_opt "tc.instrs" ext.Runner.trace_cache) ~default:0 in
  let cache = reference.Runner.cache in
  [
    ("cache_sim.ns_per_access", valid cache_valid (ns cache_host accesses));
    ( "cache_sim.words_per_access",
      valid cache_valid (ratio cache_host.words (float_of_int accesses)) );
    ("cache_sim.host_share", valid cache_valid (ratio (ref_run cache_host) untraced_s));
    ("cache_sim.accesses_per_instr", valid cache_valid (per_instr accesses));
    ("cache_sim.l0_hit_frac", ratio (float_of_int l0_hits) (float_of_int (l0_hits + l0_misses)));
    ( "cache.l1d_miss_per_kinstr",
      1000.0 *. per_instr (sum_stat cache "l1d_accesses" - sum_stat cache "l1d_hits") );
    ("cache.remote_mem_hits", float_of_int (sum_stat cache "remote_mem_hits"));
    ( "cache.snoop_msgs",
      float_of_int (sum_stat cache "snoop_data" + sum_stat cache "snoop_invalidates") );
    ("interp.ns_per_instr", valid interp_valid (ns interp_host icount));
    ( "interp.words_per_instr",
      valid interp_valid (ratio interp_host.words (float_of_int icount)) );
    ("interp.host_share", valid interp_valid (ratio (ref_run interp_host) untraced_s));
    ("interp.tc_instr_frac", per_instr tc_instrs);
    ("tlb.ns_per_translate", valid interp_valid (ns tlb_host translates));
    ("tlb.miss_per_kinstr", 1000.0 *. per_instr (sum_arr reference.Runner.tlb_misses));
    ("serve.queue_wait_cycles_per_req", 0.0);
    ("serve.quanta_per_req", 0.0);
    ("trace.overhead_frac", ratio (ref_run traced.host) untraced_s -. 1.0);
  ]
  @ obs_layers tracer @ gc_layers ~ops:instr hosts

(* ---------- serve-zipf ---------- *)

let serve_config seed = { Serve.default with Serve.seed }
let requests = float_of_int Serve.default.Serve.requests

(* Everything a same-seed rerun must reproduce. *)
let serve_signature (o : Serve.outcome) =
  (o.Serve.o_wall, o.Serve.o_counters, Histogram.bucket_counts o.Serve.o_all)

(* Serve.run starts with exactly this pair of calls. *)
let serve_setup ~seed () =
  let machine = Machine.create (machine_config Machine.Stramash_kernel_os seed) in
  ignore (Machine.load machine (Serve_workload.store_spec ~keys:Serve.default.Serve.keys))

let serve_rep ~rep ~seed =
  Spans.within ~rep "rep" (fun () ->
      let (setup, (outcome, host)), scale =
        calibrated (fun () ->
            let (), setup = Spans.within "setup" (fun () -> measure (serve_setup ~seed)) in
            (* the set-up sample's machine, with its 64 MiB keyspace, is
               garbage now: collect it here, so that the point at which the
               collector frees it does not move the heap's high-water mark *)
            Gc.full_major ();
            let run =
              Spans.within "Serve.run" (fun () -> measure (fun () -> Serve.run (serve_config seed)))
            in
            (setup, run))
      in
      (outcome, { host with setup_s = setup.run_s; scale }))

let check_serve ~what ?reference (o : Serve.outcome) =
  ignore
    (check (what ^ ": every request completed")
       (List.assoc_opt "serve.completed" o.Serve.o_counters = Some Serve.default.Serve.requests));
  ignore (check (what ^ ": SLO met") o.Serve.o_slo.Slo.pass);
  Option.iter
    (fun r -> ignore (check (what ^ ": same-seed outcome repeats") (serve_signature o = r)))
    reference

let serve_reps ~seconds ~seed =
  let warm, _ = serve_rep ~rep:0 ~seed in
  check_serve ~what:"warm-up" warm;
  let reference = serve_signature warm in
  let hosts =
    repeat ~seconds ~min_reps:3 (fun i ->
        let o, h = serve_rep ~rep:(i + 1) ~seed in
        note_peak_heap i;
        check_serve ~what:(Printf.sprintf "rep %d" (i + 1)) ~reference o;
        h)
  in
  (warm, reference, hosts)

let serve_e2e ~seconds ~seed =
  let o, _, hosts = serve_reps ~seconds ~seed in
  let setups = extra_setups (serve_setup ~seed) in
  let host, raw = host_e2e ~ops:requests ~setups hosts in
  ( host
    @ [
        ("sim_wall_cycles", float_of_int o.Serve.o_wall);
        ("sim_p50_us", Slo.cycles_to_us (Histogram.p50 o.Serve.o_all));
        ("sim_p99_us", Slo.cycles_to_us (Histogram.p99 o.Serve.o_all));
      ],
    raw )

let serve_layers ~seconds ~seed =
  let o, reference, hosts = serve_reps ~seconds ~seed in
  let untraced_s = median (List.map ref_run hosts) in
  let (traced, traced_host), tracer =
    Spans.within ~rep:(-1) "obs_traced" (fun () ->
        with_obs (fun () -> serve_rep ~rep:(-1) ~seed))
  in
  check_serve ~what:"obs-traced run" ~reference traced;
  let per_req k =
    float_of_int (Option.value (List.assoc_opt k o.Serve.o_counters) ~default:0) /. requests
  in
  List.filter_map
    (fun mm -> if List.mem mm.layer replay_layers then Some (mm.name, 0.0) else None)
    per_layer
  @ [
      ("serve.queue_wait_cycles_per_req", per_req "serve.queue_wait_cycles");
      ("serve.quanta_per_req", per_req "serve.quanta");
      ("trace.overhead_frac", ratio (ref_run traced_host) untraced_s -. 1.0);
    ]
  @ obs_layers tracer @ gc_layers ~ops:requests hosts

(* ---------- output ---------- *)

let better_name = function Higher -> "higher" | Lower -> "lower"
let row_format = format_of_string "%-34s %16s %-7s %-6s %-36s %s\n"

let print_catalogue () =
  Printf.printf row_format "metric" "" "unit" "better" "layer" "should move";
  List.iter
    (fun mm -> Printf.printf row_format mm.name "" mm.unit_ (better_name mm.better) mm.layer mm.moves)
    (end_to_end @ per_layer);
  Printf.printf "workloads: %s\n" (String.concat ", " workload_names)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let report ~workload ~catalogue ~notes values =
  let value name =
    match List.assoc_opt name values with
    | Some v -> v
    | None -> failwith ("perfbench: metric not computed: " ^ name)
  in
  Printf.printf "%s: %d checks, %d failed, failed_frac %g\n" workload !attempted !failed
    (ratio (float_of_int !failed) (float_of_int !attempted));
  Printf.printf "calibration loop: median %.4f s over %d timings (reference %.4f s)\n"
    (median !calib_times) (List.length !calib_times) calib_ref_s;
  List.iter (fun (k, v) -> Printf.printf "%s: %.6g\n" k v) notes;
  Printf.printf row_format "metric" "value" "unit" "better" "layer" "should move";
  List.iter
    (fun mm ->
      Printf.printf row_format mm.name
        (Printf.sprintf "%.6g" (value mm.name))
        mm.unit_ (better_name mm.better) mm.layer mm.moves)
    catalogue;
  let metrics =
    List.map
      (fun mm ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mm.name
          (json_number (value mm.name)) mm.unit_)
      catalogue
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " metrics)

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload npb-cg|npb-is-popcorn|serve-zipf [--seed N] [--seconds S] \
     [--trace 0|1]\n\
    \       perfbench.exe --list";
  exit 2

let () =
  (* the CLI's setting: a larger minor heap for the interpreter's churn *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--list" :: _ ->
        print_catalogue ();
        exit 0
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed64 = Int64.of_int !seed and seconds = !seconds in
  match workload_of_name !workload with
  | None -> usage ()
  | Some w when not !trace ->
      let values, raw =
        match w with
        | Npb n -> npb_e2e ~seconds ~seed:seed64 n
        | Serve_zipf -> serve_e2e ~seconds ~seed:seed64
      in
      report ~workload:!workload ~catalogue:end_to_end ~notes:raw values
  | Some w ->
      Spans.on := true;
      let values =
        match w with
        | Npb n -> npb_layers ~seconds ~seed:seed64 n
        | Serve_zipf -> serve_layers ~seconds ~seed:seed64
      in
      let dir = "perfbench_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed) in
      Spans.write path;
      Printf.printf "spans: %s\n" path;
      report ~workload:!workload ~catalogue:per_layer ~notes:[] values
