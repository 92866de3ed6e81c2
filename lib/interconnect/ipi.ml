module Rng = Stramash_sim.Rng
module Cycles = Stramash_sim.Cycles

type machine = {
  name : string;
  cores : int;
  smt : int;
  cores_per_cluster : int;
  sockets : int;
  base_ns : float;
  smt_discount_ns : float;
  cluster_penalty_ns : float;
  socket_penalty_ns : float;
  jitter_ns : float;
}

(* Calibrated so the big pair averages ~2us, matching the paper's use of
   that figure as the simulated cross-ISA IPI cost. *)
let small_arm =
  {
    name = "small_arm";
    cores = 8;
    smt = 1;
    cores_per_cluster = 4;
    sockets = 1;
    base_ns = 1350.0;
    smt_discount_ns = 0.0;
    cluster_penalty_ns = 260.0;
    socket_penalty_ns = 0.0;
    jitter_ns = 90.0;
  }

let big_arm =
  {
    name = "big_arm";
    cores = 64;
    smt = 4;
    cores_per_cluster = 16;
    sockets = 2;
    base_ns = 1500.0;
    smt_discount_ns = 450.0;
    cluster_penalty_ns = 180.0;
    socket_penalty_ns = 700.0;
    jitter_ns = 120.0;
  }

let small_x86 =
  {
    name = "small_x86";
    cores = 16;
    smt = 2;
    cores_per_cluster = 8;
    sockets = 1;
    base_ns = 1400.0;
    smt_discount_ns = 400.0;
    cluster_penalty_ns = 150.0;
    socket_penalty_ns = 0.0;
    jitter_ns = 110.0;
  }

let big_x86 =
  {
    name = "big_x86";
    cores = 104;
    smt = 2;
    cores_per_cluster = 26;
    sockets = 2;
    base_ns = 1550.0;
    smt_discount_ns = 420.0;
    cluster_penalty_ns = 160.0;
    socket_penalty_ns = 650.0;
    jitter_ns = 130.0;
  }

let physical_core m cpu = cpu / m.smt
let cluster m cpu = physical_core m cpu / (m.cores_per_cluster / m.smt)
let socket m cpu =
  let clusters_total = m.cores / m.cores_per_cluster in
  let clusters_per_socket = max 1 (clusters_total / m.sockets) in
  cluster m cpu / clusters_per_socket

let pair_latency_ns rng m ~src ~dst =
  if src = dst then 0.0
  else begin
    let lat = ref m.base_ns in
    if physical_core m src = physical_core m dst then lat := !lat -. m.smt_discount_ns
    else begin
      if cluster m src <> cluster m dst then lat := !lat +. m.cluster_penalty_ns;
      if socket m src <> socket m dst then lat := !lat +. m.socket_penalty_ns
    end;
    let noisy = Rng.gaussian rng ~mean:!lat ~sigma:m.jitter_ns in
    Float.max 200.0 noisy
  end

let matrix rng m =
  Array.init m.cores (fun src ->
      Array.init m.cores (fun dst -> pair_latency_ns rng m ~src ~dst))

let matrix_mean_ns mat =
  let sum = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if i <> j then begin
            sum := !sum +. v;
            incr n
          end)
        row)
    mat;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let cross_isa_ipi_cycles = Cycles.of_us 2.0

(* A cross-ISA TLB shootdown is one IPI round to the peer kernel (the
   Fig. 5-6 ~2 us doorbell cost); the local invalidation itself is in the
   architectural noise next to it, so the round is the whole charge. *)
let tlb_shootdown_cycles = cross_isa_ipi_cycles

module Plan = Stramash_fault_inject.Plan

type delivery = { cycles : int; lost : bool; jittered : bool }

let timeout_cycles = Cycles.of_us 50.0

module Trace = Stramash_obs.Trace

let cross_isa_delivery ?inject ?peer ?now () =
  let d =
    match inject with
    | None -> { cycles = cross_isa_ipi_cycles; lost = false; jittered = false }
    | Some plan -> (
        match Plan.ipi_delivery plan with
        | `On_time -> { cycles = cross_isa_ipi_cycles; lost = false; jittered = false }
        | `Jitter extra ->
            { cycles = cross_isa_ipi_cycles + extra; lost = false; jittered = true }
        | `Lost ->
            (* The interrupt never arrives; the receiver notices by timeout
               and falls back to polling the ring head. *)
            { cycles = timeout_cycles; lost = true; jittered = false })
  in
  (* Observation only: any slow-window inflation is charged (and
     observed) once at the message layer, so the IPI feeds the peer's
     health score without double-counting cycles. *)
  (match (inject, peer, now) with
  | Some plan, Some peer, Some now ->
      if d.lost then Plan.observe_failure plan ~peer ~now
      else
        Plan.observe_service plan ~peer ~cycles:d.cycles ~nominal:cross_isa_ipi_cycles
          ~now
  | _ -> ());
  (* No node in scope here: the event lands on the node of the innermost
     open span (the message send that triggered the IPI). *)
  if Trace.enabled () then
    Trace.instant ~subsys:"ipi" ~op:"deliver"
      ~tags:
        [
          ("outcome", if d.lost then "lost" else if d.jittered then "jitter" else "on_time");
          ("cycles", string_of_int d.cycles);
        ]
      ();
  d

module Fault = Stramash_fault_inject.Fault
module Liveness = Stramash_sim.Liveness
module Node_id = Stramash_sim.Node_id

let cross_isa_delivery_checked ~liveness ~dst ?inject () =
  if not (Liveness.is_alive liveness dst) then begin
    (* There is no core to interrupt: the doorbell write lands in a dead
       complex. This is a typed error, not a lost-IPI timeout — the caller
       must take the degraded path, not retry. *)
    if Trace.enabled () then
      Trace.instant ~subsys:"ipi" ~op:"deliver"
        ~tags:[ ("outcome", "dead_node"); ("dst", Node_id.to_string dst) ]
        ();
    Error (Fault.Node_dead { node = Node_id.to_string dst; op = "ipi" })
  end
  else Ok (cross_isa_delivery ?inject ())
