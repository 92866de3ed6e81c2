(* Tests for IPI latency model, shared-memory rings, and the TCP link. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Cycles = Stramash_sim.Cycles
module Layout = Stramash_mem.Layout
module Config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Ipi = Stramash_interconnect.Ipi
module Ring_buffer = Stramash_interconnect.Ring_buffer
module Tcp_link = Stramash_interconnect.Tcp_link
module Heartbeat = Stramash_interconnect.Heartbeat

let checki = Alcotest.(check int)

(* ---------- IPI ---------- *)

let test_ipi_big_pair_mean_2us () =
  List.iter
    (fun m ->
      let rng = Rng.create ~seed:99L in
      let mean = Ipi.matrix_mean_ns (Ipi.matrix rng m) in
      Alcotest.(check bool)
        (Printf.sprintf "%s mean near 2us (got %.0fns)" m.Ipi.name mean)
        true
        (Float.abs (mean -. 2000.0) < 150.0))
    [ Ipi.big_arm; Ipi.big_x86 ]

let test_ipi_self_is_zero () =
  let rng = Rng.create ~seed:1L in
  Alcotest.(check (float 0.0)) "self IPI" 0.0
    (Ipi.pair_latency_ns rng Ipi.big_x86 ~src:3 ~dst:3)

let test_ipi_smt_cheaper_than_cross_socket () =
  let rng = Rng.create ~seed:1L in
  let m = Ipi.big_x86 in
  let avg f =
    let n = 200 in
    let s = ref 0.0 in
    for _ = 1 to n do
      s := !s +. f ()
    done;
    !s /. float_of_int n
  in
  let smt = avg (fun () -> Ipi.pair_latency_ns rng m ~src:0 ~dst:1) in
  let far = avg (fun () -> Ipi.pair_latency_ns rng m ~src:0 ~dst:(m.Ipi.cores - 1)) in
  Alcotest.(check bool) "SMT sibling cheaper than cross-socket" true (smt < far)

let test_cross_isa_constant () =
  checki "2us at 2.1GHz" (Cycles.of_us 2.0) Ipi.cross_isa_ipi_cycles

(* ---------- Ring buffer ---------- *)

let make_ring ?(slots = 8) ?(slot_bytes = 256) () =
  let cache = Cache_sim.create (Config.default Layout.Shared) in
  Ring_buffer.create ~cache ~base:Layout.message_ring.Layout.lo ~slots ~slot_bytes
    ~sender:Node_id.X86

let test_ring_fifo () =
  let ring = make_ring () in
  (match Ring_buffer.send ring ~payload_bytes:16 "a" with Ok _ -> () | Error _ -> assert false);
  (match Ring_buffer.send ring ~payload_bytes:16 "b" with Ok _ -> () | Error _ -> assert false);
  checki "two queued" 2 (Ring_buffer.length ring);
  (match Ring_buffer.recv ring with
  | Some (_, v) -> Alcotest.(check string) "fifo order" "a" v
  | None -> assert false);
  (match Ring_buffer.recv ring with
  | Some (_, v) -> Alcotest.(check string) "fifo order 2" "b" v
  | None -> assert false);
  Alcotest.(check bool) "drained" true (Ring_buffer.recv ring = None)

let test_ring_full () =
  let ring = make_ring ~slots:2 ~slot_bytes:256 () in
  (match Ring_buffer.send ring ~payload_bytes:100 () with Ok _ -> () | Error _ -> assert false);
  (match Ring_buffer.send ring ~payload_bytes:100 () with Ok _ -> () | Error _ -> assert false);
  Alcotest.(check bool) "third send fails" true
    (Ring_buffer.send ring ~payload_bytes:100 () = Error `Full);
  ignore (Ring_buffer.recv ring);
  Alcotest.(check bool) "after recv there is room" true
    (Result.is_ok (Ring_buffer.send ring ~payload_bytes:100 ()))

let test_ring_costs_scale_with_payload () =
  let ring = make_ring ~slots:64 ~slot_bytes:4096 () in
  let cost_of bytes =
    match Ring_buffer.send ring ~payload_bytes:bytes () with
    | Ok c ->
        ignore (Ring_buffer.recv ring);
        c
    | Error _ -> assert false
  in
  let small = cost_of 64 in
  let large = cost_of 4000 in
  Alcotest.(check bool) "bigger payloads cost more" true (large > small)

let test_ring_multislot_messages () =
  let ring = make_ring ~slots:8 ~slot_bytes:256 () in
  (* 1000B payload + header needs several 256B slots *)
  (match Ring_buffer.send ring ~payload_bytes:1000 () with Ok _ -> () | Error _ -> assert false);
  Alcotest.(check bool) "multi-slot send leaves less room" true
    (Ring_buffer.send ring ~payload_bytes:1000 () = Error `Full
    || Ring_buffer.length ring = 1)

(* ---------- TCP ---------- *)

let test_tcp_rtt () =
  let link = Tcp_link.create () in
  let rtt = Tcp_link.round_trip_cycles link ~payload_bytes:0 in
  Alcotest.(check bool) "75us round trip" true
    (Float.abs (Cycles.to_us rtt -. 75.0) < 1.0)

let test_tcp_payload_term () =
  let link = Tcp_link.create () in
  Alcotest.(check bool) "payload adds latency" true
    (Tcp_link.one_way_cycles link ~payload_bytes:65536
    > Tcp_link.one_way_cycles link ~payload_bytes:64)

let test_tcp_custom_rtt () =
  let link = Tcp_link.create ~rtt_us:10.0 () in
  Alcotest.(check bool) "configurable rtt" true
    (Float.abs (Cycles.to_us (Tcp_link.round_trip_cycles link ~payload_bytes:0) -. 10.0) < 0.5)

(* ---------- heartbeat ---------- *)

(* Times are in hundredths of a beat interval, so [at 400] is exactly
   the third deadline after a beat at [at 100]. *)
let at n = n * Heartbeat.interval_cycles / 100

(* missed_deadlines counts whole intervals: the count (and therefore
   suspicion) flips exactly at the deadline, not one cycle early. *)
let test_heartbeat_deadline_boundary () =
  let hb = Heartbeat.create () in
  let peer = Node_id.Arm in
  Heartbeat.beat hb ~node:peer ~now:(at 100);
  checki "two deadlines one cycle before the third" (Heartbeat.miss_threshold - 1)
    (Heartbeat.missed_deadlines hb ~peer ~now:(at 400 - 1));
  Alcotest.(check bool) "not suspect one cycle early" false
    (Heartbeat.suspects hb ~peer ~now:(at 400 - 1));
  checki "third deadline exactly on the boundary" Heartbeat.miss_threshold
    (Heartbeat.missed_deadlines hb ~peer ~now:(at 400));
  Alcotest.(check bool) "suspect exactly on the deadline" true
    (Heartbeat.suspects hb ~peer ~now:(at 400));
  (* A beat landing exactly one interval after the previous one is
     on-time (boundary inclusive) for the re-admission streak. *)
  Heartbeat.declare_dead hb ~peer ~now:(at 400);
  Heartbeat.beat hb ~node:peer ~now:(at 500);
  Heartbeat.beat hb ~node:peer ~now:(at 600);
  Heartbeat.beat hb ~node:peer ~now:(at 700);
  Alcotest.(check bool) "exact-interval cadence readmits" false
    (Heartbeat.is_suspected hb ~peer)

(* A restart inside the suspicion window must re-earn trust: the first
   beat after the silence only resets the streak, and a late beat breaks
   a streak already in progress. *)
let test_heartbeat_restart_inside_window () =
  let hb = Heartbeat.create () in
  let peer = Node_id.X86 in
  Heartbeat.beat hb ~node:peer ~now:(at 50);
  Heartbeat.declare_dead hb ~peer ~now:(at 360);
  Alcotest.(check bool) "suspected after silence" true (Heartbeat.is_suspected hb ~peer);
  Heartbeat.beat hb ~node:peer ~now:(at 460);
  Alcotest.(check bool) "single post-restart beat never readmits" true
    (Heartbeat.is_suspected hb ~peer);
  Heartbeat.beat hb ~node:peer ~now:(at 550);
  Alcotest.(check bool) "streak of one not enough" true (Heartbeat.is_suspected hb ~peer);
  (* Late beat: the streak resets, suspicion survives. *)
  Heartbeat.beat hb ~node:peer ~now:(at 700);
  Alcotest.(check bool) "late beat breaks the streak" true (Heartbeat.is_suspected hb ~peer);
  Heartbeat.beat hb ~node:peer ~now:(at 790);
  Heartbeat.beat hb ~node:peer ~now:(at 880);
  Alcotest.(check bool) "full streak after the reset readmits" false
    (Heartbeat.is_suspected hb ~peer);
  checki "one readmission counted" 1 (Heartbeat.readmissions hb)

let prop_heartbeat_missed_monotone =
  QCheck.Test.make ~name:"missed_deadlines is monotone in now between beats" ~count:300
    QCheck.(
      let span n = int_range 0 (n * Heartbeat.interval_cycles) in
      triple (span 10) (span 20) (span 20))
    (fun (beat_at, a, b) ->
      let hb = Heartbeat.create () in
      let peer = Node_id.Arm in
      Heartbeat.beat hb ~node:peer ~now:beat_at;
      let t1 = min a b and t2 = max a b in
      let m1 = Heartbeat.missed_deadlines hb ~peer ~now:t1 in
      let m2 = Heartbeat.missed_deadlines hb ~peer ~now:t2 in
      m1 >= 0 && m1 <= m2)

let () =
  Alcotest.run "interconnect"
    [
      ( "ipi",
        [
          Alcotest.test_case "big pair mean 2us" `Quick test_ipi_big_pair_mean_2us;
          Alcotest.test_case "self zero" `Quick test_ipi_self_is_zero;
          Alcotest.test_case "topology ordering" `Quick test_ipi_smt_cheaper_than_cross_socket;
          Alcotest.test_case "cross-ISA constant" `Quick test_cross_isa_constant;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "full" `Quick test_ring_full;
          Alcotest.test_case "payload cost" `Quick test_ring_costs_scale_with_payload;
          Alcotest.test_case "multi-slot" `Quick test_ring_multislot_messages;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "rtt" `Quick test_tcp_rtt;
          Alcotest.test_case "payload term" `Quick test_tcp_payload_term;
          Alcotest.test_case "custom rtt" `Quick test_tcp_custom_rtt;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "deadline boundary" `Quick test_heartbeat_deadline_boundary;
          Alcotest.test_case "restart inside window" `Quick test_heartbeat_restart_inside_window;
          QCheck_alcotest.to_alcotest prop_heartbeat_missed_monotone;
        ] );
    ]
