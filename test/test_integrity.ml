(* End-to-end integrity: CRC32 framing, corruption-schedule validation,
   versioned checkpoint decode, the fingerprint store's
   inject/detect/repair cycle, and the scrub campaign. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Metrics = Stramash_sim.Metrics
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Vma = Stramash_kernel.Vma
module Plan = Stramash_fault_inject.Plan
module Integrity = Stramash_fault_inject.Integrity
module Checkpoint = Stramash_core.Checkpoint
module IE = Stramash_harness.Integrity_experiments
module Campaign = Stramash_harness.Campaign

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------- CRC32 ---------- *)

let test_crc_vectors () =
  (* IEEE 802.3 check value, plus a couple of independent fixtures. *)
  checki "check value" 0xCBF43926 (Integrity.crc32_string "123456789");
  checki "empty string" 0 (Integrity.crc32_string "");
  checki "single a" 0xE8B7BE43 (Integrity.crc32_string "a");
  checkb "prefix-sensitive" true
    (Integrity.crc32_string "stramash" <> Integrity.crc32_string "stramash ")

let test_crc_page_matches_raw_bytes () =
  let phys = Phys_mem.create () in
  let frame = 1000 * Addr.page_size in
  for w = 0 to 511 do
    Phys_mem.write_u64 phys (frame + (8 * w)) (Int64.of_int ((w * 2654435761) land 0xFFFFFF))
  done;
  let raw = Bytes.create Addr.page_size in
  for i = 0 to Addr.page_size - 1 do
    Bytes.set raw i (Char.chr (Phys_mem.read_u8 phys (frame + i)))
  done;
  checki "page CRC equals raw-byte CRC"
    (Integrity.crc32_string (Bytes.to_string raw))
    (Integrity.crc32_page phys ~frame);
  let before = Integrity.crc32_page phys ~frame in
  Phys_mem.write_u8 phys (frame + 123) (Phys_mem.read_u8 phys (frame + 123) lxor 1);
  checkb "one flipped bit changes the page CRC" true
    (before <> Integrity.crc32_page phys ~frame)

(* ---------- Plan.validate on corruption schedules ---------- *)

let flip ?(at = 100) ?(node = 0) ?(bits = 1) () =
  { Plan.bf_at = at; bf_node = node; bf_bits = bits }

let sw start len = { Plan.sw_start = start; sw_len = len }

let expect_invalid label config =
  match Plan.validate config with
  | Ok () -> Alcotest.failf "%s: validate accepted a malformed config" label
  | Error _ -> ()

let test_validate_rejects_malformed () =
  expect_invalid "zero-bit flip" { Plan.default with corrupt_flips = [ flip ~bits:0 () ] };
  expect_invalid "nine-bit flip (silent flips live in one byte)"
    { Plan.default with corrupt_flips = [ flip ~bits:9 () ] };
  expect_invalid "negative flip time" { Plan.default with corrupt_flips = [ flip ~at:(-1) () ] };
  expect_invalid "node index out of range"
    { Plan.default with corrupt_flips = [ flip ~node:2 () ] };
  expect_invalid "negative node index"
    { Plan.default with corrupt_flips = [ flip ~node:(-1) () ] };
  expect_invalid "msg rate > 1" { Plan.default with corrupt_msg_rate = 1.5 };
  expect_invalid "negative truncate rate" { Plan.default with corrupt_msg_truncate_rate = -0.1 };
  expect_invalid "ckpt rate > 1" { Plan.default with corrupt_ckpt_rate = 2.0 };
  expect_invalid "pte rate < 0" { Plan.default with corrupt_pte_rate = -1.0 };
  expect_invalid "overlapping scrub windows"
    { Plan.default with scrub_windows = [ sw 100 1000; sw 500 100 ] };
  expect_invalid "zero-length scrub window" { Plan.default with scrub_windows = [ sw 100 0 ] };
  expect_invalid "zero scrub interval" { Plan.default with scrub_interval_cycles = 0 };
  expect_invalid "zero scrub budget" { Plan.default with scrub_pages_per_epoch = 0 }

let test_validate_accepts_sane () =
  checkb "flips at both bounds" true
    (Plan.validate
       { Plan.default with corrupt_flips = [ flip ~bits:1 (); flip ~bits:8 ~node:1 () ] }
    = Ok ());
  checkb "adjacent scrub windows" true
    (Plan.validate { Plan.default with scrub_windows = [ sw 100 400; sw 500 100 ] } = Ok ());
  checkb "campaign probe config" true
    (Plan.validate
       (IE.probe_config IE.default)
    = Ok ());
  checkb "create raises on malformed" true
    (match
       Plan.create ~seed:1L { Plan.default with corrupt_flips = [ flip ~bits:0 () ] }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- checkpoint v2 framing ---------- *)

let sample_image =
  {
    Checkpoint.node = Node_id.X86;
    procs =
      [
        {
          Checkpoint.pid = 1;
          vmas =
            [
              { Checkpoint.v_start = 0x1000; v_end = 0x5000; v_kind = Vma.Data; v_writable = true };
              {
                Checkpoint.v_start = 0x8000;
                v_end = 0x9000;
                v_kind = Vma.Stack;
                v_writable = true;
              };
            ];
          ptes =
            [
              { Checkpoint.p_vaddr = 0x1000; p_frame = 7; p_writable = true; p_remote_owned = false };
              { Checkpoint.p_vaddr = 0x2000; p_frame = 9; p_writable = false; p_remote_owned = true };
            ];
        };
      ];
    futexes = [ { Checkpoint.f_home = Node_id.Arm; f_uaddr = 0x4000; f_tid = 3 } ];
  }

let test_roundtrip () =
  match Checkpoint.decode (Checkpoint.encode sample_image) with
  | Ok image -> checkb "image survives the round trip" true (image = sample_image)
  | Error e -> Alcotest.failf "roundtrip failed: %s" (Checkpoint.decode_error_to_string e)

let test_typed_decode_errors () =
  let blob = Checkpoint.encode sample_image in
  (match Checkpoint.decode "" with
  | Error Checkpoint.Bad_magic -> ()
  | _ -> Alcotest.fail "empty blob should be Bad_magic");
  (match Checkpoint.decode "some other file format\nbody" with
  | Error Checkpoint.Bad_magic -> ()
  | _ -> Alcotest.fail "foreign blob should be Bad_magic");
  (match Checkpoint.decode "stramash-checkpoint v1 10 deadbeef\nbody" with
  | Error (Checkpoint.Unsupported_version "v1") -> ()
  | _ -> Alcotest.fail "v1 header should be Unsupported_version");
  (match Checkpoint.decode "stramash-checkpoint" with
  | Error (Checkpoint.Unsupported_version _) -> ()
  | _ -> Alcotest.fail "bare magic should be Unsupported_version");
  (* Tear the tail off: fewer body bytes than the header promises. *)
  (match Checkpoint.decode (String.sub blob 0 (String.length blob - 5)) with
  | Error (Checkpoint.Truncated { expected; got }) ->
      checkb "truncation accounted" true (got < expected)
  | _ -> Alcotest.fail "torn blob should be Truncated");
  (* Flip one body byte: right length, wrong CRC. *)
  (let header_end = String.index blob '\n' + 1 in
   let rotted = Bytes.of_string blob in
   Bytes.set rotted header_end (Char.chr (Char.code (Bytes.get rotted header_end) lxor 0x40));
   match Checkpoint.decode (Bytes.to_string rotted) with
   | Error (Checkpoint.Checksum_mismatch _) -> ()
   | _ -> Alcotest.fail "bit rot should be Checksum_mismatch");
  (* A well-framed header over a nonsense body: checks pass, parse fails. *)
  let body = "node x86\nnot a record\n" in
  let framed =
    Printf.sprintf "stramash-checkpoint v2 %d %08x\n%s" (String.length body)
      (Integrity.crc32_string body) body
  in
  match Checkpoint.decode framed with
  | Error (Checkpoint.Malformed _) -> ()
  | _ -> Alcotest.fail "framed garbage should be Malformed"

(* Every strict prefix of a valid blob decodes to a typed error — never
   [Ok], never an exception. The prefix grammar covers torn headers, torn
   length fields and torn bodies in one sweep. *)
let prop_prefixes_never_decode =
  QCheck.Test.make ~name:"random prefix of a checkpoint never decodes" ~count:200
    QCheck.(int_range 0 10_000)
    (fun salt ->
      let image =
        {
          sample_image with
          Checkpoint.procs =
            List.map
              (fun p ->
                {
                  p with
                  Checkpoint.ptes =
                    List.map
                      (fun pte -> { pte with Checkpoint.p_frame = pte.Checkpoint.p_frame + salt })
                      p.Checkpoint.ptes;
                })
              sample_image.Checkpoint.procs;
        }
      in
      let blob = Checkpoint.encode image in
      let ok = ref true in
      for n = 0 to String.length blob - 1 do
        match Checkpoint.decode (String.sub blob 0 n) with
        | Ok _ ->
            ok := false (* a strict prefix must never pass the framing *)
        | Error _ -> ()
        | exception e ->
            ignore (QCheck.Test.fail_reportf "prefix %d raised %s" n (Printexc.to_string e))
      done;
      !ok)

(* ---------- the fingerprint store ---------- *)

let page n = n * Addr.page_size

let fill phys ~frame ~seed =
  for w = 0 to 511 do
    Phys_mem.write_u64 phys (frame + (8 * w)) (Int64.of_int ((seed + w) * 1103515245))
  done

let make_store ?(flips = []) ?(scrub = true) ?(windows = []) ?(interval = 10) ?(budget = 64) ()
    =
  Integrity.create ~rng:(Rng.create ~seed:42L) ~metrics:(Metrics.registry ()) ~flips ~scrub
    ~windows ~interval ~budget

let pair_frames st phys a b =
  fill phys ~frame:a ~seed:7;
  Phys_mem.copy_page phys ~src:a ~dst:b;
  Integrity.pair st phys ~home:a ~home_node:Node_id.X86 ~replica:b ~replica_node:Node_id.Arm

let test_pair_seal_and_audit () =
  let phys = Phys_mem.create () in
  let st = make_store () in
  checki "empty store tracks nothing" 0 (Integrity.tracked st);
  pair_frames st phys (page 10) (page 11);
  checki "a pair seals both frames" 2 (Integrity.tracked st);
  checkb "clean pair audits clean" true (Integrity.audit_clean st phys);
  Phys_mem.write_u8 phys (page 10 + 5) 0xFF;
  checkb "manual damage fails the audit" false (Integrity.audit_clean st phys);
  Integrity.unpair st ~home:(page 10) ~replica:(page 11);
  checki "unpair forgets both" 0 (Integrity.tracked st)

let test_inject_detect_repair_cycle () =
  let phys = Phys_mem.create () in
  (* The interval is wide enough that the sweep repairing the flip runs
     a later tick than the injection, so a real exposure window opens. *)
  let st = make_store ~flips:[ (100, 0, 2) ] ~interval:150 () in
  pair_frames st phys (page 20) (page 21);
  checki "event still queued before its time" 1 (Integrity.flips_outstanding st);
  let s0 = Integrity.tick st phys ~now:50 in
  checki "nothing lands early" 0 s0.Integrity.ts_flips;
  let s1 = Integrity.tick st phys ~now:100 in
  checki "flip lands when due" 1 s1.Integrity.ts_flips;
  checki "event consumed" 0 (Integrity.flips_outstanding st);
  (* The sweep of a later tick (budget covers the whole roster) finds
     and heals it. *)
  let s2 = Integrity.tick st phys ~now:300 in
  let repairs = List.length s1.Integrity.ts_repairs + List.length s2.Integrity.ts_repairs in
  checki "exactly one repair" 1 repairs;
  checki "no corruption left pending" 0 (Integrity.pending_count st);
  checkb "repair restored the twin bytes" true
    (Integrity.crc32_page phys ~frame:(page 20) = Integrity.crc32_page phys ~frame:(page 21));
  checkb "audits clean after repair" true (Integrity.audit_clean st phys);
  checkb "exposure window recorded" true (Integrity.max_exposure_cycles st > 0)

let test_flip_waits_for_an_eligible_victim () =
  let phys = Phys_mem.create () in
  let st = make_store ~flips:[ (10, 0, 1) ] () in
  let s = Integrity.tick st phys ~now:50 in
  checki "no roster, nothing lands" 0 s.Integrity.ts_flips;
  checki "the event is retained, not dropped" 1 (Integrity.flips_outstanding st);
  pair_frames st phys (page 30) (page 31);
  let s2 = Integrity.tick st phys ~now:60 in
  checki "lands once a pair exists" 1 s2.Integrity.ts_flips

let test_check_pair_choke_point () =
  let phys = Phys_mem.create () in
  let st = make_store ~flips:[ (10, 1, 1) ] ~scrub:false () in
  pair_frames st phys (page 40) (page 41);
  ignore (Integrity.tick st phys ~now:10);
  checki "scrubber off: damage stays latent" 1 (Integrity.pending_count st);
  let s = Integrity.check_pair st phys ~home:(page 40) ~replica:(page 41) ~now:999 in
  checki "the dissolution check repairs it" 1 (List.length s.Integrity.ts_repairs);
  checkb "bytes identical again" true
    (Integrity.crc32_page phys ~frame:(page 40) = Integrity.crc32_page phys ~frame:(page 41))

let test_sweep_all_and_unrepaired () =
  let phys = Phys_mem.create () in
  let st = make_store ~flips:[ (10, 0, 1) ] ~scrub:false () in
  pair_frames st phys (page 50) (page 51);
  ignore (Integrity.tick st phys ~now:10);
  let s = Integrity.sweep_all st phys ~now:100 in
  checki "shutdown sweep verifies the whole roster" 2 s.Integrity.ts_scanned;
  checki "and repairs the latent flip" 1 (List.length s.Integrity.ts_repairs);
  (* Damage both sides by hand: no clean twin remains, so the sweep can
     only report the loss. *)
  Phys_mem.write_u8 phys (page 50 + 9) 0xAA;
  Phys_mem.write_u8 phys (page 51 + 9) 0x55;
  let s2 = Integrity.sweep_all st phys ~now:200 in
  checkb "double damage is unrepairable" true (s2.Integrity.ts_unrepaired > 0);
  checkb "audit refuses the wreckage" false (Integrity.audit_clean st phys)

(* Flips are *silent* by construction: confined to the low byte of one
   aligned word, so a corrupt value can drift by at most 255 and an index
   or pointer read from the page cannot leave its mapped range. *)
let test_flips_are_low_byte_only () =
  let phys = Phys_mem.create () in
  let st =
    make_store ~flips:(List.init 32 (fun i -> (10 + i, i mod 2, 8))) ~scrub:false ()
  in
  let a = page 60 and b = page 61 in
  pair_frames st phys a b;
  let snapshot frame =
    Array.init 512 (fun w -> Phys_mem.read_u64 phys (frame + (8 * w)))
  in
  let wa = snapshot a and wb = snapshot b in
  for now = 10 to 60 do
    ignore (Integrity.tick st phys ~now)
  done;
  let check_drift frame orig =
    let now = snapshot frame in
    Array.iteri
      (fun w v ->
        let diff = Int64.logxor v now.(w) in
        checkb
          (Printf.sprintf "frame 0x%x word %d damage confined to the low byte" frame w)
          true
          (Int64.logand diff (Int64.lognot 0xFFL) = 0L))
      orig
  in
  check_drift a wa;
  check_drift b wb

(* ---------- unarmed plans stay inert ---------- *)

let test_unarmed_is_inert () =
  let plan = Plan.create ~seed:5L Plan.default in
  checkb "default plan not corruption-armed" false (Plan.corruption_armed plan);
  checkb "no integrity store" true (Plan.integrity plan = None);
  checkb "messages pass clean" true (Plan.msg_corrupt_verdict plan = `Clean);
  checkb "installs never stale" false (Plan.pte_corrupted plan);
  checkb "checkpoints never torn" true (Plan.ckpt_torn_fraction plan = None);
  checki "no corruption injected" 0 (Plan.corruption_injected plan);
  (* Scrub-only plans get the store (detection machinery) without arming
     any injection. *)
  let scrub_only = Plan.create ~seed:5L { Plan.default with scrub_enabled = true } in
  checkb "scrubber alone does not arm injection" false (Plan.corruption_armed scrub_only);
  checkb "but builds the store" true (Plan.integrity scrub_only <> None)

(* Arming a corruption schedule must not perturb the pre-existing fault
   streams: the corrupt stream is split from the seed *after* every other
   site, so the same drop/walk decisions come out with and without it. *)
let test_corruption_stream_does_not_perturb_base_sites () =
  let base = { Plan.default with msg_drop_rate = 0.3; walk_fail_rate = 0.2 } in
  let armed =
    {
      base with
      corrupt_flips = [ flip () ];
      corrupt_msg_rate = 0.5;
      corrupt_pte_rate = 0.5;
      scrub_enabled = true;
    }
  in
  let draw plan = List.init 300 (fun _ -> (Plan.msg_attempt plan, Plan.walk_read_faulted plan)) in
  checkb "base streams identical under corruption arming" true
    (draw (Plan.create ~seed:5L base) = draw (Plan.create ~seed:5L armed))

(* ---------- campaign ---------- *)

let test_campaign_unknown_bench () =
  let fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  checkb "unknown bench" true
    (IE.campaign fmt { IE.default with bench = "nope" } = Campaign.Unknown_bench)

let test_campaign_clean_and_deterministic () =
  let run () =
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    let verdict = IE.campaign fmt { IE.default with kills = 1 } in
    Format.pp_print_flush fmt ();
    (verdict, Buffer.contents buf)
  in
  let v1, out1 = run () in
  let v2, out2 = run () in
  checkb "clean" true (v1 = Campaign.Clean);
  checkb "replay clean" true (v2 = Campaign.Clean);
  checkb "same seed, byte-identical output" true (out1 = out2)

let () =
  Alcotest.run "integrity"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_vectors;
          Alcotest.test_case "page CRC matches raw bytes" `Quick test_crc_page_matches_raw_bytes;
        ] );
      ( "validate",
        [
          Alcotest.test_case "rejects malformed" `Quick test_validate_rejects_malformed;
          Alcotest.test_case "accepts sane" `Quick test_validate_accepts_sane;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "typed decode errors" `Quick test_typed_decode_errors;
          QCheck_alcotest.to_alcotest prop_prefixes_never_decode;
        ] );
      ( "store",
        [
          Alcotest.test_case "pair, seal, audit" `Quick test_pair_seal_and_audit;
          Alcotest.test_case "inject/detect/repair cycle" `Quick test_inject_detect_repair_cycle;
          Alcotest.test_case "flip waits for a victim" `Quick
            test_flip_waits_for_an_eligible_victim;
          Alcotest.test_case "check_pair choke point" `Quick test_check_pair_choke_point;
          Alcotest.test_case "sweep_all + unrepaired" `Quick test_sweep_all_and_unrepaired;
          Alcotest.test_case "flips stay in the low byte" `Quick test_flips_are_low_byte_only;
        ] );
      ( "inert",
        [
          Alcotest.test_case "unarmed is inert" `Quick test_unarmed_is_inert;
          Alcotest.test_case "base streams unperturbed" `Quick
            test_corruption_stream_does_not_perturb_base_sites;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "unknown bench" `Quick test_campaign_unknown_bench;
          Alcotest.test_case "clean + deterministic" `Slow test_campaign_clean_and_deterministic;
        ] );
    ]
