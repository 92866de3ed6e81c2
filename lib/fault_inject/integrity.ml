(* End-to-end integrity: CRC32 fingerprints over physical pages, the
   seeded bit-flip injector that corrupts them, the epoch-budgeted
   scrubber that detects the damage, and the replica-backed repair path.

   The store tracks only paired frames — replicated pages whose home and
   replica copies are bit-identical by construction (a write to either
   collapses the pair through the placement write hook before it lands),
   so every tracked frame has both a sealed reference CRC and a clean
   twin to repair from. Injection, scanning, and repair all walk a
   sorted roster, never a hashtable, so two runs from one seed touch
   frames in the same order and the whole subsystem replays
   byte-identically.

   Layering: this module sits below [Plan] (which owns the corruption
   schedule and wraps an optional [t] exactly like [Health]); it may use
   the sim and mem layers only. *)

open Stramash_sim
module Phys_mem = Stramash_mem.Phys_mem
module Addr = Stramash_mem.Addr

(* ---------- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc_byte crc b =
  let table = Lazy.force crc_table in
  table.((crc lxor b) land 0xFF) lxor (crc lsr 8)

let crc32_string s =
  let crc = ref 0xFFFFFFFF in
  String.iter (fun ch -> crc := crc_byte !crc (Char.code ch)) s;
  !crc lxor 0xFFFFFFFF

(* Page CRC reads the frame as 512 little-endian u64 words through the
   public Phys_mem interface — byte-equivalent to crc32 of the raw page,
   with no extra entry point into the memory model. *)
let words_per_page = Addr.page_size / 8

let crc32_page phys ~frame =
  let crc = ref 0xFFFFFFFF in
  for w = 0 to words_per_page - 1 do
    let v = ref (Phys_mem.read_u64 phys (frame + (8 * w))) in
    for _ = 0 to 7 do
      crc := crc_byte !crc (Int64.to_int (Int64.logand !v 0xFFL));
      v := Int64.shift_right_logical !v 8
    done
  done;
  !crc lxor 0xFFFFFFFF

(* ---------- cost model ---------- *)

(* Scanning a page streams 4 KiB through the checksum unit: charged like
   a local page copy. A repair is a page transfer; cross-ISA it pays the
   same wire cost as a placement replication. *)
let scan_cost_cycles = Cycles.of_ns 400.0
let repair_local_cycles = Cycles.of_ns 600.0
let repair_cross_cycles = Cycles.of_us 2.0
let msg_crc_cycles ~bytes = 4 + (bytes / 64)

(* ---------- fingerprint store ---------- *)

type seal = {
  mutable s_crc : int;  (* reference CRC sealed at pair time *)
  s_node : Node_id.t;  (* node whose memory holds the frame *)
  s_is_home : bool;  (* the authoritative copy (false = placement replica) *)
  mutable s_twin : int;  (* paddr of the bit-identical twin *)
  mutable s_pending : int;  (* cycle the injector hit it; -1 = clean *)
}

type repair = {
  rp_frame : int;
  rp_src : Node_id.t;
  rp_dst : Node_id.t;
  rp_latency : int;  (* detection latency: cycles from injection to repair *)
}

type flip_event = { fe_at : int; fe_node : int; fe_bits : int }

type tick_summary = {
  ts_flips : int;
  ts_scanned : int;
  ts_repairs : repair list;
  ts_unrepaired : int;
}

let empty_summary = { ts_flips = 0; ts_scanned = 0; ts_repairs = []; ts_unrepaired = 0 }

type t = {
  rng : Rng.t;
  metrics : Metrics.registry;
  mutable events : flip_event list;  (* sorted by fe_at; due events retry until a victim exists *)
  seals : (int, seal) Hashtbl.t;  (* paddr of page base -> seal *)
  mutable roster : int array;  (* sorted tracked paddrs *)
  scrub : bool;
  interval : int;
  budget : int;
  mutable cursor : int;
  mutable last_sweep : int;
  mutable max_exposure : int;
}

let create ~rng ~metrics ~flips ~scrub ~interval ~budget =
  {
    rng;
    metrics;
    events =
      List.stable_sort
        (fun a b -> compare a.fe_at b.fe_at)
        (List.map (fun (at, node, bits) -> { fe_at = at; fe_node = node; fe_bits = bits }) flips);
    seals = Hashtbl.create 64;
    roster = [||];
    scrub;
    interval = max 1 interval;
    budget = max 1 budget;
    cursor = 0;
    last_sweep = 0;
    max_exposure = 0;
  }

let tracked t = Hashtbl.length t.seals
let pending_count t = Hashtbl.fold (fun _ s n -> if s.s_pending >= 0 then n + 1 else n) t.seals 0

let rebuild_roster t =
  let frames = Hashtbl.fold (fun f _ acc -> f :: acc) t.seals [] in
  t.roster <- Array.of_list (List.sort compare frames);
  if Array.length t.roster > 0 then t.cursor <- t.cursor mod Array.length t.roster
  else t.cursor <- 0

let pair t phys ~home ~home_node ~replica ~replica_node =
  let crc = crc32_page phys ~frame:home in
  Hashtbl.replace t.seals home
    { s_crc = crc; s_node = home_node; s_is_home = true; s_twin = replica; s_pending = -1 };
  Hashtbl.replace t.seals replica
    { s_crc = crc; s_node = replica_node; s_is_home = false; s_twin = home; s_pending = -1 };
  Metrics.incr t.metrics "scrub.pages_sealed";
  rebuild_roster t

let unpair t ~home ~replica =
  Hashtbl.remove t.seals home;
  Hashtbl.remove t.seals replica;
  rebuild_roster t

(* ---------- detection + repair ---------- *)

let note_detected t seal ~now =
  Metrics.incr t.metrics "corruption.detected";
  if seal.s_pending >= 0 then begin
    let latency = max 0 (now - seal.s_pending) in
    Metrics.add t.metrics "corruption.detection_latency_cycles" latency;
    if latency > t.max_exposure then begin
      t.max_exposure <- latency;
      Metrics.set t.metrics "corruption.exposure_max_cycles" latency
    end;
    latency
  end
  else 0

(* Verify one sealed frame; on mismatch repair from its twin. The twin
   is authoritative only if its own CRC still matches the seal — a twin
   that is itself corrupt cannot repair anyone. *)
let verify_frame t phys ~frame ~now =
  match Hashtbl.find_opt t.seals frame with
  | None -> `Untracked
  | Some seal ->
      if crc32_page phys ~frame = seal.s_crc then `Clean
      else begin
        let latency = note_detected t seal ~now in
        match Hashtbl.find_opt t.seals seal.s_twin with
        | Some ts when ts.s_twin = frame && crc32_page phys ~frame:seal.s_twin = ts.s_crc ->
            Phys_mem.copy_page phys ~src:seal.s_twin ~dst:frame;
            seal.s_pending <- -1;
            (* a damaged home re-fetches from its clean replica; a
               damaged replica re-fetches from the owner's home copy *)
            Metrics.incr t.metrics
              (if seal.s_is_home then "corruption.repaired_replica"
               else "corruption.repaired_owner");
            `Repaired
              { rp_frame = frame; rp_src = ts.s_node; rp_dst = seal.s_node; rp_latency = latency }
        | _ ->
            Metrics.incr t.metrics "corruption.unrepaired";
            `Unrepaired
      end

(* Immediate verify at a pair's choke points (collapse, reconcile,
   drain): corruption must be caught before the pair dissolves, or a
   damaged home frame would escape the tracked set. *)
let check_pair t phys ~home ~replica ~now =
  let fold frame (repairs, unrepaired, scanned) =
    match verify_frame t phys ~frame ~now with
    | `Untracked -> (repairs, unrepaired, scanned)
    | `Clean -> (repairs, unrepaired, scanned + 1)
    | `Repaired r -> (r :: repairs, unrepaired, scanned + 1)
    | `Unrepaired -> (repairs, unrepaired + 1, scanned + 1)
  in
  let repairs, unrepaired, scanned = fold home (fold replica ([], 0, 0)) in
  Metrics.add t.metrics "scrub.pages_scanned" scanned;
  { ts_flips = 0; ts_scanned = scanned; ts_repairs = List.rev repairs; ts_unrepaired = unrepaired }

(* ---------- injection ---------- *)

(* A victim frame must be clean and have a clean twin: flipping a frame
   whose twin is already corrupt would leave the pair unrepairable, and
   re-flipping a pending frame could cancel bits and hide the first
   injection from the detector. Events whose time has come but that find
   no eligible victim stay queued and retry at the next tick. *)
let eligible t seal frame =
  seal.s_pending < 0
  &&
  match Hashtbl.find_opt t.seals seal.s_twin with
  | Some twin -> twin.s_pending < 0 && twin.s_twin = frame
  | None -> false

let pick_victim t ~node_index =
  let all =
    Array.to_list t.roster
    |> List.filter (fun f ->
           match Hashtbl.find_opt t.seals f with Some s -> eligible t s f | None -> false)
  in
  let preferred =
    List.filter
      (fun f ->
        match Hashtbl.find_opt t.seals f with
        | Some s -> Node_id.index s.s_node = node_index
        | None -> false)
      all
  in
  match (if preferred <> [] then preferred else all) with
  | [] -> None
  | pool ->
      let pool = Array.of_list pool in
      Some pool.(Rng.int t.rng (Array.length pool))

(* The injected damage is *silent* by construction: flips land in the
   low byte of an aligned 64-bit word, perturbing the stored value
   without manufacturing a wild pointer. A flip in the high bits of an
   index or address is not an SDC — the MMU faults on the first consume
   and detection is free; the corruption this subsystem exists to catch
   is the kind that changes answers while every access stays mapped,
   leaving the checksum scrubber as the only detector. *)
let flip_bits t phys ~frame ~bits ~now =
  let word = 8 * Rng.int t.rng words_per_page in
  let addr = frame + word in
  let mask = ref 0L in
  let chosen = ref 0 in
  let bits = min bits 8 in
  while !chosen < bits do
    let bit = Rng.int t.rng 8 in
    let m = Int64.shift_left 1L bit in
    if Int64.logand !mask m = 0L then begin
      mask := Int64.logor !mask m;
      incr chosen
    end
  done;
  Phys_mem.write_u64 phys addr (Int64.logxor (Phys_mem.read_u64 phys addr) !mask);
  (match Hashtbl.find_opt t.seals frame with
  | Some seal -> seal.s_pending <- now
  | None -> ());
  Metrics.incr t.metrics "corruption.flips";
  Metrics.add t.metrics "corruption.flipped_bits" bits;
  Stramash_obs.Trace.instant ~subsys:"fault" ~op:"bit_flip" ()

let run_injector t phys ~now =
  let rec go landed = function
    | e :: rest when e.fe_at <= now -> (
        match pick_victim t ~node_index:e.fe_node with
        | Some frame ->
            flip_bits t phys ~frame ~bits:e.fe_bits ~now;
            go (landed + 1) rest
        | None ->
            (* no eligible victim yet: keep this and everything later *)
            (landed, e :: rest))
    | rest -> (landed, rest)
  in
  let landed, remaining = go 0 t.events in
  t.events <- remaining;
  landed

(* ---------- scrubbing ---------- *)

let run_scrub t phys ~now =
  if
    (not t.scrub)
    || Array.length t.roster = 0
    || now - t.last_sweep < t.interval
  then ([], 0, 0)
  else begin
    t.last_sweep <- now;
    Metrics.incr t.metrics "scrub.epochs";
    let n = Array.length t.roster in
    let budget = min t.budget n in
    let repairs = ref [] in
    let unrepaired = ref 0 in
    let scanned = ref 0 in
    for i = 0 to budget - 1 do
      let frame = t.roster.((t.cursor + i) mod n) in
      (* a repair earlier in this sweep may have unsealed nothing, but
         the roster is stable within a sweep; verify handles a frame
         whose pair vanished mid-run by reporting [`Untracked] *)
      match verify_frame t phys ~frame ~now with
      | `Untracked -> ()
      | `Clean -> incr scanned
      | `Repaired r ->
          incr scanned;
          repairs := r :: !repairs
      | `Unrepaired ->
          incr scanned;
          incr unrepaired
    done;
    t.cursor <- (if n = 0 then 0 else (t.cursor + budget) mod n);
    Metrics.add t.metrics "scrub.pages_scanned" !scanned;
    (List.rev !repairs, !unrepaired, !scanned)
  end

(* One quantum-boundary tick: land due flips, then scrub. The caller
   charges [scan_cost_cycles] per scanned page and the repair transfer
   costs to the simulated clocks. *)
let tick t phys ~now =
  let landed = run_injector t phys ~now in
  let repairs, unrepaired, scanned = run_scrub t phys ~now in
  { ts_flips = landed; ts_scanned = scanned; ts_repairs = repairs; ts_unrepaired = unrepaired }

let flips_outstanding t = List.length t.events

(* Shutdown drain pass: verify every tracked frame in roster order,
   whatever the budget — run before the final audit so no injected
   corruption is still latent when the campaign proves its memory. *)
let sweep_all t phys ~now =
  let repairs = ref [] in
  let unrepaired = ref 0 in
  let scanned = ref 0 in
  Array.iter
    (fun frame ->
      match verify_frame t phys ~frame ~now with
      | `Untracked -> ()
      | `Clean -> incr scanned
      | `Repaired r ->
          incr scanned;
          repairs := r :: !repairs
      | `Unrepaired ->
          incr scanned;
          incr unrepaired)
    t.roster;
  Metrics.add t.metrics "scrub.pages_scanned" !scanned;
  { ts_flips = 0; ts_scanned = !scanned; ts_repairs = List.rev !repairs; ts_unrepaired = !unrepaired }

(* ---------- audit ---------- *)

(* The proof obligation after every repair: all sealed frames match
   their fingerprints and no injected corruption is still latent. *)
let audit_clean t phys =
  pending_count t = 0
  && Hashtbl.fold
       (fun frame seal ok -> ok && crc32_page phys ~frame = seal.s_crc)
       t.seals true

let max_exposure_cycles t = t.max_exposure
