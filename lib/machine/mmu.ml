module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Cache_sim = Stramash_cache.Cache_sim
module Cache_config = Stramash_cache.Config
module Level = Stramash_cache.Level
module Env = Stramash_kernel.Env
module Page_table = Stramash_kernel.Page_table
module Process = Stramash_kernel.Process
module Pte = Stramash_kernel.Pte
module Tlb = Stramash_kernel.Tlb
module Interp = Stramash_isa.Interp
module Fault = Stramash_fault_inject.Fault
module Placement = Stramash_placement.Engine

type t = {
  env : Env.t;
  os : Os.t;
  proc : Process.t;
  node : Node_id.t;
  asid : int;
  cache : Cache_sim.t;
  tlb : Tlb.t;
  mm : Process.mm;
  io : Page_table.io;
  placement : Placement.t option;
}

let create machine proc ~node =
  let env = Machine.env machine in
  {
    env;
    os = Machine.os machine;
    proc;
    node;
    asid = proc.Process.pid;
    cache = env.Env.cache;
    tlb = Env.tlb env node;
    mm = Env.ensure_mm env ~proc ~node;
    io = Env.pt_io env ~actor:node ~owner:node;
    placement = Machine.placement machine;
  }

(* Retry bound for fault-then-walk loops: a single fault must make the
   page accessible, so more than a few retries indicates a protocol bug. *)
let max_fault_retries = 4

(* Slow translation path: charged page-table walk, then the OS fault
   handler, then retry. Each retry re-enters [Tlb.translate], so every
   pass of the recursion counts one TLB probe. *)
let rec translate_slow t vaddr ~write ~retries =
  match Page_table.walk t.mm.Process.pgtable t.io ~vaddr with
  | Some (frame, flags) when (not write) || flags.Pte.writable ->
      Tlb.insert t.tlb ~asid:t.asid ~vpage:(Addr.page_of vaddr)
        { Tlb.frame; writable = flags.Pte.writable };
      frame
  | _ ->
      if retries >= max_fault_retries then
        failwith
          (Printf.sprintf "fault loop at 0x%x (%s, write=%b)" vaddr (Node_id.to_string t.node)
             write);
      (* The CLI edge of the typed-error API: an unrecoverable fault
         (segfault, OOM beyond hotplug) terminates the run as an
         exception with the error's rendering. *)
      (match Os.handle_fault t.os ~env:t.env ~proc:t.proc ~node:t.node ~vaddr ~write with
      | Ok () -> ()
      | Error e -> raise (Fault.Error e));
      let frame = Tlb.translate t.tlb ~asid:t.asid ~vpage:(Addr.page_of vaddr) ~write in
      if frame >= 0 then frame else translate_slow t vaddr ~write ~retries:(retries + 1)

(* Fused TLB probe + permission check + paddr assembly, allocation-free
   on a hit. [Tlb.translate] returns the frame, or [miss]/[not_writable];
   both negatives fall to the charged walk (a write hit on a read-only
   entry was a counted TLB hit in the reference model too — the walk is
   how the reference discovered the permission fault). *)
let data_paddr t vaddr ~write =
  let frame = Tlb.translate t.tlb ~asid:t.asid ~vpage:(vaddr lsr Addr.page_shift) ~write in
  let frame = if frame >= 0 then frame else translate_slow t vaddr ~write ~retries:0 in
  (frame lsl Addr.page_shift) + (vaddr land (Addr.page_size - 1))

let is_write = function Cache_sim.Store -> true | Cache_sim.Load | Cache_sim.Ifetch -> false

(* The cache access at a translated address, plus placement telemetry:
   one counter bump per user access, reusing the latency the access
   already paid for its hit-depth class. *)
let touch t kind ~vaddr ~paddr =
  let lat = Cache_sim.access t.cache ~node:t.node kind ~paddr in
  (match t.placement with
  | None -> ()
  | Some engine ->
      Placement.sample engine ~pid:t.asid ~node:t.node ~vaddr ~write:(is_write kind) ~latency:lat);
  lat

let access t kind ~vaddr = touch t kind ~vaddr ~paddr:(data_paddr t vaddr ~write:(is_write kind))

let memio t ~user_stalls =
  let node = t.node in
  let node_index = Node_id.index node in
  let cache = t.cache in
  let phys = t.env.Env.phys in
  let meter = Env.meter t.env node in
  let l1_lat = (Cache_config.latencies (Cache_sim.config cache) node).Stramash_mem.Latency.l1 in
  let stall lat =
    if lat > l1_lat then begin
      user_stalls.(node_index) <- user_stalls.(node_index) + lat;
      lat
    end
    else 0
  in
  let asid = t.asid in
  (* Bound once so the per-access address math below compiles to shifts and
     masks with no cross-module calls. *)
  let page_shift = Addr.page_shift in
  let page_mask = Addr.page_size - 1 in
  let load_slow width vaddr =
    let paddr = data_paddr t vaddr ~write:false in
    Meter.add meter (stall (touch t Cache_sim.Load ~vaddr ~paddr));
    if width = 8 then Phys_mem.read_u64 phys paddr else Phys_mem.read phys paddr ~width
  in
  let store_slow width vaddr value =
    let paddr = data_paddr t vaddr ~write:true in
    Meter.add meter (stall (touch t Cache_sim.Store ~vaddr ~paddr));
    if width = 8 then Phys_mem.write_u64 phys paddr value
    else Phys_mem.write phys paddr ~width value
  in
  let fetch_slow vaddr =
    let paddr = data_paddr t vaddr ~write:false in
    (* one base cycle per instruction + any fetch stall *)
    Meter.add meter (1 + stall (touch t Cache_sim.Ifetch ~vaddr ~paddr))
  in
  (* Fused fast path: when the Fast cache engine is authoritative for
     every access (no probes) and no placement sampler is attached, the
     all-hit per-instruction chain — TLB probe, L0/L1 replay, meter
     charge, physical access — runs inside one closure with no
     cross-module calls. The closures re-prove {e every} hit condition
     against the live arrays and commit no counter, LRU or meter mutation
     until all of them pass; any condition failing falls back to the
     reference closure above, which recounts the access from scratch
     (both the TLB probe and the L0 probe are pure until their commit, so
     the fallback observes exactly the reference state). On the committed
     path the effects are, in reference order: the TLB hit count, the
     Cache_sim L0-hit counter set, the L1 LRU touch (same way, same tick
     advance), the meter charge (1 + 0 stall for a fetch, 0 for data at
     L1 latency — [lat_l1 > l1_lat] is never true), and the [Phys_mem]
     byte access via the page-pointer cache. The runner rebuilds [memio]
     at every scheduling quantum, so a mid-run mode flip, probe
     registration or sampler attach revives the reference closures at the
     next quantum boundary — within a quantum nothing can register one. *)
  match (Cache_sim.fast_path cache ~node, t.placement) with
  | Some fp, None ->
      let tv = Tlb.view t.tlb in
      let pv = Phys_mem.view phys in
      let s = fp.Cache_sim.fp_stats in
      let line_shift = Addr.line_shift in
      let phys_page frame =
        let ps = frame land pv.Phys_mem.pv_mask in
        if Array.unsafe_get pv.Phys_mem.pv_frames ps = frame then
          Array.unsafe_get pv.Phys_mem.pv_pages ps
        else Phys_mem.page_for phys frame
      in
      {
        Interp.load =
          (fun width vaddr ->
            let vpage = vaddr lsr page_shift in
            let ts = vpage land tv.Tlb.tv_mask in
            if
              Array.unsafe_get tv.Tlb.tv_vpages ts = vpage
              && Array.unsafe_get tv.Tlb.tv_asids ts = asid
            then begin
              let frame = (Array.unsafe_get tv.Tlb.tv_entries ts).Tlb.frame in
              let off = vaddr land page_mask in
              let line = ((frame lsl page_shift) + off) lsr line_shift in
              let slot = line land fp.Cache_sim.fp_slot_mask in
              let way = Array.unsafe_get fp.Cache_sim.fp_d_ways slot in
              let v = fp.Cache_sim.fp_d_v in
              if
                Array.unsafe_get fp.Cache_sim.fp_d_lines slot = line
                && Array.unsafe_get v.Level.v_tags way = line
              then begin
                incr tv.Tlb.tv_hits;
                s.Cache_sim.l0_hits <- s.Cache_sim.l0_hits + 1;
                s.Cache_sim.l1d_accesses <- s.Cache_sim.l1d_accesses + 1;
                s.Cache_sim.mem_accesses <- s.Cache_sim.mem_accesses + 1;
                s.Cache_sim.l1d_hits <- s.Cache_sim.l1d_hits + 1;
                let tk = v.Level.v_tick in
                tk := !tk + 1;
                Array.unsafe_set v.Level.v_stamp way !tk;
                (* data stall at L1 latency is 0 cycles: no meter charge *)
                let page = phys_page frame in
                match width with
                | 8 -> Bytes.get_int64_le page off
                | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le page off)) 0xFFFFFFFFL
                | 2 -> Int64.of_int (Bytes.get_uint16_le page off)
                | 1 -> Int64.of_int (Char.code (Bytes.get page off))
                | _ -> Phys_mem.read phys ((frame lsl page_shift) + off) ~width
              end
              else load_slow width vaddr
            end
            else load_slow width vaddr);
        store =
          (fun width vaddr value ->
            let vpage = vaddr lsr page_shift in
            let ts = vpage land tv.Tlb.tv_mask in
            if
              Array.unsafe_get tv.Tlb.tv_vpages ts = vpage
              && Array.unsafe_get tv.Tlb.tv_asids ts = asid
            then begin
              let e = Array.unsafe_get tv.Tlb.tv_entries ts in
              let off = vaddr land page_mask in
              let line = ((e.Tlb.frame lsl page_shift) + off) lsr line_shift in
              let slot = line land fp.Cache_sim.fp_slot_mask in
              let way = Array.unsafe_get fp.Cache_sim.fp_d_ways slot in
              let v = fp.Cache_sim.fp_d_v in
              if
                e.Tlb.writable
                && Array.unsafe_get fp.Cache_sim.fp_d_lines slot = line
                && Array.unsafe_get fp.Cache_sim.fp_d_store_m slot
                && Array.unsafe_get v.Level.v_tags way = line
              then begin
                incr tv.Tlb.tv_hits;
                s.Cache_sim.l0_hits <- s.Cache_sim.l0_hits + 1;
                s.Cache_sim.l1d_accesses <- s.Cache_sim.l1d_accesses + 1;
                s.Cache_sim.mem_accesses <- s.Cache_sim.mem_accesses + 1;
                s.Cache_sim.l1d_hits <- s.Cache_sim.l1d_hits + 1;
                let tk = v.Level.v_tick in
                tk := !tk + 1;
                Array.unsafe_set v.Level.v_stamp way !tk;
                let page = phys_page e.Tlb.frame in
                match width with
                | 8 -> Bytes.set_int64_le page off value
                | 4 -> Bytes.set_int32_le page off (Int64.to_int32 value)
                | 2 -> Bytes.set_uint16_le page off (Int64.to_int (Int64.logand value 0xFFFFL))
                | 1 -> Bytes.set page off (Char.chr (Int64.to_int (Int64.logand value 0xFFL)))
                | _ -> Phys_mem.write phys ((e.Tlb.frame lsl page_shift) + off) ~width value
              end
              else store_slow width vaddr value
            end
            else store_slow width vaddr value);
        fetch =
          (fun vaddr ->
            let vpage = vaddr lsr page_shift in
            let ts = vpage land tv.Tlb.tv_mask in
            if
              Array.unsafe_get tv.Tlb.tv_vpages ts = vpage
              && Array.unsafe_get tv.Tlb.tv_asids ts = asid
            then begin
              let frame = (Array.unsafe_get tv.Tlb.tv_entries ts).Tlb.frame in
              let line = ((frame lsl page_shift) + (vaddr land page_mask)) lsr line_shift in
              let slot = line land fp.Cache_sim.fp_slot_mask in
              let way = Array.unsafe_get fp.Cache_sim.fp_i_ways slot in
              let v = fp.Cache_sim.fp_i_v in
              if
                Array.unsafe_get fp.Cache_sim.fp_i_lines slot = line
                && Array.unsafe_get v.Level.v_tags way = line
              then begin
                incr tv.Tlb.tv_hits;
                s.Cache_sim.l0_hits <- s.Cache_sim.l0_hits + 1;
                s.Cache_sim.l1i_accesses <- s.Cache_sim.l1i_accesses + 1;
                s.Cache_sim.mem_accesses <- s.Cache_sim.mem_accesses + 1;
                s.Cache_sim.l1i_hits <- s.Cache_sim.l1i_hits + 1;
                let tk = v.Level.v_tick in
                tk := !tk + 1;
                Array.unsafe_set v.Level.v_stamp way !tk;
                (* one base cycle per instruction; fetch stall at L1 is 0 *)
                meter.Meter.cycles <- meter.Meter.cycles + 1
              end
              else fetch_slow vaddr
            end
            else fetch_slow vaddr);
      }
  | _ -> { Interp.load = load_slow; store = store_slow; fetch = fetch_slow }
