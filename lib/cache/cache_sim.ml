module Node_id = Stramash_sim.Node_id
module Metrics = Stramash_sim.Metrics
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Latency = Stramash_mem.Latency

type kind = Ifetch | Load | Store

type mode = Fast | Reference | Paranoid

exception Divergence of string

(* Mutable per-node counters: this module sits on the simulator's hottest
   path (one call per simulated instruction), so counters are plain record
   fields rather than string-keyed metrics. *)
type node_stats = {
  mutable l1i_hits : int;
  mutable l1i_accesses : int;
  mutable l1d_hits : int;
  mutable l1d_accesses : int;
  mutable l2_hits : int;
  mutable l2_accesses : int;
  mutable l3_hits : int;
  mutable l3_accesses : int;
  mutable local_mem_hits : int;
  mutable remote_mem_hits : int;
  mutable remote_shared_mem_hits : int;
  mutable writebacks : int;
  mutable back_invalidations : int;
  mutable snoop_data : int;
  mutable snoop_invalidates : int;
  mutable mem_accesses : int;
  (* Host-side fast-path observability; deliberately NOT part of the model
     counters in [stat_names], so [stats] registries stay bit-identical
     between Fast and Reference runs. *)
  mutable l0_hits : int;
  mutable l0_misses : int;
}

let fresh_stats () =
  {
    l1i_hits = 0;
    l1i_accesses = 0;
    l1d_hits = 0;
    l1d_accesses = 0;
    l2_hits = 0;
    l2_accesses = 0;
    l3_hits = 0;
    l3_accesses = 0;
    local_mem_hits = 0;
    remote_mem_hits = 0;
    remote_shared_mem_hits = 0;
    writebacks = 0;
    back_invalidations = 0;
    snoop_data = 0;
    snoop_invalidates = 0;
    mem_accesses = 0;
    l0_hits = 0;
    l0_misses = 0;
  }

let zero_stats s =
  s.l1i_hits <- 0;
  s.l1i_accesses <- 0;
  s.l1d_hits <- 0;
  s.l1d_accesses <- 0;
  s.l2_hits <- 0;
  s.l2_accesses <- 0;
  s.l3_hits <- 0;
  s.l3_accesses <- 0;
  s.local_mem_hits <- 0;
  s.remote_mem_hits <- 0;
  s.remote_shared_mem_hits <- 0;
  s.writebacks <- 0;
  s.back_invalidations <- 0;
  s.snoop_data <- 0;
  s.snoop_invalidates <- 0;
  s.mem_accesses <- 0;
  s.l0_hits <- 0;
  s.l0_misses <- 0

let stat_value s = function
  | "l1i_hits" -> s.l1i_hits
  | "l1i_accesses" -> s.l1i_accesses
  | "l1d_hits" -> s.l1d_hits
  | "l1d_accesses" -> s.l1d_accesses
  | "l2_hits" -> s.l2_hits
  | "l2_accesses" -> s.l2_accesses
  | "l3_hits" -> s.l3_hits
  | "l3_accesses" -> s.l3_accesses
  | "local_mem_hits" -> s.local_mem_hits
  | "remote_mem_hits" -> s.remote_mem_hits
  | "remote_shared_mem_hits" -> s.remote_shared_mem_hits
  | "writebacks" -> s.writebacks
  | "back_invalidations" -> s.back_invalidations
  | "snoop_data" -> s.snoop_data
  | "snoop_invalidates" -> s.snoop_invalidates
  | "mem_accesses" -> s.mem_accesses
  | "l0_hits" -> s.l0_hits
  | "l0_misses" -> s.l0_misses
  | name -> invalid_arg ("Cache_sim.stat: unknown counter " ^ name)

let stat_names =
  [
    "l1i_hits"; "l1i_accesses"; "l1d_hits"; "l1d_accesses"; "l2_hits"; "l2_accesses";
    "l3_hits"; "l3_accesses"; "local_mem_hits"; "remote_mem_hits"; "remote_shared_mem_hits";
    "writebacks"; "back_invalidations"; "snoop_data"; "snoop_invalidates"; "mem_accesses";
  ]

type node_caches = {
  l1i : Level.t;
  l1d : Level.t;
  l2 : Level.t;
  l3 : Level.t option;
  (* Aliased windows onto the L1 tag/LRU arrays, so the Fast engine's hit
     path runs call-free (see [access]). *)
  l1i_v : Level.view;
  l1d_v : Level.view;
}

(* L0 line filter: a direct-mapped array of recently L1-hit lines, one per
   port (instruction / data). A slot answers a repeat access without
   re-entering the MESI machinery when it can prove the answer is the one
   the reference path would produce:

     - presence is revalidated against the L1 tag store itself
       ([Level.tag_at] at the cached way), so an eviction or snoop
       invalidation can never leave a stale load/ifetch entry — no hook
       traffic is needed for the load side;
     - [store_m] additionally records that this node's directory state for
       the line is M (a store therefore pays no upgrade and mutates no
       coherence state); it is cleared by [dir_set] the moment any
       coherence transition moves the line out of M, which is the
       invalidation contract the rest of this module upholds.

   An L0 hit replicates the reference path's observable effects exactly:
   the same stat increments and the same LRU touch (same way, same tick
   advance), and returns the same L1 latency.

   Sizing: the filter is purely host-side (slot count changes only which
   accesses take the fast path, never any simulated state), so it is
   sized to make conflict misses negligible — the backing L1s hold at
   most a few hundred lines, and 8192 direct-mapped slots leave the
   collision probability between live lines in the noise while the
   arrays still fit comfortably in the host's caches. *)
let l0_slots = 8192

type l0_filter = {
  l0_lines : int array; (* -1 empty *)
  l0_ways : int array; (* index into the backing Level's tag store *)
  l0_store_m : bool array; (* directory state for this node known to be M *)
}

type node_l0 = { l0i : l0_filter; l0d : l0_filter }

let fresh_filter () =
  {
    l0_lines = Array.make l0_slots (-1);
    l0_ways = Array.make l0_slots 0;
    l0_store_m = Array.make l0_slots false;
  }

let fresh_l0 () = { l0i = fresh_filter (); l0d = fresh_filter () }

type t = {
  cfg : Config.t;
  nodes : node_caches array;
  nstats : node_stats array;
  l0s : node_l0 array;
  mutable mode : mode;
  lat_l1 : int array; (* per node index; avoids a Config lookup per hit *)
  shared_l3 : Level.t option;
  dir : Directory.t;
  mutable probes : (Node_id.t -> kind -> int -> unit) list;
  mutable writeback_hooks : (Node_id.t -> line:int -> unit) list;
}

let create cfg =
  let make_node () =
    let l1i = Level.create cfg.Config.l1i in
    let l1d = Level.create cfg.Config.l1d in
    {
      l1i;
      l1d;
      l2 = Level.create cfg.Config.l2;
      l3 = (if cfg.Config.shared_l3 then None else Some (Level.create cfg.Config.l3));
      l1i_v = Level.view l1i;
      l1d_v = Level.view l1d;
    }
  in
  let lat_l1 = Array.make (List.length Node_id.all) 0 in
  List.iter
    (fun node -> lat_l1.(Node_id.index node) <- (Config.latencies cfg node).Latency.l1)
    Node_id.all;
  {
    cfg;
    nodes = [| make_node (); make_node () |];
    nstats = [| fresh_stats (); fresh_stats () |];
    l0s = [| fresh_l0 (); fresh_l0 () |];
    mode = Fast;
    lat_l1;
    shared_l3 = (if cfg.Config.shared_l3 then Some (Level.create cfg.Config.l3) else None);
    dir = Directory.create ();
    probes = [];
    writeback_hooks = [];
  }

let set_mode t mode = t.mode <- mode
let mode t = t.mode

let config t = t.cfg

(* Classify an access latency the way the placement sampler needs it:
   anything at or above the node's DRAM latency missed every cache level,
   and at or above the remote-memory latency it crossed the interconnect.
   Latencies are per-node (Table 2), so the thresholds must be too. *)
let latency_class t ~node cycles =
  let lat = Config.latencies t.cfg node in
  if cycles >= lat.Latency.remote_mem then `Remote_mem
  else if cycles >= lat.Latency.mem then `Local_mem
  else `Cache

let stats t =
  let reg = Metrics.registry () in
  List.iter
    (fun node ->
      let s = t.nstats.(Node_id.index node) in
      List.iter
        (fun name -> Metrics.set reg (Node_id.to_string node ^ "." ^ name) (stat_value s name))
        stat_names)
    Node_id.all;
  reg

let stat t node name = stat_value t.nstats.(Node_id.index node) name

let hit_rate t node level =
  let hits = stat t node (level ^ "_hits") in
  let accesses = stat t node (level ^ "_accesses") in
  if accesses = 0 then 0.0 else float_of_int hits /. float_of_int accesses

(* Observers chain: callers register independently (Cache.Trace, DSM, the
   obs layer) and all fire in registration order. Only access probes can
   be dropped again: a write-back hook is part of the model (DSM's
   consistency policy), not an observer. *)
let add_probe t f = t.probes <- t.probes @ [ f ]
let clear_probes t = t.probes <- []
let add_writeback_hook t f = t.writeback_hooks <- t.writeback_hooks @ [ f ]

let reset_stats t = Array.iter zero_stats t.nstats

(* Direct recursion rather than [List.iter]: a closure over the
   arguments would be a heap allocation on every access or write-back. *)
let rec fire_probes probes node kind paddr =
  match probes with
  | [] -> ()
  | f :: rest ->
      f node kind paddr;
      fire_probes rest node kind paddr

let rec fire_hooks hooks node line =
  match hooks with
  | [] -> ()
  | f :: rest ->
      f node ~line;
      fire_hooks rest node line

let fire_writeback t node ~line = fire_hooks t.writeback_hooks node line

let caches t node = t.nodes.(Node_id.index node)
let nstat t node = t.nstats.(Node_id.index node)
let l0_of t node = t.l0s.(Node_id.index node)

(* The one choke point for store-side L0 invalidation: every directory
   write in this module goes through here, so a transition out of M can
   never leave a stale [l0_store_m] bit. Runs in every mode — keeping the
   filters coherent even while the fast path is disabled means the mode
   can be flipped mid-run without a flush protocol. *)
let dir_set t node ~line state =
  if not (Mesi.equal state Mesi.M) then begin
    let f = (l0_of t node).l0d in
    let s = line land (l0_slots - 1) in
    if f.l0_lines.(s) = line then f.l0_store_m.(s) <- false
  end;
  Directory.set t.dir node ~line state

(* Drop a line from every private level of [node], maintaining the
   directory; returns whether the line was dirty (M). *)
let invalidate_private t node ~line =
  let c = caches t node in
  ignore (Level.invalidate c.l1i ~line);
  ignore (Level.invalidate c.l1d ~line);
  ignore (Level.invalidate c.l2 ~line);
  (match c.l3 with Some l3 -> ignore (Level.invalidate l3 ~line) | None -> ());
  let was_m = Mesi.equal (Directory.get t.dir node ~line) Mesi.M in
  dir_set t node ~line Mesi.I;
  was_m

(* Eviction from a node's coherence point (private L3, or L2 when the L3 is
   shared): back-invalidate upper levels, record write-backs. *)
let evict_from_coherence_point t node ~line =
  let c = caches t node in
  ignore (Level.invalidate c.l1i ~line);
  ignore (Level.invalidate c.l1d ~line);
  (match c.l3 with Some _ -> ignore (Level.invalidate c.l2 ~line) | None -> ());
  let s = nstat t node in
  if Mesi.equal (Directory.get t.dir node ~line) Mesi.M then begin
    s.writebacks <- s.writebacks + 1;
    fire_writeback t node ~line
  end;
  dir_set t node ~line Mesi.I

let back_invalidate t node ~line =
  if Directory.holds t.dir node ~line then begin
    let s = nstat t node in
    if invalidate_private t node ~line then begin
      s.writebacks <- s.writebacks + 1;
      fire_writeback t node ~line
    end;
    s.back_invalidations <- s.back_invalidations + 1
  end

(* Eviction from the shared L3 invalidates both nodes' private copies
   (Back-Invalidate Snoop in CXL terms), in [Node_id.all] order; unrolled
   so no closure is built per eviction. *)
let evict_from_shared_l3 t ~line =
  back_invalidate t Node_id.X86 ~line;
  back_invalidate t Node_id.Arm ~line

let insert_with_eviction t node level ~line ~coherence_point =
  match Level.insert_evict level ~line with
  | -1 -> ()
  | evicted ->
      if coherence_point then evict_from_coherence_point t node ~line:evicted
      else begin
        (* Inclusive hierarchy: dropping from L2 drops from the L1s too. *)
        let c = caches t node in
        ignore (Level.invalidate c.l1i ~line:evicted);
        ignore (Level.invalidate c.l1d ~line:evicted)
      end

let insert_shared_l3 t level ~line =
  match Level.insert_evict level ~line with
  | -1 -> ()
  | evicted -> evict_from_shared_l3 t ~line:evicted

(* Classify the memory behind [paddr] for [node] and count the fill. *)
let memory_fill_latency t node paddr =
  let lat = Config.latencies t.cfg node in
  let s = nstat t node in
  match Layout.locality t.cfg.Config.hw_model ~node paddr with
  | Layout.Local ->
      s.local_mem_hits <- s.local_mem_hits + 1;
      lat.Latency.mem
  | Layout.Remote ->
      if Layout.in_message_ring paddr then
        s.remote_shared_mem_hits <- s.remote_shared_mem_hits + 1
      else s.remote_mem_hits <- s.remote_mem_hits + 1;
      lat.Latency.remote_mem

let snoop_cost t node = function
  | Mesi.No_snoop -> 0
  | Mesi.Snoop_data ->
      let s = nstat t node in
      s.snoop_data <- s.snoop_data + 1;
      t.cfg.Config.cxl.Cxl.snoop_data
  | Mesi.Snoop_invalidate ->
      let s = nstat t node in
      s.snoop_invalidates <- s.snoop_invalidates + 1;
      t.cfg.Config.cxl.Cxl.snoop_invalidate

(* A store that hits a line this node already holds: M pays nothing, E
   upgrades silently, S runs the invalidating-upgrade transaction. A
   top-level function (not a closure) so the hot path allocates nothing. *)
let store_upgrade_cost t ~node ~other ~line =
  match Directory.get t.dir node ~line with
  | Mesi.M -> 0
  | Mesi.E ->
      dir_set t node ~line Mesi.M;
      0
  | Mesi.S ->
      let mine, theirs, snoop = Mesi.on_upgrade ~other:(Directory.get t.dir other ~line) in
      let cost = snoop_cost t node snoop in
      if Directory.holds t.dir other ~line then ignore (invalidate_private t other ~line);
      dir_set t node ~line mine;
      dir_set t other ~line theirs;
      cost
  | Mesi.I ->
      (* Hierarchy says present but directory says absent: impossible by
         construction (inclusive hierarchy + directory updated on every
         fill/eviction). *)
      assert false

let upgrade_cost t ~node ~other ~line kind =
  match kind with Ifetch | Load -> 0 | Store -> store_upgrade_cost t ~node ~other ~line

(* L0 lookup: the slot index when the filter can prove the reference
   answer (line L1-resident at the cached way; for stores, state still M),
   else -1. Pure — commits nothing, so Paranoid mode can use it as a
   prediction to check against the reference path. *)
let l0_probe t ~node kind ~line =
  let n = l0_of t node in
  let c = caches t node in
  let f, lvl = match kind with Ifetch -> (n.l0i, c.l1i) | Load | Store -> (n.l0d, c.l1d) in
  let s = line land (l0_slots - 1) in
  if
    f.l0_lines.(s) = line
    && Level.tag_at lvl f.l0_ways.(s) = line
    && match kind with Store -> f.l0_store_m.(s) | Ifetch | Load -> true
  then s
  else -1

(* Record an L1 hit in the filter. A store hit always leaves this node's
   state at M (M stays, E and S upgrade), so later stores to the line may
   skip the directory probe until [dir_set] sees the line leave M. *)
let l0_fill t ~node kind ~line ~way =
  let n = l0_of t node in
  let f = match kind with Ifetch -> n.l0i | Load | Store -> n.l0d in
  let s = line land (l0_slots - 1) in
  if f.l0_lines.(s) <> line then begin
    f.l0_lines.(s) <- line;
    f.l0_store_m.(s) <- false
  end;
  f.l0_ways.(s) <- way;
  match kind with Store -> f.l0_store_m.(s) <- true | Ifetch | Load -> ()

(* The reference path: the full 3-level MESI walk. [populate] feeds L1
   hits back into the L0 filter (disabled in Reference mode so that mode
   is exactly the pre-fast-path simulator). *)
let access_slow t ~node kind ~line ~paddr ~populate =
  let c = caches t node in
  let s = nstat t node in
  let other = Node_id.other node in
  let lat = Config.latencies t.cfg node in
  let l1 = match kind with Ifetch -> c.l1i | Load | Store -> c.l1d in
  (match kind with
  | Ifetch ->
      s.l1i_accesses <- s.l1i_accesses + 1;
      s.mem_accesses <- s.mem_accesses + 1
  | Load | Store ->
      s.l1d_accesses <- s.l1d_accesses + 1;
      s.mem_accesses <- s.mem_accesses + 1);
  let l1_way = Level.probe_way l1 ~line in
  if l1_way >= 0 then begin
    (match kind with
    | Ifetch -> s.l1i_hits <- s.l1i_hits + 1;
    | Load | Store -> s.l1d_hits <- s.l1d_hits + 1);
    let cost = lat.Latency.l1 + upgrade_cost t ~node ~other ~line kind in
    if populate then l0_fill t ~node kind ~line ~way:l1_way;
    cost
  end
  else begin
    s.l2_accesses <- s.l2_accesses + 1;
    if Level.probe c.l2 ~line then begin
      s.l2_hits <- s.l2_hits + 1;
      insert_with_eviction t node l1 ~line ~coherence_point:false;
      lat.Latency.l2 + upgrade_cost t ~node ~other ~line kind
    end
    else begin
      let l3_latency = match lat.Latency.l3 with Some v -> v | None -> lat.Latency.l2 in
      let hit_l3 =
        match (c.l3, t.shared_l3) with
        | Some l3, _ ->
            s.l3_accesses <- s.l3_accesses + 1;
            Level.probe l3 ~line
        | None, Some shared ->
            s.l3_accesses <- s.l3_accesses + 1;
            Level.probe shared ~line
        | None, None -> false
      in
      if hit_l3 then begin
        s.l3_hits <- s.l3_hits + 1;
        if t.shared_l3 <> None && not (Directory.holds t.dir node ~line) then begin
          (* First private fill from the shared L3: run the coherence
             transaction against the other node's private copies. *)
          let mine, theirs, snoop =
            match kind with
            | Ifetch | Load -> Mesi.on_read ~other:(Directory.get t.dir other ~line)
            | Store -> Mesi.on_write ~other:(Directory.get t.dir other ~line)
          in
          let snoop_c = snoop_cost t node snoop in
          (match snoop with
          | Mesi.Snoop_invalidate ->
              if Directory.holds t.dir other ~line then
                ignore (invalidate_private t other ~line)
          | Mesi.Snoop_data | Mesi.No_snoop -> ());
          dir_set t other ~line theirs;
          dir_set t node ~line mine;
          insert_with_eviction t node c.l2 ~line ~coherence_point:true;
          insert_with_eviction t node l1 ~line ~coherence_point:false;
          l3_latency + snoop_c
        end
        else begin
          let l2_is_coherence_point = c.l3 = None in
          insert_with_eviction t node c.l2 ~line ~coherence_point:l2_is_coherence_point;
          insert_with_eviction t node l1 ~line ~coherence_point:false;
          l3_latency + upgrade_cost t ~node ~other ~line kind
        end
      end
      else begin
        (* Full miss: coherence transaction + memory fill. *)
        let other_state = Directory.get t.dir other ~line in
        let mine, theirs, snoop =
          match kind with
          | Ifetch | Load -> Mesi.on_read ~other:other_state
          | Store -> Mesi.on_write ~other:other_state
        in
        let snoop_c = snoop_cost t node snoop in
        (match snoop with
        | Mesi.Snoop_invalidate ->
            if Directory.holds t.dir other ~line then
              ignore (invalidate_private t other ~line)
        | Mesi.Snoop_data | Mesi.No_snoop -> ());
        dir_set t other ~line theirs;
        let mem_lat = memory_fill_latency t node paddr in
        (match (c.l3, t.shared_l3) with
        | Some l3, _ -> insert_with_eviction t node l3 ~line ~coherence_point:true
        | None, Some shared -> insert_shared_l3 t shared ~line
        | None, None -> ());
        let l2_is_coherence_point = c.l3 = None in
        insert_with_eviction t node c.l2 ~line ~coherence_point:l2_is_coherence_point;
        insert_with_eviction t node l1 ~line ~coherence_point:false;
        dir_set t node ~line mine;
        mem_lat + snoop_c
      end
    end
  end

let kind_name = function Ifetch -> "ifetch" | Load -> "load" | Store -> "store"

let access t ~node kind ~paddr =
  fire_probes t.probes node kind paddr;
  let line = Addr.line_of paddr in
  match t.mode with
  | Reference -> access_slow t ~node kind ~line ~paddr ~populate:false
  | Fast ->
      (* The flattened form of [l0_probe] + a commit: an L0 hit applies the
         observable effects the reference path would have had for this L1
         hit — the same counter increments and the same LRU touch (same
         way, same tick advance) — and returns the same L1 latency. The
         unsafe array operations are in bounds by construction: [slot] is
         masked to the filter size, and every stored way index was a valid
         index into the (fixed-size) L1 tag store when recorded. *)
      let idx = Node_id.index node in
      let n = Array.unsafe_get t.l0s idx in
      let s = Array.unsafe_get t.nstats idx in
      let slot = line land (l0_slots - 1) in
      (match kind with
      | Ifetch ->
          let f = n.l0i in
          let way = Array.unsafe_get f.l0_ways slot in
          let v = (Array.unsafe_get t.nodes idx).l1i_v in
          if
            Array.unsafe_get f.l0_lines slot = line
            && Array.unsafe_get v.Level.v_tags way = line
          then begin
            s.l0_hits <- s.l0_hits + 1;
            s.l1i_accesses <- s.l1i_accesses + 1;
            s.mem_accesses <- s.mem_accesses + 1;
            s.l1i_hits <- s.l1i_hits + 1;
            let tk = v.Level.v_tick in
            tk := !tk + 1;
            Array.unsafe_set v.Level.v_stamp way !tk;
            Array.unsafe_get t.lat_l1 idx
          end
          else begin
            s.l0_misses <- s.l0_misses + 1;
            access_slow t ~node kind ~line ~paddr ~populate:true
          end
      | Load ->
          let f = n.l0d in
          let way = Array.unsafe_get f.l0_ways slot in
          let v = (Array.unsafe_get t.nodes idx).l1d_v in
          if
            Array.unsafe_get f.l0_lines slot = line
            && Array.unsafe_get v.Level.v_tags way = line
          then begin
            s.l0_hits <- s.l0_hits + 1;
            s.l1d_accesses <- s.l1d_accesses + 1;
            s.mem_accesses <- s.mem_accesses + 1;
            s.l1d_hits <- s.l1d_hits + 1;
            let tk = v.Level.v_tick in
            tk := !tk + 1;
            Array.unsafe_set v.Level.v_stamp way !tk;
            Array.unsafe_get t.lat_l1 idx
          end
          else begin
            s.l0_misses <- s.l0_misses + 1;
            access_slow t ~node kind ~line ~paddr ~populate:true
          end
      | Store ->
          (* As [Load], plus the store-M bit: state M means a store pays no
             upgrade and mutates no coherence state. *)
          let f = n.l0d in
          let way = Array.unsafe_get f.l0_ways slot in
          let v = (Array.unsafe_get t.nodes idx).l1d_v in
          if
            Array.unsafe_get f.l0_lines slot = line
            && Array.unsafe_get f.l0_store_m slot
            && Array.unsafe_get v.Level.v_tags way = line
          then begin
            s.l0_hits <- s.l0_hits + 1;
            s.l1d_accesses <- s.l1d_accesses + 1;
            s.mem_accesses <- s.mem_accesses + 1;
            s.l1d_hits <- s.l1d_hits + 1;
            let tk = v.Level.v_tick in
            tk := !tk + 1;
            Array.unsafe_set v.Level.v_stamp way !tk;
            Array.unsafe_get t.lat_l1 idx
          end
          else begin
            s.l0_misses <- s.l0_misses + 1;
            access_slow t ~node kind ~line ~paddr ~populate:true
          end)
  | Paranoid ->
      (* Cross-check: the L0 filter predicts, the reference path executes
         (so all model state evolves exactly as Reference mode), and any
         disagreement aborts the run at the first divergent access. *)
      let slot = l0_probe t ~node kind ~line in
      let s = nstat t node in
      if slot >= 0 then s.l0_hits <- s.l0_hits + 1 else s.l0_misses <- s.l0_misses + 1;
      let predicted =
        if slot < 0 then -1 else (Config.latencies t.cfg node).Latency.l1
      in
      let actual = access_slow t ~node kind ~line ~paddr ~populate:true in
      if predicted >= 0 && predicted <> actual then
        raise
          (Divergence
             (Printf.sprintf
                "L0 fast path diverges at paddr 0x%x (%s %s): predicted %d cycles, reference %d"
                paddr (Node_id.to_string node) (kind_name kind) predicted actual));
      actual

(* Raw window for the runner's fused memio fast path: the L0 filters, the
   L1 tag/LRU views and the per-node counter record, bundled per node.
   Only available when the fast engine is authoritative (mode = Fast) and
   no probes are registered — a probe must observe every access, which
   only [access] guarantees. Re-requested at every scheduling quantum (the
   runner rebuilds its memio then), so a mid-run [set_mode] or [add_probe]
   takes effect at the next quantum boundary at the latest; within a
   quantum the interpreter runs uninterrupted, so no observer can tell. *)
type fast_path = {
  fp_stats : node_stats;
  fp_lat_l1 : int;
  fp_slot_mask : int;
  fp_i_lines : int array;
  fp_i_ways : int array;
  fp_i_v : Level.view;
  fp_d_lines : int array;
  fp_d_ways : int array;
  fp_d_store_m : bool array;
  fp_d_v : Level.view;
}

let fast_path t ~node =
  match t.mode with
  | Fast when t.probes = [] ->
      let idx = Node_id.index node in
      let n = t.l0s.(idx) in
      let c = t.nodes.(idx) in
      Some
        {
          fp_stats = t.nstats.(idx);
          fp_lat_l1 = t.lat_l1.(idx);
          fp_slot_mask = l0_slots - 1;
          fp_i_lines = n.l0i.l0_lines;
          fp_i_ways = n.l0i.l0_ways;
          fp_i_v = c.l1i_v;
          fp_d_lines = n.l0d.l0_lines;
          fp_d_ways = n.l0d.l0_ways;
          fp_d_store_m = n.l0d.l0_store_m;
          fp_d_v = c.l1d_v;
        }
  | _ -> None

let fastpath_stats t =
  List.concat_map
    (fun node ->
      let s = nstat t node in
      let name c = Node_id.to_string node ^ "." ^ c in
      [ (name "l0_hits", s.l0_hits); (name "l0_misses", s.l0_misses) ])
    Node_id.all

let l0_hit_rate t node =
  let s = nstat t node in
  let total = s.l0_hits + s.l0_misses in
  if total = 0 then 0.0 else float_of_int s.l0_hits /. float_of_int total

(* Structural invariants; see the .mli. Iterates every resident line, so
   intended for tests, not hot paths. *)
let check_consistency t =
  let exception Bad of string in
  let fail fmt_str = Printf.ksprintf (fun s -> raise (Bad s)) fmt_str in
  try
    Directory.iter_lines t.dir ~f:(fun line ->
        List.iter
          (fun node ->
            let c = caches t node in
            let coherence_contains =
              match c.l3 with
              | Some l3 -> Level.contains l3 ~line
              | None -> Level.contains c.l2 ~line
            in
            let state = Directory.get t.dir node ~line in
            (match (state, coherence_contains) with
            | (Mesi.S | Mesi.E | Mesi.M), false ->
                fail "line 0x%x in directory (%c) but absent from %s hierarchy" line
                  (Mesi.to_char state) (Node_id.to_string node)
            | (Mesi.I | Mesi.S | Mesi.E | Mesi.M), _ -> ());
            (* Inclusion: an L1-resident line must be L2-resident, and an
               L2-resident line must sit at the private L3 if one exists. *)
            if
              (Level.contains c.l1i ~line || Level.contains c.l1d ~line)
              && not (Level.contains c.l2 ~line)
            then fail "L1 line 0x%x not in %s L2 (inclusion)" line (Node_id.to_string node);
            (match c.l3 with
            | Some l3 ->
                if Level.contains c.l2 ~line && not (Level.contains l3 ~line) then
                  fail "L2 line 0x%x not in %s L3 (inclusion)" line (Node_id.to_string node)
            | None -> ());
            (* A resident line must be known to the directory. *)
            if Level.contains c.l2 ~line && Mesi.equal state Mesi.I then
              fail "line 0x%x resident at %s but directory says I" line (Node_id.to_string node))
          Node_id.all;
        let writable node =
          match Directory.get t.dir node ~line with
          | Mesi.E | Mesi.M -> true
          | Mesi.S | Mesi.I -> false
        in
        if writable Node_id.X86 && writable Node_id.Arm then
          fail "line 0x%x writable on both nodes" line);
    Ok ()
  with Bad s -> Error s

let access_bytes t ~node kind ~paddr ~len =
  let first = Addr.line_base paddr in
  let lines = Addr.lines_spanned paddr ~len in
  let total = ref 0 in
  for i = 0 to lines - 1 do
    total := !total + access t ~node kind ~paddr:(first + (i * Addr.line_size))
  done;
  !total

let atomic_rmw t ~node ~paddr =
  access t ~node Store ~paddr + t.cfg.Config.cxl.Cxl.atomic_extra
