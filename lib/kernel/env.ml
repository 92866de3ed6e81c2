module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Cache_sim = Stramash_cache.Cache_sim

type t = {
  cache : Cache_sim.t;
  phys : Stramash_mem.Phys_mem.t;
  kernels : Kernel.t array;
  meters : Meter.t array;
  tlbs : Tlb.t array;
  hw_model : Stramash_mem.Layout.hw_model;
  liveness : Stramash_sim.Liveness.t;
  pt_ios : Page_table.io array;
  silent_ios : Page_table.io array;
}

(* The page-table io records, built once so that a fault or a walk does
   not allocate three closures. [pt_ios] is indexed by [pt_slot],
   [silent_ios] by owner (0 = walk-only). *)
let pt_slot ~actor ~owner = (2 * Node_id.index actor) + Node_id.index owner

let create cache =
  let phys = Stramash_mem.Phys_mem.create () in
  let kernels = [| Kernel.boot ~node:Node_id.X86 ~phys; Kernel.boot ~node:Node_id.Arm ~phys |] in
  let meters = [| Meter.create (); Meter.create () |] in
  let alloc_from owner () = Kernel.alloc_table_page kernels.(Node_id.index owner) in
  let pt_io actor owner =
    let meter = meters.(Node_id.index actor) in
    {
      Page_table.phys;
      charge_read =
        (fun paddr -> Meter.add meter (Cache_sim.access cache ~node:actor Cache_sim.Load ~paddr));
      charge_write =
        (fun paddr -> Meter.add meter (Cache_sim.access cache ~node:actor Cache_sim.Store ~paddr));
      alloc_table = alloc_from owner;
    }
  in
  let silent_io alloc_table =
    { Page_table.phys; charge_read = ignore; charge_write = ignore; alloc_table }
  in
  {
    cache;
    phys;
    kernels;
    meters;
    tlbs = [| Tlb.create (); Tlb.create () |];
    hw_model = (Cache_sim.config cache).Stramash_cache.Config.hw_model;
    liveness = Stramash_sim.Liveness.create ();
    pt_ios = Array.init 4 (fun i -> pt_io (Node_id.of_index (i / 2)) (Node_id.of_index (i mod 2)));
    silent_ios =
      Array.init 3 (fun i ->
          silent_io
            (if i = 0 then fun () -> invalid_arg "Env.silent_io: walk must not allocate"
             else alloc_from (Node_id.of_index (i - 1))));
  }

let kernel t node = t.kernels.(Node_id.index node)
let node_alive t node = Stramash_sim.Liveness.is_alive t.liveness node
let node_epoch t node = Stramash_sim.Liveness.epoch t.liveness node
let meter t node = t.meters.(Node_id.index node)
let tlb t node = t.tlbs.(Node_id.index node)

let charge_load t node ~paddr =
  Meter.add (meter t node) (Cache_sim.access t.cache ~node Cache_sim.Load ~paddr)

let charge_store t node ~paddr =
  Meter.add (meter t node) (Cache_sim.access t.cache ~node Cache_sim.Store ~paddr)

let charge_atomic t node ~paddr =
  Meter.add (meter t node) (Cache_sim.atomic_rmw t.cache ~node ~paddr)

let charge_bytes_load t node ~paddr ~len =
  Meter.add (meter t node) (Cache_sim.access_bytes t.cache ~node Cache_sim.Load ~paddr ~len)

let charge_bytes_store t node ~paddr ~len =
  Meter.add (meter t node) (Cache_sim.access_bytes t.cache ~node Cache_sim.Store ~paddr ~len)

let pt_io t ~actor ~owner = t.pt_ios.(pt_slot ~actor ~owner)

let silent_io ?owner t =
  t.silent_ios.(match owner with None -> 0 | Some node -> 1 + Node_id.index node)

let ensure_mm t ~proc ~node =
  match Process.mm proc node with
  | Some mm -> mm
  | None ->
      let kernel = kernel t node in
      let io = pt_io t ~actor:node ~owner:node in
      let mm =
        {
          Process.vmas = Vma.create_set ~alloc_struct:(fun () -> Kheap.alloc_line kernel.Kernel.kheap);
          pgtable = Page_table.create ~isa:node io;
          ptl_addr = Kheap.alloc_line kernel.Kernel.kheap;
        }
      in
      Process.add_mm proc node mm;
      mm
