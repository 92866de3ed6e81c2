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
}

let create cache =
  let phys = Stramash_mem.Phys_mem.create () in
  let kernels = [| Kernel.boot ~node:Node_id.X86 ~phys; Kernel.boot ~node:Node_id.Arm ~phys |] in
  {
    cache;
    phys;
    kernels;
    meters = [| Meter.create (); Meter.create () |];
    tlbs = [| Tlb.create (); Tlb.create () |];
    hw_model = (Cache_sim.config cache).Stramash_cache.Config.hw_model;
    liveness = Stramash_sim.Liveness.create ();
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

let pt_io t ~actor ~owner =
  {
    Page_table.phys = t.phys;
    charge_read = (fun paddr -> charge_load t actor ~paddr);
    charge_write = (fun paddr -> charge_store t actor ~paddr);
    alloc_table = (fun () -> Kernel.alloc_table_page (kernel t owner));
  }

let silent_io ?owner t =
  {
    Page_table.phys = t.phys;
    charge_read = ignore;
    charge_write = ignore;
    alloc_table =
      (match owner with
      | Some node -> fun () -> Kernel.alloc_table_page (kernel t node)
      | None -> fun () -> invalid_arg "Env.silent_io: walk must not allocate");
  }

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
