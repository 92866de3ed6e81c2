module Node_id = Stramash_sim.Node_id
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Trace = Stramash_obs.Trace

type t = { isa : Node_id.t; root : int; mutable table_pages : int }

type io = {
  phys : Phys_mem.t;
  charge_read : int -> unit;
  charge_write : int -> unit;
  alloc_table : unit -> int;
}

let levels = 5
let index_bits = 9
let entries = 1 lsl index_bits

let create ~isa io =
  let root = io.alloc_table () in
  { isa; root; table_pages = 1 }

let isa t = t.isa
let root t = t.root

(* Level [levels-1] is the root, level 0 holds leaf PTEs. *)
let index_at ~level vaddr = (vaddr lsr (Addr.page_shift + (index_bits * level))) land (entries - 1)

let entry_addr table_paddr idx = table_paddr + (idx * 8)

let read_entry io paddr =
  io.charge_read paddr;
  Phys_mem.read_entry io.phys paddr

let write_entry io paddr v =
  io.charge_write paddr;
  Phys_mem.write_entry io.phys paddr v

(* [descend]'s "no such table": table pages are frames, never at -1. *)
let absent = -1

(* Descend to the table that holds the leaf entry. [alloc] controls whether
   missing directories are created. Returns the leaf table's paddr, or
   [absent]. Directory entries use the same per-ISA encoding as leaves. *)
let rec descend t io ~level ~table ~vaddr ~alloc =
  if level = 0 then table
  else begin
    let slot = entry_addr table (index_at ~level vaddr) in
    let entry = read_entry io slot in
    if Pte.present entry then
      descend t io ~level:(level - 1)
        ~table:(Pte.frame ~isa:t.isa entry lsl Addr.page_shift)
        ~vaddr ~alloc
    else if not alloc then absent
    else begin
      (* Directory allocation is rare enough to record every time. No
         meter in scope: the event inherits the node and clock of the
         innermost open span (the fault handler driving us). *)
      if Trace.enabled () then
        Trace.instant ~subsys:"page_table" ~op:"alloc_table"
          ~tags:[ ("level", string_of_int level) ]
          ();
      let fresh = io.alloc_table () in
      t.table_pages <- t.table_pages + 1;
      write_entry io slot
        (Pte.encode ~isa:t.isa ~frame:(fresh lsr Addr.page_shift) Pte.default_flags);
      descend t io ~level:(level - 1) ~table:fresh ~vaddr ~alloc
    end
  end

(* Physical address of the leaf PTE slot, or [absent] when a directory
   is missing. *)
let leaf_slot t io ~vaddr =
  let table = descend t io ~level:(levels - 1) ~table:t.root ~vaddr ~alloc:false in
  if table = absent then absent else entry_addr table (index_at ~level:0 vaddr)

let walk t io ~vaddr =
  let slot = leaf_slot t io ~vaddr in
  let leaf = if slot = absent then Pte.not_present else read_entry io slot in
  if Pte.present leaf then leaf
  else begin
    (* Only non-present walks are recorded: hit-path walks run once per
       memory access and would flood the event ring with noise. The misses
       are the ones that turn into faults and cross-ISA traffic. *)
    if Trace.enabled () then Trace.instant ~subsys:"page_table" ~op:"walk_miss" ();
    Pte.not_present
  end

let upper_levels_present t io ~vaddr =
  descend t io ~level:(levels - 1) ~table:t.root ~vaddr ~alloc:false <> absent

let map t io ~vaddr ~frame flags =
  let table = descend t io ~level:(levels - 1) ~table:t.root ~vaddr ~alloc:true in
  write_entry io
    (entry_addr table (index_at ~level:0 vaddr))
    (Pte.encode ~isa:t.isa ~frame flags)

let set_leaf_if_upper_present t io ~vaddr ~frame flags =
  let slot = leaf_slot t io ~vaddr in
  if slot = absent then false
  else begin
    write_entry io slot (Pte.encode ~isa:t.isa ~frame flags);
    true
  end

let update_flags t io ~vaddr flags =
  let slot = leaf_slot t io ~vaddr in
  if slot = absent then false
  else begin
    let leaf = read_entry io slot in
    let present = Pte.present leaf in
    if present then
      write_entry io slot (Pte.encode ~isa:t.isa ~frame:(Pte.frame ~isa:t.isa leaf) flags);
    present
  end

let unmap t io ~vaddr =
  let slot = leaf_slot t io ~vaddr in
  if slot = absent then false
  else begin
    let present = Pte.present (read_entry io slot) in
    if present then write_entry io slot Pte.not_present;
    present
  end

let table_pages t = t.table_pages

(* Full-tree traversal in ascending vaddr order. Directory entries share
   the leaf encoding, so at levels > 0 a present entry's frame is the next
   table down; at level 0 it is the mapped leaf. Used by checkpointing —
   unlike range walks it needs no VMA metadata, which is exactly what a
   crash may have taken down. *)
let iter_leaves t io ~f =
  let rec go ~level ~table ~va_base =
    for idx = 0 to entries - 1 do
      let entry = read_entry io (entry_addr table idx) in
      if Pte.present entry then begin
        let frame = Pte.frame ~isa:t.isa entry in
        let va = va_base lor (idx lsl (Addr.page_shift + (index_bits * level))) in
        if level = 0 then f ~vaddr:va ~frame ~flags:(Pte.flags ~isa:t.isa entry)
        else go ~level:(level - 1) ~table:(frame lsl Addr.page_shift) ~va_base:va
      end
    done
  in
  go ~level:(levels - 1) ~table:t.root ~va_base:0
