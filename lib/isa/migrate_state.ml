module Trace = Stramash_obs.Trace

let transform ~src ~point ~dst_prog =
  let dst = Interp.create dst_prog in
  let n = Interp.copy_regs ~src ~dst in
  Interp.set_pc dst (Machine.find_migrate_pc dst_prog point + 1);
  if Trace.enabled () then
    Trace.instant ~subsys:"migrate" ~op:"transform"
      ~tags:[ ("point", string_of_int point); ("regs", string_of_int n) ]
      ();
  dst

(* Popcorn's state transformation rewrites the stack frame by frame; our
   threads carry only registers, so we charge a fixed modelled cost of the
   same order as the paper's toolchain reports for small frames. *)
let transform_cost_instructions = 2_000
