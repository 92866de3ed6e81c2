module Node_id = Stramash_sim.Node_id

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  accessed : bool;
  dirty : bool;
  remote_owned : bool;
}

let default_flags =
  { present = true; writable = true; user = true; accessed = false; dirty = false; remote_owned = false }

(* x86ish: P=0, RW=1, US=2, A=5, D=6, remote(SW)=9; frame at bits 12..51. *)
(* armish: VALID=0, AF=10, nUSER(AP1 inverted)=6, RDONLY(AP2)=7, DBM/dirty=55,
   remote(SW)=58; frame at bits 12..47. Note the inverted write sense. *)

let frame_mask_x86 = 0x000F_FFFF_FFFF_F000
let frame_mask_arm = 0x0000_FFFF_FFFF_F000

let bit v n = v land (1 lsl n) <> 0
let put v n cond = if cond then v lor (1 lsl n) else v

let encode ~isa ~frame flags =
  let base = frame lsl 12 in
  match isa with
  | Node_id.X86 ->
      let v = base land frame_mask_x86 in
      let v = put v 0 flags.present in
      let v = put v 1 flags.writable in
      let v = put v 2 flags.user in
      let v = put v 5 flags.accessed in
      let v = put v 6 flags.dirty in
      put v 9 flags.remote_owned
  | Node_id.Arm ->
      let v = base land frame_mask_arm in
      let v = put v 0 flags.present in
      let v = put v 7 (not flags.writable) in
      let v = put v 6 (not flags.user) in
      let v = put v 10 flags.accessed in
      let v = put v 55 flags.dirty in
      put v 58 flags.remote_owned

let not_present = 0

let present v = bit v 0

let frame ~isa v =
  match isa with
  | Node_id.X86 -> (v land frame_mask_x86) lsr 12
  | Node_id.Arm -> (v land frame_mask_arm) lsr 12

let writable ~isa v = match isa with Node_id.X86 -> bit v 1 | Node_id.Arm -> not (bit v 7)
let user ~isa v = match isa with Node_id.X86 -> bit v 2 | Node_id.Arm -> not (bit v 6)
let accessed ~isa v = match isa with Node_id.X86 -> bit v 5 | Node_id.Arm -> bit v 10
let dirty ~isa v = match isa with Node_id.X86 -> bit v 6 | Node_id.Arm -> bit v 55
let remote_owned ~isa v = match isa with Node_id.X86 -> bit v 9 | Node_id.Arm -> bit v 58

let flags ~isa v =
  {
    present = present v;
    writable = writable ~isa v;
    user = user ~isa v;
    accessed = accessed ~isa v;
    dirty = dirty ~isa v;
    remote_owned = remote_owned ~isa v;
  }

(* The reference decoder works on the boxed 64-bit word, bit by bit. *)
let decode ~isa v =
  let test n = Int64.logand v (Int64.shift_left 1L n) <> 0L in
  let frame_of mask = Int64.to_int (Int64.shift_right_logical (Int64.logand v mask) 12) in
  if not (test 0) then None
  else
    match isa with
    | Node_id.X86 ->
        Some
          ( frame_of 0x000F_FFFF_FFFF_F000L,
            {
              present = true;
              writable = test 1;
              user = test 2;
              accessed = test 5;
              dirty = test 6;
              remote_owned = test 9;
            } )
    | Node_id.Arm ->
        Some
          ( frame_of 0x0000_FFFF_FFFF_F000L,
            {
              present = true;
              writable = not (test 7);
              user = not (test 6);
              accessed = test 10;
              dirty = test 55;
              remote_owned = test 58;
            } )
