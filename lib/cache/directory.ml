module Node_id = Stramash_sim.Node_id

(* Two 2-bit states packed per line: bits [1:0] = node 0, bits [3:2] = node 1.
   Stored in an open-addressing table (linear probing, power-of-two
   capacity) rather than a [Hashtbl]: the directory is probed on every
   store upgrade and every fill, and the flat table answers without
   hashing calls or option allocation.

   One interleaved array holds the pairs: slot [s] is [table.(2s)] =
   line + 1 (0 = empty, so [Array.make] initialises the table) and
   [table.(2s+1)] = the packed state. An empty slot's state is 0 = I on
   both nodes, so a lookup reads the state at the probe's final slot
   without checking the key. A line whose state returns to I/I leaves the
   table by backward-shift deletion, so there are no tombstones and every
   occupied slot is a live line.

   Every probe, delete and rehash loop is a top-level function taking what
   it reads as arguments: this module is on the per-access path, and
   without flambda a local closure is a heap allocation per call. *)
type t = {
  mutable table : int array; (* 2 * capacity: (line + 1, packed) pairs *)
  mutable mask : int; (* capacity - 1 *)
  mutable live : int; (* occupied slots *)
}

let initial_capacity = 4096

let create () : t =
  { table = Array.make (2 * initial_capacity) 0; mask = initial_capacity - 1; live = 0 }

(* Line numbers come in dense sequential runs, which linear probing
   tolerates only under a mixing hash — masking the line directly turns
   two aliasing runs into one long probe chain. Fibonacci-style
   multiplicative mixing spreads runs uniformly. *)
let hash (line : int) (mask : int) =
  let h = line * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

(* The slot holding [key] (= line + 1), or the empty slot that ends its
   probe chain. Terminates because the load factor stays at or below 1/2.
   [s land mask] keeps [2s + 1] inside the table, so the unsafe read is in
   bounds by construction. *)
let rec probe (table : int array) (key : int) (mask : int) (s : int) =
  let k = Array.unsafe_get table (2 * s) in
  if k = key || k = 0 then s else probe table key mask ((s + 1) land mask)

let slot_of t line = probe t.table (line + 1) t.mask (hash line t.mask)

(* Backward-shift deletion: [hole] has just been vacated; walk the chain
   after it and move back every entry whose home slot does not lie
   cyclically in (hole, j], so each remaining line stays reachable from
   its home without a tombstone. The walk stops at the first empty slot,
   which then becomes the chain's end. *)
let rec close_hole (table : int array) (mask : int) (hole : int) (j : int) =
  let k = Array.unsafe_get table (2 * j) in
  if k = 0 then begin
    Array.unsafe_set table (2 * hole) 0;
    Array.unsafe_set table ((2 * hole) + 1) 0
  end
  else
    let home = hash (k - 1) mask in
    if (j - home) land mask >= (j - hole) land mask then begin
      Array.unsafe_set table (2 * hole) k;
      Array.unsafe_set table ((2 * hole) + 1) (Array.unsafe_get table ((2 * j) + 1));
      close_hole table mask j ((j + 1) land mask)
    end
    else close_hole table mask hole ((j + 1) land mask)

(* Re-insert every pair of [old] (from pair index [i]) into [table]; no
   line occurs twice and nothing is deleted, so each lands in the empty
   slot its probe ends at. *)
let rec rehash (old : int array) i (table : int array) (mask : int) =
  if 2 * i < Array.length old then begin
    let k = Array.unsafe_get old (2 * i) in
    if k <> 0 then begin
      let s = probe table k mask (hash (k - 1) mask) in
      Array.unsafe_set table (2 * s) k;
      Array.unsafe_set table ((2 * s) + 1) (Array.unsafe_get old ((2 * i) + 1))
    end;
    rehash old (i + 1) table mask
  end

let grow t =
  let cap = (t.mask + 1) * 2 in
  let old = t.table in
  t.table <- Array.make (2 * cap) 0;
  t.mask <- cap - 1;
  rehash old 0 t.table t.mask

let encode = function Mesi.I -> 0 | Mesi.S -> 1 | Mesi.E -> 2 | Mesi.M -> 3
let decode = function 0 -> Mesi.I | 1 -> Mesi.S | 2 -> Mesi.E | _ -> Mesi.M

let get t node ~line =
  let s = slot_of t line in
  decode (Array.unsafe_get t.table ((2 * s) + 1) lsr (2 * Node_id.index node) land 3)

let set t node ~line state =
  let shift = 2 * Node_id.index node in
  let s = slot_of t line in
  let table = t.table in
  let old = Array.unsafe_get table ((2 * s) + 1) in
  let packed = old land lnot (3 lsl shift) lor (encode state lsl shift) in
  if packed = 0 then begin
    (* Back to I on both nodes: drop the line (a no-op when absent). *)
    if old <> 0 then begin
      t.live <- t.live - 1;
      close_hole table t.mask s ((s + 1) land t.mask)
    end
  end
  else begin
    Array.unsafe_set table ((2 * s) + 1) packed;
    if old = 0 then begin
      Array.unsafe_set table (2 * s) (line + 1);
      t.live <- t.live + 1;
      if 2 * t.live > t.mask + 1 then grow t
    end
  end

let holds t node ~line =
  let s = slot_of t line in
  Array.unsafe_get t.table ((2 * s) + 1) lsr (2 * Node_id.index node) land 3 <> 0

let iter_lines t ~f =
  let table = t.table in
  for s = 0 to t.mask do
    let k = table.(2 * s) in
    if k <> 0 then f (k - 1)
  done
