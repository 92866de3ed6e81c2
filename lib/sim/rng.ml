(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   int64 field, which would box a fresh int64 on every draw; with the
   get/set primitives and the inlined finaliser, [int] and [bool]
   allocate nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 finaliser: avalanche the raw counter value. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix state

let split t = create ~seed:(mix (next_int64 t))

let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits: OCaml's native int is 63-bit, so a 63-bit value would
     wrap negative through Int64.to_int. Draws land in [0, max_int] where
     max_int = 2^62 - 1; rejection-sample so every residue class mod
     [bound] is equally likely. *)
  let limit = max_int - (((max_int mod bound) + 1) mod bound) in
  let raw = ref (bits62 t) in
  while !raw > limit do
    raw := bits62 t
  done;
  !raw mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (raw /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mean ~sigma =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-12 then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
