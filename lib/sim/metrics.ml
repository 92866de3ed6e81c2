type registry = (string, int ref) Hashtbl.t

let registry () : registry = Hashtbl.create 64

let cell reg name =
  match Hashtbl.find_opt reg name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add reg name r;
      r

let incr reg name = Stdlib.incr (cell reg name)
let add reg name n = cell reg name |> fun r -> r := !r + n
let set reg name n = cell reg name |> fun r -> r := n
let get reg name = match Hashtbl.find_opt reg name with Some r -> !r | None -> 0

let counter reg name =
  let resolved = ref None in
  fun n ->
    match !resolved with
    | Some r -> r := !r + n
    | None ->
        let r = cell reg name in
        resolved := Some r;
        r := !r + n

let reset reg = Hashtbl.reset reg

let names reg =
  Hashtbl.fold (fun name _ acc -> name :: acc) reg [] |> List.sort String.compare

let fold reg ~init ~f =
  List.fold_left (fun acc name -> f acc name (get reg name)) init (names reg)

let to_assoc reg = List.map (fun name -> (name, get reg name)) (names reg)

module Histogram = struct
  type t = {
    counts : int array;
    lo : float;
    hi : float;
    width : float;
    mutable n : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create ~buckets ~lo ~hi =
    if buckets <= 0 || hi <= lo then invalid_arg "Histogram.create: bad shape";
    {
      counts = Array.make buckets 0;
      lo;
      hi;
      width = (hi -. lo) /. float_of_int buckets;
      n = 0;
      sum = 0.0;
      minv = infinity;
      maxv = neg_infinity;
    }

  let record t v =
    let buckets = Array.length t.counts in
    let idx =
      if v < t.lo then 0
      else if v >= t.hi then buckets - 1
      else int_of_float ((v -. t.lo) /. t.width)
    in
    let idx = if idx >= buckets then buckets - 1 else idx in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
  let min_value t = if t.n = 0 then 0.0 else t.minv
  let max_value t = if t.n = 0 then 0.0 else t.maxv

  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let p = Float.max 0.0 (Float.min 1.0 p) in
      let target = p *. float_of_int t.n in
      (* Linear interpolation within the bucket that crosses the target
         rank, rather than snapping to the bucket's upper edge. *)
      let rec scan i acc =
        if i >= Array.length t.counts then t.maxv
        else
          let c = t.counts.(i) in
          let acc' = acc + c in
          if c > 0 && float_of_int acc' >= target then begin
            let lower = t.lo +. (t.width *. float_of_int i) in
            let within = (target -. float_of_int acc) /. float_of_int c in
            let v = lower +. (t.width *. within) in
            Float.max t.minv (Float.min t.maxv v)
          end
          else scan (i + 1) acc'
      in
      scan 0 0
    end

  let p50 t = percentile t 0.50
  let p95 t = percentile t 0.95
  let p99 t = percentile t 0.99

  let bucket_counts t =
    Array.mapi (fun i c -> (t.lo +. (t.width *. float_of_int i), c)) t.counts

  let merge a b =
    if Array.length a.counts <> Array.length b.counts || a.lo <> b.lo || a.hi <> b.hi
    then invalid_arg "Histogram.merge: shape mismatch";
    {
      counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
      lo = a.lo;
      hi = a.hi;
      width = a.width;
      n = a.n + b.n;
      sum = a.sum +. b.sum;
      minv = Float.min a.minv b.minv;
      maxv = Float.max a.maxv b.maxv;
    }
end
