type t = {
  sets : int;
  ways : int;
  tags : int array; (* -1 = invalid; indexed set*ways + way *)
  stamp : int array; (* LRU timestamps *)
  tick : int ref;
}

(* A raw window onto the tag/LRU state, so the Fast engine can replicate a
   hit's exact observable effects (tag compare + tick advance + stamp
   write) without a function call per access. Mutations other than
   [stamp.(i) <- incr tick] are reserved to this module. *)
type view = { v_tags : int array; v_stamp : int array; v_tick : int ref }

let create (g : Config.geometry) =
  let sets = Config.sets g in
  {
    sets;
    ways = g.ways;
    tags = Array.make (sets * g.ways) (-1);
    stamp = Array.make (sets * g.ways) 0;
    tick = ref 0;
  }

let view t = { v_tags = t.tags; v_stamp = t.stamp; v_tick = t.tick }

let set_of t line = line land (t.sets - 1)

(* The way scan of one set, indices [i, stop). Top-level with every value
   it reads passed in: a local [let rec] capturing them would be a heap
   closure per call (no flambda to lift it). [stop = base + ways <= sets *
   ways], so the unsafe reads are in bounds by construction. *)
let rec scan (tags : int array) (line : int) i (stop : int) =
  if i >= stop then -1
  else if Array.unsafe_get tags i = line then i
  else scan tags line (i + 1) stop

let find t line =
  let base = set_of t line * t.ways in
  scan t.tags line base (base + t.ways)

(* [idx] always comes from [find]/[insert], which stay within
   [sets * ways], so the unsafe write is in bounds by construction. *)
let touch t idx =
  let tk = !(t.tick) + 1 in
  t.tick := tk;
  Array.unsafe_set t.stamp idx tk

let probe t ~line =
  let idx = find t line in
  if idx >= 0 then begin
    touch t idx;
    true
  end
  else false

(* Fast-path support: [probe_way] is [probe] that also reports where the
   line sits, so the L0 filter can revalidate the same way later without
   a scan. Tags are unique within a set (insert asserts absence), so the
   reported index is the one [find] would return. *)
let probe_way t ~line =
  let idx = find t line in
  if idx >= 0 then touch t idx;
  idx

let tag_at t idx = t.tags.(idx)

let contains t ~line = find t line >= 0

(* Allocation-free insert on the miss-fill hot path: returns the evicted
   line, or -1 when an invalid way absorbed the fill. The line must be
   absent (callers insert only after a failed probe); [insert] asserts
   that, [insert_evict] is the no-assert form the cache simulator's
   per-access path uses. Victim choice is identical to the historical
   loop: the first invalid way if any, else the least-recently-used way
   with the lowest index winning ties ([<] keeps the earlier victim). *)
let insert_evict t ~line =
  let base = set_of t line * t.ways in
  let tags = t.tags and stamp = t.stamp and ways = t.ways in
  (* Prefer an invalid way; otherwise evict the least recently used. *)
  let victim = ref base in
  let found_invalid = ref (Array.unsafe_get tags base = -1) in
  let w = ref 1 in
  while (not !found_invalid) && !w < ways do
    let idx = base + !w in
    if Array.unsafe_get tags idx = -1 then begin
      victim := idx;
      found_invalid := true
    end
    else if Array.unsafe_get stamp idx < Array.unsafe_get stamp !victim then victim := idx;
    incr w
  done;
  let evicted = if !found_invalid then -1 else Array.unsafe_get tags !victim in
  Array.unsafe_set tags !victim line;
  touch t !victim;
  evicted

let insert t ~line =
  assert (find t line < 0);
  match insert_evict t ~line with -1 -> None | evicted -> Some evicted

let invalidate t ~line =
  let idx = find t line in
  if idx >= 0 then begin
    t.tags.(idx) <- -1;
    t.stamp.(idx) <- 0;
    true
  end
  else false

let capacity_lines t = t.sets * t.ways
