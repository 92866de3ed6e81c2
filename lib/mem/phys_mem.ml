type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  (* Direct-mapped page-pointer cache in front of the hashtable. Backing
     pages are created on first touch and never removed, so a cached
     pointer can never go stale — frame reuse after free/realloc lands on
     the same Bytes object. [self_check] asserts exactly that. *)
  cache_frames : int array; (* -1 empty *)
  cache_pages : Bytes.t array;
}

type view = {
  pv_frames : int array;
  pv_pages : Bytes.t array;
  pv_mask : int;
}

let cache_slots = 512
let absent = Bytes.create 0

let create () =
  {
    pages = Hashtbl.create 4096;
    cache_frames = Array.make cache_slots (-1);
    cache_pages = Array.make cache_slots absent;
  }

(* Slow path: materialise (or find) the backing page and fill the cache
   slot. Kept out of [page_for] so the hot path stays small. *)
let page_for_slow t frame slot =
  let page =
    match Hashtbl.find_opt t.pages frame with
    | Some p -> p
    | None ->
        let p = Bytes.make Addr.page_size '\000' in
        Hashtbl.add t.pages frame p;
        p
  in
  t.cache_frames.(slot) <- frame;
  t.cache_pages.(slot) <- page;
  page

let page_for t frame =
  let slot = frame land (cache_slots - 1) in
  if t.cache_frames.(slot) = frame then t.cache_pages.(slot)
  else page_for_slow t frame slot

let view t = { pv_frames = t.cache_frames; pv_pages = t.cache_pages; pv_mask = cache_slots - 1 }

(* Accesses are assumed not to straddle a page boundary; all simulator
   clients issue naturally aligned accesses. The checks live on the
   generic (width-dispatching) path only; the width-specialised u64/u8
   entry points below rely on [Bytes]' own bounds check, which rejects a
   page-straddling offset for free. *)
let check_width a width =
  if not (width = 1 || width = 2 || width = 4 || width = 8) then
    invalid_arg (Printf.sprintf "Phys_mem: width %d not in {1,2,4,8}" width);
  if Addr.page_offset a + width > Addr.page_size then
    invalid_arg (Printf.sprintf "Phys_mem: access at 0x%x/%d straddles a page" a width)

let read t a ~width =
  check_width a width;
  let page = page_for t (Addr.page_of a) in
  let off = Addr.page_offset a in
  match width with
  | 1 -> Int64.of_int (Char.code (Bytes.get page off))
  | 2 -> Int64.of_int (Bytes.get_uint16_le page off)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le page off)) 0xFFFFFFFFL
  | _ -> Bytes.get_int64_le page off

let write t a ~width v =
  check_width a width;
  let page = page_for t (Addr.page_of a) in
  let off = Addr.page_offset a in
  match width with
  | 1 -> Bytes.set page off (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le page off (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le page off (Int64.to_int32 v)
  | _ -> Bytes.set_int64_le page off v

(* Width-specialised paths: no width dispatch, no explicit straddle check
   (Bytes bounds-checks the 8-byte window against the 4 KiB page). These
   carry the interpreter's dominant access width. *)
let read_u8 t a = Char.code (Bytes.get (page_for t (Addr.page_of a)) (Addr.page_offset a))
let write_u8 t a v = Bytes.set (page_for t (Addr.page_of a)) (Addr.page_offset a) (Char.chr (v land 0xFF))
let read_u64 t a = Bytes.get_int64_le (page_for t (Addr.page_of a)) (Addr.page_offset a)
let write_u64 t a v = Bytes.set_int64_le (page_for t (Addr.page_of a)) (Addr.page_offset a) v

(* Page-table entries as immediate ints: the primitive get/set compile
   to a plain 8-byte load/store, so the int64 is never boxed. *)
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external bswap64 : int64 -> int64 = "%bswap_int64"

let read_entry t a =
  let v = bytes_get64 (page_for t (Addr.page_of a)) (Addr.page_offset a) in
  Int64.to_int (if Sys.big_endian then bswap64 v else v)

let write_entry t a v =
  let v = Int64.of_int v in
  bytes_set64 (page_for t (Addr.page_of a)) (Addr.page_offset a)
    (if Sys.big_endian then bswap64 v else v)

let read_f64 t a = Int64.float_of_bits (read_u64 t a)
let write_f64 t a v = write_u64 t a (Int64.bits_of_float v)

let copy_page t ~src ~dst =
  if not (Addr.is_page_aligned src && Addr.is_page_aligned dst) then
    invalid_arg "Phys_mem.copy_page: unaligned page address";
  let sp = page_for t (Addr.page_of src) in
  let dp = page_for t (Addr.page_of dst) in
  Bytes.blit sp 0 dp 0 Addr.page_size

let zero_page t a =
  if not (Addr.is_page_aligned a) then invalid_arg "Phys_mem.zero_page: unaligned page address";
  let p = page_for t (Addr.page_of a) in
  Bytes.fill p 0 Addr.page_size '\000'

let host_write_u64 = write_u64
let host_write_f64 = write_f64

let touched_pages t = Hashtbl.length t.pages

let self_check t =
  let bad = ref None in
  Array.iteri
    (fun slot frame ->
      if frame >= 0 && !bad = None then
        match Hashtbl.find_opt t.pages frame with
        | Some p when p == t.cache_pages.(slot) -> ()
        | Some _ -> bad := Some (Printf.sprintf "frame %d: cached pointer differs from store" frame)
        | None -> bad := Some (Printf.sprintf "frame %d cached but absent from store" frame))
    t.cache_frames;
  match !bad with None -> Ok () | Some msg -> Error ("Phys_mem page-pointer cache: " ^ msg)
