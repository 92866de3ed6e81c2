(* Tests for the kernel substrate: rb-tree, PTE formats, page tables, TLB,
   allocators, VMAs, futex buckets, hotplug, namespaces. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Phys_mem = Stramash_mem.Phys_mem
module Rbtree = Stramash_kernel.Rbtree
module Pte = Stramash_kernel.Pte
module Page_table = Stramash_kernel.Page_table
module Tlb = Stramash_kernel.Tlb
module Frame_alloc = Stramash_kernel.Frame_alloc
module Kheap = Stramash_kernel.Kheap
module Vma = Stramash_kernel.Vma
module Futex = Stramash_kernel.Futex
module Hotplug = Stramash_kernel.Hotplug
module Namespace = Stramash_kernel.Namespace
module Kernel = Stramash_kernel.Kernel

let checki = Alcotest.(check int)

(* ---------- Rbtree ---------- *)

let test_rbtree_basic () =
  let t = Rbtree.create () in
  Alcotest.(check bool) "empty" true (Rbtree.is_empty t);
  Rbtree.insert t ~key:5 "five";
  Rbtree.insert t ~key:3 "three";
  Rbtree.insert t ~key:8 "eight";
  checki "size" 3 (Rbtree.size t);
  Alcotest.(check (option string)) "find" (Some "three") (Rbtree.find t ~key:3);
  Alcotest.(check (option string)) "missing" None (Rbtree.find t ~key:4);
  Rbtree.insert t ~key:3 "THREE";
  checki "replace keeps size" 3 (Rbtree.size t);
  Alcotest.(check (option string)) "replaced" (Some "THREE") (Rbtree.find t ~key:3)

let test_rbtree_floor () =
  let t = Rbtree.create () in
  List.iter (fun k -> Rbtree.insert t ~key:k (string_of_int k)) [ 10; 20; 30 ];
  Alcotest.(check (option (pair int string))) "exact" (Some (20, "20")) (Rbtree.find_floor t ~key:20);
  Alcotest.(check (option (pair int string))) "between" (Some (20, "20")) (Rbtree.find_floor t ~key:25);
  Alcotest.(check (option (pair int string))) "below all" None (Rbtree.find_floor t ~key:5);
  Alcotest.(check (option (pair int string))) "above all" (Some (30, "30")) (Rbtree.find_floor t ~key:99)

let test_rbtree_remove () =
  let t = Rbtree.create () in
  List.iter (fun k -> Rbtree.insert t ~key:k k) [ 5; 2; 8; 1; 3; 7; 9; 6 ];
  Alcotest.(check bool) "remove hit" true (Rbtree.remove t ~key:5);
  Alcotest.(check bool) "remove miss" false (Rbtree.remove t ~key:5);
  checki "size after removals" 7 (Rbtree.size t);
  Alcotest.(check (option int)) "others intact" (Some 6) (Rbtree.find t ~key:6);
  Alcotest.(check bool) "invariants hold" true (Rbtree.check_invariants t = Ok ())

let test_rbtree_iter_sorted () =
  let t = Rbtree.create () in
  List.iter (fun k -> Rbtree.insert t ~key:k ()) [ 42; 7; 19; 3; 88; 54 ];
  let keys = List.map fst (Rbtree.to_list t) in
  Alcotest.(check (list int)) "sorted iteration" [ 3; 7; 19; 42; 54; 88 ] keys

let test_rbtree_visit_counts_path () =
  let t = Rbtree.create () in
  for i = 0 to 1023 do
    Rbtree.insert t ~key:i i
  done;
  let visits = ref 0 in
  ignore (Rbtree.find ~visit:(fun _ -> incr visits) t ~key:777);
  Alcotest.(check bool) "search path is logarithmic" true (!visits <= 2 * 11)

let prop_rbtree_model =
  QCheck.Test.make ~name:"rbtree agrees with a sorted-map model and keeps invariants" ~count:100
    QCheck.(list (pair (int_range 0 200) bool))
    (fun ops ->
      let t = Rbtree.create () in
      let model = Hashtbl.create 64 in
      List.for_all
        (fun (k, insert) ->
          if insert then begin
            Rbtree.insert t ~key:k k;
            Hashtbl.replace model k k
          end
          else begin
            let removed = Rbtree.remove t ~key:k in
            let expected = Hashtbl.mem model k in
            Hashtbl.remove model k;
            if removed <> expected then raise Exit
          end;
          Rbtree.check_invariants t = Ok ()
          && Rbtree.size t = Hashtbl.length model
          && Hashtbl.fold (fun k v acc -> acc && Rbtree.find t ~key:k = Some v) model true)
        ops)

(* ---------- Pte ---------- *)

let prop_pte_roundtrip =
  QCheck.Test.make ~name:"pte encode/decode roundtrip on both ISA formats" ~count:300
    QCheck.(
      pair (int_range 0 0xFFFFF)
        (pair (pair bool bool) (pair bool (pair bool bool))))
    (fun (frame, ((writable, user), (accessed, (dirty, remote_owned)))) ->
      let flags = { Pte.present = true; writable; user; accessed; dirty; remote_owned } in
      List.for_all
        (fun isa ->
          let entry = Pte.encode ~isa ~frame flags in
          Pte.decode ~isa (Int64.of_int entry) = Some (frame, flags)
          && Pte.frame ~isa entry = frame
          && Pte.flags ~isa entry = flags)
        Node_id.all)

(* Any 64-bit word, with bits 59..63 drawn separately so words that set
   them (which no encoding does) are common. *)
let arb_word =
  QCheck.(
    map
      (fun (low, high) ->
        Int64.logor (Int64.shift_right_logical low 5) (Int64.shift_left (Int64.of_int high) 59))
      ~rev:(fun v -> (Int64.shift_left v 5, Int64.to_int (Int64.shift_right_logical v 59)))
      (pair int64 (int_range 0 31)))

(* Page_table reads an entry as the immediate int [Phys_mem.read_entry]
   returns, dropping bit 63: the int accessors must read that int exactly
   as the reference decoder reads the whole word. *)
let prop_pte_accessors_agree =
  QCheck.Test.make ~name:"pte int accessors agree with the 64-bit decoder" ~count:1000 arb_word
    (fun word ->
      let phys = Phys_mem.create () in
      Phys_mem.write_u64 phys 0x1000 word;
      let entry = Phys_mem.read_entry phys 0x1000 in
      List.for_all
        (fun isa ->
          match Pte.decode ~isa word with
          | None -> not (Pte.present entry)
          | Some (frame, flags) ->
              (* [Pte.flags] reads every field through its accessor *)
              Pte.present entry && Pte.frame ~isa entry = frame && Pte.flags ~isa entry = flags)
        Node_id.all)

let test_pte_formats_differ () =
  let flags = Pte.default_flags in
  let x = Pte.encode ~isa:Node_id.X86 ~frame:0x1234 flags in
  let a = Pte.encode ~isa:Node_id.Arm ~frame:0x1234 flags in
  Alcotest.(check bool) "encodings differ" true (x <> a);
  (* Decoding with the wrong format misreads the permissions: the armish
     encoding of a writable page has no bit where x86ish keeps RW. *)
  Alcotest.(check bool) "cross-decode misreads writable" true
    (Pte.present a && not (Pte.writable ~isa:Node_id.X86 a))

let test_pte_not_present () =
  Alcotest.(check bool) "zero entry absent" false (Pte.present Pte.not_present);
  List.iter
    (fun isa ->
      Alcotest.(check bool) "zero word decodes absent" true
        (Pte.decode ~isa (Int64.of_int Pte.not_present) = None))
    Node_id.all

(* ---------- Page_table ---------- *)

let make_pt isa =
  let phys = Phys_mem.create () in
  let kernel = Kernel.boot ~node:isa ~phys in
  let reads = ref 0 and writes = ref 0 in
  let io =
    {
      Page_table.phys;
      charge_read = (fun _ -> incr reads);
      charge_write = (fun _ -> incr writes);
      alloc_table = (fun () -> Kernel.alloc_table_page kernel);
    }
  in
  (Page_table.create ~isa io, io, reads, writes)

let test_page_table_map_walk () =
  List.iter
    (fun isa ->
      let pt, io, _, _ = make_pt isa in
      let vaddr = 0x12345000 in
      checki "unmapped walk" Pte.not_present (Page_table.walk pt io ~vaddr);
      Page_table.map pt io ~vaddr ~frame:0x777 Pte.default_flags;
      let leaf = Page_table.walk pt io ~vaddr in
      Alcotest.(check bool) "present" true (Pte.present leaf);
      checki "frame" 0x777 (Pte.frame ~isa leaf);
      Alcotest.(check bool) "writable" true (Pte.writable ~isa leaf);
      Alcotest.(check bool) "unmap" true (Page_table.unmap pt io ~vaddr);
      checki "gone" Pte.not_present (Page_table.walk pt io ~vaddr))
    Node_id.all

let test_page_table_walk_charges_five_levels () =
  let pt, io, reads, _ = make_pt Node_id.X86 in
  Page_table.map pt io ~vaddr:0x40000000 ~frame:1 Pte.default_flags;
  reads := 0;
  ignore (Page_table.walk pt io ~vaddr:0x40000000);
  checki "5-level walk = 5 entry reads" Page_table.levels !reads

let test_page_table_upper_levels () =
  let pt, io, _, _ = make_pt Node_id.Arm in
  let vaddr = 0x40000000 in
  Alcotest.(check bool) "no uppers before map" false (Page_table.upper_levels_present pt io ~vaddr);
  Alcotest.(check bool) "leaf install refused" false
    (Page_table.set_leaf_if_upper_present pt io ~vaddr ~frame:3 Pte.default_flags);
  Page_table.map pt io ~vaddr ~frame:3 Pte.default_flags;
  Alcotest.(check bool) "uppers after map" true (Page_table.upper_levels_present pt io ~vaddr);
  (* a neighbouring page in the same leaf table can now be set directly *)
  Alcotest.(check bool) "leaf install ok" true
    (Page_table.set_leaf_if_upper_present pt io ~vaddr:(vaddr + 4096) ~frame:4 Pte.default_flags)

let test_page_table_update_flags () =
  let pt, io, _, _ = make_pt Node_id.X86 in
  Page_table.map pt io ~vaddr:0x5000 ~frame:9 Pte.default_flags;
  Alcotest.(check bool) "update" true
    (Page_table.update_flags pt io ~vaddr:0x5000 { Pte.default_flags with writable = false });
  let leaf = Page_table.walk pt io ~vaddr:0x5000 in
  Alcotest.(check bool) "still mapped" true (Pte.present leaf);
  checki "same frame" 9 (Pte.frame ~isa:Node_id.X86 leaf);
  Alcotest.(check bool) "now read-only" false (Pte.writable ~isa:Node_id.X86 leaf)

(* ---------- Tlb ---------- *)

let test_tlb () =
  let tlb = Tlb.create ~entries:16 () in
  let probe ?(write = false) ~asid vpage = Tlb.translate tlb ~asid ~vpage ~write in
  checki "cold miss" Tlb.miss (probe ~asid:1 5);
  Tlb.insert tlb ~asid:1 ~vpage:5 { Tlb.frame = 42; writable = true };
  checki "hit frame" 42 (probe ~asid:1 5);
  (* a different address space must not alias the same virtual page *)
  checki "asid isolation" Tlb.miss (probe ~asid:2 5);
  (* conflicting vpage maps to same slot (16 entries) *)
  Tlb.insert tlb ~asid:1 ~vpage:21 { Tlb.frame = 1; writable = false };
  checki "conflict evicts" Tlb.miss (probe ~asid:1 5);
  (* a read-only entry serves reads; a write is refused but still a hit *)
  checki "read-only read" 1 (probe ~asid:1 21);
  checki "read-only write" Tlb.not_writable (probe ~write:true ~asid:1 21);
  Tlb.flush_page tlb ~vpage:21;
  checki "flush_page" Tlb.miss (probe ~asid:1 21);
  Tlb.insert tlb ~asid:1 ~vpage:9 { Tlb.frame = 7; writable = true };
  Tlb.flush_all tlb;
  checki "flush_all" Tlb.miss (probe ~asid:1 9);
  checki "hits counted" 3 (Tlb.hits tlb);
  checki "misses counted" 5 (Tlb.misses tlb)

(* ---------- Frame_alloc ---------- *)

let region lo pages = { Layout.lo; hi = lo + (pages * Addr.page_size) }

let test_frame_alloc () =
  let fa = Frame_alloc.create ~name:"t" in
  Frame_alloc.add_region fa (region 0 4);
  checki "total" 4 (Frame_alloc.total_frames fa);
  let a = Frame_alloc.alloc_exn fa in
  let b = Frame_alloc.alloc_exn fa in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "allocated" true (Frame_alloc.is_allocated fa a);
  Frame_alloc.free fa a;
  Alcotest.(check bool) "free again" false (Frame_alloc.is_allocated fa a);
  checki "used" 1 (Frame_alloc.used_frames fa);
  Alcotest.check_raises "double free" (Invalid_argument "t: free of unallocated frame 0x0")
    (fun () -> Frame_alloc.free fa a)

let test_frame_alloc_exhaustion () =
  let fa = Frame_alloc.create ~name:"t" in
  Frame_alloc.add_region fa (region 0 2);
  ignore (Frame_alloc.alloc_exn fa);
  ignore (Frame_alloc.alloc_exn fa);
  Alcotest.(check bool) "exhausted" true (Frame_alloc.alloc fa = None)

let test_frame_alloc_remove_region () =
  let fa = Frame_alloc.create ~name:"t" in
  Frame_alloc.add_region fa (region 0 2);
  Frame_alloc.add_region fa (region 8192 2);
  let a = Frame_alloc.alloc_exn fa in
  Alcotest.(check bool) "cannot remove region in use" true
    (Frame_alloc.remove_region fa (region 0 2) = Error (`Pages_in_use 1));
  Frame_alloc.free fa a;
  Alcotest.(check bool) "removable when free" true (Frame_alloc.remove_region fa (region 0 2) = Ok ());
  (* all further allocations come from the second region *)
  let b = Frame_alloc.alloc_exn fa in
  Alcotest.(check bool) "allocates from live region" true (b >= 8192);
  Alcotest.(check bool) "pressure sane" true (Frame_alloc.pressure fa <= 1.0)

(* ---------- Kheap ---------- *)

let test_kheap_alignment () =
  let fa = Frame_alloc.create ~name:"t" in
  Frame_alloc.add_region fa (region 0 16);
  let kh = Kheap.create ~alloc_frame:(fun () -> Frame_alloc.alloc_exn fa) in
  let a = Kheap.alloc_line kh in
  let b = Kheap.alloc_line kh in
  checki "line aligned" 0 (a land 63);
  Alcotest.(check bool) "lines distinct" true (Addr.line_of a <> Addr.line_of b);
  let c = Kheap.alloc kh ~bytes:8 in
  checki "8-aligned" 0 (c land 7)

(* ---------- Vma ---------- *)

let make_vmas () =
  let next = ref 0 in
  Vma.create_set ~alloc_struct:(fun () ->
      next := !next + 64;
      !next)

let test_vma () =
  let set = make_vmas () in
  let v = Vma.add set ~start:0x1000 ~end_:0x5000 Vma.Heap ~writable:true in
  checki "pages" 4 (Vma.pages v);
  (match Vma.find set ~vaddr:0x2000 with
  | Some f -> Alcotest.(check bool) "same vma" true (f.Vma.v_start = 0x1000)
  | None -> Alcotest.fail "expected vma");
  Alcotest.(check bool) "miss below" true (Vma.find set ~vaddr:0xFFF = None);
  Alcotest.(check bool) "miss above" true (Vma.find set ~vaddr:0x5000 = None);
  Alcotest.check_raises "overlap rejected" (Invalid_argument "Vma.add: overlapping VMA") (fun () ->
      ignore (Vma.add set ~start:0x4000 ~end_:0x6000 Vma.Anon ~writable:true));
  ignore (Vma.add set ~start:0x5000 ~end_:0x6000 Vma.Anon ~writable:false);
  checki "two vmas" 2 (Vma.count set)

(* ---------- Futex ---------- *)

let test_futex_buckets () =
  let next = ref 0 in
  let f = Futex.create ~alloc_struct:(fun () -> incr next; !next * 64) in
  let addr1 = Futex.bucket_addr f ~uaddr:0x100 in
  let addr2 = Futex.bucket_addr f ~uaddr:0x100 in
  checki "stable bucket address" addr1 addr2;
  Futex.enqueue_waiter f ~uaddr:0x100 ~tid:1;
  Futex.enqueue_waiter f ~uaddr:0x100 ~tid:2;
  checki "waiters" 2 (Futex.waiter_count f ~uaddr:0x100);
  Alcotest.(check (option int)) "fifo wake" (Some 1) (Futex.dequeue_waiter f ~uaddr:0x100);
  Alcotest.(check bool) "remove specific" true (Futex.remove_waiter f ~uaddr:0x100 ~tid:2);
  checki "empty" 0 (Futex.waiter_count f ~uaddr:0x100)

(* ---------- Hotplug (Table 4 calibration) ---------- *)

let test_hotplug_cost_model () =
  (* Table 4 anchor points within 15% *)
  let near ~got ~want = Float.abs (got -. want) /. want < 0.15 in
  Alcotest.(check bool) "x86 offline 2^15" true
    (near ~got:(Hotplug.offline_cost_model ~isa:Node_id.X86 ~pages:(1 lsl 15)) ~want:12.5);
  Alcotest.(check bool) "x86 offline 2^20" true
    (near ~got:(Hotplug.offline_cost_model ~isa:Node_id.X86 ~pages:(1 lsl 20)) ~want:246.3);
  Alcotest.(check bool) "arm offline 2^20" true
    (near ~got:(Hotplug.offline_cost_model ~isa:Node_id.Arm ~pages:(1 lsl 20)) ~want:64.4);
  Alcotest.(check bool) "arm online 2^20" true
    (near ~got:(Hotplug.online_cost_model ~isa:Node_id.Arm ~pages:(1 lsl 20)) ~want:80.9);
  Alcotest.(check bool) "x86 offline dearer than arm" true
    (Hotplug.offline_cost_model ~isa:Node_id.X86 ~pages:65536
    > Hotplug.offline_cost_model ~isa:Node_id.Arm ~pages:65536)

let test_hotplug_roundtrip () =
  let fa = Frame_alloc.create ~name:"t" in
  let rng = Rng.create ~seed:4L in
  let r = region 0 1024 in
  let on = Hotplug.online fa r ~isa:Node_id.Arm ~rng in
  checki "pages onlined" 1024 on.Hotplug.pages;
  checki "frames available" 1024 (Frame_alloc.total_frames fa);
  let frame = Frame_alloc.alloc_exn fa in
  Alcotest.(check bool) "offline refused while in use" true
    (Result.is_error (Hotplug.offline fa r ~isa:Node_id.Arm ~rng));
  Frame_alloc.free fa frame;
  Alcotest.(check bool) "offline ok when evacuated" true
    (Result.is_ok (Hotplug.offline fa r ~isa:Node_id.Arm ~rng))

(* ---------- Namespace ---------- *)

let test_namespaces () =
  let a = Namespace.fresh_set () in
  let b = Namespace.fresh_set () in
  Alcotest.(check bool) "fresh sets differ" false (Namespace.same_view a b);
  let fused = Namespace.fuse a in
  Alcotest.(check bool) "fused view equal" true (Namespace.same_view a fused);
  checki "cpu list covers both nodes" 8 (List.length (Namespace.fused_cpu_list ~cores_per_node:4))

(* ---------- Kernel boot ---------- *)

let test_kernel_boot () =
  let phys = Phys_mem.create () in
  let k = Kernel.boot ~node:Node_id.Arm ~phys in
  let frame = Kernel.alloc_frame_exn k in
  Alcotest.(check bool) "frames come from the private region" true
    (Layout.region_contains (Layout.private_region Node_id.Arm) frame);
  Alcotest.(check bool) "kernel owns its frame" true (Kernel.owns k frame);
  Alcotest.(check bool) "does not own the pool" false (Kernel.owns k (Addr.gib 5));
  let table = Kernel.alloc_table_page k in
  Alcotest.(check int64) "table pages are zeroed" 0L (Phys_mem.read_u64 phys table)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rbtree_model; prop_pte_roundtrip; prop_pte_accessors_agree ]

let () =
  Alcotest.run "kernel"
    [
      ( "rbtree",
        [
          Alcotest.test_case "basic" `Quick test_rbtree_basic;
          Alcotest.test_case "floor" `Quick test_rbtree_floor;
          Alcotest.test_case "remove" `Quick test_rbtree_remove;
          Alcotest.test_case "sorted iter" `Quick test_rbtree_iter_sorted;
          Alcotest.test_case "visit path" `Quick test_rbtree_visit_counts_path;
        ] );
      ( "pte",
        [
          Alcotest.test_case "formats differ" `Quick test_pte_formats_differ;
          Alcotest.test_case "not present" `Quick test_pte_not_present;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "map/walk/unmap" `Quick test_page_table_map_walk;
          Alcotest.test_case "walk charges 5 levels" `Quick test_page_table_walk_charges_five_levels;
          Alcotest.test_case "upper levels" `Quick test_page_table_upper_levels;
          Alcotest.test_case "update flags" `Quick test_page_table_update_flags;
        ] );
      ("tlb", [ Alcotest.test_case "basic" `Quick test_tlb ]);
      ( "frame_alloc",
        [
          Alcotest.test_case "alloc/free" `Quick test_frame_alloc;
          Alcotest.test_case "exhaustion" `Quick test_frame_alloc_exhaustion;
          Alcotest.test_case "remove region" `Quick test_frame_alloc_remove_region;
        ] );
      ("kheap", [ Alcotest.test_case "alignment" `Quick test_kheap_alignment ]);
      ("vma", [ Alcotest.test_case "basic" `Quick test_vma ]);
      ("futex", [ Alcotest.test_case "buckets" `Quick test_futex_buckets ]);
      ( "hotplug",
        [
          Alcotest.test_case "table 4 calibration" `Quick test_hotplug_cost_model;
          Alcotest.test_case "roundtrip" `Quick test_hotplug_roundtrip;
        ] );
      ("namespace", [ Alcotest.test_case "fuse" `Quick test_namespaces ]);
      ("kernel", [ Alcotest.test_case "boot" `Quick test_kernel_boot ]);
      ("properties", qsuite);
    ]
