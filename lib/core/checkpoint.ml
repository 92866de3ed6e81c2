module Node_id = Stramash_sim.Node_id
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Kheap = Stramash_kernel.Kheap
module Vma = Stramash_kernel.Vma
module Pte = Stramash_kernel.Pte
module Page_table = Stramash_kernel.Page_table
module Process = Stramash_kernel.Process
module Integrity = Stramash_fault_inject.Integrity
module Trace = Stramash_obs.Trace

type pte_image = { p_vaddr : int; p_frame : int; p_writable : bool; p_remote_owned : bool }
type vma_image = { v_start : int; v_end : int; v_kind : Vma.kind; v_writable : bool }
type proc_image = { pid : int; vmas : vma_image list; ptes : pte_image list }
type futex_image = { f_home : Node_id.t; f_uaddr : int; f_tid : int }

type image = { node : Node_id.t; procs : proc_image list; futexes : futex_image list }

(* The checkpoint walk is the simulator's shadow of state that, on real
   hardware, would be captured by the firmware/hypervisor layer at the
   crash boundary — it is not work the (already dead) node can be charged
   for, so reads are silent. Restore, by contrast, is real work billed to
   the restarting node. *)
let capture env ~node ~procs ~futexes =
  let procs =
    List.sort (fun a b -> compare a.Process.pid b.Process.pid) procs
    |> List.filter_map (fun proc ->
           match Process.mm proc node with
           | None -> None
           | Some mm ->
               let vmas = ref [] in
               Vma.iter mm.Process.vmas ~f:(fun v ->
                   vmas :=
                     {
                       v_start = v.Vma.v_start;
                       v_end = v.Vma.v_end;
                       v_kind = v.Vma.kind;
                       v_writable = v.Vma.writable;
                     }
                     :: !vmas);
               let ptes = ref [] in
               Page_table.iter_leaves mm.Process.pgtable (Env.silent_io env)
                 ~f:(fun ~vaddr ~frame ~flags ->
                   ptes :=
                     {
                       p_vaddr = vaddr;
                       p_frame = frame;
                       p_writable = flags.Pte.writable;
                       p_remote_owned = flags.Pte.remote_owned;
                     }
                     :: !ptes);
               Some
                 { pid = proc.Process.pid; vmas = List.rev !vmas; ptes = List.rev !ptes })
  in
  { node; procs; futexes }

(* --- serialisation ------------------------------------------------------ *)

let kind_of_string = function
  | "code" -> Vma.Code
  | "data" -> Vma.Data
  | "heap" -> Vma.Heap
  | "stack" -> Vma.Stack
  | "anon" -> Vma.Anon
  | s -> invalid_arg ("Checkpoint: unknown VMA kind " ^ s)

(* v2 framing: the first line is [magic ^ " v2 <body-bytes> <crc32-hex>"]
   and everything after the newline is the body the header vouches for.
   Length catches torn writes (the common crash-boundary corruption);
   the CRC catches everything else. The body grammar is unchanged from
   v1, so the parser below only moved. *)
let magic = "stramash-checkpoint"

let encode image =
  let buf = Buffer.create 4096 in
  let bool b = if b then 1 else 0 in
  Buffer.add_string buf (Printf.sprintf "node %s\n" (Node_id.to_string image.node));
  List.iter
    (fun p ->
      Buffer.add_string buf (Printf.sprintf "proc %d\n" p.pid);
      List.iter
        (fun v ->
          Buffer.add_string buf
            (Printf.sprintf "vma 0x%x 0x%x %s %d\n" v.v_start v.v_end
               (Vma.kind_to_string v.v_kind) (bool v.v_writable)))
        p.vmas;
      List.iter
        (fun pte ->
          Buffer.add_string buf
            (Printf.sprintf "pte 0x%x 0x%x %d %d\n" pte.p_vaddr pte.p_frame
               (bool pte.p_writable) (bool pte.p_remote_owned)))
        p.ptes)
    image.procs;
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "futex %s 0x%x %d\n" (Node_id.to_string f.f_home) f.f_uaddr f.f_tid))
    image.futexes;
  Buffer.add_string buf "end\n";
  let body = Buffer.contents buf in
  Printf.sprintf "%s v2 %d %08x\n%s" magic (String.length body)
    (Integrity.crc32_string body)
    body

type decode_error =
  | Bad_magic
  | Unsupported_version of string
  | Truncated of { expected : int; got : int }
  | Checksum_mismatch of { expected : int; got : int }
  | Malformed of string

let decode_error_to_string = function
  | Bad_magic -> "bad magic (not a stramash checkpoint)"
  | Unsupported_version v -> Printf.sprintf "unsupported checkpoint version %S" v
  | Truncated { expected; got } ->
      Printf.sprintf "truncated blob: header promises %d body bytes, found %d" expected got
  | Checksum_mismatch { expected; got } ->
      Printf.sprintf "checksum mismatch: header 0x%08x, body 0x%08x" expected got
  | Malformed msg -> "malformed body: " ^ msg

let node_of_string s =
  match List.find_opt (fun n -> Node_id.to_string n = s) Node_id.all with
  | Some n -> n
  | None -> invalid_arg ("unknown node " ^ s)

exception Fail of decode_error

let decode_body body =
  let lines = String.split_on_char '\n' body in
  let node = ref None in
  let procs = ref [] in
  let cur = ref None in
  let futexes = ref [] in
  let finished = ref false in
  let flush_cur () =
    match !cur with
    | None -> ()
    | Some p ->
        procs := { p with vmas = List.rev p.vmas; ptes = List.rev p.ptes } :: !procs;
        cur := None
  in
  try
    List.iteri
      (fun i line ->
        (* line 1 of the blob is the header, so body line [i] is i+2 *)
        let fail msg = raise (Fail (Malformed (Printf.sprintf "line %d: %s" (i + 2) msg))) in
        match String.split_on_char ' ' (String.trim line) with
        | [ "" ] -> ()
        | [ "node"; name ] -> node := Some (node_of_string name)
        | [ "proc"; pid ] ->
            flush_cur ();
            cur := Some { pid = int_of_string pid; vmas = []; ptes = [] }
        | [ "vma"; s; e; kind; w ] -> (
            match !cur with
            | None -> fail "vma outside proc"
            | Some p ->
                cur :=
                  Some
                    {
                      p with
                      vmas =
                        {
                          v_start = int_of_string s;
                          v_end = int_of_string e;
                          v_kind = kind_of_string kind;
                          v_writable = w = "1";
                        }
                        :: p.vmas;
                    })
        | [ "pte"; va; fr; w; ro ] -> (
            match !cur with
            | None -> fail "pte outside proc"
            | Some p ->
                cur :=
                  Some
                    {
                      p with
                      ptes =
                        {
                          p_vaddr = int_of_string va;
                          p_frame = int_of_string fr;
                          p_writable = w = "1";
                          p_remote_owned = ro = "1";
                        }
                        :: p.ptes;
                    })
        | [ "futex"; home; uaddr; tid ] ->
            futexes :=
              {
                f_home = node_of_string home;
                f_uaddr = int_of_string uaddr;
                f_tid = int_of_string tid;
              }
              :: !futexes
        | [ "end" ] ->
            flush_cur ();
            finished := true
        | _ -> fail "unrecognised record")
      lines;
    if not !finished then raise (Fail (Malformed "no end record"));
    match !node with
    | None -> Error (Malformed "blob names no node")
    | Some node ->
        Ok { node; procs = List.rev !procs; futexes = List.rev !futexes }
  with
  | Fail e -> Error e
  | Invalid_argument msg | Failure msg -> Error (Malformed msg)

let decode blob =
  let header, body =
    match String.index_opt blob '\n' with
    | Some i -> (String.sub blob 0 i, String.sub blob (i + 1) (String.length blob - i - 1))
    | None -> (blob, "")
  in
  match String.split_on_char ' ' header with
  | [ m; "v2"; len; crc ] when m = magic -> (
      match (int_of_string_opt len, int_of_string_opt ("0x" ^ crc)) with
      | Some len, Some expected when len >= 0 ->
          let got = String.length body in
          if got < len then Error (Truncated { expected = len; got })
          else
            (* tolerate trailing garbage past the promised length: the
               header only vouches for the first [len] body bytes *)
            let body = String.sub body 0 len in
            let actual = Integrity.crc32_string body in
            if actual <> expected then
              Error (Checksum_mismatch { expected; got = actual })
            else decode_body body
      | _ -> Error Bad_magic)
  | m :: v :: _ when m = magic -> Error (Unsupported_version v)
  | [ m ] when m = magic -> Error (Unsupported_version "<missing>")
  | _ -> Error Bad_magic

(* --- crash teardown ----------------------------------------------------- *)

(* Model the loss of the dead node's derived kernel state: zero each page
   table's root (the whole tree becomes unreachable, so a restore that
   cheated by re-reading old memory would walk nothing) and drop the mm.
   Frames and kernel-heap lines are deliberately NOT freed: the allocator
   bitmaps live in coherent shared memory and survive as the machine's
   memory inventory; directory pages are never reclaimed in this model
   (matching [Page_table.unmap]'s Linux-like behaviour). *)
let discard env ~node ~procs =
  List.iter
    (fun proc ->
      match Process.mm proc node with
      | None -> ()
      | Some mm ->
          Phys_mem.zero_page env.Env.phys (Page_table.root mm.Process.pgtable);
          Process.remove_mm proc node)
    procs

(* --- restore ------------------------------------------------------------ *)

type restore_stats = { restored_procs : int; restored_vmas : int; restored_pages : int }

let restore env ~procs image =
  let node = image.node in
  let kernel = Env.kernel env node in
  let io = Env.pt_io env ~actor:node ~owner:node in
  let stats = ref { restored_procs = 0; restored_vmas = 0; restored_pages = 0 } in
  List.iter
    (fun (p : proc_image) ->
      match List.find_opt (fun pr -> pr.Process.pid = p.pid) procs with
      | None -> () (* the process exited while the node was down *)
      | Some proc ->
          let vmas =
            Vma.create_set ~alloc_struct:(fun () -> Kheap.alloc_line kernel.Kernel.kheap)
          in
          List.iter
            (fun v ->
              ignore (Vma.add vmas ~start:v.v_start ~end_:v.v_end v.v_kind ~writable:v.v_writable);
              stats := { !stats with restored_vmas = !stats.restored_vmas + 1 })
            p.vmas;
          let pgtable = Page_table.create ~isa:node io in
          List.iter
            (fun pte ->
              Page_table.map pgtable io ~vaddr:pte.p_vaddr ~frame:pte.p_frame
                {
                  Pte.default_flags with
                  writable = pte.p_writable;
                  remote_owned = pte.p_remote_owned;
                };
              stats := { !stats with restored_pages = !stats.restored_pages + 1 })
            p.ptes;
          Process.set_mm proc node
            { Process.vmas; pgtable; ptl_addr = Kheap.alloc_line kernel.Kernel.kheap };
          stats := { !stats with restored_procs = !stats.restored_procs + 1 })
    image.procs;
  if Trace.enabled () then
    Trace.instant ~node ~subsys:"checkpoint" ~op:"restore"
      ~tags:
        [
          ("procs", string_of_int !stats.restored_procs);
          ("pages", string_of_int !stats.restored_pages);
        ]
      ();
  !stats
