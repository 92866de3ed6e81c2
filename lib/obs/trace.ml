module Node_id = Stramash_sim.Node_id

let nnodes = List.length Node_id.all

(* Open span: lives on the per-node stack between [span] and [close].
   [sp_live = false] marks the shared dummy returned when tracing is off,
   which makes [close] on it free. *)
type span = {
  sp_node : Node_id.t;
  sp_subsys : string;
  sp_op : string;
  sp_start : int;
  sp_depth : int;
  sp_flow : int; (* causal flow id; 0 = not part of any flow *)
  mutable sp_children : int; (* cycles already attributed to sub-spans *)
  mutable sp_tags : (string * string) list;
  sp_live : bool;
}

let null =
  {
    sp_node = Node_id.X86;
    sp_subsys = "";
    sp_op = "";
    sp_start = 0;
    sp_depth = 0;
    sp_flow = 0;
    sp_children = 0;
    sp_tags = [];
    sp_live = false;
  }

(* Closed record in the ring buffer. [ev_dur = -1] marks a point event. *)
type event = {
  ev_ts : int;
  ev_dur : int;
  ev_node : int;
  ev_subsys : string;
  ev_op : string;
  ev_depth : int;
  ev_flow : int;
  ev_tags : (string * string) list;
}

let dummy_event =
  {
    ev_ts = 0;
    ev_dur = -1;
    ev_node = 0;
    ev_subsys = "";
    ev_op = "";
    ev_depth = 0;
    ev_flow = 0;
    ev_tags = [];
  }

type cell = {
  mutable c_count : int;
  mutable c_total : int;
  mutable c_self : int;
  mutable c_max : int;
  c_node : int array; (* inclusive cycles per node *)
}

type t = {
  capacity : int;
  ring : event array;
  mutable total_recorded : int;
  filter : string list; (* [] = record everything *)
  mutable clock : (Node_id.t -> int) option;
  stacks : span list array; (* per node, innermost first *)
  mutable ctx : span list; (* global open-span context, innermost first *)
  agg : (string * string, cell) Hashtbl.t;
  top_cycles : int array; (* depth-0 span cycles per node *)
  flow_seq : int array; (* per node: next flow sequence number *)
  flow_overrides : int list array; (* per node: responder-side inherited flows *)
  blocked : (string, int array) Hashtbl.t; (* subsys -> per-node blocked-on-remote cycles *)
  drops : (string, int) Hashtbl.t; (* subsys -> events lost to ring overflow *)
}

(* Every name the instrumented layers pass as [~subsys], sorted. A
   tier-1 test traces real runs and checks each recorded subsystem is
   listed, so adding instrumentation under a new name fails loudly. *)
let known_subsystems =
  [
    "chaos";
    "checkpoint";
    "dsm";
    "fault";
    "futex";
    "heartbeat";
    "interconnect";
    "ipi";
    "migrate";
    "msg";
    "page_table";
    "placement";
    "ptl";
    "remote_walker";
    "runner";
    "serve";
    "stramash_fault";
  ]

let create ?(capacity = 65536) ?(filter = []) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    ring = Array.make capacity dummy_event;
    total_recorded = 0;
    filter;
    clock = None;
    stacks = Array.make nnodes [];
    ctx = [];
    agg = Hashtbl.create 64;
    top_cycles = Array.make nnodes 0;
    flow_seq = Array.make nnodes 0;
    flow_overrides = Array.make nnodes [];
    blocked = Hashtbl.create 16;
    drops = Hashtbl.create 16;
  }

(* ---------- global tracer ---------- *)

let current : t option ref = ref None

let install t = current := Some t
let uninstall () = current := None
let current_tracer () = !current
let enabled () = !current != None

let set_clock f = match !current with Some t -> t.clock <- Some f | None -> ()

(* ---------- recording ---------- *)

let now t node =
  match t.clock with
  | Some f -> f node
  | None -> ( match t.stacks.(Node_id.index node) with s :: _ -> s.sp_start | [] -> 0)

let pass_filter t subsys =
  match t.filter with [] -> true | filter -> List.mem subsys filter

let record t ev =
  let slot = t.total_recorded mod t.capacity in
  (* The slot being overwritten held a live event: account the loss to its
     subsystem so a truncated causal DAG is flagged, not silently short. *)
  if t.total_recorded >= t.capacity then begin
    let old = t.ring.(slot) in
    let n = match Hashtbl.find_opt t.drops old.ev_subsys with Some n -> n | None -> 0 in
    Hashtbl.replace t.drops old.ev_subsys (n + 1)
  end;
  t.ring.(slot) <- ev;
  t.total_recorded <- t.total_recorded + 1

let cell t key =
  match Hashtbl.find_opt t.agg key with
  | Some c -> c
  | None ->
      let c = { c_count = 0; c_total = 0; c_self = 0; c_max = 0; c_node = Array.make nnodes 0 } in
      Hashtbl.add t.agg key c;
      c

(* ---------- causal flows ---------- *)

(* Flow ids are minted per node from a sequence counter: id = seq * nnodes
   + node_index + 1, so they are nonzero, unique across nodes, and — the
   run being deterministic under a fixed seed — identical between
   same-seed replays. *)
let mint_flow t idx =
  let seq = t.flow_seq.(idx) in
  t.flow_seq.(idx) <- seq + 1;
  (seq * nnodes) + idx + 1

let fresh_flow ~node =
  match !current with None -> 0 | Some t -> mint_flow t (Node_id.index node)

(* Resolution order: a responder-side override (requester's flow pushed by
   [with_flow]) wins; else the enclosing span's flow; else a fresh id when
   the site is a designated flow root; else 0 (not part of any flow). *)
let resolve_flow t idx ~flow_root =
  match t.flow_overrides.(idx) with
  | f :: _ -> f
  | [] -> (
      match t.stacks.(idx) with
      | p :: _ when p.sp_flow <> 0 -> p.sp_flow
      | _ -> if flow_root then mint_flow t idx else 0)

let with_flow ~node ~flow f =
  match !current with
  | None -> f ()
  | Some _ when flow = 0 -> f ()
  | Some t ->
      let idx = Node_id.index node in
      t.flow_overrides.(idx) <- flow :: t.flow_overrides.(idx);
      let pop () =
        match t.flow_overrides.(idx) with
        | _ :: rest -> t.flow_overrides.(idx) <- rest
        | [] -> ()
      in
      (match f () with
      | result ->
          pop ();
          result
      | exception e ->
          pop ();
          raise e)

let current_flow () =
  match !current with
  | None -> 0
  | Some t -> ( match t.ctx with s :: _ -> s.sp_flow | [] -> 0)

let span ?at ?(tags = []) ?(flow_root = false) ~node ~subsys ~op () =
  match !current with
  | None -> null
  | Some t ->
      if not (pass_filter t subsys) then null
      else begin
        let ts = match at with Some v -> v | None -> now t node in
        let idx = Node_id.index node in
        let depth = match t.stacks.(idx) with s :: _ -> s.sp_depth + 1 | [] -> 0 in
        let flow = resolve_flow t idx ~flow_root in
        let sp =
          {
            sp_node = node;
            sp_subsys = subsys;
            sp_op = op;
            sp_start = ts;
            sp_depth = depth;
            sp_flow = flow;
            sp_children = 0;
            sp_tags = tags;
            sp_live = true;
          }
        in
        t.stacks.(idx) <- sp :: t.stacks.(idx);
        t.ctx <- sp :: t.ctx;
        sp
      end

let flow_of sp = if sp.sp_live then sp.sp_flow else 0

let add_tag sp key value = if sp.sp_live then sp.sp_tags <- sp.sp_tags @ [ (key, value) ]

let close ?at ?(tags = []) sp =
  if sp.sp_live then
    match !current with
    | None -> ()
    | Some t ->
        let idx = Node_id.index sp.sp_node in
        let ts_end = match at with Some v -> v | None -> now t sp.sp_node in
        let dur = if ts_end > sp.sp_start then ts_end - sp.sp_start else 0 in
        t.stacks.(idx) <- List.filter (fun s -> s != sp) t.stacks.(idx);
        t.ctx <- List.filter (fun s -> s != sp) t.ctx;
        (match t.stacks.(idx) with
        | parent :: _ -> parent.sp_children <- parent.sp_children + dur
        | [] -> t.top_cycles.(idx) <- t.top_cycles.(idx) + dur);
        let self = if dur > sp.sp_children then dur - sp.sp_children else 0 in
        let c = cell t (sp.sp_subsys, sp.sp_op) in
        c.c_count <- c.c_count + 1;
        c.c_total <- c.c_total + dur;
        c.c_self <- c.c_self + self;
        if dur > c.c_max then c.c_max <- dur;
        c.c_node.(idx) <- c.c_node.(idx) + dur;
        record t
          {
            ev_ts = sp.sp_start;
            ev_dur = dur;
            ev_node = idx;
            ev_subsys = sp.sp_subsys;
            ev_op = sp.sp_op;
            ev_depth = sp.sp_depth;
            ev_flow = sp.sp_flow;
            ev_tags = sp.sp_tags @ tags;
          }

let instant ?at ?node ?flow ?(tags = []) ~subsys ~op () =
  match !current with
  | None -> ()
  | Some t ->
      if pass_filter t subsys then begin
        let node =
          match node with
          | Some n -> n
          | None -> ( match t.ctx with s :: _ -> s.sp_node | [] -> Node_id.X86)
        in
        let ts = match at with Some v -> v | None -> now t node in
        let idx = Node_id.index node in
        let depth = match t.stacks.(idx) with s :: _ -> s.sp_depth + 1 | [] -> 0 in
        let flow =
          match flow with
          | Some f -> f
          | None -> (
              match t.flow_overrides.(idx) with
              | f :: _ -> f
              | [] -> ( match t.stacks.(idx) with s :: _ -> s.sp_flow | [] -> 0))
        in
        let c = cell t (subsys, op) in
        c.c_count <- c.c_count + 1;
        record t
          {
            ev_ts = ts;
            ev_dur = -1;
            ev_node = idx;
            ev_subsys = subsys;
            ev_op = op;
            ev_depth = depth;
            ev_flow = flow;
            ev_tags = tags;
          }
      end

(* ---------- blocked-on-remote accounting ---------- *)

let add_blocked ~node ~subsys cycles =
  match !current with
  | None -> ()
  | Some t ->
      if cycles > 0 && pass_filter t subsys then begin
        let row =
          match Hashtbl.find_opt t.blocked subsys with
          | Some row -> row
          | None ->
              let row = Array.make nnodes 0 in
              Hashtbl.add t.blocked subsys row;
              row
        in
        let idx = Node_id.index node in
        row.(idx) <- row.(idx) + cycles
      end

let blocked_rows t =
  Hashtbl.fold (fun subsys row acc -> (subsys, Array.copy row) :: acc) t.blocked []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let node_blocked_cycles t node =
  let idx = Node_id.index node in
  Hashtbl.fold (fun _ row acc -> acc + row.(idx)) t.blocked 0

(* ---------- inspection ---------- *)

let recorded t = t.total_recorded
let dropped t = if t.total_recorded > t.capacity then t.total_recorded - t.capacity else 0
let capacity t = t.capacity
let open_spans t = List.length t.ctx
let node_span_cycles t node = t.top_cycles.(Node_id.index node)

let dropped_by_subsystem t =
  Hashtbl.fold (fun subsys n acc -> (subsys, n) :: acc) t.drops []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let events t =
  let n = min t.total_recorded t.capacity in
  let start = t.total_recorded - n in
  List.init n (fun i -> t.ring.((start + i) mod t.capacity))

type row = {
  subsys : string;
  op : string;
  count : int;
  total_cycles : int;
  self_cycles : int;
  max_cycles : int;
  node_cycles : int array;
}

let attribution t =
  Hashtbl.fold
    (fun (subsys, op) c acc ->
      {
        subsys;
        op;
        count = c.c_count;
        total_cycles = c.c_total;
        self_cycles = c.c_self;
        max_cycles = c.c_max;
        node_cycles = Array.copy c.c_node;
      }
      :: acc)
    t.agg []
  |> List.sort (fun a b ->
         match compare b.total_cycles a.total_cycles with
         | 0 -> compare (a.subsys, a.op) (b.subsys, b.op)
         | n -> n)

let subsystems t =
  Hashtbl.fold (fun (subsys, _) _ acc -> subsys :: acc) t.agg []
  |> List.sort_uniq String.compare

(* One subsystem's operation counts, sorted by op name — the shape the
   placement engine folds into metrics snapshots without dragging the
   full attribution row type along. *)
let op_counts t ~subsys =
  Hashtbl.fold
    (fun (s, op) c acc -> if String.equal s subsys then (op, c.c_count) :: acc else acc)
    t.agg []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------- sinks ---------- *)

let tags_json tags = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) tags)

let node_name idx = Node_id.to_string (Node_id.of_index idx)

(* Chrome trace-event format (chrome://tracing, Perfetto). Spans are "X"
   complete events; point events are "i" instants. The ts/dur clock is
   simulated cycles, not wall microseconds. A nonzero causal flow id rides
   in args.flow, so the offline assembler can rebuild flows from the
   exported file. *)
let chrome_json t =
  let meta =
    List.map
      (fun node ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 0);
            ("tid", Json.Int (Node_id.index node));
            ("args", Json.Obj [ ("name", Json.String (Node_id.to_string node)) ]);
          ])
      Node_id.all
  in
  let args_json e =
    let tags = List.map (fun (k, v) -> (k, Json.String v)) e.ev_tags in
    let tags = if e.ev_flow = 0 then tags else ("flow", Json.Int e.ev_flow) :: tags in
    (* Depth disambiguates equal-extent nested spans when a trace file is
       re-assembled offline (the causal module sorts on it last). *)
    Json.Obj (if e.ev_dur >= 0 then ("depth", Json.Int e.ev_depth) :: tags else tags)
  in
  let ev_json e =
    let base =
      [
        ("name", Json.String (e.ev_subsys ^ "." ^ e.ev_op));
        ("cat", Json.String e.ev_subsys);
        ("pid", Json.Int 0);
        ("tid", Json.Int e.ev_node);
        ("ts", Json.Int e.ev_ts);
      ]
    in
    if e.ev_dur >= 0 then
      Json.Obj
        (base @ [ ("ph", Json.String "X"); ("dur", Json.Int e.ev_dur); ("args", args_json e) ])
    else
      Json.Obj
        (base @ [ ("ph", Json.String "i"); ("s", Json.String "t"); ("args", args_json e) ])
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ns");
      ( "otherData",
        Json.Obj
          [
            ("clockDomain", Json.String "simulated-cycles");
            ("droppedEvents", Json.Int (dropped t));
            ( "droppedBySubsystem",
              Json.Obj
                (List.map (fun (s, n) -> (s, Json.Int n)) (dropped_by_subsystem t)) );
          ] );
      ("traceEvents", Json.List (meta @ List.map ev_json (events t)));
    ]

let chrome_string t = Json.to_string (chrome_json t)

let event_json e =
  Json.Obj
    [
      ("ts", Json.Int e.ev_ts);
      ("dur", Json.Int e.ev_dur);
      ("node", Json.String (node_name e.ev_node));
      ("subsys", Json.String e.ev_subsys);
      ("op", Json.String e.ev_op);
      ("depth", Json.Int e.ev_depth);
      ("flow", Json.Int e.ev_flow);
      ("tags", tags_json e.ev_tags);
    ]

let jsonl_string t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_json e));
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let blocked_json t =
  Json.Obj
    (List.map
       (fun node ->
         let idx = Node_id.index node in
         ( Node_id.to_string node,
           Json.Obj
             (("total", Json.Int (node_blocked_cycles t node))
             :: List.filter_map
                  (fun (subsys, row) ->
                    if row.(idx) > 0 then Some (subsys, Json.Int row.(idx)) else None)
                  (blocked_rows t)) ))
       Node_id.all)

let attribution_json t =
  let rows =
    List.map
      (fun r ->
        Json.Obj
          [
            ("subsys", Json.String r.subsys);
            ("op", Json.String r.op);
            ("count", Json.Int r.count);
            ("total_cycles", Json.Int r.total_cycles);
            ("self_cycles", Json.Int r.self_cycles);
            ("max_cycles", Json.Int r.max_cycles);
            ("x86_cycles", Json.Int r.node_cycles.(0));
            ("arm_cycles", Json.Int r.node_cycles.(1));
          ])
      (attribution t)
  in
  Json.Obj
    [
      ("events_recorded", Json.Int (recorded t));
      ("events_dropped", Json.Int (dropped t));
      ( "dropped_by_subsystem",
        Json.Obj (List.map (fun (s, n) -> (s, Json.Int n)) (dropped_by_subsystem t)) );
      ( "node_span_cycles",
        Json.Obj
          (List.map
             (fun node -> (Node_id.to_string node, Json.Int (node_span_cycles t node)))
             Node_id.all) );
      ("blocked_on_remote", blocked_json t);
      ("attribution", Json.List rows);
    ]
