module Node_id = Stramash_sim.Node_id
module Meter = Stramash_sim.Meter
module Rng = Stramash_sim.Rng
module Addr = Stramash_mem.Addr
module Env = Stramash_kernel.Env
module Kernel = Stramash_kernel.Kernel
module Msg_layer = Stramash_popcorn.Msg_layer
module Popcorn_os = Stramash_popcorn.Popcorn_os
module Stramash_os = Stramash_core.Stramash_os
module Ipi = Stramash_interconnect.Ipi
module Machine = Stramash_machine.Machine
module Os = Stramash_machine.Os

type op = Get | Set | Lpush | Rpush | Lpop | Rpop | Sadd | Mset

let all_ops = [ Get; Set; Lpush; Rpush; Lpop; Rpop; Sadd; Mset ]

let op_name = function
  | Get -> "get"
  | Set -> "set"
  | Lpush -> "lpush"
  | Rpush -> "rpush"
  | Lpop -> "lpop"
  | Rpop -> "rpop"
  | Sadd -> "sadd"
  | Mset -> "mset"

type result = { op : op; cycles_per_request : float }

type server = {
  env : Env.t;
  os : Os.t;
  server_node : Node_id.t;
  socket_buf : int; (* origin-kernel page: NIC landing buffer *)
  local_buf : int; (* server-local staging page *)
  dataset : int array; (* server-local value pages *)
  rng : Rng.t;
}

let parse_cycles = 400
let dataset_pages = 512 (* 2 MB of values on the server side *)

let make_server machine =
  (match Machine.os machine with
  | Os.Vanilla -> invalid_arg "Redis.run: Vanilla cannot host a migrated server"
  | Os.Popcorn _ | Os.Stramash _ -> ());
  let env = Machine.env machine in
  let origin = Node_id.X86 and server_node = Node_id.Arm in
  let socket_buf = Kernel.alloc_frame_exn (Env.kernel env origin) in
  let local_buf = Kernel.alloc_frame_exn (Env.kernel env server_node) in
  let dataset =
    Array.init dataset_pages (fun _ -> Kernel.alloc_frame_exn (Env.kernel env server_node))
  in
  { env; os = Machine.os machine; server_node; socket_buf; local_buf; dataset; rng = Rng.create ~seed:0x4ED15L }

let node_of t = t.server_node
let value_addr t = t.dataset.(Rng.int t.rng dataset_pages)

(* Move [bytes] of socket data to/from the migrated server. *)
let deliver_to_server t ~bytes =
  let origin = Node_id.X86 in
  (* NIC DMA into the origin's socket buffer (charged to the origin: its
     kernel runs the interrupt/softirq path). *)
  Env.charge_bytes_store t.env origin ~paddr:t.socket_buf ~len:bytes;
  match t.os with
  | Os.Popcorn p ->
      (* read(2) forwarded to the origin; payload crosses the msg layer *)
      Msg_layer.rpc (Popcorn_os.msg p) ~src:t.server_node ~label:"sock_read" ~req_bytes:64
        ~resp_bytes:bytes ~handler:(fun () ->
          Env.charge_bytes_load t.env origin ~paddr:t.socket_buf ~len:bytes);
      Env.charge_bytes_store t.env t.server_node ~paddr:t.local_buf ~len:bytes
  | Os.Stramash _ ->
      (* The origin kernel still runs the rx stack (softirq, skb work); the
         server then reads the buffer directly over coherent shared memory
         after an IPI. *)
      Env.charge_bytes_load t.env origin ~paddr:t.socket_buf ~len:(min bytes 256);
      Meter.add (Env.meter t.env t.server_node) Ipi.cross_isa_ipi_cycles;
      Env.charge_bytes_load t.env t.server_node ~paddr:t.socket_buf ~len:bytes
  | Os.Vanilla -> invalid_arg "Redis.run: Vanilla cannot host a migrated server"

let reply_from_server t ~bytes =
  let origin = Node_id.X86 in
  match t.os with
  | Os.Popcorn p ->
      Env.charge_bytes_load t.env t.server_node ~paddr:t.local_buf ~len:bytes;
      Msg_layer.rpc (Popcorn_os.msg p) ~src:t.server_node ~label:"sock_write" ~req_bytes:bytes
        ~resp_bytes:64 ~handler:(fun () ->
          Env.charge_bytes_store t.env origin ~paddr:t.socket_buf ~len:bytes)
  | Os.Stramash _ ->
      (* Write the tx buffer in place, IPI the origin, and wait for its tx
         path to pick the packet up before the next request is served. *)
      Env.charge_bytes_store t.env t.server_node ~paddr:t.socket_buf ~len:bytes;
      Meter.add (Env.meter t.env t.server_node) Ipi.cross_isa_ipi_cycles;
      let origin_meter = Env.meter t.env origin in
      let before = Meter.get origin_meter in
      Env.charge_bytes_load t.env origin ~paddr:t.socket_buf ~len:bytes;
      Meter.add (Env.meter t.env t.server_node) (Meter.get origin_meter - before)
  | Os.Vanilla -> assert false

(* The value phase defaults to the server's private dataset pages; a
   caller-supplied [?value] callback replaces it (the serve subsystem
   routes it at a process keyspace through the kernel fault path) while
   the parse and index-probe costs stay the server's own. The callback
   is invoked exactly once per [read_value]/[write_value] the default
   path would perform — ten times for [Mset], once otherwise. *)
(* Top-level rather than closures inside [process_op], so a request
   allocates nothing for them. *)
let access_value t value ~write ~payload =
  match value with
  | Some f -> f ~write
  | None ->
      let charge = if write then Env.charge_bytes_store else Env.charge_bytes_load in
      charge t.env t.server_node ~paddr:(value_addr t) ~len:payload

let probe_index t n =
  for _ = 1 to n do
    Env.charge_load t.env t.server_node ~paddr:(value_addr t)
  done

let process_op ?value t op ~payload =
  let node = t.server_node in
  Meter.add (Env.meter t.env node) parse_cycles;
  match op with
  | Get ->
      probe_index t 2;
      access_value t value ~write:false ~payload
  | Set ->
      probe_index t 2;
      access_value t value ~write:true ~payload
  | Lpush | Rpush ->
      probe_index t 1;
      access_value t value ~write:true ~payload;
      (* list node header + head/tail pointer update *)
      Env.charge_store t.env node ~paddr:(value_addr t);
      Env.charge_store t.env node ~paddr:(value_addr t)
  | Lpop | Rpop ->
      probe_index t 1;
      access_value t value ~write:false ~payload;
      Env.charge_store t.env node ~paddr:(value_addr t)
  | Sadd ->
      probe_index t 4;
      access_value t value ~write:true ~payload
  | Mset ->
      for _ = 1 to 10 do
        probe_index t 1;
        access_value t value ~write:true ~payload
      done

let reply_bytes op = match op with Get | Lpop | Rpop -> 1024 | Set | Lpush | Rpush | Sadd | Mset -> 64

let request_bytes op ~payload = match op with Get | Lpop | Rpop -> 128 | Mset -> 10 * payload | Set | Lpush | Rpush | Sadd -> payload

let serve_one ?value t op ~payload =
  if payload <= 0 then invalid_arg "Redis.serve_one: payload must be positive";
  deliver_to_server t ~bytes:(request_bytes op ~payload);
  process_op ?value t op ~payload;
  reply_from_server t ~bytes:(reply_bytes op)

let run ~os ?(requests = 10_000) ?(payload = 1024) () =
  if requests <= 0 then invalid_arg "Redis.run: requests must be positive";
  if payload <= 0 then invalid_arg "Redis.run: payload must be positive";
  let machine = Machine.create { Machine.default_config with os; hw_model = Stramash_mem.Layout.Shared } in
  let server = make_server machine in
  List.map
    (fun op ->
      let meter = Env.meter server.env server.server_node in
      let before = Meter.get meter in
      for _ = 1 to requests do
        serve_one server op ~payload
      done;
      let total = Meter.get meter - before in
      { op; cycles_per_request = float_of_int total /. float_of_int requests })
    all_ops
