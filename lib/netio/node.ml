module Engine = Cp_sim.Engine
module Metrics = Cp_sim.Metrics
module Types = Cp_proto.Types
module Codec = Cp_proto.Codec
module Wheel = Cp_fleet.Wheel
module Obs = Cp_obs
module Outbox = Cp_transport.Outbox

(* One hosted replica group. Group 0 is the node's primary (built by
   [create]; its frames stay in the ungrouped pre-fleet format, so a plain
   node and a fleet node interoperate); further groups are added with
   [add_group] and speak grouped frames. [g_tctx] is the group's minting
   origin for fresh causal chains — for group 0 it IS the node's ambient
   context, for others a namespaced one (see {!Cp_obs.Traceid.namespace}). *)
type group = {
  g_handlers : Types.msg Engine.handlers;
  g_tctx : Obs.Traceid.t;
}

type t = {
  id : int;
  seed : int;
  sock : Unix.file_descr;
  addr_of : int -> Unix.sockaddr;
  id_of_port : int -> int;
  lock : Mutex.t; (* serializes every handler, as the simulator does *)
  cond : Condition.t; (* wakes the timer thread when an earlier timer lands *)
  wheel : (int * string) Wheel.t; (* all groups' timers; payload (gid, tag) *)
  groups : (int, group) Hashtbl.t;
  mutable stopping : bool;
  mutable threads : Thread.t list;
  start : float;
  metrics : Metrics.t;
  decode : Obs.Prof.stage; (* the "decode" profiler stage; guarded by [lock] *)
  trace_ : Obs.Trace.t;
  tctx : Obs.Traceid.t; (* ambient causal trace id; guarded by [lock] *)
  scratch : Codec.scratch; (* guarded by [lock]; senders hold it already *)
  outbox : Outbox.t; (* guarded by [lock]; flush-coalescing send buffers *)
  admin_sock : Unix.file_descr option; (* TCP listener for /metrics etc. *)
  storage : int -> Cp_storage.Storage.t; (* per-group store factory, keyed by gid *)
  stores : (int, Cp_storage.Storage.t) Hashtbl.t; (* guarded by [lock] *)
}

let now t = Unix.gettimeofday () -. t.start

(* One datagram, one accounted syscall, explicit error handling. EINTR is
   retried immediately; EAGAIN/EWOULDBLOCK (a full socket buffer) yields and
   retries a bounded number of times before counting a drop — UDP loss the
   protocol already tolerates, but observable now instead of swallowed.
   Any other error (unreachable peer, scaled-down cluster) is a lost
   datagram, also counted. *)
let send_max_retries = 8

let sendto_retry ~sock ~metrics buf ~off ~len addr =
  let rec go attempts =
    Metrics.incr metrics "wire_syscalls";
    match Unix.sendto sock buf off len [] addr with
    | _ -> Metrics.incr metrics ~by:len "wire_bytes"
    | exception Unix.Unix_error (EINTR, _, _) ->
      if attempts < send_max_retries then go (attempts + 1)
      else Metrics.incr metrics "send_drops"
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Metrics.incr metrics "send_retries";
      if attempts < send_max_retries then begin
        Thread.yield ();
        go (attempts + 1)
      end
      else Metrics.incr metrics "send_drops"
    | exception Unix.Unix_error (_, _, _) -> Metrics.incr metrics "send_drops"
  in
  go 0

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () ->
      (* Anything [f] sent (client submissions, test drivers poking protocol
         state) leaves in one datagram per destination, before the lock is
         released. No-op when nothing pends. *)
      Outbox.flush t.outbox;
      Mutex.unlock t.lock)
    f

(* Record into the node's ring, stamped with the ambient trace id; count
   overwrites of unread records so ring loss is observable. Lock required
   (every caller — handlers, receive loop, timer loop — already holds it). *)
let emit_ev t ev =
  let tid = Obs.Traceid.current t.tctx in
  let dropped0 = Obs.Trace.dropped t.trace_ in
  Obs.Trace.emit ~tid t.trace_ ~at:(now t) ~node:t.id ev;
  if Obs.Trace.dropped t.trace_ > dropped0 then Metrics.incr t.metrics "ring_dropped"

(* Start a fresh causal chain minted from a group's origin and make it the
   node's ambient id (a no-op re-set for group 0, whose origin IS the
   ambient context). *)
let fresh_chain t g_tctx =
  let id = Obs.Traceid.mint g_tctx in
  Obs.Traceid.set t.tctx id;
  id

(* The zero-copy send path; caller holds the lock. Client submissions start
   a fresh causal chain; everything else carries the chain of the event
   being handled. The id rides the wire as a traced-frame suffix; non-zero
   groups additionally prefix their group id (see
   {!Cp_proto.Codec.encode_grouped}). The frame is serialized directly into
   the outbox's preallocated per-peer buffer — no intermediate string, no
   per-send copy, no syscall yet — and the burst one handler invocation
   emits leaves at the next flush as one datagram per destination. A frame
   too large for a whole datagram buffer (never in steady state) takes the
   old string path, and [wire_copies] counts it so the bench gate can pin
   the count at zero. *)
let send t ~gid ~g_tctx dst msg =
  let kind = Types.classify msg in
  let tid =
    match kind with
    | "client_req" | "client_read" -> fresh_chain t g_tctx
    | _ -> Obs.Traceid.current t.tctx
  in
  Metrics.incr t.metrics "msgs_sent";
  Metrics.incr t.metrics ("sent." ^ kind);
  match
    Outbox.append t.outbox ~dst ~encode:(fun buf ~pos ->
        if gid = 0 then Codec.encode_traced_into buf ~pos ~tid msg
        else Codec.encode_grouped_into buf ~pos ~gid ~tid msg)
  with
  | len ->
    Metrics.incr t.metrics ~by:len "bytes_sent";
    Metrics.incr t.metrics ~by:len "encoded_bytes"
  | exception Codec.Overflow ->
    Metrics.incr t.metrics "wire_copies";
    let payload =
      if gid = 0 then Codec.encode_traced_with t.scratch ~tid msg
      else Codec.encode_grouped_with t.scratch ~gid ~tid msg
    in
    let len = String.length payload in
    Metrics.incr t.metrics ~by:len "bytes_sent";
    Metrics.incr t.metrics ~by:len "encoded_bytes";
    sendto_retry ~sock:t.sock ~metrics:t.metrics (Bytes.of_string payload) ~off:0 ~len
      (t.addr_of dst)

(* Must be called with the lock held. All groups share the wheel: adding or
   cancelling a timer is O(1) however many groups the node hosts, and the
   timer thread sleeps toward one deadline — the wheel's next — instead of
   scanning a per-group structure. *)
let set_timer t ~gid ?(tag = "") delay =
  let wid = Wheel.add t.wheel ~at:(now t +. Float.max 0. delay) (gid, tag) in
  Condition.signal t.cond;
  wid

(* Must be called with the lock held. An exception escaping a protocol
   handler (or the port→id map) must not kill the dispatch thread — and in
   the timer loop it would also leave the node lock poisoned, deadlocking
   every other thread. Record it and carry on. *)
let guard t ~where f =
  try f ()
  with exn ->
    Metrics.incr t.metrics "handler_errors";
    emit_ev t
      (Obs.Event.Debug (Printf.sprintf "%s raised: %s" where (Printexc.to_string exn)))

let fire_timer t wid (gid, tag) =
  match Hashtbl.find_opt t.groups gid with
  | None -> () (* group removed: stale timer *)
  | Some g ->
    (* A timer step starts a fresh causal chain, as in the sim — minted
       from the owning group's origin. *)
    ignore (fresh_chain t g.g_tctx);
    guard t ~where:(Printf.sprintf "on_timer %S" tag) (fun () ->
        g.g_handlers.Engine.on_timer ~tid:wid ~tag);
    (* One timer step's burst leaves as one datagram per destination. *)
    Outbox.flush t.outbox

let timer_loop t =
  Mutex.lock t.lock;
  while not t.stopping do
    match Wheel.next_deadline t.wheel with
    | None -> Condition.wait t.cond t.lock
    | Some deadline ->
      let wait = deadline -. now t in
      if wait > 0. then begin
        (* Sleep in small slices so cancellation and shutdown stay timely;
           Condition has no timed wait in the stdlib. *)
        Mutex.unlock t.lock;
        Thread.delay (Float.min wait 2e-3);
        Mutex.lock t.lock
      end
      else Wheel.advance t.wheel ~now:(now t) ~fire:(fun wid p -> fire_timer t wid p)
  done;
  Mutex.unlock t.lock

(* Delivery of one decoded frame; caller holds the lock and flushes the
   outbox after the whole datagram. *)
let recv_dispatch t ~src ~decode_ns ~(f : Codec.framed) =
  match Hashtbl.find_opt t.groups f.Codec.f_gid with
  | None ->
    (* Misrouted or not-yet-added group: count and drop. *)
    Metrics.incr t.metrics "mux_unknown_group"
  | Some g ->
    let msg = f.Codec.f_msg in
    let len = f.Codec.f_bytes in
    let kind = Types.classify msg in
    if decode_ns > 0 then Obs.Prof.record t.decode ~ns:decode_ns;
    Metrics.incr t.metrics "msgs_recv";
    Metrics.incr t.metrics ~by:len "bytes_recv";
    Metrics.incr t.metrics ("recv." ^ kind);
    (* Everything the handler emits/sends continues the frame's causal
       chain. *)
    Obs.Traceid.adopt t.tctx f.Codec.f_tid;
    emit_ev t (Obs.Event.Msg_recv { src; kind; bytes = len });
    guard t ~where:("on_message " ^ kind) (fun () -> g.g_handlers.Engine.on_message ~src msg)

let recv_loop t =
  let buf = Bytes.create 65536 in
  let rec loop () =
    if not t.stopping then begin
      (* The socket has a receive timeout (set in [create]): closing a UDP
         socket does not wake a blocked recvfrom on Linux, so the loop must
         come up for air to observe [stopping]. *)
      match Unix.recvfrom t.sock buf 0 (Bytes.length buf) [] with
      | exception Unix.Unix_error ((EBADF | EINTR), _, _) -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> loop ()
      | exception Unix.Unix_error _ -> loop ()
      | len, peer ->
        (* Decode outside the lock (it touches no shared state); charge the
           duration to the "decode" profiler stage once per datagram. A
           packed datagram carries a whole send burst; bare grouped/traced/
           plain frames decode as a one-frame burst (see
           {!Cp_proto.Codec.decode_frames}). The sender is resolved once
           per datagram: every frame inside shares the source socket. *)
        let d0 = Unix.gettimeofday () in
        let decoded = Codec.decode_frames (Bytes.sub_string buf 0 len) in
        let decode_ns = int_of_float ((Unix.gettimeofday () -. d0) *. 1e9) in
        (match decoded with
        | Error _ -> () (* junk datagram: drop *)
        | Ok frames -> (
          let src =
            match peer with
            | Unix.ADDR_INET (_, port) -> (
              (* A user-supplied map: a datagram from an unmapped port
                 must be dropped, not kill the receive thread. *)
              try Some (t.id_of_port port)
              with exn ->
                let line =
                  Printf.sprintf "id_of_port %d raised: %s" port (Printexc.to_string exn)
                in
                with_lock t (fun () ->
                    Metrics.incr t.metrics "handler_errors";
                    emit_ev t (Obs.Event.Debug line));
                None)
            | Unix.ADDR_UNIX _ -> Some (-1)
          in
          match src with
          | None -> () (* unknown peer: drop *)
          | Some src ->
            (* The handlers' reply bursts leave as one datagram per
               destination when [with_lock] flushes. *)
            with_lock t (fun () ->
                List.iteri
                  (fun i f ->
                    recv_dispatch t ~src ~decode_ns:(if i = 0 then decode_ns else 0) ~f)
                  frames)));
        loop ()
    end
  in
  loop ()

(* Storage counters for one group's store, namespaced like the group's
   other series: bare names for the primary group, [g<gid>_] otherwise. *)
let storage_counters ~gid store =
  List.map
    (fun (n, v) -> ((if gid = 0 then n else Printf.sprintf "g%d_%s" gid n), v))
    (Cp_storage.Storage.counter_list store)

(* The node's metrics plus every group store's storage counters. *)
let merged_snapshot t =
  with_lock t (fun () ->
      let snap = Metrics.snapshot t.metrics in
      let storage = Hashtbl.fold (fun gid s acc -> storage_counters ~gid s @ acc) t.stores [] in
      { snap with Metrics.counters = List.sort compare (snap.Metrics.counters @ storage) })

let counter t name =
  let snap = merged_snapshot t in
  match List.assoc_opt name snap.Metrics.counters with Some v -> v | None -> 0

let metrics_text t =
  let snap = merged_snapshot t in
  Obs.Prom.render ~counters:snap.Metrics.counters
    ~summaries:snap.Metrics.summaries ()
  ^ Obs.Prof.render snap.Metrics.counters

(* --- admin endpoint ---------------------------------------------------- *)

let trace_records t = with_lock t (fun () -> Obs.Trace.records t.trace_)

let admin_response t path =
  match path with
  | "/healthz" -> (200, "text/plain", Printf.sprintf "ok node=%d uptime=%.3fs\n" t.id (now t))
  | "/metrics" -> (200, "text/plain", metrics_text t)
  | "/timeline" -> (200, "application/json", Obs.Timeline.to_chrome (trace_records t))
  | _ -> (404, "text/plain", "not found\n")

(* A single [write_substring] may stop short once the response outgrows the
   socket send buffer (a /timeline or /metrics body easily does): loop until
   every byte is out. EPIPE/ECONNRESET mean the scraper hung up — give up on
   this response, but don't let the exception escape to the accept loop. *)
let rec write_all fd s off len =
  if len > 0 then begin
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s off len
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ()
  end

(* Symmetrically, one [recv] may return before the request line is complete
   (or split across segments on a non-local connection): read until the
   first line terminator. Bounded, and cut short by the client socket's
   receive timeout, so a dribbling client cannot wedge the accept thread. *)
let read_request_line client =
  let buf = Bytes.create 2048 in
  let rec go acc =
    if String.contains acc '\n' || String.length acc > 8192 then acc
    else begin
      match Unix.recv client buf 0 (Bytes.length buf) [] with
      | 0 -> acc
      | n -> go (acc ^ Bytes.sub_string buf 0 n)
      | exception Unix.Unix_error _ -> acc
    end
  in
  go ""

(* Minimal HTTP/1.0 server for scrapes and debugging: one request per
   connection, GET only, served inline on the accept thread. The listener
   carries a receive timeout so accept wakes to observe [stopping]. *)
let admin_loop t sock =
  while not t.stopping do
    match Unix.accept sock with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | EBADF), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | client, _peer ->
      (try
         Unix.setsockopt_float client Unix.SO_RCVTIMEO 1.0;
         let req = read_request_line client in
         let path =
           match String.split_on_char ' ' req with _ :: p :: _ -> p | _ -> "/"
         in
         let code, ctype, body = admin_response t path in
         let status = if code = 200 then "200 OK" else "404 Not Found" in
         let resp =
           Printf.sprintf
             "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
             status ctype (String.length body) body
         in
         write_all client resp 0 (String.length resp)
       with _ -> ());
      (try Unix.close client with Unix.Unix_error _ -> ())
  done

(* The capability record for one hosted group: the node's clock, socket,
   wheel, metrics and trace ring, plus the group's own RNG stream, store and
   trace-id origin. Handlers run under the node lock, so every field may
   touch node state freely. The caller holds the lock. *)
let make_ctx t ~gid ~g_tctx =
  (* Reuse the group's store across re-derivation; a WAL handle in
     particular must be opened once. *)
  let stable =
    match Hashtbl.find_opt t.stores gid with
    | Some s -> s
    | None ->
      let s = t.storage gid in
      Hashtbl.replace t.stores gid s;
      s
  in
  {
    Engine.self = t.id;
    now = (fun () -> now t);
    send = (fun dst msg -> send t ~gid ~g_tctx dst msg);
    set_timer = (fun ?tag delay -> set_timer t ~gid ?tag delay);
    cancel_timer = (fun wid -> Wheel.cancel t.wheel wid);
    rng = Cp_util.Rng.create ((t.seed * 1009) + t.id + (gid * 7919));
    stable;
    metrics = t.metrics;
    emit = (fun ev -> emit_ev t ev);
    tctx = g_tctx;
  }

(* Run under [with_lock]. The ctx exists before the handlers, so handler
   effects during [build] (recovery sends, election timers) already work,
   and what build sent leaves when [with_lock] flushes. *)
let build_group t ~gid ~g_tctx ~build = { g_handlers = build (make_ctx t ~gid ~g_tctx); g_tctx }

let add_group t ~gid ~build =
  if gid <= 0 then invalid_arg "Node.add_group: gid must be positive (0 is the primary)";
  with_lock t (fun () ->
      if Hashtbl.mem t.groups gid then
        invalid_arg (Printf.sprintf "Node.add_group: duplicate gid %d" gid);
      let g_tctx =
        Obs.Traceid.create ~origin:(Obs.Traceid.namespace ~node:t.id ~group:gid)
      in
      Hashtbl.replace t.groups gid (build_group t ~gid ~g_tctx ~build))

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A socket bound to [addr] with a short receive timeout (so the loop
   serving it wakes to observe [stopping]), closed again if any step
   fails. *)
let bind_socket ?(listen = false) kind addr =
  let s = Unix.socket Unix.PF_INET kind 0 in
  try
    Unix.setsockopt s Unix.SO_REUSEADDR true;
    Unix.setsockopt_float s Unix.SO_RCVTIMEO 0.05;
    Unix.bind s addr;
    if listen then Unix.listen s 8;
    s
  with exn ->
    close_quietly s;
    raise exn

let close_stores t =
  (* Seal the stores (a WAL flushes and closes its segment fd). *)
  Hashtbl.iter (fun _ s -> try Cp_storage.Storage.close s with _ -> ()) t.stores

let create ?(host = "127.0.0.1") ?(trace_capacity = Obs.Trace.default_capacity)
    ?admin_port ?(wheel_tick = 1e-3) ?(storage = fun _ -> Cp_storage.Mem.store ()) ~port_of
    ~id_of_port ~id ~seed ~build () =
  let inet = Unix.inet_addr_of_string host in
  let sock = bind_socket Unix.SOCK_DGRAM (Unix.ADDR_INET (inet, port_of id)) in
  let admin_sock =
    match admin_port with
    | None -> None
    | Some port -> (
      (* A scraper that hangs up mid-response would otherwise SIGPIPE the
         whole process; with the signal ignored the write raises EPIPE,
         which [write_all] absorbs. *)
      if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      match bind_socket ~listen:true Unix.SOCK_STREAM (Unix.ADDR_INET (inet, port)) with
      | s -> Some s
      | exception exn ->
        close_quietly sock;
        raise exn)
  in
  let addr_of dst = Unix.ADDR_INET (inet, port_of dst) in
  let metrics = Metrics.create () in
  let t =
    {
      id;
      seed;
      sock;
      addr_of;
      id_of_port;
      lock = Mutex.create ();
      cond = Condition.create ();
      wheel = Wheel.create ~tick:wheel_tick ~now:0. ();
      groups = Hashtbl.create 4;
      stopping = false;
      threads = [];
      start = Unix.gettimeofday ();
      metrics;
      decode =
        Obs.Prof.stage
          (Obs.Prof.create ~clock:Unix.gettimeofday ~counter:(Metrics.counter metrics))
          "decode";
      trace_ = Obs.Trace.create ~capacity:trace_capacity ();
      tctx = Obs.Traceid.create ~origin:id;
      scratch = Codec.create_scratch ();
      outbox =
        Outbox.create
          ~send:(fun ~dst buf ~off ~len -> sendto_retry ~sock ~metrics buf ~off ~len (addr_of dst))
          ();
      admin_sock;
      storage;
      stores = Hashtbl.create 4;
    }
  in
  (* A raising [build] must not leak the sockets, the stores it opened or
     the lock: the caller may retry on the same ports. *)
  (match with_lock t (fun () -> build_group t ~gid:0 ~g_tctx:t.tctx ~build) with
  | g -> Hashtbl.replace t.groups 0 g
  | exception exn ->
    close_stores t;
    Option.iter close_quietly admin_sock;
    close_quietly sock;
    raise exn);
  t.threads <-
    [ Thread.create timer_loop t; Thread.create recv_loop t ]
    @ (match t.admin_sock with
      | Some s -> [ Thread.create (admin_loop t) s ]
      | None -> []);
  t

let run_for _t seconds = Thread.delay seconds

let metrics t = t.metrics

let trace t = t.trace_

let shutdown t =
  if not t.stopping then begin
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.signal t.cond;
    Mutex.unlock t.lock;
    (* Receiver notices [stopping] within its receive timeout; timer thread
       within its sleep slice; admin thread within its accept timeout.
       Close only after all have exited. *)
    List.iter (fun th -> try Thread.join th with _ -> ()) t.threads;
    Option.iter close_quietly t.admin_sock;
    close_stores t;
    close_quietly t.sock
  end
