module Engine = Cp_sim.Engine
module Types = Cp_proto.Types
module Codec = Cp_proto.Codec
module Wheel = Cp_fleet.Wheel
module Obs = Cp_obs
module Transport = Cp_transport.Transport
module Outbox = Cp_transport.Outbox

(* One hosted replica group. Group 0 is the node's primary (built by
   [create]; its frames stay in the ungrouped pre-fleet format, so a plain
   node and a fleet node interoperate); further groups are added with
   [add_group] and speak grouped frames. [g_tctx] is the group's minting
   origin for fresh causal chains — for group 0 it IS the node's ambient
   context, for others a namespaced one (see {!Cp_obs.Traceid.namespace}).

   In single-lock mode [g_lock] is unused and [g_metrics]/[g_scratch] alias
   the node's; in pool mode each group owns private ones so handlers on
   different worker domains never share mutable state. *)
type group = {
  g_handlers : Types.msg Engine.handlers;
  g_tctx : Obs.Traceid.t;
  g_lock : Mutex.t;
  g_metrics : Cp_sim.Metrics.t;
  g_scratch : Codec.scratch;
  g_outbox : Outbox.t;
}

(* Parallel-dispatch state ([create ~exec_domains] > 1). The pool is
   private to the node — never the process-shared applier pool — because a
   handler may itself fan a command window out to the shared pool and wait
   for it: if group dispatch queued on the same workers, a window sub-task
   could land behind the very handler that is waiting on it. *)
type exec_state = {
  pool : Cp_exec.Pool.t;
  workers : int; (* >= 1 even when the pool is sequential (size 0) *)
  trace_mu : Mutex.t; (* the trace ring, shared by all groups *)
  wheel_mu : Mutex.t; (* the timer wheel, shared by all groups *)
}

type t = {
  id : int;
  seed : int;
  sock : Unix.file_descr;
  addr_of : int -> Unix.sockaddr;
  id_of_port : int -> int;
  lock : Mutex.t;
  cond : Condition.t; (* wakes the timer thread when an earlier timer lands *)
  wheel : (int * string) Wheel.t; (* all groups' timers; payload (gid, tag) *)
  groups : (int, group) Hashtbl.t;
  mutable stopping : bool;
  mutable threads : Thread.t list;
  start : float;
  metrics : Cp_sim.Metrics.t;
  decode : Obs.Prof.stage; (* the "decode" profiler stage; guarded by [lock] *)
  trace_ : Obs.Trace.t;
  tctx : Obs.Traceid.t; (* ambient causal trace id; guarded by [lock] *)
  scratch : Codec.scratch; (* guarded by [lock]; senders hold it already *)
  outbox : Outbox.t; (* guarded by [lock]; flush-coalescing send buffers *)
  admin_sock : Unix.file_descr option; (* TCP listener for /metrics etc. *)
  exec : exec_state option; (* None = the original single-lock runtime *)
  storage : int -> Cp_sim.Stable.t; (* per-group store factory, keyed by gid *)
  stores : (int, Cp_sim.Stable.t) Hashtbl.t; (* guarded by [lock] *)
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
    Cp_sim.Metrics.incr metrics "wire_syscalls";
    match Unix.sendto sock buf off len [] addr with
    | _ -> Cp_sim.Metrics.incr metrics ~by:len "wire_bytes"
    | exception Unix.Unix_error (EINTR, _, _) ->
      if attempts < send_max_retries then go (attempts + 1)
      else Cp_sim.Metrics.incr metrics "send_drops"
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Cp_sim.Metrics.incr metrics "send_retries";
      if attempts < send_max_retries then begin
        Thread.yield ();
        go (attempts + 1)
      end
      else Cp_sim.Metrics.incr metrics "send_drops"
    | exception Unix.Unix_error (_, _, _) -> Cp_sim.Metrics.incr metrics "send_drops"
  in
  go 0

(* A flush-coalescing outbox whose flushes hit the wire through the retrying
   sender above; built per lock domain (the node in single-lock mode, each
   group in pool mode) so flushes touch only that domain's metrics. *)
let mk_outbox ~sock ~addr_of ~metrics =
  Outbox.create
    ~send:(fun ~dst buf ~off ~len -> sendto_retry ~sock ~metrics buf ~off ~len (addr_of dst))
    ()

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

let parallel_dispatch t = Option.is_some t.exec

(* Record into the node's ring, stamped with the ambient trace id; count
   overwrites of unread records so ring loss is observable. Lock required
   (every caller — handlers, receive loop, timer loop — already holds it). *)
let emit_ev t ev =
  let tid = Obs.Traceid.current t.tctx in
  let dropped0 = Obs.Trace.dropped t.trace_ in
  Obs.Trace.emit ~tid t.trace_ ~at:(now t) ~node:t.id ev;
  if Obs.Trace.dropped t.trace_ > dropped0 then
    Cp_sim.Metrics.incr t.metrics "ring_dropped"

(* Pool-mode emit: any domain may record, so the ring gets its own mutex;
   the drop counter lands in the caller's metrics (held by its lock). *)
let emit_pool t ex ~tid ~metrics ev =
  Mutex.lock ex.trace_mu;
  let dropped0 = Obs.Trace.dropped t.trace_ in
  Obs.Trace.emit ~tid t.trace_ ~at:(now t) ~node:t.id ev;
  let dropped = Obs.Trace.dropped t.trace_ > dropped0 in
  Mutex.unlock ex.trace_mu;
  if dropped then Cp_sim.Metrics.incr metrics "ring_dropped"

(* Start a fresh causal chain minted from a group's origin and make it the
   node's ambient id (a no-op re-set for group 0, whose origin IS the
   ambient context). *)
let fresh_chain t g_tctx =
  let id = Obs.Traceid.mint g_tctx in
  Obs.Traceid.set t.tctx id;
  id

(* The zero-copy send path, shared by both runtimes: serialize the traced
   (or grouped) frame directly into the outbox's preallocated per-peer
   buffer — no intermediate string, no per-send copy, no syscall yet. The
   burst one handler invocation emits leaves at the next flush as one
   datagram per destination. A frame too large for a whole datagram buffer
   (never in steady state) takes the old string path, and [wire_copies]
   counts it so the bench gate can pin the count at zero. *)
let append_frame ~outbox ~scratch ~sock ~addr_of ~metrics ~gid ~tid ~kind dst msg =
  Cp_sim.Metrics.incr metrics "msgs_sent";
  Cp_sim.Metrics.incr metrics ("sent." ^ kind);
  match
    Outbox.append outbox ~dst ~encode:(fun buf ~pos ->
        if gid = 0 then Codec.encode_traced_into buf ~pos ~tid msg
        else Codec.encode_grouped_into buf ~pos ~gid ~tid msg)
  with
  | len ->
    Cp_sim.Metrics.incr metrics ~by:len "bytes_sent";
    Cp_sim.Metrics.incr metrics ~by:len "encoded_bytes"
  | exception Codec.Overflow ->
    Cp_sim.Metrics.incr metrics "wire_copies";
    let payload =
      if gid = 0 then Codec.encode_traced_with scratch ~tid msg
      else Codec.encode_grouped_with scratch ~gid ~tid msg
    in
    let len = String.length payload in
    Cp_sim.Metrics.incr metrics ~by:len "bytes_sent";
    Cp_sim.Metrics.incr metrics ~by:len "encoded_bytes";
    sendto_retry ~sock ~metrics (Bytes.of_string payload) ~off:0 ~len (addr_of dst)

let send t ~gid ~g_tctx dst msg =
  (* Client submissions start a fresh causal chain; everything else carries
     the chain of the event being handled. The id rides the wire as a
     traced-frame suffix; non-zero groups additionally prefix their group
     id (see {!Cp_proto.Codec.encode_grouped}). *)
  let tid =
    match Types.classify msg with
    | "client_req" | "client_read" -> fresh_chain t g_tctx
    | _ -> Obs.Traceid.current t.tctx
  in
  append_frame ~outbox:t.outbox ~scratch:t.scratch ~sock:t.sock ~addr_of:t.addr_of
    ~metrics:t.metrics ~gid ~tid ~kind:(Types.classify msg) dst msg

(* Pool-mode send: caller holds the group's lock, so the group's own
   outbox, scratch, ambient context, and metrics are safe; concurrent
   sendto on one UDP socket is kernel-atomic per datagram. *)
let send_pool t ~gid ~(g : group) dst msg =
  let tid =
    match Types.classify msg with
    | "client_req" | "client_read" -> Obs.Traceid.mint g.g_tctx
    | _ -> Obs.Traceid.current g.g_tctx
  in
  append_frame ~outbox:g.g_outbox ~scratch:g.g_scratch ~sock:t.sock ~addr_of:t.addr_of
    ~metrics:g.g_metrics ~gid ~tid ~kind:(Types.classify msg) dst msg

(* Must be called with the lock held. All groups share the wheel: adding or
   cancelling a timer is O(1) however many groups the node hosts, and the
   timer thread sleeps toward one deadline — the wheel's next — instead of
   scanning a per-group structure. *)
let set_timer t ~gid ?(tag = "") delay =
  let wid = Wheel.add t.wheel ~at:(now t +. Float.max 0. delay) (gid, tag) in
  Condition.signal t.cond;
  wid

let cancel_timer t wid = Wheel.cancel t.wheel wid

(* Pool-mode timers: the wheel gets its own mutex so a handler setting a
   timer never touches the node lock (a worker blocked on [lock] while the
   timer thread submits into that worker's full queue would wedge both).
   The pool timer thread polls; no condition variable needed. *)
let set_timer_pool t ex ~gid ?(tag = "") delay =
  Mutex.lock ex.wheel_mu;
  let wid = Wheel.add t.wheel ~at:(now t +. Float.max 0. delay) (gid, tag) in
  Mutex.unlock ex.wheel_mu;
  wid

let cancel_timer_pool t ex wid =
  Mutex.lock ex.wheel_mu;
  Wheel.cancel t.wheel wid;
  Mutex.unlock ex.wheel_mu

(* Must be called with the lock held. An exception escaping a protocol
   handler (or the port→id map) must not kill the dispatch thread — and in
   the timer loop it would also leave the node lock poisoned, deadlocking
   every other thread. Record it and carry on. *)
let guard t ~where f =
  try f ()
  with exn ->
    Cp_sim.Metrics.incr t.metrics "handler_errors";
    emit_ev t
      (Obs.Event.Debug (Printf.sprintf "%s raised: %s" where (Printexc.to_string exn)))

(* Pool-mode guard: caller holds [g.g_lock]. *)
let guard_pool t ex ~(g : group) ~where f =
  try f ()
  with exn ->
    Cp_sim.Metrics.incr g.g_metrics "handler_errors";
    emit_pool t ex ~tid:(Obs.Traceid.current g.g_tctx) ~metrics:g.g_metrics
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

(* Pool mode routes every handler invocation for group [gid] to worker
   [gid mod workers]: per-worker queues are FIFO, so one group's handlers
   stay strictly serialized (and in arrival order) without any group ever
   waiting on another's — the run-to-completion semantics the engine
   promises, per group instead of per node. *)
let dispatch_timer t ex wid (gid, tag) =
  match with_lock t (fun () -> Hashtbl.find_opt t.groups gid) with
  | None -> () (* group removed: stale timer *)
  | Some g ->
    Cp_exec.Pool.submit ex.pool ~worker:(gid mod ex.workers) (fun () ->
        Mutex.lock g.g_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock g.g_lock)
          (fun () ->
            ignore (Obs.Traceid.mint g.g_tctx);
            guard_pool t ex ~g ~where:(Printf.sprintf "on_timer %S" tag) (fun () ->
                g.g_handlers.Engine.on_timer ~tid:wid ~tag);
            Outbox.flush g.g_outbox))

let timer_loop_pool t ex =
  while not t.stopping do
    let fired = ref [] in
    Mutex.lock ex.wheel_mu;
    (match Wheel.next_deadline t.wheel with
    | Some deadline when deadline <= now t ->
      Wheel.advance t.wheel ~now:(now t) ~fire:(fun wid p -> fired := (wid, p) :: !fired)
    | _ -> ());
    Mutex.unlock ex.wheel_mu;
    (* Submit only after releasing the wheel mutex: a fire task may itself
       set timers from its worker. *)
    List.iter (fun (wid, p) -> dispatch_timer t ex wid p) (List.rev !fired);
    if !fired = [] then Thread.delay 1e-3
  done

(* Pool-mode delivery of one decoded frame. Node-level counters stay on
   the node's metrics under the node lock (brief, never held across a
   submit); everything group-level runs on the group's worker. *)
let recv_dispatch_pool t ex ~src ~decode_ns ~(f : Codec.framed) =
  let gid = f.Codec.f_gid and msg = f.Codec.f_msg in
  let len = f.Codec.f_bytes in
  let kind = Types.classify msg in
  let g =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.groups gid with
        | None ->
          Cp_sim.Metrics.incr t.metrics "mux_unknown_group";
          None
        | Some g ->
          if decode_ns > 0 then Obs.Prof.record t.decode ~ns:decode_ns;
          Cp_sim.Metrics.incr t.metrics "msgs_recv";
          Cp_sim.Metrics.incr t.metrics ~by:len "bytes_recv";
          Cp_sim.Metrics.incr t.metrics ("recv." ^ kind);
          Some g)
  in
  match g with
  | None -> ()
  | Some g ->
    Cp_exec.Pool.submit ex.pool ~worker:(gid mod ex.workers) (fun () ->
        Mutex.lock g.g_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock g.g_lock)
          (fun () ->
            (* Everything the handler emits/sends continues the
               frame's causal chain. *)
            Obs.Traceid.adopt g.g_tctx f.Codec.f_tid;
            emit_pool t ex ~tid:(Obs.Traceid.current g.g_tctx) ~metrics:g.g_metrics
              (Obs.Event.Msg_recv { src; kind; bytes = len });
            guard_pool t ex ~g ~where:("on_message " ^ kind) (fun () ->
                g.g_handlers.Engine.on_message ~src msg);
            Outbox.flush g.g_outbox))

(* Single-lock delivery of one decoded frame; caller holds the node lock
   and flushes the outbox after the whole datagram. *)
let recv_dispatch_locked t ~src ~decode_ns ~(f : Codec.framed) =
  match Hashtbl.find_opt t.groups f.Codec.f_gid with
  | None ->
    (* Misrouted or not-yet-added group: count and drop. *)
    Cp_sim.Metrics.incr t.metrics "mux_unknown_group"
  | Some g ->
    let msg = f.Codec.f_msg in
    let len = f.Codec.f_bytes in
    let kind = Types.classify msg in
    if decode_ns > 0 then Obs.Prof.record t.decode ~ns:decode_ns;
    Cp_sim.Metrics.incr t.metrics "msgs_recv";
    Cp_sim.Metrics.incr t.metrics ~by:len "bytes_recv";
    Cp_sim.Metrics.incr t.metrics ("recv." ^ kind);
    (* Everything the handler emits/sends continues the frame's causal
       chain. *)
    Obs.Traceid.adopt t.tctx f.Codec.f_tid;
    emit_ev t (Obs.Event.Msg_recv { src; kind; bytes = len });
    guard t ~where:("on_message " ^ kind) (fun () ->
        g.g_handlers.Engine.on_message ~src msg)

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
                (match t.exec with
                | Some ex ->
                  with_lock t (fun () -> Cp_sim.Metrics.incr t.metrics "handler_errors");
                  emit_pool t ex ~tid:Obs.Traceid.none ~metrics:t.metrics
                    (Obs.Event.Debug line)
                | None ->
                  with_lock t (fun () ->
                      Cp_sim.Metrics.incr t.metrics "handler_errors";
                      emit_ev t (Obs.Event.Debug line)));
                None)
            | Unix.ADDR_UNIX _ -> Some (-1)
          in
          match src with
          | None -> () (* unknown peer: drop *)
          | Some src -> (
            match t.exec with
            | Some ex ->
              List.iteri
                (fun i f ->
                  recv_dispatch_pool t ex ~src ~decode_ns:(if i = 0 then decode_ns else 0) ~f)
                frames
            | None ->
              Mutex.lock t.lock;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock t.lock)
                (fun () ->
                  List.iteri
                    (fun i f ->
                      recv_dispatch_locked t ~src
                        ~decode_ns:(if i = 0 then decode_ns else 0)
                        ~f)
                    frames;
                  (* The handlers' reply bursts leave as one datagram per
                     destination. *)
                  Outbox.flush t.outbox))));
        loop ()
    end
  in
  loop ()

(* Snapshot with pool-mode merging: counters are summed across the node
   store and every group store (so dashboard names like [msgs_sent] keep
   meaning the node total); per-group observation series are prefixed
   [g<gid>_]; the pool contributes per-domain utilization counters. *)
(* Storage counters for one group's store, namespaced like the group's
   other series: bare names for the primary group, [g<gid>_] otherwise. *)
let storage_counters ~gid store =
  List.map
    (fun (n, v) -> ((if gid = 0 then n else Printf.sprintf "g%d_%s" gid n), v))
    (Cp_sim.Stable.counter_list store)

let merged_snapshot t =
  match t.exec with
  | None ->
    with_lock t (fun () ->
        let snap = Cp_sim.Metrics.snapshot t.metrics in
        let storage =
          Hashtbl.fold (fun gid s acc -> storage_counters ~gid s @ acc) t.stores []
        in
        {
          snap with
          Cp_sim.Metrics.counters =
            List.sort compare (snap.Cp_sim.Metrics.counters @ storage);
        })
  | Some ex ->
    let node_snap = with_lock t (fun () -> Cp_sim.Metrics.snapshot t.metrics) in
    let gs =
      with_lock t (fun () ->
          Hashtbl.fold
            (fun gid g acc -> (gid, g, Hashtbl.find_opt t.stores gid) :: acc)
            t.groups [])
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    in
    let gsnaps =
      List.map
        (fun (gid, g, store) ->
          Mutex.lock g.g_lock;
          let s = Cp_sim.Metrics.snapshot g.g_metrics in
          (* Stats under the group lock: handlers mutate the store only
             while holding it. *)
          let st = Option.map (storage_counters ~gid) store in
          Mutex.unlock g.g_lock;
          (gid, s, Option.value st ~default:[]))
        gs
    in
    let tbl = Hashtbl.create 64 in
    let add (name, v) =
      Hashtbl.replace tbl name
        (v + Option.value (Hashtbl.find_opt tbl name) ~default:0)
    in
    List.iter add node_snap.Cp_sim.Metrics.counters;
    List.iter
      (fun (_, s, st) ->
        List.iter add s.Cp_sim.Metrics.counters;
        List.iter add st)
      gsnaps;
    let st = Cp_exec.Pool.stats ex.pool in
    add ("exec.domains", ex.workers);
    for i = 0 to min ex.workers (Array.length st.Cp_exec.Pool.busy_ns) - 1 do
      add (Printf.sprintf "exec.domain%d.busy_ns" i, st.Cp_exec.Pool.busy_ns.(i));
      add (Printf.sprintf "exec.domain%d.tasks" i, st.Cp_exec.Pool.tasks.(i));
      if st.Cp_exec.Pool.errors.(i) > 0 then
        add (Printf.sprintf "exec.domain%d.errors" i, st.Cp_exec.Pool.errors.(i))
    done;
    let counters =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    let summaries =
      node_snap.Cp_sim.Metrics.summaries
      @ List.concat_map
          (fun (gid, s, _) ->
            List.map
              (fun (n, sum) -> (Printf.sprintf "g%d_%s" gid n, sum))
              s.Cp_sim.Metrics.summaries)
          gsnaps
    in
    { Cp_sim.Metrics.counters; summaries }

let counter t name =
  let snap = merged_snapshot t in
  match List.assoc_opt name snap.Cp_sim.Metrics.counters with Some v -> v | None -> 0

let metrics_text t =
  let snap = merged_snapshot t in
  Obs.Prom.render ~counters:snap.Cp_sim.Metrics.counters
    ~summaries:snap.Cp_sim.Metrics.summaries ()
  ^ Obs.Prof.render snap.Cp_sim.Metrics.counters

(* --- admin endpoint ---------------------------------------------------- *)

let trace_records t =
  match t.exec with
  | None -> with_lock t (fun () -> Obs.Trace.records t.trace_)
  | Some ex ->
    Mutex.lock ex.trace_mu;
    let r = Obs.Trace.records t.trace_ in
    Mutex.unlock ex.trace_mu;
    r

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

(* The UDP runtime as a {!Cp_transport.Transport.S} instance: a handle is
   one hosted group on one node, and each capability dispatches on the
   node's runtime mode. Each group gets its own RNG stream and in-memory
   stable store; [now], the trace ring, and the socket are the node's. In
   pool mode metrics/emit/send go through the group's own stores
   (serialized by its lock); in single-lock mode they are the node's,
   exactly as before. *)
type handle = {
  h_node : t;
  h_gid : int;
  h_group : group;
  h_rng : Cp_util.Rng.t;
  h_stable : Cp_sim.Stable.t;
}

module Udp_transport = struct
  type nonrec t = handle

  let self h = h.h_node.id

  let now h = now h.h_node

  let send h ~dst msg =
    match h.h_node.exec with
    | None -> send h.h_node ~gid:h.h_gid ~g_tctx:h.h_group.g_tctx dst msg
    | Some _ -> send_pool h.h_node ~gid:h.h_gid ~g:h.h_group dst msg

  let set_timer h ?tag delay =
    match h.h_node.exec with
    | None -> set_timer h.h_node ~gid:h.h_gid ?tag delay
    | Some ex -> set_timer_pool h.h_node ex ~gid:h.h_gid ?tag delay

  let cancel_timer h wid =
    match h.h_node.exec with
    | None -> cancel_timer h.h_node wid
    | Some ex -> cancel_timer_pool h.h_node ex wid

  let rng h = h.h_rng

  let stable h = h.h_stable

  let metrics h =
    match h.h_node.exec with None -> h.h_node.metrics | Some _ -> h.h_group.g_metrics

  let emit h ev =
    match h.h_node.exec with
    | None -> emit_ev h.h_node ev
    | Some ex ->
      emit_pool h.h_node ex
        ~tid:(Obs.Traceid.current h.h_group.g_tctx)
        ~metrics:h.h_group.g_metrics ev

  let tctx h = h.h_group.g_tctx
end

(* The capability record for one hosted group, closed over the transport
   instance above — the engine layer never sees the difference between the
   simulator's record and this one. *)
let make_ctx t ~gid ~(g : group) =
  (* Reuse the group's store across re-derivation (callers of make_ctx hold
     the node lock); a WAL handle in particular must be opened once. *)
  let h_stable =
    match Hashtbl.find_opt t.stores gid with
    | Some s -> s
    | None ->
      let s = t.storage gid in
      Hashtbl.replace t.stores gid s;
      s
  in
  let h =
    {
      h_node = t;
      h_gid = gid;
      h_group = g;
      h_rng = Cp_util.Rng.create ((t.seed * 1009) + t.id + (gid * 7919));
      h_stable;
    }
  in
  Transport.ctx (Transport.Packed ((module Udp_transport), h))

(* Build a group's shared-state slots. The handlers cell is filled right
   after [build] returns; the ctx closes over the record, so handler
   effects during build (recovery sends, election timers) already work. *)
let alloc_group t ~g_tctx =
  let shared = Option.is_none t.exec in
  let g_metrics = if shared then t.metrics else Cp_sim.Metrics.create () in
  {
    g_handlers =
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) };
    g_tctx;
    g_lock = Mutex.create ();
    g_metrics;
    g_scratch = (if shared then t.scratch else Codec.create_scratch ());
    g_outbox =
      (if shared then t.outbox
       else mk_outbox ~sock:t.sock ~addr_of:t.addr_of ~metrics:g_metrics);
  }

let build_group t ~gid ~g_tctx ~build =
  let g0 = alloc_group t ~g_tctx in
  let ctx = make_ctx t ~gid ~g:g0 in
  let handlers = build ctx in
  (* Sends during build (recovery, election timers) leave immediately. *)
  Outbox.flush g0.g_outbox;
  { g0 with g_handlers = handlers }

let add_group t ~gid ~build =
  if gid <= 0 then invalid_arg "Node.add_group: gid must be positive (0 is the primary)";
  with_lock t (fun () ->
      if Hashtbl.mem t.groups gid then
        invalid_arg (Printf.sprintf "Node.add_group: duplicate gid %d" gid);
      let g_tctx =
        Obs.Traceid.create ~origin:(Obs.Traceid.namespace ~node:t.id ~group:gid)
      in
      Hashtbl.replace t.groups gid (build_group t ~gid ~g_tctx ~build))

let group_metrics t gid =
  match with_lock t (fun () -> Hashtbl.find_opt t.groups gid) with
  | None -> invalid_arg (Printf.sprintf "Node.group_metrics: unknown gid %d" gid)
  | Some g -> g.g_metrics

let with_group t ~gid f =
  match with_lock t (fun () -> Hashtbl.find_opt t.groups gid) with
  | None -> invalid_arg (Printf.sprintf "Node.with_group: unknown gid %d" gid)
  | Some g -> (
    match t.exec with
    | None -> with_lock t f
    | Some _ ->
      Mutex.lock g.g_lock;
      Fun.protect
        ~finally:(fun () ->
          Outbox.flush g.g_outbox;
          Mutex.unlock g.g_lock)
        f)

let create ?(host = "127.0.0.1") ?(trace_capacity = Obs.Trace.default_capacity)
    ?admin_port ?(wheel_tick = 1e-3) ?(exec_domains = 0)
    ?(storage = fun _ -> Cp_sim.Stable.create ()) ~port_of ~id_of_port ~id ~seed
    ~build () =
  let inet = Unix.inet_addr_of_string host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 0.05;
  Unix.bind sock (Unix.ADDR_INET (inet, port_of id));
  let admin_sock =
    match admin_port with
    | None -> None
    | Some port ->
      (* A scraper that hangs up mid-response would otherwise SIGPIPE the
         whole process; with the signal ignored the write raises EPIPE,
         which [write_all] absorbs. *)
      if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.setsockopt_float s Unix.SO_RCVTIMEO 0.05;
      Unix.bind s (Unix.ADDR_INET (inet, port));
      Unix.listen s 8;
      Some s
  in
  let exec =
    if exec_domains > 1 then
      (* A node-private pool (see [exec_state]); on the sequential backend
         Pool.create yields size 0 and submits run inline on the caller —
         same behaviour, one thread. *)
      Some
        {
          pool =
            Cp_exec.Pool.create ~clock:Unix.gettimeofday
              ~domains:(min exec_domains 16) ();
          workers = max 1 (min exec_domains 16);
          trace_mu = Mutex.create ();
          wheel_mu = Mutex.create ();
        }
    else None
  in
  let addr_of dst = Unix.ADDR_INET (inet, port_of dst) in
  let metrics = Cp_sim.Metrics.create () in
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
          (Obs.Prof.create ~clock:Unix.gettimeofday ~counter:(Cp_sim.Metrics.counter metrics))
          "decode";
      trace_ = Obs.Trace.create ~capacity:trace_capacity ();
      tctx = Obs.Traceid.create ~origin:id;
      scratch = Codec.create_scratch ();
      outbox = mk_outbox ~sock ~addr_of ~metrics;
      admin_sock;
      exec;
      storage;
      stores = Hashtbl.create 4;
    }
  in
  Mutex.lock t.lock;
  Hashtbl.replace t.groups 0 (build_group t ~gid:0 ~g_tctx:t.tctx ~build);
  Mutex.unlock t.lock;
  let timer_thread =
    match t.exec with
    | Some ex -> Thread.create (fun () -> timer_loop_pool t ex) ()
    | None -> Thread.create timer_loop t
  in
  t.threads <-
    [ timer_thread; Thread.create recv_loop t ]
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
    (* With the dispatch threads gone nothing submits anymore; stop the
       node's private pool (the shared applier pool is never ours to stop). *)
    (match t.exec with Some ex -> Cp_exec.Pool.shutdown ex.pool | None -> ());
    (match t.admin_sock with
    | Some s -> ( try Unix.close s with Unix.Unix_error _ -> ())
    | None -> ());
    (* Seal the stores (a WAL flushes and closes its segment fd). *)
    Hashtbl.iter (fun _ s -> try Cp_sim.Stable.close s with _ -> ()) t.stores;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
