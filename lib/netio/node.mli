(** Real-network runtime: run any node written against
    {!Cp_sim.Engine.ctx} — replicas, clients — over actual UDP sockets.

    The simulator's [ctx] is just a record of capabilities, so this module
    builds one per hosted group, backed by the operating system instead of
    the event queue: [send] serializes zero-copy into per-destination
    outbox buffers ({!Cp_transport.Outbox}) and the burst each handler
    invocation emits is flushed as one datagram per destination
    (single-frame flushes stay byte-identical to the unbatched format);
    [set_timer] goes through a timer thread, [now] is wall-clock time, and
    a receiver thread decodes datagrams and invokes the handlers. One mutex
    per node serializes handler execution, matching the simulator's
    run-to-completion semantics. Wire-path health is observable via the
    [wire_syscalls], [wire_bytes], [wire_copies], [send_retries], and
    [send_drops] counters.

    UDP gives exactly the failure model the protocol is built for: loss,
    duplication, reordering. Nodes address each other by node id through a
    [port_of] mapping (loopback by default). This runtime exists to show
    the protocol stack is not simulator-bound; the simulator remains the
    substrate for all measurements because it is deterministic. *)

type t

val create :
  ?host:string ->
  ?trace_capacity:int ->
  ?admin_port:int ->
  ?wheel_tick:float ->
  ?storage:(int -> Cp_storage.Storage.t) ->
  port_of:(int -> int) ->
  id_of_port:(int -> int) ->
  id:int ->
  seed:int ->
  build:(Cp_proto.Types.msg Cp_sim.Engine.ctx -> Cp_proto.Types.msg Cp_sim.Engine.handlers) ->
  unit ->
  t
(** Bind [host:port_of id] (default host 127.0.0.1) and start the receiver
    and timer threads. [id_of_port] inverts [port_of] so that the [src]
    passed to handlers is a node id (datagrams carry no explicit sender
    field). [build] receives the fabricated [ctx]; its stable storage comes
    from [storage gid] (default: a fresh in-memory store per group — pass a
    {!Cp_storage.Wal} factory for durable disks; {!shutdown} closes every
    store, and storage counters appear in {!metrics_text} and the admin
    [/metrics], namespaced [g<gid>_] for secondary groups), its RNG is
    seeded from [seed] and [id], its [emit] records into a bounded per-node
    trace ring of [trace_capacity] entries
    (default {!Cp_obs.Trace.default_capacity}).

    Timers of every hosted group share one {!Cp_fleet.Wheel} behind the
    timer thread — O(1) add/cancel regardless of group count — quantized
    to [wheel_tick] seconds (default 1e-3).

    Outgoing frames carry the node's ambient causal trace id as a traced
    suffix ({!Cp_proto.Codec.encode_traced}); incoming frames' ids are
    adopted before the handler runs, so chains propagate across machines
    exactly as in the simulator. [admin_port], when given, additionally
    binds a TCP listener on [host:admin_port] serving a minimal HTTP
    endpoint — see {!admin_response}.

    If [build] raises, both sockets, the stores it opened and the lock are
    released before the exception propagates, so the ports can be bound
    again. *)

val add_group : t -> gid:int -> build:(Cp_proto.Types.msg Cp_sim.Engine.ctx -> Cp_proto.Types.msg Cp_sim.Engine.handlers) -> unit
(** Host an additional replica group on this node's socket, timer wheel,
    and trace ring. The primary [build] of {!create} is group 0 and speaks
    the ungrouped (pre-fleet) frame format; groups added here must have
    [gid > 0] and exchange grouped frames ({!Cp_proto.Codec.encode_grouped})
    with the same [gid] on their peers. Each group gets its own RNG stream,
    store ([storage gid], see {!create}), and a namespaced trace-id origin
    ({!Cp_obs.Traceid.namespace}), so {!Cp_obs.Timeline} joins distinguish
    co-hosted groups. Datagrams for group ids never added are counted
    ([mux_unknown_group]) and dropped. *)

val run_for : t -> float -> unit
(** Block the calling thread for that many wall-clock seconds while the
    node keeps serving. *)

val shutdown : t -> unit
(** Stop threads and close the socket. Idempotent. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run [f] under the node's handler mutex — for inspecting protocol state
    owned by the node (e.g. a client handle) without racing its threads. *)

val metrics : t -> Cp_sim.Metrics.t
(** The node's metric store. The runtime feeds the same counters as the
    simulator's delivery path ([msgs_sent], [msgs_recv], [bytes_*],
    [sent.<kind>], [recv.<kind>]); protocol code adds its own through the
    ctx. Take {!with_lock} before reading while threads are live. *)

val counter : t -> string -> int
(** One counter's current value, taken under the node's lock: a {!metrics}
    counter or a hosted store's storage counter (see {!metrics_text}). *)

val trace : t -> Cp_obs.Trace.t
(** The node's bounded event-trace ring, fed by the ctx [emit] and by a
    [Msg_recv] record per delivered datagram. *)

val metrics_text : t -> string
(** Prometheus text-exposition snapshot of {!metrics}: every counter as a
    [counter] sample and every observation series as a summary with
    p50/p90/p99 quantiles, followed by the pipeline-profile comment block
    ({!Cp_obs.Prof.render}). Taken under the node's lock. *)

val admin_response : t -> string -> int * string * string
(** [(status, content_type, body)] for an admin request path — the pure
    half of the admin HTTP endpoint, exposed for tests:
    ["/healthz"] liveness, ["/metrics"] = {!metrics_text},
    ["/timeline"] the node's ring as Chrome trace-event JSON
    ({!Cp_obs.Timeline.to_chrome}); anything else is a 404. *)
