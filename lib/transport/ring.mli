(** In-process ring-buffer transport: same-machine endpoints wired by SPSC
    byte rings.

    A runtime that builds each endpoint's {!Cp_sim.Engine.ctx} directly, as
    the simulator and {!Cp_netio.Node} do, for fleet groups co-hosted in one
    process: each (src, dst) pair gets a {!Bytering} on demand, sends
    serialize {e zero-copy} into the ring ({!Cp_proto.Codec.encode_into}
    straight into the ring's backing bytes — no intermediate string, no
    syscall at all), and {!pump} drains every ring in deterministic order,
    decoding records in place and dispatching to the destination's
    handlers. Timers ride a {!Cp_fleet.Wheel} under the fabric's virtual
    clock, so a run is a pure function of the endpoints' inputs — the
    property the transport-conformance suite leans on.

    The fabric is single-threaded by design (one pumper); the rings
    themselves are SPSC-safe, so a future multi-domain pumper can split
    endpoints across domains without changing the wire. *)

type t
(** The fabric: links, clock, timer wheel, endpoints. *)

val create :
  ?ring_capacity:int -> ?seed:int -> ?storage:(int -> Cp_storage.Storage.t) -> unit -> t
(** [ring_capacity] (default 65536) sizes each link's byte ring; [seed]
    (default 1) roots every endpoint's RNG stream. [storage] supplies each
    endpoint's stable store at {!add_node} time, keyed by endpoint id
    (default: a fresh in-memory store per endpoint). *)

val add_node :
  t ->
  id:int ->
  build:(Cp_proto.Types.msg Cp_sim.Engine.ctx -> Cp_proto.Types.msg Cp_sim.Engine.handlers) ->
  unit
(** Register an endpoint: [build] receives the endpoint's capability
    record and returns its handlers — the same builder shape
    {!Cp_sim.Engine.add_node} and {!Cp_netio.Node.create} take, so the one
    replica/client builder runs on all three runtimes. If [build] raises,
    the endpoint is removed again (the id may be retried) and the exception
    propagates. Raises [Invalid_argument] for an id already registered. *)

val now : t -> float

val pump : t -> int
(** Drain every link once, in ascending (src, dst) order: decode and
    dispatch each pending record at the current virtual time. Returns the
    number of messages delivered (0 = quiescent). Handler sends during a
    pump land in the rings and are picked up by the next pass. *)

val run : ?until:float -> t -> unit
(** Advance the fabric: alternate {!pump} passes with firing due timers,
    moving the virtual clock from deadline to deadline, until both the
    rings and the wheel are quiescent (or the clock would pass [until],
    default 60 virtual seconds — a livelock guard). *)

val metrics : t -> int -> Cp_sim.Metrics.t

val trace : t -> int -> Cp_obs.Trace.t

val stable : t -> int -> Cp_storage.Storage.t
