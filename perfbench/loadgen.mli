(** Open-loop load generator: a seeded Poisson schedule of operations that
    are sent when due, whether or not earlier ones have been answered.

    The generator is independent of clock and transport. The caller feeds
    it the time ([now]) and a [send] function; the ring-failover workload
    drives it from the fabric's virtual clock, the UDP generator process
    from the wall clock and one socket. Each operation is timed from the
    moment it was due, so a stall also charges the operations queued
    behind it, and the generator reports how late it ran. *)

type op = {
  due : float;  (** when the operation is scheduled to be sent *)
  cmd : string;  (** the serialized application operation *)
  read : bool;  (** send as a read ([ClientRead]) rather than a write *)
  phase : int;  (** caller-defined tag (e.g. the offered-rate phase) *)
}

val poisson : Cp_util.Rng.t -> rate:float -> start:float -> stop:float -> float array
(** Arrival times of a Poisson process of [rate] per second over
    [\[start, stop)], ascending. Equal generator states give equal
    schedules. *)

type t

val create : mains:int array -> timeout:float -> op array -> t
(** [ops] must be sorted by [due]. Operation [i] gets sequence number
    [i + 1]. A resend waits [timeout], doubled per attempt up to 16 times
    [timeout]. *)

val step : t -> now:float -> send:(dst:int -> seq:int -> op -> unit) -> unit
(** Send every operation due by [now] (first sends go to the main the
    generator currently believes leads), and resend every outstanding
    operation whose retry deadline has passed, rotating to the next main. *)

val on_reply : t -> now:float -> seq:int -> result:string -> unit
(** Record the reply to [seq]. Replies to unknown or finished operations
    (duplicates) are ignored. *)

val on_redirect : t -> now:float -> hint:int -> send:(dst:int -> seq:int -> op -> unit) -> unit
(** A replica named [hint] as the leader: make it the target and resend
    at once every outstanding operation last sent elsewhere. An unknown
    hint is ignored. *)

val finished : t -> bool
(** Every operation was acknowledged. *)

(** {1 Results} *)

val completed_at : t -> int -> float option
(** Reply time of operation [i] (0-based), if acknowledged. *)

val first_sent_at : t -> int -> float option

val result : t -> int -> string option

val scheduled : t -> int

val acked : t -> int

val failed : t -> int
(** Operations not acknowledged yet: at the run deadline this is the
    failed count ([failed_ratio = failed / scheduled]). *)

val resends : t -> int
(** Timeout-driven resends. *)

val redirects : t -> int
(** Redirect-driven resends. *)

val lateness : t -> float array
(** For every operation sent, how long after its due time it was first
    sent. *)

val latencies : ?phase:int -> t -> float array
(** Due-to-reply latency of every acknowledged operation (of [phase], when
    given). *)
