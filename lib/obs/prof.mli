(** Pipeline profiler: per-stage wall-time accounting for the runtime loop
    (decode → step → per-effect-class execution).

    Durations are charged to a pair of counters per stage,
    ["prof.<stage>.ns"] (summed nanoseconds) and ["prof.<stage>.n"]
    (samples) — O(1) memory per stage, rendered by {!Prom.render} like any
    other counter. The clock is injected: wall time in the UDP runtime,
    virtual time in the simulator (where per-stage durations are 0 by
    construction and profiles degenerate to deterministic call counts).

    {b Stage handles.} A stage is resolved once, when its owner is built,
    into a {!stage} handle. The handle binds its two counter cells on its
    first charge (so a counter still appears only once its stage has run)
    and from then on a charge is two clock reads and two integer adds: no
    closure, no string built, no table lookup. It allocates nothing beyond
    what the clock itself allocates. *)

type t

val create : clock:(unit -> float) -> counter:(string -> int ref) -> t
(** [counter name] must return the cell of counter [name], creating it at 0
    if absent (e.g. {!Cp_sim.Metrics.counter}); it is called twice per stage,
    on that stage's first charge. *)

val disabled : t
(** A no-op profiler: its handles ignore every charge and never read the
    clock. *)

type stage

val stage : t -> string -> stage
(** [stage t name] is the handle for stage [name]. Creating it touches no
    counter. *)

val start : t -> float
(** The clock reading to pass to {!charge}; [0.] when disabled. *)

val charge : stage -> since:float -> unit
(** [charge h ~since] charges the time elapsed since [since] (a {!start}
    reading) to [h] as one sample. *)

val record : stage -> ns:int -> unit
(** Charge an externally measured duration (e.g. a decode timed outside the
    node lock) to [h] as one sample. *)

val summarize : (string * int) list -> (string * int * int) list
(** Extract [(stage, samples, total_ns)] rows from a counter list, sorted
    by stage name. *)

val render : (string * int) list -> string
(** Human-readable per-stage lines (comment-prefixed, safe to append to a
    Prometheus exposition); [""] if the counters carry no profile. *)
