(** Per-node metric store: named counters and named observation series.

    The engine feeds message/byte counters automatically; protocol code can
    add its own counters (e.g. ["stable.writes"]) and observations (e.g.
    commit latencies) through its {!Engine.ctx}. *)

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit

val counter : t -> string -> int ref
(** The cell of counter [name], created at 0 if absent. A caller on a hot
    path resolves it once and bumps it directly; the cell stays the
    counter's for the life of [t]. *)

val get : t -> string -> int
(** 0 if the counter was never incremented. *)

val observe : t -> string -> float -> unit
(** Append a sample to a named series. *)

val series : t -> string -> float list
(** Samples in insertion order; [] if never observed. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val sum_matching : t -> prefix:string -> int
(** Sum of all counters whose name starts with [prefix]. *)

(** One-call export view for the metrics exporters: all counters plus a
    {!Cp_util.Stats.summary} of every observation series, both sorted by
    name. *)
type snapshot = {
  counters : (string * int) list;
  summaries : (string * Cp_util.Stats.summary) list;
}

val snapshot : t -> snapshot
