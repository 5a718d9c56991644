(** The evaluation suite.

    The DSN 2004 paper contains no measurements; every experiment here
    quantifies one of its {e analytical} claims against the classic
    Multi-Paxos baseline on the simulated network (see DESIGN.md §9 for the
    index). Each experiment returns the printable table plus
    claim-vs-measured {!Outcome.t} verdicts for EXPERIMENTS.md.

    [quick] shrinks sweeps and op counts (used by the test suite); the
    benchmark executable runs the full versions. *)

type exp = {
  eid : string;
  title : string;
  run : quick:bool -> Cp_util.Table.t * Outcome.t list;
}

val e1_message_cost : exp
(** Normal-case message cost per command; auxiliaries receive nothing. *)

val e2_work_per_class : exp
(** Per-machine-class work: applied commands and bytes moved. *)

val e3_failover : exp
(** Main-processor failure: service gap, auxiliary engagement window,
    reconfiguration latency, auxiliaries idle again afterwards. *)

val e4_fault_boundary : exp
(** Progress/stall at the tolerance boundary, with safety always intact. *)

val e5_aux_storage : exp
(** Auxiliary storage stays bounded; main storage is bounded by snapshots. *)

val e6_ablation : exp
(** Decompose the design: narrow phase 2, auxiliary widening, and
    reconfiguration each isolated. *)

val e7_latency : exp
(** Commit latency distribution, Cheap vs Classic. *)

val e8_throughput : exp
(** Saturation throughput vs number of closed-loop clients, under a
    per-node CPU budget (leader-bottleneck crossover). *)

val e9_availability : exp
(** Long-run availability under repeated failure/repair cycles, and the
    auxiliaries' duty cycle. *)

val e10_lease_reads : exp
(** Extension beyond the paper: leader read leases serving linearizable
    reads without consensus instances. *)

val e11_batching : exp
(** Extension beyond the paper: command batching multiplies saturation
    throughput under the per-node CPU budget. *)

val e12_cost : exp
(** The paper's economics: hardware cost vs (static, pessimistic)
    availability, analytic with a Monte-Carlo cross-check. *)

val e13_open_loop : exp
(** Open-loop Poisson load: the latency hockey stick past saturation,
    with Cheap saturating higher on identical hardware. *)

val all : exp list

val run_all : ?quick:bool -> unit -> Outcome.t list
(** Print every table to stdout and return the combined outcomes. *)
