(* Pipeline profiler: per-stage wall-time accounting for the runtime loop.

   Each stage is charged as a pair of counters — ["prof.<stage>.ns"]
   (summed nanoseconds) and ["prof.<stage>.n"] (samples) — so stage
   summaries ride the existing counter plumbing ({!Cp_sim.Metrics},
   {!Prom.render}) with O(1) memory, unlike observation series which retain
   every sample.

   Stages are handles resolved once by their owner. A handle fetches its
   two counter cells through the [counter] resolver on its first charge and
   keeps them, so the per-charge cost is two clock reads and two adds: the
   hot path (one charge per executed effect) builds and hashes no strings.

   The clock is injected: the UDP runtime passes wall time, the simulator
   passes virtual time (where handler durations are 0 by construction, so
   sim profiles degenerate to per-stage call counts — still useful, and
   deterministic). A disabled profiler costs one branch per call. *)

type t = {
  clock : unit -> float;
  counter : string -> int ref; (* counter cell by name, created at 0 *)
  enabled : bool;
}

let create ~clock ~counter = { clock; counter; enabled = true }

let disabled = { clock = (fun () -> 0.); counter = (fun _ -> ref 0); enabled = false }

(* [ns]/[n] are placeholders until [bound]: binding on first charge keeps
   an idle stage out of the counter table. *)
type stage = {
  prof : t;
  name : string;
  mutable bound : bool;
  mutable ns : int ref;
  mutable n : int ref;
}

let stage prof name = { prof; name; bound = false; ns = ref 0; n = ref 0 }

let bind h =
  h.ns <- h.prof.counter ("prof." ^ h.name ^ ".ns");
  h.n <- h.prof.counter ("prof." ^ h.name ^ ".n");
  h.bound <- true

let record h ~ns =
  if h.prof.enabled then begin
    if not h.bound then bind h;
    h.ns := !(h.ns) + ns;
    incr h.n
  end

let start t = if t.enabled then t.clock () else 0.

let charge h ~since =
  if h.prof.enabled then record h ~ns:(int_of_float ((h.prof.clock () -. since) *. 1e9))

(* "prof.step.ns"/"prof.step.n" -> (stage, n, ns) rows, stage-sorted. *)
let summarize counters =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      match String.split_on_char '.' name with
      | [ "prof"; stage; field ] ->
        let n, ns = try Hashtbl.find tbl stage with Not_found -> (0, 0) in
        (match field with
        | "n" -> Hashtbl.replace tbl stage (v, ns)
        | "ns" -> Hashtbl.replace tbl stage (n, v)
        | _ -> ())
      | _ -> ())
    counters;
  Hashtbl.fold (fun stage (n, ns) acc -> (stage, n, ns) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let render counters =
  let rows = summarize counters in
  if rows = [] then ""
  else begin
    let b = Buffer.create 256 in
    Buffer.add_string b "# pipeline profile (per stage)\n";
    List.iter
      (fun (stage, n, ns) ->
        let mean = if n = 0 then 0. else float_of_int ns /. float_of_int n in
        Buffer.add_string b
          (Printf.sprintf "# %-16s n=%-8d total=%.3fms mean=%.0fns\n" stage n
             (float_of_int ns /. 1e6) mean))
      rows;
    Buffer.contents b
  end
