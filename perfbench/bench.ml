(* Wall-clock end-to-end benchmark of the Cheap Paxos replica stack.

   perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Workloads: ring-write, ring-wal-write, udp-read-mostly, ring-failover
   (see README.md). The last line of standard output is one JSON object:
   with --trace 0 it carries the end-to-end metrics, with --trace 1 the
   per-layer metrics of a traced run. Any failed correctness check makes
   "correct" false and the exit code 1. *)

open Util

let e2e_metrics =
  [
    ("throughput_ops_s", "ops/s");
    ("latency_p50_ms", "ms");
    ("cpu_us_per_op", "us");
    ("peak_live_heap_mb", "MB");
    ("setup_s", "s");
  ]

(* Every traced run prints all of these; a metric the workload does not
   exercise reads 0. *)
let layer_metrics =
  [
    ("latency_p99_ms", "ms");
    ("latency.samples", "count");
    ("lo.latency_p50_ms", "ms");
    ("hi.latency_p50_ms", "ms");
    ("all.latency_p50_ms", "ms");
    ("unavailable_ms", "ms");
    ("failed_ratio", "ratio");
    ("engine.handler_self_us_per_op", "us");
    ("engine.handler_calls_per_op", "count");
    ("engine.msgs_per_op", "count");
    ("engine.instances_per_op", "count");
    ("engine.aux_msgs_per_kop", "count");
    ("engine.lease_read_ratio", "ratio");
    ("engine.elections", "count");
    ("engine.reconfig_ms", "ms");
    ("storage.puts_per_op", "count");
    ("storage.bytes_written_per_op", "B");
    ("storage.put_us_per_op", "us");
    ("storage.flushes_per_op", "count");
    ("storage.flush_us_per_op", "us");
    ("storage.flush_p99_us", "us");
    ("storage.fsyncs_per_op", "count");
    ("transport.send_us_per_op", "us");
    ("transport.pump_self_us_per_op", "us");
    ("transport.timers_self_us_per_op", "us");
    ("transport.drops", "count");
    ("netio.syscalls_per_op", "count");
    ("netio.decode_us_per_op", "us");
    ("netio.send_retries", "count");
    ("netio.send_drops", "count");
    ("proto.wire_bytes_per_op", "B");
    ("smr.apply_us_per_op", "us");
    ("smr.baseline_apply_us", "us");
    ("client.self_us_per_op", "us");
    ("client.retries_per_kop", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_words_per_op", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("loadgen.late_ms_p99", "ms");
    ("loadgen.lo.latency_p99_ms", "ms");
    ("loadgen.hi.latency_p99_ms", "ms");
    ("loadgen.samples", "count");
    ("unattributed_share", "ratio");
    ("trace.overhead_share", "ratio");
  ]

let workloads =
  [
    ("ring-write", fun ~seed ~seconds ~trace ->
        Ringwl.run ~kind:Ringwl.Write ~seed ~seconds ~trace ~workload:"ring-write");
    ("ring-wal-write", fun ~seed ~seconds ~trace ->
        Ringwl.run ~kind:Ringwl.Wal ~seed ~seconds ~trace ~workload:"ring-wal-write");
    ("ring-failover", fun ~seed ~seconds ~trace ->
        Ringwl.run ~kind:Ringwl.Failover ~seed ~seconds ~trace ~workload:"ring-failover");
    ("udp-read-mostly", Udpwl.run);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       workloads: ring-write ring-wal-write udp-read-mostly ring-failover";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "--loadgen" :: rest -> Udpwl.loadgen_main rest
  | "--echo" :: rest -> Udpwl.echo_main rest
  | _ ->
    let rec parse acc = function
      | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
    if seconds < 1 then usage ();
    let o = run ~seed ~seconds:(Float.of_int seconds) ~trace in
    List.iter print_endline o.notes;
    List.iter (fun e -> print_endline ("CHECK FAILED: " ^ e)) o.errors;
    let pick defs values =
      List.map
        (fun (name, unit_) -> m name unit_ (Option.value (List.assoc_opt name values) ~default:0.))
        defs
    in
    let metrics = if trace then pick layer_metrics o.layer else pick e2e_metrics o.e2e in
    List.iter
      (fun { name; value; unit_ } -> Printf.printf "  %-34s %14.4f %s\n" name value unit_)
      metrics;
    let correct = o.errors = [] in
    print_endline (result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics);
    exit (if correct then 0 else 1)
