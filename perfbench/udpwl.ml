(* [udp-read-mostly]: three Cp_netio nodes (mains 0 and 1, auxiliary 2) on
   loopback UDP in this process, leader leases on, Mem storage. The load
   comes from a separate single-threaded generator process with one
   socket ([loadgen_main], the same executable run with --loadgen): an
   open-loop Poisson schedule of 90% GET (sent as ClientRead) and 10% PUT
   over 1,000 keys, first at [lo_rate] and then at [hi_rate] ops/s. Both
   rates stay below the write rate at which false suspicion starts to
   engage the auxiliary on this path. *)

module Node = Cp_netio.Node
module Replica = Cp_engine.Replica
module Params = Cp_engine.Params
module Storage = Cp_storage.Storage
module Engine = Cp_sim.Engine
module Types = Cp_proto.Types
module Codec = Cp_proto.Codec
module Kv = Cp_smr.Kv
module Rng = Cp_util.Rng
open Util

let lo_rate = 250.

let hi_rate = 1000.

let read_ratio = 0.9

let nkeys = 1000

(* The generator spreads operations over [nclients] client ids (all on its
   one socket): operation [i] of segment [s] is client
   [gen_id + s * nclients + i mod nclients], sequence number
   [i / nclients + 1]. One session per id keeps each session's program-order
   fence as shallow as it is for independent users. *)
let gen_id = 1000

let nclients = 64

let params = { Params.default with Params.enable_leases = true }

let port_of base id = if id >= gen_id then base + 3 else base + id

(* A bare UDP echo process listens on this port; see [echo_rtt] and
   [probe_wake]. *)
let echo_port base = base + 4

let id_of_port base port = if port = base + 3 then gen_id else port - base

let phases ~seconds =
  let lo = 0.4 *. seconds in
  [ (0, lo_rate, 0., lo); (1, hi_rate, lo, seconds) ]

(* ------------------------------------------------------------------ *)
(* Generator process                                                   *)
(* ------------------------------------------------------------------ *)

let schedule ~seed ~seconds ~segment =
  let rng = Rng.create ((seed * 15485863) + (segment * 101) + 5) in
  let ops =
    List.concat_map
      (fun (phase, rate, start, stop) ->
        Loadgen.poisson rng ~rate ~start ~stop
        |> Array.to_list
        |> List.map (fun due -> (due, phase)))
      (phases ~seconds)
  in
  List.mapi
    (fun i (due, phase) ->
      let key = Printf.sprintf "s%dk%d" segment (Rng.int rng nkeys) in
      let read = Rng.float rng 1. < read_ratio in
      let cmd = if read then Kv.get key else Kv.put key (value_of i) in
      { Loadgen.due; cmd; read; phase })
    ops
  |> Array.of_list

(* Median round trip of a tiny datagram through the echo process: the
   loopback, syscall and process wake-up cost every request also pays, on
   a process that shares nothing with the nodes. On a virtual machine it
   moves with the host's load, so the cluster side reports median
   latencies scaled to a reference round trip (see [at_ref_rtt]). *)
let echo_rtt sock buf ~base =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, echo_port base) in
  let one () =
    let t0 = wall () in
    ignore (Unix.sendto_substring sock "ping" 0 4 [] addr);
    let rec wait () =
      if wall () -. t0 > 0.1 then Float.nan (* lost: skip this sample *)
      else
        match Unix.recvfrom sock buf 0 (Bytes.length buf) [] with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> wait ()
        | _, Unix.ADDR_INET (_, port) when port = echo_port base -> wall () -. t0
        | _ -> wait ()
    in
    wait ()
  in
  (* Spaced like the hi phase's arrivals, so that the echo process goes
     idle between pings as the nodes do between requests. *)
  let spaced () =
    let t0 = wall () in
    let r = one () in
    while wall () -. t0 < 1e-3 do
      ()
    done;
    r
  in
  let samples = List.filter (fun x -> not (Float.is_nan x)) (List.init 150 (fun _ -> spaced ())) in
  median samples

(* Runs in the child process: send the schedule, print a summary as
   "key value" lines on stdout. Times are relative to the generator's
   start; every latency is taken from the operation's due time. *)
let loadgen_main args =
  let base, seed, seconds, segment =
    match args with
    | [ b; s; secs; seg ] -> (int_of_string b, int_of_string s, float_of_string secs, int_of_string seg)
    | _ -> failwith "--loadgen BASE_PORT SEED SECONDS SEGMENT"
  in
  let ops = schedule ~seed ~seconds ~segment in
  let first_client = gen_id + (segment * nclients) in
  let g = Loadgen.create ~mains:[| 0; 1 |] ~timeout:params.Params.client_timeout ops in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port_of base gen_id));
  Unix.set_nonblock sock;
  let bytes_sent = ref 0 in
  let send ~dst ~seq (op : Loadgen.op) =
    let i = seq - 1 in
    let cmd = { Types.client = first_client + (i mod nclients); seq = (i / nclients) + 1; op = op.Loadgen.cmd } in
    let frame = Codec.encode (if op.Loadgen.read then Types.ClientRead cmd else Types.ClientReq cmd) in
    bytes_sent := !bytes_sent + String.length frame;
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port_of base dst) in
    try ignore (Unix.sendto_substring sock frame 0 (String.length frame) [] addr)
    with Unix.Unix_error _ -> () (* a lost send is retried on timeout *)
  in
  let buf = Bytes.create 65536 in
  let rtt = echo_rtt sock buf ~base in
  let t0 = wall () in
  let now () = wall () -. t0 in
  let rec drain () =
    match Unix.recvfrom sock buf 0 (Bytes.length buf) [] with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | len, _ ->
      (match Codec.decode_frames (Bytes.sub_string buf 0 len) with
      | Error _ -> ()
      | Ok frames ->
        List.iter
          (fun f ->
            match f.Codec.f_msg with
            | Types.ClientResp { client; seq; result } ->
              let i = ((seq - 1) * nclients) + (client - first_client) in
              Loadgen.on_reply g ~now:(now ()) ~seq:(i + 1) ~result
            | Types.Redirect { leader_hint } ->
              Loadgen.on_redirect g ~now:(now ()) ~hint:leader_hint ~send
            | _ -> ())
          frames);
      drain ()
  in
  (* Unanswered operations are given up this long after the schedule. *)
  let give_up = seconds +. 2. in
  (* The generator polls its socket instead of sleeping in select: a
     sleeping generator adds its own wake-up delay, which on a virtual
     machine varies with the host's load, to every latency it measures. *)
  while (not (Loadgen.finished g)) && now () < give_up do
    Loadgen.step g ~now:(now ()) ~send;
    drain ()
  done;
  let span = now () in
  Unix.close sock;
  let history = ref [] and reads = ref 0 in
  Array.iteri
    (fun i (op : Loadgen.op) ->
      match (Loadgen.first_sent_at g i, Loadgen.completed_at g i, Loadgen.result g i) with
      | Some s, Some d, Some r ->
        if op.Loadgen.read then incr reads;
        history := (s, d, op.Loadgen.cmd, r) :: !history
      | _ -> ())
    ops;
  let lin =
    match Cp_checker.Linearizability.check_kv !history with
    | Ok true -> "ok"
    | Ok false -> "not-linearizable"
    | Error e -> "error:" ^ String.map (fun c -> if c = ' ' then '_' else c) e
  in
  let ms f a = f (Array.to_list a) *. 1e3 in
  let lat_all = Loadgen.latencies g in
  let lat_lo = Loadgen.latencies ~phase:0 g and lat_hi = Loadgen.latencies ~phase:1 g in
  let late = Loadgen.lateness g in
  List.iter
    (fun (k, v) -> Printf.printf "%s %s\n" k v)
    [
      ("scheduled", string_of_int (Loadgen.scheduled g));
      ("acked", string_of_int (Loadgen.acked g));
      ("reads", string_of_int !reads);
      ("resends", string_of_int (Loadgen.resends g));
      ("redirects", string_of_int (Loadgen.redirects g));
      ("bytes_sent", string_of_int !bytes_sent);
      ("span_s", Printf.sprintf "%.17g" span);
      ("p50_ms", Printf.sprintf "%.17g" (ms median lat_all));
      ("p99_ms", Printf.sprintf "%.17g" (ms p99 lat_all));
      ("lo_p50_ms", Printf.sprintf "%.17g" (ms median lat_lo));
      ("lo_p99_ms", Printf.sprintf "%.17g" (ms p99 lat_lo));
      ("hi_p50_ms", Printf.sprintf "%.17g" (ms median lat_hi));
      ("hi_p99_ms", Printf.sprintf "%.17g" (ms p99 lat_hi));
      ("late_p99_ms", Printf.sprintf "%.17g" (ms p99 late));
      ("rtt_ms", Printf.sprintf "%.17g" (rtt *. 1e3));
      ("samples", string_of_int (Array.length lat_all));
      ("lo_samples", string_of_int (Array.length lat_lo));
      ("hi_samples", string_of_int (Array.length lat_hi));
      ("linearizable", lin);
    ];
  exit 0

(* ------------------------------------------------------------------ *)
(* Cluster process                                                     *)
(* ------------------------------------------------------------------ *)

type cluster = {
  nodes : Node.t array;
  reps : Replica.t option array;
  stores : Storage.t list ref;
}

let start_cluster ~base ~seed ~spans =
  let reps = Array.make 3 None and stores = ref [] in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let storage _gid =
    let s = Cp_storage.Mem.store () in
    stores := s :: !stores;
    Wrap.store spans s
  in
  let make id =
    let role = if id = 2 then Replica.Aux else Replica.Main in
    Node.create ~storage ~port_of:(port_of base) ~id_of_port:(id_of_port base) ~id ~seed
      ~build:(fun ctx ->
        let ctx = Wrap.ctx spans ctx in
        let r =
          Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy ~params ~initial
            ~universe_mains:[ 0; 1 ] ~universe_auxes:[ 2 ]
            ~app:(Wrap.kv spans ~on_init:ignore)
        in
        reps.(id) <- Some r;
        Wrap.handlers spans Spans.Engine ctx (Replica.handlers r))
      ()
  in
  let nodes = Array.init 3 make in
  let c = { nodes; reps; stores } in
  let deadline = wall () +. 10. in
  let leader () =
    Node.with_lock nodes.(0) (fun () ->
        match reps.(0) with Some r -> Replica.is_leader r | None -> false)
  in
  while not (leader ()) do
    if wall () > deadline then failwith "setup: main 0 was not elected";
    Thread.delay 0.001
  done;
  c

let stop c = Array.iter Node.shutdown c.nodes

(* How often the echo process wakes when no datagram comes. *)
let echo_tick = 0.005

(* The echo end of [echo_rtt], run as its own process (the same executable
   with --echo) so that it never waits for the nodes' runtime lock. It is
   also the wake-up probe: it wakes every [echo_tick] whether or not a
   datagram came, and a datagram "probe" is answered with its mean CPU time
   per wake-up, in microseconds, since the previous "probe" (see
   [probe_wake]). It exits on SIGTERM, or once its parent is gone. *)
let echo_main args =
  let base = match args with [ b ] -> int_of_string b | _ -> failwith "--echo BASE_PORT" in
  let parent = Unix.getppid () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, echo_port base));
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO echo_tick;
  let buf = Bytes.create 64 in
  let wakes = ref 0 and c0 = ref (cpu ()) in
  while Unix.getppid () = parent do
    incr wakes;
    match Unix.recvfrom sock buf 0 (Bytes.length buf) [] with
    | len, peer -> (
      let reply =
        if Bytes.sub_string buf 0 len = "probe" then begin
          let c1 = cpu () in
          let r = Printf.sprintf "%.17g" ((c1 -. !c0) /. Float.of_int !wakes *. 1e6) in
          wakes := 0;
          c0 := c1;
          r
        end
        else Bytes.sub_string buf 0 len
      in
      try ignore (Unix.sendto_substring sock reply 0 (String.length reply) [] peer)
      with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  done;
  exit 0

(* Start the echo process; returns a function that stops it and waits. *)
let start_echo base =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--echo"; string_of_int base |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let stop () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  (* Wait until it answers, so that no probe of the first segment is lost. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 0.01;
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, echo_port base) in
  let buf = Bytes.create 64 and deadline = wall () +. 5. in
  let rec ready () =
    if wall () > deadline then false
    else begin
      ignore (Unix.sendto_substring sock "ping" 0 4 [] addr);
      match Unix.recvfrom sock buf 0 (Bytes.length buf) [] with
      | _ -> true
      | exception Unix.Unix_error _ -> ready ()
    end
  in
  let ok = ready () in
  Unix.close sock;
  if not ok then begin
    stop ();
    failwith "setup: the echo process did not answer"
  end;
  stop

(* The host's cost of a wake-up: the echo process's mean CPU time per
   wake-up, in microseconds, since the previous call. It runs on the nodes'
   CPU but shares no work with them. The nodes' CPU at these rates goes
   mostly to wake-ups too (timer ticks every millisecond or two, one
   receive per datagram), and on a virtual machine their cost moves with
   the host's load: it doubled between runs minutes apart. *)
let probe_wake base =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 2.;
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, echo_port base) in
  ignore (Unix.sendto_substring sock "probe" 0 5 [] addr);
  let buf = Bytes.create 64 in
  let len, _ = Unix.recvfrom sock buf 0 (Bytes.length buf) [] in
  float_of_string (Bytes.sub_string buf 0 len)

(* The wake-up cost CPU per op is reported at, in microseconds. *)
let wake_ref_us = 30.

let counter c ids name = List.fold_left (fun acc id -> acc + Node.counter c.nodes.(id) name) 0 ids

(* The node counters the per-layer metrics use, with the nodes they are
   summed over. *)
let counted =
  [
    ("msgs_sent", [ 0; 1; 2 ]);
    ("msgs_recv", [ 2 ]);
    ("elections_won", [ 0; 1 ]);
    ("lease_reads", [ 0; 1 ]);
    ("wire_syscalls", [ 0; 1; 2 ]);
    ("wire_bytes", [ 0; 1; 2 ]);
    ("prof.decode.ns", [ 0; 1; 2 ]);
    ("send_retries", [ 0; 1; 2 ]);
    ("send_drops", [ 0; 1; 2 ]);
  ]

(* Running totals of [counted] and of the stores' puts and bytes. The
   metrics are differences between a snapshot before the first segment and
   one after the last, so set-up and election traffic stay out. *)
let snapshot c =
  let store_sum f = List.fold_left (fun acc s -> acc + f (Storage.stats s)) 0 !(c.stores) in
  ("storage.puts", store_sum (fun s -> s.Storage.writes))
  :: ("storage.bytes", store_sum (fun s -> s.Storage.bytes_written))
  :: List.map (fun (name, ids) -> (name, counter c ids name)) counted

let read_all ic =
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  go []

(* The run is cut into [segments] generator processes of equal length, each
   on its own client ids and key namespace. Every segment runs the lo phase
   then the hi phase. *)
let segments = 10

(* The echo round trip median latencies are reported at, in milliseconds. *)
let rtt_ref_ms = 0.05

type segment = {
  wake_us : float; (* the host's wake-up cost while it ran; see [probe_wake] *)
  cpu_s : float;
  live_mb : float; (* live heap after the segment *)
  out : (string * string) list; (* the generator's summary *)
  ok : bool; (* generator exited 0 *)
}

let run_segment ~base ~seed ~seconds j =
  Gc.full_major ();
  ignore (probe_wake base);
  let c0 = cpu () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [ Sys.executable_name; "--loadgen"; string_of_int base; string_of_int seed;
      Printf.sprintf "%.17g" seconds; string_of_int j ]
  in
  (* run.sh pins this process to CPU 0 when it can; the generator then gets
     CPU 1 to itself, so the two never queue for one CPU. *)
  let args = if Sys.getenv_opt "PERFBENCH_PIN" = Some "1" then "taskset" :: "-c" :: "1" :: args else args in
  let pid =
    Unix.create_process (List.hd args) (Array.of_list args) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let lines = read_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let c1 = cpu () in
  let wake_us = probe_wake base in
  let out =
    List.filter_map (fun l -> match String.split_on_char ' ' l with [ k; v ] -> Some (k, v) | _ -> None) lines
  in
  {
    wake_us;
    cpu_s = c1 -. c0;
    live_mb = live_heap_mb ();
    out;
    ok = status = Unix.WEXITED 0;
  }

let num seg k = Option.fold ~none:0. ~some:float_of_string (List.assoc_opt k seg.out)

(* Set-ups timed per run. On a loaded host one set-up in three or four
   takes half as long again, so a median of three moved by a third between
   runs. *)
let setup_reps = 7

let run ~seed ~seconds ~trace =
  let spans = Spans.create ~traced:trace in
  let base = 20000 + (Unix.getpid () mod 9000 * 4) in
  (* Set-up is timed [setup_reps] times (nodes bound, main 0 elected); the
     last cluster serves the load. *)
  let setups = ref [] in
  let c =
    let rec go n =
      let t0 = wall () in
      let c = start_cluster ~base ~seed ~spans in
      setups := (wall () -. t0) :: !setups;
      if n = 1 then c
      else begin
        stop c;
        go (n - 1)
      end
    in
    go setup_reps
  in
  Fun.protect ~finally:(fun () -> stop c) @@ fun () ->
  let stop_echo = start_echo base in
  Fun.protect ~finally:stop_echo @@ fun () ->
  let before = snapshot c in
  let minor0, _, major0 = Gc.counters () in
  Spans.set_recording spans true;
  let segs =
    List.init segments (fun j -> run_segment ~base ~seed ~seconds:(seconds /. Float.of_int segments) j)
  in
  Spans.set_recording spans false;
  let after = snapshot c in
  let minor1, _, major1 = Gc.counters () in
  let delta name = List.assoc name after - List.assoc name before in
  (* Let in-flight commits land before comparing logs. *)
  Thread.delay 0.2;
  let sum k = List.fold_left (fun acc sg -> acc +. num sg k) 0. segs in
  let scheduled = int_of_float (sum "scheduled") and acked = int_of_float (sum "acked") in
  let dump id =
    Node.with_lock c.nodes.(id) (fun () ->
        let r = Option.get c.reps.(id) in
        {
          Cp_checker.Consistency.node = id;
          base = Replica.log_base r;
          entries = Replica.log_range r ~lo:(Replica.log_base r) ~hi:max_int;
        })
  in
  let errors =
    List.concat
      (List.mapi
         (fun j sg ->
           (if sg.ok then [] else [ Printf.sprintf "segment %d: load generator failed" j ])
           @
           match List.assoc_opt "linearizable" sg.out with
           | Some "ok" -> []
           | Some e -> [ Printf.sprintf "segment %d: client history %s" j e ]
           | None -> [ Printf.sprintf "segment %d: no history check reported" j ])
         segs)
    @
    match Cp_checker.Consistency.agreement [ dump 0; dump 1 ] with
    | Ok () -> []
    | Error e -> [ "mains' logs disagree: " ^ e ]
  in
  let ops = Float.of_int acked in
  let per x = ratio (Float.of_int x) ops in
  let us layer = ratio (Spans.self_s spans layer) ops *. 1e6 in
  (* Medians over segments. Unlike the ring workloads these figures are
     bound by thread wake-ups and timers more than by CPU speed, so they
     are not scaled by the reference work. Median latencies are given at a
     reference echo round trip instead, and CPU per op at a reference
     wake-up cost. The traced layer times are as measured. *)
  let seg_median k = median (List.map (fun sg -> num sg k) segs) in
  let at_ref_rtt k = median (List.map (fun sg -> num sg k *. rtt_ref_ms /. num sg "rtt_ms") segs) in
  let e2e =
    [
      ("throughput_ops_s", median (List.map (fun sg -> num sg "acked" /. num sg "span_s") segs));
      (* The lo phase's median: at 250/s each request finds the cluster
         idle, as the echo probe does, so the probe takes the host's
         wake-up cost out of it. At 1,000/s requests also queue behind one
         another and behind timer work, which the probe does not see, and
         that median moved by a quarter between runs (hi.latency_p50_ms). *)
      ("latency_p50_ms", at_ref_rtt "lo_p50_ms");
      (* At the reference wake-up cost: each segment's is scaled by
         [wake_ref_us] over the wake-up cost measured while it ran. The
         nodes' timer and heartbeat work between requests counts: it is the
         program's cost too. *)
      ( "cpu_us_per_op",
        median
          (List.map (fun sg -> ratio sg.cpu_s (num sg "acked") *. 1e6 *. wake_ref_us /. sg.wake_us) segs)
      );
      (* After the last segment: the cluster's live heap grows all run
         (about 4 MB a segment), so its end is its peak. On a loaded host
         some runs retain 1-8 MB more (cause not yet pinned down); against
         the peak that is a smaller share than against a mid-run figure. *)
      ("peak_live_heap_mb", (List.nth segs (segments - 1)).live_mb);
      ("setup_s", median !setups);
    ]
  in
  let layer =
    [
      ("latency_p99_ms", seg_median "p99_ms");
      ("all.latency_p50_ms", at_ref_rtt "p50_ms");
      ("latency.samples", sum "samples");
      ("lo.latency_p50_ms", at_ref_rtt "lo_p50_ms");
      ("hi.latency_p50_ms", at_ref_rtt "hi_p50_ms");
      ("failed_ratio", ratio (Float.of_int (scheduled - acked)) (Float.of_int scheduled));
      ("engine.msgs_per_op", per (delta "msgs_sent"));
      ("engine.aux_msgs_per_kop", per (delta "msgs_recv") *. 1000.);
      ("engine.lease_read_ratio", ratio (Float.of_int (delta "lease_reads")) (sum "reads"));
      ("engine.elections", Float.of_int (delta "elections_won"));
      ("storage.puts_per_op", per (delta "storage.puts"));
      ("storage.bytes_written_per_op", per (delta "storage.bytes"));
      ("netio.syscalls_per_op", per (delta "wire_syscalls"));
      ("netio.decode_us_per_op", per (delta "prof.decode.ns") /. 1e3);
      ("netio.send_retries", Float.of_int (delta "send_retries"));
      ("netio.send_drops", Float.of_int (delta "send_drops"));
      ("proto.wire_bytes_per_op", per (delta "wire_bytes" + int_of_float (sum "bytes_sent")));
      ("client.retries_per_kop", ratio (sum "resends" *. 1000.) ops);
      ("gc.minor_words_per_op", ratio (minor1 -. minor0) ops);
      ("gc.major_words_per_op", ratio (major1 -. major0) ops);
      ("gc.top_heap_mb", top_heap_mb ());
      ("loadgen.late_ms_p99", median (List.map (fun sg -> num sg "late_p99_ms") segs));
      ("loadgen.lo.latency_p99_ms", seg_median "lo_p99_ms");
      ("loadgen.hi.latency_p99_ms", seg_median "hi_p99_ms");
      ("loadgen.samples", sum "samples");
    ]
    @
    if trace then
      [
        ("engine.handler_self_us_per_op", us Spans.Engine);
        ("engine.handler_calls_per_op", ratio (Float.of_int (Spans.calls spans Spans.Engine)) ops);
        ("storage.put_us_per_op", us Spans.Put);
        ("storage.flushes_per_op", ratio (Float.of_int (Spans.calls spans Spans.Flush)) ops);
        ("storage.flush_us_per_op", us Spans.Flush);
        ("storage.flush_p99_us", p99 (Spans.flush_samples spans) *. 1e6);
        ("transport.send_us_per_op", us Spans.Send);
        ("smr.apply_us_per_op", us Spans.Apply);
      ]
    else []
  in
  let notes =
    [
      Printf.sprintf
        "udp-read-mostly: %d segments, %d ops scheduled (%.0f lo at %.0f/s, %.0f hi at %.0f/s), %.0f \
         latency samples"
        segments scheduled (sum "lo_samples") lo_rate (sum "hi_samples") hi_rate (sum "samples");
      Printf.sprintf "setup: median of %d cluster set-ups" (List.length !setups);
      Printf.sprintf
        "as measured: lo p50 %.4f ms, p50 %.4f ms, echo round trip %.4f ms, cpu %.1f us/op, \
         wake-up %.2f us"
        (seg_median "lo_p50_ms") (seg_median "p50_ms") (seg_median "rtt_ms")
        (median (List.map (fun sg -> ratio sg.cpu_s (num sg "acked") *. 1e6) segs))
        (median (List.map (fun sg -> sg.wake_us) segs));
    ]
  in
  if trace then begin
    mkdir_p Ringwl.out_dir;
    Spans.dump spans (Filename.concat Ringwl.out_dir (Printf.sprintf "spans-udp-read-mostly-%d.tsv" seed))
  end;
  { attempted = scheduled; failed = scheduled - acked; errors; e2e; layer; notes }
