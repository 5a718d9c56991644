(* The three workloads on the in-process ring fabric: [ring-write],
   [ring-wal-write] and [ring-failover].

   A run is a sequence of episodes until the time is up. Each episode sets
   up a fresh f=1 Cheap Paxos cluster (mains 0 and 1, auxiliary 2, default
   [Params]), elects main 0, then drives a fixed number of Kv PUTs through
   it. Fixed-size episodes keep the per-op cost comparable between runs
   (the cost per op grows with the length of a replica's log), and the
   per-episode figures are reported as medians. *)

module Ring = Cp_transport.Ring
module Replica = Cp_engine.Replica
module Params = Cp_engine.Params
module Storage = Cp_storage.Storage
module Metrics = Cp_sim.Metrics
module Engine = Cp_sim.Engine
module Types = Cp_proto.Types
module Kv = Cp_smr.Kv
module Rng = Cp_util.Rng
module Event = Cp_obs.Event
open Util

let nkeys = 1000

let params = Params.default

let replica_ids = [ 0; 1; 2 ]

let aux = 2

type cluster = {
  fab : Ring.t;
  reps : Replica.t option array;
  alive : bool ref array;
  states : Kv.state option array;
  stores : Storage.t list ref; (* unwrapped, to close *)
  mutable reconfig_at : float; (* virtual time Remove_main executed on main 1 *)
}

let rep c id = Option.get c.reps.(id)

let make_cluster ?flushed ~seed ~spans ~wal_dir () =
  let stores = ref [] in
  let factory id =
    let s =
      match wal_dir with
      | None -> Cp_storage.Mem.store ()
      | Some d -> Cp_storage.Wal.store (Filename.concat d (Printf.sprintf "n%d" id))
    in
    stores := s :: !stores;
    Wrap.store ?flushed spans s
  in
  let fab = Ring.create ~seed ~storage:factory () in
  let c =
    {
      fab;
      reps = Array.make 3 None;
      alive = Array.init 3 (fun _ -> ref true);
      states = Array.make 3 None;
      stores;
      reconfig_at = Float.nan;
    }
  in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  List.iter
    (fun id ->
      let role = if id = aux then Replica.Aux else Replica.Main in
      Ring.add_node fab ~id ~build:(fun ctx ->
          let emit ev =
            (match (ev : Event.t) with
            | Event.Reconfig_committed { change = Event.Remove_main _; _ } when id = 1 ->
              c.reconfig_at <- ctx.Engine.now ()
            | _ -> ());
            ctx.Engine.emit ev
          in
          let ctx = Wrap.ctx spans { ctx with Engine.emit } in
          let r =
            Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy ~params ~initial
              ~universe_mains:[ 0; 1 ] ~universe_auxes:[ aux ]
              ~app:(Wrap.kv spans ~on_init:(fun s -> c.states.(id) <- Some s))
          in
          c.reps.(id) <- Some r;
          Wrap.guard_handlers c.alive.(id) (Wrap.handlers spans Spans.Engine ctx (Replica.handlers r))))
    replica_ids;
  while not (Replica.is_leader (rep c 0)) do
    if Ring.now fab > 5. then failwith "setup: main 0 was not elected";
    Ring.run fab ~until:(Ring.now fab +. 0.005)
  done;
  c

let close c = List.iter (fun s -> try Storage.close s with _ -> ()) !(c.stores)

(* Advance the fabric when nothing is in flight: fire the timers of the
   next stretch of virtual time. *)
let idle_step spans c =
  Spans.time spans Spans.Timers ~tid:0 (fun () -> Ring.run c.fab ~until:(Ring.now c.fab +. 0.01))

(* 0 for endpoints not added yet (clients, before the measured phase). *)
let counter c id name =
  match Ring.metrics c.fab id with m -> Metrics.get m name | exception Invalid_argument _ -> 0

let sum_counter c ids name = List.fold_left (fun acc id -> acc + counter c id name) 0 ids

(* Counted effects of one episode's measured phase: [snapshot] takes the
   running totals, [diff] the difference over the phase. The protocol
   counts depend only on the seed and the code, so two runs with one seed
   must agree exactly (see [determinism_errors]). *)
type counts = {
  msgs : int;
  wire_bytes : int;
  puts : int;
  put_bytes : int;
  fsyncs : int; (* root-wide per store; one store per machine *)
  minor_words : float;
  major_words : float;
  major_collections : int;
  aux_msgs : int;
  instances : int;
  elections : int;
  drops : int;
}

let snapshot c ~clients =
  let stats id = Storage.stats (Ring.stable c.fab id) in
  let sum f = List.fold_left (fun acc id -> acc + f (stats id)) 0 replica_ids in
  let minor_words, _, major_words = Gc.counters () in
  {
    msgs = sum_counter c replica_ids "msgs_sent";
    wire_bytes = sum_counter c (replica_ids @ clients) "wire_bytes";
    puts = sum (fun s -> s.Storage.writes);
    put_bytes = sum (fun s -> s.Storage.bytes_written);
    fsyncs = sum (fun s -> s.Storage.fsyncs);
    minor_words;
    major_words;
    major_collections = (Gc.quick_stat ()).Gc.major_collections;
    aux_msgs = counter c aux "msgs_recv";
    instances = Replica.prefix (rep c 1);
    elections = sum_counter c [ 0; 1 ] "elections_won";
    drops = sum_counter c (replica_ids @ clients) "wire_drops";
  }

let diff a b =
  {
    msgs = b.msgs - a.msgs;
    wire_bytes = b.wire_bytes - a.wire_bytes;
    puts = b.puts - a.puts;
    put_bytes = b.put_bytes - a.put_bytes;
    fsyncs = b.fsyncs - a.fsyncs;
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
    major_collections = b.major_collections - a.major_collections;
    aux_msgs = b.aux_msgs - a.aux_msgs;
    instances = b.instances - a.instances;
    elections = b.elections - a.elections;
    drops = b.drops - a.drops;
  }

let dump c id =
  let r = rep c id in
  {
    Cp_checker.Consistency.node = id;
    base = Replica.log_base r;
    entries = Replica.log_range r ~lo:(Replica.log_base r) ~hi:max_int;
  }

let check_agreement c =
  match Cp_checker.Consistency.agreement [ dump c 0; dump c 1 ] with
  | Ok () -> []
  | Error e -> [ "mains' logs disagree: " ^ e ]

let check_linearizable history =
  match Cp_checker.Linearizability.check_kv history with
  | Ok true -> []
  | Ok false -> [ "client history is not linearizable" ]
  | Error e -> [ "linearizability check: " ^ e ]

(* One episode's measurements. *)
type episode = {
  ops : int;
  acked : int;
  wall : float;
  cpu : float;
  lat : float array; (* seconds; wall clock, but virtual on ring-failover *)
  counts : counts;
  retries : int; (* client resends *)
  errors : string list;
  flush_s : float; (* wall time inside [Storage.flush] (closed loop) *)
  live_mb : float; (* live heap at the end of the episode *)
  (* failover only *)
  unavailable : float; (* virtual seconds *)
  reconfig : float; (* virtual seconds from crash to Remove_main executed *)
}

let put_stream ~seed k =
  let rng = Rng.create ((seed * 7919) + 17) in
  Array.init k (fun i -> Kv.put (Printf.sprintf "k%d" (Rng.int rng nkeys)) (value_of i))

let nclients = 8

let client_base = 100

(* [ring-write] / [ring-wal-write]: 8 closed-loop clients, [k] PUTs. *)
let closed_episode ~seed ~k ~spans ~wal_dir =
  let flushed = ref 0. in
  let c = make_cluster ~flushed ~seed ~spans ~wal_dir () in
  let ops = put_stream ~seed k in
  let sent = Array.make k Float.nan and done_ = Array.make k Float.nan in
  let results = Array.make k "" in
  let acked = ref 0 in
  let index j seq = ((seq - 1) * nclients) + j in
  let clients = List.init nclients (fun j -> client_base + j) in
  Gc.minor ();
  let before = snapshot c ~clients in
  Spans.set_recording spans true;
  flushed := 0.;
  let t0 = wall () and c0 = cpu () in
  List.iteri
    (fun j id ->
      Ring.add_node c.fab ~id ~build:(fun ctx ->
          let send dst (m : Types.msg) =
            (match m with
            | Types.ClientReq { seq; _ } ->
              let i = index j seq in
              if i < k && Float.is_nan sent.(i) then sent.(i) <- wall ()
            | _ -> ());
            ctx.Engine.send dst m
          in
          let cl =
            Cp_smr.Client.create { ctx with Engine.send } ~mains:[ 0; 1 ]
              ~timeout:params.Params.client_timeout
              ~ops:(fun seq ->
                let i = index j seq in
                if i < k then Some ops.(i) else None)
              ()
          in
          let h = Cp_smr.Client.handlers cl in
          let on_message ~src (m : Types.msg) =
            (match m with
            | Types.ClientResp { seq; result; _ } ->
              let i = index j seq in
              if i < k && Float.is_nan done_.(i) then begin
                done_.(i) <- wall ();
                results.(i) <- result;
                incr acked
              end
            | _ -> ());
            h.Engine.on_message ~src m
          in
          Wrap.handlers spans Spans.Client ctx { h with Engine.on_message }))
    clients;
  let deadline = t0 +. 120. in
  while !acked < k && wall () < deadline do
    if Spans.time spans Spans.Pump ~tid:0 (fun () -> Ring.pump c.fab) = 0 then idle_step spans c
  done;
  let t1 = wall () and c1 = cpu () in
  let flush_s = !flushed in
  Spans.set_recording spans false;
  let counts = diff before (snapshot c ~clients) in
  let retries = sum_counter c clients "client_retries" in
  let lat = ref [] and history = ref [] in
  for i = k - 1 downto 0 do
    if not (Float.is_nan done_.(i)) then begin
      lat := (done_.(i) -. sent.(i)) :: !lat;
      history := (sent.(i), done_.(i), ops.(i), results.(i)) :: !history
    end
  done;
  let errors =
    (if !acked < k then [ Printf.sprintf "%d of %d PUTs unacknowledged" (k - !acked) k ] else [])
    @ check_agreement c @ check_linearizable !history
    @
    if counter c aux "msgs_recv" <> 0 then
      [ Printf.sprintf "auxiliary received %d messages" (counter c aux "msgs_recv") ]
    else []
  in
  let live_mb = live_heap_mb () in
  close c;
  {
    ops = k;
    acked = !acked;
    wall = t1 -. t0;
    cpu = c1 -. c0;
    lat = Array.of_list !lat;
    counts;
    retries;
    errors;
    flush_s;
    live_mb;
    unavailable = Float.nan;
    reconfig = Float.nan;
  }

(* [ring-failover]: open-loop PUTs on the virtual clock; main 0, the
   leader, crash-stops at a fixed virtual time. *)
let fo_rate = 500. (* PUTs per virtual second *)

let fo_crash = 0.5 (* virtual seconds after the load starts *)

let fo_load = 1.5 (* virtual seconds of scheduled load *)

let fo_ops = 750 (* = fo_rate * fo_load *)

let fo_tail = 0.5 (* quiet virtual seconds checked after the last reply *)

let gen_tick = 1e-3

let failover_episode ~seed ~spans =
  let c = make_cluster ~seed ~spans ~wal_dir:None () in
  let start = Ring.now c.fab in
  let rng = Rng.create ((seed * 104729) + 3) in
  (* A fixed number of Poisson arrivals, so every episode carries the same
     work: the schedule is cut after [fo_ops] (about [fo_load] seconds). *)
  let dues = Array.sub (Loadgen.poisson rng ~rate:fo_rate ~start ~stop:(start +. (2. *. fo_load))) 0 fo_ops in
  let n = fo_ops in
  let puts = put_stream ~seed n in
  let ops = Array.mapi (fun i due -> { Loadgen.due; cmd = puts.(i); read = false; phase = 0 }) dues in
  let g = Loadgen.create ~mains:[| 0; 1 |] ~timeout:params.Params.client_timeout ops in
  let gen = client_base in
  Gc.minor ();
  let before = snapshot c ~clients:[ gen ] in
  Spans.set_recording spans true;
  let t0 = wall () and c0 = cpu () in
  (* The generator steps on a 1 ms virtual tick: an operation is sent at
     the first tick at or after its due time. *)
  Ring.add_node c.fab ~id:gen ~build:(fun ctx ->
      let send ~dst ~seq (op : Loadgen.op) =
        ctx.Engine.send dst (Types.ClientReq { client = gen; seq; op = op.Loadgen.cmd })
      in
      let on_message ~src:_ (m : Types.msg) =
        let now = ctx.Engine.now () in
        match m with
        | Types.ClientResp { seq; result; _ } -> Loadgen.on_reply g ~now ~seq ~result
        | Types.Redirect { leader_hint } -> Loadgen.on_redirect g ~now ~hint:leader_hint ~send
        | _ -> ()
      in
      let on_timer ~tid:_ ~tag:_ =
        Loadgen.step g ~now:(ctx.Engine.now ()) ~send;
        ignore (ctx.Engine.set_timer ~tag:"gen" gen_tick)
      in
      ignore (ctx.Engine.set_timer ~tag:"gen" gen_tick);
      Wrap.handlers spans Spans.Client ctx { Engine.on_message; on_timer });
  let crash_at = start +. fo_crash in
  Spans.time spans Spans.Timers ~tid:0 (fun () -> Ring.run c.fab ~until:crash_at);
  c.alive.(0) := false;
  let limit = start +. fo_load +. 10. in
  while (not (Loadgen.finished g)) && Ring.now c.fab < limit do
    idle_step spans c
  done;
  let t1 = wall () and c1 = cpu () in
  Spans.set_recording spans false;
  let counts = diff before (snapshot c ~clients:[ gen ]) in
  let aux_before = counter c aux "msgs_recv" in
  Ring.run c.fab ~until:(Ring.now c.fab +. fo_tail);
  let aux_quiet = counter c aux "msgs_recv" = aux_before in
  (* Completions on the virtual clock, around the crash. *)
  let last_before = ref start and first_after = ref Float.infinity in
  let history = ref [] in
  let written = Hashtbl.create nkeys in
  for i = 0 to n - 1 do
    match (Loadgen.completed_at g i, Loadgen.first_sent_at g i) with
    | Some d, Some s ->
      if d <= crash_at then last_before := Float.max !last_before d
      else first_after := Float.min !first_after d;
      let cmd = ops.(i).Loadgen.cmd in
      history := (s, d, cmd, Option.value (Loadgen.result g i) ~default:"") :: !history;
      (match String.split_on_char ' ' cmd with _ :: k :: _ -> Hashtbl.replace written k () | _ -> ())
    | _ -> ()
  done;
  (* Every acknowledged PUT must survive the failover: read each written key
     from the survivor's state after the run, as one last operation per key
     that the history has to linearize. *)
  let t_end = Ring.now c.fab +. 1. in
  (match c.states.(1) with
  | Some st ->
    Hashtbl.iter
      (fun k () ->
        let op = Kv.get k in
        history := (t_end, t_end, op, Kv.apply st op) :: !history)
      written
  | None -> ());
  let survivor = Replica.latest_config (rep c 1) in
  let errors =
    (if not (Loadgen.finished g) then
       [ Printf.sprintf "%d of %d PUTs unacknowledged" (Loadgen.failed g) n ]
     else [])
    @ (if survivor.Cp_proto.Config.mains <> [ 1 ] then
         [ "survivor's configuration still lists another main" ]
       else [])
    @ (if Float.is_nan c.reconfig_at then [ "Remove_main never executed on the survivor" ] else [])
    @ (if counts.aux_msgs = 0 then [ "auxiliary was never engaged" ] else [])
    @ (if not aux_quiet then [ "auxiliary still receives messages after the reconfiguration" ]
       else [])
    @ check_agreement c @ check_linearizable !history
  in
  let live_mb = live_heap_mb () in
  close c;
  {
    ops = n;
    acked = Loadgen.acked g;
    wall = t1 -. t0;
    cpu = c1 -. c0;
    (* Users of this workload live on the virtual clock: latency runs from
       the due time to the reply, both virtual. Wall time per op on this
       path shows in throughput and CPU. *)
    lat = Loadgen.latencies g;
    counts;
    retries = Loadgen.resends g;
    errors;
    flush_s = 0.;
    live_mb;
    unavailable = !first_after -. !last_before;
    reconfig = c.reconfig_at -. crash_at;
  }

(* The same op stream applied straight to a Kv state: the single-node
   baseline, no replication. Median over five passes, microseconds per op. *)
let baseline_apply_us ~seed k =
  let ops = put_stream ~seed k in
  let pass () =
    let st = Kv.init () in
    let t0 = wall () in
    Array.iter (fun op -> ignore (Kv.apply st op)) ops;
    (wall () -. t0) /. Float.of_int k *. 1e6
  in
  median (List.init 5 (fun _ -> pass ()))

(* Protocol counts must repeat exactly. OCaml 5's allocation counters drift
   by up to about one minor heap between identical runs (seen on a bare
   allocation loop too), so GC words only have to agree within 2%. *)
let determinism_errors a b =
  let exact =
    [
      ("msgs", a.msgs, b.msgs);
      ("wire bytes", a.wire_bytes, b.wire_bytes);
      ("storage puts", a.puts, b.puts);
      ("storage bytes", a.put_bytes, b.put_bytes);
      ("instances", a.instances, b.instances);
      ("auxiliary messages", a.aux_msgs, b.aux_msgs);
    ]
  in
  let close = [ ("minor words", a.minor_words, b.minor_words); ("major words", a.major_words, b.major_words) ] in
  List.filter_map
    (fun (name, x, y) ->
      if x = y then None
      else Some (Printf.sprintf "determinism: %s differ between two runs of one seed (%d, %d)" name x y))
    exact
  @ List.filter_map
      (fun (name, x, y) ->
        if Float.abs (x -. y) <= 0.02 *. Float.max x y then None
        else Some (Printf.sprintf "determinism: %s differ by more than 2%% (%.0f, %.0f)" name x y))
      close

type kind = Write | Wal | Failover

(* An episode's speed factors: how much slower than the reference the CPU
   probe and the disk probe ran around it (1 = reference speed). *)
type speed = { cpu : float; disk : float }

let out_dir = Filename.concat "perfbench" "_out"

(* Run [f] between two pairs of reference probes; return its speed factors
   and its result. The disk probe runs on the WAL workload only. *)
let bracketed kind f =
  let disk () = if kind = Wal then disk_reference out_dir else disk_reference_s in
  let r0 = reference_work () and d0 = disk () in
  let x = f () in
  let d1 = disk () and r1 = reference_work () in
  ({ cpu = speed_of r0 r1; disk = (d0 +. d1) /. 2. /. disk_reference_s }, x)

(* A time at reference speed: the part spent in flush at the reference disk
   speed, the rest at the reference CPU speed. *)
let at_ref sp ~total ~flush = ((total -. flush) /. sp.cpu) +. (flush /. sp.disk)

(* Set-up is timed on its own, before the load: [setup_groups] groups of
   [setup_reps] fresh clusters (on the WAL each in a fresh directory), each
   built until main 0 is elected and closed again, back to back between one
   pair of reference probes per group. Returns the set-up times at
   reference speed. Set-up timed inside the episodes would also pay for the
   clean-up before it (deleting the previous episode's WAL), which the file
   system finishes in the background and which varies from run to run. *)
let setup_groups = 5

let setup_reps = 10

let time_setups ~kind ~base =
  let one seed =
    let dir = Filename.concat out_dir (Printf.sprintf "setup-%d-%d" (Unix.getpid ()) seed) in
    let wal_dir = if kind = Wal then Some dir else None in
    let flushed = ref 0. in
    let t0 = wall () in
    let c = make_cluster ~flushed ~seed ~spans:Spans.off ~wal_dir () in
    let total = wall () -. t0 in
    close c;
    rm_rf dir;
    (total, !flushed)
  in
  List.concat_map
    (fun g ->
      let sp, times =
        bracketed kind (fun () -> List.init setup_reps (fun j -> one (base + (g * setup_reps) + j)))
      in
      List.map (fun (total, flush) -> at_ref sp ~total ~flush) times)
    (List.init setup_groups Fun.id)

let run ~kind ~seed ~seconds ~trace ~workload =
  mkdir_p out_dir;
  let k = match kind with Wal -> 500 | Write | Failover -> 2000 in
  let traced_spans = Spans.create ~traced:true in
  let episode ~seed ~traced =
    let spans = if traced then traced_spans else Spans.off in
    match kind with
    | Failover -> failover_episode ~seed ~spans
    | Write -> closed_episode ~seed ~k ~spans ~wal_dir:None
    | Wal ->
      let dir = Filename.concat out_dir (Printf.sprintf "wal-%d-%d" (Unix.getpid ()) seed) in
      rm_rf dir;
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () -> closed_episode ~seed ~k ~spans ~wal_dir:(Some dir))
  in
  let base = seed * 1000 in
  let deadline = wall () +. seconds in
  let setups = time_setups ~kind ~base in
  let eps = ref [] and i = ref 0 in
  (* At least three episodes, so medians and the traced/untraced pairing
     always have material. In a traced run every other episode is traced.
     The reference probes around each episode give its speed factors. *)
  while wall () < deadline || !i < 3 do
    let traced = trace && !i mod 2 = 0 in
    (* Collect the previous episode's garbage first, so that neither this
       set-up nor this episode pays for it. *)
    Gc.full_major ();
    let sp, e = bracketed kind (fun () -> episode ~seed:(base + !i) ~traced) in
    eps := (traced, sp, e) :: !eps;
    incr i
  done;
  let eps = List.rev !eps in
  let plain = List.filter_map (fun (tr, sp, e) -> if tr then None else Some (sp, e)) eps in
  let traced = List.filter_map (fun (tr, sp, e) -> if tr then Some (sp, e) else None) eps in
  (* Counted effects come from an untraced episode on the base seed. On
     ring-write it runs twice and must repeat exactly; a held-out seed must
     pass every correctness check too. *)
  let count_ep = episode ~seed:base ~traced:false in
  let extra_errors =
    match kind with
    | Write ->
      let again = episode ~seed:base ~traced:false in
      let held_out = episode ~seed:(base + 999_983) ~traced:false in
      determinism_errors count_ep.counts again.counts
      @ List.map (fun e -> "held-out seed: " ^ e) held_out.errors
    | Wal | Failover -> []
  in
  let errors =
    List.concat_map (fun (_, _, e) -> e.errors) eps @ count_ep.errors @ extra_errors
  in
  let attempted = List.fold_left (fun acc (_, _, e) -> acc + e.ops) 0 eps in
  let acked = List.fold_left (fun acc (_, _, e) -> acc + e.acked) 0 eps in
  let per_op e x = ratio x (Float.of_int e.acked) in
  let ref_wall sp e = at_ref sp ~total:e.wall ~flush:e.flush_s in
  let lat_scale sp e = if kind = Failover then 1. else ref_wall sp e /. e.wall in
  let med f es = median (List.map (fun (sp, e) -> f sp e) es) in
  let raw f es = median (List.map (fun (_, e) -> f e) es) in
  let samples = List.fold_left (fun acc (_, e) -> acc + Array.length e.lat) 0 plain in
  let throughput e = Float.of_int e.acked /. e.wall in
  let p50_ms e = median (Array.to_list e.lat) *. 1e3 in
  let cpu_us e = per_op e e.cpu *. 1e6 in
  let e2e =
    [
      ("throughput_ops_s", med (fun sp e -> Float.of_int e.acked /. ref_wall sp e) plain);
      ("latency_p50_ms", med (fun sp e -> p50_ms e *. lat_scale sp e) plain);
      (* CPU time at the reference CPU speed only: waiting for the disk
         costs no CPU, so a slow disk does not make the CPU time longer. *)
      ("cpu_us_per_op", med (fun sp e -> cpu_us e /. sp.cpu) plain);
      ("peak_live_heap_mb", raw (fun e -> e.live_mb) plain);
      ("setup_s", median setups);
    ]
  in
  let cn = count_ep.counts and cops = Float.of_int count_ep.acked in
  let per x = ratio (Float.of_int x) cops in
  let t_ops = Float.of_int (List.fold_left (fun acc (_, e) -> acc + e.acked) 0 traced) in
  let t_wall = List.fold_left (fun acc (_, e) -> acc +. e.wall) 0. traced in
  let t_speed = median (List.map (fun (sp, _) -> sp.cpu) traced) in
  let t_disk = median (List.map (fun (sp, _) -> sp.disk) traced) in
  let us layer =
    ratio (Spans.self_s traced_spans layer) t_ops *. 1e6
    /. if layer = Spans.Flush then t_disk else t_speed
  in
  let calls layer = ratio (Float.of_int (Spans.calls traced_spans layer)) t_ops in
  let us_per_op = med (fun sp e -> per_op e (ref_wall sp e) *. 1e6) in
  let flushes = Spans.flush_samples traced_spans in
  let layer =
    [
      ("latency_p99_ms", med (fun sp e -> p99 (Array.to_list e.lat) *. 1e3 *. lat_scale sp e) plain);
      ("latency.samples", Float.of_int samples);
      ("engine.msgs_per_op", per cn.msgs);
      ("engine.instances_per_op", per cn.instances);
      ("engine.aux_msgs_per_kop", per cn.aux_msgs *. 1000.);
      ("engine.elections", Float.of_int cn.elections);
      ("client.retries_per_kop", per count_ep.retries *. 1000.);
      ("storage.puts_per_op", per cn.puts);
      ("storage.bytes_written_per_op", per cn.put_bytes);
      ("storage.fsyncs_per_op", per cn.fsyncs);
      ("proto.wire_bytes_per_op", per cn.wire_bytes);
      ("transport.drops", Float.of_int cn.drops);
      ("gc.minor_words_per_op", ratio cn.minor_words cops);
      ("gc.major_words_per_op", ratio cn.major_words cops);
      ("gc.major_collections", Float.of_int cn.major_collections);
      ("gc.top_heap_mb", top_heap_mb ());
      ("smr.baseline_apply_us", baseline_apply_us ~seed:base k);
      ("failed_ratio", ratio (Float.of_int (attempted - acked)) (Float.of_int attempted));
    ]
    @ (if kind = Failover then
         [
           ("unavailable_ms", count_ep.unavailable *. 1e3);
           ("engine.reconfig_ms", count_ep.reconfig *. 1e3);
         ]
       else [])
    @
    if not trace then []
    else
      [
        ("engine.handler_self_us_per_op", us Spans.Engine);
        ("engine.handler_calls_per_op", calls Spans.Engine);
        ("storage.put_us_per_op", us Spans.Put);
        ("storage.flushes_per_op", calls Spans.Flush);
        ("storage.flush_us_per_op", us Spans.Flush);
        ("storage.flush_p99_us", p99 flushes *. 1e6 /. t_disk);
        ("transport.send_us_per_op", us Spans.Send);
        ("transport.pump_self_us_per_op", us Spans.Pump);
        ("transport.timers_self_us_per_op", us Spans.Timers);
        ("client.self_us_per_op", us Spans.Client);
        ("smr.apply_us_per_op", us Spans.Apply);
        ("unattributed_share", 1. -. ratio (Spans.attributed_s traced_spans) t_wall);
        ("trace.overhead_share", ratio (us_per_op traced) (us_per_op plain) -. 1.);
      ]
  in
  let spans_file = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.tsv" workload seed) in
  if trace then Spans.dump traced_spans spans_file;
  let notes =
    [
      Printf.sprintf "%s: %d episodes (%d traced), %d PUTs per episode, %d latency samples"
        workload (List.length eps) (List.length traced)
        (match kind with Failover -> count_ep.ops | _ -> k)
        samples;
      Printf.sprintf
        "medians of %d untraced episodes at reference speed; setup: median of %d set-ups"
        (List.length plain) (List.length setups);
      Printf.sprintf
        "as measured: %.1f ops/s, p50 %.4f ms, %.1f us/op cpu, %.1f us/op in flush; CPU probe \
         %.3fx and disk probe %.3fx their reference times"
        (raw throughput plain) (raw p50_ms plain) (raw cpu_us plain)
        (raw (fun e -> per_op e e.flush_s *. 1e6) plain)
        (median (List.map (fun (sp, _) -> sp.cpu) plain))
        (median (List.map (fun (sp, _) -> sp.disk) plain));
    ]
    @ (if trace then
         [
           Printf.sprintf "traced: %d spans kept (%d dropped) in %s" (Spans.recorded traced_spans)
             (Spans.dropped traced_spans) spans_file;
         ]
       else [])
    @
    if kind = Write then [ "determinism: count episode repeated; held-out seed checked" ] else []
  in
  { attempted; failed = attempted - acked; errors; e2e; layer; notes }
