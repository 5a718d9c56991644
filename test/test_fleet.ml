(* The sharded fleet: timer wheel, key router, group multiplexer, and the
   end-to-end multi-group simulated runtime.

   The wheel tests drive time by hand (the wheel is clockless), checking the
   two contracts the runtimes lean on: timers never fire early and are late
   by at most one tick, and sleeping exactly until [next_deadline] then
   advancing always fires something. The router tests pin the hash to an
   independent FNV-1a reference so routing stays stable across restarts and
   implementations. The fleet tests run real multi-group clusters. *)

module Wheel = Cp_fleet.Wheel
module Router = Cp_fleet.Router
module Fleet = Cp_fleet.Fleet
module Engine = Cp_sim.Engine
module Storage = Cp_storage.Storage
module Traceid = Cp_obs.Traceid

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                         *)
(* ------------------------------------------------------------------ *)

let test_wheel_fires_in_order () =
  let w = Wheel.create ~tick:0.001 ~now:0. () in
  let fired = ref [] in
  ignore (Wheel.add w ~at:0.005 "b");
  ignore (Wheel.add w ~at:0.002 "a");
  ignore (Wheel.add w ~at:0.009 "c");
  Wheel.advance w ~now:0.02 ~fire:(fun _ p -> fired := p :: !fired);
  Alcotest.(check (list string)) "deadline order" [ "a"; "b"; "c" ] (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Wheel.live w)

let test_wheel_cancel () =
  let w = Wheel.create ~tick:0.001 ~now:0. () in
  let fired = ref 0 in
  let id = Wheel.add w ~at:0.003 () in
  ignore (Wheel.add w ~at:0.004 ());
  Wheel.cancel w id;
  Wheel.cancel w id;
  (* double-cancel is a no-op *)
  Wheel.cancel w 9999;
  (* unknown id too *)
  Wheel.advance w ~now:0.01 ~fire:(fun _ () -> incr fired);
  Alcotest.(check int) "only the uncancelled timer" 1 !fired

let test_wheel_cascade_levels () =
  (* Tiny rings force cascading: slots=4, levels=3 gives a 64-tick horizon,
     so deadlines at 3, 17, and 50 ticks live on three different levels and
     150 ticks sits in the overflow list. All must fire, in order, no
     earlier than requested and no later than one tick after. *)
  let tick = 0.01 in
  let w = Wheel.create ~tick ~slots:4 ~levels:3 ~now:0. () in
  let deadlines = [ (3, "l0"); (17, "l1"); (50, "l2"); (150, "overflow") ] in
  List.iter (fun (ticks, name) -> ignore (Wheel.add w ~at:(float_of_int ticks *. tick) name)) deadlines;
  let fired = ref [] in
  (* Advance one tick at a time, recording the time of each firing. *)
  for step = 1 to 200 do
    let now = float_of_int step *. tick in
    Wheel.advance w ~now ~fire:(fun _ name -> fired := (name, now) :: !fired)
  done;
  let fired = List.rev !fired in
  Alcotest.(check (list string))
    "all fire in deadline order" [ "l0"; "l1"; "l2"; "overflow" ]
    (List.map fst fired);
  List.iter2
    (fun (ticks, name) (name', at) ->
      Alcotest.(check string) "pairing" name name';
      let want = float_of_int ticks *. tick in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fired at %.4f for deadline %.4f" name at want)
        true
        (at >= want -. 1e-9 && at <= want +. tick +. 1e-9))
    deadlines fired

let test_wheel_overdue_fires_immediately () =
  let w = Wheel.create ~tick:0.001 ~now:1.0 () in
  let fired = ref 0 in
  ignore (Wheel.add w ~at:0.5 ());
  (* already past *)
  Wheel.advance w ~now:1.0 ~fire:(fun _ () -> incr fired);
  Alcotest.(check int) "past-due timer fires on next advance" 1 !fired

let test_wheel_fire_adds_due_timer () =
  (* A timer added by a fire callback with an already-due deadline must fire
     within the same [advance] call — the runtimes would otherwise stall a
     whole ring revolution. *)
  let w = Wheel.create ~tick:0.001 ~now:0. () in
  let fired = ref [] in
  ignore (Wheel.add w ~at:0.002 "first");
  Wheel.advance w ~now:0.01 ~fire:(fun _ name ->
      fired := name :: !fired;
      if name = "first" then ignore (Wheel.add w ~at:0.003 "chained"));
  Alcotest.(check (list string)) "chained timer fired in the same advance"
    [ "first"; "chained" ] (List.rev !fired)

let test_wheel_next_deadline_contract () =
  (* Sleeping exactly to [next_deadline] and advancing must always fire at
     least one timer; repeating until empty visits every timer, never early.
     Randomized over deadlines spanning all levels and the overflow. *)
  let rng = Cp_util.Rng.create 7 in
  for round = 1 to 20 do
    let tick = 0.001 in
    let w = Wheel.create ~tick ~slots:8 ~levels:2 ~now:0. () in
    let n = 1 + Cp_util.Rng.int rng 30 in
    let want = ref [] in
    for i = 1 to n do
      let at = Cp_util.Rng.float rng 0.2 in
      ignore (Wheel.add w ~at (float_of_int i));
      want := at :: !want
    done;
    let fired = ref 0 in
    let now = ref 0. in
    let guard = ref 0 in
    let rec drain () =
      incr guard;
      if !guard > 10_000 then Alcotest.failf "round %d: wheel livelock" round;
      match Wheel.next_deadline w with
      | None -> ()
      | Some at ->
        Alcotest.(check bool)
          (Printf.sprintf "round %d: deadline %.6f not in the past of %.6f" round at !now)
          true
          (at >= !now -. 1e-9);
        now := max !now at;
        let before = !fired in
        Wheel.advance w ~now:!now ~fire:(fun _ _ -> incr fired);
        if !fired = before then
          Alcotest.failf "round %d: woke at %.6f and nothing fired" round !now;
        drain ()
    in
    drain ();
    Alcotest.(check int) (Printf.sprintf "round %d: all fired" round) n !fired
  done

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

(* Independent FNV-1a reference: pins the algorithm, not the module. *)
let fnv1a_ref s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    s;
  !h

let test_router_hash_is_fnv1a () =
  List.iter
    (fun k -> Alcotest.(check int) k (fnv1a_ref k) (Router.hash k))
    [ ""; "k"; "k1"; "key-42"; "a somewhat longer key \x00 with a NUL" ]

let test_router_deterministic_across_restarts () =
  (* Two independently built routers — "before" and "after" a restart — must
     agree on every key, and the mapping must be a pure function of the key
     bytes (no dependence on insertion order or process state). *)
  let r1 = Router.create ~groups:8 () in
  let r2 = Router.create ~groups:8 () in
  for i = 0 to 999 do
    let k = Printf.sprintf "key-%d" i in
    let g1 = Router.group_of_key r1 k and g2 = Router.group_of_key r2 k in
    Alcotest.(check int) k g1 g2;
    Alcotest.(check int) (k ^ " expected slot")
      (Router.table r1).(fnv1a_ref k mod Router.nslots r1)
      g1
  done

let test_router_striped_balance () =
  let r = Router.create ~groups:8 () in
  let counts = Array.make 8 0 in
  Array.iter (fun g -> counts.(g) <- counts.(g) + 1) (Router.table r);
  Array.iteri
    (fun g c ->
      Alcotest.(check int) (Printf.sprintf "group %d slots" g) (Router.default_slots / 8) c)
    counts

let test_router_rebalance_moves_one_slot () =
  let r = Router.create ~groups:4 () in
  let keys = List.init 2000 (fun i -> Printf.sprintf "u%d" i) in
  let before = List.map (fun k -> (k, Router.group_of_key r k, Router.slot_of_key r k)) keys in
  let victim = 13 in
  Router.assign r ~slot:victim ~group:3;
  List.iter
    (fun (k, g, slot) ->
      let g' = Router.group_of_key r k in
      if slot = victim then
        Alcotest.(check int) (k ^ " moved to its slot's new group") 3 g'
      else Alcotest.(check int) (k ^ " unmoved") g g')
    before

let test_router_key_of_op () =
  List.iter
    (fun (op, want) -> Alcotest.(check string) op want (Router.key_of_op op))
    [
      ("PUT k1 v", "k1");
      ("GET k2", "k2");
      ("DEL key-9", "key-9");
      ("CAS k old new", "k");
      ("PING", "PING");
      ("", "");
    ]

(* ------------------------------------------------------------------ *)
(* Trace-id namespacing and stable-storage views                       *)
(* ------------------------------------------------------------------ *)

let test_traceid_namespace_roundtrip () =
  List.iter
    (fun (node, group) ->
      let origin = Traceid.namespace ~node ~group in
      Alcotest.(check (pair int (option int)))
        (Printf.sprintf "node=%d group=%d" node group)
        (node, Some group) (Traceid.split_origin origin);
      (* Namespaced origins never collide with plain node/client origins. *)
      Alcotest.(check bool) "disjoint from plain origins" true
        (origin >= Traceid.group_stride))
    [ (0, 0); (0, 7); (3, 0); (12, 4094); (1007, 5) ];
  Alcotest.(check (pair int (option int))) "plain origin splits as itself"
    (42, None) (Traceid.split_origin 42)

let test_stable_sub_views () =
  let root = Cp_storage.Mem.store () in
  let g0 = Storage.sub root ~name:"g0" in
  let g1 = Storage.sub root ~name:"g1" in
  Storage.put root "k" "root";
  Storage.put g0 "k" "zero";
  Storage.put g1 "k" "one";
  Alcotest.(check (option string)) "root view" (Some "root") (Storage.get root "k");
  Alcotest.(check (option string)) "g0 view" (Some "zero") (Storage.get g0 "k");
  Alcotest.(check (option string)) "g1 view" (Some "one") (Storage.get g1 "k");
  Storage.remove g0 "k";
  Alcotest.(check (option string)) "g0 removed alone" None (Storage.get g0 "k");
  Alcotest.(check (option string)) "g1 intact" (Some "one") (Storage.get g1 "k");
  Alcotest.(check (option string)) "root intact" (Some "root") (Storage.get root "k")

(* ------------------------------------------------------------------ *)
(* End-to-end fleet runs                                               *)
(* ------------------------------------------------------------------ *)

let kv_fleet ?(seed = 11) ?(groups = 4) ?params () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  Fleet.create ~seed ?params ~groups ~policy:Cheap_paxos.Cheap.policy ~initial
    ~app:(module Cp_smr.Kv) ()

let run_clients fleet ~clients ~per_client ~read_ratio =
  let handles =
    List.init clients (fun i ->
        let ops =
          Cp_workload.Workload.kv_ops
            ~rng:(Cp_util.Rng.create (500 + i))
            ~keys:64 ~read_ratio ~count:per_client ()
        in
        Fleet.add_client fleet ~think:1e-4 ~is_read:Cp_smr.Kv.read_only ~ops ())
  in
  let finished =
    Fleet.run_until fleet ~deadline:30. (fun () ->
        List.for_all (fun (_, c) -> Cp_smr.Client.is_finished c) handles)
  in
  (handles, finished)

let test_fleet_end_to_end () =
  let groups = 8 in
  let fleet = kv_fleet ~groups () in
  let _, finished = run_clients fleet ~clients:8 ~per_client:25 ~read_ratio:0. in
  Alcotest.(check bool) "all clients finished" true finished;
  (* Every group elected a leader and committed its share of the key space. *)
  List.iter
    (fun gid ->
      Alcotest.(check bool)
        (Printf.sprintf "group %d has a leader" gid)
        true
        (Fleet.leader fleet ~gid <> None);
      let chosen = Fleet.sum_group_metric fleet ~ids:(Fleet.mains fleet) ~gid "chosen" in
      Alcotest.(check bool)
        (Printf.sprintf "group %d committed instances (%d)" gid chosen)
        true (chosen > 0))
    (List.init groups Fun.id);
  (* The shared auxiliary stayed quiescent in every group. *)
  List.iter
    (fun (aux, gid, n) ->
      Alcotest.(check int) (Printf.sprintf "aux %d group %d quiescent" aux gid) 0 n)
    (Fleet.aux_group_recv fleet)

let test_fleet_routing_respects_shard_map () =
  (* Commits land in the group the router names for the key: drive disjoint
     single-key workloads and check each group's chosen count moved only if
     the router put some key there. *)
  let groups = 4 in
  let fleet = kv_fleet ~groups () in
  let router = Fleet.router fleet in
  let key = "pinned-key" in
  let target = Router.group_of_key router key in
  let ops =
    let n = ref 0 in
    fun _ ->
      incr n;
      if !n <= 20 then Some (Printf.sprintf "PUT %s v%d" key !n) else None
  in
  let _, client = Fleet.add_client fleet ~ops () in
  let finished =
    Fleet.run_until fleet ~deadline:30. (fun () -> Cp_smr.Client.is_finished client)
  in
  Alcotest.(check bool) "client finished" true finished;
  List.iter
    (fun gid ->
      let chosen = Fleet.sum_group_metric fleet ~ids:(Fleet.mains fleet) ~gid "chosen" in
      if gid = target then
        Alcotest.(check bool)
          (Printf.sprintf "target group %d committed (%d)" gid chosen)
          true (chosen >= 20)
      else
        Alcotest.(check int)
          (Printf.sprintf "group %d untouched by the single-key workload" gid)
          0 chosen)
    (List.init groups Fun.id)

let test_fleet_lease_reads_per_group () =
  (* PR 4's lease fast path must work per group: under a read-heavy workload
     with leases on, several groups serve reads locally. *)
  let params =
    { Cp_engine.Params.default with Cp_engine.Params.enable_leases = true }
  in
  let fleet = kv_fleet ~groups:4 ~params () in
  let _, finished = run_clients fleet ~clients:6 ~per_client:40 ~read_ratio:0.9 in
  Alcotest.(check bool) "all clients finished" true finished;
  let groups_with_lease_reads =
    List.filter
      (fun gid ->
        Fleet.sum_group_metric fleet ~ids:(Fleet.mains fleet) ~gid "lease_reads" > 0)
      (List.init 4 Fun.id)
  in
  Alcotest.(check bool)
    (Printf.sprintf "lease reads in %d/4 groups" (List.length groups_with_lease_reads))
    true
    (List.length groups_with_lease_reads >= 2)

let test_fleet_failover_all_groups () =
  (* Crashing a main machine fails over EVERY group it led: the auxiliary
     engages per group, service resumes, and the clients all finish. *)
  let fleet = kv_fleet ~groups:4 ~seed:13 () in
  let handles =
    List.init 4 (fun i ->
        let ops =
          Cp_workload.Workload.kv_ops
            ~rng:(Cp_util.Rng.create (700 + i))
            ~keys:32 ~read_ratio:0. ~count:40 ()
        in
        Fleet.add_client fleet ~think:1e-3 ~ops ())
  in
  Fleet.run ~until:0.05 fleet;
  Fleet.crash fleet 0;
  let finished =
    Fleet.run_until fleet ~deadline:30. (fun () ->
        List.for_all (fun (_, c) -> Cp_smr.Client.is_finished c) handles)
  in
  Alcotest.(check bool) "clients finish across the failover" true finished;
  List.iter
    (fun gid ->
      match Fleet.leader fleet ~gid with
      | Some l ->
        Alcotest.(check bool)
          (Printf.sprintf "group %d re-elected off the crashed machine (%d)" gid l)
          true (l <> 0)
      | None -> Alcotest.failf "group %d has no leader after failover" gid)
    (List.init 4 Fun.id)

let suite =
  [
    Alcotest.test_case "wheel fires in order" `Quick test_wheel_fires_in_order;
    Alcotest.test_case "wheel cancel" `Quick test_wheel_cancel;
    Alcotest.test_case "wheel cascades across levels" `Quick test_wheel_cascade_levels;
    Alcotest.test_case "wheel overdue fires immediately" `Quick
      test_wheel_overdue_fires_immediately;
    Alcotest.test_case "wheel fire-added due timer" `Quick test_wheel_fire_adds_due_timer;
    Alcotest.test_case "wheel next_deadline contract" `Quick
      test_wheel_next_deadline_contract;
    Alcotest.test_case "router hash is fnv1a" `Quick test_router_hash_is_fnv1a;
    Alcotest.test_case "router deterministic across restarts" `Quick
      test_router_deterministic_across_restarts;
    Alcotest.test_case "router striped balance" `Quick test_router_striped_balance;
    Alcotest.test_case "router rebalance moves one slot" `Quick
      test_router_rebalance_moves_one_slot;
    Alcotest.test_case "router key_of_op" `Quick test_router_key_of_op;
    Alcotest.test_case "traceid namespace roundtrip" `Quick
      test_traceid_namespace_roundtrip;
    Alcotest.test_case "stable sub views" `Quick test_stable_sub_views;
    Alcotest.test_case "fleet end to end" `Quick test_fleet_end_to_end;
    Alcotest.test_case "fleet routing respects shard map" `Quick
      test_fleet_routing_respects_shard_map;
    Alcotest.test_case "fleet lease reads per group" `Quick
      test_fleet_lease_reads_per_group;
    Alcotest.test_case "fleet failover all groups" `Quick test_fleet_failover_all_groups;
  ]
