(* Transport layer: the byte ring and outbox primitives, the conformance
   suite (one seeded schedule over sim / ring / UDP must yield byte-identical
   canonical traces, pinned by a committed golden file), and a full replica
   cluster committing over the in-process ring fabric. *)

module Bytering = Cp_transport.Bytering
module Outbox = Cp_transport.Outbox
module Ring = Cp_transport.Ring
module Conformance = Cp_harness.Conformance
module Codec = Cp_proto.Codec
module Types = Cp_proto.Types
module Replica = Cp_engine.Replica
module Client = Cp_smr.Client

(* --- byte ring --------------------------------------------------------- *)

let write_str ring s =
  Bytering.write ring
    ~max:(String.length s)
    ~f:(fun buf ~pos ->
      Bytes.blit_string s 0 buf pos (String.length s);
      pos + String.length s)

let read_str ring =
  let got = ref None in
  let ok =
    Bytering.read ring ~f:(fun buf ~pos ~len -> got := Some (Bytes.sub_string buf pos len))
  in
  if ok then !got else None

let test_bytering_roundtrip () =
  let ring = Bytering.create ~capacity:256 () in
  Alcotest.(check int) "max record" (min 126 0xfffe) (Bytering.max_record ring);
  Alcotest.(check bool) "starts empty" true (Bytering.is_empty ring);
  let records = [ "a"; ""; String.make 50 'x'; "hello world" ] in
  List.iter (fun s -> Alcotest.(check (option int)) "write" (Some (String.length s)) (write_str ring s)) records;
  List.iter
    (fun s -> Alcotest.(check (option string)) "read back in order" (Some s) (read_str ring))
    records;
  Alcotest.(check (option string)) "drained" None (read_str ring);
  Alcotest.(check bool) "empty again" true (Bytering.is_empty ring)

(* Records near half the capacity force the skip-marker wrap path over and
   over; every record must still come back contiguous and intact. *)
let test_bytering_wrap () =
  let ring = Bytering.create ~capacity:256 () in
  for i = 0 to 199 do
    let s = String.make (80 + (i mod 40)) (Char.chr (Char.code 'a' + (i mod 26))) in
    (match write_str ring s with
    | Some n -> Alcotest.(check int) "committed length" (String.length s) n
    | None -> Alcotest.failf "write %d refused with an empty ring" i);
    Alcotest.(check (option string)) "wrap-preserving read" (Some s) (read_str ring)
  done

let test_bytering_full_and_refusal () =
  let ring = Bytering.create ~capacity:256 () in
  Alcotest.(check (option int)) "oversized refused" None
    (write_str ring (String.make (Bytering.max_record ring + 1) 'z'));
  let s = String.make 100 'q' in
  let written = ref 0 in
  while write_str ring s <> None do
    incr written
  done;
  Alcotest.(check bool) "filled up" true (!written >= 1);
  Alcotest.(check (option string)) "drain one" (Some s) (read_str ring);
  Alcotest.(check bool) "room again after a read" true (write_str ring s <> None)

let test_bytering_encoder_exn_commits_nothing () =
  let ring = Bytering.create ~capacity:256 () in
  (try
     ignore
       (Bytering.write ring ~max:50 ~f:(fun buf ~pos ->
            Bytes.set buf pos 'X';
            failwith "encoder blew up"));
     Alcotest.fail "exception was swallowed"
   with Failure _ -> ());
  Alcotest.(check bool) "nothing committed" true (Bytering.is_empty ring);
  ignore (write_str ring "after");
  Alcotest.(check (option string)) "ring still consistent" (Some "after") (read_str ring)

(* --- outbox ------------------------------------------------------------ *)

let mk_capture () =
  let sent = ref [] in
  let send ~dst buf ~off ~len = sent := (dst, Bytes.sub_string buf off len) :: !sent in
  (sent, send)

let hb i =
  Types.Heartbeat
    { ballot = Cp_proto.Ballot.make ~round:i ~leader:0; commit_floor = i; sent_at = 0.5 }

let append_traced ob ~dst ~tid msg =
  Outbox.append ob ~dst ~encode:(fun buf ~pos -> Codec.encode_traced_into buf ~pos ~tid msg)

let test_outbox_single_frame_bare () =
  let sent, send = mk_capture () in
  let ob = Outbox.create ~send () in
  let n = append_traced ob ~dst:4 ~tid:9 (hb 1) in
  Alcotest.(check int) "append returns frame length" (String.length (Codec.encode_traced ~tid:9 (hb 1))) n;
  Alcotest.(check int) "pending before flush" 1 (Outbox.pending ob);
  Outbox.flush ob;
  Alcotest.(check int) "pending after flush" 0 (Outbox.pending ob);
  (* The whole point of the bare path: one frame batches into the exact
     bytes the unbatched sender put on the wire. *)
  Alcotest.(check (list (pair int string)))
    "single frame is byte-identical to the unbatched format"
    [ (4, Codec.encode_traced ~tid:9 (hb 1)) ]
    !sent

let test_outbox_packs_per_destination () =
  let sent, send = mk_capture () in
  let ob = Outbox.create ~send () in
  ignore (append_traced ob ~dst:7 ~tid:1 (hb 1));
  ignore (append_traced ob ~dst:7 ~tid:2 (hb 2));
  ignore (append_traced ob ~dst:7 ~tid:3 (hb 3));
  ignore (append_traced ob ~dst:5 ~tid:4 (hb 4));
  Alcotest.(check int) "two dirty destinations" 2 (Outbox.pending ob);
  Outbox.flush ob;
  (match List.rev !sent with
  | [ (5, bare); (7, packed) ] ->
    (* Ascending-destination flush order, single frame bare, burst packed. *)
    Alcotest.(check string) "dst 5 bare" (Codec.encode_traced ~tid:4 (hb 4)) bare;
    Alcotest.(check char) "dst 7 packed" Codec.packed_marker packed.[0];
    (match Codec.decode_frames packed with
    | Ok frames ->
      Alcotest.(check int) "three frames" 3 (List.length frames);
      List.iteri
        (fun i f ->
          Alcotest.(check int) "frame tid in order" (i + 1) f.Codec.f_tid;
          Alcotest.(check string) "frame kind" "heartbeat" (Types.classify f.Codec.f_msg))
        frames
    | Error e -> Alcotest.failf "decode_frames: %s" e)
  | l -> Alcotest.failf "unexpected datagram count %d" (List.length l));
  Outbox.flush ob;
  Alcotest.(check int) "flush is idempotent" 2 (List.length !sent)

(* A full buffer flushes mid-append and the frame retries into the empty
   buffer; nothing is lost or reordered across the datagram boundary. *)
let test_outbox_overflow_flush_retry () =
  let sent, send = mk_capture () in
  let ob = Outbox.create ~capacity:512 ~send () in
  let msg i = Types.ClientResp { client = 1; seq = i; result = String.make 100 'p' } in
  let total = 9 in
  for i = 1 to total do
    ignore (append_traced ob ~dst:2 ~tid:i (msg i))
  done;
  Outbox.flush ob;
  Alcotest.(check bool) "capacity forced interim datagrams" true (List.length !sent >= 2);
  let seqs =
    List.concat_map
      (fun (dst, dgram) ->
        Alcotest.(check int) "all to dst 2" 2 dst;
        match Codec.decode_frames dgram with
        | Error e -> Alcotest.failf "decode_frames: %s" e
        | Ok frames ->
          List.map
            (fun f ->
              match f.Codec.f_msg with
              | Types.ClientResp { seq; _ } -> seq
              | m -> Alcotest.failf "unexpected %s" (Types.classify m))
            frames)
      (List.rev !sent)
  in
  Alcotest.(check (list int)) "every frame, in order, across datagrams"
    (List.init total (fun i -> i + 1))
    seqs

let test_outbox_giant_frame_overflows () =
  let sent, send = mk_capture () in
  let ob = Outbox.create ~capacity:512 ~send () in
  let giant = Types.ClientResp { client = 1; seq = 1; result = String.make 4096 'g' } in
  (try
     ignore (append_traced ob ~dst:1 ~tid:0 giant);
     Alcotest.fail "Overflow expected"
   with Codec.Overflow -> ());
  (* The outbox stays usable for normal frames afterwards. *)
  ignore (append_traced ob ~dst:1 ~tid:0 (hb 1));
  Outbox.flush ob;
  Alcotest.(check int) "normal frame still goes out" 1 (List.length !sent)

(* Buffers live only until the next flush: a sender that meets a new
   destination every step (a client id per request) keeps one buffer, not
   one per destination ever seen. *)
let test_outbox_recycles_buffers () =
  let sent, send = mk_capture () in
  let ob = Outbox.create ~send () in
  for dst = 1 to 1000 do
    ignore (append_traced ob ~dst ~tid:dst (hb dst));
    Outbox.flush ob
  done;
  Alcotest.(check int) "one datagram per destination" 1000 (List.length !sent);
  Alcotest.(check int) "at most one buffer held" 1 (Outbox.buffers ob);
  (* A recycled buffer keeps the exact wire layouts: a lone frame bare, a
     burst packed as marker then (2-byte little-endian length, frame)*. *)
  sent := [];
  ignore (append_traced ob ~dst:2000 ~tid:5 (hb 5));
  Outbox.flush ob;
  ignore (append_traced ob ~dst:3000 ~tid:6 (hb 6));
  ignore (append_traced ob ~dst:3000 ~tid:7 (hb 7));
  Outbox.flush ob;
  let packed frames =
    String.make 1 Codec.packed_marker
    ^ String.concat ""
        (List.map
           (fun f ->
             let n = String.length f in
             String.init 2 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)) ^ f)
           frames)
  in
  Alcotest.(check (list (pair int string)))
    "reused buffer: lone frame bare, burst packed"
    [
      (2000, Codec.encode_traced ~tid:5 (hb 5));
      (3000, packed [ Codec.encode_traced ~tid:6 (hb 6); Codec.encode_traced ~tid:7 (hb 7) ]);
    ]
    (List.rev !sent);
  Alcotest.(check int) "still one buffer" 1 (Outbox.buffers ob);
  (* A wider burst keeps one buffer per destination in it, flushed in
     ascending order, and no more afterwards. *)
  sent := [];
  List.iter (fun dst -> ignore (append_traced ob ~dst ~tid:dst (hb dst))) [ 9; 3; 6 ];
  Outbox.flush ob;
  Alcotest.(check (list int)) "ascending flush order" [ 3; 6; 9 ] (List.rev_map fst !sent);
  Alcotest.(check int) "buffers bounded by the widest flush" 3 (Outbox.buffers ob)

(* --- conformance ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_conformance_sim_golden () =
  let path = Conformance.golden_file in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing golden file %s (run `dune exec test/golden_gen.exe`)" path;
  let dump = Conformance.run_sim () in
  Alcotest.(check bool) "schedule is non-trivial" true (String.length dump > 1000);
  Alcotest.(check string) "sim dump matches committed golden" (read_file path) dump

let test_conformance_ring () =
  Alcotest.(check string) "ring dump byte-identical to sim"
    (Conformance.run_sim ()) (Conformance.run_ring ())

let test_conformance_udp () =
  Alcotest.(check string) "udp dump byte-identical to sim"
    (Conformance.run_sim ())
    (Conformance.run_udp ~base_port:46100 ())

(* Seed independence of the harness itself: a different seed yields a
   different schedule, and sim/ring still agree on it. *)
let test_conformance_other_seed () =
  let seed = 1234 in
  let sim = Conformance.run_sim ~seed () in
  Alcotest.(check bool) "distinct schedule" false (String.equal sim (Conformance.run_sim ()));
  Alcotest.(check string) "ring agrees on the other seed too" sim (Conformance.run_ring ~seed ())

(* --- a real cluster over the ring fabric ------------------------------- *)

(* The same replica and client builders the simulator and the UDP runtime
   host, wired over in-process byte rings: commits must complete and the
   mains' logs must agree, with zero ring drops. *)
let test_ring_cluster_commits () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let universe_mains = [ 0; 1 ] and universe_auxes = [ 2 ] in
  let fab = Ring.create ~seed:99 () in
  let replicas = Hashtbl.create 4 in
  let make_replica id role =
    Ring.add_node fab ~id ~build:(fun ctx ->
        let r =
          Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy
            ~params:Cp_engine.Params.default ~initial ~universe_mains ~universe_auxes
            ~app:(module Cp_smr.Counter)
        in
        Hashtbl.replace replicas id r;
        Replica.handlers r)
  in
  List.iter (fun id -> make_replica id Replica.Main) universe_mains;
  List.iter (fun id -> make_replica id Replica.Aux) universe_auxes;
  let total = 25 in
  let client_cell = ref None in
  Ring.add_node fab ~id:1000 ~build:(fun ctx ->
      let c =
        Client.create ctx ~mains:universe_mains ~timeout:0.2
          ~ops:(fun seq -> if seq <= total then Some (Cp_smr.Counter.inc 1) else None)
          ()
      in
      client_cell := Some c;
      Client.handlers c);
  let client = Option.get !client_cell in
  Ring.run ~until:20. fab;
  Alcotest.(check bool) "client finished over the ring fabric" true (Client.is_finished client);
  Alcotest.(check int) "all ops done" total (Client.done_count client);
  let dumps =
    List.map
      (fun id ->
        let r = Hashtbl.find replicas id in
        {
          Cp_checker.Consistency.node = id;
          base = Replica.log_base r;
          entries = Replica.log_range r ~lo:(Replica.log_base r) ~hi:max_int;
        })
      universe_mains
  in
  (match Cp_checker.Consistency.agreement dumps with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun id ->
      let m = Ring.metrics fab id in
      Alcotest.(check int)
        (Printf.sprintf "node %d: no ring drops" id)
        0
        (Cp_sim.Metrics.get m "wire_drops");
      Alcotest.(check bool)
        (Printf.sprintf "node %d: wire bytes counted" id)
        true
        (Cp_sim.Metrics.get m "wire_bytes" > 0))
    (universe_mains @ [ 1000 ])

(* A builder that raises leaves no endpoint behind: the id can be added
   again, and a timer the failed build armed never reaches the new
   endpoint's handlers. *)
let test_ring_add_node_build_raises () =
  let fab = Ring.create () in
  let stale = ref 0 and fresh = ref 0 in
  let idle = { Cp_sim.Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) } in
  Alcotest.check_raises "build's exception propagates" (Failure "boom") (fun () ->
      Ring.add_node fab ~id:7 ~build:(fun ctx ->
          ignore (ctx.Cp_sim.Engine.set_timer ~tag:"stale" 0.1);
          failwith "boom"));
  Alcotest.check_raises "no endpoint left" (Invalid_argument "Ring.endpoint: unknown id 7")
    (fun () -> ignore (Ring.metrics fab 7));
  Ring.add_node fab ~id:7 ~build:(fun ctx ->
      ignore (ctx.Cp_sim.Engine.set_timer ~tag:"fresh" 0.2);
      {
        idle with
        Cp_sim.Engine.on_timer =
          (fun ~tid:_ ~tag -> if tag = "stale" then incr stale else incr fresh);
      });
  Ring.run ~until:1. fab;
  Alcotest.(check int) "stale timer dropped" 0 !stale;
  Alcotest.(check int) "retried endpoint's timer fires" 1 !fresh

let suite =
  [
    Alcotest.test_case "bytering: write/read roundtrip" `Quick test_bytering_roundtrip;
    Alcotest.test_case "bytering: skip-marker wrap preserves records" `Quick test_bytering_wrap;
    Alcotest.test_case "bytering: refusal when full or oversized" `Quick
      test_bytering_full_and_refusal;
    Alcotest.test_case "bytering: encoder exception commits nothing" `Quick
      test_bytering_encoder_exn_commits_nothing;
    Alcotest.test_case "outbox: single frame flushes bare" `Quick test_outbox_single_frame_bare;
    Alcotest.test_case "outbox: burst packs per destination" `Quick
      test_outbox_packs_per_destination;
    Alcotest.test_case "outbox: full buffer flushes and retries" `Quick
      test_outbox_overflow_flush_retry;
    Alcotest.test_case "outbox: oversized frame raises Overflow" `Quick
      test_outbox_giant_frame_overflows;
    Alcotest.test_case "outbox: flushed buffers are recycled" `Quick
      test_outbox_recycles_buffers;
    Alcotest.test_case "conformance: sim matches committed golden" `Quick
      test_conformance_sim_golden;
    Alcotest.test_case "conformance: ring byte-identical to sim" `Quick test_conformance_ring;
    Alcotest.test_case "conformance: udp byte-identical to sim" `Slow test_conformance_udp;
    Alcotest.test_case "conformance: seeds vary the schedule" `Quick test_conformance_other_seed;
    Alcotest.test_case "ring fabric: replica cluster commits" `Slow test_ring_cluster_commits;
    Alcotest.test_case "ring fabric: add_node undone when build raises" `Quick
      test_ring_add_node_build_raises;
  ]
