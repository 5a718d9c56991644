module Types = Cp_proto.Types
module Codec = Cp_proto.Codec
module Engine = Cp_sim.Engine
module Metrics = Cp_sim.Metrics
module Wheel = Cp_fleet.Wheel
module Obs = Cp_obs

type endpoint = {
  e_id : int;
  e_fab : fabric;
  e_rng : Cp_util.Rng.t;
  e_stable : Cp_storage.Storage.t;
  e_metrics : Metrics.t;
  e_trace : Obs.Trace.t;
  e_tctx : Obs.Traceid.t;
  mutable e_handlers : Types.msg Engine.handlers;
}

and fabric = {
  ring_capacity : int;
  seed : int;
  links : (int * int, Bytering.t) Hashtbl.t; (* (src, dst) -> ring *)
  endpoints : (int, endpoint) Hashtbl.t;
  wheel : (endpoint * string) Wheel.t; (* payload: (owner, tag) *)
  storage : int -> Cp_storage.Storage.t; (* per-endpoint store factory *)
  mutable time : float;
}

type t = fabric

let create ?(ring_capacity = 65536) ?(seed = 1)
    ?(storage = fun _ -> Cp_storage.Mem.store ()) () =
  {
    ring_capacity;
    seed;
    links = Hashtbl.create 16;
    endpoints = Hashtbl.create 8;
    wheel = Wheel.create ~now:0. ();
    storage;
    time = 0.;
  }

let now fab = fab.time

let link fab src dst =
  match Hashtbl.find_opt fab.links (src, dst) with
  | Some r -> r
  | None ->
    let r = Bytering.create ~capacity:fab.ring_capacity () in
    Hashtbl.replace fab.links (src, dst) r;
    r

let emit_ev ep ev =
  let dropped0 = Obs.Trace.dropped ep.e_trace in
  Obs.Trace.emit
    ~tid:(Obs.Traceid.current ep.e_tctx)
    ep.e_trace ~at:ep.e_fab.time ~node:ep.e_id ev;
  if Obs.Trace.dropped ep.e_trace > dropped0 then Metrics.incr ep.e_metrics "ring_dropped"

let guard ep ~where f =
  try f ()
  with exn ->
    Metrics.incr ep.e_metrics "handler_errors";
    emit_ev ep
      (Obs.Event.Debug (Printf.sprintf "%s raised: %s" where (Printexc.to_string exn)))

(* Zero-copy send: serialize the traced frame straight into the link's ring
   ([Codec.encode_traced_into] at the ring's write cursor) — no intermediate
   string, no syscall. The reservation uses {!Types.size_of} (an estimate)
   plus margin; if the encoder still overruns it, retry once with the ring's
   whole record budget before counting a drop. *)
let send_ep ep ~dst msg =
  let fab = ep.e_fab in
  let tid =
    match Types.classify msg with
    | "client_req" | "client_read" -> Obs.Traceid.mint ep.e_tctx
    | _ -> Obs.Traceid.current ep.e_tctx
  in
  let kind = Types.classify msg in
  Metrics.incr ep.e_metrics "msgs_sent";
  Metrics.incr ep.e_metrics ("sent." ^ kind);
  let ring = link fab ep.e_id dst in
  let encode buf ~pos = Codec.encode_traced_into buf ~pos ~tid msg in
  let attempt max = Bytering.write ring ~max ~f:encode in
  let written =
    let budget = Bytering.max_record ring in
    match attempt (min budget (Types.size_of msg + 128)) with
    | r -> r
    | exception Codec.Overflow -> ( match attempt budget with r -> r | exception Codec.Overflow -> None)
  in
  match written with
  | Some len ->
    Metrics.incr ep.e_metrics ~by:len "bytes_sent";
    Metrics.incr ep.e_metrics ~by:len "encoded_bytes";
    Metrics.incr ep.e_metrics ~by:len "wire_bytes"
  | None -> Metrics.incr ep.e_metrics "wire_drops"

let endpoint fab id =
  match Hashtbl.find_opt fab.endpoints id with
  | Some ep -> ep
  | None -> invalid_arg (Printf.sprintf "Ring.endpoint: unknown id %d" id)

(* The endpoint's capability record: the fabric's clock and wheel, the
   endpoint's own RNG, store, metrics and trace context. *)
let ctx ep =
  {
    Engine.self = ep.e_id;
    now = (fun () -> ep.e_fab.time);
    send = (fun dst msg -> send_ep ep ~dst msg);
    set_timer =
      (fun ?(tag = "") delay ->
        Wheel.add ep.e_fab.wheel ~at:(ep.e_fab.time +. Float.max 0. delay) (ep, tag));
    cancel_timer = (fun wid -> Wheel.cancel ep.e_fab.wheel wid);
    rng = ep.e_rng;
    stable = ep.e_stable;
    metrics = ep.e_metrics;
    emit = (fun ev -> emit_ev ep ev);
    tctx = ep.e_tctx;
  }

(* The endpoint is registered before [build] runs and removed again if
   [build] raises, so a failed build leaves no half-made node behind and
   the id can be retried. Timers that build armed stay in the wheel but
   name the dead endpoint, and [fire] drops them. *)
let add_node fab ~id ~build =
  if Hashtbl.mem fab.endpoints id then
    invalid_arg (Printf.sprintf "Ring.add_node: duplicate id %d" id);
  let ep =
    {
      e_id = id;
      e_fab = fab;
      e_rng = Cp_util.Rng.create ((fab.seed * 1009) + id);
      e_stable = fab.storage id;
      e_metrics = Metrics.create ();
      e_trace = Obs.Trace.create ();
      e_tctx = Obs.Traceid.create ~origin:id;
      e_handlers =
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) };
    }
  in
  Hashtbl.replace fab.endpoints id ep;
  match build (ctx ep) with
  | handlers -> ep.e_handlers <- handlers
  | exception exn ->
    Hashtbl.remove fab.endpoints id;
    raise exn

(* Deliver one ring record: decode the traced frame in place (the record is
   a window into the ring's own bytes; [Bytes.unsafe_to_string] is safe here
   because the fabric is single-threaded and nothing writes the ring within
   this dynamic extent) and run the destination handler. *)
let deliver fab ~src ~dst delivered buf ~pos ~len =
  match Hashtbl.find_opt fab.endpoints dst with
  | None -> () (* no such endpoint: drop *)
  | Some ep -> (
    let s = Bytes.unsafe_to_string buf in
    match Codec.decode_grouped_sub s ~pos ~stop:(pos + len) with
    | Error _ -> () (* corrupt record: drop *)
    | Ok (_gid, msg, tid) ->
      incr delivered;
      let kind = Types.classify msg in
      Metrics.incr ep.e_metrics "msgs_recv";
      Metrics.incr ep.e_metrics ~by:len "bytes_recv";
      Metrics.incr ep.e_metrics ("recv." ^ kind);
      Obs.Traceid.adopt ep.e_tctx tid;
      emit_ev ep (Obs.Event.Msg_recv { src; kind; bytes = len });
      guard ep ~where:("on_message " ^ kind) (fun () ->
          ep.e_handlers.Engine.on_message ~src msg))

let pump fab =
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) fab.links [])
  in
  let delivered = ref 0 in
  List.iter
    (fun (src, dst) ->
      let ring = Hashtbl.find fab.links (src, dst) in
      while Bytering.read ring ~f:(deliver fab ~src ~dst delivered) do
        ()
      done)
    keys;
  !delivered

let fire fab wid (ep, tag) =
  match Hashtbl.find_opt fab.endpoints ep.e_id with
  | Some live when live == ep ->
    (* A timer step starts a fresh causal chain, as in the sim and UDP
       runtimes. *)
    ignore (Obs.Traceid.mint ep.e_tctx);
    guard ep ~where:(Printf.sprintf "on_timer %S" tag) (fun () ->
        ep.e_handlers.Engine.on_timer ~tid:wid ~tag)
  | _ -> () (* endpoint gone (failed build): stale timer *)

let run ?(until = 60.) fab =
  let rec loop () =
    while pump fab > 0 do
      ()
    done;
    match Wheel.next_deadline fab.wheel with
    | Some d when d <= until ->
      fab.time <- Float.max fab.time d;
      Wheel.advance fab.wheel ~now:fab.time ~fire:(fun wid p -> fire fab wid p);
      loop ()
    | _ -> if pump fab > 0 then loop ()
  in
  loop ()

let metrics fab id = (endpoint fab id).e_metrics

let trace fab id = (endpoint fab id).e_trace

let stable fab id = (endpoint fab id).e_stable
