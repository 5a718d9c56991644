(* Outside-in instrumentation: decorators around the values the benchmark
   hands to each layer — the storage factory, the app module, the ctx
   [send] and the handlers [build] returns. Nothing inside the program is
   changed. With tracing off only [guard_handlers] and the flush clock of
   [store] (on the closed-loop workloads) stay in place. *)

module Storage = Cp_storage.Storage
module Engine = Cp_sim.Engine
module Traceid = Cp_obs.Traceid

(* A timing [Storage.S] instance around any other one. [flushed] sums the
   wall time spent in [flush] whether or not spans are recorded. *)
module Timed_store = struct
  type t = { inner : Storage.t; spans : Spans.t; flushed : float ref }

  let backend t = Storage.backend t.inner

  let put t k v = Spans.time t.spans Spans.Put ~tid:0 (fun () -> Storage.put t.inner k v)

  let get t k = Storage.get t.inner k

  let remove t k = Spans.time t.spans Spans.Put ~tid:0 (fun () -> Storage.remove t.inner k)

  let mem t k = Storage.mem t.inner k

  let keys t = Storage.keys t.inner

  let sub t ~name = { t with inner = Storage.sub t.inner ~name }

  let flush t =
    let t0 = Unix.gettimeofday () in
    Spans.time t.spans Spans.Flush ~tid:0 (fun () -> Storage.flush t.inner);
    t.flushed := !(t.flushed) +. (Unix.gettimeofday () -. t0)

  let wipe t = Storage.wipe t.inner

  let stats t = Storage.stats t.inner

  let close t = Storage.close t.inner
end

let store ?flushed spans inner =
  match flushed with
  | None when not (Spans.enabled spans) -> inner
  | _ ->
    let flushed = Option.value flushed ~default:(ref 0.) in
    Storage.Packed ((module Timed_store), { Timed_store.inner; spans; flushed })

(* The key-value app, timed, and exposing each replica's state to the
   final-state check through [on_init]. *)
let kv spans ~on_init : (module Cp_proto.Appi.S) =
  (module struct
    include Cp_smr.Kv

    let init () =
      let s = Cp_smr.Kv.init () in
      on_init s;
      s

    let apply st op = Spans.time spans Spans.Apply ~tid:0 (fun () -> Cp_smr.Kv.apply st op)
  end)

let ctx spans (c : _ Engine.ctx) =
  if not (Spans.enabled spans) then c
  else
    let send dst m =
      Spans.time spans Spans.Send ~tid:(Traceid.current c.Engine.tctx) (fun () -> c.Engine.send dst m)
    in
    { c with Engine.send }

let handlers spans layer (c : _ Engine.ctx) (h : _ Engine.handlers) =
  if not (Spans.enabled spans) then h
  else
    {
      Engine.on_message =
        (fun ~src m ->
          Spans.time spans layer ~tid:(Traceid.current c.Engine.tctx) (fun () ->
              h.Engine.on_message ~src m));
      on_timer =
        (fun ~tid ~tag ->
          Spans.time spans layer ~tid:(Traceid.current c.Engine.tctx) (fun () ->
              h.Engine.on_timer ~tid ~tag));
    }

(* Crash-stop from outside: once [alive] is cleared the node handles
   nothing, so it sends nothing either, as if its machine had halted. *)
let guard_handlers alive (h : _ Engine.handlers) =
  {
    Engine.on_message = (fun ~src m -> if !alive then h.Engine.on_message ~src m);
    on_timer = (fun ~tid ~tag -> if !alive then h.Engine.on_timer ~tid ~tag);
  }
