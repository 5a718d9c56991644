(* Span recorder for the traced run. Every call the benchmark hands to a
   layer (replica handlers, the ctx [send], the storage instance, the app,
   the fabric's pump) is wrapped in [time], which records one span: layer,
   start, end, parent span and the causal request id. Spans are kept in
   memory and written out when the run ends. A layer's self time is its
   span's duration minus the time its child spans cover. *)

type layer =
  | Engine  (** replica handler: [Core.step] and the effect interpreter *)
  | Send  (** ctx [send]: encode into the ring or the outbox *)
  | Put  (** storage [put] / [remove] *)
  | Flush  (** storage [flush] (fsync on the WAL) *)
  | Apply  (** application [apply] *)
  | Pump  (** [Ring.pump]: decode and dispatch *)
  | Timers  (** [Ring.run] when quiescent: the timer wheel *)
  | Client  (** benchmark clients' handlers *)

let layers = [| Engine; Send; Put; Flush; Apply; Pump; Timers; Client |]

let index = function
  | Engine -> 0
  | Send -> 1
  | Put -> 2
  | Flush -> 3
  | Apply -> 4
  | Pump -> 5
  | Timers -> 6
  | Client -> 7

let name = function
  | Engine -> "engine.handler"
  | Send -> "transport.send"
  | Put -> "storage.put"
  | Flush -> "storage.flush"
  | Apply -> "smr.apply"
  | Pump -> "transport.pump"
  | Timers -> "transport.timers"
  | Client -> "client"

let nlayers = Array.length layers

(* Spans beyond this many are counted, not kept (about 40 bytes each). *)
let capacity = 1_000_000

type frame = { f_idx : int; f_layer : int; mutable f_start : float; mutable f_child : float; f_tid : int }

type t = {
  traced : bool; (* wrappers installed *)
  mutable recording : bool; (* spans taken (measured phases only) *)
  mu : Mutex.t; (* UDP handlers run on several threads *)
  stacks : (int, frame list) Hashtbl.t; (* per thread *)
  self : float array;
  calls : int array;
  mutable flush_samples : float list;
  mutable n : int;
  mutable dropped : int;
  mutable s_layer : int array;
  mutable s_start : float array;
  mutable s_end : float array;
  mutable s_parent : int array;
  mutable s_tid : int array;
}

let create ~traced =
  {
    traced;
    recording = false;
    mu = Mutex.create ();
    stacks = Hashtbl.create 8;
    self = Array.make nlayers 0.;
    calls = Array.make nlayers 0;
    flush_samples = [];
    n = 0;
    dropped = 0;
    s_layer = [||];
    s_start = [||];
    s_end = [||];
    s_parent = [||];
    s_tid = [||];
  }

let off = create ~traced:false

let enabled t = t.traced

let set_recording t b = t.recording <- t.traced && b

let grow t =
  let cap = max 4096 (2 * Array.length t.s_layer) in
  let ext a z = Array.append a (Array.make (cap - Array.length a) z) in
  t.s_layer <- ext t.s_layer 0;
  t.s_start <- ext t.s_start 0.;
  t.s_end <- ext t.s_end 0.;
  t.s_parent <- ext t.s_parent 0;
  t.s_tid <- ext t.s_tid 0

let push t layer tid =
  Mutex.lock t.mu;
  let th = Thread.id (Thread.self ()) in
  let stack = Option.value (Hashtbl.find_opt t.stacks th) ~default:[] in
  let tid = if tid <> 0 then tid else match stack with f :: _ -> f.f_tid | [] -> 0 in
  let idx =
    if t.n >= capacity then -1
    else begin
      if t.n >= Array.length t.s_layer then grow t;
      let i = t.n in
      t.n <- i + 1;
      t.s_layer.(i) <- index layer;
      t.s_parent.(i) <- (match stack with f :: _ -> f.f_idx | [] -> -1);
      t.s_tid.(i) <- tid;
      i
    end
  in
  if idx < 0 then t.dropped <- t.dropped + 1;
  let fr = { f_idx = idx; f_layer = index layer; f_start = 0.; f_child = 0.; f_tid = tid } in
  Hashtbl.replace t.stacks th (fr :: stack);
  Mutex.unlock t.mu;
  (* The clock is read outside the lock, so lock time is not charged. *)
  fr.f_start <- Unix.gettimeofday ();
  fr

let pop t fr =
  let stop = Unix.gettimeofday () in
  Mutex.lock t.mu;
  let th = Thread.id (Thread.self ()) in
  let dur = stop -. fr.f_start in
  (match Hashtbl.find_opt t.stacks th with
  | Some (_ :: (parent :: _ as rest)) ->
    parent.f_child <- parent.f_child +. dur;
    Hashtbl.replace t.stacks th rest
  | Some _ | None -> Hashtbl.remove t.stacks th);
  t.self.(fr.f_layer) <- t.self.(fr.f_layer) +. (dur -. fr.f_child);
  t.calls.(fr.f_layer) <- t.calls.(fr.f_layer) + 1;
  if fr.f_layer = index Flush then t.flush_samples <- dur :: t.flush_samples;
  if fr.f_idx >= 0 then begin
    t.s_start.(fr.f_idx) <- fr.f_start;
    t.s_end.(fr.f_idx) <- stop
  end;
  Mutex.unlock t.mu

let time t layer ~tid f =
  if not t.recording then f ()
  else begin
    let fr = push t layer tid in
    match f () with
    | v ->
      pop t fr;
      v
    | exception e ->
      pop t fr;
      raise e
  end

let self_s t layer = t.self.(index layer)

let calls t layer = t.calls.(index layer)

let attributed_s t = Array.fold_left ( +. ) 0. t.self

let flush_samples t = t.flush_samples

let recorded t = t.n

let dropped t = t.dropped

(* One line per span: index, layer, start and end (microseconds from the
   first span), parent index (-1 at top level), causal trace id. *)
let dump t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.s_start.(0) else 0. in
  let us x = (x -. t0) *. 1e6 in
  output_string oc "idx\tlayer\tstart_us\tend_us\tparent\ttrace_id\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%.1f\t%.1f\t%d\t%d\n" i
      (name layers.(t.s_layer.(i)))
      (us t.s_start.(i)) (us t.s_end.(i)) t.s_parent.(i) t.s_tid.(i)
  done;
  close_out oc
