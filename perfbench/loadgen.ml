module Rng = Cp_util.Rng

type op = { due : float; cmd : string; read : bool; phase : int }

let poisson rng ~rate ~start ~stop =
  if rate <= 0. then invalid_arg "Loadgen.poisson: rate must be positive";
  let acc = ref [] and t = ref (start +. Rng.exponential rng ~mean:(1. /. rate)) in
  while !t < stop do
    acc := !t :: !acc;
    t := !t +. Rng.exponential rng ~mean:(1. /. rate)
  done;
  Array.of_list (List.rev !acc)

type t = {
  ops : op array;
  mains : int array;
  timeout : float;
  sent : float array; (* first send; nan = not sent *)
  done_at : float array; (* reply time; nan = not acknowledged *)
  results : string option array;
  attempts : int array;
  last_dst : int array;
  retry_at : float array;
  outstanding : (int, unit) Hashtbl.t; (* op index *)
  mutable next : int; (* first op not yet due *)
  mutable hint : int; (* index into [mains] *)
  mutable acked : int;
  mutable resends : int;
  mutable redirects : int;
}

let create ~mains ~timeout ops =
  if Array.length mains = 0 then invalid_arg "Loadgen.create: no mains";
  let n = Array.length ops in
  {
    ops;
    mains;
    timeout;
    sent = Array.make n Float.nan;
    done_at = Array.make n Float.nan;
    results = Array.make n None;
    attempts = Array.make n 0;
    last_dst = Array.make n (-1);
    retry_at = Array.make n Float.infinity;
    outstanding = Hashtbl.create 64;
    next = 0;
    hint = 0;
    acked = 0;
    resends = 0;
    redirects = 0;
  }

let backoff t i = t.timeout *. Float.of_int (1 lsl min t.attempts.(i) 4)

let transmit t ~now ~send i =
  let dst = t.mains.(t.hint) in
  t.last_dst.(i) <- dst;
  t.retry_at.(i) <- now +. backoff t i;
  send ~dst ~seq:(i + 1) t.ops.(i)

let step t ~now ~send =
  let n = Array.length t.ops in
  while t.next < n && t.ops.(t.next).due <= now do
    let i = t.next in
    t.next <- i + 1;
    t.sent.(i) <- now;
    Hashtbl.replace t.outstanding i ();
    transmit t ~now ~send i
  done;
  let expired = Hashtbl.fold (fun i () acc -> if t.retry_at.(i) <= now then i :: acc else acc) t.outstanding [] in
  if expired <> [] then begin
    t.hint <- (t.hint + 1) mod Array.length t.mains;
    List.iter
      (fun i ->
        t.attempts.(i) <- t.attempts.(i) + 1;
        t.resends <- t.resends + 1;
        transmit t ~now ~send i)
      (List.sort compare expired)
  end

let on_reply t ~now ~seq ~result =
  let i = seq - 1 in
  if i >= 0 && i < Array.length t.ops && Hashtbl.mem t.outstanding i then begin
    Hashtbl.remove t.outstanding i;
    t.done_at.(i) <- now;
    t.results.(i) <- Some result;
    t.acked <- t.acked + 1
  end

let on_redirect t ~now ~hint ~send =
  let idx = ref None in
  Array.iteri (fun k m -> if m = hint then idx := Some k) t.mains;
  match !idx with
  | None -> ()
  | Some k ->
    t.hint <- k;
    let stale =
      Hashtbl.fold (fun i () acc -> if t.last_dst.(i) <> hint then i :: acc else acc) t.outstanding []
    in
    List.iter
      (fun i ->
        t.redirects <- t.redirects + 1;
        transmit t ~now ~send i)
      (List.sort compare stale)

let finished t = t.next >= Array.length t.ops && Hashtbl.length t.outstanding = 0

let opt f = if Float.is_nan f then None else Some f

let completed_at t i = opt t.done_at.(i)

let first_sent_at t i = opt t.sent.(i)

let result t i = t.results.(i)

let scheduled t = Array.length t.ops

let acked t = t.acked

let failed t = Array.length t.ops - t.acked

let resends t = t.resends

let redirects t = t.redirects

let lateness t =
  let acc = ref [] in
  Array.iteri (fun i s -> if not (Float.is_nan s) then acc := (s -. t.ops.(i).due) :: !acc) t.sent;
  Array.of_list !acc

let latencies ?phase t =
  let acc = ref [] in
  Array.iteri
    (fun i d ->
      let keep = match phase with None -> true | Some p -> t.ops.(i).phase = p in
      if keep && not (Float.is_nan d) then acc := (d -. t.ops.(i).due) :: !acc)
    t.done_at;
  Array.of_list !acc
