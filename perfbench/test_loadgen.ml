(* Unit tests of the open-loop generator: the schedule is a pure function of
   the seed and has the requested mean rate; the state machine times from
   the due time, resends on timeout, follows redirects and counts what was
   never acknowledged. *)

module Rng = Cp_util.Rng

let fail fmt = Printf.ksprintf failwith fmt

let check name cond = if not cond then fail "FAIL: %s" name

let test_schedule_repeats () =
  let a = Loadgen.poisson (Rng.create 7) ~rate:1000. ~start:0. ~stop:20. in
  let b = Loadgen.poisson (Rng.create 7) ~rate:1000. ~start:0. ~stop:20. in
  let c = Loadgen.poisson (Rng.create 8) ~rate:1000. ~start:0. ~stop:20. in
  check "same seed, same schedule" (a = b);
  check "other seed, other schedule" (a <> c);
  check "ascending" (Array.for_all Fun.id (Array.mapi (fun i t -> i = 0 || a.(i - 1) <= t) a));
  check "inside the window" (Array.for_all (fun t -> t >= 0. && t < 20.) a)

let test_mean_rate () =
  List.iter
    (fun rate ->
      let n = Array.length (Loadgen.poisson (Rng.create 11) ~rate ~start:5. ~stop:25.) in
      let measured = Float.of_int n /. 20. in
      (* 20 s at >= 250/s is >= 5000 arrivals: one standard deviation of the
         count is under 1.5%, so 5% never trips on a correct generator. *)
      check (Printf.sprintf "rate %.0f measured %.1f" rate measured)
        (Float.abs (measured -. rate) /. rate < 0.05))
    [ 250.; 1000. ]

let op due = { Loadgen.due; cmd = "PUT k v"; read = false; phase = 0 }

let test_state_machine () =
  let sent = ref [] in
  let send ~dst ~seq (_ : Loadgen.op) = sent := (dst, seq) :: !sent in
  let g = Loadgen.create ~mains:[| 0; 1 |] ~timeout:0.05 [| op 0.; op 0.01; op 0.02 |] in
  Loadgen.step g ~now:0.015 ~send;
  check "two due ops sent to main 0" (List.rev !sent = [ (0, 1); (0, 2) ]);
  Loadgen.on_reply g ~now:0.03 ~seq:1 ~result:"OK";
  Loadgen.on_reply g ~now:0.04 ~seq:1 ~result:"OK";
  check "duplicate reply ignored" (Loadgen.acked g = 1);
  check "latency from due time" (Loadgen.latencies g = [| 0.03 |]);
  check "lateness recorded" (List.mem 0.015 (Array.to_list (Loadgen.lateness g)));
  sent := [];
  Loadgen.on_redirect g ~now:0.04 ~hint:1 ~send;
  check "redirect resends outstanding op to hint" (!sent = [ (1, 2) ]);
  check "redirect counted" (Loadgen.redirects g = 1);
  sent := [];
  Loadgen.step g ~now:0.2 ~send;
  check "late first send goes to the hint" (List.mem (1, 3) !sent);
  check "timeout resend rotates to the next main" (List.mem (0, 2) !sent);
  check "resends counted" (Loadgen.resends g >= 1);
  check "unacknowledged ops are failed" (Loadgen.failed g = 2);
  Loadgen.on_reply g ~now:0.3 ~seq:2 ~result:"OK";
  Loadgen.on_reply g ~now:0.3 ~seq:3 ~result:"OK";
  check "finished" (Loadgen.finished g && Loadgen.failed g = 0)

let () =
  test_schedule_repeats ();
  test_mean_rate ();
  test_state_machine ();
  print_endline "loadgen: all checks passed"
