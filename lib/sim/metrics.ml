type t = {
  counters : (string, int ref) Hashtbl.t;
  series : (string, float list ref) Hashtbl.t; (* reversed *)
}

let create () = { counters = Hashtbl.create 32; series = Hashtbl.create 8 }

let counter t name =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let incr t ?(by = 1) name =
  let r = counter t name in
  r := !r + by

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let observe t name x =
  match Hashtbl.find_opt t.series name with
  | Some r -> r := x :: !r
  | None -> Hashtbl.add t.series name (ref [ x ])

let series t name =
  match Hashtbl.find_opt t.series name with Some r -> List.rev !r | None -> []

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sum_matching t ~prefix =
  Hashtbl.fold
    (fun k r acc -> if String.starts_with ~prefix k then acc + !r else acc)
    t.counters 0

type snapshot = {
  counters : (string * int) list;
  summaries : (string * Cp_util.Stats.summary) list;
}

let snapshot t =
  let summaries =
    Hashtbl.fold (fun k r acc -> (k, Cp_util.Stats.summarize (List.rev !r)) :: acc) t.series []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { counters = counters t; summaries }
