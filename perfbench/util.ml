(* Measurement helpers shared by the workloads: clocks, percentiles and the
   result line. *)

let wall = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Median and 99th percentile of a sample, by [Cp_util.Stats] (linear
   interpolation between ranks); 0 on an empty sample. *)
let median l = (Cp_util.Stats.summarize l).Cp_util.Stats.p50

let p99 l = (Cp_util.Stats.summarize l).Cp_util.Stats.p99

(* A fixed amount of CPU work that does not depend on the code under
   test: integer arithmetic, short-lived allocation and hash-table traffic.
   Returns its wall time in seconds. *)
let reference_work () =
  let t0 = wall () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 1 to 20_000 do
    let k = (i * 7919) land 4095 in
    Hashtbl.replace h k (string_of_int i);
    (match Hashtbl.find_opt h ((k * 31) land 4095) with Some v -> acc := !acc + String.length v | None -> ());
    for j = 1 to 50 do
      acc := !acc + ((i * j) land 7)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  wall () -. t0

(* Timings are reported at reference speed: as if [reference_work] took
   [reference_s]. [speed_of r0 r1] is the slowdown factor of an episode
   bracketed by two reference measurements; a raw time divided by it (a
   raw rate multiplied by it) is the time at reference speed. The host
   this benchmark was built on changes speed by up to 2x within seconds
   as its neighbours come and go; these factors track that, so figures
   repeat from run to run. *)
let reference_s = 0.010

let speed_of r0 r1 = (r0 +. r1) /. 2. /. reference_s

(* The disk's counterpart: mean time of one 20 KB append + fsync to a
   scratch file in [dir] (about one acceptor image), and the fsync time the
   WAL workload's flush time is scaled to. *)
let disk_reference dir =
  let path = Filename.concat dir "fsync-probe.dat" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let buf = Bytes.make 20_000 'r' and n = 10 in
  let t0 = wall () in
  for _ = 1 to n do
    ignore (Unix.write fd buf 0 (Bytes.length buf));
    Unix.fsync fd
  done;
  let dt = (wall () -. t0) /. Float.of_int n in
  Unix.close fd;
  Sys.remove path;
  dt

let disk_reference_s = 250e-6

let ratio num den = if den = 0. then 0. else num /. den

let words_mb w = Float.of_int (w * (Sys.word_size / 8)) /. 1048576.

(* The largest the major heap has been in this process. It depends on when
   major cycles happen to finish, so it is reported per layer only. *)
let top_heap_mb () = words_mb (Gc.quick_stat ()).Gc.top_heap_words

(* Live heap after a full major collection: what the process retains. *)
let live_heap_mb () =
  Gc.full_major ();
  words_mb (Gc.quick_stat ()).Gc.live_words

(* Remove a directory tree (the WAL workload's per-episode store). *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Values are unique per operation, so the final-state and linearizability
   checks can tell every write apart. *)
let value_of i =
  let s = Printf.sprintf "v%d-" i in
  s ^ String.make (64 - String.length s) 'x'

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let result_line ~correct ~attempted ~failed metrics =
  let body =
    metrics
    |> List.map (fun { name; value; unit_ } ->
           let v = if Float.is_finite value then Printf.sprintf "%.17g" value else "0" in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name v unit_)
    |> String.concat ", "
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

(* What a workload run hands back to the driver in bench.ml. [e2e] and
   [layer] map metric names to values; a per-layer metric a workload does
   not exercise is left out and printed as 0. [errors] lists every failed
   correctness check; [notes] are summary lines printed before the result. *)
type outcome = {
  attempted : int;
  failed : int;
  errors : string list;
  e2e : (string * float) list;
  layer : (string * float) list;
  notes : string list;
}
