module Codec = Cp_proto.Codec

(* Per-destination buffer in packed-datagram layout: byte 0 is the packed
   marker, then per frame a 2-byte little-endian length and the frame
   itself. [b_len] is the fill point; [b_frames] counts frames since the
   last flush. *)
type dstbuf = { b_buf : Bytes.t; mutable b_len : int; mutable b_frames : int }

(* [live] holds the buffers appended to since the last flush — it is the
   dirty set — and [free] the flushed ones, reused for the next new
   destination. So the outbox holds as many buffers as one flush's widest
   fan-out, not one per destination ever seen. *)
type t = {
  cap : int;
  send : dst:int -> Bytes.t -> off:int -> len:int -> unit;
  live : (int, dstbuf) Hashtbl.t;
  mutable free : dstbuf list;
}

let create ?(capacity = 61440) ~send () =
  let cap = min 65507 (max 512 capacity) in
  { cap; send; live = Hashtbl.create 8; free = [] }

(* [Hashtbl.find] rather than [find_opt]: the steady-state hit allocates
   nothing (no [Some] box) — this is once per frame on the wire path. A
   recycled buffer is empty ([flush_buf] reset it) and keeps its marker
   byte: nothing after a flush writes below offset 1. *)
let buf_for t dst =
  match Hashtbl.find t.live dst with
  | b -> b
  | exception Not_found ->
    let b =
      match t.free with
      | b :: rest ->
        t.free <- rest;
        b
      | [] ->
        let b = { b_buf = Bytes.create t.cap; b_len = 1; b_frames = 0 } in
        Bytes.set b.b_buf 0 Codec.packed_marker;
        b
    in
    Hashtbl.add t.live dst b;
    b

let flush_buf t dst b =
  if b.b_frames = 1 then
    (* Strip marker + length header: a lone frame goes out bare, exactly the
       bytes an unbatched sender would have produced. *)
    t.send ~dst b.b_buf ~off:3 ~len:(b.b_len - 3)
  else if b.b_frames > 1 then t.send ~dst b.b_buf ~off:0 ~len:b.b_len;
  b.b_len <- 1;
  b.b_frames <- 0

(* The live table is emptied before the first send, so frames a [send]
   callback appends to other destinations wait for the next flush. *)
let flush t =
  if Hashtbl.length t.live > 0 then begin
    let bufs = Hashtbl.fold (fun dst b acc -> (dst, b) :: acc) t.live [] in
    Hashtbl.reset t.live;
    List.iter
      (fun (dst, b) ->
        flush_buf t dst b;
        t.free <- b :: t.free)
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) bufs)
  end

(* The retry is a tail call rather than a [try]-wrapped closure. After
   [flush_buf] the buffer is empty ([b_frames = 0]), so a frame that still
   does not fit fails the [when] guard and Overflow propagates to the
   caller; the empty buffer stays live until the next flush recycles it. *)
let rec append t ~dst ~encode =
  let b = buf_for t dst in
  (* Reserve the 2-byte length slot, encode, then backfill the length. *)
  let fpos = b.b_len + 2 in
  if fpos > t.cap then begin
    if b.b_frames = 0 then raise Codec.Overflow;
    flush_buf t dst b;
    append t ~dst ~encode
  end
  else
    match encode b.b_buf ~pos:fpos with
    | stop ->
      (* cap <= 65507 < 0xffff, so the length always fits its 16-bit slot. *)
      let flen = stop - fpos in
      Bytes.set b.b_buf b.b_len (Char.chr (flen land 0xff));
      Bytes.set b.b_buf (b.b_len + 1) (Char.chr ((flen lsr 8) land 0xff));
      b.b_len <- stop;
      b.b_frames <- b.b_frames + 1;
      flen
    | exception Codec.Overflow when b.b_frames > 0 ->
      flush_buf t dst b;
      append t ~dst ~encode

let pending t = Hashtbl.fold (fun _ b n -> if b.b_frames > 0 then n + 1 else n) t.live 0

let buffers t = Hashtbl.length t.live + List.length t.free
