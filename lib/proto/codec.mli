(** Binary wire codec for {!Types.msg}.

    A compact, self-describing binary format: one tag byte per constructor,
    varint-encoded integers, length-prefixed strings. The simulator does not
    need it (messages travel as OCaml values), but the real-socket transport
    ([cp_netio]) does, and it pins down an actual wire format — {!Types.size_of}
    is validated against it in the test suite.

    Encoding has two sinks sharing one message grammar (so their output is
    byte-identical): a growable [Buffer] for cold paths, and a zero-copy
    cursor into a caller-owned [Bytes.t] ({!encode_into} and friends) for the
    wire hot path — frames serialize directly into preallocated per-peer
    output buffers, with no intermediate [string] and no per-send copy.

    Decoding is total: any input either decodes or yields [Error _]; decoding
    never raises. *)

val encode : Types.msg -> string

val decode : string -> (Types.msg, string) result

val encode_to_buffer : Buffer.t -> Types.msg -> unit
(** Append the plain frame for a message to a buffer (no clear). *)

(** {1 Scratch-buffer encoding}

    [encode] allocates a fresh buffer per message; senders on hot paths should
    hold one [scratch] and call {!encode_with}, which clears and reuses it.
    A scratch must not be shared between threads. *)

type scratch

val create_scratch : ?size:int -> unit -> scratch
(** [size] (default 256) is the initial backing capacity; the buffer grows as
    needed and keeps its high-water capacity across messages. *)

val encode_with : scratch -> Types.msg -> string
(** Equal output to [encode msg] for every message. *)

(** {1 Zero-copy encoding}

    [encode_into buf ~pos msg] writes the plain frame for [msg] into [buf]
    starting at [pos] and returns the position one past the last byte
    written, raising {!Overflow} (leaving a partial write behind — the
    caller's cursor must not advance) if the frame does not fit. The bytes
    written are exactly [encode msg]; likewise for the traced and grouped
    variants versus {!encode_traced} and {!encode_grouped}. *)

exception Overflow

val encode_into : Bytes.t -> pos:int -> Types.msg -> int

val encode_traced_into : Bytes.t -> pos:int -> tid:int -> Types.msg -> int

val encode_grouped_into : Bytes.t -> pos:int -> gid:int -> tid:int -> Types.msg -> int
(** Raises [Invalid_argument] on a negative [gid]. *)

(** {1 Traced frames}

    A traced frame is a plain frame plus a trailing marker byte and a varint
    trace id, so causal trace ids ride the existing wire format without a
    version bump. [encode_traced ~tid:0] is byte-identical to [encode], and
    {!decode_traced} accepts frames from senders that predate tracing
    (no suffix decodes as trace id 0 = untraced). {!decode} continues to
    reject the suffix as trailing bytes, so untraced receivers fail loudly
    rather than mis-parse. *)

val encode_traced : tid:int -> Types.msg -> string

val encode_traced_with : scratch -> tid:int -> Types.msg -> string

val decode_traced : string -> (Types.msg * int, string) result
(** Returns the message and its trace id (0 when the frame has none). *)

(** {1 Grouped frames}

    A grouped frame is a marker byte, a varint group id, and then a complete
    traced frame — the fleet multiplexers' wire format, letting every replica
    group hosted by one process share a single socket. [decode_grouped]
    accepts plain and traced frames as group 0, so fleet nodes interoperate
    with pre-fleet senders; group 0 senders should keep emitting ungrouped
    frames for the converse direction. *)

val encode_grouped : gid:int -> tid:int -> Types.msg -> string
(** Raises [Invalid_argument] on a negative [gid]. *)

val encode_grouped_with : scratch -> gid:int -> tid:int -> Types.msg -> string

val decode_grouped : string -> (int * Types.msg * int, string) result
(** Returns (group id, message, trace id). *)

val decode_grouped_sub : string -> pos:int -> stop:int -> (int * Types.msg * int, string) result
(** [decode_grouped] on the frame occupying [\[pos, stop)] of a larger
    buffer, without copying it out — how the ring transport decodes records
    in place. The frame must end exactly at [stop]. *)

(** {1 Packed datagrams}

    A packed datagram is a marker byte followed by one or more complete
    (plain, traced, or grouped) frames, each preceded by its 16-bit
    little-endian byte length. The flush-coalescing sender
    ({!Cp_transport.Outbox}) packs the whole send burst one protocol step
    emits toward one destination into a single datagram — one syscall per
    peer per step. A lone frame is sent bare (no packing overhead), so
    unbatched traffic stays byte-identical to the pre-packing wire format. *)

val packed_marker : char
(** First byte of a packed datagram (['\xf7'] — outside the message tag
    range and distinct from the trace and group markers). *)

type framed = {
  f_gid : int;  (** group id (0 for ungrouped frames) *)
  f_msg : Types.msg;
  f_tid : int;  (** trace id (0 = untraced) *)
  f_bytes : int;  (** encoded frame length, excluding packing overhead *)
}

val decode_frames : string -> (framed list, string) result
(** Decode a datagram into its frames: a packed datagram yields one [framed]
    per inner frame (in wire order), any other valid frame yields a
    singleton. Frames are decoded in place — no per-frame substring copy. *)

(** {1 Primitives} (exposed for tests and for app snapshot codecs) *)

val write_varint : Buffer.t -> int -> unit
(** Zig-zag varint; handles negative values. *)

val read_varint : string -> pos:int -> (int * int, string) result
(** Returns (value, next position). *)

val write_string : Buffer.t -> string -> unit
(** Varint length prefix, then the raw bytes. *)

val read_string : string -> pos:int -> (string * int, string) result
(** Returns (value, next position). *)

(** {1 Stable records}

    Typed, versioned codecs for what the effect interpreter persists — the
    acceptor header, one accepted vote, one chosen log entry, the snapshot.
    Each record leads
    with a version byte; decoding returns [Result] and requires exact
    landing, so a torn or foreign blob is an [Error], never an exception.
    These replace [Marshal] on the durable path: the byte layout is defined
    by the message grammar, not the OCaml runtime, so a WAL written under
    one compiler version reads back under another. *)

type acceptor_image = Ballot.t * (int * Types.vote) list * int
(** Promised ballot, votes by instance, compaction floor. The replica writes
    it as the acceptor {e header}, with an empty vote list: each vote is its
    own record ({!encode_stable_vote}). Headers written by older versions
    carry every retained vote inline and still decode. *)

val stable_version : int

val encode_acceptor_image : acceptor_image -> string

val decode_acceptor_image : string -> (acceptor_image, string) result

val encode_stable_vote : int * Types.vote -> string
(** One accepted vote and its instance. *)

val decode_stable_vote : string -> (int * Types.vote, string) result

val encode_stable_entry : Types.entry -> string

val decode_stable_entry : string -> (Types.entry, string) result

val encode_stable_snapshot : Types.snapshot -> string

val decode_stable_snapshot : string -> (Types.snapshot, string) result
