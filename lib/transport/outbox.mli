(** Flush-coalescing per-destination send buffers.

    One [Core.step] typically emits a burst of messages — phase-2 rounds
    fan a [P2a] to every acceptor, commits chase them — and sending each as
    its own datagram costs one syscall per message. An outbox accumulates
    the burst instead: {!append} serializes each frame {e zero-copy} into a
    per-destination buffer (packed-datagram layout, see
    {!Cp_proto.Codec.decode_frames}), and {!flush} hands each such buffer
    to the [send] callback once — one syscall per peer per step, iovec-style
    buffer chaining without the iovec.

    Buffers are recycled: a destination holds one only between its first
    append and the next flush, which returns it to a free list for the
    next destination. Memory is bounded by one flush's fan-out (at most
    that many [capacity]-byte buffers), however many destinations — client
    ids included — the outbox has ever served.

    A buffer holding a {e single} frame is flushed bare (packing prefix and
    length header stripped), byte-identical to the unbatched wire format,
    so packing costs nothing when there is nothing to coalesce.

    Not thread-safe: one outbox per sender, under the sender's lock — the
    same discipline as {!Cp_proto.Codec.scratch}. *)

type t

val create : ?capacity:int -> send:(dst:int -> Bytes.t -> off:int -> len:int -> unit) -> unit -> t
(** [capacity] (default 61440, clamped to [512, 65507]) bounds one packed
    datagram; 65507 is the maximum UDP payload and every frame length must
    fit the 16-bit packing header. [send] transmits one wire datagram; it
    must not re-enter the outbox for the same destination. *)

val append : t -> dst:int -> encode:(Bytes.t -> pos:int -> int) -> int
(** Serialize one frame into [dst]'s buffer via [encode buf ~pos] (which
    returns the end position — the {!Cp_proto.Codec.encode_into} contract)
    and return the frame's byte length. If the buffer is full, it is flushed
    first and the encode retried into the empty buffer; a frame too large
    even for an empty buffer raises {!Cp_proto.Codec.Overflow} (the caller
    falls back to its own path and accounts the copy). *)

val flush : t -> unit
(** Transmit every destination buffer with pending frames, in ascending
    destination order (deterministic), and recycle the buffers. No-op when nothing
    pends — call it unconditionally after every handler invocation. *)

val pending : t -> int
(** Number of destinations with unflushed frames (for tests). *)

val buffers : t -> int
(** Number of buffers held, in use or free (for tests). *)
