(** Binary codec for {!Msg.t}.

    The simulator itself moves OCaml values, not bytes — but the byte format
    matters twice: (1) {!Msg.wire_size} must account exactly the bytes a
    real deployment would send (it drives the bandwidth model), and (2) a
    persistent store needs a serial form. The invariant
    [String.length (encode ~n m) = Msg.wire_size ~n m] is enforced by a
    property test.

    Encoding notes: integers are big-endian fixed width; signatures occupy
    the full κ = 64 wire bytes (zero-padded — the simulated tags are 32
    bytes); on the wire, transaction payloads are zero-filled to their
    declared size. *)

exception Decode_error of string

val encode : n:int -> Msg.t -> string
(** Vertices choose their own layout: a [Vertex.t] built with
    [~compact:true] (sparse-edge mode) is written in the compact form —
    u8 edge counts, strong edges as ascending u16 source + digest with the
    target round implied, weak edges as (u32 round, u16 source, digest).
    The dense layout is byte-for-byte what it always was. *)

val decode : n:int -> ?compact:bool -> string -> Msg.t
(** Raises {!Decode_error} on malformed input. Round-trips with {!encode}
    up to signature padding (padding is stripped back to 32-byte tags).
    [compact] (default [false]) must match the encoder's vertex layout —
    it is a protocol-level parameter (every vertex of a sparse-mode run is
    compact), not a wire flag, so the dense format stays unchanged. *)

(** Standalone entry points used by the store and tests. *)

val encode_vertex : n:int -> Vertex.t -> string
val decode_vertex : n:int -> ?compact:bool -> string -> Vertex.t

val encode_block : Block.t -> string
(** The store form of a block: its [record] string itself, shared with
    the block rather than copied — the 12-byte block header and each
    transaction's 24-byte header, whose [size] field carries the declared
    payload length, with no payload padding: [12 + 24 * txns] bytes. A
    block's modelled size is still {!Block.wire_size}; the store charges
    that to its disk (see [Persist.wal_append ~size]). Blocks inside
    {!encode}d messages keep the padded wire form, so
    [String.length (encode ~n m) = Msg.wire_size ~n m] is unchanged. *)

val decode_block : string -> Block.t
(** Inverse of {!encode_block}: checks that the length matches the
    header's transaction count, then wraps the string without copying it
    ({!Block.of_record}) — same digest, same transaction headers. Raises
    {!Decode_error} on a short record or a length/count mismatch. *)
