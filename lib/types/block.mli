(** Transaction blocks (Fig. 4, [struct block]).

    Separated from the vertex so that it can be disseminated only to a clan
    while the vertex travels to the whole tribe (§5). The digest binds the
    proposer and round, so a Byzantine proposer cannot reuse one block's
    digest for different (round, proposer) slots.

    A block holds its transactions as one immutable {e record}: the store
    form, u32 proposer, round and transaction count, then per transaction
    a 24-byte header — i64 id, u32 client, i64 created_at, u32 size — all
    big-endian, [header_bytes + txn_bytes * count] bytes. Payload bytes are
    modelled by [size], never held. No per-transaction value exists until
    {!txn} decodes one, and {!Codec.encode_block} journals this very
    string. *)

open Clanbft_crypto

type t = private {
  proposer : int;
  round : int;
  record : string;  (** the store record; shared, never copied *)
  digest : Digest32.t;  (** cached hash of the block *)
  wire_size : int;  (** cached wire bytes, so sizing a send is O(1) *)
}

val header_bytes : int
(** 12: proposer, round and count. *)

val txn_bytes : int
(** 24: one transaction header. *)

(** {1 Building a block in place} *)

val new_record : int -> bytes
(** [new_record count] is a zero-filled record with room for [count]
    transaction headers. *)

val set_header :
  bytes -> int -> id:int -> client:int -> created_at:Clanbft_sim.Time.t -> size:int -> unit
(** Write transaction [i]'s header. [client] and [size] must fit a u32;
    raises [Invalid_argument] otherwise or when [i] is out of range. *)

val seal : proposer:int -> round:int -> bytes -> t
(** Write the header (proposer, round and the count the length implies)
    and take ownership of the buffer: the caller must not touch it again.
    Digest and wire size are computed in one pass over the record. Raises
    [Invalid_argument] if the length is not a record length. *)

val of_record : string -> t
(** Wrap a complete record without copying it. Raises [Invalid_argument]
    when the length is short or disagrees with the header's count. *)

val make : proposer:int -> round:int -> txns:Transaction.t array -> t
(** Pack [txns] into a fresh record and {!seal} it. *)

(** {1 Reading} *)

val digest : t -> Digest32.t
(** SHA-256 over proposer and round, then per transaction its id and
    [(client lsl 24) lxor size], each the 63 bits of an OCaml int written
    as 8 little-endian bytes. [created_at] is not hashed. *)

val txn_count : t -> int

val txn : t -> int -> Transaction.t
(** Decode transaction [i] (allocates it). *)

val iter_txns : t -> (Transaction.t -> unit) -> unit

val wire_size : t -> int
(** 12-byte header + the transactions' wire bytes. O(1): computed once at
    construction. *)

(** {1 Heap census} *)

val approx_live_words : t -> int
(** The words this block occupies: the record, its digest and the record
    string. The modelled payload bytes are not on the heap and are not
    counted. See docs/PROFILING.md. *)

type charger = {
  block : t -> int;
      (** The words of a physically distinct block the first time the
          charger meets it, 0 after; its record string is charged only if
          no earlier call charged that same string. *)
  record : string -> int;
      (** The words of a record string the first time the charger meets
          that physical string, through either field; 0 after. *)
}

val charge_once : unit -> charger
(** A fresh charger. Replicas of one simulation share block values, and a
    WAL block entry is the block's own record string ({!Codec.encode_block}),
    so a census over all of them charges each block, and each record, once. *)

val pp : Format.formatter -> t -> unit
