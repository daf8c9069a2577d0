(** Transaction blocks (Fig. 4, [struct block]).

    Separated from the vertex so that it can be disseminated only to a clan
    while the vertex travels to the whole tribe (§5). The digest binds the
    proposer and round, so a Byzantine proposer cannot reuse one block's
    digest for different (round, proposer) slots. *)

open Clanbft_crypto

type t = private {
  proposer : int;
  round : int;
  txns : Transaction.t array;
  digest : Digest32.t;  (** cached hash of the block *)
  wire_size : int;  (** cached wire bytes, so sizing a send is O(1) *)
}

val make : proposer:int -> round:int -> txns:Transaction.t array -> t
val digest : t -> Digest32.t
val txn_count : t -> int

val wire_size : t -> int
(** 12-byte header + the transactions' wire bytes. O(1): computed once at
    construction. *)

val approx_live_words : t -> int
(** Heap-census hook: the words this block occupies — the record, its
    digest, the [txns] array and five words per transaction. The modelled
    payload bytes are not on the heap and are not counted. See
    docs/PROFILING.md. *)

val pp : Format.formatter -> t -> unit
