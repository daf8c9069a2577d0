(** Timeout and no-vote certificates (Fig. 4, [v.tc] and [v.nvc]).

    A timeout certificate for round [r] proves 2f+1 parties gave up waiting
    for round [r] to complete and justifies advancing without the leader. A
    no-vote certificate proves 2f+1 parties did not vote for the round-[r]
    leader and entitles the round-[r+1] leader to propose without a strong
    edge to it. Both are BLS-style aggregates: κ bytes + a signer bitvector
    (§7, implementation details). *)

open Clanbft_crypto

type kind = Timeout | No_vote

type t = private {
  kind : kind;
  round : int;
  agg : Keychain.aggregate;
}

val signing_string : kind -> int -> string
(** Canonical message each party signs for ([kind], [round]). *)

val make :
  Keychain.t -> kind -> round:int -> (int * Keychain.signature) list -> t option
(** Aggregate the shares; [None] if a signer id is invalid or repeated. No
    upfront verification (the paper's aggregation strategy): a forged share
    makes {!verify} fail later. *)

val of_wire : kind -> round:int -> agg:Keychain.aggregate -> t
(** Wrap an aggregate built elsewhere: a decoded one, or one taken from a
    {!Keychain.Acc.t} that collected verified shares. {!verify} still
    applies. *)

val verify : Keychain.t -> quorum:int -> t -> bool
(** Valid iff the aggregate checks out and carries at least [quorum]
    distinct signers. *)

val signer_count : t -> int
val wire_size : n:int -> int
(** 5-byte header + κ + ⌈n/8⌉. *)

val approx_live_words : t -> int
(** Heap words, headers included: the record and its aggregate. *)

val pp : Format.formatter -> t -> unit
