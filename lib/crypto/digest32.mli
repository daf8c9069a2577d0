(** 32-byte SHA-256 digests with a compact comparable representation.

    Digests identify blocks and vertices throughout the protocol stack and
    key most hot hash tables, so equality and hashing must be cheap. *)

type t

val of_raw : string -> t
(** Wrap a 32-byte raw digest; raises [Invalid_argument] on wrong length. *)

val hash_string : string -> t
(** SHA-256 of the argument. *)

val to_raw : t -> string
val to_hex : t -> string

val short : t -> string
(** First 8 hex characters — for logs. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val size : int
(** Wire size in bytes (32). *)

val zero : t
(** The all-zero digest; used as a placeholder for "no digest". *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
module Map : Map.S with type key = t

val charge_once : ('a -> t) -> ('a -> int) -> unit -> 'a -> int
(** [charge_once digest words ()] is a fresh heap-census charger: [words x]
    the first time it meets a physically distinct [x], 0 after, with values
    bucketed by [digest x]. Replicas of one simulation share block and
    vertex values, so a census across them charges each value once. *)
