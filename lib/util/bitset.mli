(** Fixed-capacity bitsets.

    Used for quorum tracking (who has ECHOed / READYed / voted) and for the
    signer vectors of aggregate signatures. All operations are O(capacity/63)
    or better; [cardinal] is cached so the hot path "add then check quorum"
    costs O(1). *)

type t

val create : int -> t
(** [create n] is an empty set over universe [{0, …, n-1}]. *)

val capacity : t -> int
val mem : t -> int -> bool

val add : t -> int -> bool
(** [add t i] inserts [i]; returns [true] iff [i] was not already present. *)

val remove : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool
val byte : t -> int -> int
(** [byte t j] is byte [j] of the LSB-first packed bitmap: bit [p] of the
    result is set iff member [8j + p] is. Valid for
    [0 <= j < (capacity + 7) / 8]; trailing bits past [capacity] are 0.
    O(1) — the wire codec writes each bitmap byte with one call instead of
    a read-modify-write per member. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int -> int list -> t
val copy : t -> t
val union_into : dst:t -> t -> unit
val inter_cardinal : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val approx_live_words : t -> int
(** Heap words of the set, headers included: the record and its word
    array. *)
