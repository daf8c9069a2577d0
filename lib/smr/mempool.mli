(** Per-node transaction queue feeding block proposals. *)

open Clanbft_types

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the queue (default 1_000_000); beyond it submissions
    are rejected — back-pressure towards clients. *)

val submit : t -> Transaction.t -> bool
(** [false] when the pool is full. *)

val take : t -> max:int -> bytes
(** Remove up to [max] transactions, FIFO, and pack their headers into a
    fresh {!Block.new_record}, ready to seal. *)

val pending : t -> int
val submitted_total : t -> int
val rejected_total : t -> int

val approx_live_words : t -> int
(** Heap-census hook: the pool's live words, headers included — exact,
    checked against [Obj.reachable_words]. See docs/PROFILING.md. *)
