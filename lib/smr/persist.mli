(** Simulated persistent consensus store (the paper uses RocksDB).

    The evaluation attributes part of the large-scale latency to database
    work, so persistence is modelled rather than ignored: every put charges
    a configurable synchronous latency budget to a per-node storage queue;
    readers observe data only after its write completes. Payload bytes are
    accounted but, to keep multi-gigabyte experiments cheap, actual content
    storage is optional ([data = None] stores metadata only — used by the
    benches; tests store real bytes and read them back). *)

open Clanbft_sim

type t

val create :
  engine:Engine.t ->
  ?write_latency:Time.span ->
  ?write_bandwidth_mbps:float ->
  unit ->
  t
(** Defaults: 100 µs fixed latency per write plus 400 MB/s sequential
    bandwidth — conservative figures for a cloud NVMe volume running a
    RocksDB WAL. *)

val put :
  t ->
  key:string ->
  size:int ->
  ?data:string ->
  on_durable:(unit -> unit) ->
  unit ->
  unit
(** Queue a write; [on_durable] fires when it hits "disk". *)

val get : t -> key:string -> string option
(** Contents of a durable write made with [?data]; [None] otherwise. *)

val is_durable : t -> key:string -> bool
val writes : t -> int
val bytes_written : t -> int
val backlog : t -> int
(** Writes queued but not yet durable. *)

(** {1 Write-ahead log}

    An ordered, deduplicated sub-namespace of the store used for crash
    recovery: a node journals every RBC delivery before acting on it and
    replays the log after a restart (see [docs/RECOVERY.md]). Appends pay
    the same simulated disk costs as {!put}. *)

val wal_append : t -> key:string -> size:int -> data:string -> unit
(** Queue one log record. As with {!put}, the disk is charged [size] bytes
    (latency, bandwidth and {!bytes_written}), not [String.length data]:
    [size] is the record's modelled length, which exceeds the stored
    [data] when the record stands for payload the simulator never holds
    (a block journals its transaction headers but is charged its
    [Block.wire_size]). A key already appended (durable {e or} still in
    flight) is skipped, so replay-then-relearn paths cannot double-journal
    a slot. The record becomes visible to {!wal_iter} once durable. *)

val wal_size : t -> int
(** Durable WAL records. *)

val wal_iter : t -> (key:string -> data:string -> unit) -> unit
(** Iterate durable records in durability order — the disk queue is FIFO,
    so this equals append order, and a prefix of it survives any crash. *)

val approx_live_words :
  ?charge_data:(key:string -> string -> int option) -> t -> int
(** Heap-census hook: word estimate of the durable table (keys and stored
    payloads) and WAL bookkeeping. [charge_data ~key data] may return the
    words to charge for a payload that other state shares (0 when already
    charged there); [None] charges the string itself. See
    docs/PROFILING.md. *)

val census_parts : t -> Obj.t list
(** The heap values {!approx_live_words} charges: the durable table and the
    WAL bookkeeping. For checking the census against
    [Obj.reachable_words]. *)

val crash : t -> unit
(** Simulate the node's process dying: writes scheduled but not yet
    durable are lost (their [on_durable] callbacks never fire, and WAL
    appends among them may be re-appended later), the queue resets to
    empty at the current simulated time. Durable state is untouched —
    that is the point of the WAL. *)

