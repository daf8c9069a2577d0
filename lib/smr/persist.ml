open Clanbft_sim
module Prof = Clanbft_obs.Prof

let sec_append = Prof.section "wal.append"
let sec_replay = Prof.section "wal.replay"

type t = {
  engine : Engine.t;
  write_latency : Time.span;
  bytes_per_us : float;
  mutable disk_free_at : Time.t; (* FIFO write queue head *)
  durable : (string, string option) Hashtbl.t;
  mutable writes : int;
  mutable bytes : int;
  mutable backlog : int;
  (* Writes scheduled before a crash but not yet durable belong to a dead
     epoch: their completion callbacks become no-ops (the OS buffer was
     lost with the process). *)
  mutable epoch : int;
  (* Write-ahead log: an ordered, deduplicated sub-namespace of [durable].
     [wal_keys] is the durability order (reversed); [wal_seen] dedups
     appends across the WAL's whole life; [wal_pending] tracks appends
     queued but not yet on disk, so a crash can forget them. *)
  mutable wal_keys : string list;
  mutable wal_count : int;
  wal_seen : (string, unit) Hashtbl.t;
  wal_pending : (string, unit) Hashtbl.t;
}

let create ~engine ?(write_latency = Time.us 100)
    ?(write_bandwidth_mbps = 400.) () =
  if write_bandwidth_mbps <= 0.0 then invalid_arg "Persist.create: bandwidth";
  {
    engine;
    write_latency;
    (* MB/s = bytes/µs numerically. *)
    bytes_per_us = write_bandwidth_mbps;
    disk_free_at = 0;
    durable = Hashtbl.create 1024;
    writes = 0;
    bytes = 0;
    backlog = 0;
    epoch = 0;
    wal_keys = [];
    wal_count = 0;
    wal_seen = Hashtbl.create 1024;
    wal_pending = Hashtbl.create 64;
  }

let put t ~key ~size ?data ~on_durable () =
  if size < 0 then invalid_arg "Persist.put: negative size";
  let now = Engine.now t.engine in
  let transfer = int_of_float (ceil (float_of_int size /. t.bytes_per_us)) in
  let done_at = max now t.disk_free_at + t.write_latency + transfer in
  t.disk_free_at <- done_at;
  t.writes <- t.writes + 1;
  t.bytes <- t.bytes + size;
  t.backlog <- t.backlog + 1;
  let epoch = t.epoch in
  Engine.schedule_at t.engine done_at (fun () ->
      if t.epoch = epoch then begin
        Hashtbl.replace t.durable key data;
        t.backlog <- t.backlog - 1;
        on_durable ()
      end)

let get t ~key = Option.join (Hashtbl.find_opt t.durable key)
let is_durable t ~key = Hashtbl.mem t.durable key
let writes t = t.writes
let bytes_written t = t.bytes
let backlog t = t.backlog

(* ------------------------------------------------------------------ *)
(* Write-ahead log *)

let wal_append t ~key ~size ~data =
  Prof.enter sec_append;
  if not (Hashtbl.mem t.wal_seen key) then begin
    Hashtbl.replace t.wal_seen key ();
    Hashtbl.replace t.wal_pending key ();
    put t ~key ~size ~data
      ~on_durable:(fun () ->
        Hashtbl.remove t.wal_pending key;
        t.wal_keys <- key :: t.wal_keys;
        t.wal_count <- t.wal_count + 1)
      ()
  end;
  Prof.leave sec_append

let wal_size t = t.wal_count

let wal_iter t f =
  Prof.enter sec_replay;
  List.iter
    (fun key ->
      match get t ~key with Some data -> f ~key ~data | None -> ())
    (List.rev t.wal_keys);
  Prof.leave sec_replay

(* Heap census: durable keys/payloads plus WAL bookkeeping. Keys in
   [wal_seen]/[wal_pending] are shared with [durable], so those tables
   contribute bucket overhead only. *)
let approx_live_words ?(charge_data = fun ~key:_ _ -> None) t =
  let words = ref (16 + (3 * List.length t.wal_keys)) in
  Hashtbl.iter
    (fun key data ->
      words :=
        !words + 6
        + ((String.length key + 8) / 8)
        + (match data with
          | Some d -> (
              2
              + match charge_data ~key d with
                | Some w -> w
                | None -> (String.length d + 8) / 8)
          | None -> 0))
    t.durable;
  !words + (4 * (Hashtbl.length t.wal_seen + Hashtbl.length t.wal_pending))

let census_parts t =
  [ Obj.repr t.durable; Obj.repr t.wal_keys; Obj.repr t.wal_seen;
    Obj.repr t.wal_pending ]

let crash t =
  t.epoch <- t.epoch + 1;
  t.disk_free_at <- Engine.now t.engine;
  t.backlog <- 0;
  (* Appends that never reached the platter are lost: forget them so the
     recovered node can journal the same slot again. *)
  Hashtbl.iter (fun key () -> Hashtbl.remove t.wal_seen key) t.wal_pending;
  Hashtbl.reset t.wal_pending
