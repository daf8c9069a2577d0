open Clanbft_types
open Clanbft_crypto
module Sailfish = Clanbft_consensus.Sailfish

type t = {
  me : int;
  config : Config.t;
  mutable consensus : Sailfish.t option; (* set during construction *)
  mempool : Mempool.t;
  execution : Execution.t;
  persist : Persist.t option;
  exec_queue : Vertex.t Queue.t;
  executes : bool;
  on_txn_executed : (Transaction.t -> Digest32.t -> unit) option;
}

let me t = t.me
let consensus t = Option.get t.consensus
let execution t = t.execution
let mempool t = t.mempool
let submit t txn = Mempool.submit t.mempool txn
let executed_txns t = Execution.executed_txns t.execution
let exec_backlog t = Queue.length t.exec_queue

(* Drain the execution queue in order; stop at the first vertex whose block
   is still in flight (it is being pulled — §5's "execution lags
   consensus"). *)
let rec drain t =
  match Queue.peek_opt t.exec_queue with
  | None -> ()
  | Some (v : Vertex.t) ->
      let has_block = Digest32.equal v.block_digest Digest32.zero = false in
      if not has_block then begin
        (* Vertex-only proposal: nothing to execute. *)
        ignore (Queue.pop t.exec_queue);
        drain t
      end
      else if Config.in_payload_clan t.config ~proposer:v.source t.me then begin
        match Sailfish.block_of (consensus t) ~round:v.round ~source:v.source with
        | Some block ->
            ignore (Queue.pop t.exec_queue);
            Execution.apply_block t.execution block;
            (match t.on_txn_executed with
            | None -> ()
            | Some callback ->
                Block.iter_txns block (fun txn ->
                    callback txn (Execution.response t.execution txn)));
            drain t
        | None -> () (* block still being fetched; resume on arrival *)
      end
      else begin
        (* Another clan's payload: fold the digest, keep the chain common. *)
        ignore (Queue.pop t.exec_queue);
        Execution.skip_block t.execution v.block_digest;
        drain t
      end

let on_commit_internal t external_hook ~leader vertices =
  (match external_hook with
  | Some hook -> hook ~leader vertices
  | None -> ());
  if t.executes then begin
    List.iter (fun v -> Queue.add v t.exec_queue) vertices;
    drain t
  end;
  match t.persist with
  | None -> ()
  | Some p ->
      List.iter
        (fun (v : Vertex.t) ->
          Persist.put p
            ~key:(Printf.sprintf "vertex/%d/%d" v.round v.source)
            ~size:(Vertex.wire_size ~n:(Config.n t.config) v)
            ~on_durable:(fun () -> ())
            ())
        vertices

let on_block_internal t (b : Block.t) =
  (match t.persist with
  | None -> ()
  | Some p ->
      (* Journal the block (recovery needs its transactions back; the
         record holds their headers, the disk is charged the modelled
         payload), plus the metadata-only state write the execution path
         always made. *)
      Persist.wal_append p
        ~key:(Printf.sprintf "wal/b/%d/%d" b.round b.proposer)
        ~size:(Block.wire_size b) ~data:(Codec.encode_block b);
      Persist.put p
        ~key:(Printf.sprintf "block/%d/%d" b.round b.proposer)
        ~size:(Block.wire_size b)
        ~on_durable:(fun () -> ())
        ());
  if t.executes then drain t

(* WAL hooks: journal every RBC delivery before the consensus layer acts on
   it, and every own-proposal round before its VAL messages leave. *)

let journal_deliver t (v : Vertex.t) =
  match t.persist with
  | None -> ()
  | Some p ->
      let data = Codec.encode_vertex ~n:(Config.n t.config) v in
      Persist.wal_append p
        ~key:(Printf.sprintf "wal/v/%d/%d" v.round v.source)
        ~size:(String.length data) ~data

let journal_propose t ~round =
  match t.persist with
  | None -> ()
  | Some p ->
      Persist.wal_append p ~key:(Printf.sprintf "wal/p/%d" round) ~size:0
        ~data:""

let create ~me ~config ~keychain ~engine ~net ?params ?obs
    ?(max_block_txns = 6000) ?persist ?generate ?on_commit ?on_txn_executed () =
  let t =
    {
      me;
      config;
      consensus = None;
      mempool = Mempool.create ();
      execution = Execution.create ();
      persist;
      exec_queue = Queue.create ();
      executes = Config.executes_blocks config me;
      on_txn_executed;
    }
  in
  let make_block ~round =
    match generate with
    | Some gen -> gen ~round
    | None -> Mempool.take t.mempool ~max:max_block_txns
  in
  let consensus =
    Sailfish.create ~me ~config ~keychain ~engine ~net ?params ?obs ~make_block
      ~on_commit:(on_commit_internal t on_commit)
      ~on_block:(on_block_internal t)
      ~on_deliver:(journal_deliver t)
      ~on_propose:(fun ~round -> journal_propose t ~round)
      ()
  in
  t.consensus <- Some consensus;
  t

let start t = Sailfish.start (consensus t)

let census ?charge ?charge_vertex t =
  ("mempool", Mempool.approx_live_words t.mempool)
  :: Sailfish.census ?charge ?charge_vertex (consensus t)

(* A WAL block entry is the block's record string (see [on_block_internal]),
   so it goes through the block charger, after every block table. *)
let wal_census ~(charge : Block.charger) t =
  match t.persist with
  | None -> None
  | Some p ->
      Some
        (Persist.approx_live_words p ~charge_data:(fun ~key data ->
             if String.starts_with ~prefix:"wal/b/" key then
               Some (charge.record data)
             else None))

(* ------------------------------------------------------------------ *)
(* Crash recovery *)

let stop t =
  Sailfish.halt (consensus t);
  Option.iter Persist.crash t.persist

let recover t =
  match t.persist with
  | None -> ()
  | Some p ->
      let c = consensus t in
      let n = Config.n t.config in
      (* Blocks first so replayed vertices find their payloads, then
         vertices in journal (= insertion) order, then proposal markers. *)
      Persist.wal_iter p (fun ~key ~data ->
          if String.starts_with ~prefix:"wal/b/" key then
            Sailfish.replay_block c (Codec.decode_block data));
      let compact = Config.sparse_edges t.config in
      Persist.wal_iter p (fun ~key ~data ->
          if String.starts_with ~prefix:"wal/v/" key then
            Sailfish.replay_vertex c (Codec.decode_vertex ~n ~compact data));
      Persist.wal_iter p (fun ~key ~data:_ ->
          match Scanf.sscanf_opt key "wal/p/%d" (fun r -> r) with
          | Some round -> Sailfish.note_proposed c ~round
          | None -> ())

let start_recovered t = Sailfish.start_recovery (consensus t)
