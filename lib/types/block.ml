open Clanbft_crypto

(* The store record, the block's only representation: u32 proposer, round
   and transaction count, then per transaction a 24-byte header — i64 id,
   u32 client, i64 created_at, u32 size — all big-endian. Payload bytes
   are modelled by [size], never held. *)
let header_bytes = 12
let txn_bytes = 24

type t = {
  proposer : int;
  round : int;
  record : string;
  digest : Digest32.t;
  wire_size : int;
      (* cached at construction: sizing used to cost O(txns) per network
         send — once per recipient — on every proposal *)
}

let get_u32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xffff_ffff
let get_i64 s pos = Int64.to_int (String.get_int64_be s pos)

let set_u32 buf pos v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Block: u32 field out of range";
  Bytes.set_int32_be buf pos (Int32.of_int v)

(* Zero-filled, so a header the caller never writes is still deterministic. *)
let new_record count =
  if count < 0 then invalid_arg "Block.new_record: negative count";
  Bytes.make (header_bytes + (count * txn_bytes)) '\x00'

let set_header buf i ~id ~client ~created_at ~size =
  let pos = header_bytes + (i * txn_bytes) in
  if i < 0 || pos + txn_bytes > Bytes.length buf then
    invalid_arg "Block.set_header: index out of range";
  Bytes.set_int64_be buf pos (Int64.of_int id);
  set_u32 buf (pos + 8) client;
  Bytes.set_int64_be buf (pos + 12) (Int64.of_int created_at);
  set_u32 buf (pos + 20) size

(* The digest preimage is proposer and round, then per transaction its id
   and [(client lsl 24) lxor size], each as the 63 bits of an OCaml int
   written little-endian in 8 bytes. It is streamed through one fixed
   chunk in the same pass that sums the wire size, so no temporary grows
   with the block: 12000-transaction blocks are built on every proposal of
   a large-block run. The whole pass runs inside the [sha256] profiler
   section. *)
let chunk_bytes = 1024

let of_fields ~proposer ~round record =
  Clanbft_obs.Prof.enter Sha256.section;
  let chunk = Bytes.create chunk_bytes in
  let put pos v =
    Bytes.set_int64_le chunk pos (Int64.logand (Int64.of_int v) Int64.max_int)
  in
  let ctx = Sha256.init () in
  put 0 proposer;
  put 8 round;
  let fill = ref 16 and wire = ref (String.length record) in
  let pos = ref header_bytes in
  while !pos < String.length record do
    if !fill = chunk_bytes then begin
      Sha256.feed_bytes ctx chunk ~pos:0 ~len:chunk_bytes;
      fill := 0
    end;
    let size = get_u32 record (!pos + 20) in
    wire := !wire + size;
    put !fill (get_i64 record !pos);
    put (!fill + 8) ((get_u32 record (!pos + 8) lsl 24) lxor size);
    fill := !fill + 16;
    pos := !pos + txn_bytes
  done;
  Sha256.feed_bytes ctx chunk ~pos:0 ~len:!fill;
  let digest = Digest32.of_raw (Sha256.finalize ctx) in
  Clanbft_obs.Prof.leave Sha256.section;
  { proposer; round; record; digest; wire_size = !wire }

let seal ~proposer ~round buf =
  let len = Bytes.length buf in
  if len < header_bytes || (len - header_bytes) mod txn_bytes <> 0 then
    invalid_arg "Block.seal: not a block record";
  set_u32 buf 0 proposer;
  set_u32 buf 4 round;
  set_u32 buf 8 ((len - header_bytes) / txn_bytes);
  of_fields ~proposer ~round (Bytes.unsafe_to_string buf)

let of_record s =
  let len = String.length s in
  if len < header_bytes then invalid_arg "Block.of_record: truncated header";
  let count = get_u32 s 8 in
  if len <> header_bytes + (count * txn_bytes) then
    invalid_arg
      (Printf.sprintf "Block.of_record: %d bytes for %d transactions" len count);
  of_fields ~proposer:(get_u32 s 0) ~round:(get_u32 s 4) s

let make ~proposer ~round ~txns =
  let buf = new_record (Array.length txns) in
  Array.iteri
    (fun i (x : Transaction.t) ->
      set_header buf i ~id:x.id ~client:x.client ~created_at:x.created_at
        ~size:x.size)
    txns;
  seal ~proposer ~round buf

let digest t = t.digest
let txn_count t = (String.length t.record - header_bytes) / txn_bytes
let wire_size t = t.wire_size

let txn t i =
  if i < 0 || i >= txn_count t then invalid_arg "Block.txn: index out of range";
  let pos = header_bytes + (i * txn_bytes) in
  Transaction.make ~id:(get_i64 t.record pos)
    ~client:(get_u32 t.record (pos + 8))
    ~created_at:(get_i64 t.record (pos + 12))
    ~size:(get_u32 t.record (pos + 20))
    ()

let iter_txns t f =
  for i = 0 to txn_count t - 1 do
    f (txn t i)
  done

(* Words, headers included: the 5-field record and the digest string (32
   bytes plus the padding word), then the record string. *)
let shell_words = 6 + ((Digest32.size / 8) + 2)
let record_words s = (String.length s / 8) + 2
let approx_live_words t = shell_words + record_words t.record

type charger = { block : t -> int; record : string -> int }

let rec holds_record s = function
  | [] -> false
  | (b : t) :: rest -> b.record == s || holds_record s rest

(* Blocks are filed by digest, as [Digest32.charge_once] files them. A
   block rebuilt from a journalled record (WAL replay) has the digest and
   the very record string of the original, so a record is looked for among
   the blocks under its digest first. Records charged on their own (WAL
   entries) need an index by proposer and round; it is built on the first
   such call, so a census without a WAL allocates nothing more than one
   over blocks alone. Strings are compared with [==] throughout. *)
let charge_once () =
  let blocks = Digest32.Tbl.create 64 and records = ref None in
  let note idx s =
    let key = (get_u32 s 0, get_u32 s 4) in
    Hashtbl.replace idx key
      (s :: Option.value ~default:[] (Hashtbl.find_opt idx key))
  in
  let noted idx s =
    match Hashtbl.find_opt idx (get_u32 s 0, get_u32 s 4) with
    | Some same -> List.memq s same
    | None -> false
  in
  let block (b : t) =
    let same = Option.value ~default:[] (Digest32.Tbl.find_opt blocks b.digest) in
    if List.memq b same then 0
    else begin
      Digest32.Tbl.replace blocks b.digest (b :: same);
      if holds_record b.record same then shell_words
      else
        match !records with
        | Some idx when noted idx b.record -> shell_words
        | Some idx ->
            note idx b.record;
            shell_words + record_words b.record
        | None -> shell_words + record_words b.record
    end
  in
  let record s =
    let idx =
      match !records with
      | Some idx -> idx
      | None ->
          let idx = Hashtbl.create 64 in
          Digest32.Tbl.iter
            (fun _ same -> List.iter (fun (b : t) -> note idx b.record) same)
            blocks;
          records := Some idx;
          idx
    in
    if noted idx s then 0
    else begin
      note idx s;
      record_words s
    end
  in
  { block; record }

let pp ppf t =
  Format.fprintf ppf "block(%d@r%d,%d txns,%a)" t.proposer t.round
    (txn_count t) Digest32.pp t.digest
