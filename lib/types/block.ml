open Clanbft_crypto

type t = {
  proposer : int;
  round : int;
  txns : Transaction.t array;
  digest : Digest32.t;
  wire_size : int;
      (* cached at construction: sizing used to cost O(txns) per network
         send — once per recipient — on every proposal *)
}

(* One contiguous buffer then a single SHA-256 pass: blocks carry up to
   6000 transactions and are created on every proposal, so this is a hot
   path in large experiments. *)
let compute_digest ~proposer ~round ~txns =
  let per_txn = 16 in
  let buf = Bytes.create (16 + (Array.length txns * per_txn)) in
  let put64 pos v =
    for byte = 0 to 7 do
      Bytes.unsafe_set buf (pos + byte)
        (Char.unsafe_chr ((v lsr (8 * byte)) land 0xff))
    done
  in
  put64 0 proposer;
  put64 8 round;
  Array.iteri
    (fun i (txn : Transaction.t) ->
      let base = 16 + (i * per_txn) in
      put64 base txn.id;
      put64 (base + 8) ((txn.client lsl 24) lxor txn.size))
    txns;
  let ctx = Sha256.init () in
  Sha256.feed_bytes ctx buf ~pos:0 ~len:(Bytes.length buf);
  Digest32.of_raw (Sha256.finalize ctx)

let make ~proposer ~round ~txns =
  {
    proposer;
    round;
    txns;
    digest = compute_digest ~proposer ~round ~txns;
    wire_size =
      Array.fold_left (fun acc txn -> acc + Transaction.wire_size txn) 12 txns;
  }

let digest t = t.digest
let txn_count t = Array.length t.txns
let wire_size t = t.wire_size

(* Words, headers included: the 5-field record, the digest string (32
   bytes plus the padding byte), the txns array, and a 4-field record per
   transaction. Payloads are modelled by [size], never allocated. *)
let approx_live_words t =
  let txns = Array.length t.txns in
  6 + ((Digest32.size / 8) + 2) + (1 + txns) + (5 * txns)

let pp ppf t =
  Format.fprintf ppf "block(%d@r%d,%d txns,%a)" t.proposer t.round
    (Array.length t.txns) Digest32.pp t.digest
