open Clanbft
open Clanbft.Crypto

let qtest = QCheck_alcotest.to_alcotest
let kc = Keychain.create ~seed:123L ~n:16

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_full () =
  let c = Config.make ~n:10 Config.Full in
  Alcotest.(check int) "f" 3 (Config.f c);
  Alcotest.(check int) "quorum" 7 (Config.quorum c);
  Alcotest.(check int) "weak quorum" 4 (Config.weak_quorum c);
  Alcotest.(check bool) "everyone proposes" true (Config.is_block_proposer c 9);
  Alcotest.(check int) "payload clan is the tribe" 10
    (Array.length (Option.get (Config.payload_clan c ~proposer:0)));
  Alcotest.(check int) "no clan echo constraint" 0 (Config.clan_echo_threshold c ~proposer:0);
  Alcotest.(check bool) "everyone executes" true (Config.executes_blocks c 9);
  Alcotest.(check int) "one clan" 1 (Config.clan_count c)

let test_config_single_clan () =
  let clan = [| 1; 3; 5; 7; 9 |] in
  let c = Config.make ~n:10 (Config.Single_clan clan) in
  Alcotest.(check bool) "clan member proposes" true (Config.is_block_proposer c 3);
  Alcotest.(check bool) "outsider does not" false (Config.is_block_proposer c 2);
  Alcotest.(check (list int)) "proposers" [ 1; 3; 5; 7; 9 ] (Config.block_proposers c);
  (* fc of 5 = 2, so the echo threshold is 3 *)
  Alcotest.(check int) "echo threshold fc+1" 3 (Config.clan_echo_threshold c ~proposer:1);
  Alcotest.(check bool) "member stores payload" true (Config.in_payload_clan c ~proposer:1 9);
  Alcotest.(check bool) "outsider does not store" false (Config.in_payload_clan c ~proposer:1 0);
  Alcotest.(check bool) "vertex-only proposer has no payload clan" true
    (Config.payload_clan c ~proposer:2 = None);
  Alcotest.(check bool) "outsider does not execute" false (Config.executes_blocks c 0);
  Alcotest.(check (option int)) "clan_of member" (Some 0) (Config.clan_of c 5);
  Alcotest.(check (option int)) "clan_of outsider" None (Config.clan_of c 0)

let test_config_multi_clan () =
  let c = Config.make ~n:9 (Config.Multi_clan [| [| 0; 1; 2; 3 |]; [| 4; 5; 6; 7; 8 |] |]) in
  Alcotest.(check bool) "all propose" true (Config.is_block_proposer c 8);
  Alcotest.(check int) "clan count" 2 (Config.clan_count c);
  (* proposer 5's payload goes to clan 1 *)
  Alcotest.(check bool) "own clan stores" true (Config.in_payload_clan c ~proposer:5 8);
  Alcotest.(check bool) "other clan does not" false (Config.in_payload_clan c ~proposer:5 0);
  Alcotest.(check int) "fc+1 of clan of 4" 2 (Config.clan_echo_threshold c ~proposer:0);
  Alcotest.(check int) "fc+1 of clan of 5" 3 (Config.clan_echo_threshold c ~proposer:4);
  Alcotest.(check bool) "everyone executes something" true (Config.executes_blocks c 3)

let test_config_leader_rotation () =
  let c = Config.make ~n:7 Config.Full in
  Alcotest.(check int) "round 0" 0 (Config.leader_of_round c 0);
  Alcotest.(check int) "round 8" 1 (Config.leader_of_round c 8)

let test_config_sparse () =
  let p = Config.Sparse { k = 3; seed = 1L } in
  let c = Config.make ~n:16 ~edge_policy:p Config.Full in
  Alcotest.(check bool) "sparse_edges" true (Config.sparse_edges c);
  Alcotest.(check bool) "dense by default" false
    (Config.sparse_edges (Config.make ~n:16 Config.Full));
  (* self + leader + link + k sampled = k + 3 strong edges at most *)
  Alcotest.(check int) "strong cap" 6 (Config.sparse_strong_cap p);
  Alcotest.(check int) "weak cap floor" 16 (Config.sparse_weak_cap p);
  Alcotest.(check int) "weak cap tracks k" 36
    (Config.sparse_weak_cap (Config.Sparse { k = 9; seed = 0L }));
  Alcotest.(check bool) "dense caps unbounded" true
    (Config.sparse_strong_cap Config.Dense = max_int
    && Config.sparse_weak_cap Config.Dense = max_int);
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Config: sparse k must be >= 1") (fun () ->
      ignore
        (Config.make ~n:16
           ~edge_policy:(Config.Sparse { k = 0; seed = 1L })
           Config.Full))

let test_config_validation () =
  Alcotest.check_raises "overlapping clans" (Invalid_argument "Config: clans must be disjoint")
    (fun () ->
      ignore (Config.make ~n:6 (Config.Multi_clan [| [| 0; 1 |]; [| 1; 2 |] |])));
  Alcotest.check_raises "member out of range"
    (Invalid_argument "Config: clan member out of range") (fun () ->
      ignore (Config.make ~n:4 (Config.Single_clan [| 7 |])));
  Alcotest.check_raises "empty clan" (Invalid_argument "Config: empty clan") (fun () ->
      ignore (Config.make ~n:4 (Config.Multi_clan [| [||] |])));
  Alcotest.check_raises "n < 3f+1" (Invalid_argument "Config: need 0 <= f and n >= 3f+1")
    (fun () -> ignore (Config.make ~n:6 ~f:2 Config.Full))

(* ------------------------------------------------------------------ *)
(* Transactions / blocks *)

let mk_txn ?(id = 1) ?(size = 512) () =
  Transaction.make ~id ~client:2 ~created_at:1_000 ~size ()

let test_txn_wire_size () =
  Alcotest.(check int) "wire size" (24 + 512) (Transaction.wire_size (mk_txn ()));
  Alcotest.check_raises "negative size" (Invalid_argument "Transaction.make: negative size")
    (fun () -> ignore (mk_txn ~size:(-1) ()))

let test_block_digest_binding () =
  let txns = Array.init 3 (fun i -> mk_txn ~id:i ()) in
  let b1 = Block.make ~proposer:1 ~round:5 ~txns in
  let b2 = Block.make ~proposer:2 ~round:5 ~txns in
  let b3 = Block.make ~proposer:1 ~round:6 ~txns in
  let b4 = Block.make ~proposer:1 ~round:5 ~txns:(Array.sub txns 0 2) in
  Alcotest.(check bool) "proposer bound" false (Digest32.equal (Block.digest b1) (Block.digest b2));
  Alcotest.(check bool) "round bound" false (Digest32.equal (Block.digest b1) (Block.digest b3));
  Alcotest.(check bool) "content bound" false (Digest32.equal (Block.digest b1) (Block.digest b4));
  let b1' = Block.make ~proposer:1 ~round:5 ~txns in
  Alcotest.(check bool) "deterministic" true (Digest32.equal (Block.digest b1) (Block.digest b1'))

let test_block_wire_size () =
  let b = Block.make ~proposer:1 ~round:5 ~txns:(Array.init 3 (fun i -> mk_txn ~id:i ())) in
  Alcotest.(check int) "wire" (12 + (3 * 536)) (Block.wire_size b);
  Alcotest.(check int) "txn count" 3 (Block.txn_count b)

(* The digest formula from before blocks were packed records, kept as the
   reference the record's streamed digest must reproduce byte for byte. *)
let reference_digest ~proposer ~round (txns : Transaction.t array) =
  let buf = Bytes.create (16 + (Array.length txns * 16)) in
  let put64 pos v =
    for byte = 0 to 7 do
      Bytes.set buf (pos + byte) (Char.chr ((v lsr (8 * byte)) land 0xff))
    done
  in
  put64 0 proposer;
  put64 8 round;
  Array.iteri
    (fun i (t : Transaction.t) ->
      put64 (16 + (i * 16)) t.id;
      put64 (24 + (i * 16)) ((t.client lsl 24) lxor t.size))
    txns;
  Digest32.hash_string (Bytes.to_string buf)

(* Random headers over each field's full range; up to 300 transactions,
   so the digest's 64-transaction chunks fill, spill and end part-full. *)
let gen_block_fields =
  QCheck.Gen.(
    let u32 = int_range 0 0xffff_ffff in
    let txn =
      map
        (fun (id, client, created_at, size) ->
          Transaction.make ~id ~client ~created_at ~size ())
        (quad (int_range 0 max_int) u32 int (int_range 0 0xff_ffff))
    in
    triple u32 u32 (map Array.of_list (list_size (int_range 0 300) txn)))

let arb_block_fields =
  QCheck.make
    ~print:(fun (p, r, txns) ->
      Printf.sprintf "proposer %d round %d, %d txns" p r (Array.length txns))
    gen_block_fields

let prop_block_digest_reference =
  QCheck.Test.make ~name:"digest equals the reference formula" ~count:200
    arb_block_fields (fun (proposer, round, txns) ->
      Digest32.equal
        (Block.digest (Block.make ~proposer ~round ~txns))
        (reference_digest ~proposer ~round txns))

(* A block built through the header writer allocates its record outside
   the minor heap once it is large, and nothing else grows with it: no
   transaction values and no preimage buffer. *)
let test_block_build_minor_words () =
  let build count =
    let before = Gc.minor_words () in
    let record = Block.new_record count in
    for i = 0 to count - 1 do
      Block.set_header record i ~id:i ~client:3 ~created_at:i ~size:512
    done;
    let b = Block.seal ~proposer:1 ~round:2 record in
    let words = Gc.minor_words () -. before in
    ignore (Sys.opaque_identity b);
    words
  in
  ignore (build 10);
  let small = build 10 and large = build 12_000 in
  Alcotest.(check bool)
    (Printf.sprintf "12000 txns: %.0f minor words, 10 txns: %.0f" large small)
    true (large <= small)

(* The census formula counts exactly what the block holds on the heap:
   payload bytes are modelled, so a transaction costs its 24 record
   bytes. *)
let test_block_live_words () =
  List.iter
    (fun count ->
      let b =
        Block.make ~proposer:1 ~round:5
          ~txns:(Array.init count (fun i -> mk_txn ~id:i ()))
      in
      Alcotest.(check int)
        (Printf.sprintf "%d txns" count)
        (Obj.reachable_words (Obj.repr b))
        (Block.approx_live_words b))
    [ 0; 1; 3; 200; 12_000 ]

(* ------------------------------------------------------------------ *)
(* Vertices *)

let vref_of_slot round source : Vertex.vref =
  { round; source; digest = Digest32.hash_string (Printf.sprintf "%d-%d" round source) }

let test_vertex_edge_validation () =
  Alcotest.check_raises "strong edge wrong round"
    (Invalid_argument "Vertex.make: strong edge must target previous round") (fun () ->
      ignore
        (Vertex.make ~round:5 ~source:0 ~block_digest:Digest32.zero
           ~strong_edges:[| vref_of_slot 3 0 |] ~weak_edges:[||] ()));
  Alcotest.check_raises "weak edge too recent"
    (Invalid_argument "Vertex.make: weak edge must target round < r-1") (fun () ->
      ignore
        (Vertex.make ~round:5 ~source:0 ~block_digest:Digest32.zero ~strong_edges:[||]
           ~weak_edges:[| vref_of_slot 4 0 |] ()))

let test_vertex_digest_sensitivity () =
  let v1 =
    Vertex.make ~round:3 ~source:1 ~block_digest:Digest32.zero
      ~strong_edges:[| vref_of_slot 2 0 |] ~weak_edges:[||] ()
  in
  let v2 =
    Vertex.make ~round:3 ~source:1 ~block_digest:Digest32.zero
      ~strong_edges:[| vref_of_slot 2 1 |] ~weak_edges:[||] ()
  in
  Alcotest.(check bool) "edges bound into digest" false
    (Digest32.equal v1.Vertex.digest v2.Vertex.digest)

let test_vertex_strong_edge_query () =
  let v =
    Vertex.make ~round:3 ~source:1 ~block_digest:Digest32.zero
      ~strong_edges:[| vref_of_slot 2 0; vref_of_slot 2 4 |] ~weak_edges:[||] ()
  in
  Alcotest.(check bool) "has edge" true (Vertex.has_strong_edge_to v ~round:2 ~source:4);
  Alcotest.(check bool) "no edge" false (Vertex.has_strong_edge_to v ~round:2 ~source:3);
  Alcotest.(check bool) "wrong round" false (Vertex.has_strong_edge_to v ~round:1 ~source:0)

let test_vertex_compact_form () =
  let strong = [| vref_of_slot 2 0; vref_of_slot 2 3; vref_of_slot 2 7 |] in
  let weak = [| vref_of_slot 0 6; vref_of_slot 1 5 |] in
  let mk compact =
    Vertex.make ~round:3 ~source:2 ~block_digest:Digest32.zero
      ~strong_edges:strong ~weak_edges:weak ~compact ()
  in
  let dense = mk false and compact = mk true in
  Alcotest.(check bool) "compact strictly smaller on the wire" true
    (Vertex.wire_size ~n:16 compact < Vertex.wire_size ~n:16 dense);
  (* The content digest names the vertex, not its encoding: both
     representations of the same fields share one identity. *)
  Alcotest.(check bool) "digest representation-independent" true
    (Digest32.equal dense.Vertex.digest compact.Vertex.digest);
  let enc = Codec.encode_vertex ~n:16 compact in
  Alcotest.(check int) "wire_size = encode length"
    (Vertex.wire_size ~n:16 compact)
    (String.length enc);
  let v' = Codec.decode_vertex ~n:16 ~compact:true enc in
  Alcotest.(check bool) "round-trip digest" true
    (Digest32.equal compact.Vertex.digest v'.Vertex.digest);
  Alcotest.(check bool) "round-trip stays compact" true v'.Vertex.compact;
  Alcotest.(check string) "re-encode byte-identical" enc
    (Codec.encode_vertex ~n:16 v')

let test_vertex_compact_validation () =
  Alcotest.check_raises "unsorted strong edges"
    (Invalid_argument "Vertex.make: compact strong edges must ascend by source")
    (fun () ->
      ignore
        (Vertex.make ~round:3 ~source:0 ~block_digest:Digest32.zero
           ~strong_edges:[| vref_of_slot 2 4; vref_of_slot 2 1 |]
           ~weak_edges:[||] ~compact:true ()));
  Alcotest.check_raises "unsorted weak edges"
    (Invalid_argument "Vertex.make: compact weak edges must ascend by (round, source)")
    (fun () ->
      ignore
        (Vertex.make ~round:3 ~source:0 ~block_digest:Digest32.zero
           ~strong_edges:[||]
           ~weak_edges:[| vref_of_slot 1 5; vref_of_slot 0 2 |]
           ~compact:true ()))

let test_vertex_id_order () =
  Alcotest.(check bool) "round first" true (Vertex.Id.compare (1, 9) (2, 0) < 0);
  Alcotest.(check bool) "source second" true (Vertex.Id.compare (2, 1) (2, 3) < 0);
  Alcotest.(check int) "equal" 0 (Vertex.Id.compare (2, 3) (2, 3))

(* ------------------------------------------------------------------ *)
(* Certificates *)

let shares kind round signers =
  List.map (fun i -> (i, Keychain.sign kc ~signer:i (Cert.signing_string kind round))) signers

let test_cert_roundtrip () =
  let c = Option.get (Cert.make kc Cert.Timeout ~round:4 (shares Cert.Timeout 4 [ 0; 1; 2; 3; 4 ])) in
  Alcotest.(check bool) "verifies at quorum 5" true (Cert.verify kc ~quorum:5 c);
  Alcotest.(check bool) "fails at quorum 6" false (Cert.verify kc ~quorum:6 c);
  Alcotest.(check int) "signer count" 5 (Cert.signer_count c)

let test_cert_wrong_round_shares () =
  (* Shares for round 3 aggregated into a round-4 certificate don't verify. *)
  let c = Option.get (Cert.make kc Cert.Timeout ~round:4 (shares Cert.Timeout 3 [ 0; 1; 2 ])) in
  Alcotest.(check bool) "invalid" false (Cert.verify kc ~quorum:3 c)

let test_cert_kind_separation () =
  (* No-vote shares cannot stand in for timeout shares. *)
  let c = Option.get (Cert.make kc Cert.Timeout ~round:4 (shares Cert.No_vote 4 [ 0; 1; 2 ])) in
  Alcotest.(check bool) "invalid" false (Cert.verify kc ~quorum:3 c)

(* ------------------------------------------------------------------ *)
(* Messages and codec *)

let sample_block = Block.make ~proposer:2 ~round:3 ~txns:(Array.init 4 (fun i -> mk_txn ~id:i ()))

let sample_vertex ?(nvc = false) ?(tc = false) () =
  let nvc =
    if nvc then Some (Option.get (Cert.make kc Cert.No_vote ~round:2 (shares Cert.No_vote 2 [ 0; 1; 2 ])))
    else None
  in
  let tc =
    if tc then Some (Option.get (Cert.make kc Cert.Timeout ~round:2 (shares Cert.Timeout 2 [ 3; 4; 5 ])))
    else None
  in
  Vertex.make ~round:3 ~source:2 ~block_digest:(Block.digest sample_block)
    ~strong_edges:[| vref_of_slot 2 0; vref_of_slot 2 1 |]
    ~weak_edges:[| vref_of_slot 1 5 |] ?nvc ?tc ()

let sample_msgs () =
  let v = sample_vertex ~nvc:true ~tc:true () in
  let sg = Keychain.sign kc ~signer:2 "sig" in
  let agg = Option.get (Keychain.aggregate kc ~msg:"m" [ (0, Keychain.sign kc ~signer:0 "m") ]) in
  [
    Msg.Val { vertex = v; block = Some sample_block; signature = sg };
    Msg.Val { vertex = sample_vertex (); block = None; signature = sg };
    Msg.Echo { round = 3; source = 2; vertex_digest = v.Vertex.digest; signer = 1; signature = sg };
    Msg.Echo_cert { round = 3; source = 2; vertex_digest = v.Vertex.digest; agg; clan_echoes = 5 };
    Msg.Timeout_share { round = 9; signer = 4; signature = sg };
    Msg.No_vote_share { round = 9; signer = 4; signature = sg };
    Msg.Timeout_cert (Option.get (Cert.make kc Cert.Timeout ~round:7 (shares Cert.Timeout 7 [ 0; 1; 2 ])));
    Msg.Block_request { round = 3; source = 2 };
    Msg.Block_reply { block = sample_block };
    Msg.Vertex_request { round = 3; source = 2 };
    Msg.Vertex_reply { vertex = v; block = Some sample_block };
  ]

let test_wire_size_matches_codec () =
  List.iter
    (fun m ->
      Alcotest.(check int) (Msg.tag m) (Msg.wire_size ~n:16 m)
        (String.length (Codec.encode ~n:16 m)))
    (sample_msgs ())

let test_codec_roundtrip () =
  List.iter
    (fun m ->
      let enc = Codec.encode ~n:16 m in
      let dec = Codec.decode ~n:16 enc in
      Alcotest.(check string) (Msg.tag m) enc (Codec.encode ~n:16 dec))
    (sample_msgs ())

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "bad tag raises" true
    (match Codec.decode ~n:16 "\xff" with
    | exception Codec.Decode_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "truncated raises" true
    (match Codec.decode ~n:16 (String.sub (Codec.encode ~n:16 (List.hd (sample_msgs ()))) 0 10) with
    | exception Codec.Decode_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "trailing bytes raise" true
    (match Codec.decode ~n:16 (Codec.encode ~n:16 (Msg.Block_request { round = 1; source = 2 }) ^ "x") with
    | exception Codec.Decode_error _ -> true
    | _ -> false)

let test_codec_compact_val_roundtrip () =
  let v =
    Vertex.make ~round:3 ~source:2 ~block_digest:(Block.digest sample_block)
      ~strong_edges:[| vref_of_slot 2 0; vref_of_slot 2 1 |]
      ~weak_edges:[| vref_of_slot 1 5 |] ~compact:true ()
  in
  let sg = Keychain.sign kc ~signer:2 "sig" in
  let m = Msg.Val { vertex = v; block = Some sample_block; signature = sg } in
  let enc = Codec.encode ~n:16 m in
  Alcotest.(check int) "wire_size = encode length" (Msg.wire_size ~n:16 m)
    (String.length enc);
  let dec = Codec.decode ~n:16 ~compact:true enc in
  Alcotest.(check string) "roundtrip" enc (Codec.encode ~n:16 dec);
  (* A compact VAL is strictly smaller than the dense encoding of the
     same vertex. *)
  let dense =
    Msg.Val
      {
        vertex =
          Vertex.make ~round:3 ~source:2 ~block_digest:(Block.digest sample_block)
            ~strong_edges:[| vref_of_slot 2 0; vref_of_slot 2 1 |]
            ~weak_edges:[| vref_of_slot 1 5 |] ();
        block = Some sample_block;
        signature = sg;
      }
  in
  Alcotest.(check bool) "compact < dense" true
    (Msg.wire_size ~n:16 m < Msg.wire_size ~n:16 dense)

let test_vertex_block_codec_roundtrip () =
  let v = sample_vertex ~tc:true () in
  let v' = Codec.decode_vertex ~n:16 (Codec.encode_vertex ~n:16 v) in
  Alcotest.(check bool) "vertex digest preserved" true (Digest32.equal v.Vertex.digest v'.Vertex.digest);
  let b' = Codec.decode_block (Codec.encode_block sample_block) in
  Alcotest.(check bool) "block digest preserved" true
    (Digest32.equal (Block.digest sample_block) (Block.digest b'))

let prop_codec_block_roundtrip =
  QCheck.Test.make ~name:"random blocks round-trip" ~count:100
    QCheck.(pair (int_range 0 15) (list_of_size (QCheck.Gen.int_range 0 20) (int_range 0 2048)))
    (fun (proposer, sizes) ->
      let txns =
        Array.of_list
          (List.mapi (fun i size -> Transaction.make ~id:i ~client:proposer ~created_at:i ~size ()) sizes)
      in
      let b = Block.make ~proposer ~round:1 ~txns in
      let b' = Codec.decode_block (Codec.encode_block b) in
      let payload = List.fold_left ( + ) 0 sizes in
      Digest32.equal (Block.digest b) (Block.digest b')
      && String.length (Codec.encode_block b) = Block.wire_size b - payload)

(* The store form is the block's own record, and decoding wraps it: the
   WAL and every replica share one string. *)
let prop_codec_block_headers =
  QCheck.Test.make ~name:"store form keeps digest and headers" ~count:100
    arb_block_fields (fun (proposer, round, txns) ->
      let b = Block.make ~proposer ~round ~txns in
      let s = Codec.encode_block b in
      let b' = Codec.decode_block s in
      s == b.record && b'.record == s
      && Digest32.equal (Block.digest b) (Block.digest b')
      && b'.proposer = proposer && b'.round = round
      && Block.wire_size b' = Block.wire_size b
      && List.init (Block.txn_count b') (Block.txn b') = Array.to_list txns)

let test_codec_block_rejects () =
  let s = Codec.encode_block sample_block in
  let rejected label bad =
    Alcotest.(check bool) label true
      (match Codec.decode_block bad with
      | _ -> false
      | exception Codec.Decode_error _ -> true)
  in
  let recount delta =
    let b = Bytes.of_string s in
    Bytes.set_int32_be b 8 (Int32.of_int (Block.txn_count sample_block + delta));
    Bytes.to_string b
  in
  rejected "short header" (String.sub s 0 (Block.header_bytes - 1));
  rejected "truncated transaction" (String.sub s 0 (String.length s - 1));
  rejected "trailing byte" (s ^ "\x00");
  rejected "one whole transaction missing"
    (String.sub s 0 (String.length s - Block.txn_bytes));
  rejected "count too high" (recount 1);
  rejected "count too low" (recount (-1))

let suites =
  [
    ( "types.config",
      [
        Alcotest.test_case "full mode" `Quick test_config_full;
        Alcotest.test_case "single clan" `Quick test_config_single_clan;
        Alcotest.test_case "multi clan" `Quick test_config_multi_clan;
        Alcotest.test_case "leader rotation" `Quick test_config_leader_rotation;
        Alcotest.test_case "sparse policy" `Quick test_config_sparse;
        Alcotest.test_case "validation" `Quick test_config_validation;
      ] );
    ( "types.block",
      [
        Alcotest.test_case "txn wire size" `Quick test_txn_wire_size;
        Alcotest.test_case "digest binding" `Quick test_block_digest_binding;
        Alcotest.test_case "block wire size" `Quick test_block_wire_size;
        Alcotest.test_case "block live words" `Quick test_block_live_words;
        Alcotest.test_case "build allocates no per-txn minor words" `Quick
          test_block_build_minor_words;
        qtest prop_block_digest_reference;
      ] );
    ( "types.vertex",
      [
        Alcotest.test_case "edge validation" `Quick test_vertex_edge_validation;
        Alcotest.test_case "digest sensitivity" `Quick test_vertex_digest_sensitivity;
        Alcotest.test_case "strong edge query" `Quick test_vertex_strong_edge_query;
        Alcotest.test_case "compact form" `Quick test_vertex_compact_form;
        Alcotest.test_case "compact validation" `Quick test_vertex_compact_validation;
        Alcotest.test_case "id order" `Quick test_vertex_id_order;
      ] );
    ( "types.cert",
      [
        Alcotest.test_case "roundtrip" `Quick test_cert_roundtrip;
        Alcotest.test_case "wrong round shares" `Quick test_cert_wrong_round_shares;
        Alcotest.test_case "kind separation" `Quick test_cert_kind_separation;
      ] );
    ( "types.codec",
      [
        Alcotest.test_case "wire_size = encode length" `Quick test_wire_size_matches_codec;
        Alcotest.test_case "roundtrip all messages" `Quick test_codec_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "compact VAL roundtrip" `Quick test_codec_compact_val_roundtrip;
        Alcotest.test_case "vertex/block standalone" `Quick test_vertex_block_codec_roundtrip;
        qtest prop_codec_block_roundtrip;
        qtest prop_codec_block_headers;
        Alcotest.test_case "bad block records rejected" `Quick test_codec_block_rejects;
      ] );
  ]
