open Clanbft_types
open Clanbft_crypto
module Bitset = Clanbft_util.Bitset
module Engine = Clanbft_sim.Engine
module Net = Clanbft_sim.Net
module Time = Clanbft_sim.Time
module Store = Clanbft_dag.Store
module Obs = Clanbft_obs.Obs
module Metrics = Clanbft_obs.Metrics
module Trace = Clanbft_obs.Trace
module Prof = Clanbft_obs.Prof

let sec_propose = Prof.section "sailfish.propose"
let sec_echo = Prof.section "sailfish.echo"
let sec_commit = Prof.section "sailfish.commit"

let src_log = Logs.Src.create "clanbft.sailfish" ~doc:"Sailfish consensus"

module Log = (val Logs.src_log src_log)

type params = {
  round_timeout : Time.span;
  sync_retry : Time.span;
  pull_budget : int;
  gc_depth : int;
  sync_chunk : int;
}

let default_params =
  {
    round_timeout = Time.ms 1_500.;
    sync_retry = Time.ms 150.;
    pull_budget = 8;
    gc_depth = 64;
    sync_chunk = 64;
  }

(* Per-digest vote state within a dissemination slot: equivocating
   proposers produce several digests, counted separately. The verified
   echo shares live only as their signer set and running XOR tag: the
   certificate needs nothing else, and keeping each share until the round
   is collected made this state grow as n³ per round. *)
type votes = {
  digest : Digest32.t;
  acc : Keychain.Acc.t; (* its signer set is the voter set *)
  mutable clan_votes : int;
  (* Echo signing string for this digest, built and hashed once: every one
     of the ~n echo receipts and the certificate check verify against the
     same string, and both rebuilding and rehashing it per receipt showed
     up in profiles (echo receipts are ~n³ per round at paper scale). *)
  signing : string;
  signing_h : Keychain.msg_hash;
}

(* One merged vertex+block broadcast instance per (round, source). *)
type slot = {
  s_round : int;
  s_source : int;
  mutable vertex : Vertex.t option; (* content as first received *)
  mutable block : Block.t option;
  mutable echoed : bool;
  mutable cert_sent : bool;
  mutable delivered : bool; (* RBC-delivered: a valid cert seen/formed *)
  mutable agreed : Digest32.t option; (* the certified vertex digest *)
  (* Both are dropped once the slot settles: see [settle]. *)
  mutable votes : votes option; (* the first digest echoed *)
  mutable rival_votes : votes list; (* further digests: an equivocator *)
  mutable fetching_vertex : bool;
  mutable fetching_block : bool;
  (* Pull replies served, per peer: the rate limit. Empty until the first
     pull, which almost no slot ever sees. *)
  mutable served : int array;
}

(* Observability handles, resolved once at construction so the hot paths
   pay an integer add plus (for the trace) one enabled-branch. *)
type obs_handles = {
  o_trace : Trace.t;
  o_pull_retries : Metrics.counter;
  o_inserted : Metrics.counter;
  o_committed : Metrics.counter;
  o_sync_rounds : Metrics.counter;
  o_recovery_wall : Metrics.gauge;
}

type t = {
  me : int;
  config : Config.t;
  keychain : Keychain.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  params : params;
  obsh : obs_handles;
  store : Store.t;
  make_block : round:int -> bytes; (* a record to seal, see [Block.seal] *)
  on_commit : leader:Vertex.t -> Vertex.t list -> unit;
  on_block : Block.t -> unit;
  (* dissemination: round -> slot per source, as in [Store]. Echo receipts
     look a slot up ~n³ times per round; GC drops whole rounds. *)
  slots : (int, slot option array) Hashtbl.t;
  pending : (int * int, Vertex.t) Hashtbl.t; (* delivered, parents missing *)
  (* Reverse index over [pending]: parent slot -> children buffered on it.
     An insertion wakes exactly the children waiting on that slot instead
     of re-filtering every pending vertex's full parent list — the old
     O(|pending| · edges) rescan per insert dominated at paper scale. *)
  waiters : (int * int, (int * int) list ref) Hashtbl.t;
  blocks : (int * int, Block.t) Hashtbl.t; (* available blocks I store *)
  (* round progression *)
  mutable round : int;
  mutable proposed : bool; (* proposed in current round? *)
  mutable started : bool;
  mutable timer_epoch : int;
  (* crash / recovery *)
  mutable halted : bool; (* torn down: ignore messages and stale timers *)
  mutable syncing : bool; (* recovering: pulling history, not proposing *)
  mutable sync_target : int; (* highest round any sync peer reported *)
  mutable sync_replies : int;
  mutable min_propose_round : int; (* never re-propose a journalled round *)
  mutable snapshot_joined : bool; (* rejoined past a GC'd gap *)
  mutable recovery_started_at : Time.t;
  sync_seen_rounds : (int, unit) Hashtbl.t;
  on_deliver : Vertex.t -> unit; (* journal hook, fired before insertion *)
  on_propose : round:int -> unit; (* journal hook, fired before VAL sends *)
  timeout_sent : (int, unit) Hashtbl.t;
  timeout_shares : (int, Keychain.Acc.t) Hashtbl.t;
  no_vote_shares : (int, Keychain.Acc.t) Hashtbl.t; (* only as leader of r+1 *)
  tcs : (int, Cert.t) Hashtbl.t;
  nvcs : (int, Cert.t) Hashtbl.t;
  (* commit machinery *)
  leader_votes : (int, Bitset.t) Hashtbl.t; (* round -> voters for its leader *)
  commit_ready : (int, unit) Hashtbl.t; (* direct quorum reached *)
  mutable last_committed : int;
  ordered : (int, Bitset.t) Hashtbl.t; (* round -> sources ordered *)
  mutable ordered_total : int;
  mutable ordered_hash : int; (* chained fingerprint of the total order *)
  (* weak-edge bookkeeping *)
  covered : (int, Bitset.t) Hashtbl.t; (* causal history of my proposals *)
  (* A table, not a bitset: its fold order feeds weak-edge selection. *)
  uncovered : (int * int, Vertex.t) Hashtbl.t;
}

let me t = t.me
let current_round t = t.round
let last_committed_round t = t.last_committed
let committed_count t = t.ordered_total
let ordered_hash t = t.ordered_hash

(* FNV-1a-style chaining, same mix the bench fingerprints use: cheap, and
   any divergence in commit order or content changes every later value. *)
let mix_commit h ~round ~source =
  let h = h lxor ((round * 1_000_003) + source) in
  let h = h * 0x100000001b3 in
  h land max_int
let dag_size t = Store.size t.store
let quorum t = Config.quorum t.config
let leader_of t round = Config.leader_of_round t.config round

(* Certificate relayers for a slot under the sparse edge policy: the f+1
   nodes source, source+1, ..., source+f (mod n). Any set of f+1 distinct
   parties contains an honest one, and echoes are n-wide broadcasts, so
   every honest relayer reaches the certificate threshold whenever any
   honest party does — one honest relayer's broadcast then delivers the
   slot everywhere. Dense mode keeps the paper's broadcast-by-everyone
   redundancy (and its pinned byte-identical message flow), and so does
   sparse with k >= n, where the edge policy is defined to degenerate to
   dense exactly (the equivalence tests rely on this). *)
let cert_relayer t ~source =
  match Config.edge_policy t.config with
  | Config.Dense -> true
  | Config.Sparse { k; _ } when k >= Config.n t.config -> true
  | Config.Sparse _ ->
      let n = Config.n t.config in
      let f = (n - 1) / 3 in
      (t.me - source + n) mod n <= f

let trace_phase t ~sender ~round phase =
  let tr = t.obsh.o_trace in
  if Trace.enabled tr then
    Trace.emit tr ~ts:(Engine.now t.engine)
      (Trace.Rbc_phase { node = t.me; sender; round; phase })

let trace_recovery t ~stage ~round =
  let tr = t.obsh.o_trace in
  if Trace.enabled tr then
    Trace.emit tr ~ts:(Engine.now t.engine)
      (Trace.Recovery { node = t.me; stage; round })

let valid_source t source = source >= 0 && source < Config.n t.config

(* [source] must be a valid party index: callers check peer-supplied
   sources with [valid_source] first. *)
let slot_of t ~round ~source =
  let row =
    match Hashtbl.find_opt t.slots round with
    | Some row -> row
    | None ->
        let row = Array.make (Config.n t.config) None in
        Hashtbl.replace t.slots round row;
        row
  in
  match row.(source) with
  | Some s -> s
  | None ->
      let s =
        {
          s_round = round;
          s_source = source;
          vertex = None;
          block = None;
          echoed = false;
          cert_sent = false;
          delivered = false;
          agreed = None;
          votes = None;
          rival_votes = [];
          fetching_vertex = false;
          fetching_block = false;
          served = [||];
        }
      in
      row.(source) <- Some s;
      s

let find_votes slot digest =
  match slot.votes with
  | Some v when Digest32.equal v.digest digest -> Some v
  | _ ->
      List.find_opt (fun v -> Digest32.equal v.digest digest) slot.rival_votes

let votes_of t slot digest =
  match slot.votes with
  | Some v when Digest32.equal v.digest digest -> v
  | _ -> (
      match find_votes slot digest with
      | Some v -> v
      | None ->
          let signing =
            Msg.echo_signing_string ~round:slot.s_round ~source:slot.s_source
              digest
          in
          let v =
            {
              digest;
              acc = Keychain.Acc.create t.keychain;
              clan_votes = 0;
              signing;
              signing_h = Keychain.hash_msg signing;
            }
          in
          (match slot.votes with
          | None -> slot.votes <- Some v
          | Some _ -> slot.rival_votes <- v :: slot.rival_votes);
          v)

(* A slot settles once this node has sent its certificate and holds the
   vertex. Its vote state then has no reader left: [on_echo] returns on
   [cert_sent] before touching it, [on_echo_cert] on [delivered], and
   [fetch_vertex] runs only while the vertex is missing. Dropping it leaves
   a settled slot a few words instead of a signer set, tag and signing
   string per digest — n² slots per round at every replica. *)
let settle slot =
  if slot.cert_sent && slot.vertex <> None then begin
    slot.votes <- None;
    slot.rival_votes <- []
  end

(* Per-round member sets, as [leader_votes]: [round_set] makes the round's
   set on first use; [round_mem] allocates nothing. *)
let round_set t tbl round =
  match Hashtbl.find tbl round with
  | b -> b
  | exception Not_found ->
      let b = Bitset.create (Config.n t.config) in
      Hashtbl.replace tbl round b;
      b

let round_mem tbl ~round ~source =
  match Hashtbl.find tbl round with
  | b -> Bitset.mem b source
  | exception Not_found -> false

(* Pull rate limit: may [src] be served this slot once more? *)
let take_pull t slot src =
  if Array.length slot.served = 0 then
    slot.served <- Array.make (Config.n t.config) 0;
  let served = slot.served.(src) in
  served < t.params.pull_budget
  && begin
       slot.served.(src) <- served + 1;
       true
     end

let acc_of t tbl round =
  match Hashtbl.find_opt tbl round with
  | Some acc -> acc
  | None ->
      let acc = Keychain.Acc.create t.keychain in
      Hashtbl.replace tbl round acc;
      acc

let val_signing_string = Msg.val_signing_string

(* ------------------------------------------------------------------ *)
(* Vertex validity (checked before echoing) *)

let leader_edge_ok t (v : Vertex.t) =
  if v.round = 0 then true
  else begin
    let prev_leader = leader_of t (v.round - 1) in
    let has_edge = Vertex.has_strong_edge_to v ~round:(v.round - 1) ~source:prev_leader in
    if v.source = leader_of t v.round then
      has_edge
      ||
      match v.nvc with
      | Some c ->
          c.kind = Cert.No_vote && c.round = v.round - 1
          && Cert.verify t.keychain ~quorum:(quorum t) c
      | None -> false
    else
      has_edge
      ||
      match v.tc with
      | Some c ->
          c.kind = Cert.Timeout && c.round = v.round - 1
          && Cert.verify t.keychain ~quorum:(quorum t) c
      | None -> false
  end

(* How many strong parents a round-r vertex must / may carry depends on the
   edge policy: dense Sailfish demands the full >= 2f+1 of Fig. 4, the
   sparse mode only a bounded handful (commit safety then rests on the
   mandatory structural edges — see [sparse_strong_refs]). *)
let strong_edges_ok t (v : Vertex.t) =
  let count = Array.length v.strong_edges in
  if v.round = 0 then count = 0
  else
    match Config.edge_policy t.config with
    | Config.Dense -> count >= quorum t
    | Config.Sparse _ as p ->
        count >= 1 && count <= Config.sparse_strong_cap p

let vertex_valid t (v : Vertex.t) =
  v.round >= 0
  && v.source >= 0
  && v.source < Config.n t.config
  && strong_edges_ok t v
  && leader_edge_ok t v

(* Does this proposer's slot carry a real block? Vertex-only proposers use
   the zero digest. *)
let expects_block (v : Vertex.t) =
  not (Digest32.equal v.block_digest Digest32.zero)

(* ------------------------------------------------------------------ *)
(* Sparse-edge parent selection *)

(* Deterministic, seed-keyed rank for sampled parent selection: a
   splitmix-style avalanche over (seed, round, proposer, candidate). Each
   honest proposer draws a different k-sample per round, so the union of
   sampled edges covers a round within a couple of steps, while the fixed
   seed keeps every run replayable. *)
let edge_rank ~seed ~round ~me candidate =
  let h =
    Int64.to_int seed
    lxor (round * 0x9E3779B9)
    lxor (me * 0x85EBCA6B)
    lxor (candidate * 0xC2B2AE35)
  in
  let h = h lxor (h lsr 16) in
  let h = h * 0x45D9F3B land max_int in
  let h = h lxor (h lsr 15) in
  let h = h * 0x846CA68B land max_int in
  h lxor (h lsr 16)

(* Sparse strong-parent selection for a round-r proposal (r > 0). Picks:
   - my own round-(r-1) vertex (chain continuity),
   - the round-(r-1) leader's vertex when delivered — that edge IS the
     leader vote, exactly as in dense mode,
   - one "link" parent with a strong edge to the round-(r-2) leader: if
     that leader was directly committed then 2f+1 round-(r-1) vertices
     carry such an edge, so any quorum-sized delivered set contains a
     voter — the link keeps a committed-but-skipped leader strong-path
     reachable from later anchors,
   - k further parents, ranked by {!edge_rank}.
   Unpicked round-(r-1) vertices stay uncovered; they are absorbed
   transitively through the sampled parents' histories or by later
   (capped) weak edges. Result is sorted by source — the order the
   compact wire form requires. *)
let sparse_strong_parents t ~k ~seed r =
  let candidates = Store.vertices_at t.store (r - 1) in
  let picked = Bitset.create (Config.n t.config) in
  let chosen = ref [] in
  let pick (v : Vertex.t) =
    if Bitset.add picked v.source then chosen := v :: !chosen
  in
  let lead1 = leader_of t (r - 1) in
  List.iter
    (fun (v : Vertex.t) -> if v.source = t.me || v.source = lead1 then pick v)
    candidates;
  if r >= 2 then begin
    let lead2 = leader_of t (r - 2) in
    let is_link (v : Vertex.t) =
      Vertex.has_strong_edge_to v ~round:(r - 2) ~source:lead2
    in
    if
      not
        (List.exists
           (fun (v : Vertex.t) -> Bitset.mem picked v.source && is_link v)
           candidates)
    then
      match List.find_opt is_link candidates with
      | Some v -> pick v
      | None -> ()
  end;
  let ranked =
    List.filter_map
      (fun (v : Vertex.t) ->
        if Bitset.mem picked v.source then None
        else Some (edge_rank ~seed ~round:r ~me:t.me v.source, v))
      candidates
    |> List.sort (fun (ra, (va : Vertex.t)) (rb, (vb : Vertex.t)) ->
           match Int.compare ra rb with
           | 0 -> Int.compare va.source vb.source
           | c -> c)
  in
  List.iteri (fun i (_, v) -> if i < k then pick v) ranked;
  List.sort (fun (a : Vertex.t) b -> Int.compare a.source b.source) !chosen
  |> List.map Vertex.ref_of |> Array.of_list

let in_payload_clan_of t ~proposer = Config.in_payload_clan t.config ~proposer t.me

(* ------------------------------------------------------------------ *)
(* Forward declarations via mutual recursion *)

let msg_round = function
  | Msg.Val { vertex; _ } | Msg.Vertex_reply { vertex; _ } -> vertex.Vertex.round
  | Msg.Echo { round; _ }
  | Msg.Echo_cert { round; _ }
  | Msg.Timeout_share { round; _ }
  | Msg.No_vote_share { round; _ }
  | Msg.Block_request { round; _ }
  | Msg.Vertex_request { round; _ } ->
      round
  | Msg.Timeout_cert c -> c.Cert.round
  | Msg.Block_reply { block } -> block.Block.round
  (* State-sync control traffic carries no round of its own and is
     dispatched before the GC-floor gate; never consulted. *)
  | Msg.Sync_request _ | Msg.Sync_reply _ -> max_int

let rec handle t ~src msg =
  if not t.halted then
    match msg with
    (* State-sync control messages bypass the floor gate: a recovering
       peer's [from_round] may sit below our floor, and a reply's floor
       field is exactly what tells it so. *)
    | Msg.Sync_request { from_round } -> on_sync_request t ~src ~from_round
    | Msg.Sync_reply { floor; highest } -> on_sync_reply t ~floor ~highest
    | _ ->
        (* Traffic for garbage-collected rounds is dropped outright: it can
           no longer affect the committed prefix, and processing it would
           recreate pruned state (or try to insert below the store's
           floor). *)
        if msg_round msg >= Store.floor t.store then handle_live t ~src msg

and handle_live t ~src msg =
  match msg with
  | Msg.Sync_request _ | Msg.Sync_reply _ -> () (* dispatched in [handle] *)
  | Msg.Val { vertex; block; signature } -> on_val t ~src vertex block signature
  | Msg.Echo { round; source; vertex_digest; signer; signature } ->
      if src = signer && valid_source t source then
        on_echo t ~round ~source ~digest:vertex_digest ~signer ~signature
  | Msg.Echo_cert { round; source; vertex_digest; agg; clan_echoes = _ } ->
      if valid_source t source then
        on_echo_cert t ~round ~source ~digest:vertex_digest ~agg
  | Msg.Timeout_share { round; signer; signature } ->
      if src = signer then on_timeout_share t ~round ~signer ~signature
  | Msg.No_vote_share { round; signer; signature } ->
      if src = signer then on_no_vote_share t ~round ~signer ~signature
  | Msg.Timeout_cert c -> on_timeout_cert t c
  | Msg.Block_request { round; source } ->
      if valid_source t source then on_block_request t ~src ~round ~source
  | Msg.Block_reply { block } ->
      if valid_source t block.proposer then on_block_reply t block
  | Msg.Vertex_request { round; source } ->
      if valid_source t source then on_vertex_request t ~src ~round ~source
  | Msg.Vertex_reply { vertex; block } ->
      if valid_source t vertex.source then on_vertex_reply t vertex block

(* --- VAL ----------------------------------------------------------- *)

and on_val t ~src (v : Vertex.t) block signature =
  if
    v.source = src
    && Keychain.verify t.keychain ~signer:src (val_signing_string v) signature
    && vertex_valid t v
  then begin
    let slot = slot_of t ~round:v.round ~source:v.source in
    trace_phase t ~sender:v.source ~round:v.round Trace.Val;
    register_vote t v;
    if slot.vertex = None then begin
      (* If a certificate already landed (the cert can outrun a VAL stuck
         in the sender's uplink queue), only the certified content is
         acceptable. *)
      let acceptable =
        match slot.agreed with
        | Some d -> Digest32.equal v.digest d
        | None -> true
      in
      if acceptable then begin
        slot.vertex <- Some v;
        (match block with
        | Some b
          when in_payload_clan_of t ~proposer:v.source
               && Digest32.equal (Block.digest b) v.block_digest ->
            slot.block <- Some b
        | _ -> ());
        maybe_echo t slot;
        if slot.delivered then begin
          vertex_available t slot v;
          maybe_fetch_block t slot
        end
      end
    end
  end

and maybe_echo t slot =
  match slot.vertex with
  | None -> ()
  | Some v ->
      if not slot.echoed then begin
        (* Clan members echo only once they hold both the vertex and its
           block (§5); everybody else echoes on the vertex alone. *)
        let block_ok =
          (not (expects_block v))
          || (not (in_payload_clan_of t ~proposer:v.source))
          || slot.block <> None
        in
        if block_ok then begin
          slot.echoed <- true;
          trace_phase t ~sender:v.source ~round:v.round Trace.Echo;
          let signature =
            Keychain.sign t.keychain ~signer:t.me
              (Msg.echo_signing_string ~round:v.round ~source:v.source v.digest)
          in
          Net.broadcast t.net ~src:t.me
            (Msg.Echo
               {
                 round = v.round;
                 source = v.source;
                 vertex_digest = v.digest;
                 signer = t.me;
                 signature;
               })
        end
      end

(* --- ECHO / certificate -------------------------------------------- *)

and on_echo t ~round ~source ~digest ~signer ~signature =
  Prof.enter sec_echo;
  (* Slot and vote state are looked up before signature verification so the
     memoized signing string can be reused; a forged echo still only ever
     creates empty bookkeeping, never a vote. *)
  let slot = slot_of t ~round ~source in
  (* Once this node has made its certificate decision, every later echo is
     dead weight: the threshold branch below is the only consumer of the
     vote bookkeeping, and [fetch_vertex] snapshots its voter candidates at
     certification time. Skipping the ~n - 2f-1 post-certificate echoes
     (verify included) changes no message and no observable state. *)
  if not slot.cert_sent then begin
    let v = votes_of t slot digest in
    if Keychain.verify_hashed t.keychain ~signer v.signing_h signature then begin
      if Keychain.Acc.add v.acc ~signer signature then begin
        if Config.in_payload_clan t.config ~proposer:source signer then
          v.clan_votes <- v.clan_votes + 1;
        let clan_needed =
          Config.clan_echo_threshold t.config ~proposer:source
        in
        if
          Bitset.cardinal (Keychain.Acc.signers v.acc) >= quorum t
          && v.clan_votes >= clan_needed
        then begin
          slot.cert_sent <- true;
          (* Sparse mode restricts certificate fan-out to the slot's f+1
             relayers (source, source+1, ..., source+f): at least one is
             honest, echo broadcasts are n-wide so every honest relayer
             reaches the same threshold whenever any honest node does, and
             the other n-f-1 redundant certificate broadcasts — the
             second n³ term in per-round message volume — disappear.
             Dense mode keeps the broadcast-by-everyone rule. *)
          if cert_relayer t ~source then
            Net.broadcast t.net ~src:t.me
              (Msg.Echo_cert
                 {
                   round;
                   source;
                   vertex_digest = digest;
                   agg = Keychain.Acc.to_aggregate v.acc;
                   clan_echoes = v.clan_votes;
                 });
          certified t slot digest;
          settle slot
        end
      end
    end
  end;
  Prof.leave sec_echo

and on_echo_cert t ~round ~source ~digest ~agg =
  let slot = slot_of t ~round ~source in
  if not slot.delivered then begin
    let signers = Keychain.signers agg in
    let total = Bitset.cardinal signers in
    let clan_count =
      match Config.payload_clan t.config ~proposer:source with
      | None -> total
      | Some members ->
          Array.fold_left
            (fun acc m -> if Bitset.mem signers m then acc + 1 else acc)
            0 members
    in
    let v = votes_of t slot digest in
    if
      total >= quorum t
      && clan_count >= Config.clan_echo_threshold t.config ~proposer:source
      && Keychain.verify_aggregate_hashed t.keychain ~hash:v.signing_h agg
    then certified t slot digest
  end

(* The slot's vertex digest is certified: the RBC instance completes. *)
and certified t slot digest =
  if not slot.delivered then begin
    slot.delivered <- true;
    slot.agreed <- Some digest;
    trace_phase t ~sender:slot.s_source ~round:slot.s_round Trace.Cert;
    (* Discard an equivocator's non-certified copy. *)
    (match slot.vertex with
    | Some v when not (Digest32.equal v.digest digest) ->
        slot.vertex <- None;
        slot.block <- None
    | _ -> ());
    (match slot.vertex with
    | Some v -> vertex_available t slot v
    | None -> fetch_vertex t slot);
    maybe_fetch_block t slot
  end

(* --- vertex availability, DAG insertion ----------------------------- *)

and vertex_available t slot (v : Vertex.t) =
  (* Called once the slot is delivered AND the content is at hand. *)
  if slot.delivered then begin
    settle slot;
    (match slot.block with
    | Some b when expects_block v -> block_available t slot b
    | _ -> ());
    try_insert t v
  end

and try_insert t (v : Vertex.t) =
  if not (Store.mem t.store ~round:v.round ~source:v.source) then begin
    if Store.parents_present t.store v then insert t v
    else
      match Store.missing_parents t.store v with
      | [] -> insert t v (* unreachable: presence check just failed *)
      | missing ->
          if not (Hashtbl.mem t.pending (v.round, v.source)) then begin
            let key = (v.round, v.source) in
            Hashtbl.replace t.pending key v;
            List.iter
              (fun (r : Vertex.vref) ->
                let slot = (r.round, r.source) in
                match Hashtbl.find_opt t.waiters slot with
                | Some l -> if not (List.mem key !l) then l := key :: !l
                | None -> Hashtbl.replace t.waiters slot (ref [ key ]))
              missing;
            request_parents t v missing
          end
  end

and insert t (v : Vertex.t) =
  (* Journal before acting: a crash after this point replays the vertex,
     so nothing derived from it (votes, commits, echoes) is ever lost. *)
  t.on_deliver v;
  Store.add t.store v;
  Hashtbl.remove t.pending (v.round, v.source);
  Metrics.incr t.obsh.o_inserted;
  if Trace.enabled t.obsh.o_trace then
    Trace.emit t.obsh.o_trace ~ts:(Engine.now t.engine)
      (Trace.Vertex_deliver { node = t.me; round = v.round; source = v.source });
  if not (round_mem t.covered ~round:v.round ~source:v.source) then
    Hashtbl.replace t.uncovered (v.round, v.source) v;
  (* Wake only the children buffered on this slot. A woken child may still
     miss other parents (its waiter entries on those slots remain), so it
     is re-checked, not blindly inserted. *)
  (match Hashtbl.find_opt t.waiters (v.round, v.source) with
  | None -> ()
  | Some l ->
      Hashtbl.remove t.waiters (v.round, v.source);
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.pending key with
          | Some child when Store.parents_present t.store child ->
              insert t child
          | Some _ | None -> ())
        (List.rev !l));
  try_commit t;
  maybe_advance t;
  check_caught_up t

(* --- missing data sync ---------------------------------------------- *)

and request_parents t (child : Vertex.t) missing =
  List.iter
    (fun (r : Vertex.vref) ->
      let slot = slot_of t ~round:r.round ~source:r.source in
      if slot.vertex = None && not slot.fetching_vertex then begin
        slot.fetching_vertex <- true;
        (* Ask the child's proposer first (it certainly held the parent),
           falling back to the parent's own source. *)
        vertex_fetch_loop t slot ~cycles:0 ~ring:2 [ child.source; r.source ]
      end;
      (* The child is RBC-delivered, so a quorum certified its content —
         edges included. The edge digest therefore certifies the parent
         too: complete the parent's RBC instance by reference, so a node
         that lost every echo for it (e.g. behind a partition) can still
         deliver via fetch and walk the chain back to its frontier. *)
      certified t slot r.digest)
    (List.filter (fun (r : Vertex.vref) -> valid_source t r.source) missing)

and fetch_vertex ?(cycles = 0) ?(last = 0) t slot =
  if not slot.fetching_vertex then begin
    slot.fetching_vertex <- true;
    (* Anyone who echoed the certified digest has seen the vertex. *)
    let candidates =
      match slot.agreed with
      | Some d -> (
          match find_votes slot d with
          | Some v ->
              List.filter (fun i -> i <> t.me)
                (Bitset.to_list (Keychain.Acc.signers v.acc))
          | None -> [])
      | None -> []
    in
    let candidates =
      if candidates = [] then [ slot.s_source ] else candidates
    in
    (* Reset the sweep backoff on progress: a grown candidate set means new
       echoes landed since the last sweep, so someone reachable has it. *)
    let cycles = if List.length candidates > last then 0 else cycles in
    vertex_fetch_loop t slot ~cycles ~ring:(List.length candidates) candidates
  end

and vertex_fetch_loop t slot ~cycles ~ring candidates =
  if (not t.halted) && slot.vertex = None && slot.s_round >= Store.floor t.store
  then
    match candidates with
    | [] ->
        (* Start over — delivery guarantees someone has it — but with the
           completed-sweep counter driving an exponential backoff capped at
           16 x sync_retry, matching the TA-RBC pull cycle: a muted or
           griefing source must not turn the fetch path into a constant-rate
           pull storm. *)
        let backoff = t.params.sync_retry * (1 lsl min cycles 4) in
        Engine.schedule_after t.engine backoff (fun () ->
            slot.fetching_vertex <- false;
            if slot.vertex = None then
              fetch_vertex ~cycles:(cycles + 1) ~last:ring t slot)
    | target :: rest ->
        Metrics.incr t.obsh.o_pull_retries;
        trace_phase t ~sender:slot.s_source ~round:slot.s_round Trace.Pull_retry;
        Net.send t.net ~src:t.me ~dst:target
          (Msg.Vertex_request { round = slot.s_round; source = slot.s_source });
        Engine.schedule_after t.engine t.params.sync_retry (fun () ->
            vertex_fetch_loop t slot ~cycles ~ring rest)

and maybe_fetch_block ?(cycles = 0) t slot =
  match slot.vertex with
  | Some v
    when slot.delivered && slot.block = None && expects_block v
         && in_payload_clan_of t ~proposer:v.source && not slot.fetching_block
    ->
      slot.fetching_block <- true;
      let clan =
        match Config.payload_clan t.config ~proposer:v.source with
        | Some members -> Array.to_list members
        | None -> []
      in
      block_fetch_loop t slot ~cycles
        (List.filter (fun i -> i <> t.me) clan)
  | _ -> ()

and block_fetch_loop t slot ~cycles candidates =
  if (not t.halted) && slot.block = None && slot.s_round >= Store.floor t.store
  then
    match candidates with
    | [] ->
        (* Same capped exponential backoff as the vertex sweep. The block
           candidate set is the (fixed) payload clan, so there is no grown-
           candidate reset; a fresh [maybe_fetch_block] trigger (the flag
           cleared by success or GC) starts over at full rate. *)
        let backoff = t.params.sync_retry * (1 lsl min cycles 4) in
        Engine.schedule_after t.engine backoff (fun () ->
            slot.fetching_block <- false;
            maybe_fetch_block ~cycles:(cycles + 1) t slot)
    | target :: rest ->
        Metrics.incr t.obsh.o_pull_retries;
        trace_phase t ~sender:slot.s_source ~round:slot.s_round Trace.Pull_retry;
        Net.send t.net ~src:t.me ~dst:target
          (Msg.Block_request { round = slot.s_round; source = slot.s_source });
        Engine.schedule_after t.engine t.params.sync_retry (fun () ->
            block_fetch_loop t slot ~cycles rest)

and on_block_request t ~src ~round ~source =
  let slot = slot_of t ~round ~source in
  match slot.block with
  | Some block ->
      if take_pull t slot src then
        Net.send t.net ~src:t.me ~dst:src (Msg.Block_reply { block })
  | None -> ()

and on_block_reply t (b : Block.t) =
  let slot = slot_of t ~round:b.round ~source:b.proposer in
  match slot.vertex with
  | Some v
    when slot.block = None
         && Digest32.equal (Block.digest b) v.block_digest
         && in_payload_clan_of t ~proposer:b.proposer ->
      slot.block <- Some b;
      block_available t slot b
  | _ -> ()

and block_available t slot b =
  if not (Hashtbl.mem t.blocks (slot.s_round, slot.s_source)) then begin
    Hashtbl.replace t.blocks (slot.s_round, slot.s_source) b;
    t.on_block b
  end

and on_vertex_request t ~src ~round ~source =
  let slot = slot_of t ~round ~source in
  match slot.vertex with
  | Some vertex when slot.delivered ->
      if take_pull t slot src then begin
        let block =
          if Config.in_payload_clan t.config ~proposer:source src then slot.block
          else None
        in
        Net.send t.net ~src:t.me ~dst:src (Msg.Vertex_reply { vertex; block })
      end
  | _ -> ()

and on_vertex_reply t (v : Vertex.t) block =
  (* Recovery progress metric: count each distinct round we receive sync /
     pull material for while catching up. *)
  if t.syncing && not (Hashtbl.mem t.sync_seen_rounds v.round) then begin
    Hashtbl.replace t.sync_seen_rounds v.round ();
    Metrics.incr t.obsh.o_sync_rounds
  end;
  let slot = slot_of t ~round:v.round ~source:v.source in
  if slot.vertex = None && vertex_valid t v then begin
    (* Accept only content matching the certified digest (if certified) or
       buffer it as the first copy otherwise. *)
    let acceptable =
      match slot.agreed with
      | Some d -> Digest32.equal v.digest d
      | None -> true
    in
    if acceptable then begin
      slot.vertex <- Some v;
      register_vote t v;
      (match block with
      | Some b
        when in_payload_clan_of t ~proposer:v.source
             && Digest32.equal (Block.digest b) v.block_digest ->
          slot.block <- Some b
      | _ -> ());
      maybe_echo t slot;
      if slot.delivered then begin
        vertex_available t slot v;
        maybe_fetch_block t slot
      end
    end
  end

(* --- state sync (crash recovery) ------------------------------------ *)

and on_sync_request t ~src ~from_round =
  (* Announce our window, then stream a bounded chunk of certified
     vertices starting at the requester's frontier. Sync replies reuse the
     ordinary [Vertex_reply] path (same validation, same insertion), and
     are streamed in ascending round order so parents always precede
     children. The requester re-asks from its new frontier, so a chunk cap
     bounds per-request burst size without capping total transfer. *)
  let floor = Store.floor t.store in
  let highest = Store.highest_round t.store in
  Net.send t.net ~src:t.me ~dst:src (Msg.Sync_reply { floor; highest });
  let lo = max from_round floor in
  let hi = min highest (lo + t.params.sync_chunk - 1) in
  for r = lo to hi do
    List.iter
      (fun (vertex : Vertex.t) ->
        let block =
          if Config.in_payload_clan t.config ~proposer:vertex.source src then
            Hashtbl.find_opt t.blocks (vertex.round, vertex.source)
          else None
        in
        Net.send t.net ~src:t.me ~dst:src (Msg.Vertex_reply { vertex; block }))
      (Store.vertices_at t.store r)
  done

and on_sync_reply t ~floor ~highest =
  if t.syncing then begin
    t.sync_replies <- t.sync_replies + 1;
    if highest > t.sync_target then t.sync_target <- highest;
    (* The peer garbage-collected past our frontier: the gap can never be
       refilled vertex by vertex. Adopt the peer's floor as a join point —
       everything below it is already committed by a quorum and pruned
       everywhere we could ask. *)
    if floor > Store.highest_round t.store + 1 then begin
      Store.prune_below t.store ~round:floor;
      if floor - 1 > t.last_committed then t.last_committed <- floor - 1;
      t.snapshot_joined <- true;
      let doomed =
        Hashtbl.fold
          (fun ((r, _) as k) _ acc -> if r < floor then k :: acc else acc)
          t.pending []
      in
      List.iter (Hashtbl.remove t.pending) doomed;
      let doomed_waits =
        Hashtbl.fold
          (fun ((r, _) as k) _ acc -> if r < floor then k :: acc else acc)
          t.waiters []
      in
      List.iter (Hashtbl.remove t.waiters) doomed_waits;
      (* Surviving children whose missing parents fell below the adopted
         floor will never be woken by the waiter index (those parents are
         gone for good); they are satisfied now. *)
      let unblocked =
        Hashtbl.fold
          (fun _ v acc ->
            if Store.parents_present t.store v then v :: acc else acc)
          t.pending []
      in
      List.iter (fun v -> insert t v) unblocked;
      trace_recovery t ~stage:"snapshot_join" ~round:floor
    end;
    check_caught_up t
  end

and check_caught_up t =
  if
    t.syncing && t.sync_replies > 0
    && Store.highest_round t.store >= t.sync_target
    && t.round > t.sync_target
  then begin
    (* Caught up: our DAG covers every round a peer reported and our round
       clock has moved past them, so any round we now propose in is fresh —
       no journalled proposal can exist for it. *)
    t.syncing <- false;
    if t.round > t.min_propose_round then t.min_propose_round <- t.round;
    Metrics.set t.obsh.o_recovery_wall
      (Time.to_ms (Engine.now t.engine - t.recovery_started_at));
    trace_recovery t ~stage:"caught_up" ~round:t.round;
    Log.debug (fun m -> m "node %d caught up at r%d" t.me t.round);
    arm_timer t;
    maybe_propose t
  end

and sync_tick t ~cursor ~cycles ~last_frontier =
  if (not t.halted) && t.syncing then begin
    let n = Config.n t.config in
    let frontier = Store.highest_round t.store in
    (* Progress resets the backoff; a dry spell (partitioned peers, lost
       replies) backs off like the pull path, capped at 16x. *)
    let cycles = if frontier > last_frontier then 0 else cycles in
    let peer = cursor mod n in
    let peer = if peer = t.me then (peer + 1) mod n else peer in
    Metrics.incr t.obsh.o_pull_retries;
    Net.send t.net ~src:t.me ~dst:peer
      (Msg.Sync_request { from_round = frontier + 1 });
    let backoff = t.params.sync_retry * (1 lsl min cycles 4) in
    Engine.schedule_after t.engine backoff (fun () ->
        sync_tick t ~cursor:(peer + 1) ~cycles:(cycles + 1)
          ~last_frontier:frontier);
    check_caught_up t
  end

(* --- leader votes and commits --------------------------------------- *)

and register_vote t (v : Vertex.t) =
  if v.round > 0 then begin
    let prev = v.round - 1 in
    let lead = leader_of t prev in
    if Vertex.has_strong_edge_to v ~round:prev ~source:lead then begin
      let votes = round_set t t.leader_votes prev in
      if Bitset.add votes v.source then
        if Bitset.cardinal votes >= quorum t then begin
          if not (Hashtbl.mem t.commit_ready prev) then begin
            Hashtbl.replace t.commit_ready prev ();
            try_commit t
          end
        end
    end
  end

and try_commit t =
  Prof.enter sec_commit;
  (* Process direct-commit-ready leader rounds in ascending order; each one
     drags in skipped leaders reachable by strong paths (indirect rule). *)
  let rec next_ready r best =
    (* find the highest ready round whose leader vertex is present *)
    if r > Store.highest_round t.store + 1 then best
    else begin
      let best =
        if
          Hashtbl.mem t.commit_ready r
          && Store.mem t.store ~round:r ~source:(leader_of t r)
        then Some r
        else best
      in
      next_ready (r + 1) best
    end
  in
  (match next_ready (t.last_committed + 1) None with
  | None -> ()
  | Some r ->
      let leader_vertex s =
        Store.find t.store ~round:s ~source:(leader_of t s)
      in
      let anchor = Option.get (leader_vertex r) in
      (* Walk back across skipped rounds collecting indirectly committed
         leaders. *)
      let chain = ref [ anchor ] in
      let current = ref anchor in
      for s = r - 1 downto t.last_committed + 1 do
        match leader_vertex s with
        | Some l
          when Store.strong_path t.store !current ~round:s ~source:l.source ->
            chain := l :: !chain;
            current := l
        | _ -> ()
      done;
      List.iter
        (fun (l : Vertex.t) ->
          let history =
            Store.causal_history t.store l ~skip:(round_mem t.ordered)
          in
          List.iter
            (fun (v : Vertex.t) ->
              ignore (Bitset.add (round_set t t.ordered v.round) v.source);
              t.ordered_hash <-
                mix_commit t.ordered_hash ~round:v.round ~source:v.source;
              if Trace.enabled t.obsh.o_trace then
                Trace.emit t.obsh.o_trace ~ts:(Engine.now t.engine)
                  (Trace.Vertex_commit
                     {
                       node = t.me;
                       round = v.round;
                       source = v.source;
                       leader_round = l.round;
                     }))
            history;
          t.ordered_total <- t.ordered_total + List.length history;
          Metrics.add t.obsh.o_committed (List.length history);
          Log.debug (fun m ->
              m "node %d commits leader r%d (%d vertices)" t.me l.round
                (List.length history));
          t.on_commit ~leader:l history)
        !chain;
      t.last_committed <- r;
      garbage_collect t;
      try_commit t);
  Prof.leave sec_commit

and garbage_collect t =
  let horizon = t.last_committed - t.params.gc_depth in
  if horizon > 0 then begin
    Store.prune_below t.store ~round:horizon;
    let drop_below tbl =
      let doomed =
        Hashtbl.fold
          (fun ((r, _) as k) _ acc -> if r < horizon then k :: acc else acc)
          tbl []
      in
      List.iter (Hashtbl.remove tbl) doomed
    in
    drop_below t.uncovered;
    drop_below t.blocks;
    drop_below t.pending;
    drop_below t.waiters;
    let drop_rounds tbl =
      let doomed =
        Hashtbl.fold (fun r _ acc -> if r < horizon then r :: acc else acc) tbl []
      in
      List.iter (Hashtbl.remove tbl) doomed
    in
    drop_rounds t.slots;
    drop_rounds t.ordered;
    drop_rounds t.covered;
    drop_rounds t.leader_votes;
    drop_rounds t.commit_ready;
    drop_rounds t.timeout_shares;
    drop_rounds t.no_vote_shares;
    drop_rounds t.tcs;
    drop_rounds t.nvcs;
    drop_rounds t.timeout_sent;
    (* Raising the floor may satisfy a pending vertex whose only missing
       parents were just pruned (references below the floor count as
       present) — those parents will never insert, so the waiter index
       cannot wake such children; rescan the (small, post-drop) pending
       set directly. *)
    let unblocked =
      Hashtbl.fold
        (fun _ v acc ->
          if Store.parents_present t.store v then v :: acc else acc)
        t.pending []
    in
    List.iter (fun v -> insert t v) unblocked
  end

(* --- round progression ---------------------------------------------- *)

and maybe_advance t =
  if t.started then begin
    let r = t.round in
    (* While state-syncing we advance on a quorum of vertices alone: the
       leader-or-TC condition is unattainable for history (timeout-share
       quorums are exact, so old TCs can never re-form for a late joiner),
       and it only exists to pace live rounds anyway. *)
    if
      Store.count_at t.store r >= quorum t
      && (t.syncing
         || Store.mem t.store ~round:r ~source:(leader_of t r)
         || Hashtbl.mem t.tcs r)
    then advance t (r + 1)
    else maybe_propose t
  end

and advance t r =
  if r > t.round then begin
    t.round <- r;
    t.proposed <- false;
    (* No round timer during state sync: historical rounds are not late,
       and timeout shares for them would be noise. [check_caught_up] arms
       the timer when live operation resumes. *)
    if not t.syncing then arm_timer t;
    maybe_propose t;
    (* Catch up if successor rounds are already complete. *)
    maybe_advance t
  end

and maybe_propose t =
  if
    t.started && (not t.proposed) && (not t.syncing)
    && t.round >= t.min_propose_round
  then begin
    let r = t.round in
    if r = 0 then propose t r
    else begin
      let prev_leader = leader_of t (r - 1) in
      let have_leader = Store.mem t.store ~round:(r - 1) ~source:prev_leader in
      if t.me = leader_of t r && not have_leader then begin
        (* The round leader may only propose without an edge to the previous
           leader when it holds a no-vote certificate; otherwise it waits
           for whichever arrives first. *)
        if Hashtbl.mem t.nvcs (r - 1) then propose t r
      end
      else propose t r
    end
  end

(* Mark every vertex reachable from [refs] as covered by my proposals, so
   it never needs a weak edge from me again. Amortised O(1) per vertex. *)
and mark_covered t refs =
  let rec visit (r : Vertex.vref) =
    if Bitset.add (round_set t t.covered r.round) r.source then begin
      Hashtbl.remove t.uncovered (r.round, r.source);
      match Store.find_ref t.store r with
      | Some v ->
          Array.iter visit v.strong_edges;
          Array.iter visit v.weak_edges
      | None -> ()
    end
  in
  List.iter visit refs

and propose t r =
  Prof.enter sec_propose;
  t.proposed <- true;
  (* Journal the round before any VAL leaves: after a crash the replayed
     marker forbids re-proposing it, so we can never equivocate. *)
  t.on_propose ~round:r;
  (* The origin anchor of this instance's latency attribution: everything
     downstream (VAL arrival, echo quorum, commit) is measured from here. *)
  trace_phase t ~sender:t.me ~round:r Trace.Propose;
  let policy = Config.edge_policy t.config in
  let strong_edges =
    if r = 0 then [||]
    else
      match policy with
      | Config.Dense ->
          Store.vertices_at t.store (r - 1)
          |> List.map Vertex.ref_of |> Array.of_list
      | Config.Sparse { k; seed } -> sparse_strong_parents t ~k ~seed r
  in
  mark_covered t (Array.to_list strong_edges);
  (* Weak edges: everything delivered that my causal history still misses
     (older than the strong-edge round), so total ordering reaches it.
     Sparse mode caps the batch per proposal; the leftover stays uncovered
     and drains oldest-first over later rounds. *)
  let weak_cap = Config.sparse_weak_cap policy in
  let weak_edges =
    Hashtbl.fold
      (fun (round, _) v acc -> if round < r - 1 then v :: acc else acc)
      t.uncovered []
    |> List.sort (fun (a : Vertex.t) b ->
           Vertex.Id.compare (a.round, a.source) (b.round, b.source))
    |> (fun l ->
         if List.compare_length_with l weak_cap <= 0 then l
         else List.filteri (fun i _ -> i < weak_cap) l)
    |> List.map Vertex.ref_of
    |> Array.of_list
  in
  mark_covered t (Array.to_list weak_edges);
  let prev_leader_edge =
    r > 0
    && Array.exists
         (fun (e : Vertex.vref) -> e.source = leader_of t (r - 1))
         strong_edges
  in
  (* Proposing without the leader edge IS the decision not to vote for
     the previous leader: this is the only point where the no-vote share
     may be sent (see [on_round_timeout]). *)
  if r > 0 && (not prev_leader_edge) && t.me <> leader_of t r then begin
    let nv =
      Keychain.sign t.keychain ~signer:t.me
        (Cert.signing_string Cert.No_vote (r - 1))
    in
    Net.send t.net ~src:t.me ~dst:(leader_of t r)
      (Msg.No_vote_share { round = r - 1; signer = t.me; signature = nv })
  end;
  let nvc =
    if r > 0 && t.me = leader_of t r && not prev_leader_edge then
      Hashtbl.find_opt t.nvcs (r - 1)
    else None
  in
  let tc =
    if r > 0 && t.me <> leader_of t r && not prev_leader_edge then
      Hashtbl.find_opt t.tcs (r - 1)
    else None
  in
  let block =
    if Config.is_block_proposer t.config t.me then
      Some (Block.seal ~proposer:t.me ~round:r (t.make_block ~round:r))
    else None
  in
  let block_digest =
    match block with Some b -> Block.digest b | None -> Digest32.zero
  in
  let vertex =
    Vertex.make ~round:r ~source:t.me ~block_digest ~strong_edges ~weak_edges
      ~compact:(policy <> Config.Dense) ?nvc ?tc ()
  in
  let signature =
    Keychain.sign t.keychain ~signer:t.me (val_signing_string vertex)
  in
  Log.debug (fun m ->
      m "node %d proposes r%d (%d strong, %d weak)" t.me r
        (Array.length strong_edges) (Array.length weak_edges));
  for dst = 0 to Config.n t.config - 1 do
    let block_copy =
      match block with
      | Some _ when Config.in_payload_clan t.config ~proposer:t.me dst -> block
      | Some _ | None -> None
    in
    Net.send t.net ~src:t.me ~dst
      (Msg.Val { vertex; block = block_copy; signature })
  done;
  Prof.leave sec_propose

and arm_timer t =
  t.timer_epoch <- t.timer_epoch + 1;
  let epoch = t.timer_epoch in
  let r = t.round in
  Engine.schedule_after t.engine t.params.round_timeout (fun () ->
      if t.timer_epoch = epoch && t.round = r then on_round_timeout t r)

and on_round_timeout t r =
  if (not t.halted) && not (Hashtbl.mem t.timeout_sent r) then begin
    Hashtbl.replace t.timeout_sent r ();
    let signature =
      Keychain.sign t.keychain ~signer:t.me (Cert.signing_string Cert.Timeout r)
    in
    Net.broadcast t.net ~src:t.me
      (Msg.Timeout_share { round = r; signer = t.me; signature });
    (* A no-vote for round r is a promise not to vote for its leader, and
       the vote is the strong edge in our round r+1 vertex — so the
       promise can only be made where the vote decision is made, in
       [propose]. Sending it here and then voting anyway once the
       leader's late vertex arrived handed 2f+1 votes AND a no-vote
       certificate to disjoint observers, splitting the commit order (a
       schedule-checker find — EXPERIMENTS.md). The one exception is the
       next leader's own share: it never leaves the node (the aggregate
       is embedded only if it does propose leaderlessly), so minting it
       early is safe and keeps the no-vote quorum reachable when the
       round-r leader is down. *)
    if
      t.me = leader_of t (r + 1)
      && not (Store.mem t.store ~round:r ~source:(leader_of t r))
    then begin
      let nv =
        Keychain.sign t.keychain ~signer:t.me (Cert.signing_string Cert.No_vote r)
      in
      Net.send t.net ~src:t.me ~dst:t.me
        (Msg.No_vote_share { round = r; signer = t.me; signature = nv })
    end
  end

and on_timeout_share t ~round ~signer ~signature =
  if Keychain.verify t.keychain ~signer (Cert.signing_string Cert.Timeout round) signature
  then begin
    let acc = acc_of t t.timeout_shares round in
    if
      Keychain.Acc.add acc ~signer signature
      && Bitset.cardinal (Keychain.Acc.signers acc) = quorum t
      && not (Hashtbl.mem t.tcs round)
    then begin
      let agg = Keychain.Acc.to_aggregate acc in
      let c = Cert.of_wire Cert.Timeout ~round ~agg in
      Hashtbl.replace t.tcs round c;
      Net.broadcast t.net ~src:t.me (Msg.Timeout_cert c);
      maybe_advance t
    end
  end

and on_timeout_cert t (c : Cert.t) =
  if
    c.kind = Cert.Timeout
    && (not (Hashtbl.mem t.tcs c.round))
    && Cert.verify t.keychain ~quorum:(quorum t) c
  then begin
    Hashtbl.replace t.tcs c.round c;
    maybe_advance t
  end

and on_no_vote_share t ~round ~signer ~signature =
  if
    t.me = leader_of t (round + 1)
    && Keychain.verify t.keychain ~signer
         (Cert.signing_string Cert.No_vote round)
         signature
  then begin
    let acc = acc_of t t.no_vote_shares round in
    if
      Keychain.Acc.add acc ~signer signature
      && Bitset.cardinal (Keychain.Acc.signers acc) = quorum t
      && not (Hashtbl.mem t.nvcs round)
    then begin
      Hashtbl.replace t.nvcs round
        (Cert.of_wire Cert.No_vote ~round ~agg:(Keychain.Acc.to_aggregate acc));
      maybe_propose t
    end
  end

let start t =
  t.started <- true;
  arm_timer t;
  maybe_propose t

(* ------------------------------------------------------------------ *)
(* Crash recovery *)

let halt t = t.halted <- true
let recovering t = t.syncing
let snapshot_joined t = t.snapshot_joined

let note_proposed t ~round =
  if round + 1 > t.min_propose_round then t.min_propose_round <- round + 1

let replay_block t (b : Block.t) =
  let slot = slot_of t ~round:b.round ~source:b.proposer in
  if slot.block = None then slot.block <- Some b;
  if not (Hashtbl.mem t.blocks (b.round, b.proposer)) then
    Hashtbl.replace t.blocks (b.round, b.proposer) b

let replay_vertex t (v : Vertex.t) =
  if
    v.round >= Store.floor t.store
    && not (Store.mem t.store ~round:v.round ~source:v.source)
  then begin
    let slot = slot_of t ~round:v.round ~source:v.source in
    (* The vertex was journalled after RBC delivery, so its digest was
       certified and our echo (if any) is long sent: restore the slot in
       its terminal state so nothing is re-broadcast during replay. *)
    slot.vertex <- Some v;
    slot.delivered <- true;
    slot.agreed <- Some v.digest;
    slot.echoed <- true;
    slot.cert_sent <- true;
    (match Hashtbl.find_opt t.blocks (v.round, v.source) with
    | Some b -> slot.block <- Some b
    | None -> ());
    register_vote t v;
    try_insert t v
  end

let start_recovery t =
  t.started <- true;
  t.syncing <- true;
  t.recovery_started_at <- Engine.now t.engine;
  let frontier = Store.highest_round t.store in
  if frontier > t.sync_target then t.sync_target <- frontier;
  trace_recovery t ~stage:"sync_start" ~round:frontier;
  Log.debug (fun m -> m "node %d starts state sync from r%d" t.me frontier);
  sync_tick t ~cursor:(t.me + 1) ~cycles:0 ~last_frontier:(-1);
  maybe_advance t

let block_of t ~round ~source = Hashtbl.find_opt t.blocks (round, source)
let vertex_of t ~round ~source = Store.find t.store ~round ~source
let dag t = t.store

let vote_records t ~round ~source =
  match Hashtbl.find_opt t.slots round with
  | Some row -> (
      match row.(source) with
      | Some s -> List.length (Option.to_list s.votes @ s.rival_votes)
      | None -> 0)
  | None -> 0

(* Heap census: this layer's retained state, split by subsystem.
   [consensus.state] is derived from the layout below, headers included,
   and checked against [Obj.reachable_words] in the consensus tests.
   Vertices and blocks are not part of it: the DAG store and the block
   table ([consensus.blocks]) own them, and digests are charged to the
   vertices that carry them. See docs/PROFILING.md. *)
let string_words s = (String.length s / 8) + 2
let pair_words = 3

(* A table's record and bucket array. [Hashtbl.stats] would walk every
   bucket twice to report the array's length, and the census runs at the
   end of every simulation, so the length is read off the record's second
   field instead; the census test catches a layout change. *)
let table_base tbl = 5 + Obj.size (Obj.field (Obj.repr tbl) 1) + 1

(* Tables whose entries all cost the same: a bucket cell plus [entry]. *)
let flat_table_words tbl ~entry =
  table_base tbl + ((4 + entry) * Hashtbl.length tbl)

let table_words tbl entry =
  table_base tbl + Hashtbl.fold (fun k v acc -> acc + 4 + entry k v) tbl 0

let opt_words = function None -> 0 | Some _ -> 2

(* record + accumulator + signing string + message hash *)
let votes_words v =
  6 + Keychain.Acc.approx_live_words v.acc + string_words v.signing + 3

let slot_words s =
  14 + opt_words s.vertex + opt_words s.block + opt_words s.agreed
  + (match s.votes with None -> 0 | Some v -> 2 + votes_words v)
  + List.fold_left (fun acc v -> acc + 3 + votes_words v) 0 s.rival_votes
  + if Array.length s.served = 0 then 0 else Array.length s.served + 1

let state_words t =
  let row_words _ row =
    Array.fold_left
      (fun acc -> function None -> acc | Some s -> acc + 2 + slot_words s)
      (Array.length row + 1) row
  in
  (* a waiter list's keys are the tuples [pending] is keyed by *)
  let waiter_words _ l = pair_words + 2 + (3 * List.length !l) in
  let acc_words _ acc = Keychain.Acc.approx_live_words acc in
  let bitset_words _ b = Bitset.approx_live_words b in
  let cert_words _ c = Cert.approx_live_words c in
  table_words t.slots row_words
  + flat_table_words t.pending ~entry:pair_words
  + table_words t.waiters waiter_words
  + table_words t.ordered bitset_words
  + table_words t.covered bitset_words
  + flat_table_words t.uncovered ~entry:pair_words
  + table_words t.leader_votes bitset_words
  + flat_table_words t.commit_ready ~entry:0
  + flat_table_words t.timeout_sent ~entry:0
  + flat_table_words t.sync_seen_rounds ~entry:0
  + table_words t.timeout_shares acc_words
  + table_words t.no_vote_shares acc_words
  + table_words t.tcs cert_words
  + table_words t.nvcs cert_words

let census ?(charge = Block.approx_live_words) ?charge_vertex t =
  let block_words = Hashtbl.fold (fun _ b acc -> acc + charge b) t.blocks 0 in
  [
    ("consensus.blocks", block_words);
    ("consensus.state", state_words t);
    ("dag.store", Store.approx_live_words ?charge:charge_vertex t.store);
    ("keychain", Keychain.approx_live_words t.keychain);
  ]

let census_parts t =
  let state =
    [
      Obj.repr t.slots; Obj.repr t.pending; Obj.repr t.waiters;
      Obj.repr t.ordered; Obj.repr t.covered; Obj.repr t.uncovered;
      Obj.repr t.leader_votes; Obj.repr t.commit_ready;
      Obj.repr t.timeout_sent; Obj.repr t.sync_seen_rounds;
      Obj.repr t.timeout_shares; Obj.repr t.no_vote_shares;
      Obj.repr t.tcs; Obj.repr t.nvcs;
    ]
  in
  let shared = ref [] in
  let keep x = shared := Obj.repr x :: !shared in
  Hashtbl.iter
    (fun _ row ->
      Array.iter
        (function
          | None -> ()
          | Some s ->
              Option.iter keep s.vertex;
              Option.iter keep s.block)
        row)
    t.slots;
  Hashtbl.iter (fun _ v -> keep v) t.pending;
  Hashtbl.iter (fun _ v -> keep v) t.uncovered;
  (state, !shared)

let create ~me ~config ~keychain ~engine ~net ?(params = default_params)
    ?(obs = Obs.disabled) ~make_block ~on_commit ?(on_block = fun _ -> ())
    ?(on_deliver = fun _ -> ()) ?(on_propose = fun ~round:_ -> ()) () =
  let node_label = [ ("node", string_of_int me) ] in
  let obsh =
    {
      o_trace = obs.Obs.trace;
      o_pull_retries =
        Metrics.counter obs.Obs.metrics ~labels:node_label "sailfish_pull_retries";
      o_inserted =
        Metrics.counter obs.Obs.metrics ~labels:node_label "dag_vertices_inserted";
      o_committed =
        Metrics.counter obs.Obs.metrics ~labels:node_label "dag_vertices_committed";
      o_sync_rounds =
        Metrics.counter obs.Obs.metrics ~labels:node_label
          "recovery_rounds_fetched";
      o_recovery_wall =
        Metrics.gauge obs.Obs.metrics ~labels:node_label "recovery_wall_ms";
    }
  in
  let t =
    {
      me;
      config;
      keychain;
      engine;
      net;
      params;
      obsh;
      store = Store.create ~n:(Config.n config);
      make_block;
      on_commit;
      on_block;
      slots = Hashtbl.create 256;
      pending = Hashtbl.create 16;
      waiters = Hashtbl.create 16;
      blocks = Hashtbl.create 256;
      round = 0;
      proposed = false;
      started = false;
      timer_epoch = 0;
      halted = false;
      syncing = false;
      sync_target = -1;
      sync_replies = 0;
      min_propose_round = 0;
      snapshot_joined = false;
      recovery_started_at = Time.zero;
      sync_seen_rounds = Hashtbl.create 64;
      on_deliver;
      on_propose;
      timeout_sent = Hashtbl.create 8;
      timeout_shares = Hashtbl.create 8;
      no_vote_shares = Hashtbl.create 8;
      tcs = Hashtbl.create 8;
      nvcs = Hashtbl.create 8;
      leader_votes = Hashtbl.create 64;
      commit_ready = Hashtbl.create 64;
      last_committed = -1;
      ordered = Hashtbl.create 1024;
      ordered_total = 0;
      ordered_hash = 0;
      covered = Hashtbl.create 1024;
      uncovered = Hashtbl.create 64;
    }
  in
  Net.set_handler net me (fun ~src msg -> handle t ~src msg);
  t
