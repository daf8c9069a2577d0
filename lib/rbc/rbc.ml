open Clanbft_crypto
module Bitset = Clanbft_util.Bitset
module Engine = Clanbft_sim.Engine
module Net = Clanbft_sim.Net
module Obs = Clanbft_obs.Obs
module Metrics = Clanbft_obs.Metrics
module Trace = Clanbft_obs.Trace
module Prof = Clanbft_obs.Prof

let sec_val = Prof.section "rbc.val"
let sec_echo = Prof.section "rbc.echo"
let sec_ready = Prof.section "rbc.ready"
let sec_cert = Prof.section "rbc.cert"

type protocol = Bracha | Signed_two_round | Tribe_bracha | Tribe_signed

let protocol_name = function
  | Bracha -> "bracha"
  | Signed_two_round -> "signed-2round"
  | Tribe_bracha -> "tribe-bracha"
  | Tribe_signed -> "tribe-signed"

let protocol_of_string = function
  | "bracha" -> Some Bracha
  | "signed" -> Some Signed_two_round
  | "tribe-bracha" -> Some Tribe_bracha
  | "tribe-signed" -> Some Tribe_signed
  | _ -> None

let is_tribe = function
  | Tribe_bracha | Tribe_signed -> true
  | Bracha | Signed_two_round -> false

let is_signed = function
  | Signed_two_round | Tribe_signed -> true
  | Bracha | Tribe_bracha -> false

type msg =
  | Val of { sender : int; round : int; value : string }
  | Val_digest of { sender : int; round : int; digest : Digest32.t }
  | Echo of {
      sender : int;
      round : int;
      digest : Digest32.t;
      signer : int;
      signature : Keychain.signature option;
    }
  | Ready of {
      sender : int;
      round : int;
      digest : Digest32.t;
      signer : int;
      signature : Keychain.signature option;
    }
  | Echo_cert of {
      sender : int;
      round : int;
      digest : Digest32.t;
      agg : Keychain.aggregate;
    }
  | Pull_request of { sender : int; round : int }
  | Pull_reply of { sender : int; round : int; value : string }
  | Sync_request of { sender : int; round : int }

let msg_size ~n m =
  let sig_opt = function None -> 0 | Some _ -> Keychain.signature_size in
  match m with
  | Val { value; _ } -> 1 + 4 + 4 + 4 + String.length value
  | Val_digest _ -> 1 + 4 + 4 + Digest32.size
  | Echo { signature; _ } | Ready { signature; _ } ->
      1 + 4 + 4 + Digest32.size + 4 + sig_opt signature
  | Echo_cert _ ->
      1 + 4 + 4 + Digest32.size + Keychain.signature_size + ((n + 7) / 8)
  | Pull_request _ -> 1 + 4 + 4
  | Pull_reply { value; _ } -> 1 + 4 + 4 + 4 + String.length value
  | Sync_request _ -> 1 + 4 + 4

let msg_tag = function
  | Val _ -> "val"
  | Val_digest _ -> "val_digest"
  | Echo _ -> "echo"
  | Ready _ -> "ready"
  | Echo_cert _ -> "echo_cert"
  | Pull_request _ -> "pull_request"
  | Pull_reply _ -> "pull_reply"
  | Sync_request _ -> "sync_request"

let msg_round = function
  | Val { round; _ }
  | Val_digest { round; _ }
  | Echo { round; _ }
  | Ready { round; _ }
  | Echo_cert { round; _ }
  | Pull_request { round; _ }
  | Pull_reply { round; _ }
  | Sync_request { round; _ } ->
      Some round

let echo_signing_string ~sender ~round digest =
  Printf.sprintf "rbc-echo|%d|%d|%s" sender round (Digest32.to_raw digest)

type outcome = Value of string | Digest_only of Digest32.t

(* Per-digest vote tracking: an equivocating sender creates several
   candidate digests within one instance; quorums are counted per digest. *)
type votes = {
  voters : Bitset.t;
  mutable clan_votes : int;
  mutable shares : (int * Keychain.signature) list; (* signed protocols *)
}

type instance = {
  sender : int;
  round : int;
  mutable value : string option; (* payload received so far *)
  mutable agreed : Digest32.t option; (* digest the quorum settled on *)
  echoes : votes Digest32.Tbl.t;
  readies : votes Digest32.Tbl.t;
  mutable sent_echo : bool;
  mutable sent_ready : bool;
  mutable sent_cert : bool;
  mutable cert : Keychain.aggregate option; (* kept to serve late joiners *)
  mutable delivered : outcome option;
  mutable pulling : bool;
  mutable pull_candidates : int list; (* remainder of the current sweep *)
  mutable pull_ring : int list; (* the full candidate cycle *)
  mutable pull_cycles : int; (* completed sweeps, drives the backoff *)
  served : (int, int) Hashtbl.t; (* peer -> pull replies served *)
}

type node = {
  me : int;
  n : int;
  f : int;
  protocol : protocol;
  clan : Bitset.t option; (* None for non-tribe protocols *)
  clan_quorum : int; (* fc + 1, or 0 when no clan constraint *)
  engine : Engine.t;
  net : msg Net.t;
  keychain : Keychain.t;
  pull_retry : Clanbft_sim.Time.span;
  pull_budget : int;
  on_deliver : sender:int -> round:int -> outcome -> unit;
  instances : (int * int, instance) Hashtbl.t;
  obs_trace : Trace.t;
  pull_retries : Metrics.counter;
}

let quorum t = (2 * t.f) + 1
let weak_quorum t = t.f + 1

let in_clan t i =
  match t.clan with None -> true | Some clan -> Bitset.mem clan i

(* Does this node eventually hold the full value? Clan members do; in the
   non-tribe protocols everyone does. *)
let entitled_to_value t = in_clan t t.me

let trace_phase t inst phase =
  if Trace.enabled t.obs_trace then
    Trace.emit t.obs_trace ~ts:(Engine.now t.engine)
      (Trace.Rbc_phase
         { node = t.me; sender = inst.sender; round = inst.round; phase })

let rec create ~me ~n ?f ?clan ~protocol ~engine ~net ~keychain
    ?(pull_retry = Clanbft_sim.Time.ms 200.) ?(pull_budget = 8)
    ?(obs = Obs.disabled) ~on_deliver () =
  let f = match f with Some f -> f | None -> (n - 1) / 3 in
  if f < 0 || (3 * f) + 1 > n then invalid_arg "Rbc.create: need n >= 3f+1";
  let clan_set, clan_quorum =
    match (is_tribe protocol, clan) with
    | false, _ -> (None, 0)
    | true, None -> invalid_arg "Rbc.create: tribe protocol needs a clan"
    | true, Some members ->
        let set = Bitset.create n in
        Array.iter (fun i -> ignore (Bitset.add set i)) members;
        let nc = Bitset.cardinal set in
        let fc = ((nc + 1) / 2) - 1 in
        (Some set, fc + 1)
  in
  let t =
    {
      me;
      n;
      f;
      protocol;
      clan = clan_set;
      clan_quorum;
      engine;
      net;
      keychain;
      pull_retry;
      pull_budget;
      on_deliver;
      instances = Hashtbl.create 64;
      obs_trace = obs.Obs.trace;
      pull_retries =
        Metrics.counter obs.Obs.metrics
          ~labels:[ ("node", string_of_int me) ]
          "rbc_pull_retries";
    }
  in
  Net.set_handler net me (fun ~src m -> handle t ~src m);
  t

and instance_of t ~sender ~round =
  match Hashtbl.find_opt t.instances (sender, round) with
  | Some i -> i
  | None ->
      let i =
        {
          sender;
          round;
          value = None;
          agreed = None;
          echoes = Digest32.Tbl.create 2;
          readies = Digest32.Tbl.create 2;
          sent_echo = false;
          sent_ready = false;
          sent_cert = false;
          cert = None;
          delivered = None;
          pulling = false;
          pull_candidates = [];
          pull_ring = [];
          pull_cycles = 0;
          served = Hashtbl.create 4;
        }
      in
      Hashtbl.replace t.instances (sender, round) i;
      i

and votes_of tbl digest =
  fun n ->
  match Digest32.Tbl.find_opt tbl digest with
  | Some v -> v
  | None ->
      let v = { voters = Bitset.create n; clan_votes = 0; shares = [] } in
      Digest32.Tbl.replace tbl digest v;
      v

and send_echo t inst digest =
  if not inst.sent_echo then begin
    inst.sent_echo <- true;
    trace_phase t inst Trace.Echo;
    let signature =
      if is_signed t.protocol then
        Some
          (Keychain.sign t.keychain ~signer:t.me
             (echo_signing_string ~sender:inst.sender ~round:inst.round digest))
      else None
    in
    Net.broadcast t.net ~src:t.me
      (Echo
         { sender = inst.sender; round = inst.round; digest; signer = t.me; signature })
  end

and send_ready t inst digest =
  if not inst.sent_ready then begin
    inst.sent_ready <- true;
    trace_phase t inst Trace.Ready;
    let signature =
      (* READY only exists in the Bracha-style protocols, which are
         signature-free. *)
      None
    in
    Net.broadcast t.net ~src:t.me
      (Ready
         { sender = inst.sender; round = inst.round; digest; signer = t.me; signature })
  end

and deliver t inst outcome =
  if inst.delivered = None then begin
    inst.delivered <- Some outcome;
    trace_phase t inst Trace.Deliver;
    t.on_deliver ~sender:inst.sender ~round:inst.round outcome
  end

and start_pull t inst digest =
  if (not inst.pulling) && inst.delivered = None then begin
    inst.pulling <- true;
    (* Candidates, in decreasing order of confidence: parties that ECHOed
       the agreed digest (clan members first — whp they include an honest
       value holder), then READY voters (a node that delivered via 2f+1
       READYs may never have seen a single ECHO for this digest), and
       finally every other clan member — totality guarantees at least one
       honest clan member holds the value once anyone delivered. *)
    let seen = Bitset.create t.n in
    let keep i = i <> t.me && Bitset.add seen i in
    let voters tbl =
      match Digest32.Tbl.find_opt tbl digest with
      | Some v -> List.filter keep (Bitset.to_list v.voters)
      | None -> []
    in
    let echo_clan, echo_rest = List.partition (in_clan t) (voters inst.echoes) in
    let ready_clan, ready_rest =
      List.partition (in_clan t) (voters inst.readies)
    in
    let clan_rest =
      List.filter (fun i -> in_clan t i && keep i) (List.init t.n Fun.id)
    in
    inst.pull_candidates <-
      echo_clan @ echo_rest @ ready_clan @ ready_rest @ clan_rest;
    inst.pull_ring <- inst.pull_candidates;
    inst.pull_cycles <- 0;
    pull_next t inst digest
  end

and pull_next t inst digest =
  if inst.delivered = None then
    match inst.pull_candidates with
    | target :: rest ->
        inst.pull_candidates <- rest;
        Metrics.incr t.pull_retries;
        trace_phase t inst Trace.Pull_retry;
        Net.send t.net ~src:t.me ~dst:target
          (Pull_request { sender = inst.sender; round = inst.round });
        Engine.schedule_after t.engine t.pull_retry (fun () ->
            pull_next t inst digest)
    | [] -> (
        (* Sweep exhausted. Under transient loss or slow peers a one-shot
           traversal is a liveness hole: go around again, with exponential
           backoff capped at 16 x pull_retry. *)
        match inst.pull_ring with
        | [] -> () (* nobody but us could ever hold the value *)
        | ring ->
            inst.pull_cycles <- inst.pull_cycles + 1;
            let backoff = t.pull_retry * (1 lsl min inst.pull_cycles 4) in
            inst.pull_candidates <- ring;
            Engine.schedule_after t.engine backoff (fun () ->
                pull_next t inst digest))

and try_deliver t inst digest =
  if inst.delivered = None then begin
    if inst.agreed = None then trace_phase t inst Trace.Cert;
    inst.agreed <- Some digest;
    if entitled_to_value t then begin
      match inst.value with
      | Some v when Digest32.equal (Digest32.hash_string v) digest ->
          deliver t inst (Value v)
      | _ ->
          (* Either never got the value or got an equivocator's other
             value: fetch the agreed one off the critical path. *)
          inst.value <- None;
          start_pull t inst digest
    end
    else deliver t inst (Digest_only digest)
  end

(* 2f+1 ECHOs overall, of which >= fc+1 from the clan (the clan quorum is
   0 outside the tribe protocols, where any 2f+1 echoes suffice). *)
and echo_quorum_reached t (v : votes) =
  Bitset.cardinal v.voters >= quorum t && v.clan_votes >= t.clan_quorum

and on_echo_quorum t inst digest (v : votes) =
  match t.protocol with
  | Bracha | Tribe_bracha -> send_ready t inst digest
  | Signed_two_round | Tribe_signed ->
      if not inst.sent_cert then begin
        inst.sent_cert <- true;
        let msg =
          echo_signing_string ~sender:inst.sender ~round:inst.round digest
        in
        match Keychain.aggregate t.keychain ~msg v.shares with
        | None -> ()
        | Some agg ->
            inst.cert <- Some agg;
            Net.broadcast t.net ~src:t.me
              (Echo_cert { sender = inst.sender; round = inst.round; digest; agg });
            try_deliver t inst digest
      end

and handle_val t inst value =
  if is_tribe t.protocol && not (in_clan t t.me) then
    (* Non-clan parties play the digest-only role even when a (Byzantine)
       sender ships them the full payload: storing an unverifiable value
       would let us serve equivocated payloads to pulling clan members. *)
    handle_val_digest t inst (Digest32.hash_string value)
  else begin
    (* Only the first VAL from the sender counts (non-equivocation is then
       enforced by the quorum rules). *)
    if inst.value = None && inst.delivered = None then inst.value <- Some value;
    (* Clan members echo only after receiving the value itself. *)
    if inst.value <> None then
      send_echo t inst (Digest32.hash_string (Option.get inst.value))
  end

and handle_val_digest t inst digest =
  (* Only meaningful for parties outside the clan in the tribe protocols:
     they echo on the digest alone. Clan members and non-tribe protocols
     insist on the full value. *)
  if is_tribe t.protocol && not (in_clan t t.me) then send_echo t inst digest

and handle_echo t inst ~digest ~signer ~signature =
  let valid =
    if is_signed t.protocol then
      match signature with
      | None -> false
      | Some s ->
          Keychain.verify t.keychain ~signer
            (echo_signing_string ~sender:inst.sender ~round:inst.round digest)
            s
    else true
  in
  if valid then begin
    let v = votes_of inst.echoes digest t.n in
    if Bitset.add v.voters signer then begin
      if in_clan t signer then v.clan_votes <- v.clan_votes + 1;
      (match signature with
      | Some s when is_signed t.protocol -> v.shares <- (signer, s) :: v.shares
      | _ -> ());
      if echo_quorum_reached t v then on_echo_quorum t inst digest v
    end
  end

and handle_ready t inst ~digest ~signer =
  if not (is_signed t.protocol) then begin
    let v = votes_of inst.readies digest t.n in
    if Bitset.add v.voters signer then begin
      let count = Bitset.cardinal v.voters in
      if count >= weak_quorum t then send_ready t inst digest;
      if count >= quorum t then try_deliver t inst digest
    end
  end

and handle_echo_cert t inst ~digest ~agg =
  if is_signed t.protocol && inst.delivered = None then begin
    let signers = Keychain.signers agg in
    let total = Bitset.cardinal signers in
    let clan_count =
      match t.clan with
      | None -> total
      | Some clan -> Bitset.inter_cardinal signers clan
    in
    let msg = echo_signing_string ~sender:inst.sender ~round:inst.round digest in
    if
      total >= quorum t
      && clan_count >= t.clan_quorum
      && Keychain.verify_aggregate t.keychain ~msg agg
    then begin
      inst.cert <- Some agg;
      try_deliver t inst digest
    end
  end

and handle_pull_request t inst ~src =
  match inst.value with
  | None -> ()
  | Some value ->
      let served = Option.value ~default:0 (Hashtbl.find_opt inst.served src) in
      if served < t.pull_budget then begin
        Hashtbl.replace inst.served src (served + 1);
        Net.send t.net ~src:t.me ~dst:src
          (Pull_reply { sender = inst.sender; round = inst.round; value })
      end

and handle_sync_request t inst ~src =
  (* A late joiner (e.g. a recovered crash) asks peers to re-prove an old
     instance. Only delivered instances answer: the signed protocols
     resend the stored ECHO certificate (one message re-completes the
     requester); the Bracha family resends this node's READY — totality
     gives 2f+1 delivered peers, so the requester re-forms a READY quorum
     from the responses alone. *)
  match (inst.delivered, inst.agreed) with
  | Some _, Some digest ->
      if is_signed t.protocol then (
        match inst.cert with
        | Some agg ->
            Net.send t.net ~src:t.me ~dst:src
              (Echo_cert { sender = inst.sender; round = inst.round; digest; agg })
        | None -> ())
      else
        Net.send t.net ~src:t.me ~dst:src
          (Ready
             {
               sender = inst.sender;
               round = inst.round;
               digest;
               signer = t.me;
               signature = None;
             })
  | _ -> ()

and handle_pull_reply t inst ~value =
  if inst.delivered = None && entitled_to_value t then
    match inst.agreed with
    | Some d when Digest32.equal (Digest32.hash_string value) d ->
        inst.value <- Some value;
        deliver t inst (Value value)
    | _ -> ()

and handle t ~src m =
  match m with
  | Val { sender; round; value } ->
      (* The VAL must come from its claimed sender (authenticated
         channels); anything else is discarded. *)
      if src = sender then begin
        Prof.enter sec_val;
        let inst = instance_of t ~sender ~round in
        trace_phase t inst Trace.Val;
        handle_val t inst value;
        Prof.leave sec_val
      end
  | Val_digest { sender; round; digest } ->
      if src = sender then begin
        Prof.enter sec_val;
        let inst = instance_of t ~sender ~round in
        trace_phase t inst Trace.Val;
        handle_val_digest t inst digest;
        Prof.leave sec_val
      end
  | Echo { sender; round; digest; signer; signature } ->
      if src = signer then begin
        Prof.enter sec_echo;
        handle_echo t (instance_of t ~sender ~round) ~digest ~signer ~signature;
        Prof.leave sec_echo
      end
  | Ready { sender; round; digest; signer; signature = _ } ->
      if src = signer then begin
        Prof.enter sec_ready;
        handle_ready t (instance_of t ~sender ~round) ~digest ~signer;
        Prof.leave sec_ready
      end
  | Echo_cert { sender; round; digest; agg } ->
      Prof.enter sec_cert;
      handle_echo_cert t (instance_of t ~sender ~round) ~digest ~agg;
      Prof.leave sec_cert
  | Pull_request { sender; round } ->
      handle_pull_request t (instance_of t ~sender ~round) ~src
  | Pull_reply { sender; round; value } ->
      handle_pull_reply t (instance_of t ~sender ~round) ~value
  | Sync_request { sender; round } ->
      handle_sync_request t (instance_of t ~sender ~round) ~src

let request_sync t ~sender ~round =
  if Option.is_none (instance_of t ~sender ~round).delivered then
    Net.broadcast t.net ~src:t.me (Sync_request { sender; round })

let broadcast t ~round value =
  let inst = instance_of t ~sender:t.me ~round in
  if inst.value <> None then invalid_arg "Rbc.broadcast: already broadcast";
  inst.value <- Some value;
  trace_phase t inst Trace.Propose;
  let digest = Digest32.hash_string value in
  if is_tribe t.protocol then
    for dst = 0 to t.n - 1 do
      if in_clan t dst then
        Net.send t.net ~src:t.me ~dst (Val { sender = t.me; round; value })
      else
        Net.send t.net ~src:t.me ~dst (Val_digest { sender = t.me; round; digest })
    done
  else Net.broadcast t.net ~src:t.me (Val { sender = t.me; round; value })

let delivered t ~sender ~round =
  match Hashtbl.find_opt t.instances (sender, round) with
  | None -> None
  | Some inst -> inst.delivered

let agreed t ~sender ~round =
  match Hashtbl.find_opt t.instances (sender, round) with
  | None -> None
  | Some inst -> inst.agreed

let pulling t ~sender ~round =
  match Hashtbl.find_opt t.instances (sender, round) with
  | None -> false
  | Some inst -> inst.pulling && inst.delivered = None
