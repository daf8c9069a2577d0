(** Checkable worlds: small protocol deployments under external scheduling.

    A {!world} is a deterministic protocol deployment — TA-RBC (any of the
    four {!Clanbft_rbc.Rbc.protocol} families) or Sailfish consensus —
    whose message deliveries are parked at the engine's delivery-choice
    points ({!Clanbft_sim.Engine.set_choice_mode}) instead of running in
    calendar order. The explorer ({!Explore}) decides, action by action,
    which pending delivery fires, when timers run, and which nodes pause;
    the harness evaluates the safety invariants after every action and
    the totality-style invariants at quiescence.

    {2 Determinism contract}

    [build spec] is a pure function of the spec: fixed keychain seed,
    jitter-free uniform topology, GST 0, and adversary traffic injected
    in node-id order. Applying the same action sequence to two
    independently built worlds therefore produces identical choice-id
    assignments, identical handler executions and identical violations —
    the property {!Schedule} replay and the checker's byte-identical
    trace regression rest on.

    {2 Invariants}

    Safety (checked after every action, reported via {!violation}):
    {ul
    {- {b agreement} — no two honest nodes deliver different digests for
       one RBC instance;}
    {- {b validity} — with an honest sender, a delivered digest is the
       digest of the value actually broadcast;}
    {- {b no-equivocation} — no honest node emits ECHOs (or READYs) for
       two digests of one instance (observed from the wire via a
       transparent network tap);}
    {- {b prefix-consistency} (Sailfish) — every replica's commit
       sequence is a prefix of one canonical total order, checked O(1)
       per commit against a shared model sequence;}
    {- {b vertex-no-equivocation} (Sailfish) — one (round, source) slot
       never resolves to two distinct vertex digests across replicas.}}

    Quiescence ({!wrapup}):
    {ul
    {- {b totality} — once any honest node delivers an RBC instance,
       every live honest node must have delivered it by the time the
       world has no pending work; the detail names nodes stuck in the
       certified-but-undelivered pull state (see {!Clanbft_rbc.Rbc.agreed}).}} *)

open Clanbft_sim

type violation = { invariant : string; detail : string }
(** A named invariant breach. [invariant] is a stable identifier
    ([agreement], [validity], [equivocation], [prefix], [totality]);
    [detail] is the human-readable evidence. *)

type adversary = No_adversary | Equivocate | Collude | Grief
(** Byzantine load injected at build time, before exploration starts:

    - [Equivocate]: the sender (node 0) is Byzantine — it sends value A
      to half the honest recipients and value B to the rest, and backs
      {e both} digests with its own ECHOs (and READYs in the Bracha
      family). One fault with [f = 1] honest tolerance: every explored
      schedule must stay safe, so this is the standing assurance
      scenario. (RBC models only.)
    - [Collude]: [Equivocate] plus a second Byzantine node (node 1) that
      also votes for both digests. Two faults against [f = 1] — outside
      the fault model, so agreement {e is} breakable, and the checker
      must find a breaking schedule. Used by the CI self-test to prove
      the checker can catch real violations. (RBC models only.)
    - [Grief]: node 0 runs the full honest stack, but every copy of its
      own proposals is held back to just inside the round timeout: the
      strategy engine's slow-proposer griefing,
      {!Clanbft_faults.Strategy.install} with [Grief 0.9] on node 0.
      Within the fault model: every explored interleaving of
      the delayed proposals against the timeout machinery must preserve
      the commit-prefix and vertex-uniqueness invariants, and the world
      must still commit. (Sailfish model only.) *)

type model = Rbc of Clanbft_rbc.Rbc.protocol | Sailfish

type spec = {
  model : model;
  n : int;  (** tribe size (default 4, the smallest n = 3f+1 with f = 1) *)
  rounds : int;  (** RBC instances to broadcast / Sailfish round horizon *)
  adversary : adversary;
  late_join : bool;
      (** hold node n-1 out of the run; at first quiescence it loses its
          queued traffic and rejoins via {!Clanbft_rbc.Rbc.request_sync},
          so sync-reply orderings get explored too (RBC models only) *)
  crashes : int;
      (** budget of crash/recover scheduling actions the explorer may
          spend pausing honest nodes mid-run *)
  sparse_k : int option;
      (** [Some k] runs the Sailfish model over sparse edges
          ({!Clanbft_types.Config.Sparse} with a fixed seed, so replay
          rebuilds the same DAG); [None] (default) keeps dense edges.
          Sailfish-only. *)
}

val default_spec : spec
(** [Rbc Tribe_bracha], n = 4, 2 rounds, no adversary, no late join,
    no crashes, dense edges. *)

val spec_meta : spec -> (string * string) list
(** Serialize a spec as schedule-file metadata ({!Schedule.save}). *)

val spec_of_meta : (string * string) list -> (spec, string) result
(** Rebuild a spec from schedule-file metadata; unknown keys are ignored,
    missing ones default to {!default_spec}'s values. *)

type world

val build : ?trace:bool -> spec -> world
(** Construct the deployment, inject initial broadcasts (and adversary
    traffic), and leave every delivery pending in the engine's choice
    pool. [trace] (default false) records the PR 5 structured event
    trace ({!Clanbft_obs.Trace}) of everything subsequently fired —
    the violation-trace artefact. *)

val spec : world -> spec
val engine : world -> Engine.t

val obs : world -> Clanbft_obs.Obs.t option
(** The tracing handle when built with [~trace:true]. *)

(** {1 Scheduling surface} *)

val enabled_deliveries : world -> Engine.choice list
(** Pending deliveries whose destination is not paused, oldest first.
    Deliveries to paused nodes stay pooled (a paused node's traffic
    queues; it is not lost) and reappear here on recovery. *)

val calendar_pending : world -> bool
(** Are there timer events the [Step] action could run? *)

val crashed : world -> int -> bool
(** Is the node currently paused (by a [Crash] action or by
    [late_join])? *)

val crash_paused : world -> int list
(** Nodes paused by a [Crash] action specifically — the valid targets of
    [Recover] (the [late_join] node rejoins through {!on_quiescence}, not
    through [Recover]). Ascending order. *)

val byzantine : world -> int list
(** Byzantine node ids of this world's adversary (never crash targets;
    their inbound traffic is discarded eagerly). *)

val crashes_left : world -> int
(** Remaining crash/recover action budget. *)

val apply : world -> Schedule.action -> (unit, string) result
(** Execute one scheduling action. [Error] means the action is not
    applicable in the current state (unknown choice id, delivery to a
    paused node, empty calendar, exhausted crash budget, …) — replays
    treat that as schedule corruption. *)

val describe : world -> Schedule.action -> string
(** Human-readable annotation for a schedule file ("val 0->2 @3421us").
    Must be called {e before} {!apply} fires the action. *)

(** {1 Invariant evaluation} *)

val violation : world -> violation option
(** First safety violation observed so far (invariants are evaluated
    inside the protocol observation hooks, so this is O(1)). *)

val quiescent : world -> bool
(** No enabled deliveries and no calendar events: the run cannot make
    further progress without harness intervention. *)

val on_quiescence : world -> bool
(** Fire the harness's quiescence hook (the [late_join] rejoin). Returns
    true if new work was injected — the explorer then keeps scheduling —
    and false when the world is genuinely finished. Deterministic:
    replaying a schedule re-fires the hook at the same point. *)

val wrapup : world -> violation option
(** Totality-style end-of-run checks; call once the world is quiescent
    and {!on_quiescence} returned false. *)

val state_line : world -> string
(** Canonical one-line digest of observable protocol state (deliveries /
    commit counts), for replay-identity assertions in tests. *)
