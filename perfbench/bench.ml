(* Measured operations of the clanbft benchmark (see README.md).

   One invocation measures one thing on one workload and prints a single
   JSON object on stdout:

     bench.exe setup  WORKLOAD SEED SECS  set-up builds for SECS seconds, each timed
     bench.exe run    WORKLOAD SEED       one operation, tracing and Prof off
     bench.exe traced WORKLOAD SEED       one operation with Prof sections
                                          and the in-memory Obs trace on,
                                          split into per-layer numbers

   run.py starts a fresh process for every operation, one at a time, so
   the heap peak a process reports ([Gc.top_heap_words]) belongs to that
   operation alone. Nothing here uses the Pool domains. *)

open Clanbft
module H = Check.Harness
module E = Check.Explore

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let x = f () in
  (x, now_s () -. t0)

(* ---- workloads ---------------------------------------------------- *)

(* A workload is one simulated deployment and, for the checker workload,
   a batch of random walks over the checker's model of it. Everything is
   a function of the seed; the program only ever sees the built spec. *)
type workload = {
  name : string;
  sim : int64 -> Runner.spec;
  walks : (H.spec * int) option;  (** checker spec, walk count *)
}

let restart_5 =
  match Faults.restart_of_string "5@4s:8s" with
  | Ok r -> r
  | Error e -> failwith e

let grief_3 =
  match Strategy.of_string "3@grief" with Ok s -> s | Error e -> failwith e

let workloads =
  [
    {
      name = "dense-n50";
      sim =
        (fun seed ->
          {
            Runner.default_spec with
            n = 50;
            protocol = Runner.Full;
            txns_per_proposal = 200;
            duration = Sim.Time.s 6.;
            warmup = Sim.Time.s 1.;
            seed;
          });
      walks = None;
    };
    {
      name = "multiclan-n50-overload";
      sim =
        (fun seed ->
          {
            Runner.default_spec with
            n = 50;
            protocol = Runner.Multi_clan { q = 2 };
            txns_per_proposal = 12_000;
            duration = Sim.Time.s 20.;
            warmup = Sim.Time.s 2.;
            seed;
          });
      walks = None;
    };
    {
      name = "recover-n16";
      sim =
        (fun seed ->
          {
            Runner.default_spec with
            n = 16;
            protocol = Runner.Full;
            txns_per_proposal = 200;
            duration = Sim.Time.s 12.;
            warmup = Sim.Time.s 1.;
            restarts = [ restart_5 ];
            adversaries = [ grief_3 ];
            seed;
          });
      walks = None;
    };
    {
      name = "check-n7";
      sim =
        (fun seed ->
          {
            Runner.default_spec with
            n = 7;
            protocol = Runner.Sparse { k = 2 };
            txns_per_proposal = 200;
            duration = Sim.Time.s 23.;
            warmup = Sim.Time.s 1.;
            seed;
          });
      walks =
        Some
          ( {
              H.default_spec with
              model = H.Sailfish;
              n = 7;
              sparse_k = Some 2;
            },
            300 );
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

(* ---- JSON output -------------------------------------------------- *)

type json = F of float | I of int | S of string | B of bool | L of json list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec json_value = function
  | F x when Float.is_finite x -> Printf.sprintf "%.17g" x
  | F _ -> "null"
  | I i -> string_of_int i
  | S s -> json_string s
  | B b -> string_of_bool b
  | L l -> "[" ^ String.concat ", " (List.map json_value l) ^ "]"

let print_object fields =
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_string k ^ ": " ^ json_value v) fields)
    ^ "}")

(* ---- one operation ------------------------------------------------ *)

let mb_of_words w = float_of_int w *. 8. /. 1e6

(* In-window blocks committed by every required replica: the sample count
   behind the latency percentiles (one sample per block). *)
let lat_samples (spec : Runner.spec) (r : Runner.result) =
  r.committed_txns / spec.txns_per_proposal

let failing checks =
  List.filter_map (fun (bad, why) -> if bad then Some why else None) checks

(* The correctness gate of one sim run. Each failed check is one reason;
   an operation with any reason counts as failed. *)
let sim_failures (r : Runner.result) =
  failing
    [
      (not r.agreement, "agreement=false");
      (r.committed_txns <= 0, "no in-window commits");
      ( List.exists (fun (_, c) -> c <= 0) r.post_recovery_commits,
        "restarted replica made no post-recovery commits" );
    ]

(* Walk results are deterministic per seed: fold the stats and verdict
   into one integer, the checker's counterpart of a commit fingerprint. *)
let walk_fingerprint (res : E.result) =
  Hashtbl.hash
    ( res.stats.runs,
      res.stats.transitions,
      res.stats.pruned,
      res.stats.max_depth,
      res.stats.truncated,
      Option.map (fun (v : H.violation) -> v.invariant) res.violation )

type op = {
  spec : Runner.spec;
  result : Runner.result;
  sim_wall : float;
  walk : (E.result * float) option;
}

(* Runs the workload's simulation, then its walks. [sim_obs] is threaded
   into the simulation only; Prof, when enabled by the caller, sees both. *)
let operation w ~seed ~sim_obs =
  let spec = { (w.sim seed) with obs = sim_obs } in
  let result, sim_wall = timed (fun () -> Runner.run spec) in
  let walk =
    Option.map
      (fun (hspec, count) -> timed (fun () -> E.walks ~seed ~count hspec))
      w.walks
  in
  { spec; result; sim_wall; walk }

let op_wall op = op.sim_wall +. Option.fold ~none:0. ~some:snd op.walk

(* Fields shared by the untraced and traced outputs: the gate verdict,
   attempt counts and the deterministic fingerprint. *)
let gate_fields op =
  let sim_bad = sim_failures op.result in
  let walk_bad, walk_attempted, walk_fp =
    match op.walk with
    | None -> ([], 0, "")
    | Some (res, _) ->
        ( (match res.violation with
          | Some v -> [ "checker violation: " ^ v.invariant ^ ": " ^ v.detail ]
          | None -> []),
          res.stats.runs,
          Printf.sprintf "/walks:%d" (walk_fingerprint res) )
  in
  let reasons = sim_bad @ walk_bad in
  [
    ("ok", B (reasons = []));
    ("reasons", L (List.map (fun r -> S r) reasons));
    ("attempted", I (1 + walk_attempted));
    ("failed", I ((if sim_bad = [] then 0 else 1) + List.length walk_bad));
    ( "fingerprint",
      S (string_of_int op.result.commit_fingerprint ^ walk_fp) );
  ]

(* Simulated, client-visible numbers: deterministic per seed. *)
let sim_fields op =
  let r = op.result in
  [
    ("tput_ktps", F r.throughput_ktps);
    ("lat_p50_ms", F r.latency_p50_ms);
    ("lat_p99_ms", F r.latency_p99_ms);
    ("lat_samples", I (lat_samples op.spec r));
  ]

let cmd_run w seed =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let op = operation w ~seed ~sim_obs:None in
  let g1 = Gc.quick_stat () in
  let minor = g1.minor_words -. g0.minor_words in
  let promoted = g1.promoted_words -. g0.promoted_words in
  print_object
    (gate_fields op @ sim_fields op
    @ [
        ("wall_s", F (op_wall op));
        ("walk_wall_s", F (Option.fold ~none:0. ~some:snd op.walk));
        ("peak_heap_mb", F (mb_of_words g1.top_heap_words));
        ("gc.minor_words", F minor);
        ("gc.promoted_words", F promoted);
        ("gc.promoted_frac", F (if minor > 0. then promoted /. minor else 0.));
        ( "gc.major_collections",
          I (g1.major_collections - g0.major_collections) );
      ])

(* Set-up: build the system and stop before its first timed event — the
   simulation at a zero horizon, plus one checker world when the workload
   has walks. Repeated until [budget_s] has passed (at least 3 and at most
   501 builds) so that run.py can take a median of many short timings.
   Each build starts from a compacted heap, so no build pays for the
   garbage of the one before. *)
let cmd_setup w seed budget_s =
  let build () =
    ignore
      (Runner.run
         { (w.sim seed) with duration = Sim.Time.zero; warmup = Sim.Time.zero });
    Option.iter (fun (hspec, _) -> ignore (H.build hspec)) w.walks
  in
  let rec loop acc reps spent =
    if reps >= 501 || (reps >= 3 && spent >= budget_s) then List.rev acc
    else begin
      Gc.compact ();
      let t = snd (timed build) in
      loop (t :: acc) (reps + 1) (spent +. t)
    end
  in
  print_object [ ("setup_s", L (List.map (fun t -> F t) (loop [] 0 0.))) ]

(* ---- traced operation --------------------------------------------- *)

let ms_of_ns ns = float_of_int ns /. 1e6
let ms_of_us us = float_of_int us /. 1e3

let prof_fields rows =
  let row name = List.find_opt (fun (r : Prof.row) -> r.name = name) rows in
  let calls name = Option.fold ~none:0 ~some:(fun (r : Prof.row) -> r.calls) (row name) in
  let self_ns name =
    Option.fold ~none:0 ~some:(fun (r : Prof.row) -> r.self_ns) (row name)
  in
  let self_ms name = (name ^ ".self_ms", F (ms_of_ns (self_ns name))) in
  let echo_calls = calls "sailfish.echo" in
  [
    self_ms "engine.dispatch";
    self_ms "engine.ring_scan";
    self_ms "engine.migrate";
    ("net.fanout.calls", I (calls "net.fanout"));
    self_ms "net.fanout";
    self_ms "net.send";
    ("sailfish.echo.calls", I echo_calls);
    self_ms "sailfish.echo";
    ( "sailfish.echo.ns_per_call",
      F
        (if echo_calls = 0 then 0.
         else float_of_int (self_ns "sailfish.echo") /. float_of_int echo_calls) );
    self_ms "sailfish.commit";
    self_ms "sailfish.propose";
    ("keychain.verify.calls", I (calls "keychain.verify"));
    self_ms "keychain.verify";
    self_ms "keychain.sign";
    self_ms "sha256";
    self_ms "dag.parents";
    self_ms "dag.insert";
    self_ms "dag.prune";
    ("codec.encode.calls", I (calls "codec.encode"));
    self_ms "codec.encode";
    self_ms "codec.decode";
    ("wal.append.calls", I (calls "wal.append"));
    self_ms "wal.append";
    self_ms "wal.replay";
  ]

let sum_counter reg name =
  Metrics.fold reg ~init:0 ~f:(fun acc ~name:n ~labels:_ v ->
      match v with Metrics.Counter_v c when n = name -> acc + c | _ -> acc)

let max_gauge reg name =
  Metrics.fold reg ~init:0. ~f:(fun acc ~name:n ~labels:_ v ->
      match v with Metrics.Gauge_v g when n = name -> Float.max acc g | _ -> acc)

(* Every path's segments must sum exactly to its end-to-end time. *)
let segments_exact (rep : Analyze.report) =
  List.for_all
    (fun (p : Analyze.path) ->
      Array.fold_left ( + ) 0 p.p_segments = p.p_commit - p.p_origin)
    rep.paths

let analysis_fields (op : op) (obs : Obs.t) =
  let r = op.result and spec = op.spec in
  let records = Trace.records obs.trace in
  let proposed =
    List.fold_left
      (fun acc (rc : Trace.record) ->
        match rc.ev with
        | Trace.Rbc_phase { phase = Trace.Propose; _ } -> acc + 1
        | _ -> acc)
      0 records
  in
  let rep = Analyze.analyze records in
  let reg = obs.metrics in
  let horizon_s = Sim.Time.to_s spec.duration in
  let window_s = Sim.Time.to_s (spec.duration - spec.warmup) in
  let backlog =
    match Metrics.find reg "uplink_backlog_us" with
    | Some (Metrics.Histogram_v h) -> h
    | _ -> failwith "uplink_backlog_us missing"
  in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let d seg = List.assoc seg rep.segments in
  let seg name (dist : Analyze.dist) =
    [
      ("seg." ^ name ^ ".p50_ms", F (ms_of_us dist.p50_us));
      ("seg." ^ name ^ ".p99_ms", F (ms_of_us dist.p99_us));
    ]
  in
  let wal_words = Option.value ~default:0 (List.assoc_opt "wal" r.census) in
  ( segments_exact rep,
    [
      ("engine.events", I r.events);
      ( "net.bytes_per_txn",
        (* bytes over the whole horizon per committed txn, both as rates *)
        F
          (if r.committed_txns = 0 then 0.
           else
             float_of_int r.bytes_total /. horizon_s
             /. (float_of_int r.committed_txns /. window_s)) );
      ("net.egress_mb_per_node_s", F r.mb_per_node_per_s);
      ( "net.uplink_busy_frac",
        F
          (float_of_int (sum_counter reg "uplink_busy_us_total")
          /. (float_of_int spec.n *. horizon_s *. 1e6)) );
      ( "net.uplink_backlog_p99_us",
        F (Util.Stats.Histogram.quantile backlog 0.99) );
      ("net.uplink_backlog.samples", I (Util.Stats.Histogram.count backlog));
      ("consensus.rounds", I r.rounds);
      ("consensus.leader_commit_frac", F (frac r.leaders_committed r.rounds));
      ("consensus.commit_frac", F (frac rep.distinct_vertices proposed));
      ("consensus.proposed", I proposed);
      ("sailfish.pull_retries", I (sum_counter reg "sailfish_pull_retries"));
    ]
    @ seg "dissemination" (d Analyze.Dissemination)
    @ seg "quorum_wait" (d Analyze.Quorum_wait)
    @ seg "order_wait" (d Analyze.Order_wait)
    @ [
        ("seg.samples", I rep.e2e.count);
        ( "consensus.round_advance_p50_ms",
          F (ms_of_us rep.round_advance.p50_us) );
        ("consensus.round_advance.samples", I rep.round_advance.count);
        ("wal.live_mb", F (mb_of_words wal_words));
        ("recovery.rounds_fetched", I (sum_counter reg "recovery_rounds_fetched"));
        ("recovery.catchup_ms", F (max_gauge reg "recovery_wall_ms"));
        ("stalls.count", I (List.length rep.stalls));
        ( "stalls.total_ms",
          F
            (ms_of_us
               (List.fold_left
                  (fun acc (s : Analyze.stall) -> acc + s.st_gap_us)
                  0 rep.stalls)) );
        ("trace.events", I (Trace.length obs.trace));
      ] )

let cmd_traced w seed =
  let check_build_ms =
    match w.walks with
    | None -> 0.
    | Some (hspec, _) ->
        let times =
          List.init 5 (fun _ -> snd (timed (fun () -> H.build hspec)))
          |> List.sort compare
        in
        List.nth times 2 *. 1e3
  in
  let obs = Obs.create () in
  Prof.reset ();
  Prof.set_enabled true;
  let op, wall = timed (fun () -> operation w ~seed ~sim_obs:(Some obs)) in
  Prof.set_enabled false;
  let rows = Prof.report () in
  (* Self times partition the time spent inside top-level sections. *)
  let attributed =
    float_of_int (List.fold_left (fun acc (r : Prof.row) -> acc + r.self_ns) 0 rows)
    /. 1e9
  in
  let exact, layer = analysis_fields op obs in
  let transitions =
    Option.fold ~none:0 ~some:(fun ((res : E.result), _) -> res.stats.transitions) op.walk
  in
  let checks =
    failing
      [
        (not exact, "analyzer segments do not sum to end-to-end time");
        (attributed > wall, "top-level Prof time exceeds traced wall time");
      ]
  in
  print_object
    (gate_fields op @ sim_fields op
    @ [
        ("self_checks", L (List.map (fun c -> S c) checks));
        ("traced_wall_s", F wall);
        ("traced_peak_heap_mb", F (mb_of_words (Gc.quick_stat ()).top_heap_words));
        ("prof.attributed_s", F attributed);
        ("prof.unattributed_frac", F (1. -. (attributed /. wall)));
        ("check.transitions", I transitions);
        ("check.build_ms", F check_build_ms);
      ]
    @ prof_fields rows @ layer)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "run"; w; seed ] -> cmd_run (find_workload w) (Int64.of_string seed)
  | [ "traced"; w; seed ] -> cmd_traced (find_workload w) (Int64.of_string seed)
  | [ "setup"; w; seed; budget_s ] ->
      cmd_setup (find_workload w) (Int64.of_string seed) (float_of_string budget_s)
  | _ ->
      prerr_endline
        "usage: bench.exe (run|traced) WORKLOAD SEED | setup WORKLOAD SEED SECS";
      exit 2
