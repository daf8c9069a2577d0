#!/bin/sh
# Minimal CI gate: build, formatting (when ocamlformat is available), tests.
set -eu

cd "$(dirname "$0")"

echo "== dune build =="
dune build

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== format check =="
  dune build @fmt
else
  echo "== format check skipped (ocamlformat not installed) =="
fi

echo "== dune runtest =="
dune runtest

if command -v odoc >/dev/null 2>&1; then
  echo "== odoc (warnings in lib/obs are fatal) =="
  doc_log=$(mktemp)
  dune build @doc 2>&1 | tee "$doc_log"
  if grep -i "warning" "$doc_log" | grep -q "obs"; then
    echo "odoc warnings in lib/obs"
    rm -f "$doc_log"
    exit 1
  fi
  rm -f "$doc_log"
else
  echo "== odoc skipped (odoc not installed) =="
fi

echo "== recovery smoke (crash 4 s, recover 8 s, deterministic) =="
smoke_dir=$(mktemp -d)
dune exec bin/clanbft_cli.exe -- sim -n 16 -p single-clan --restart 3@4s:8s \
  --duration 12 --seed 7 >"$smoke_dir/rec1" 2>/dev/null
dune exec bin/clanbft_cli.exe -- sim -n 16 -p single-clan --restart 3@4s:8s \
  --duration 12 --seed 7 >"$smoke_dir/rec2" 2>/dev/null
# Same seed, same schedule: recovery must not break determinism.
if ! cmp -s "$smoke_dir/rec1" "$smoke_dir/rec2"; then
  echo "recovery run differs between two same-seed runs"
  diff "$smoke_dir/rec1" "$smoke_dir/rec2" || true
  exit 1
fi
grep -q "agree=true" "$smoke_dir/rec1" || {
  echo "agreement lost under crash-recovery"
  exit 1
}
commits=$(awk -F': ' '/post-recovery commits \[replica 3\]/ { print $2 }' "$smoke_dir/rec1")
if [ -z "$commits" ] || [ "$commits" -le 0 ]; then
  echo "recovered replica made no post-recovery commits"
  cat "$smoke_dir/rec1"
  exit 1
fi
echo "replica 3 committed $commits vertices after recovering"
# Pinned outcome. The bytes charged to the simulated disks set their
# timing, and that timing decides which WAL records survive the crash: a
# journal-format change that shifts it moves the disk byte count, and can
# move the fingerprint or the post-recovery commit count.
rec_fp=$(awk -F': ' '/^commit fingerprint/ { print $2 }' "$smoke_dir/rec1")
rec_disk=$(awk -F': ' '/^disk bytes written/ { print $2 }' "$smoke_dir/rec1")
if [ "$rec_fp" != "2329364689371423589" ] || [ "$commits" != "565" ] \
  || [ "$rec_disk" != "3670507756" ]; then
  echo "recovery smoke drifted: fingerprint $rec_fp (pinned 2329364689371423589)," \
    "replica 3 post-recovery commits $commits (pinned 565)," \
    "disk bytes $rec_disk (pinned 3670507756)"
  exit 1
fi
rm -rf "$smoke_dir"

echo "== n=50 scale smoke (sailfish, 2 s sim, 90 s wall budget) =="
# The batched fan-out keeps large-committee runs affordable: a 50-node
# sailfish run processes ~2.6M events in a few seconds. Budget is explicit
# wall-clock — blowing it means the fast path regressed, not just noise.
# Run profiled for the heap census, whose rows are deterministic per seed.
smoke_dir=$(mktemp -d)
if ! timeout 90 dune exec bin/clanbft_cli.exe -- sim -n 50 -p full --load 200 \
  --duration 2 --warmup 0.5 --seed 7 --profile >"$smoke_dir/n50" 2>/dev/null; then
  echo "n=50 smoke failed or exceeded its 90 s wall-clock budget"
  exit 1
fi
grep -q "agree=true" "$smoke_dir/n50" || {
  echo "agreement lost at n=50"
  cat "$smoke_dir/n50"
  exit 1
}
# Pinned: the vote plane's bookkeeping may change its cost, never the
# message flow a realistic quorum sees.
n50_txns=$(awk '/^committed/ { print $2 }' "$smoke_dir/n50")
n50_fp=$(awk -F': ' '/^commit fingerprint/ { print $2 }' "$smoke_dir/n50")
if [ "$n50_txns" != "56800" ] || [ "$n50_fp" != "-2064807531813105959" ]; then
  echo "n=50 smoke drifted: committed $n50_txns (pinned 56800)," \
    "fingerprint $n50_fp (pinned -2064807531813105959)"
  cat "$smoke_dir/n50"
  exit 1
fi
# Pinned: settled slots drop their vote state and the ordered/covered
# sets live in per-round bitsets; state kept alive again moves this row.
n50_state=$(awk '$1 == "consensus.state" { print $2 }' "$smoke_dir/n50")
if [ "$n50_state" != "836409" ]; then
  echo "n=50 consensus.state census drifted: $n50_state words (pinned 836409)"
  cat "$smoke_dir/n50"
  exit 1
fi
echo "n=50 committed $n50_txns txns within budget, consensus.state $n50_state words"
rm -rf "$smoke_dir"

echo "== multi-clan large-block smoke (n=16, q=2, 6000 txns per proposal) =="
# Pinned: how a block holds its transactions, or how SHA-256 compresses,
# may change its cost, never its digest or the commit sequence. Run
# profiled so the number of digests taken is pinned too: hashing a block
# twice (a re-seal on decode, say) moves it.
smoke_dir=$(mktemp -d)
dune exec bin/clanbft_cli.exe -- sim -n 16 -p multi-clan --clans 2 \
  --load 6000 --duration 3 --warmup 1 --seed 7 --profile >"$smoke_dir/mc" 2>/dev/null
grep -q "agree=true" "$smoke_dir/mc" || {
  echo "agreement lost in the multi-clan run"
  cat "$smoke_dir/mc"
  exit 1
}
mc_txns=$(awk '/^committed/ { print $2 }' "$smoke_dir/mc")
mc_fp=$(awk -F': ' '/^commit fingerprint/ { print $2 }' "$smoke_dir/mc")
if [ "$mc_txns" != "552000" ] || [ "$mc_fp" != "-877030967115697687" ]; then
  echo "multi-clan smoke drifted: committed $mc_txns (pinned 552000)," \
    "fingerprint $mc_fp (pinned -877030967115697687)"
  cat "$smoke_dir/mc"
  exit 1
fi
mc_sha=$(awk '$1 == "sha256" { print $2 }' "$smoke_dir/mc")
if [ "$mc_sha" != "3200" ]; then
  echo "multi-clan smoke drifted: $mc_sha sha256 digests (pinned 3200)"
  cat "$smoke_dir/mc"
  exit 1
fi
echo "multi-clan committed $mc_txns txns, fingerprint $mc_fp, $mc_sha digests"
rm -rf "$smoke_dir"

echo "== sparse smoke (n=16, k=3, same-seed double run) =="
# The sparse edge policy derives every sampled parent from the vertex
# seed: two same-seed runs must be byte-identical, and the O(k) parent
# sets must still reach agreement.
smoke_dir=$(mktemp -d)
dune exec bin/clanbft_cli.exe -- sim -n 16 -p sparse --sparse-k 3 \
  --duration 4 --warmup 1 --seed 7 >"$smoke_dir/sp1" 2>/dev/null
dune exec bin/clanbft_cli.exe -- sim -n 16 -p sparse --sparse-k 3 \
  --duration 4 --warmup 1 --seed 7 >"$smoke_dir/sp2" 2>/dev/null
if ! cmp -s "$smoke_dir/sp1" "$smoke_dir/sp2"; then
  echo "sparse run differs between two same-seed runs"
  diff "$smoke_dir/sp1" "$smoke_dir/sp2" || true
  exit 1
fi
grep -q "agree=true" "$smoke_dir/sp1" || {
  echo "agreement lost under sparse edges"
  cat "$smoke_dir/sp1"
  exit 1
}
sp_txns=$(awk '/^committed/ { print $2 }' "$smoke_dir/sp1")
if [ -z "$sp_txns" ] || [ "$sp_txns" -le 0 ]; then
  echo "sparse smoke committed no transactions"
  cat "$smoke_dir/sp1"
  exit 1
fi
echo "sparse n=16 committed $sp_txns txns, deterministic"
rm -rf "$smoke_dir"

echo "== attack corpus (every strategy at n=16, deterministic, stalls attributed) =="
# Every Strategy kind runs twice from the same seed: the stdouts (which
# carry the commit fingerprint) must be byte-identical and agreement must
# hold. The grief run is traced and fed to the analyzer, which must pin
# every stall on the griefing leader — the misattribution regression gate.
smoke_dir=$(mktemp -d)
attack_sim() {
  out=$1
  shift
  timeout 60 dune exec bin/clanbft_cli.exe -- sim -n 16 -p single-clan \
    --load 200 --duration 4 --warmup 1 --seed 7 "$@" >"$out" 2>/dev/null
}
for atk in 3@equivocate 3@censor:0 3@grief:0.8 3@reorder:2ms; do
  attack_sim "$smoke_dir/a1" --adversary "$atk" || {
    echo "attack run $atk failed or exceeded its 60 s wall cap"
    exit 1
  }
  attack_sim "$smoke_dir/a2" --adversary "$atk" || {
    echo "second attack run $atk failed"
    exit 1
  }
  if ! cmp -s "$smoke_dir/a1" "$smoke_dir/a2"; then
    echo "attack run $atk differs between two same-seed runs"
    diff "$smoke_dir/a1" "$smoke_dir/a2" || true
    exit 1
  fi
  grep -q "agree=true" "$smoke_dir/a1" || {
    echo "agreement lost under $atk"
    cat "$smoke_dir/a1"
    exit 1
  }
  grep -q "commit fingerprint: " "$smoke_dir/a1" || {
    echo "attack run $atk printed no commit fingerprint"
    exit 1
  }
  echo "  $atk: deterministic, agreement holds"
done
# sync_storm preys on a recovering replica, so its run carries a restart;
# the victim must still make post-recovery progress under the amplification.
attack_sim "$smoke_dir/s1" --adversary 2@storm:16 --restart 5@1500ms:2500ms || {
  echo "sync_storm run failed or exceeded its 60 s wall cap"
  exit 1
}
attack_sim "$smoke_dir/s2" --adversary 2@storm:16 --restart 5@1500ms:2500ms || {
  echo "second sync_storm run failed"
  exit 1
}
if ! cmp -s "$smoke_dir/s1" "$smoke_dir/s2"; then
  echo "sync_storm run differs between two same-seed runs"
  diff "$smoke_dir/s1" "$smoke_dir/s2" || true
  exit 1
fi
grep -q "agree=true" "$smoke_dir/s1" || {
  echo "agreement lost under sync_storm"
  cat "$smoke_dir/s1"
  exit 1
}
storm_commits=$(awk -F': ' '/post-recovery commits \[replica 5\]/ { print $2 }' "$smoke_dir/s1")
if [ -z "$storm_commits" ] || [ "$storm_commits" -le 0 ]; then
  echo "sync_storm starved the recovering replica"
  cat "$smoke_dir/s1"
  exit 1
fi
echo "  2@storm:16: deterministic, victim committed $storm_commits post-recovery"
# Grief attribution: the analyzer must name the attack, not "unknown".
attack_sim "$smoke_dir/g" --adversary 3@grief:0.8 --trace "$smoke_dir/g.jsonl" || {
  echo "traced grief run failed"
  exit 1
}
dune exec bin/clanbft_cli.exe -- analyze --trace "$smoke_dir/g.jsonl" --json \
  >"$smoke_dir/g.json"
if command -v jq >/dev/null 2>&1; then
  jq -e '[.stalls[].cause] | length > 0 and all(. == "grief_leader(3)")' \
    "$smoke_dir/g.json" >/dev/null || {
    echo "stall detector failed to attribute the griefing leader"
    cat "$smoke_dir/g.json"
    exit 1
  }
else
  grep -q '"cause":"grief_leader(3)"' "$smoke_dir/g.json" || {
    echo "stall detector failed to attribute the griefing leader"
    cat "$smoke_dir/g.json"
    exit 1
  }
fi
echo "  grief stalls attributed to grief_leader(3)"
# Bad adversary specs must be rejected cleanly (exit 2), never crash.
for bad in "3@bogus" "99@grief" "3@censor:xx" "3@grief:1.5"; do
  rc=0
  dune exec bin/clanbft_cli.exe -- sim -n 16 --duration 1 \
    --adversary "$bad" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "bad adversary spec '$bad' exited $rc, expected 2"
    exit 1
  fi
done
rc=0
dune exec bin/clanbft_cli.exe -- check --adversary grief -n 4 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "check --adversary grief without --model sailfish exited $rc, expected 2"
  exit 1
fi
echo "  malformed adversary specs rejected with exit 2"
rm -rf "$smoke_dir"

echo "== bench metrics smoke =="
smoke_dir=$(mktemp -d)
(cd "$smoke_dir" && CLANBFT_BENCH=quick dune exec --root "$OLDPWD" bench/main.exe -- metrics)
for f in sailfish single-clan_nc_11_ multi-clan_q_2_; do
  test -s "$smoke_dir/bench_metrics/$f.metrics.json" || {
    echo "missing metrics dump: $f.metrics.json"
    exit 1
  }
done
rm -rf "$smoke_dir"

echo "== analyze smoke (trace -> clanbft analyze, deterministic) =="
smoke_dir=$(mktemp -d)
dune exec bin/clanbft_cli.exe -- sim -n 16 -p single-clan --duration 2 \
  --warmup 0.5 --seed 7 --trace "$smoke_dir/t1.jsonl" >/dev/null 2>&1
dune exec bin/clanbft_cli.exe -- sim -n 16 -p single-clan --duration 2 \
  --warmup 0.5 --seed 7 --trace "$smoke_dir/t2.jsonl" >/dev/null 2>&1
# Streaming the trace must not perturb the run: same seed, same bytes.
if ! cmp -s "$smoke_dir/t1.jsonl" "$smoke_dir/t2.jsonl"; then
  echo "streamed traces differ between two same-seed runs"
  exit 1
fi
dune exec bin/clanbft_cli.exe -- analyze --trace "$smoke_dir/t1.jsonl" --json \
  >"$smoke_dir/a1.json"
dune exec bin/clanbft_cli.exe -- analyze --trace "$smoke_dir/t2.jsonl" --json \
  >"$smoke_dir/a2.json"
# The analyzer is pure: identical traces must render identical reports.
if ! cmp -s "$smoke_dir/a1.json" "$smoke_dir/a2.json"; then
  echo "analyzer output differs on identical traces"
  exit 1
fi
dune exec bin/clanbft_cli.exe -- analyze --trace "$smoke_dir/t1.jsonl" \
  >"$smoke_dir/a1.txt"
grep -q "commit critical path" "$smoke_dir/a1.txt" || {
  echo "human analysis report missing critical-path section"
  exit 1
}
if command -v jq >/dev/null 2>&1; then
  jq -e '.schema == "clanbft/analysis/v1"
         and .commit_paths > 0
         and (.segments | has("dissemination") and has("quorum_wait")
              and has("order_wait"))
         and (.segments | to_entries | map(.value.p50_us) | add) <= .e2e.p50_us * 2
         and (.stalls | length) == 0' \
    "$smoke_dir/a1.json" >/dev/null || {
    echo "analysis JSON failed schema validation"
    exit 1
  }
fi
rm -rf "$smoke_dir"

echo "== sweep smoke (worker-count independence, per-point seeds) =="
# A sweep prints the same bytes whatever the worker count, and load
# point i is exactly the sim run at seed + 7919 i (default seed 42).
smoke_dir=$(mktemp -d)
for j in 1 2; do
  dune exec bin/clanbft_cli.exe -- sweep -n 16 -p full --loads 100,300 \
    --duration 4 --warmup 1 -j "$j" >"$smoke_dir/sw$j" 2>/dev/null || {
    echo "sweep -j $j failed"
    exit 1
  }
done
if ! cmp -s "$smoke_dir/sw1" "$smoke_dir/sw2"; then
  echo "sweep output depends on the worker count"
  diff "$smoke_dir/sw1" "$smoke_dir/sw2" | head -5
  exit 1
fi
dune exec bin/clanbft_cli.exe -- sim -n 16 -p full --load 300 \
  --duration 4 --warmup 1 --seed 7961 >"$smoke_dir/point" 2>/dev/null
if [ "$(sed -n 2p "$smoke_dir/sw1")" != "$(head -n 1 "$smoke_dir/point")" ]; then
  echo "sweep row 2 differs from sim --load 300 --seed 7961"
  exit 1
fi
echo "  sweep -j 1 == -j 2; row 2 == sim --load 300 --seed 7961"
rm -rf "$smoke_dir"

echo "== profile smoke (self-profiler: pure observation, deterministic modulo *_ns) =="
smoke_dir=$(mktemp -d)
# The profiler must not perturb the run: a profiled run's commit
# fingerprint must equal an unprofiled same-seed run's.
dune exec bin/clanbft_cli.exe -- sim -n 16 -p full --load 200 \
  --duration 4 --warmup 1 --seed 7 >"$smoke_dir/plain" 2>/dev/null
dune exec bin/clanbft_cli.exe -- sim --profile -n 16 -p full --load 200 \
  --duration 4 --warmup 1 --seed 7 --folded "$smoke_dir/p1.folded" \
  --profile-json "$smoke_dir/p1.json" >"$smoke_dir/prof1" 2>/dev/null
dune exec bin/clanbft_cli.exe -- sim --profile -n 16 -p full --load 200 \
  --duration 4 --warmup 1 --seed 7 --profile-json "$smoke_dir/p2.json" \
  >"$smoke_dir/prof2" 2>/dev/null
fp_plain=$(awk -F': ' '/^commit fingerprint/ { print $2 }' "$smoke_dir/plain")
fp_prof=$(awk -F': ' '/^commit fingerprint/ { print $2 }' "$smoke_dir/prof1")
if [ -z "$fp_plain" ] || [ "$fp_plain" != "$fp_prof" ]; then
  echo "profiled run diverged from unprofiled same-seed run ($fp_prof vs $fp_plain)"
  exit 1
fi
# Profiling composes with adversaries and crash-recovery: a profiled
# grief + restart run commits exactly what the unprofiled one does.
dune exec bin/clanbft_cli.exe -- sim -n 16 -p full --load 200 \
  --duration 4 --warmup 1 --seed 7 --adversary 2@grief:0.8 \
  --restart 3@2s:3s >"$smoke_dir/adv_plain" 2>/dev/null
dune exec bin/clanbft_cli.exe -- sim --profile -n 16 -p full --load 200 \
  --duration 4 --warmup 1 --seed 7 --adversary 2@grief:0.8 \
  --restart 3@2s:3s >"$smoke_dir/adv_prof" 2>/dev/null
fp_adv_plain=$(awk -F': ' '/^commit fingerprint/ { print $2 }' "$smoke_dir/adv_plain")
fp_adv_prof=$(awk -F': ' '/^commit fingerprint/ { print $2 }' "$smoke_dir/adv_prof")
if [ -z "$fp_adv_plain" ] || [ "$fp_adv_plain" != "$fp_adv_prof" ]; then
  echo "profiled attack run diverged from unprofiled ($fp_adv_prof vs $fp_adv_plain)"
  exit 1
fi
grep -q '^wal.append ' "$smoke_dir/adv_prof" || {
  echo "profiled restart run has no wal.append section"
  exit 1
}
echo "  profiled grief+restart fingerprint $fp_adv_prof matches unprofiled"
# The folded-stack export is non-empty and every line is "path <self_us>".
test -s "$smoke_dir/p1.folded" || {
  echo "folded-stack export is empty"
  exit 1
}
if grep -qvE '^[^ ]+ [0-9]+$' "$smoke_dir/p1.folded"; then
  echo "malformed folded-stack line:"
  grep -vE '^[^ ]+ [0-9]+$' "$smoke_dir/p1.folded" | head -3
  exit 1
fi
grep -q '^engine.dispatch;' "$smoke_dir/p1.folded" || {
  echo "folded stacks missing the engine.dispatch tree"
  exit 1
}
if command -v jq >/dev/null 2>&1; then
  # Deterministic fields (calls, words, census, tree shape) are
  # byte-identical across same-seed runs once the wall-clock *_ns
  # fields are stripped (docs/PROFILING.md).
  strip_ns='walk(if type == "object"
                 then with_entries(select(.key | endswith("_ns") | not))
                 else . end)'
  jq -S "$strip_ns" "$smoke_dir/p1.json" >"$smoke_dir/p1.stripped"
  jq -S "$strip_ns" "$smoke_dir/p2.json" >"$smoke_dir/p2.stripped"
  if ! cmp -s "$smoke_dir/p1.stripped" "$smoke_dir/p2.stripped"; then
    echo "profile deterministic fields differ between two same-seed runs"
    diff "$smoke_dir/p1.stripped" "$smoke_dir/p2.stripped" | head -20
    exit 1
  fi
  jq -e '.schema == "clanbft/profile/v1"
         and (.sections | length) > 0
         and (.sections | map(.name) | index("engine.dispatch") != null)
         and (.census | length) > 0
         and (.census | map(.subsystem) | index("dag.store") != null)' \
    "$smoke_dir/p1.json" >/dev/null || {
    echo "profile JSON failed schema validation"
    exit 1
  }
  echo "profile deterministic fields byte-identical; fingerprint $fp_prof matches unprofiled"
else
  grep -qF '"schema": "clanbft/profile/v1"' "$smoke_dir/p1.json" || {
    echo "profile JSON missing schema"
    exit 1
  }
  echo "profile fingerprint $fp_prof matches unprofiled (jq absent: strip-compare skipped)"
fi
rm -rf "$smoke_dir"

echo "== check: exhaustive schedule exploration (n=4, 2 rounds, both TA-RBC families) =="
# Bounded model checking (docs/CHECKING.md): every delivery reordering
# within the delay budget must keep agreement/validity/no-equivocation/
# totality. Wall cap is a hard gate — the checker regressing past it
# means the stateless-replay fast path broke.
smoke_dir=$(mktemp -d)
for fam in tribe-bracha tribe-signed; do
  if ! timeout 60 dune exec bin/clanbft_cli.exe -- check -p "$fam" -n 4 \
    --rounds 2 --exhaustive >"$smoke_dir/$fam" 2>/dev/null; then
    echo "exhaustive check ($fam) failed or exceeded its 60 s wall cap"
    cat "$smoke_dir/$fam" 2>/dev/null || true
    exit 1
  fi
  grep -q "verdict: ok" "$smoke_dir/$fam" || {
    echo "exhaustive check ($fam) reported a violation"
    cat "$smoke_dir/$fam"
    exit 1
  }
  sed -n 's/^check: /  '"$fam"': /p' "$smoke_dir/$fam"
done

echo "== check: fixed-seed random walks (10k sailfish walks + equivocating RBC) =="
# Seed 7 is the seed that caught the timeout-path no-vote/vote exclusivity
# bug (EXPERIMENTS.md); 10k walks re-sweep it on every CI run.
timeout 180 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
  --rounds 4 --walks 10000 --steps 300 --seed 7 >"$smoke_dir/walk_sf" 2>/dev/null || {
  echo "sailfish walk budget failed"
  cat "$smoke_dir/walk_sf" 2>/dev/null || true
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/walk_sf" || {
  echo "sailfish walks reported a violation"
  cat "$smoke_dir/walk_sf"
  exit 1
}
echo "== check: sparse edges (exhaustive n=4 + 2500 walks) =="
# The sparse coverage rule (leader + link + sampled parents) replaces the
# dense 2f+1-parents assumption; both search modes must stay violation-free.
timeout 90 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
  --rounds 2 --sparse-k 2 --exhaustive --delay-budget 1 --window 3 \
  --max-actions 120 >"$smoke_dir/sparse_ex" 2>/dev/null || {
  echo "sparse exhaustive check failed or exceeded its 90 s wall cap"
  cat "$smoke_dir/sparse_ex" 2>/dev/null || true
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/sparse_ex" || {
  echo "sparse exhaustive check reported a violation"
  cat "$smoke_dir/sparse_ex"
  exit 1
}
sed -n 's/^check: /  sparse exhaustive: /p' "$smoke_dir/sparse_ex"
timeout 120 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
  --rounds 4 --sparse-k 2 --walks 2500 --steps 300 --seed 7 \
  >"$smoke_dir/walk_sparse" 2>/dev/null || {
  echo "sparse walk budget failed"
  cat "$smoke_dir/walk_sparse" 2>/dev/null || true
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/walk_sparse" || {
  echo "sparse walks reported a violation"
  cat "$smoke_dir/walk_sparse"
  exit 1
}

timeout 60 dune exec bin/clanbft_cli.exe -- check -p tribe-signed -n 4 \
  --rounds 1 --adversary equivocate --exhaustive >"$smoke_dir/equiv" 2>/dev/null || {
  echo "equivocating-sender check failed"
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/equiv" || {
  echo "single equivocating sender (within f=1) broke safety"
  cat "$smoke_dir/equiv"
  exit 1
}

echo "== check self-test: injected collusion must be caught and replay byte-identically =="
# Two byzantine voters against f=1 are outside the fault model: the
# checker must find the agreement violation (exit 1), minimize it, and
# the written schedule must replay to a byte-identical trace twice.
set +e
timeout 60 dune exec bin/clanbft_cli.exe -- check -p tribe-bracha -n 4 \
  --rounds 1 --adversary collude --exhaustive \
  --schedule-out "$smoke_dir/collude.sched" >"$smoke_dir/collude" 2>/dev/null
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
  echo "collusion self-test: expected exit 1 (violation), got $rc"
  cat "$smoke_dir/collude" 2>/dev/null || true
  exit 1
fi
grep -q "verdict: VIOLATION invariant=agreement" "$smoke_dir/collude" || {
  echo "collusion self-test: agreement violation not reported"
  cat "$smoke_dir/collude"
  exit 1
}
test -s "$smoke_dir/collude.sched" || {
  echo "collusion self-test: no schedule written"
  exit 1
}
for i in 1 2; do
  set +e
  dune exec bin/clanbft_cli.exe -- check --replay "$smoke_dir/collude.sched" \
    --trace-out "$smoke_dir/replay$i.jsonl" >"$smoke_dir/replay$i" 2>/dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 1 ]; then
    echo "collusion replay $i: expected exit 1, got $rc"
    cat "$smoke_dir/replay$i" 2>/dev/null || true
    exit 1
  fi
done
if ! cmp -s "$smoke_dir/replay1.jsonl" "$smoke_dir/replay2.jsonl"; then
  echo "collusion replays produced different traces"
  exit 1
fi
echo "collusion caught, minimized schedule replays byte-identically"
rm -rf "$smoke_dir"

echo "== parallel bench smoke (perf section, CLANBFT_JOBS=2) =="
smoke_dir=$(mktemp -d)
(cd "$smoke_dir" \
  && CLANBFT_BENCH=quick dune exec --root "$OLDPWD" bench/main.exe -- --jobs 1 perf >stdout.jobs1 2>/dev/null \
  && CLANBFT_BENCH=quick CLANBFT_JOBS=2 dune exec --root "$OLDPWD" bench/main.exe -- perf >stdout.jobs2 2>/dev/null)
# Deterministic stdout: parallel dispatch must not change a byte.
if ! cmp -s "$smoke_dir/stdout.jobs1" "$smoke_dir/stdout.jobs2"; then
  echo "bench stdout differs between --jobs 1 and CLANBFT_JOBS=2"
  diff "$smoke_dir/stdout.jobs1" "$smoke_dir/stdout.jobs2" || true
  exit 1
fi
test -s "$smoke_dir/BENCH_sim.json" || {
  echo "missing BENCH_sim.json"
  exit 1
}
if command -v jq >/dev/null 2>&1; then
  jq -e '.schema == "clanbft/bench-sim/v3"
         and .jobs == 2
         and (.scenarios | length) >= 5
         and (.scenarios | all(has("events_per_s") and has("wall_s")
              and has("minor_words") and has("live_words")
              and has("top_heap_words") and has("commit_fingerprint")))
         and (.scenarios | map(.name) | index("sparse-n16-load200") != null)
         and (.micro | has("sha256_mb_per_s") and has("net_send_ops_per_s")
              and has("encode_ops_per_s") and has("decode_ops_per_s"))
         and (.analysis | length == 4
              and all(.[]; (.e2e.count > 0)
                   and (.segments | has("dissemination") and has("echo_wait")
                        and has("quorum_wait") and has("dag_wait")
                        and has("order_wait"))))' \
    "$smoke_dir/BENCH_sim.json" >/dev/null || {
    echo "BENCH_sim.json failed schema validation"
    exit 1
  }
  # Degradation envelope over the attack corpus: every run safe and live,
  # and every attack's damage bounded relative to its same-seed benign
  # baseline. Runs are deterministic, so a breach is a behaviour change.
  attacks_envelope='.attacks | length == 21
    and all(.[]; .agreement)
    and ([.[] | select(.tput_ratio != null)] | length == 15
         and all(.[]; .tput_ratio >= 0.55 and .tput_ratio <= 1.08
                 and .p50_ratio >= 0.85 and .p50_ratio <= 1.3
                 and .p99_ratio >= 0.85 and .p99_ratio <= 3.2))'
  jq -e "$attacks_envelope" "$smoke_dir/BENCH_sim.json" >/dev/null || {
    echo "BENCH_sim.json attack corpus breached its degradation envelope"
    jq '.attacks' "$smoke_dir/BENCH_sim.json"
    exit 1
  }
  # Envelope self-test: a synthetic throughput collapse on one attack row
  # must trip it.
  jq '(.attacks[] | select(.attack == "grief" and .protocol == "dense")
       | .tput_ratio) *= 0.5' \
    "$smoke_dir/BENCH_sim.json" >"$smoke_dir/tampered_attacks.json"
  if jq -e "$attacks_envelope" "$smoke_dir/tampered_attacks.json" >/dev/null 2>&1; then
    echo "attack envelope self-test failed: synthetic collapse not detected"
    exit 1
  fi
  echo "attack corpus envelope OK (and self-test trips on synthetic collapse)"
else
  for key in '"schema": "clanbft/bench-sim/v3"' '"events_per_s"' '"sha256_mb_per_s"' '"net_send_ops_per_s"' '"analysis"'; do
    grep -qF "$key" "$smoke_dir/BENCH_sim.json" || {
      echo "BENCH_sim.json missing $key"
      exit 1
    }
  done
fi

if command -v jq >/dev/null 2>&1; then
  echo "== perf regression gate (fresh run vs committed BENCH_sim.json) =="
  # Hard gate on simulated-time facts only (throughput, committed txns,
  # analyzer latency percentiles) — those are deterministic, so any drift
  # is a real behaviour change, not machine noise. Wall-clock and
  # events/s vary by machine: warn-only.
  perf_gate() {
    # $1 = baseline, $2 = fresh. Prints offences; returns 1 if any.
    jq -rn --slurpfile b "$1" --slurpfile f "$2" '
      def by_name: map({(.name): .}) | add;
      ($b[0].scenarios | by_name) as $bs
      | ($f[0].scenarios | by_name) as $fs
      | [ $bs | keys[] | select($fs[.] != null) | . as $n
          | ($bs[$n]) as $old | ($fs[$n]) as $new
          | (if $old.throughput_ktps > 0
             and $new.throughput_ktps < 0.75 * $old.throughput_ktps then
               "\($n): throughput \($new.throughput_ktps) kTPS < 75% of baseline \($old.throughput_ktps)"
             else empty end),
            (if $old.committed_txns > 0 and $new.committed_txns == 0 then
               "\($n): no transactions committed (baseline \($old.committed_txns))"
             else empty end),
            (($b[0].analysis[$n].e2e.p50_us // 0) as $bp
             | (($f[0].analysis[$n].e2e.p50_us // $bp)) as $fp
             | if $bp > 0 and $fp > 1.25 * $bp then
                 "\($n): e2e p50 latency \($fp) us > 125% of baseline \($bp)"
               else empty end)
        ] | .[]' | {
      bad=0
      while IFS= read -r line; do
        [ -n "$line" ] || continue
        echo "PERF REGRESSION: $line"
        bad=1
      done
      return $bad
    }
  }
  perf_gate BENCH_sim.json "$smoke_dir/BENCH_sim.json" || {
    echo "perf regression gate failed"
    exit 1
  }
  # Wall-clock drift is machine noise: report, never fail.
  jq -rn --slurpfile b BENCH_sim.json --slurpfile f "$smoke_dir/BENCH_sim.json" '
    def by_name: map({(.name): .}) | add;
    ($b[0].scenarios | by_name) as $bs
    | ($f[0].scenarios | by_name) as $fs
    | [ $bs | keys[] | select($fs[.] != null) | . as $n
        | if $fs[$n].wall_s > 2 * $bs[$n].wall_s then
            "warning: \($n) wall-clock \($fs[$n].wall_s)s > 2x baseline \($bs[$n].wall_s)s (not gated)"
          else empty end
      ] | .[]' || true
  # Gate self-test: an injected 50% throughput collapse must trip it.
  jq '.scenarios[0].throughput_ktps *= 0.5 | .scenarios[0].committed_txns = 0' \
    "$smoke_dir/BENCH_sim.json" >"$smoke_dir/tampered.json"
  if perf_gate BENCH_sim.json "$smoke_dir/tampered.json" >/dev/null 2>&1; then
    echo "perf gate self-test failed: synthetic regression not detected"
    exit 1
  fi
  jq '.analysis[].e2e.p50_us *= 2' \
    "$smoke_dir/BENCH_sim.json" >"$smoke_dir/tampered2.json"
  if perf_gate BENCH_sim.json "$smoke_dir/tampered2.json" >/dev/null 2>&1; then
    echo "perf gate self-test failed: synthetic latency regression not detected"
    exit 1
  fi
  # The sparse scenario is gated by name: a collapse confined to the
  # sparse-n16 entry must trip the gate on its own.
  jq '(.scenarios[] | select(.name == "sparse-n16-load200")
       | .throughput_ktps) *= 0.5
      | (.scenarios[] | select(.name == "sparse-n16-load200")
         | .committed_txns) = 0' \
    "$smoke_dir/BENCH_sim.json" >"$smoke_dir/tampered3.json"
  if perf_gate BENCH_sim.json "$smoke_dir/tampered3.json" >/dev/null 2>&1; then
    echo "perf gate self-test failed: sparse-only regression not detected"
    exit 1
  fi
  echo "perf gate OK (and self-test trips on synthetic regressions)"
else
  echo "== perf regression gate skipped (jq not installed) =="
fi
rm -rf "$smoke_dir"

echo "CI OK"
