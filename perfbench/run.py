#!/usr/bin/env python3
"""The clanbft benchmark: one command, four workloads, split by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-n50 --seed 42 --seconds 20 --trace 0

It builds perfbench/bench.exe with dune, then starts one bench.exe process
per measured operation, strictly one at a time, so every heap peak belongs
to its own operation. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines above it are a
human-readable account of the same run. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["dense-n50", "multiclan-n50-overload", "recover-n16", "check-n7"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
DEADLINE_S = 170.0  # every run ends well inside the 180 s limit
SETUP_BATCH_S = 0.3  # set-up builds before each operation and after the last
MIN_OPS = 2  # repeats of the measured operation, for the determinism gate

# Simulated numbers are a pure function of the seed: every repeat, traced
# or not, must reproduce them exactly.
SIM_KEYS = ["tput_ktps", "lat_p50_ms", "lat_p99_ms", "lat_samples"]

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_heap_mb": "MB",
    "tput_ktps": "kTPS",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
}

# Per-layer metric -> unit. Filled from the traced operation, except the
# gc.* deltas and the two host ratios, which come from the untraced one.
LAYER_UNITS = {
    "engine.events": "count",
    "engine.dispatch.self_ms": "ms",
    "engine.ring_scan.self_ms": "ms",
    "engine.migrate.self_ms": "ms",
    "net.fanout.calls": "count",
    "net.fanout.self_ms": "ms",
    "net.send.self_ms": "ms",
    "net.bytes_per_txn": "B/txn",
    "net.egress_mb_per_node_s": "MB/node/s",
    "net.uplink_busy_frac": "frac",
    "net.uplink_backlog_p99_us": "us",
    "net.uplink_backlog.samples": "count",
    "sailfish.echo.calls": "count",
    "sailfish.echo.self_ms": "ms",
    "sailfish.echo.ns_per_call": "ns",
    "sailfish.commit.self_ms": "ms",
    "sailfish.propose.self_ms": "ms",
    "consensus.rounds": "count",
    "consensus.proposed": "count",
    "consensus.leader_commit_frac": "frac",
    "consensus.commit_frac": "frac",
    "sailfish.pull_retries": "count",
    "seg.dissemination.p50_ms": "ms",
    "seg.dissemination.p99_ms": "ms",
    "seg.quorum_wait.p50_ms": "ms",
    "seg.quorum_wait.p99_ms": "ms",
    "seg.order_wait.p50_ms": "ms",
    "seg.order_wait.p99_ms": "ms",
    "seg.samples": "count",
    "consensus.round_advance_p50_ms": "ms",
    "consensus.round_advance.samples": "count",
    "keychain.verify.calls": "count",
    "keychain.verify.self_ms": "ms",
    "keychain.sign.self_ms": "ms",
    "sha256.self_ms": "ms",
    "dag.parents.self_ms": "ms",
    "dag.insert.self_ms": "ms",
    "dag.prune.self_ms": "ms",
    "codec.encode.calls": "count",
    "codec.encode.self_ms": "ms",
    "codec.decode.self_ms": "ms",
    "wal.append.calls": "count",
    "wal.append.self_ms": "ms",
    "wal.replay.self_ms": "ms",
    "wal.live_mb": "MB",
    "recovery.rounds_fetched": "count",
    "recovery.catchup_ms": "ms",
    "stalls.count": "count",
    "stalls.total_ms": "ms",
    "check.transitions": "count",
    "check.build_ms": "ms",
    "check.transitions_per_s": "1/s",
    "gc.minor_words": "words",
    "gc.promoted_words": "words",
    "gc.promoted_frac": "frac",
    "gc.major_collections": "count",
    "obs.trace_overhead": "ratio",
    "trace.events": "count",
    "prof.unattributed_frac": "frac",
    "lat.samples": "count",
}


def log(msg):
    print(msg, flush=True)


class Run:
    """Counts operations and failures; a failure is never dropped."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def fail(self, why, ops=1):
        self.failed += ops
        log(f"FAILED: {why}")

    def child(self, *args):
        """One bench.exe process; returns its JSON object, or None."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            self.attempted += 1
            self.fail(f"no time left for bench.exe {' '.join(args)}")
            return None
        try:
            out = subprocess.run(
                [EXE, *args],
                stdout=subprocess.PIPE,
                timeout=remaining,
                check=False,
                text=True,
            )
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self.fail(f"bench.exe {' '.join(args)} timed out")
            return None
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            self.attempted += 1
            self.fail(f"bench.exe {' '.join(args)} exited {out.returncode}")
            return None
        return json.loads(lines[-1])

    def operation(self, mode, workload, seed):
        """A measured operation, gated; returns its output or None."""
        res = self.child(mode, workload, str(seed))
        if res is None:
            return None
        self.attempted += res["attempted"]
        if res["failed"]:
            self.fail(f"{mode}: " + "; ".join(res["reasons"]), res["failed"])
        return res

    def same_result(self, what, first, other):
        """Determinism gate: same fingerprint and simulated numbers."""
        for key in ["fingerprint", *SIM_KEYS]:
            if first[key] != other[key]:
                self.fail(f"{what}: {key} {other[key]} != {first[key]}")
                return


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        check=False,
    )
    return proc.returncode == 0 and os.path.isfile(EXE)


def describe_sim(res):
    return (
        f"fingerprint {res['fingerprint']}; tput {res['tput_ktps']:.4g} kTPS; "
        f"latency p50 {res['lat_p50_ms']:.4g} ms, p99 {res['lat_p99_ms']:.4g} ms "
        f"over {res['lat_samples']} in-window blocks"
    )


def end_to_end(run, workload, seed, seconds):
    """Set-up batches interleaved with repeats of the operation, so that
    both medians sample the whole run rather than one moment of it."""
    setups, ops = [], []
    start = time.monotonic()
    while True:
        batch = run.child("setup", workload, str(seed), str(SETUP_BATCH_S))
        if batch is None:
            break
        setups += batch["setup_s"]
        elapsed = time.monotonic() - start
        last = ops[-1]["wall_s"] if ops else 0.0
        if len(ops) >= MIN_OPS and elapsed + last > seconds:
            break
        res = run.operation("run", workload, seed)
        if res is None:
            break
        if ops:
            run.same_result(f"repeat {len(ops)}", ops[0], res)
        ops.append(res)
        log(
            f"op {len(ops)}: wall {res['wall_s']:.4f} s, peak heap "
            f"{res['peak_heap_mb']:.2f} MB; {describe_sim(res)}"
        )
    if not ops or not setups:
        return None
    log(f"setup: {len(setups)} builds, median {statistics.median(setups):.6f} s")
    first = ops[0]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "peak_heap_mb": statistics.median(op["peak_heap_mb"] for op in ops),
        "tput_ktps": first["tput_ktps"],
        "lat_p50_ms": first["lat_p50_ms"],
        "lat_p99_ms": first["lat_p99_ms"],
    }


def per_layer(run, workload, seed):
    plain = run.operation("run", workload, seed)
    traced = run.operation("traced", workload, seed)
    if plain is None or traced is None:
        return None
    log(f"untraced: wall {plain['wall_s']:.4f} s; {describe_sim(plain)}")
    log(
        f"traced:   wall {traced['traced_wall_s']:.4f} s, peak heap "
        f"{traced['traced_peak_heap_mb']:.2f} MB, {traced['prof.attributed_s']:.4f} s "
        f"inside Prof sections; {describe_sim(traced)}"
    )
    run.same_result("traced vs untraced", plain, traced)
    for check in traced["self_checks"]:
        run.fail(f"layer accounting: {check}")
    values = {k: traced[k] for k in LAYER_UNITS if k in traced}
    for k in ["gc.minor_words", "gc.promoted_words", "gc.promoted_frac",
              "gc.major_collections"]:
        values[k] = plain[k]
    values["obs.trace_overhead"] = traced["traced_wall_s"] / plain["wall_s"]
    values["lat.samples"] = plain["lat_samples"]
    walk_s = plain["walk_wall_s"]
    values["check.transitions_per_s"] = (
        traced["check.transitions"] / walk_s if walk_s > 0 else 0.0
    )
    missing = sorted(set(LAYER_UNITS) - set(values))
    if missing:
        run.fail(f"per-layer metrics missing: {missing}")
        return None
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # The build may take long on a fresh checkout; the run's own time
    # budget starts after it.
    deadline = max(deadline, time.monotonic() + DEADLINE_S - 10)
    run = Run(deadline)
    log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        values = per_layer(run, args.workload, args.seed)
        units = LAYER_UNITS
    else:
        values = end_to_end(run, args.workload, args.seed, args.seconds)
        units = E2E_UNITS
    if values is None:
        print("perfbench: no result", file=sys.stderr)
        return 1
    attempted = max(run.attempted, 1)
    for name in units:
        log(f"{name} = {values[name]:.6g} {units[name]}")
    log(f"failed_frac = {run.failed / attempted:.6g} ({run.failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": attempted,
                "failed": run.failed,
                "metrics": {
                    n: {"value": values[n], "unit": units[n]} for n in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
