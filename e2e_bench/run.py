#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 e2e_bench/run.py --workload {batch,store,stream,repro_all} \
        --seed N --seconds S --trace {0,1} [--threads T]

Run from the repository root. Builds the benchmark package and the
`repro` binary into $CARGO_TARGET_DIR (default `.bench_build`), runs one
workload, and prints its result object as the
last line of stdout. Build output and progress go to stderr.

    python3 e2e_bench/run.py --check [--threads T] [--workload W] [--seed N]

compares every exact counter (unit `count` or `bytes`) of a traced run
against `e2e_bench/baseline.json`, by default for every workload on both
recorded seeds, and exits 1 on any difference. `--record` rewrites the
baseline from fresh runs instead.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
WORKLOADS = ["batch", "store", "stream", "repro_all"]
EXACT_UNITS = {"count", "bytes"}
# Seconds per run in check mode: counters do not depend on run length.
CHECK_SECONDS = 1


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    # Cargo reports progress on stderr; keep stdout for the result line.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def build():
    """Builds the benchmark and the `repro` binary. Every run builds both,
    so the first run in a checkout pays for the whole build and later runs
    of any workload find it done."""
    return cargo_build(HERE / "Cargo.toml") and cargo_build(
        ROOT / "Cargo.toml", "-p", "stir-repro", "--bin", "repro")


def run_workload(workload, seed, seconds, trace, threads):
    """Runs one workload; returns (exit code, stdout lines)."""
    release = target_dir() / "release"
    cmd = [
        str(release / "e2e-bench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--threads", str(threads),
        "--out-dir", str(ROOT / ".bench_out"),
    ]
    if workload == "repro_all":
        cmd += ["--repro-bin", str(release / "repro")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def counters(workload, seed, threads):
    code, lines = run_workload(workload, seed, CHECK_SECONDS, 1, threads)
    if code != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: benchmark exited {code}")
    metrics = json.loads(lines[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in EXACT_UNITS}


def check(args):
    baseline = json.loads(BASELINE.read_text())
    seeds = [args.seed] if args.seed is not None else [
        baseline["default_seed"], baseline["held_out_seed"]]
    workloads = [args.workload] if args.workload else WORKLOADS
    if not build():
        return 1
    bad = 0
    for w in workloads:
        for seed in seeds:
            got = counters(w, seed, args.threads)
            if args.record:
                baseline["counters"].setdefault(w, {})[str(seed)] = got
                log(f"{w} seed {seed}: recorded {len(got)} counters")
                continue
            want = baseline["counters"].get(w, {}).get(str(seed))
            if want is None:
                log(f"{w} seed {seed}: no baseline recorded")
                bad += 1
                continue
            diffs = {k: (want.get(k), got.get(k)) for k in sorted(set(want) | set(got))
                     if want.get(k) != got.get(k)}
            for k, (w_val, g_val) in diffs.items():
                log(f"{w} seed {seed}: {k} baseline {w_val}, now {g_val}")
            bad += bool(diffs)
            log(f"{w} seed {seed} threads {args.threads}: "
                f"{'MISMATCH' if diffs else 'ok'} ({len(got)} counters)")
    if args.record:
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--check", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()
    if args.check or args.record:
        return check(args)
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    if not build():
        log("build failed")
        return 1
    code, lines = run_workload(args.workload, args.seed, args.seconds, args.trace, args.threads)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
