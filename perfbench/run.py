#!/usr/bin/env python3
"""Build and run the serving-stack benchmark.

One run of one workload (the last line of stdout is the JSON result):

    python3 perfbench/run.py --workload wire_write --seed 1 --seconds 20 --trace 0

Spread mode runs every workload (or the one named) K times with seeds
SEED..SEED+K-1 and prints each metric's median, quartiles and spread
(interquartile distance over the median), next to the bound from
BENCHMARK.json, marking "ok" a spread below a third of its bound:

    python3 perfbench/run.py --spread 10 [--workload local_read] [--seed 1]

Run it from the repository root. The benchmark is built from source with
cargo (release profile) into $CARGO_TARGET_DIR, or `.bench_build` when that
is unset; run-time files go to `.bench_work`.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git revision, or a digest of the sources when not in git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    """Build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("the repository's crates are not here; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"cargo build failed with exit code {done.returncode}")
    return os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                        "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, rev, echo):
    """Run one workload; return (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, PERFBENCH_REV=rev))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def spread(binary, args, rev):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values = {}
        for i in range(args.spread):
            seed = args.seed + i
            code, lines = run_once(binary, workload, seed, args.seconds, args.trace, rev, False)
            if code != 0 or not lines:
                fail(f"{workload} seed {seed} exited with {code}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                fail(f"{workload} seed {seed} failed its checks: {lines[-1]}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.spread} runs, seeds {args.seed}..{args.seed + args.spread - 1}, "
              f"{args.seconds} s, trace {args.trace}")
        print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "ok" if rel < bound / 3 else "WIDE"
            print(f"{name:<30} {med:>12.3f} {q1:>12.3f} {q3:>12.3f} {rel:>8.3f} "
                  f"{'' if bound is None else bound:>6} {mark}")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "values": vals}
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        out = os.path.join(ROOT, ".bench_work", f"spread-{workload}-trace{args.trace}.json")
        with open(out, "w") as f:
            json.dump(summary, f, indent=1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spread", type=int, default=0,
                   help="run each workload this many times and print medians and quartiles")
    args = p.parse_args()
    binary = build()
    rev = source_rev()
    if args.spread:
        if args.spread < 2:
            fail("--spread needs at least 2 runs")
        spread(binary, args, rev)
        return
    if not args.workload:
        fail("--workload is required")
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, rev, True)
    sys.exit(code)


if __name__ == "__main__":
    main()
