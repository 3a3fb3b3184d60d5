"""normbase benchmark: runs one workload for a fixed time and prints its
metrics.  Start it from the root of a normbase checkout:

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 40 --trace 0

Each round runs perfbench/round.py in a fresh interpreter, one at a time and
single-threaded, so normbase's caches start cold as in a user's run.  Rounds
repeat until the next one would not end within --seconds (at least
MIN_ROUNDS of them).  Every timing reported is the median over the rounds,
in reference seconds (see round.py).
With --trace 1 the rounds run with spans around normbase's layers and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every failed
operation and every metric with its unit.  The rounds' details are written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = {0: 3, 1: 1}
ROUND_TIMEOUT_S = 150
# numpy's BLAS stays on one thread; hashing is fixed so work counts repeat.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_round(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "round.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"round exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    def med(key):
        return statistics.median(key(r) for r in rounds)

    return {
        "setup_s": med(lambda r: r["setup_s"]),
        "wall_s": med(lambda r: r["wall_s"]),
        "op_p50_ms": med(lambda r: statistics.median(r["op_s"]) * 1e3),
        "op_p90_ms": med(lambda r: percentile(r["op_s"], 90) * 1e3),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "normbase", "__init__.py")):
        print("error: no normbase sources in ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    rounds, durations = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rounds.append(run_round(args.workload, args.seed, args.trace))
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS[args.trace] and elapsed + statistics.median(durations) > seconds:
            break

    expected = set(rounds[0]["expected_failures"])
    failures = Counter((name, detail) for r in rounds for name, detail in r["failures"])
    mismatches = [m for r in rounds for m in r["mismatches"]]
    unexpected = sorted({name for name, _ in failures if name not in expected})
    attempted = sum(len(r["op_s"]) for r in rounds)
    failed = sum(failures.values())

    if args.trace:
        metrics, unsteady = tracing.merge(rounds)
        mismatches += [f"work count {name} differs between rounds" for name in unsteady]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(rounds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    correct = not mismatches and not unexpected

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds "
          f"in {time.monotonic() - start:.1f} s, {attempted} operations attempted, {failed} failed")
    for (name, detail), count in sorted(failures.items()):
        tag = "expected" if name in expected else "UNEXPECTED"
        print(f"  failed ({tag}, {count}x): {name}: {detail}")
    for m in mismatches[:20]:
        print(f"  WRONG: {m}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    raw = {key: statistics.median(r[key] for r in rounds) for key in ("raw_setup_s", "raw_wall_s", "speed")}
    print(f"  unscaled: setup {raw['raw_setup_s']:.4g} s, wall {raw['raw_wall_s']:.4g} s; "
          f"probe time / reference {raw['speed']:.3f}")

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    detail = {
        "args": vars(args),
        "metrics": metrics,
        "unscaled": raw,
        "op_names": rounds[0]["op_names"],
        "op_ms_median": [
            statistics.median(r["op_s"][i] for r in rounds) * 1e3
            for i in range(len(rounds[0]["op_s"]))
        ],
        "rounds": [{k: v for k, v in r.items() if k not in ("op_names", "op_s")} for r in rounds],
    }
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
