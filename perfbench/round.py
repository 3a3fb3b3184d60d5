"""One round of a workload, in a fresh interpreter.

Imports normbase from ./src of the checkout it is started in, builds the
workload's inputs, runs every operation once (timing each), checks every
answer, and prints one JSON object on its last line of standard output.
run.py starts one round at a time; see README.md.

    python3 perfbench/round.py --workload pointwise --seed 1 --trace 0

Machine speed drifts by tens of percent within minutes on shared hosts, in
CPU time as well as wall time.  So a fixed pure-Python probe runs before
set-up, after it, and after any operation that ends PROBE_EVERY_S or more
after the last probe.  Every time is reported in reference seconds: the raw
time times (PROBE_REF_S / median probe time of the round) ** PROBE_EXPONENT.
The raw times are reported beside them.  The probe's time moves more than
normbase's operations when the host's speed changes (a log-log fit of round
time on probe time gave slopes of 0.4 to 0.8), and the exponent 0.75 gave
the smallest run-to-run spread of the exponents 0, 0.5, 0.75 and 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

import refmath as rm
import tracing
import workloads

PROBE_EVERY_S = 0.1
# The probe's time on the reference machine (2-CPU x86-64 host, CPython 3.11).
PROBE_REF_S = 0.005
PROBE_EXPONENT = 0.75
_PF = rm.PrimeField(7)
_PA = tuple((5 * i + 1) % 7 for i in range(48))
_PB = tuple((3 * i + 2) % 7 for i in range(48))
_PM = tuple((i * i + 3) % 7 for i in range(40)) + (1,)


def probe() -> float:
    """Time of a fixed polynomial multiply-and-reduce loop over F_7: the
    yardstick for the machine's current speed."""
    t = time.perf_counter()
    for _ in range(12):
        rm.poly_divmod(_PF, rm.poly_mul(_PF, _PA, _PB), _PM)
    return time.perf_counter() - t


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    probe()
    probes = [probe()]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    nb = importlib.import_module("normbase")
    importlib.import_module("normbase.cli")
    if not os.path.abspath(nb.__file__).startswith(src + os.sep):
        print(f"normbase was imported from {nb.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer(nb) if args.trace else None
    wl = workloads.build(args.workload, nb, args.seed)
    setup_raw = time.perf_counter() - t0
    probes.append(probe())

    results, op_raw = {}, []
    last_probe_at = time.perf_counter()
    for name, call in wl.ops:
        t = time.perf_counter()
        try:
            res = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            res = exc
        op_raw.append(time.perf_counter() - t)
        results[name] = res
        if time.perf_counter() - last_probe_at >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe_at = time.perf_counter()
    probes.append(probe())
    scale = (PROBE_REF_S / statistics.median(probes)) ** PROBE_EXPONENT
    op_s = [t * scale for t in op_raw]

    failures = {}
    for name, res in results.items():
        if isinstance(res, Exception):
            failures[name] = f"{type(res).__name__}: {res}"
        elif isinstance(res, workloads.CliResult) and res.code != 0:
            failures[name] = f"exit {res.code}: {res.err.strip()}"
    mismatches = []
    for names, check in wl.checks:
        if any(n in failures for n in names):
            continue
        try:
            check(*(results[n] for n in names))
        except workloads.Mismatch as exc:
            mismatches.append(str(exc))
        except Exception as exc:  # a malformed answer is a wrong answer
            mismatches.append(f"{names[:1]}: {type(exc).__name__}: {exc}")

    out = {
        "setup_s": setup_raw * scale,
        "wall_s": sum(op_s),
        "raw_setup_s": setup_raw,
        "raw_wall_s": sum(op_raw),
        "speed": statistics.median(probes) / PROBE_REF_S,
        "probe_s": probes,
        "raw_op_s": op_raw,
        "op_names": [name for name, _ in wl.ops],
        "op_s": op_s,
        "failures": sorted(failures.items()),
        "expected_failures": sorted(wl.expected_failures),
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = {
            name: value * scale if name.endswith(".self_s")
            else value / scale if name.endswith("_per_s") else value
            for name, value in tracer.summary().items()
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
