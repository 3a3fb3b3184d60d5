"""Spans around normbase's layers for the traced run.

The tracer replaces each function named in FUNCTIONS, wherever a normbase
module holds a reference to it, by a wrapper that records one span per
call: the function, its start, its end and the span that was open when it
was called.  Spans live in flat arrays in memory.  A function's self time is
its spans' durations minus the time their child spans cover.  Work counts
(COUNTERS) are taken from the arguments and results at the same boundary.
Untraced runs never construct a Tracer, so they run normbase unwrapped.
"""

from __future__ import annotations

import statistics
import time
import types
from array import array

# (metric prefix, module of the normbase package, attribute)
FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("counting.build_report", "counting", "build_report"),
    ("oracle.count_normal_elements", "oracle", "count_normal_elements"),
    ("oracle.is_normal", "oracle", "is_normal"),
    ("oracle.scan_irreducibles", "oracle", "scan_irreducibles"),
    ("linalg.apply_map", "_linalg", "apply_map"),
    ("linalg.batched_rank_full", "_linalg", "batched_rank_full"),
    ("linearized.root_count_by_enumeration", "linearized", "root_count_by_enumeration"),
    ("linearized.operator_matrix", "linearized", "operator_matrix"),
    ("gf.first_irreducible", "gf", "first_irreducible"),
    ("gf.pirreducible", "gf", "pirreducible"),
    ("gf.pmul", "gf", "pmul"),
    ("gf.pdivmod", "gf", "pdivmod"),
    ("gf.ppow_mod", "gf", "ppow_mod"),
    ("gf.pgcd", "gf", "pgcd"),
    ("gf.ExtensionField.mul", "gf", "ExtensionField.mul"),
    ("polyring.factor", "polyring", "factor"),
    ("polyring.factor_xn_minus_1", "polyring", "factor_xn_minus_1"),
    ("polyring.cyclotomic", "polyring", "cyclotomic"),
    ("polyring.gcd", "polyring", "gcd"),
    ("polyring.is_irreducible", "polyring", "is_irreducible"),
    ("oracle.rank_over_field", "oracle", "rank_over_field"),
    ("oracle.is_n_polynomial", "oracle", "is_n_polynomial"),
)

# Work counts: metric prefix -> (count names, fn(args, result) -> increments).
COUNTERS = {
    "oracle.count_normal_elements": (("elements",), lambda args, res: (args[0].order,)),
    "oracle.scan_irreducibles": (
        ("candidates", "irreducibles"),
        lambda args, res: (args[1] ** args[0], res.count),
    ),
    "linalg.apply_map": (("rows",), lambda args, res: (args[0].shape[0],)),
    "linalg.batched_rank_full": (
        ("matrices", "full_rank"),
        lambda args, res: (args[0].shape[0], int(res.sum())),
    ),
    "gf.pirreducible": (("irreducible",), lambda args, res: (int(bool(res)),)),
    "gf.pmul": (("coeff_products",), lambda args, res: (len(args[1]) * len(args[2]),)),
}

# Ratios: metric name -> (numerator, denominator), both metric names.
RATIOS = {
    "oracle.scan_irreducibles.yield": ("oracle.scan_irreducibles.irreducibles", "oracle.scan_irreducibles.candidates"),
    "gf.pirreducible.yield": ("gf.pirreducible.irreducible", "gf.pirreducible.calls"),
}
RATE = ("oracle.count_normal_elements.elements_per_s", "oracle.count_normal_elements")


def _count_names(key: str) -> tuple:
    return COUNTERS[key][0] if key in COUNTERS else ()


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for key, _, _ in FUNCTIONS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
        for count in _count_names(key):
            units[f"{key}.{count}"] = "count"
    units[RATE[0]] = "1/s"
    for name in RATIOS:
        units[name] = "ratio"
    units["trace.wall_s"] = "s"
    return units


class Tracer:
    """Installs the wrappers on construction; summary() reads the spans."""

    def __init__(self, nb):
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = [[0] * len(_count_names(key)) for key, _, _ in FUNCTIONS]
        modules = [nb] + [m for m in vars(nb).values() if isinstance(m, types.ModuleType)]
        for kind, (key, module_name, attr) in enumerate(FUNCTIONS):
            module = getattr(nb, module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, name)
            wrapped = self._wrap(kind, original, COUNTERS[key][1] if key in COUNTERS else None)
            setattr(owner, name, wrapped)
            if owner is module:
                for m in modules:
                    for ref, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, ref, wrapped)

    def _wrap(self, kind, fn, counter):
        kinds, parents, starts, ends, stack = self.kind, self.parent, self.start, self.end, self.stack
        counts = self.counts[kind]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                for i, k in enumerate(counter(args, result)):
                    counts[i] += k
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, float]:
        """calls, self time and work counts per function, from the spans."""
        n = len(self.kind)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        total_s = [0.0] * len(FUNCTIONS)
        for i in range(n):
            k = self.kind[i]
            duration = self.end[i] - self.start[i]
            calls[k] += 1
            self_s[k] += duration - covered[i]
            total_s[k] += duration
        out = {}
        for kind, (key, _, _) in enumerate(FUNCTIONS):
            out[f"{key}.calls"] = calls[kind]
            out[f"{key}.self_s"] = self_s[kind]
            for name, value in zip(_count_names(key), self.counts[kind]):
                out[f"{key}.{name}"] = value
        rate_kind = [key for key, _, _ in FUNCTIONS].index(RATE[1])
        busy = total_s[rate_kind]
        out[RATE[0]] = out[f"{RATE[1]}.elements"] / busy if busy else 0.0
        for name, (num, den) in RATIOS.items():
            out[name] = out[num] / out[den] if out[den] else 0.0
        out["spans"] = n
        return out


def counted(name: str) -> bool:
    """Whether a per-layer metric is a work count, which must repeat exactly."""
    return name.endswith(".calls") or any(
        name == f"{key}.{c}" for key in COUNTERS for c in _count_names(key)
    )


def merge(rounds: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over traced rounds: counts from the first round
    (and the names of any count that differs in a later one), times and
    rates as medians."""
    first = rounds[0]
    units = metric_units()
    out, unsteady = {}, []
    for name in units:
        if name == "trace.wall_s":
            out[name] = statistics.median(r["wall_s"] for r in rounds)
        elif counted(name):
            out[name] = first["trace"][name]
            if any(r["trace"][name] != out[name] for r in rounds):
                unsteady.append(name)
        else:
            out[name] = statistics.median(r["trace"][name] for r in rounds)
    return out, unsteady
