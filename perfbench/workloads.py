"""The benchmark's workloads: inputs made from a seed, the operations that
call normbase, and the checks of every answer against refmath.

A workload is a list of operations, each a name and a zero-argument call
into normbase's public functions, plus a list of checks.  A check names the
operations whose results it reads and raises Mismatch when an answer is
wrong; it is skipped when one of those operations failed (raised, or a CLI
call exited nonzero), because a failure is counted on its own.  All inputs
are built before the first operation runs, so building them is set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random

import refmath as rm


class Mismatch(Exception):
    """An answer from normbase disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclasses.dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclasses.dataclass
class Workload:
    ops: list = dataclasses.field(default_factory=list)       # (name, call)
    checks: list = dataclasses.field(default_factory=list)    # (names, fn)
    expected_failures: frozenset = frozenset()

    def op(self, name, call, check=None):
        """Add an operation, and a check that reads only its result."""
        self.ops.append((name, call))
        if check is not None:
            self.checks.append(((name,), check))


def cli_call(nb, argv):
    """One in-process CLI invocation with its output captured."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nb.cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    return call


def reference_field(F):
    """The refmath twin of a normbase prime field or extension of F_p,
    sharing its modulus."""
    if F.degree == 1:
        return rm.PrimeField(F.char)
    return rm.ExtensionField(rm.PrimeField(F.char), F.modulus)


def random_element(R, rng):
    """A uniformly random element of a refmath field, drawn from rng."""
    if isinstance(R, rm.PrimeField):
        return rng.randrange(R.p)
    return tuple(random_element(R.base, rng) for _ in range(R.k))


def check_base_modulus(R, q):
    """The set-up check that normbase's modulus for F_q is irreducible."""
    if isinstance(R, rm.PrimeField):
        return
    expect(rm.is_irreducible(R.base, R.modulus), f"modulus of F_{q} is reducible")


# ---------------------------------------------------------------------------
# oracle-sweep: the machine check of the main theorem, one grid point at a
# time, and the operator-root count of x^n - 1 at the same point.
# ---------------------------------------------------------------------------

SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
SWEEP_ORDER_CAP = 4096
# Fields of 256 to 512 elements on the per-element path that take 2-3 s a
# cell; each alone would be a third of a round (see README).
SWEEP_LEFT_OUT = frozenset({(2, 9), (4, 4), (8, 3)})
SWEEP_LARGE = ((2, 13), (3, 8), (7, 5), (11, 4))
# count v --oracle exits 1 here: the batched count overflows its int16
# elimination once p > 181.
DTYPE_FAULT_QS = (241, 251, 257)

CSV_HEADER = (
    "q,n,m,e,lhs,rhs,equality,predicate,v,nb_count,irr_nonzero_trace,"
    "oracle_v,oracle_npoly,oracle_irr"
)


def sweep_points():
    small = [
        (q, n)
        for q in SWEEP_QS
        for n in range(1, 17)
        if q**n <= SWEEP_ORDER_CAP and (q, n) not in SWEEP_LEFT_OUT
    ]
    return small + list(SWEEP_LARGE)


def expected_csv_row(q, n):
    p, _ = rm.prime_power(q)
    m, e = rm.p_free_part(n, p)
    v = rm.normal_element_count(n, q)
    irr = rm.irreducible_count_with_trace(n, q, True)
    equality = rm.equality_holds(n, q)
    expect(v <= n * irr and (v == n * irr) == equality,
           f"reference classification disagrees with its counts at q={q}, n={n}")
    cells = (q, n, m, e, v, n * irr, equality, equality, v, v // n, irr, v, v // n, irr)
    return ",".join(
        ("true" if c else "false") if isinstance(c, bool) else str(c) for c in cells
    )


def oracle_sweep(nb, rng):
    """The grid is the input, so the seed changes nothing here: a shuffled
    order moved which cells paid numpy's first-call costs, and with it the
    median operation and the peak RSS."""
    wl = Workload(expected_failures=frozenset(f"count v q={q} n=2" for q in DTYPE_FAULT_QS))
    groups = [("point", q, n) for q, n in sweep_points()]
    groups += [("count", q, 2) for q in DTYPE_FAULT_QS]
    for kind, q, n in groups:
        v = rm.normal_element_count(n, q)
        if kind == "count":
            argv = ["count", "v", "--q", str(q), "--n", str(n), "--oracle"]
            wl.op(f"count v q={q} n={n}", cli_call(nb, argv), _check_count(q, n, v))
            continue
        argv = ["verify", "--q", str(q), "--n", str(n), "--oracle"]
        wl.op(f"verify q={q} n={n}", cli_call(nb, argv), _check_verify(q, n))
        wl.op(f"roots q={q} n={n}", _roots_call(nb, q, n), _check_roots(q, n, v))
    return wl


def _check_count(q, n, v):
    def check(res):
        expect(res.out == f"{v}\n", f"count v q={q} n={n}: {res.out!r} != {v}")

    return check


def _check_verify(q, n):
    want = expected_csv_row(q, n)

    def check(res):
        lines = res.out.splitlines()
        expect(lines == [CSV_HEADER, want], f"verify q={q} n={n}: {lines!r} != {want!r}")

    return check


def _roots_call(nb, q, n):
    """Factor x^n - 1 over F_q, then count by enumeration of F_{q^n} the
    roots of that operator that no single-part-omitted cofactor kills."""

    def call():
        fx = nb.polyring.factor_xn_minus_1(n, nb.gf.field_of_order(q))
        sym = nb.linearized.SymbolicFactorization.from_factorization(fx.flatten())
        return nb.linearized.root_count_by_enumeration(sym, nb.oracle.extension_for(q, n))

    return call


def _check_roots(q, n, v):
    def check(res):
        expect(res == v, f"roots q={q} n={n}: {res} != {v}")

    return check


# ---------------------------------------------------------------------------
# tower-factor: field construction, x^n - 1 and random polynomials, all on
# the pure-Python polynomial kernel.
# ---------------------------------------------------------------------------

TOWER_DEGREES = {
    2: (*range(2, 25), 32, 48, 64, 93, 120),
    3: tuple(range(2, 21)),
    5: tuple(range(2, 17)),
    7: tuple(range(2, 17)),
    4: tuple(range(2, 10)),
    9: tuple(range(2, 8)),
    16: tuple(range(2, 8)),
}
TOWER_XN1 = ((2, 255), (2, 511), (3, 242), (4, 63), (5, 124), (7, 57), (9, 40), (16, 15))
# (q, degree, how many) seeded random monic polynomials to factor.  Their
# cost depends on the seed, so the degrees put them (about 13-40 ms each)
# between the median and the 90th-percentile operation, which are then
# deterministic operations whatever the seed.
TOWER_RANDOM = ((2, 64, 10), (3, 52, 6), (5, 44, 6), (7, 40, 4), (4, 14, 4), (9, 10, 2), (16, 8, 2))


def tower_factor(nb, rng):
    wl = Workload()
    fields = {}
    for q in TOWER_DEGREES:
        F = nb.gf.field_of_order(q)
        R = reference_field(F)
        fields[q] = F, R
        wl.checks.append(((), lambda R=R, q=q: check_base_modulus(R, q)))
    for q, degrees in TOWER_DEGREES.items():
        F, R = fields[q]
        for d in degrees:
            wl.op(f"extension q={q} d={d}", lambda F=F, d=d: nb.gf.extension(F, d),
                  _check_extension(R, q, d))
    for q, n in TOWER_XN1:
        F, R = fields[q]
        wl.op(
            f"factor_xn_minus_1 q={q} n={n}",
            lambda F=F, n=n: nb.polyring.factor_xn_minus_1(n, F),
            _check_xn1(R, q, n),
        )
    for q, d, count in TOWER_RANDOM:
        F, R = fields[q]
        for i in range(count):
            coeffs = tuple(random_element(R, rng) for _ in range(d)) + (R.one,)
            f = nb.polyring.Poly(F, coeffs)
            wl.op(f"factor q={q} d={d} #{i}", lambda f=f: nb.polyring.factor(f),
                  _check_factor(R, q, coeffs))
    return wl


def _check_extension(R, q, d):
    def check(E):
        f = tuple(E.modulus)
        expect(len(f) == d + 1 and f[-1] == R.one, f"extension q={q} d={d}: modulus not monic of degree {d}")
        expect(rm.is_irreducible(R, f), f"extension q={q} d={d}: modulus {f!r} is reducible")

    return check


def _check_monic_irreducible(R, c, degree, what):
    expect(len(c) == degree + 1 and c[-1] == R.one, f"{what}: {c!r} is not monic of degree {degree}")
    expect(rm.is_irreducible(R, c), f"{what}: {c!r} is reducible")


def _check_xn1(R, q, n):
    def check(fx):
        what = f"factor_xn_minus_1 q={q} n={n}"
        m, e = rm.p_free_part(n, R.char)
        expect((fx.m, fx.e, fx.multiplicity) == (m, e, R.char**e), f"{what}: wrong split of n")
        expect([blk.d for blk in fx.blocks] == rm.divisors(m), f"{what}: wrong blocks")
        factors = []
        for blk in fx.blocks:
            tau = rm.mult_order(q, blk.d)
            expect(blk.order == tau and len(blk.factors) == rm.euler_phi(blk.d) // tau,
                   f"{what}: block d={blk.d} does not hold phi(d)/ord_d(q) factors")
            for h in blk.factors:
                _check_monic_irreducible(R, h.coeffs, tau, what)
                factors.append(h.coeffs)
        rebuilt = rm.poly_prod(R, factors * R.char**e)
        x_n_minus_1 = (R.sub(R.zero, R.one),) + (R.zero,) * (n - 1) + (R.one,)
        expect(rebuilt == x_n_minus_1, f"{what}: factors do not rebuild x^n - 1")

    return check


def _check_factor(R, q, coeffs):
    def check(fact):
        what = f"factor q={q} of {coeffs!r}"
        bases = [base.coeffs for base, _ in fact.parts]
        expect(len(set(bases)) == len(bases), f"{what}: repeated factor")
        for c in bases:
            _check_monic_irreducible(R, c, len(c) - 1, what)
        rebuilt = rm.poly_prod(R, [base.coeffs for base, mult in fact.parts for _ in range(mult)])
        expect(rebuilt == coeffs, f"{what}: factors do not rebuild the input")

    return check


# ---------------------------------------------------------------------------
# pointwise: one element or one candidate at a time, on fixed fields.
# ---------------------------------------------------------------------------

# (q, n, how many random elements) over prime bases.  The 24 elements of
# F_{5^12} cost alike and hold the median operation, which would otherwise
# sit in the gap between the cheap and the dear operations.
POINT_PRIME = ((2, 8, 10), (2, 16, 10), (2, 24, 4), (2, 32, 3), (3, 8, 10), (3, 16, 6), (5, 12, 24), (7, 8, 10))
# Over extension bases each random element a is tested together with a^q.
POINT_EXT = ((4, 8, 6), (9, 6, 6), (16, 4, 8))
# Every element of F_{4^2} is tested; the tally must be the Ore/Hensel count.
POINT_TALLY = (4, 2)
# (q, n): two irreducible and three reducible random monic candidates each.
POINT_NPOLY = ((2, 8), (2, 16), (2, 24), (3, 8), (3, 12), (5, 8), (7, 6), (4, 6), (9, 4), (16, 3))
NPOLY_IRREDUCIBLE, NPOLY_REDUCIBLE = 2, 3


def pointwise(nb, rng):
    wl = Workload()
    bases = {}

    def base(q):
        if q not in bases:
            F = nb.gf.field_of_order(q)
            bases[q] = F, reference_field(F)
            wl.checks.append(((), lambda R=bases[q][1], q=q: check_base_modulus(R, q)))
        return bases[q]

    def extension(q, n):
        F, R = base(q)
        E = nb.gf.extension(F, n)
        return E, rm.ExtensionField(R, E.modulus)

    for q, n, count in POINT_PRIME:
        E, RE = extension(q, n)
        for i in range(count):
            a = random_element(RE, rng)
            name = f"is_normal q={q} n={n} #{i}"
            wl.op(name, _is_normal_call(nb, a, E), _check_normal(RE, a, name))
    for q, n, count in POINT_EXT:
        E, RE = extension(q, n)
        for i in range(count):
            a = random_element(RE, rng)
            aq = RE.pow(a, q)
            names = (f"is_normal q={q} n={n} #{i}", f"is_normal q={q} n={n} #{i} ^q")
            wl.op(names[0], _is_normal_call(nb, a, E), _check_normal(RE, a, names[0]))
            wl.op(names[1], _is_normal_call(nb, aq, E), _check_normal(RE, aq, names[1]))
            wl.checks.append((names, _check_conjugate_pair(RE, a, names[0])))
    q, n = POINT_TALLY
    E, RE = extension(q, n)
    tally = [f"is_normal q={q} n={n} all #{i}" for i in range(RE.order)]
    for name, a in zip(tally, RE.elements()):
        wl.op(name, _is_normal_call(nb, a, E))
    wl.checks.append((tuple(tally), _check_tally(q, n)))
    for q, n in POINT_NPOLY:
        F, R = base(q)
        for i, coeffs in enumerate(_stratified_candidates(R, n, rng)):
            f = nb.polyring.Poly(F, coeffs)
            name = f"is_n_polynomial q={q} n={n} #{i}"
            wl.op(name, lambda f=f: nb.oracle.is_n_polynomial(f), _check_npoly(R, coeffs, name))
    return wl


def _stratified_candidates(R, n, rng):
    """Random monic candidates, NPOLY_IRREDUCIBLE irreducible ones first
    and then NPOLY_REDUCIBLE reducible ones, so that every seed asks for the
    same mix of cheap rejections and full normality tests."""
    want = {True: NPOLY_IRREDUCIBLE, False: NPOLY_REDUCIBLE}
    found = {True: [], False: []}
    while any(len(found[k]) < want[k] for k in want):
        coeffs = tuple(random_element(R, rng) for _ in range(n)) + (R.one,)
        irr = rm.is_irreducible(R, coeffs)
        if len(found[irr]) < want[irr]:
            found[irr].append(coeffs)
    return found[True] + found[False]


def _is_normal_call(nb, a, E):
    return lambda: nb.oracle.is_normal(a, E)


def _check_normal(RE, a, name):
    def check(res):
        expect(res == rm.is_normal(a, RE), f"{name}: is_normal({a!r}) = {res}")

    return check


def _check_conjugate_pair(RE, a, name):
    def check(res_a, res_aq):
        expect(res_a == res_aq, f"{name}: is_normal(a) = {res_a} but is_normal(a^q) = {res_aq}")
        if res_a:
            expect(RE.trace(a) != RE.base.zero, f"{name}: normal element {a!r} has zero trace")

    return check


def _check_tally(q, n):
    v = rm.normal_element_count(n, q)

    def check(*results):
        got = sum(1 for r in results if r)
        expect(got == v, f"F_{q}^{n} holds {got} normal elements by is_normal, Ore/Hensel says {v}")

    return check


def _check_npoly(R, coeffs, name):
    def check(res):
        expect(res == rm.is_n_polynomial(R, coeffs), f"{name}: is_n_polynomial({coeffs!r}) = {res}")

    return check


WORKLOADS = {
    "oracle-sweep": oracle_sweep,
    "tower-factor": tower_factor,
    "pointwise": pointwise,
}


def build(name: str, nb, seed: int) -> Workload:
    wl = WORKLOADS[name](nb, random.Random(f"{name}/{seed}"))
    names = [op_name for op_name, _ in wl.ops]
    if len(set(names)) != len(names):
        raise ValueError(f"{name}: operation names repeat")
    return wl
