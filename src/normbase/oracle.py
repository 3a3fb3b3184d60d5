"""Brute-force ground truth for the closed-form counts.

Everything here counts by looking at actual elements and actual polynomials.
The per-element normality test runs two independent criteria and insists
they agree: the definitional one (the conjugates' coordinate matrix has full
rank over F_q) and the gcd one (x^n - 1 is coprime to the polynomial g whose
coefficients are the conjugates, folded mod x^m - 1 for n = p^e m, p not
dividing m, so that at n = p^e it asks whether the trace is nonzero).  The
gcd runs over F_q on g's F_q-coordinate polynomials, as the Frobenius on
coefficients fixes gcd(x^m - 1, g), which therefore lies in F_q[x].

The whole-field counts come from the roots, up to the element budget
(2^20 by default).  A monic irreducible of degree n over F_q is a
Frobenius orbit of n elements of F_{q^n}, it is an N-polynomial when the
orbit is normal, and its x^(n-1) coefficient is -Tr of a root.  So one
pass over the orbits of <F_q*> x <Frobenius> (_linalg.field_orbits), with
normality as the annihilator criterion (no cofactor (x^n - 1)/f of an
irreducible factor f kills the element) on one representative per orbit,
the same linearized operators as linearized.root_count_by_enumeration,
gives the normal elements, the N-polynomials and, through an index map
of the trace, the irreducibles of each trace coefficient (root_census);
count_normal_elements takes the normal elements alone and builds no
trace map.  No elimination runs there: the rank criterion stays with
is_normal, and the tests hold every whole-field count to a rank-based
reference.

The irreducibles themselves come from one lister, scan_irreducibles: a
lazy walk over the monic candidates of one degree in lexicographic order,
by Ben-Or's test (gf.pirreducible), under the polynomial budget (2^16
candidates by default).  The witness search reads the root census first:
a witness exists exactly when the census counts fewer N-polynomials than
irreducibles of nonzero trace, and only then does the walk run, testing
each nonzero-trace irreducible with is_n_polynomial.  The test suite holds
the root census to a batched coefficient-side scan of its own wherever
both reach, and the whole-field counts to is_normal over every element.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import _linalg, counting, gf, linearized, polyring
from .errors import VerificationError
from .polyring import Poly


def conjugate_matrix(a, ext) -> list:
    """The conjugates a^(q^i), i < n: a's prime coordinates through the Frobenius matrix."""
    return gf._elements(ext, _conjugate_coords(a, ext).tolist())


def _conjugate_coords(a, ext) -> np.ndarray:
    """The (n, prime_dim) prime coordinate rows of a's conjugates."""
    ext.validate(a)
    mat = _linalg.frobenius_matrix(ext).T.astype(_linalg.exact_dtype(ext.char, ext.prime_dim))
    rows = [np.array(ext.prime_coords(a), dtype=mat.dtype)]
    for _ in range(ext.degree - 1):
        # not _linalg.matmul_mod: its float64 casts made this 1.5-3x slower at n <= 16
        rows.append(rows[-1] @ mat % ext.char)
    return np.array(rows)


def rank_over_field(rows, field) -> int:
    """Rank of a list of rows over an arbitrary field, by gf.rank's
    elimination (over F_p, also for an extension base): the per-element
    rank criterion, and the reference _linalg.batched_rank_full is tested
    against."""
    return gf.rank(rows, field)


def is_normal(a, ext) -> bool:
    """Whether the conjugates of a form a basis of ext over its base field.

    Runs both the rank criterion and the gcd criterion and raises if they
    ever disagree, so a bug in either cannot pass silently.  The gcd
    criterion folds g = sum a^(q^i) x^i mod x^m - 1, n = p^e m with p not
    dividing m: x^n - 1 = (x^m - 1)^(p^e) has the same roots, and at
    n = p^e it is the paper's trace test, Tr(a) != 0.  The gcd is taken
    over F_q with g's F_q-coordinate polynomials g_t, as x sigma(g) = g
    mod x^m - 1 for the q-Frobenius sigma on coefficients, so that sigma
    fixes d = gcd(x^m - 1, g), d is in F_q[x], and d | g iff d | every g_t."""
    coords = _conjugate_coords(a, ext)
    rows = gf._elements(ext, coords.tolist())
    by_rank = rank_over_field(rows, ext.base) == ext.degree
    n, p = ext.degree, ext.char
    m = counting.split_n(n, p).m
    if m < n:  # g mod (x^m - 1): the rows summed over i = j mod m
        rows = gf._elements(ext, (coords.reshape(n // m, m, -1).sum(axis=0) % p).tolist())
    F = ext.base  # coordinate t of the rows is g_t
    coord_polys = (gf.ptrim(F, g_t) for g_t in zip(*rows))
    by_gcd = gf.pcoprime(F, polyring.x_pow_minus_one(m, F).coeffs, coord_polys)
    if by_rank != by_gcd:
        raise VerificationError(f"rank and gcd normality criteria disagree at {a!r} in {ext!r}")
    return by_rank


def is_n_polynomial(f: Poly) -> bool:
    """Monic irreducible whose roots form a basis; normality is tested on
    the canonical root x mod f, which suffices because the conjugates of a
    normal element are all normal."""
    if f.degree is polyring.NEG_INF or f.degree < 1:
        raise ValueError("need degree >= 1")
    if not f.is_monic():
        raise ValueError("N-polynomial candidates must be monic")
    ext = gf.irreducible_extension(f.field, f.coeffs)
    return ext is not None and is_normal(ext.gen, ext)


def degree_of(a, ext) -> int:
    """Least t >= 1 with a^(q^t) = a; always a divisor of ext's degree."""
    ext.validate(a)
    cur = a
    for t in range(1, ext.degree + 1):
        cur = ext.frobenius(cur)
        if cur == a:
            return t
    raise VerificationError(f"{a!r} not fixed by n-fold Frobenius")


# ---------------------------------------------------------------------------
# Whole-field counts: the normal elements and the root census.
# ---------------------------------------------------------------------------


# Cached: oracle-sweep's verify and roots ops share F_{q^n}; without it wall_s rose 12-15%.
@functools.lru_cache(maxsize=128)
def extension_for(q: int, n: int):
    """F_{q^n} over F_q with the deterministic default moduli."""
    return gf.extension(gf.field_of_order(q), n)


def count_normal_elements(ext, budget=None) -> int:
    """Exhaustive count of normal elements: the cofactor operators of
    x^n - 1 applied to one representative per orbit of <F_q*> x
    <Frobenius>, as in _orbit_census."""
    gf.check_element_budget(ext.order, budget)
    return _orbit_census(ext, traces=False).v


@dataclasses.dataclass
class RootCensus:
    """Counts over F_{q^n} taken from the roots of the polynomials they
    count.  A monic irreducible of degree n over F_q is a Frobenius orbit
    of n elements of degree n, an N-polynomial is such an orbit of normal
    elements, and its x^(n-1) coefficient is -Tr(a) for each root a."""

    v: int                        # normal elements
    npoly: int                    # N-polynomials: normal orbits, so v / n
    trace_counts: np.ndarray | None  # degree-n irreducibles per encoded x^(n-1) coefficient


def root_census(n: int, q: int, budget=None) -> RootCensus:
    """The root census of F_{q^n}, whose q^n elements are held to the
    element budget."""
    gf.check_element_budget(q**n, budget)
    return _orbit_census(extension_for(q, n), traces=True)


def _orbit_census(ext, traces: bool) -> RootCensus:
    """One pass over the <F_q*> x <Frobenius> orbits of ext: the normal
    and degree-n verdicts of each representative, gathered to every
    element through its representative.  Without traces, trace_counts is
    None and no trace map is built.

    An element is normal exactly when its Frobenius annihilator is
    x^n - 1, that is, when no cofactor (x^n - 1)/f, f an irreducible
    factor of x^n - 1, kills it; the cofactors are linearized operators,
    applied to the representatives as root_count_by_enumeration applies
    them (linearized.nonzero_images).  At n = p^e m the cofactor removes
    one copy of f, not all p^e of them.

    Two facts are checked on the way, as they hold for every normal
    element: its Frobenius orbit has exactly n elements (a normal element
    has degree n), and its trace, the sum of its conjugates, is nonzero
    (the element-side form of the containment of N-polynomials among the
    irreducibles of nonzero trace).  The -Tr matrix that checks the trace
    also gives the trace map."""
    p, n, q, F = ext.char, ext.degree, ext.base.order, ext.base
    rep, conj = _linalg.field_orbits(ext)
    full = polyring.x_pow_minus_one(n, F)
    cofactors = [full // f for f, _ in polyring.factor_xn_minus_1(n, F).flatten().parts]
    normal = np.logical_and.reduce(linearized.nonzero_images(cofactors, ext, conj[:, 0]))
    neg_trace = linearized.operator_matrix(linearized.QPoly(Poly(F, (F.neg(F.one),) * n)), ext)
    where = f"normal-element enumeration at q={q}, n={n}"
    fixed = conj[normal, 1:] == conj[normal, :1]
    if fixed[:, :-1].any() or not fixed[:, -1].all():
        raise VerificationError(
            f"{where}: a normal element's Frobenius orbit does not have {n} elements"
        )
    coords = _linalg.index_coords(conj[normal, 0], p, ext.prime_dim)
    if not _linalg.apply_map(coords, neg_trace, p).any(axis=1).all():
        raise VerificationError(f"{where}: a normal element has zero trace")
    degree_n = np.ones(len(conj), dtype=bool)
    for r in counting.factorize(n):
        degree_n &= conj[:, n // r] != conj[:, 0]
    # 2: normal (so of degree n), 1: of degree n, not normal, 0: lower degree
    verdict = np.zeros(ext.order, dtype=np.uint8)
    verdict[conj[:, 0]] = normal.astype(np.uint8) + degree_n
    verdict = verdict[rep]
    v = int(np.count_nonzero(verdict == 2))
    trace_counts = _trace_counts(ext, neg_trace, verdict != 0) if traces else None
    return RootCensus(v=v, npoly=v // n, trace_counts=trace_counts)


def _trace_counts(ext, neg_trace: np.ndarray, degree_n: np.ndarray) -> np.ndarray:
    """Per encoded value c of F_q, the number of Frobenius orbits of
    degree-n elements (degree_n, a mask over every element) whose -Tr is
    c: the degree-n irreducibles with x^(n-1) coefficient c.

    neg_trace is the F_p matrix of -Tr, the linearized operator with
    associate -(1 + x + .. + x^(n-1)), and its index map comes from the
    same digit doubling as Frobenius.  Its image is F_q, the elements
    whose F_q coordinates after the constant one are zero, so an image
    index is the encoded value of F_q times q^(n-1)."""
    n, q = ext.degree, ext.base.order
    image = _linalg.index_map(neg_trace, ext.char)
    value, low = np.divmod(image, q ** (n - 1))
    where = f"trace map at q={q}, n={n}"
    if low.any():
        raise VerificationError(f"{where}: a trace lies outside F_{q}")
    counts = np.bincount(value[degree_n], minlength=q)
    if (counts % n).any():
        raise VerificationError(f"{where}: a trace is not constant on a Frobenius orbit")
    return counts // n


# ---------------------------------------------------------------------------
# The irreducibles themselves: the lexicographic walk and the witness.
# ---------------------------------------------------------------------------


def scan_irreducibles(n: int, q: int, budget=None):
    """Every monic irreducible of degree n over F_q, as a Poly, in
    lexicographic order: a lazy walk over the q^n monic candidates by
    Ben-Or's test.  The degree and the polynomial-scan budget (held to
    q^n) are checked at the call, before any candidate is tested.  As in
    gf.first_irreducible, the first q^(n-1) candidates of degree n > 1,
    whose constant term is zero, are divisible by x and skipped."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    gf.check_poly_budget(q, n, budget)
    F = gf.field_of_order(q)
    candidates = gf.monic_candidates(F, n, start=q ** (n - 1) if n > 1 else 0)
    return (Poly(F, f) for f in candidates if gf.pirreducible(F, f))


def find_witness(n: int, q: int, budget=None) -> Poly | None:
    """The lexicographically smallest monic irreducible with nonzero trace
    that is not an N-polynomial, or None when no such polynomial exists.

    The N-polynomials are among the irreducibles of nonzero trace, so a
    witness exists exactly when the root census counts fewer of them; only
    then does the walk test candidates, each by is_n_polynomial.  q^n is
    held to the polynomial-scan budget, and the census to the same cap."""
    walk = scan_irreducibles(n, q, budget)
    cap = gf.resolve_budget(budget, gf.POLY_BUDGET_DEFAULT)
    census = root_census(n, q, cap)
    if census.npoly == int(census.trace_counts[1:].sum()):
        return None
    zero = gf.field_of_order(q).zero
    for f in walk:
        if f.coeffs[n - 1] != zero and not is_n_polynomial(f):
            return f
    raise VerificationError(
        f"witness walk at q={q}, n={n}: every nonzero-trace irreducible is an "
        f"N-polynomial, but the root census counts only {census.npoly} N-polynomials"
    )


def full_report(
    q: int, n: int, with_oracle: bool = False, element_budget=None
) -> counting.CountReport:
    """Closed-form report, optionally enriched and cross-checked with the
    enumeration counts.  All three oracle cells come from one root census
    of F_{q^n} (v, the N-polynomials and the nonzero-trace irreducibles),
    so the element budget fills all of them or none, and they stay None
    beyond it; any mismatch between a closed form and its oracle raises."""
    report = counting.build_report(q, n)
    cap = gf.resolve_budget(element_budget, gf.ELEMENT_BUDGET_DEFAULT)
    if not with_oracle or q**n > cap:
        return report
    census = root_census(n, q, cap)
    report.oracle_v = census.v
    report.oracle_npoly = census.npoly
    report.oracle_irr = int(census.trace_counts[1:].sum())
    for name, got, want in (
        ("normal-element enumeration", report.oracle_v, report.v),
        ("N-polynomial enumeration", report.oracle_npoly, report.nb_count),
        ("nonzero-trace enumeration", report.oracle_irr, report.irr_nonzero_trace),
    ):
        if got != want:
            raise VerificationError(
                f"{name} {got} != closed form {want} at q={q}, n={n}"
            )
    return report
