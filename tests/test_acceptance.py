"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Everything asserts exact integer equality; there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
"""

import multiprocessing
import random
from fractions import Fraction
from math import gcd as int_gcd
from pathlib import Path

import numpy as np

from normbase import cli, counting, gf, linearized, oracle, polyring
from normbase.linearized import (
    QPoly,
    SymbolicFactorization,
    evaluate,
    generalized_phi,
    operator_matrix,
    phi_by_residue_enumeration,
    refine,
    root_count,
    root_count_by_enumeration,
)
from normbase.polyring import Factorization, Poly, factor_xn_minus_1, x_pow_minus_one

from conftest import criterion, index_coords

ELEMENT_BUDGET = 2**20
POLY_BUDGET = 2**16
SWEEP_Q = counting.prime_powers_up_to(16)
# `normbase verify --q 2,3,5 --n 1..12 --oracle`, recorded once so that the
# sweep's bytes are pinned across changes to the code, not just across runs.
GOLDEN_VERIFY_Q235 = Path(__file__).parent / "data" / "verify_q235_n1-12.csv"


def pairs_within(qs, cap):
    out = []
    for q in qs:
        n = 1
        while q**n <= cap:
            out.append((q, n))
            n += 1
    return out


# --------------------------------------------------------------------------
# 1. Main theorem sweep: q <= 16, n <= 24, pure integers, zero tolerance.
# --------------------------------------------------------------------------


def test_criterion_1_main_theorem_sweep():
    with criterion("1 main-theorem sweep (q <= 16, n <= 24)"):
        for q in SWEEP_Q:
            for n in range(1, 25):
                lhs, rhs = counting.inequality_sides(n, q)
                predicate = counting.equality_predicate(n, q)
                assert lhs <= rhs, (q, n)
                assert (lhs == rhs) == predicate, (q, n)
                counting.build_report(q, n)  # re-checks and must not raise


# --------------------------------------------------------------------------
# 2. Spot values, computed by two independent in-repo paths.
# --------------------------------------------------------------------------


def _hand_sides(n, q):
    """Second path: Fraction arithmetic, brute-force orders and totients."""
    p = min(f for f in range(2, q + 1) if q % f == 0)
    m = n
    while m % p == 0:
        m //= p
    lhs = Fraction(q) ** (n - m)
    for d in range(1, m + 1):
        if m % d:
            continue
        tau = next(t for t in range(1, d + 1) if pow(q, t, d) == 1 % d)
        phi = sum(1 for a in range(1, d + 1) if int_gcd(a, d) == 1)
        lhs *= Fraction(q**tau - 1) ** (phi // tau)
    rhs = sum(
        counting.moebius(d) * Fraction(q) ** (n // d)
        for d in range(1, m + 1)
        if m % d == 0
    ) * Fraction(q - 1, q)
    assert lhs.denominator == rhs.denominator == 1
    return int(lhs), int(rhs)


def test_criterion_2_spot_values():
    table = [
        (2, 3, (3, 3), True),
        (2, 4, (8, 8), True),
        (2, 7, (49, 63), False),
        (3, 4, (32, 48), False),
        (2, 6, (24, 30), False),
        (4, 3, (27, 45), False),
    ]
    with criterion("2 spot values on both computation paths"):
        for q, n, expected, equal in table:
            assert counting.inequality_sides(n, q) == expected, (q, n)
            assert _hand_sides(n, q) == expected, (q, n)
            assert (expected[0] == expected[1]) is equal


# --------------------------------------------------------------------------
# 3. Normal-element oracle equivalence up to q^n <= 2^20.
# --------------------------------------------------------------------------


def _count_point(job):
    q, n = job
    ext = gf.extension(gf.field_of_order(q), n)
    return q, n, oracle.count_normal_elements(ext, budget=ELEMENT_BUDGET)


def test_criterion_3_normal_count_oracle_equivalence():
    grid = pairs_within((2, 3, 4, 5, 7, 8, 9), ELEMENT_BUDGET)
    with criterion(f"3 normal-element enumeration == closed form ({len(grid)} fields, q^n <= 2^20)"):
        workers = min(2, multiprocessing.cpu_count())
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_count_point, grid)
        for q, n, got in results:
            assert got == counting.normal_element_count(n, q), (q, n, got)


# --------------------------------------------------------------------------
# 4. N-polynomial and nonzero-trace counts up to q^n <= 2^16.
# --------------------------------------------------------------------------


def test_criterion_4_npoly_counts(poly_scans):
    grid = pairs_within(SWEEP_Q, POLY_BUDGET)
    with criterion(f"4 N-polynomial counts == lhs/n and rhs/n ({len(grid)} degrees, q^n <= 2^16)"):
        for q, n in grid:
            # containment is checked inside the census, on every normal element
            census = oracle.root_census(n, q, budget=POLY_BUDGET)
            lhs, rhs = counting.inequality_sides(n, q)
            assert census.npoly * n == lhs, (q, n)
            assert int(census.trace_counts[1:].sum()) * n == rhs, (q, n)
            # per-trace-value counts: equal for every nonzero value and
            # tiling the total irreducible count
            scan = poly_scans[q, n]
            assert int(scan.trace_counts.sum()) == counting.total_irr_count(n, q)
            per_value = scan.trace_counts[1:]
            assert (per_value == counting.irr_count_trace(n, q)).all(), (q, n)
        census = oracle.root_census(7, 2)
        assert (census.npoly, int(census.trace_counts[1:].sum())) == (7, 9)


# --------------------------------------------------------------------------
# 5. On predicate-true points the two polynomial sets are equal.
# --------------------------------------------------------------------------


def test_criterion_5_set_equality_on_equality_points(poly_scans):
    grid = [
        (q, n)
        for q, n in pairs_within(SWEEP_Q, POLY_BUDGET)
        if counting.equality_predicate(n, q)
    ]
    spot = {(2, 2), (2, 3), (2, 4), (2, 5), (2, 8), (3, 2), (3, 3), (3, 9), (5, 2)}
    with criterion(f"5 N-polynomials == nonzero-trace irreducibles on {len(grid)} equality points"):
        assert spot <= set(grid)
        for q, n in grid:
            scan = poly_scans[q, n]
            assert np.array_equal(scan.npoly, scan.trace_nonzero), (q, n)


# --------------------------------------------------------------------------
# 6. Witness search agrees with the classification everywhere.
# --------------------------------------------------------------------------


def test_criterion_6_witness_iff_strict(poly_scans):
    grid = pairs_within(SWEEP_Q, POLY_BUDGET)
    with criterion(f"6 witness exists iff the inequality is strict ({len(grid)} degrees)"):
        for q, n in grid:
            # the census and the walk give the coefficient scan's witness
            witness = oracle.find_witness(n, q)
            assert witness == poly_scans[q, n].witness(), (q, n)
            predicate = counting.equality_predicate(n, q)
            assert (witness is None) == predicate, (q, n)
            if witness is not None:
                field = gf.field_of_order(q)
                assert polyring.is_irreducible(witness)
                assert polyring.poly_trace(witness) != field.zero
                assert not oracle.is_n_polynomial(witness)


# --------------------------------------------------------------------------
# 7. Linearized-operator laws, 1000 randomized trials per q in {2, 3, 4}.
# --------------------------------------------------------------------------


def _random_qpoly(field, max_deg, rng):
    while True:
        coeffs = tuple(field.random(rng) for _ in range(rng.randrange(1, max_deg + 2)))
        l = QPoly(Poly(field, coeffs))
        if not l.associate.is_zero():
            return l


def test_criterion_7_operator_laws():
    setups = [(2, 10), (3, 7), (4, 5)]  # q^n = 1024, 2187, 1024 <= 2^12
    rng = random.Random(73)
    with criterion("7 composition and divisibility laws, 1000 trials per q in {2,3,4}"):
        for q, n in setups:
            field = gf.field_of_order(q)
            ext = gf.extension(field, n)
            p = ext.char
            vecs = index_coords(np.arange(ext.order), p, ext.prime_dim)
            for trial in range(1000):
                l1 = _random_qpoly(field, 4, rng)
                l2 = _random_qpoly(field, 4, rng)
                prod = linearized.symbolic_mul(l1, l2)
                m1 = operator_matrix(l1, ext).astype(np.int64)
                m2 = operator_matrix(l2, ext).astype(np.int64)
                mp = operator_matrix(prod, ext).astype(np.int64)
                # composition at every point of F_{q^n}
                composed = (vecs.astype(np.int64) @ (m1 @ m2 % p).T) % p
                direct = (vecs.astype(np.int64) @ mp.T) % p
                assert np.array_equal(composed, direct), (q, trial)
                # spot-tie the matrices to the definitional evaluation
                if trial % 100 == 0:
                    a = ext.random(rng)
                    assert evaluate(prod, a, ext) == evaluate(l1, evaluate(l2, a, ext), ext)
                # divisibility transfers to associates, both directions
                assert linearized.symbolic_divides(l1, prod)
                l3 = _random_qpoly(field, 6, rng)
                assert linearized.symbolic_divides(l1, l3) == (
                    (l3.associate % l1.associate).is_zero()
                )


# --------------------------------------------------------------------------
# 8. Phi machinery: closed form == residue count == operator-root count,
#    with strict decrease along every refinement.
# --------------------------------------------------------------------------


def _random_divisor_grouping(full: Factorization, rng):
    """A random divisor of the factored polynomial: a sub-product of the
    irreducible parts at random multiplicities, randomly grouped into
    pairwise-coprime coarse parts (one shared multiplicity per group)."""
    max_mult = full.parts[0][1]
    chosen = [base for base, _ in full.parts if rng.random() < 0.7]
    if not chosen:
        chosen = [full.parts[rng.randrange(len(full.parts))][0]]
    k = rng.randrange(1, len(chosen) + 1)
    groups = [[] for _ in range(k)]
    for i, base in enumerate(chosen):
        groups[i % k].append(base)
    parts = []
    for grp in groups:
        prod = Poly.one(full.parts[0][0].field)
        for g in grp:
            prod = prod * g
        parts.append((prod, rng.randint(1, max_mult)))
    fact = Factorization(sorted(parts, key=lambda bm: bm[0].sort_key()))
    return fact, groups


def test_criterion_8_phi_machinery():
    fields = [(2, 8), (2, 10), (2, 12), (2, 6), (3, 6), (3, 4), (4, 4), (5, 4), (7, 3), (9, 2)]
    rng = random.Random(8128)
    tested = 0
    with criterion("8 generalized-phi agreement + strict refinement decrease (50 divisors)"):
        while tested < 50:
            q, n = fields[tested % len(fields)]
            field = gf.field_of_order(q)
            ext = oracle.extension_for(q, n)
            full = factor_xn_minus_1(n, field).flatten()
            fact, groups = _random_divisor_grouping(full, rng)
            l = fact.product()
            phi_closed = generalized_phi(l, fact)
            assert phi_closed == phi_by_residue_enumeration(l, fact), (q, n)
            sym = SymbolicFactorization.from_factorization(fact)
            assert phi_closed == root_count(sym) == root_count_by_enumeration(sym, ext)
            # refine every grouped part back to irreducibles, one split at a
            # time; phi must drop strictly at every step
            current = fact
            phi_now = phi_closed
            while True:
                split_at = None
                for idx, (base, _) in enumerate(current.parts):
                    pieces = [g for g, _ in polyring.factor(base).parts]
                    if len(pieces) > 1:
                        split_at = (idx, pieces)
                        break
                if split_at is None:
                    break
                idx, pieces = split_at
                g = pieces[0]
                h = current.parts[idx][0] // g
                current = refine(current, idx, g, h)
                phi_next = generalized_phi(l, current)
                assert phi_next < phi_now, (q, n)
                phi_now = phi_next
            # fully split phi is minimal among everything seen
            assert phi_now <= phi_closed
            assert phi_now == phi_by_residue_enumeration(l, current)
            tested += 1


# --------------------------------------------------------------------------
# 9. x^n - 1 block profile and the cross-module root count.
# --------------------------------------------------------------------------


def test_criterion_9_block_profile_and_root_count():
    with criterion("9 cyclotomic block profile + root_count == normal-element count"):
        for q in (2, 3, 5):
            field = gf.field_of_order(q)
            for n in range(1, 21):
                if n % field.char == 0:
                    continue
                fx = factor_xn_minus_1(n, field)
                for blk in fx.blocks:
                    tau = counting.mult_order(q, blk.d)
                    assert blk.order == tau
                    assert len(blk.factors) == counting.euler_phi(blk.d) // tau
                    assert all(h.degree == tau for h in blk.factors)
                assert fx.flatten().product() == x_pow_minus_one(n, field)
                sym = SymbolicFactorization.from_factorization(fx.flatten())
                assert root_count(sym) == counting.normal_element_count(n, q)


# --------------------------------------------------------------------------
# 10. Byte-identical sweeps.
# --------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    args = ["verify", "--q", "2,3,5", "--n", "1..12", "--oracle", "--workers", "8", "--seed", "42"]
    with criterion("10 byte-identical verify sweeps"):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == GOLDEN_VERIFY_Q235.read_bytes()
        rows = first.read_text().strip().split("\n")
        assert len(rows) == 1 + 36
