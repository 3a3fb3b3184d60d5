"""Brute-force oracles: normality, N-polynomials, exhaustive counts."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normbase import _linalg, counting, gf, linearized, oracle, polyring
from normbase.errors import BudgetExceeded, VerificationError
from normbase.oracle import (
    conjugate_matrix,
    count_normal_elements,
    degree_of,
    extension_for,
    find_witness,
    full_report,
    is_n_polynomial,
    is_normal,
    rank_over_field,
    root_census,
    scan_irreducibles,
)
from normbase.polyring import Poly, is_irreducible, poly_trace

from conftest import coefficient_scan, linear_map_matrix


def P(field, *coeffs):
    return Poly.of(field, coeffs)


SMALL_EXTENSIONS = [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8),
    (3, 2), (3, 3), (3, 4),
    (4, 2), (4, 3),
    (5, 2),
    (8, 2),
    (9, 2),
]


def test_conjugate_matrix_shape(f2):
    F8 = gf.extension(f2, 3)
    rows = conjugate_matrix(F8.gen, F8)
    assert len(rows) == 3
    assert rows[0] == F8.gen
    assert rows[1] == F8.frobenius(F8.gen)


def test_rank_over_field_against_span_enumeration(rng):
    # Independent oracle: the F_q-span of the rows has size q^rank.
    for field in (gf.prime_field(2), gf.prime_field(3), gf.prime_field(5), gf.base_field(2, 2)):
        for _ in range(15):
            m = rng.randrange(1, 4)
            rows = [tuple(field.random(rng) for _ in range(3)) for _ in range(m)]
            span = set()
            consts = list(field.elements())
            for combo in itertools.product(consts, repeat=m):
                vec = tuple(
                    # sum_i combo[i] * rows[i][j]
                    _dot(field, combo, [r[j] for r in rows])
                    for j in range(3)
                )
                span.add(vec)
            rank = rank_over_field(rows, field)
            assert len(span) == field.order**rank


def _dot(field, xs, ys):
    acc = field.zero
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def test_is_normal_examples(f2):
    F8 = gf.extension(f2, 3, modulus=(1, 0, 1, 1))  # x^3 + x^2 + 1
    assert is_normal(F8.gen, F8)
    assert not is_normal(F8.zero, F8)
    assert not is_normal(F8.one, F8)
    F8b = gf.extension(f2, 3, modulus=(1, 1, 0, 1))  # x^3 + x + 1, trace-0 root
    assert not is_normal(F8b.gen, F8b)


def test_dual_path_agreement_exhaustive():
    # is_normal raises internally if the rank and gcd criteria ever split;
    # walking whole small fields is the agreement test.
    for q, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2), (8, 2), (9, 2)]:
        ext = extension_for(q, n)
        normals = sum(1 for a in ext.elements() if is_normal(a, ext))
        assert normals == counting.normal_element_count(n, q)


def test_folded_gcd_criterion_matches_the_unfolded_one(rng):
    # is_normal's gcd criterion folds g = sum a^(q^i) x^i mod x^m - 1,
    # n = p^e m; the reference is gcd(x^n - 1, g) on the unfolded g.
    def unfolded(a, ext):
        xn1 = polyring.x_pow_minus_one(ext.degree, ext).coeffs
        return gf.pcoprime(ext, xn1, (gf.ptrim(ext, conjugate_matrix(a, ext)),))

    every = [(2, 8), (2, 6), (4, 4), (3, 6), (9, 3), (16, 2)]
    sampled = [(2, 32), (2, 24), (4, 8), (3, 12), (5, 12)]
    for q, n in every + sampled:
        ext = extension_for(q, n)
        elems = ext.elements() if (q, n) in every else [ext.random(rng) for _ in range(12)]
        for a in elems:
            assert is_normal(a, ext) == unfolded(a, ext), (q, n, a)


def test_base_field_gcd_is_the_extension_gcd(rng, monkeypatch):
    # is_normal hands gf.pcoprime x^m - 1 over F_q and the F_q-coordinate
    # polynomials of g mod (x^m - 1), g = sum a^(q^i) x^i; their gcd,
    # embedded into F_{q^n} and made monic, is gcd(x^m - 1, g) over F_{q^n}.
    seen, real_coprime = [], gf.pcoprime

    def recording(F, a, bs):
        polys = (a, *bs)
        seen.append(polys)
        return real_coprime(F, a, polys[1:])

    monkeypatch.setattr(gf, "pcoprime", recording)
    every = [(2, 6), (3, 4), (4, 3), (9, 2), (5, 4), (2, 12)]
    sampled = [(4, 6), (5, 12), (13, 10), (3, 32)]
    positive = 0
    for q, n in every + sampled:
        ext = extension_for(q, n)
        F, m = ext.base, counting.split_n(n, ext.char).m
        xm1 = polyring.x_pow_minus_one(m, ext).coeffs
        elems = ext.elements() if (q, n) in every else [ext.random(rng) for _ in range(12)]
        for a in elems:
            g = gf.pmod(ext, gf.ptrim(ext, conjugate_matrix(a, ext)), xm1)
            g += (ext.zero,) * (m - len(g))
            coord_polys = tuple(gf.ptrim(F, g_t) for g_t in zip(*g))
            seen.clear()
            is_normal(a, ext)
            assert seen == [(polyring.x_pow_minus_one(m, F).coeffs,) + coord_polys], (q, n, a)
            d = functools.reduce(functools.partial(gf.pgcd, F), seen[0])
            want = gf.pgcd(ext, xm1, gf.ptrim(ext, g))
            assert tuple(ext.embed(c) for c in d) == want, (q, n, a)
            positive += len(d) > 1
    assert positive > 0  # subfield elements, among others, have a gcd of positive degree


def test_is_normal_at_a_power_of_p_is_the_trace_test():
    # The paper's first case: at n = p^e, x^n - 1 = (x - 1)^n, so a is
    # normal exactly when Tr(a) != 0.
    for q, n in [(2, 8), (4, 4), (3, 3), (9, 3), (5, 5)]:
        ext = extension_for(q, n)
        for a in ext.elements():
            assert is_normal(a, ext) == (ext.trace(a) != ext.base.zero), (q, n, a)


@pytest.mark.parametrize("criterion", ["rank", "gcd"])
def test_is_normal_raises_when_its_criteria_disagree(criterion, monkeypatch):
    # Each call runs both criteria: with one of them inverted, every
    # element of F_{2^3} and of F_{4^2} makes them disagree.
    real_rank, real_coprime = oracle.rank_over_field, gf.pcoprime

    def flipped_rank(rows, F):  # full rank one short, any other rank full
        return len(rows) - (real_rank(rows, F) == len(rows))

    if criterion == "rank":
        monkeypatch.setattr(oracle, "rank_over_field", flipped_rank)
    else:
        monkeypatch.setattr(gf, "pcoprime", lambda F, a, bs: not real_coprime(F, a, bs))
    for q, n in ((2, 3), (4, 2)):
        ext = extension_for(q, n)
        for a in ext.elements():
            with pytest.raises(VerificationError, match="rank and gcd normality criteria disagree"):
                is_normal(a, ext)


def test_count_normal_elements_examples(f2):
    assert count_normal_elements(gf.extension(f2, 3)) == 3
    assert count_normal_elements(gf.extension(f2, 4)) == 8
    # 257 and 509 need digit rows wider than uint8; 65537 makes the
    # Frobenius index map double one digit over 65536 scalars
    for q in (2, 3, 5, 257, 509, 65537):
        ext = gf.extension(gf.prime_field(q), 1)
        assert count_normal_elements(ext) == q - 1


def test_counts_past_the_int16_ceiling():
    # (p-1)^2 overflows int16 from p = 191 on, and residues overflow uint8
    # at p = 257; a digit sum of two residues overflows uint8 from p = 129
    for q in (131, 241, 251, 257):
        ext = extension_for(q, 2)
        assert count_normal_elements(ext) == counting.normal_element_count(2, q), q
    for q in (241, 251):
        scan = coefficient_scan(2, q)
        assert scan.count == counting.total_irr_count(2, q), q
        report = counting.build_report(q, 2)
        assert int(scan.trace_nonzero.sum()) == report.irr_nonzero_trace, q
        assert int(scan.npoly.sum()) == report.nb_count, q
    assert scan.count == 31375


def test_scan_past_field_order_256():
    # residues of F_257 no longer fit in uint8; the scan takes every dtype
    # from dtype_for
    scan = coefficient_scan(2, 257)
    assert scan.count == counting.total_irr_count(2, 257)
    assert (scan.trace_counts[1:] == counting.irr_count_trace(2, 257)).all()


def test_dtype_for_keeps_small_primes_narrow():
    assert _linalg.dtype_for(2) == np.uint8 and _linalg.dtype_for(251) == np.uint8
    assert _linalg.dtype_for(257) == np.uint16
    assert _linalg.dtype_for(181, 1) == np.int16
    assert _linalg.dtype_for(191, 1) == np.int32
    assert _linalg.dtype_for(2**20 - 3, 20) == np.int64
    with pytest.raises(ValueError):
        _linalg.dtype_for(2**32 + 15, 1)


def test_matmul_mod_takes_each_product_tier_at_its_edge():
    # at p = 2^26 - 5 the sums of 2 products are the last exact doubles,
    # 3 products take uint64, and 4097 pass 2^64; the top residues and
    # random ones against Python ints
    p = 2**26 - 5
    rng = np.random.default_rng(27)
    for terms, dt in ((2, np.float64), (3, np.uint64), (4097, object)):
        assert _linalg.dot_dtype(p, terms) == dt
        a = np.vstack([np.full(terms, p - 1), rng.integers(0, p, (3, terms))]).astype(np.uint32)
        b = np.hstack([np.full((terms, 1), p - 1), rng.integers(0, p, (terms, 2))]).astype(np.uint32)
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
        got = _linalg.matmul_mod(a, b, p)
        assert got.dtype == _linalg.exact_dtype(p) and got.tolist() == want, terms


def test_reduce_mod_is_exact_on_float64():
    # at multiples of p, one below them and p - 1 below them, up to 2^53 - p
    p = 65521
    top = (2**53 - p) // p * p
    xs = [top, top - 1, top - p + 1, p, p - 1, 0]
    got = _linalg.reduce_mod(np.array(xs, dtype=np.float64), p)
    assert got.tolist() == [x % p for x in xs]


def test_count_methods_agree():
    for q, n in SMALL_EXTENSIONS:
        ext = extension_for(q, n)
        pure = sum(1 for a in ext.elements() if is_normal(a, ext))
        assert pure == count_normal_elements(ext) == counting.normal_element_count(n, q), (q, n)


def test_count_normal_budget():
    ext = extension_for(2, 5)
    with pytest.raises(BudgetExceeded):
        count_normal_elements(ext, budget=16)


def test_is_n_polynomial_examples(f2):
    assert is_n_polynomial(P(f2, 1, 0, 1, 1))       # x^3 + x^2 + 1
    assert not is_n_polynomial(P(f2, 1, 1, 0, 1))   # x^3 + x + 1: zero trace
    assert not is_n_polynomial(P(f2, 1, 0, 1))      # (x+1)^2: reducible
    with pytest.raises(ValueError):
        is_n_polynomial(P(gf.prime_field(3), 2, 1, 2))  # not monic
    with pytest.raises(ValueError):
        is_n_polynomial(Poly.one(f2))


def test_degree_of(f2):
    F16 = gf.extension(f2, 4)
    for c in (F16.zero, F16.one):
        assert degree_of(c, F16) == 1
    assert degree_of(F16.gen, F16) == 4
    # the F_4 subfield inside F_16: solutions of a^(q^2) = a beyond F_2
    sub = [
        a
        for a in F16.elements()
        if F16.frobenius(F16.frobenius(a)) == a and F16.frobenius(a) != a
    ]
    assert len(sub) == 2
    assert all(degree_of(a, F16) == 2 for a in sub)
    for a in F16.elements():
        assert F16.degree % degree_of(a, F16) == 0


def test_orbit_structure(f2):
    # normal elements split into Frobenius orbits of size exactly n, and the
    # orbit count equals the independently scanned N-polynomial count
    for q, n in ((2, 4), (3, 3), (4, 2)):
        ext = extension_for(q, n)
        normals = [a for a in ext.elements() if is_normal(a, ext)]
        orbits = set()
        for a in normals:
            orbit = [a]
            while True:
                nxt = ext.frobenius(orbit[-1])
                if nxt == a:
                    break
                orbit.append(nxt)
            assert len(orbit) == n
            orbits.add(frozenset(orbit))
        assert len(normals) == n * len(orbits)
        assert len(orbits) == root_census(n, q).npoly


def test_root_census_examples():
    for q, n, npoly, nonzero in ((2, 7, 7, 9), (2, 3, 1, 1), (2, 4, 2, 2)):
        census = root_census(n, q)
        assert (census.npoly, int(census.trace_counts[1:].sum())) == (npoly, nonzero)


def test_scan_matches_pure_enumeration():
    # the vectorized scan must reproduce the lazy walk and the
    # per-polynomial N-test exactly, including order; the composite degrees
    # 10, 6 and 4 have reducible survivors of the fixed-point screen (at
    # n = 6, a product of two distinct cubics) for Rabin's completion to reject;
    # F_8, F_16 and F_27 have k >= 3 prime coordinates per coefficient
    cases = [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8), (2, 10), (3, 2), (3, 3), (3, 4), (3, 6), (4, 2), (4, 3), (4, 4), (5, 2), (7, 2), (8, 2), (8, 3), (9, 2), (16, 2), (27, 2)]
    for q, n in cases:
        field = gf.field_of_order(q)
        scan = coefficient_scan(n, q)
        slow = list(scan_irreducibles(n, q))
        assert scan.polys() == slow, (q, n)
        assert list(scan.npoly) == [is_n_polynomial(f) for f in slow], (q, n)
        assert list(scan.trace_nonzero) == [
            poly_trace(f) != field.zero for f in slow
        ], (q, n)


def test_scan_trace_counts():
    for q, n in ((3, 3), (4, 2), (5, 3)):
        scan = coefficient_scan(n, q)
        counts = scan.trace_counts
        assert counts.sum() == scan.count == counting.total_irr_count(n, q)
        nonzero = counts[1:]
        assert (nonzero == nonzero[0]).all()  # independence of the trace value
        assert int(nonzero[0]) == counting.irr_count_trace(n, q)
        assert int(counts[0]) == counting.zero_trace_irr_count(n, q)


def test_scan_budget():
    # the lazy walk checks its degree and budget at the call
    with pytest.raises(BudgetExceeded):
        scan_irreducibles(17, 2, budget=2**16)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        scan_irreducibles(0, 2)


def test_find_witness_examples():
    w = find_witness(7, 2)
    assert w is not None
    assert is_irreducible(w) and poly_trace(w) != 0 and not is_n_polynomial(w)
    # lexicographically smallest, by independent filtering
    slow = [
        f
        for f in coefficient_scan(7, 2).polys()
        if poly_trace(f) != 0 and not is_n_polynomial(f)
    ]
    assert len(slow) == 2  # 9 nonzero-trace irreducibles, 7 N-polynomials
    assert w == slow[0]
    assert find_witness(3, 2) is None
    assert find_witness(4, 2) is None


def test_find_witness_walks_only_where_the_census_counts_differ(monkeypatch):
    # a strict cell whose walk finds no witness names the stage and the point
    monkeypatch.setattr(oracle, "is_n_polynomial", lambda f: True)
    with pytest.raises(VerificationError, match="witness walk at q=2, n=6"):
        find_witness(6, 2)

    # at an equality cell the census answers, and no candidate is tested
    def untested(f):
        raise AssertionError(f"is_n_polynomial({f!r}) at an equality cell")

    monkeypatch.setattr(oracle, "is_n_polynomial", untested)
    assert find_witness(8, 2) is None


def test_find_witness_holds_the_census_to_the_callers_budget(f2, monkeypatch):
    # the census of F_{2^7} runs under the 128 passed, not the variable's 64
    monkeypatch.setenv(gf.BUDGET_ENV_VAR, "64")
    assert find_witness(7, 2, budget=128) == P(f2, 1, 0, 0, 0, 1, 1, 1, 1)
    with pytest.raises(BudgetExceeded, match=r"^scanning 2\^7 candidates exceeds the budget 64$"):
        find_witness(7, 2)


def test_full_report_with_oracle():
    r = full_report(2, 7, with_oracle=True)
    assert (r.oracle_v, r.oracle_npoly, r.oracle_irr) == (49, 7, 9)
    plain = full_report(2, 7)
    assert plain.oracle_v is None


def test_full_report_budget_skips():
    # one root census gives all three oracle cells, so the element budget
    # fills all of them or none
    r = full_report(2, 7, with_oracle=True, element_budget=127)
    assert r.oracle_v is None and r.oracle_npoly is None and r.oracle_irr is None
    r2 = full_report(2, 7, with_oracle=True, element_budget=128)
    assert (r2.oracle_v, r2.oracle_npoly, r2.oracle_irr) == (49, 7, 9)
    # past the 2^16 candidates of the coefficient scan, up to 2^20 elements
    r3 = full_report(2, 17, with_oracle=True)
    assert (r3.oracle_v, r3.oracle_npoly, r3.oracle_irr) == (r3.v, r3.nb_count, r3.irr_nonzero_trace)
    assert r3.oracle_npoly == 3825


def test_root_census_matches_the_scan(poly_scans):
    # the coefficient side certifies the root side wherever both reach:
    # every cell with q^n <= 2^16, the scans with q <= 16 shared
    scans = dict(poly_scans)
    for q in counting.prime_powers_up_to(2**8):
        for n in range(2, 17):
            if q > 16 and q**n <= 2**16:
                scans[q, n] = coefficient_scan(n, q)
    assert (len(poly_scans), len(scans)) == (67, 67 + 69)
    for (q, n), scan in scans.items():
        census = root_census(n, q)
        assert census.npoly == int(scan.npoly.sum()), (q, n)
        assert np.array_equal(census.trace_counts, scan.trace_counts), (q, n)


def test_root_census_budget():
    with pytest.raises(BudgetExceeded):
        root_census(8, 2, budget=255)
    assert root_census(8, 2, budget=256).npoly == counting.normal_basis_count(8, 2)


def test_root_census_checks_its_trace_map(monkeypatch):
    # a trace map whose image leaves F_q, or whose values split a
    # Frobenius orbit, names its stage and the point
    ext = extension_for(3, 2)
    one_root = np.zeros(ext.order, dtype=bool)
    one_root[ext.index(ext.gen)] = True
    neg_trace = linearized.operator_matrix(linearized.QPoly(P(ext.base, 2, 2)), ext)
    with pytest.raises(VerificationError, match="trace map at q=3, n=2: a trace is not constant"):
        oracle._trace_counts(ext, neg_trace, one_root)
    # with the identity as Frobenius, -Tr = -2 is the identity on F_9
    monkeypatch.setattr(_linalg, "frobenius_matrix", lambda ext: np.eye(ext.prime_dim, dtype=np.uint8))
    with pytest.raises(VerificationError, match="trace map at q=3, n=2: a trace lies outside F_3"):
        root_census(2, 3)


def test_survivor_elements_satisfy_structural_claims():
    # every surviving root of the fully split field polynomial has nonzero
    # trace and full degree; at least one non-survivor shares both traits
    # exactly when the two counts differ
    from normbase.linearized import SymbolicFactorization, root_survivors

    for q, n in ((2, 3), (2, 4), (2, 6), (3, 2), (3, 4), (5, 2), (4, 2)):
        field = gf.field_of_order(q)
        ext = extension_for(q, n)
        fact = SymbolicFactorization.from_factorization(
            polyring.factor_xn_minus_1(n, field).flatten()
        )
        survivors = root_survivors(fact, ext)
        assert len(survivors) == counting.normal_element_count(n, q)
        for a in survivors:
            assert ext.trace(a) != field.zero
            assert degree_of(a, ext) == n
        outside = [
            a
            for a in ext.elements()
            if a not in set(survivors)
            and ext.trace(a) != field.zero
            and degree_of(a, ext) == n
        ]
        lhs, rhs = counting.inequality_sides(n, q)
        assert (len(outside) > 0) == (lhs < rhs)


def test_survivor_claims_exhaustive_to_spec_scale(rng):
    # full coverage of q^n <= 2^12: every surviving root of the split field
    # polynomial has nonzero trace and full degree, and an element outside
    # the survivor set shares both traits exactly when the bound is strict.
    # Masks are matrix-evaluated; a random sample per field is re-checked
    # against the definitional trace and Frobenius-order computations.
    from normbase.linearized import QPoly, SymbolicFactorization, operator_matrix

    for q in counting.prime_powers_up_to(16):
        n = 2
        while q**n <= 2**12:
            field = gf.field_of_order(q)
            ext = extension_for(q, n)
            p = ext.char
            fact = SymbolicFactorization.from_factorization(
                polyring.factor_xn_minus_1(n, field).flatten()
            )
            from normbase.linearized import _survivor_mask

            survivors = _survivor_mask(fact, ext)
            vecs = _linalg.index_coords(np.arange(ext.order), p, ext.prime_dim)
            trace_op = QPoly(Poly(field, (field.one,) * n))
            trace_nz = _linalg.apply_map(vecs, operator_matrix(trace_op, ext), p).any(axis=1)
            full_degree = np.ones(len(vecs), dtype=bool)
            frob = _linalg.frobenius_matrix(ext).astype(np.int64)
            for r in counting.factorize(n):
                power = np.linalg.matrix_power(frob, n // r) % p
                moved = (vecs.astype(np.int64) @ power.T % p != vecs).any(axis=1)
                full_degree &= moved
            assert not np.any(survivors & ~trace_nz), (q, n)
            assert not np.any(survivors & ~full_degree), (q, n)
            outside_exists = bool(np.any(~survivors & trace_nz & full_degree))
            lhs, rhs = counting.inequality_sides(n, q)
            assert outside_exists == (lhs < rhs), (q, n)
            # definitional spot checks on a few sampled rows
            idx = [rng.randrange(len(vecs)) for _ in range(8)]
            for i in idx:
                a = ext.from_prime_coords(tuple(int(v) for v in vecs[i]))
                assert (ext.trace(a) != field.zero) == bool(trace_nz[i])
                assert (degree_of(a, ext) == n) == bool(full_degree[i])
            n += 1


def test_linalg_kernels_agree_with_pure_rank(rng):
    # Every odd batch member is singular, one row a combination of the
    # others, so the singular path is hit at large p too.  p = 65521
    # eliminates in int64, 33 columns are past the packed GF(2) kernel, and
    # p = 1048573 is the largest prime the element budget admits.
    cases = [(p, 5, 64) for p in (2, 3, 5, 7, 181, 191, 251, 257, 65521, 1048573)] + [(2, 33, 16)]
    for p, m, batch in cases:
        field = gf.prime_field(p)
        mats = []
        for i in range(batch):
            rows = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
            if i % 2:
                r = rng.randrange(m)
                mix = [rng.randrange(p) if s != r else 0 for s in range(m)]
                rows[r] = [sum(c * row[j] for c, row in zip(mix, rows)) % p for j in range(m)]
            mats.append(rows)
        mats = np.array(mats, dtype=_linalg.dtype_for(p))
        got = _linalg.batched_rank_full(mats, p)
        assert not got[1::2].any(), p
        for i in range(batch):
            rows = [tuple(int(x) for x in mats[i, r]) for r in range(m)]
            assert got[i] == (rank_over_field(rows, field) == m), (p, m, i)


def test_index_coords_matches_field_index_order():
    for q, n in ((2, 3), (3, 2), (4, 2)):
        ext = extension_for(q, n)
        vecs = _linalg.index_coords(np.arange(ext.order), ext.char, ext.prime_dim)
        for i in (0, 1, ext.order // 2, ext.order - 1):
            assert tuple(int(v) for v in vecs[i]) == ext.prime_coords(ext.from_index(i))


@st.composite
def small_extensions(draw, order=512):
    # the degree first, so that n = 1 does not crowd out the rest
    n = draw(st.integers(1, order.bit_length() - 1))
    qs = [q for q in range(2, order + 1) if counting.is_prime_power(q) and q**n <= order]
    return draw(st.sampled_from(qs)), n


@settings(max_examples=12, deadline=None)
@given(small_extensions())
def test_batched_oracles_match_pure_paths(qn):
    q, n = qn
    ext = extension_for(q, n)
    assert count_normal_elements(ext) == sum(1 for a in ext.elements() if is_normal(a, ext))
    scan = coefficient_scan(n, q)
    slow = list(scan_irreducibles(n, q))
    assert scan.polys() == slow
    assert list(scan.npoly) == [is_n_polynomial(f) for f in slow]


def test_index_map_matches_the_matrix_product():
    for p, dim in ((2, 6), (3, 4), (5, 3), (131, 2), (257, 2)):
        rng = np.random.default_rng(p)
        while True:
            mat = rng.integers(0, p, (dim, dim))
            if _linalg.batched_rank_full(mat[None], p)[0]:
                break
        vecs = _linalg.index_coords(np.arange(p**dim), p, dim)
        image = vecs.astype(np.int64) @ mat.T % p
        want = image @ p ** np.arange(dim - 1, -1, -1)
        got = _linalg.index_map(mat, p)
        assert np.array_equal(got, want), (p, dim)
        assert np.array_equal(np.sort(got), np.arange(p**dim))


def test_index_map_of_a_singular_map():
    # the digit doubling needs only linearity: the trace of F_{2^4},
    # F_{3^3} and F_{4^2}, whose image is F_q, at every element
    for q, n in ((2, 4), (3, 3), (4, 2)):
        ext = extension_for(q, n)
        p, dim = ext.char, ext.prime_dim
        frob = _linalg.frobenius_matrix(ext).astype(np.int64)
        trace = sum(np.linalg.matrix_power(frob, t) for t in range(n)) % p
        field = ext.base
        trace_op = linearized.QPoly(Poly(field, (field.one,) * n))
        assert np.array_equal(linearized.operator_matrix(trace_op, ext), trace), (q, n)
        assert not _linalg.batched_rank_full(trace[None], p)[0]
        image = _linalg.apply_map(_linalg.index_coords(np.arange(p**dim), p, dim), trace, p)
        want = image.astype(np.int64) @ p ** np.arange(dim - 1, -1, -1)
        assert np.array_equal(_linalg.index_map(trace, p), want), (q, n)
        assert not (want % q ** (n - 1)).any(), (q, n)


def test_frobenius_matrix_is_built_once_per_field():
    # the orbit pass, the trace map and every operator matrix of the root
    # census and the operator-root count, and the conjugates of the
    # per-element normality test, share one Frobenius matrix
    q, n = 4, 3
    ext = extension_for(q, n)
    fact = linearized.SymbolicFactorization.from_factorization(
        polyring.factor_xn_minus_1(n, ext.base).flatten()
    )
    _linalg.frobenius_matrix.cache_clear()
    census = root_census(n, q)
    assert linearized.root_count_by_enumeration(fact, ext) == census.v
    hits = _linalg.frobenius_matrix.cache_info().hits
    assert sum(is_normal(a, ext) for a in ext.elements()) == census.v
    info = _linalg.frobenius_matrix.cache_info()
    assert (info.misses, info.hits - hits) == (1, ext.order)


def _frobenius_fields():
    F2, F3, F4, F9 = (gf.field_of_order(q) for q in (2, 3, 4, 9))
    return [
        gf.extension(F2, 7), gf.extension(F3, 7), gf.extension(gf.prime_field(7), 3),
        gf.extension(F4, 3), gf.extension(F9, 2), gf.extension(gf.field_of_order(16), 4),
        gf.extension(gf.extension(F4, 2), 3),  # a depth-3 tower
        gf.extension(F3, 4),  # a byte Barrett context over odd p
        gf.extension(F2, 1), gf.extension(F9, 1), gf.extension(F4, 1),  # degree-1 _Barrett contexts
        gf.extension(gf.prime_field(11), 3),  # a context where numpy reduces F_p's slots
        gf.base_field(65521, 2),
        gf.ExtensionField(gf.prime_field(2**61 - 1), (1, 0, 1)),  # no 8-byte slot
        gf.extension(gf.base_field(2**61 - 1, 2), 2),  # a base with no 8-byte slot
    ]


def test_frobenius_matrix_and_conjugates_match_frobenius():
    # the chain-built matrix against the matrix of ext.frobenius, pow(a, q),
    # and conjugate_matrix against iterated ext.frobenius
    rng = np.random.default_rng(15)
    fields, residues = _frobenius_fields(), []
    for ext in fields:
        mat = _linalg.frobenius_matrix(ext)
        want = linear_map_matrix(ext.frobenius, ext)
        assert mat.dtype == want.dtype and np.array_equal(mat, want), ext
        if not isinstance(gf._barrett(ext.base, ext.modulus), gf._Barrett):
            residues.append(ext)
        for _ in range(4):
            a = ext.from_prime_coords(tuple(int(c) for c in rng.integers(0, ext.char, ext.prime_dim)))
            rows = [a]
            for _ in range(ext.degree - 1):
                rows.append(ext.frobenius(rows[-1]))
            assert conjugate_matrix(a, ext) == rows, (ext, a)
    # _Residues runs exactly where no 8-byte slot holds the products
    assert residues == fields[-2:]
    # past 64 bits the matrix holds Python ints
    ext = gf.ExtensionField(gf.prime_field(2**64 + 13), (3, 0, 1))
    assert _linalg.frobenius_matrix(ext).dtype == object
    assert conjugate_matrix((5, 7), ext) == [(5, 7), ext.frobenius((5, 7))]


def test_frobenius_matrix_rejects_writes():
    mat = _linalg.frobenius_matrix(extension_for(3, 2))
    with pytest.raises(ValueError):
        mat[0, 0] = 1
    assert np.array_equal(mat, _linalg.frobenius_matrix(extension_for(3, 2)))


@settings(max_examples=10, deadline=None)
@given(small_extensions(order=256), st.data())
def test_orbit_engine_matches_per_element_paths(qn, data):
    q, n = qn
    ext = extension_for(q, n)
    F = ext.base
    rep, conj = _linalg.field_orbits(ext)
    # the representatives, ascending, with their conjugates 0..n
    assert np.array_equal(conj[:, 0], np.flatnonzero(rep == np.arange(ext.order)))
    for row in conj[:: max(1, len(conj) // 8)]:
        a = ext.from_index(int(row[0]))
        for t in range(n + 1):
            assert ext.index(a) == row[t]
            a = ext.frobenius(a)
    # each element's representative lies in its <F_q*> x <Frobenius> orbit
    # and is shared by the whole orbit
    scalars = [ext.embed(F.from_index(i)) for i in range(1, q)]
    for i in data.draw(st.lists(st.integers(0, ext.order - 1), min_size=1, max_size=12)):
        a, orbit = ext.from_index(i), set()
        for _ in range(n):
            orbit.update(ext.index(ext.mul(c, a)) for c in scalars)
            a = ext.frobenius(a)
        assert rep[i] in orbit, (q, n, i)
        assert {int(rep[j]) for j in orbit} == {int(rep[i])}, (q, n, i)
    assert count_normal_elements(ext) == sum(1 for a in ext.elements() if is_normal(a, ext))
    # operator roots, for the whole of x^n - 1 or a part of its factors
    parts = polyring.factor_xn_minus_1(n, F).flatten().parts
    keep = data.draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
    chosen = [part for part, k in zip(parts, keep) if k] or parts
    fact = linearized.SymbolicFactorization.from_factorization(polyring.Factorization(chosen))
    full = linearized.QPoly(fact.associate())
    cofactors = [linearized.QPoly(full.associate // part.associate) for part, _ in fact.parts]

    def is_zero(op, a):
        return linearized.evaluate(op, a, ext) == ext.zero

    slow = [
        a
        for a in ext.elements()
        if is_zero(full, a) and not any(is_zero(op, a) for op in cofactors)
    ]
    assert linearized.root_survivors(fact, ext) == slow


def test_full_report_checks_normal_orbits(monkeypatch):
    # every normal element has n conjugates and a nonzero trace; a
    # normality test that passed other elements, or a Frobenius whose n-th
    # power is not the identity, trips those checks.  Each stand-in answers
    # for every cofactor of x^n - 1 at once.
    def everything(associates, ext, idx):
        return [np.ones(len(idx), dtype=bool)] * len(associates)

    def full_degree(associates, ext, idx):
        # n distinct conjugates under the Frobenius in use
        sigma = _linalg.index_map(_linalg.frobenius_matrix(ext), ext.char)
        conj = [idx]
        for _ in range(ext.degree - 1):
            conj.append(sigma[conj[-1]])
        distinct = np.array([len(set(row)) == len(row) for row in np.stack(conj, axis=1).tolist()])
        return [distinct] * len(associates)

    def times_x(ext):
        # x has order 5 or 15 in F_16*, so no x^t with 0 < t <= 4 is 1
        return linear_map_matrix(lambda a: ext.mul(a, ext.gen), ext)

    frobenius = _linalg.frobenius_matrix
    cases = (
        (everything, frobenius, "Frobenius orbit does not have 4"),
        (full_degree, frobenius, "zero trace"),
        (full_degree, times_x, "Frobenius orbit does not have 4"),
    )
    for normal, frob, fact in cases:
        monkeypatch.setattr(linearized, "nonzero_images", normal)
        monkeypatch.setattr(_linalg, "frobenius_matrix", frob)
        with pytest.raises(VerificationError) as err:
            full_report(2, 4, with_oracle=True)
        assert "normal-element enumeration at q=2, n=4" in str(err.value)
        assert fact in str(err.value)


def test_root_census_runs_no_elimination(monkeypatch):
    # normality comes from the cofactor operators of x^n - 1, not from a
    # rank test, so the census keeps its closed forms with batched
    # elimination gone, at p | n too
    def refuse(*_):
        raise AssertionError("the root census ran a batched elimination")

    monkeypatch.setattr(_linalg, "batched_rank_full", refuse)
    for q, n in ((2, 6), (2, 8), (3, 4), (4, 3), (9, 2)):
        census = root_census(n, q)
        assert census.v == counting.normal_element_count(n, q), (q, n)
        assert census.npoly == counting.normal_basis_count(n, q), (q, n)
        assert int(census.trace_counts[0]) == counting.zero_trace_irr_count(n, q), (q, n)
        assert int(census.trace_counts[1:].sum()) == counting.nonzero_trace_irr_count(n, q), (q, n)
