"""The benchmark's reference arithmetic against brute force at tiny sizes.

Run with:  python3 -m pytest perfbench/test_refmath.py -q
"""

import itertools
import random

import refmath as rm

F2, F3, F5 = rm.PrimeField(2), rm.PrimeField(3), rm.PrimeField(5)
F4 = rm.ExtensionField(F2, (1, 1, 1))  # y^2 + y + 1
SMALL_FIELDS = [(F2, 7), (F3, 5), (F5, 3), (F4, 4)]  # (field, largest degree)


def monic_polys(F, n):
    elems = F.elements()
    for tail in itertools.product(elems, repeat=n):
        yield tuple(tail) + (F.one,)


def irreducible_by_trial_division(F, f):
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for g in monic_polys(F, d):
            if not rm.poly_divmod(F, f, g)[1]:
                return False
    return True


def test_integer_helpers_against_brute_force():
    for n in range(1, 200):
        prod = 1
        for p, e in rm.factorize(n).items():
            assert all(p % d for d in range(2, p))
            prod *= p**e
        assert prod == n
        assert rm.divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        squarefree = all(n % (d * d) for d in range(2, n + 1))
        assert (rm.mobius(n) != 0) == squarefree
    assert [rm.euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert rm.prime_power(16) == (2, 4) and rm.prime_power(9) == (3, 2)
    for q, d in [(2, 7), (4, 15), (3, 16), (5, 1), (16, 51)]:
        t = rm.mult_order(q, d)
        assert pow(q, t, d) == 1 % d
        assert all(pow(q, s, d) != 1 % d for s in range(1, t))


def test_rabin_matches_trial_division_and_counts_match_gauss():
    for F, top in SMALL_FIELDS:
        q = F.order
        for n in range(1, top + 1):
            by_trace = {True: 0, False: 0}
            total = 0
            for f in monic_polys(F, n):
                irr = irreducible_by_trial_division(F, f)
                assert rm.is_irreducible(F, f) == irr, (q, f)
                if irr:
                    total += 1
                    by_trace[f[n - 1] != F.zero] += 1
            assert total == rm.irreducible_count(n, q)
            for nonzero in (True, False):
                assert by_trace[nonzero] == rm.irreducible_count_with_trace(n, q, nonzero)


def test_polynomial_arithmetic_round_trips():
    rng = random.Random(5)
    for F in (F2, F3, F4):
        elems = F.elements()
        for _ in range(40):
            a = rm.poly_trim(F, [rng.choice(elems) for _ in range(rng.randrange(1, 9))])
            b = rm.poly_trim(F, [rng.choice(elems) for _ in range(rng.randrange(1, 6))])
            if not b:
                continue
            quo, rem = rm.poly_divmod(F, a, b)
            assert len(rem) < len(b)
            rebuilt = rm.poly_sub(F, rm.poly_mul(F, quo, b), rm.poly_sub(F, (), rem))
            assert rebuilt == a
            g = rm.poly_gcd(F, a, b)
            if g:
                assert not rm.poly_divmod(F, a, g)[1] and not rm.poly_divmod(F, b, g)[1]


def test_rank_matches_span_size():
    rng = random.Random(7)
    for F in (F2, F3, F4):
        elems = F.elements()
        for _ in range(30):
            rows = [[rng.choice(elems) for _ in range(3)] for _ in range(3)]
            span = {
                tuple(
                    _dot(F, coeffs, [row[c] for row in rows]) for c in range(3)
                )
                for coeffs in itertools.product(elems, repeat=3)
            }
            assert len(span) == F.order ** rm.rank(rows, F)


def _dot(F, xs, ys):
    acc = F.zero
    for x, y in zip(xs, ys):
        acc = F.add(acc, F.mul(x, y))
    return acc


def test_normal_counts_and_n_polynomials_by_enumeration():
    for F, top in [(F2, 6), (F3, 4), (F5, 2), (F4, 3)]:
        q = F.order
        for n in range(1, top + 1):
            modulus = next(f for f in monic_polys(F, n) if rm.is_irreducible(F, f))
            E = rm.ExtensionField(F, modulus)
            normal = [a for a in E.elements() if rm.is_normal(a, E)]
            assert len(normal) == rm.normal_element_count(n, q), (q, n)
            assert all(E.trace(a) != F.zero for a in normal)
            npolys = sum(1 for f in monic_polys(F, n) if rm.is_n_polynomial(F, f))
            assert npolys * n == len(normal)


def test_equality_classification_matches_the_counts():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for n in range(1, 25):
            lhs = rm.normal_element_count(n, q)
            rhs = n * rm.irreducible_count_with_trace(n, q, True)
            assert lhs <= rhs
            assert (lhs == rhs) == rm.equality_holds(n, q), (q, n)
