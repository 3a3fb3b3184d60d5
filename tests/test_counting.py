"""Closed-form counts, the inequality, and its equality classification."""

import collections
import contextlib
import json
import re
import time
from fractions import Fraction

import pytest

from normbase import counting, gf, oracle
from normbase.counting import (
    CSV_COLUMNS,
    build_report,
    divisors,
    equality_predicate,
    euler_phi,
    inequality_sides,
    irr_count_trace,
    is_prime,
    is_prime_power,
    is_primitive_root,
    moebius,
    mult_order,
    nonzero_trace_irr_count,
    normal_basis_count,
    normal_element_count,
    prime_power_split,
    prime_powers_up_to,
    q_adic_valuation,
    split_n,
    total_irr_count,
    witness_lower_bound,
    zero_trace_irr_count,
)
from normbase.errors import VerificationError


def test_moebius():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(2) == -1
    assert moebius(30) == -1
    with pytest.raises(ValueError):
        moebius(0)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(7) == 6
    assert euler_phi(12) == 4
    assert euler_phi(15) == 8
    with pytest.raises(ValueError):
        euler_phi(0)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_prime_power_split():
    assert prime_power_split(2) == (2, 1)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(16) == (2, 4)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power_split(bad)
    assert prime_powers_up_to(16) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    assert is_prime_power(27) and not is_prime_power(10)


def test_prime_power_split_of_huge_q():
    # a small prime factor fixes the only possible base, and otherwise the
    # base is at least 43, so no root is taken for every exponent up to
    # q's bit length (2^8000 took 6.4 s that way)
    start = time.perf_counter()
    assert prime_power_split(2**20000) == (2, 20000)
    assert prime_power_split(3**5000) == (3, 5000)
    assert not is_prime_power(3 * 2**20000)
    assert time.perf_counter() - start < 2


def test_prime_power_split_of_huge_q_with_a_large_base():
    # no prime factor below 43: roots at prime exponents are taken before
    # is_prime, which on 43^2000 alone took 2.7 s, and a root that hits is
    # split again (43^2000 is the square of 43^1000, and so on)
    start = time.perf_counter()
    assert prime_power_split(43**2000) == (43, 2000)
    assert prime_power_split(43**6) == (43, 6)
    assert prime_power_split(47**35) == (47, 35)
    assert prime_power_split(1009**12) == (1009, 12)
    assert not is_prime_power((43 * 47) ** 2)
    assert not is_prime_power(43**7 + 2)
    assert time.perf_counter() - start < 2
    with pytest.raises(ValueError, match="cannot prove"):
        prime_power_split(2**127 - 1)


def test_prime_power_split_matches_every_root():
    def every_root(q):
        if q < 2:
            return None
        if is_prime(q):
            return q, 1
        for k in range(2, q.bit_length()):
            r = counting._iroot(q, k)
            if r**k == q and is_prime(r):
                return r, k
        return None

    for q in range(2**14):
        assert counting._prime_power_root(q) == every_root(q), q


def test_is_prime_matches_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, limit, i))
    assert [is_prime(n) for n in range(limit)] == sieve


def test_primality_of_large_inputs():
    # Miller-Rabin answers these at once; trial division ran for minutes
    start = time.perf_counter()
    assert gf.prime_field(2**61 - 1).p == 2**61 - 1
    assert prime_power_split((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert prime_power_split(3**40) == (3, 40)
    assert time.perf_counter() - start < 2
    # strong pseudoprime to the bases 2..37, caught by base 41
    assert not is_prime(318665857834031151167461)
    # strong pseudoprime to the bases 2..41: unprovable, so an error,
    # which is_prime_power must not read as "not a prime power"
    for q in (3317044064679887385961981, 3317044064679887385961981**2):
        with pytest.raises(ValueError, match="cannot prove"):
            is_prime_power(q)


def test_mult_order():
    assert mult_order(2, 7) == 3  # 2, 4, 1
    assert mult_order(2, 3) == 2  # 2, 1
    assert mult_order(5, 1) == 1  # convention
    assert mult_order(3, 7) == 6
    with pytest.raises(ValueError):
        mult_order(2, 4)


def test_mult_order_by_brute_force():
    for q in (2, 3, 4, 5):
        for d in range(1, 30):
            if counting.math.gcd(q, d) != 1:
                continue
            t = mult_order(q, d)
            assert pow(q, t, d) == 1 % d
            assert all(pow(q, s, d) != 1 % d for s in range(1, t))


def test_is_primitive_root():
    assert is_primitive_root(2, 3)
    assert not is_primitive_root(2, 7)
    assert is_primitive_root(7, 1)
    assert is_primitive_root(3, 7)


def test_split_n():
    s = split_n(12, 2)
    assert (s.m, s.e) == (3, 2)
    assert split_n(7, 2) == counting.SplitN(7, 2, 7, 0)
    assert split_n(8, 2) == counting.SplitN(8, 2, 1, 3)
    with pytest.raises(ValueError):
        split_n(0, 2)


def test_normal_element_count_known_values():
    assert normal_element_count(3, 2) == 3
    assert normal_element_count(4, 2) == 8
    assert normal_element_count(7, 2) == 49
    assert normal_element_count(1, 5) == 4  # n = 1: every nonzero element
    assert normal_element_count(2, 4) == 12


def test_normal_basis_count():
    assert normal_basis_count(3, 2) == 1
    assert normal_basis_count(4, 2) == 2
    assert normal_basis_count(7, 2) == 7
    assert normal_basis_count(1, 7) == 6


def test_irr_count_trace():
    assert irr_count_trace(2, 2, 1) == 1
    assert irr_count_trace(7, 2, 1) == 9
    assert irr_count_trace(2, 3, 1) == 1
    assert irr_count_trace(2, 3, 2) == 1
    with pytest.raises(ValueError):
        irr_count_trace(3, 2, 0)


def test_trace_count_family():
    assert nonzero_trace_irr_count(7, 2) == 9
    assert nonzero_trace_irr_count(2, 3) == 2
    assert nonzero_trace_irr_count(3, 2) == 1
    assert total_irr_count(2, 2) == 1
    assert total_irr_count(3, 2) == 2
    assert total_irr_count(2, 3) == 3
    assert zero_trace_irr_count(3, 2) == 1  # x^3 + x + 1
    # the per-trace counts tile the total
    for q, n in ((2, 6), (3, 4), (4, 3), (5, 2)):
        assert (q - 1) * irr_count_trace(n, q) + zero_trace_irr_count(n, q) == total_irr_count(n, q)


def hand_sides(n, q):
    """Independent evaluation: explicit Fraction arithmetic, brute-force
    multiplicative orders, no shared helpers."""
    p = min(f for f in range(2, q + 1) if q % f == 0)
    m = n
    while m % p == 0:
        m //= p
    lhs = Fraction(q) ** (n - m)
    for d in range(1, m + 1):
        if m % d:
            continue
        tau = next(t for t in range(1, d + 1) if pow(q, t, d) == 1 % d)
        phi = sum(1 for a in range(1, d + 1) if counting.math.gcd(a, d) == 1)
        lhs *= Fraction(q**tau - 1) ** (phi // tau)
    rhs = Fraction(0)
    for d in range(1, m + 1):
        if m % d:
            continue
        rhs += moebius(d) * Fraction(q) ** (n // d)
    rhs *= Fraction(q - 1, q)
    assert lhs.denominator == 1 and rhs.denominator == 1
    return int(lhs), int(rhs)


SPOT_TABLE = [
    (2, 3, 3, 3, True),
    (2, 4, 8, 8, True),
    (2, 7, 49, 63, False),
    (3, 4, 32, 48, False),
    (2, 6, 24, 30, False),
    (4, 3, 27, 45, False),
]


@pytest.mark.parametrize("q,n,lhs,rhs,equal", SPOT_TABLE)
def test_inequality_sides_spot_values(q, n, lhs, rhs, equal):
    got = inequality_sides(n, q)
    assert got == (lhs, rhs)
    assert (got[0] == got[1]) is equal
    assert hand_sides(n, q) == (lhs, rhs)


def test_equality_predicate():
    assert equality_predicate(4, 2)   # n = p^2
    assert equality_predicate(3, 2)   # prime, 2 primitive mod 3
    assert not equality_predicate(7, 2)
    assert equality_predicate(1, 9)   # n = 1 = p^0
    assert equality_predicate(2, 2)
    assert not equality_predicate(6, 5)
    assert equality_predicate(5, 2)   # ord_5(2) = 4 = phi(5)


def test_q_adic_valuation():
    assert q_adic_valuation(8, 2) == 3
    assert q_adic_valuation(12, 2) == 2
    assert q_adic_valuation(7, 2) == 0
    assert q_adic_valuation(81, 9) == 2
    with pytest.raises(ValueError):
        q_adic_valuation(0, 2)


def test_witness_lower_bound():
    assert witness_lower_bound(6, 5) == 5**3 - 5**2 - 5 == 95
    assert witness_lower_bound(15, 2) == 2**9 - 2**8 - 2 == 254
    with pytest.raises(ValueError):
        witness_lower_bound(12, 5)  # not squarefree
    with pytest.raises(ValueError):
        witness_lower_bound(7, 2)  # single prime factor
    with pytest.raises(ValueError):
        witness_lower_bound(6, 2)  # shares the characteristic


def test_witness_lower_bound_bounds_the_non_n_polynomials():
    # the nonzero-trace irreducibles that are not N-polynomials: by the
    # closed forms at every cell the bound applies to with q <= 32, n < 40,
    # and by the root census at the four of them within 2^20 elements
    bounds = {}
    for q in prime_powers_up_to(32):
        for n in range(2, 40):
            with contextlib.suppress(ValueError):
                bounds[q, n] = witness_lower_bound(n, q)
    assert len(bounds) == 159
    for (q, n), bound in bounds.items():
        assert bound <= nonzero_trace_irr_count(n, q) - normal_basis_count(n, q), (q, n)
    gaps = {}
    for (q, n), bound in bounds.items():
        if q**n <= 2**20:
            census = oracle.root_census(n, q)
            gaps[q, n] = bound, int(census.trace_counts[1:].sum()) - census.npoly
    assert gaps == {(2, 15): (254, 416), (3, 10): (159, 1360), (5, 6): (95, 528), (7, 6): (287, 8976)}


def test_both_sides_divisible_by_n():
    for q in prime_powers_up_to(9):
        for n in range(1, 13):
            lhs, rhs = inequality_sides(n, q)
            assert lhs % n == 0
            assert rhs % n == 0
            assert lhs // n == normal_basis_count(n, q)
            assert rhs // n == nonzero_trace_irr_count(n, q)


def test_valuation_gap_when_e_positive_and_m_positive():
    # When e >= 1 and m > 1 the two sides have different q-adic valuations,
    # so equality is impossible there; checked as data across a sweep.
    for q in prime_powers_up_to(9):
        p, _ = prime_power_split(q)
        for n in range(2, 19):
            s = split_n(n, p)
            if s.e >= 1 and s.m > 1:
                lhs, rhs = inequality_sides(n, q)
                assert q_adic_valuation(lhs, q) != q_adic_valuation(rhs, q)
                assert q_adic_valuation(lhs, q) == n - s.m


def test_build_report_fields():
    r = build_report(2, 7)
    assert (r.lhs, r.rhs) == (49, 63)
    assert r.m == 7 and r.e == 0
    assert not r.equality and not r.predicate
    assert r.v == 49 and r.nb_count == 7 and r.irr_nonzero_trace == 9
    assert r.oracle_v is None


def test_build_report_evaluates_each_closed_form_once(monkeypatch):
    # v and the Moebius trace sum are each evaluated once per report, and
    # the report still reads the public closed forms' values
    calls = collections.Counter()
    for name in ("normal_element_count", "_m_divisor_trace_sum"):
        def counted(*args, _real=getattr(counting, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(counting, name, counted)
    reports = {(q, n): build_report(q, n) for q, n in ((2, 7), (3, 6), (4, 5), (9, 1))}
    assert calls == {"normal_element_count": 4, "_m_divisor_trace_sum": 4}
    monkeypatch.undo()
    for (q, n), r in reports.items():
        assert (r.lhs, r.rhs) == inequality_sides(n, q)
        assert r.v == counting.normal_element_count(n, q)
        assert r.nb_count == counting.normal_basis_count(n, q)
        assert r.irr_nonzero_trace == counting.nonzero_trace_irr_count(n, q)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("_m_divisor_trace_sum", 127, "trace sum 127 not divisible by q = 2"),
        ("normal_element_count", 64, "lhs 64 > rhs 63"),
        ("normal_element_count", 63, "equality is True but the classification says False"),
        ("normal_element_count", 48, "normal-element count 48 not divisible by n = 7"),
        ("_m_divisor_trace_sum", 128, "trace sum 128 not divisible by q*n = 14"),
    ],
)
def test_build_report_checks_its_closed_forms(monkeypatch, name, value, message):
    # at (2, 7): v = 49, trace sum 126, rhs 63, 9 nonzero-trace irreducibles
    monkeypatch.setattr(counting, name, lambda *args: value)
    with pytest.raises(VerificationError, match=re.escape(message)):
        build_report(2, 7)


def test_build_report_checks_rhs_against_the_irreducibles(monkeypatch):
    # n * (irreducibles of nonzero trace) = rhs holds whenever both exact
    # divisions do, so only a wrong per-trace quotient can reach the check
    real = counting._divided
    monkeypatch.setattr(
        counting, "_divided", lambda num, den, *names: 0 if den == 14 else real(num, den, *names)
    )
    with pytest.raises(VerificationError, match=re.escape("rhs 63 != n * irreducible count")):
        build_report(2, 7)


def test_report_serialization():
    r = build_report(2, 7)
    row = r.to_csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[:8] == ["2", "7", "7", "0", "49", "63", "false", "false"]
    assert row[-3:] == ["", "", ""]
    obj = r.to_json_obj()
    assert obj["lhs"] == "49" and obj["rhs"] == "63"  # big ints as strings
    assert obj["oracle_v"] is None
    json.dumps(obj)  # must be valid JSON material
    r.oracle_v = r.v
    assert r.to_csv_row()[CSV_COLUMNS.index("oracle_v")] == "49"


def test_report_n1_boundary():
    for q in (2, 3, 9):
        r = build_report(q, 1)
        assert r.equality and r.predicate
        assert r.v == q - 1 and r.nb_count == q - 1 and r.irr_nonzero_trace == q - 1
