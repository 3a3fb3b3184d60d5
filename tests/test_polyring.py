"""Polynomial arithmetic, irreducibility, factorization, cyclotomics.

The expected values for everything nontrivial come from an in-test trial
division oracle that knows nothing about Ben-Or's test or Cantor-Zassenhaus.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normbase import counting, gf
from normbase.errors import BudgetExceeded
from normbase.oracle import scan_irreducibles
from normbase.polyring import (
    NEG_INF,
    Factorization,
    Poly,
    cyclotomic,
    factor,
    factor_xn_minus_1,
    gcd,
    is_irreducible,
    monic_polys,
    poly_trace,
    product,
    squarefree_decomposition,
    x_pow_minus_one,
)


def P(field, *coeffs):
    return Poly.of(field, coeffs)


def irreducible_by_trial_division(f: Poly) -> bool:
    """Independent oracle: try every monic divisor of degree 1..deg/2."""
    n = int(f.degree)
    for d in range(1, n // 2 + 1):
        for g in monic_polys(f.field, d):
            if (f % g).is_zero():
                return False
    return n >= 1


def random_poly(field, max_deg, rng):
    deg = rng.randrange(max_deg + 1)
    return Poly(field, tuple(field.random(rng) for _ in range(deg + 1)))


# ---------------------------------------------------------------------------
# Ring arithmetic
# ---------------------------------------------------------------------------


def test_normalization_and_degree(f2):
    assert Poly(f2, (1, 0, 1, 0, 0)).coeffs == (1, 0, 1)
    assert Poly.zero(f2).degree is NEG_INF
    assert Poly.zero(f2).degree < 0
    assert Poly.one(f2).degree == 0
    assert Poly.x(f2).degree == 1


def test_degree_of_zero_is_absorbing(f2):
    z = Poly.zero(f2)
    f = P(f2, 1, 1, 1)
    assert (z * f).degree is NEG_INF
    assert (f * z).is_zero()


def test_divmod_roundtrip_property(rng):
    for field in (gf.prime_field(2), gf.prime_field(3), gf.base_field(2, 2)):
        for _ in range(60):
            f = random_poly(field, 8, rng)
            g = random_poly(field, 5, rng)
            if g.is_zero():
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


def test_divmod_by_zero(f2):
    with pytest.raises(ZeroDivisionError):
        divmod(P(f2, 1, 1), Poly.zero(f2))


def test_cross_field_operations_rejected(f2, f3):
    with pytest.raises(ValueError):
        P(f2, 1, 1) + P(f3, 1, 1)


def test_gcd_contract(rng):
    for field in (gf.prime_field(3), gf.base_field(2, 2)):
        for _ in range(40):
            f = random_poly(field, 6, rng)
            g = random_poly(field, 6, rng)
            d = gcd(f, g)
            if f.is_zero() and g.is_zero():
                assert d.is_zero()
                continue
            assert d.is_monic()
            if not f.is_zero():
                assert (f % d).is_zero()
            if not g.is_zero():
                assert (g % d).is_zero()
    f2 = gf.prime_field(2)
    f = P(f2, 0, 1, 1)
    assert gcd(f, Poly.zero(f2)) == f.monic()
    assert gcd(Poly.zero(f2), Poly.zero(f2)).is_zero()


def test_pow_mod(f3):
    f = (1, 0, 1)  # x^2 + 1, irreducible over F_3
    x = (0, 1)
    assert gf.ppow_mod(f3, x, 9, f) == x  # x^(q^2) == x mod an irreducible quadratic
    assert gf.ppow_mod(f3, x, 0, f) == (1,)
    # modulo a constant every residue is 0, x^0 too
    assert [gf.ppow_mod(f3, x, e, (2,)) for e in (0, 1, 9)] == [()] * 3


def test_derivative(f3):
    f = P(f3, 1, 2, 0, 1)  # 1 + 2x + x^3
    assert f.derivative() == P(f3, 2, 0, 0)  # 2 + 3x^2 = 2
    f2 = gf.prime_field(2)
    assert P(f2, 0, 0, 1).derivative().is_zero()  # d/dx x^2 in char 2


def test_evaluate_and_lift(f2):
    f = P(f2, 1, 1, 1)
    assert f.evaluate(0) == 1 and f.evaluate(1) == 1
    F4 = gf.extension(f2, 2)
    lifted = f.lift(F4)
    assert lifted.evaluate(F4.gen) == F4.zero  # gen is a root of x^2+x+1


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------


def test_is_irreducible_examples(f2):
    assert is_irreducible(P(f2, 1, 1, 1))
    assert not is_irreducible(P(f2, 1, 0, 1))  # (x+1)^2
    assert is_irreducible(P(f2, 1, 1, 1, 1, 1))  # trial-division derived below too


def test_is_irreducible_matches_trial_division_exhaustively():
    for field, max_deg in ((gf.prime_field(2), 5), (gf.prime_field(3), 3), (gf.base_field(2, 2), 2)):
        for d in range(1, max_deg + 1):
            for f in monic_polys(field, d):
                assert is_irreducible(f) == irreducible_by_trial_division(f), f
        # non-monic inputs too
        if field.order == 2:
            continue
        two = field.from_index(field.order - 1)
        g = P(field, field.one, field.zero, two)
        assert is_irreducible(g) == irreducible_by_trial_division(g.monic())


def test_is_irreducible_rejects_constants(f2):
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(f2))
    with pytest.raises(ValueError):
        is_irreducible(Poly.zero(f2))


def test_find_irreducible_examples(f2):
    assert Poly(f2, gf.first_irreducible(f2, 1)) == Poly.x(f2)
    assert Poly(f2, gf.first_irreducible(f2, 2)) == P(f2, 1, 1, 1)


def test_find_irreducible_degree4_against_declared_order_scan(f2):
    # Independent oracle: first monic quartic with no divisor of degree <= 2,
    # scanning the 16 candidates in lexicographic (constant-first) order.
    expected = None
    for f in monic_polys(f2, 4):
        if irreducible_by_trial_division(f):
            expected = f
            break
    assert expected is not None
    assert Poly(f2, gf.first_irreducible(f2, 4)) == expected
    assert expected == P(f2, 1, 0, 0, 1, 1)  # x^4 + x^3 + 1 under this order


def test_find_irreducible_lex_minimality_other_fields(f3, f4):
    for field, d in ((f3, 3), (f4, 2)):
        got = Poly(field, gf.first_irreducible(field, d))
        for f in monic_polys(field, d):
            if f.sort_key() >= got.sort_key():
                break
            assert not irreducible_by_trial_division(f)
        assert irreducible_by_trial_division(got)


def test_find_irreducible_over_extension_base(f4):
    f = Poly(f4, gf.first_irreducible(f4, 3))
    assert f.degree == 3 and is_irreducible(f)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def test_factor_examples(f2, f3):
    xp1 = P(f2, 1, 1)
    fact = factor(P(f2, 1, 0, 1))
    assert fact.parts == [(xp1, 2)]
    fact = factor(P(f2, 1, 0, 0, 1))  # x^3 - 1 over F_2
    assert fact.parts == [(xp1, 1), (P(f2, 1, 1, 1), 1)]
    fact = factor(P(f3, 2, 0, 0, 0, 1))  # x^4 - 1 over F_3
    assert fact.parts == [
        (P(f3, 1, 1), 1),
        (P(f3, 2, 1), 1),
        (P(f3, 1, 0, 1), 1),
    ]


def test_factor_recovers_constructed_multiplicities(rng):
    # products with known factor multiplicities, including multiples of the
    # characteristic (which stress the p-th-root path of the squarefree step)
    for field in (gf.prime_field(2), gf.prime_field(3), gf.base_field(3, 2)):
        irr1 = Poly(field, gf.first_irreducible(field, 1))
        irr2 = Poly(field, gf.first_irreducible(field, 2))
        p = field.char
        f = irr1**p * irr2 ** (p + 1)
        fact = factor(f)
        assert dict((b.coeffs, m) for b, m in fact.parts) == {
            irr1.coeffs: p,
            irr2.coeffs: p + 1,
        }


def test_factor_reconstructs_and_parts_irreducible(rng):
    for field in (gf.prime_field(2), gf.prime_field(3), gf.prime_field(5), gf.base_field(2, 2), gf.base_field(3, 2)):
        for _ in range(25):
            f = random_poly(field, 7, rng)
            if f.degree is NEG_INF or f.degree < 1:
                continue
            fact = factor(f)
            assert fact.irreducible_parts
            assert fact.product() == f.monic()
            for base, mult in fact.parts:
                assert mult >= 1
                assert base.is_monic()
                assert irreducible_by_trial_division(base)
            keys = [base.sort_key() for base, _ in fact.parts]
            assert keys == sorted(keys)


def test_factor_determinism(rng):
    field = gf.prime_field(5)
    f = P(field, 2, 4, 0, 1, 3, 1, 1)
    first = factor(f)
    again = factor(f)
    assert first.parts == again.parts
    other_seed = factor(f, seed=99)
    assert sorted(p.coeffs for p, _ in other_seed.parts) == sorted(
        p.coeffs for p, _ in first.parts
    )


@pytest.mark.parametrize("q, kmax", [(2, 6), (3, 4), (4, 4), (16, 1), (5, 4)])
def test_factor_splits_x_qk_minus_x_at_small_q(q, kmax):
    # Cantor-Zassenhaus is the only equal-degree split, also at q <= 3:
    # x^(q^k) - x is the product of the monic irreducibles of degree
    # dividing k, and every seed finds each of them once.  k = 1 gives
    # x^2 + x over F_2, which only two of the four h of degree < 2 split,
    # and x^3 - x over F_3.  F_4 and F_16 run the trace map in a context
    # over an extension base, and F_5 the odd-p power; kmax is the largest
    # k whose ten seeds take at most about 2 s.
    field = gf.field_of_order(q)
    for k in range(1, kmax + 1):
        f = x_pow_minus_one(q**k - 1, field) * Poly.x(field)
        irreducibles = [g for d in counting.divisors(k) for g in scan_irreducibles(d, q)]
        want = [(g, 1) for g in sorted(irreducibles, key=Poly.sort_key)]
        for seed in range(10):
            assert factor(f, seed=seed).parts == want, (q, k, seed)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4, 5, 9)), st.integers(1, 12), st.randoms(use_true_random=False))
def test_distinct_degree_blocks_group_the_factors_by_degree(q, d, rng):
    # On a random squarefree f the chain's blocks multiply back to f, each
    # block's degree is a multiple of its k, and the block at k is the
    # product of the factors of degree k that factor returns
    F = gf.field_of_order(q)
    f = Poly(F, tuple(F.random(rng) for _ in range(d)) + (F.one,))
    assume(gcd(f, f.derivative()).degree == 0)
    blocks = [(Poly(F, g).monic(), k) for g, k in gf.pdistinct_degree(F, f.coeffs)]
    product = Poly.one(F)
    for g, k in blocks:
        assert g.degree % k == 0, (f, g, k)
        product = product * g
    assert product == f
    want = {}
    for g, _ in factor(f).parts:
        want[g.degree] = want.get(g.degree, Poly.one(F)) * g
    assert [k for _, k in blocks] == sorted(want) and {k: g for g, k in blocks} == want, f


def test_distinct_degree_builds_one_context_per_modulus(f2, monkeypatch):
    # gf.pdistinct_degree, the chain behind factor and pirreducible, takes
    # h_k = x^(2^k) mod f as the monomial while 2^k < deg f and by one
    # division while 2^k < 2 deg f, so it builds a context for a modulus
    # only at the first step that squares a residue, and again only after
    # a factor is divided out.  cyclotomic(511) is 48 irreducibles of
    # degree 9 over F_2: x^512 mod f at k = 9 is one division, so no
    # context, and one gcd per step.  x^63 - 1 has blocks of degree 1, 2, 6
    # and 54 at k = 1, 2, 3 and 6: once it has split, k = 4 and 5 are
    # single gcds on monomials, k = 6 .. 11 one block (h_6 by division, a
    # context from k = 7) with one gcd, and one more gcd resolves it at
    # k = 6.  The product of the irreducibles of degree 4 and 11 splits
    # off the quartic at k = 4 by division and builds one context, for the
    # cofactor, at k = 5.  A degree-64 candidate with a factor of degree 6
    # is rejected at k = 6, the division step, and builds no context.
    built, steps = [], []
    gcd_unit = gf._pgcd_unit

    class Counting(gf._Barrett):
        def __init__(self, F, f):
            built.append(len(f) - 1)
            super().__init__(F, f)

    def irreducible(d):
        return Poly(f2, gf.first_irreducible(f2, d))

    pair = irreducible(4) * irreducible(11)
    rejected = irreducible(6) * irreducible(58)
    # (f, blocks, contexts, gcds, blocks read: all, or the first as
    # pirreducible reads them)
    for f, blocks, moduli, gcds, limit in (
        (cyclotomic(511, f2), [(432, 9)], [], 9, None),
        (x_pow_minus_one(63, f2), [(1, 1), (2, 2), (6, 3), (54, 6)], [54], 7, None),
        (pair, [(4, 4), (11, 11)], [11], 5, None),
        (rejected, [(6, 6)], [], 6, 1),
    ):
        built.clear()
        steps.clear()
        with monkeypatch.context() as m:
            m.setattr(gf, "_Barrett", Counting)
            m.setattr(gf, "_pgcd_unit", lambda F, a, b: steps.append(a) or gcd_unit(F, a, b))
            got = list(itertools.islice(gf.pdistinct_degree(f2, f.coeffs), limit))
        assert [(len(g) - 1, d) for g, d in got] == blocks
        assert built == moduli and len(steps) == gcds


def per_step_chain(F, f):
    """The distinct-degree factorization of a squarefree monic f with a gcd
    at every step: h_k = x^(q^k) mod f by gf.ppow_mod from x, the monic
    gf.pgcd(h_k - x, f) while 2k <= deg f, each block divided out of f,
    then the cofactor."""
    x, k, out = (F.zero, F.one), 0, []
    while 2 * (k + 1) <= len(f) - 1:
        k += 1
        g = gf.pgcd(F, gf.psub(F, gf.ppow_mod(F, x, F.order**k, f), x), f)
        if len(g) > 1:
            out.append((g, k))
            f = gf.pdivmod(F, f, g)[0]
    return out + [(f, len(f) - 1)] * (len(f) > 1)


def product_of_irreducibles(F, degrees, rng):
    """The product of random monic irreducibles of the given degrees over
    F, each drawn once: a repeat is dropped, so the product is squarefree
    (over F_2 there is one irreducible of degree 2)."""
    parts = set()
    for d in degrees:
        draws = iter(lambda: tuple(F.random(rng) for _ in range(d)) + (F.one,), None)
        parts.add(next(g for g in draws if gf.pirreducible(F, g)))
    return product(F, (Poly(F, g) for g in parts))


def check_factoring_mode(F, f):
    got = [(gf.pmonic(F, g), k) for g, k in gf.pdistinct_degree(F, f.coeffs)]
    assert got == per_step_chain(F, f.coeffs), f


# Degrees of distinct irreducibles whose product puts a factor on the
# first block's start s and on its end 2s - 1, and leaves a cofactor past
# deg f // 2 after a split.  The degree-1 factor splits f at k = 1; over
# F_2, [1, 4, 11] has deg f = 15 after it, monomial steps k = 2, 3 and
# the block k = 4 .. 7, with the cofactor 11 after it; [1, 7, 9] the block
# 4 .. 7 at deg 16; [1, 2, 6, 11, 40] the block 6 .. 11 at deg 57, then
# 12 .. 20 and the cofactor 40; [1, 7, 9, 20, 40] the blocks 7 .. 13 at
# deg 76 (h_7 by division) and 14 .. 27 at deg 60, which finds 20 from
# h_13 reduced mod the cofactor.  Over F_3, [1, 3, 5, 17] the block 3 .. 5;
# over F_4, [1, 2, 3, 9] the block 2 .. 3, and over F_9, [1, 2, 3, 7].
BLOCK_EDGES = [
    (2, (1, 4, 11)), (2, (1, 7, 9)), (2, (1, 2, 6, 11, 40)), (2, (1, 7, 9, 20, 40)),
    (3, (1, 3, 5, 17)), (4, (1, 2, 3, 9)), (9, (1, 2, 3, 7)),
]


@pytest.mark.parametrize("q, degrees", BLOCK_EDGES)
def test_factoring_mode_at_block_edges(q, degrees):
    F = gf.field_of_order(q)
    for seed in range(3):
        check_factoring_mode(F, product_of_irreducibles(F, degrees, random.Random(seed)))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((2, 3, 4, 9)).flatmap(
        lambda q: st.tuples(
            st.just(q), st.lists(st.integers(1, 40 if q < 4 else 16), min_size=1, max_size=5)
        )
    ),
    st.randoms(use_true_random=False),
)
def test_factoring_mode_matches_a_gcd_at_every_step(field_degrees, rng):
    # Once f has split, the chain multiplies the h_k - x of a block and
    # takes one gcd; its blocks and their k are those of a gcd at every k
    q, degrees = field_degrees
    F = gf.field_of_order(q)
    check_factoring_mode(F, product_of_irreducibles(F, degrees, rng))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 4)),
    st.lists(
        st.tuples(st.lists(st.integers(0, 15), min_size=2, max_size=7), st.integers(1, 4)),
        min_size=1,
        max_size=9,
    ),
)
def test_factorization_product_is_the_serial_product(q, parts):
    # the balanced product tree against the serial product, for part lists
    # of odd and even length with multiplicities 1 to 4
    F = gf.field_of_order(q)
    parts = [(Poly(F, [F.from_index(c % q) for c in coeffs]), mult) for coeffs, mult in parts]
    serial = Poly.one(F)
    for base, mult in parts:
        for _ in range(mult):
            serial = serial * base
    assert Factorization(parts).product() == serial
    assert product(F, []) == Poly.one(F)


def test_pow_is_repeated_multiplication(rng, monkeypatch):
    # square and multiply from the top bit: bit_length - 1 squarings and
    # one product per further set bit, so base**1 multiplies nothing
    F = gf.field_of_order(4)
    base = Poly(F, tuple(F.random(rng) for _ in range(5)) + (F.one,))
    products, real_mul = [], Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or real_mul(a, b))
    want = Poly.one(F)
    for e in range(10):
        products.clear()
        assert base**e == want, e
        assert len(products) == max(0, e.bit_length() + bin(e).count("1") - 2), e
        want = real_mul(want, base)
    assert base**1 is base


@pytest.mark.parametrize("q, n", [(2, 255), (3, 80)])
def test_factor_xn_minus_1_is_seed_independent(q, n):
    field = gf.prime_field(q)
    assert factor_xn_minus_1(n, field, seed=1) == factor_xn_minus_1(n, field, seed=2)


def test_factor_rejects_constants(f2):
    with pytest.raises(ValueError):
        factor(Poly.one(f2))


def test_squarefree_decomposition_char_p(f2):
    xp1 = P(f2, 1, 1)
    f = P(f2, 1, 1) ** 4  # derivative vanishes: needs the p-th root path
    assert squarefree_decomposition(f) == [(xp1, 4)]
    g = xp1**2 * P(f2, 1, 1, 1)
    assert squarefree_decomposition(g) == [(P(f2, 1, 1, 1), 1), (xp1, 2)]


def test_factorization_validate(f2):
    xp1 = P(f2, 1, 1)
    with pytest.raises(ValueError):
        Factorization([(xp1, 0)]).validate()
    with pytest.raises(ValueError):
        Factorization([(xp1, 1), (P(f2, 1, 0, 1), 1)]).validate()  # share x+1
    with pytest.raises(ValueError):
        Factorization([(xp1, 1)]).validate(expected=P(f2, 1, 1, 1))


# ---------------------------------------------------------------------------
# Trace coefficient
# ---------------------------------------------------------------------------


def test_poly_trace_examples(f2, f3):
    assert poly_trace(P(f2, 1, 1, 1)) == 1
    assert poly_trace(P(f2, 1, 0, 0, 1)) == 0
    assert poly_trace(P(f3, 1, 0, 2, 1)) == 2
    assert poly_trace(P(f2, 1, 1)) == 1  # degree 1: the constant coefficient


def test_poly_trace_is_negated_field_trace_of_root(f3):
    f = Poly(f3, gf.first_irreducible(f3, 3))
    ext = gf.extension(f3, 3, modulus=f)
    assert poly_trace(f) == f3.neg(ext.trace(ext.gen))


def test_poly_trace_rejects_bad_inputs(f3):
    with pytest.raises(ValueError):
        poly_trace(P(f3, 2, 2))  # not monic
    with pytest.raises(ValueError):
        poly_trace(Poly.one(f3))  # constant


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and x^n - 1
# ---------------------------------------------------------------------------


def test_cyclotomic_examples(f2, f3):
    assert cyclotomic(1, f2) == P(f2, 1, 1)  # x - 1 over F_2
    assert cyclotomic(3, f2) == P(f2, 1, 1, 1)
    # d = 4 over F_3, derived by explicit division (x^4-1)/(x^2-1)
    quo, rem = divmod(x_pow_minus_one(4, f3), x_pow_minus_one(2, f3))
    assert rem.is_zero()
    assert cyclotomic(4, f3) == quo == P(f3, 1, 0, 1)


def test_cyclotomic_degree_and_product(f2, f3):
    for field, ns in ((f2, [1, 3, 5, 7, 9, 15]), (f3, [1, 2, 4, 5, 8, 10])):
        for n in ns:
            prod = Poly.one(field)
            for d in counting.divisors(n):
                phi_d = cyclotomic(d, field)
                assert phi_d.degree == counting.euler_phi(d)
                prod = prod * phi_d
            assert prod == x_pow_minus_one(n, field)


def test_cyclotomic_rejects_characteristic_divisors(f2):
    with pytest.raises(ValueError):
        cyclotomic(6, f2)


def test_factor_xn_minus_1_examples(f2):
    fx = factor_xn_minus_1(3, f2)
    assert [(b.d, [h.coeffs for h in b.factors]) for b in fx.blocks] == [
        (1, [(1, 1)]),
        (3, [(1, 1, 1)]),
    ]
    fx7 = factor_xn_minus_1(7, f2)
    d7 = fx7.blocks[-1]
    assert d7.d == 7 and d7.order == 3 and len(d7.factors) == 2
    assert {h.coeffs for h in d7.factors} == {(1, 1, 0, 1), (1, 0, 1, 1)}
    fx1 = factor_xn_minus_1(1, f2)
    assert len(fx1.blocks) == 1 and fx1.blocks[0].factors[0] == P(f2, 1, 1)


def test_factor_xn_minus_1_with_p_power(f2):
    fx = factor_xn_minus_1(6, f2)  # x^6 - 1 = (x^3 - 1)^2 over F_2
    assert fx.m == 3 and fx.e == 1 and fx.multiplicity == 2
    flat = fx.flatten()
    assert all(mult == 2 for _, mult in flat.parts)
    assert flat.product() == x_pow_minus_one(6, f2)


def test_factor_xn_minus_1_degree_profile(f3, f4):
    for field, n in ((f3, 8), (f3, 10), (f4, 5), (f4, 9)):
        q = field.order
        fx = factor_xn_minus_1(n, field)
        for blk in fx.blocks:
            tau = counting.mult_order(q, blk.d)
            assert blk.order == tau
            assert len(blk.factors) == counting.euler_phi(blk.d) // tau
            assert all(h.degree == tau for h in blk.factors)
        assert fx.flatten().product() == x_pow_minus_one(n, field)


# ---------------------------------------------------------------------------
# Monic irreducible enumeration (oracle.scan_irreducibles, the lazy walk)
# ---------------------------------------------------------------------------


def test_enumerate_monic_irreducibles_examples():
    assert [f.coeffs for f in scan_irreducibles(2, 2)] == [(1, 1, 1)]
    got = list(scan_irreducibles(3, 2))
    assert {f.coeffs for f in got} == {(1, 1, 0, 1), (1, 0, 1, 1)}
    keys = [f.sort_key() for f in got]
    assert keys == sorted(keys)
    assert len(list(scan_irreducibles(2, 3))) == (9 - 3) // 2
    # degree 1 runs Ben-Or's test too: every monic linear is irreducible
    for q in (3, 4):
        assert [f.coeffs for f in scan_irreducibles(1, q)] == list(gf.monic_candidates(gf.field_of_order(q), 1))


def test_enumerate_counts_match_moebius_formula():
    for q, max_n in ((2, 8), (3, 5), (4, 4)):
        for n in range(1, max_n + 1):
            got = sum(1 for _ in scan_irreducibles(n, q))
            assert got == counting.total_irr_count(n, q)


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        scan_irreducibles(5, 2, budget=16)
