"""Field tower arithmetic: axioms, Frobenius, trace, enumeration order."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normbase import _linalg, gf
from normbase.errors import BudgetExceeded

from conftest import Schoolbook, coefficient_scan, fold_by_pmod


def sample_fields():
    return [
        gf.prime_field(2),
        gf.prime_field(3),
        gf.prime_field(5),
        gf.base_field(2, 2),
        gf.base_field(3, 2),
        gf.extension(gf.prime_field(2), 3),
        gf.extension(gf.base_field(2, 2), 2),
    ]


@pytest.mark.parametrize("F", sample_fields(), ids=repr)
def test_field_axioms_on_samples(F, rng):
    for _ in range(40):
        a, b, c = (F.random(rng) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
            assert F.pow(a, -1) == F.inv(a)


@pytest.mark.parametrize("F", sample_fields(), ids=repr)
def test_inverse_of_zero_rejected(F):
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_pow_matches_repeated_multiplication(f3, rng):
    F9 = gf.extension(f3, 2)
    for _ in range(20):
        a = F9.random(rng)
        acc = F9.one
        for e in range(7):
            assert F9.pow(a, e) == acc
            acc = F9.mul(acc, a)


def test_frobenius_fixes_zero_and_constants():
    F8 = gf.extension(gf.prime_field(2), 3)
    assert F8.frobenius(F8.zero) == F8.zero
    for c in range(2):
        emb = F8.embed(c)
        assert F8.frobenius(emb) == emb
    F4 = gf.base_field(2, 2)
    F16 = gf.extension(F4, 2)
    for c in F4.elements():
        emb = F16.embed(c)
        assert F16.frobenius(emb) == emb


def test_frobenius_n_fold_is_identity(rng):
    for F in (gf.extension(gf.prime_field(3), 3), gf.extension(gf.base_field(2, 2), 3)):
        for _ in range(15):
            a = F.random(rng)
            cur = a
            for _ in range(F.degree):
                cur = F.frobenius(cur)
            assert cur == a


def test_frobenius_is_an_automorphism(rng):
    for F in (gf.extension(gf.prime_field(5), 2), gf.extension(gf.base_field(3, 2), 2)):
        for _ in range(25):
            a, b = F.random(rng), F.random(rng)
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


@pytest.mark.parametrize(
    "base,n",
    [(gf.prime_field(2), 4), (gf.prime_field(3), 2), (gf.base_field(2, 2), 2)],
    ids=str,
)
def test_frobenius_fixed_field_has_exactly_q_elements(base, n):
    ext = gf.extension(base, n)
    fixed = [a for a in ext.elements() if ext.frobenius(a) == a]
    assert len(fixed) == base.order


def test_trace_values():
    F4 = gf.extension(gf.prime_field(2), 2)  # modulus x^2 + x + 1
    assert F4.modulus == (1, 1, 1)
    assert F4.trace(F4.zero) == 0
    assert F4.trace(F4.one) == 0  # 1 + 1 in characteristic 2
    alpha = F4.gen
    assert F4.trace(alpha) == 1  # alpha + alpha^2 = alpha + (alpha + 1)


def test_trace_is_base_linear_and_surjective(rng):
    for base, n in [(gf.prime_field(2), 3), (gf.prime_field(3), 2), (gf.base_field(2, 2), 2)]:
        ext = gf.extension(base, n)
        for _ in range(25):
            a, b = ext.random(rng), ext.random(rng)
            c = base.random(rng)
            assert ext.trace(ext.add(a, b)) == base.add(ext.trace(a), ext.trace(b))
            assert ext.trace(ext.mul(ext.embed(c), a)) == base.mul(c, ext.trace(a))
        image = {ext.trace(a) for a in ext.elements()}
        assert image == set(base.elements())


def test_elements_enumeration():
    F2 = gf.prime_field(2)
    assert list(F2.elements()) == [0, 1]
    F8 = gf.extension(F2, 3)
    elems = list(F8.elements())
    assert len(elems) == 8 and len(set(elems)) == 8
    F9 = gf.extension(gf.prime_field(3), 2)
    elems9 = list(F9.elements())
    assert len(elems9) == 9
    total = F9.zero
    for a in elems9:
        total = F9.add(total, a)
    assert total == F9.zero  # fields with more than 2 elements sum to zero


def test_elements_follow_lexicographic_index_order():
    F9 = gf.extension(gf.prime_field(3), 2)
    elems = list(F9.elements())
    assert elems == [F9.from_index(i) for i in range(9)]
    # lexicographic from the constant coordinate upward
    keys = [tuple(F9.base.index(c) for c in a) for a in elems]
    assert keys == sorted(keys)
    F16 = gf.extension(gf.base_field(2, 2), 2)
    elems16 = list(F16.elements())
    assert elems16 == [F16.from_index(i) for i in range(16)]


def test_elements_budget():
    F8 = gf.extension(gf.prime_field(2), 3)
    with pytest.raises(BudgetExceeded):
        F8.elements(budget=4)
    assert len(list(F8.elements(budget=8))) == 8
    F7 = gf.prime_field(7)
    with pytest.raises(BudgetExceeded):
        F7.elements(budget=6)
    assert list(F7.elements(budget=7)) == list(range(7))


def test_budget_env_override(monkeypatch):
    F8 = gf.extension(gf.prime_field(2), 3)
    monkeypatch.setenv(gf.BUDGET_ENV_VAR, "4")
    with pytest.raises(BudgetExceeded):
        F8.elements()
    monkeypatch.setenv(gf.BUDGET_ENV_VAR, "8")
    assert len(list(F8.elements())) == 8


def test_index_roundtrip(rng):
    for F in sample_fields():
        for _ in range(20):
            a = F.random(rng)
            assert F.from_index(F.index(a)) == a
        with pytest.raises(ValueError):
            F.from_index(F.order)


def test_prime_coords_roundtrip(rng):
    for F in sample_fields():
        for _ in range(20):
            a = F.random(rng)
            coords = F.prime_coords(a)
            assert len(coords) == F.prime_dim
            assert F.from_prime_coords(coords) == a


def test_validate_rejects_foreign_elements():
    F8 = gf.extension(gf.prime_field(2), 3)
    with pytest.raises(ValueError):
        F8.validate((0, 1))  # wrong length
    with pytest.raises(ValueError):
        F8.validate((0, 1, 2))  # non-canonical coefficient
    with pytest.raises(ValueError):
        F8.frobenius((0, 1))


def test_embed():
    F4 = gf.base_field(2, 2)
    F16 = gf.extension(F4, 2)
    for c in F4.elements():
        assert F16.embed(c) == (c, F4.zero)


def test_degree_one_extension_is_degenerate_identity():
    F3 = gf.prime_field(3)
    E = gf.extension(F3, 1)
    assert E.order == 3
    assert E.modulus == (0, 1)  # lex-smallest linear: x
    for a in E.elements():
        assert E.frobenius(a) == a
        assert E.trace(a) == a[0]


def test_bad_constructions_rejected():
    with pytest.raises(ValueError):
        gf.prime_field(6)
    with pytest.raises(ValueError):
        gf.extension(gf.prime_field(2), 2, modulus=(1, 0, 1))  # (x+1)^2 reducible
    with pytest.raises(ValueError):
        gf.extension(gf.prime_field(2), 2, modulus=(1, 1))  # degree mismatch
    with pytest.raises(ValueError):
        gf.extension(gf.prime_field(3), 2, modulus=(1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        gf.extension(gf.prime_field(3), 2, modulus=(4, 0, 1))  # 4 is not in F_3
    with pytest.raises(ValueError):
        gf.base_field(2, 1, modulus=(1, 1))


def test_field_equality_and_hash():
    a = gf.extension(gf.prime_field(2), 3)
    b = gf.extension(gf.prime_field(2), 3)
    assert a == b and hash(a) == hash(b)
    c = gf.extension(gf.prime_field(2), 3, modulus=(1, 1, 0, 1))
    assert a != c


# One prime per slot width of the packed kernel (1, 2, 4 and 8 bytes, by
# operand length), 2^31 - 1, whose slots pass 8 bytes at 5 terms, and
# 2^32 + 15, 2^61 - 1 and 2^64 + 13, whose products fit no 8-byte slot
# (9, 16 and 17 bytes wide); 5, 7 and 13 also take their 1-byte slots mod
# p by bytes.translate.
KERNEL_PRIMES = (2, 3, 5, 7, 13, 181, 251, 257, 65521, 2**31 - 1, 2**32 + 15, 2**61 - 1, 2**64 + 13)


def naive_convolution(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def check_prime_kernel(F, a, b):
    p = F.p
    a, b = gf.ptrim(F, a), gf.ptrim(F, b)
    assert gf.psub_x(F, a) == gf.psub(F, a, (0, 1))
    if a and b:
        assert gf.pmul(F, a, b) == gf.ptrim(F, naive_convolution(a, b, p))
    small = len(a) * len(b) <= 2500  # the Schoolbook is the slowest reference
    if small:
        assert gf.pgcd(F, a, b) == Schoolbook(F).pgcd(a, b)
    if b:
        q, r = gf.pdivmod(F, a, b)
        assert not small or (q, r) == Schoolbook(F).pdivmod(a, b)
        assert all(0 <= c < p for c in q + r)
        assert gf.padd(F, gf.pmul(F, q, b), r) == a
        assert gf.pdeg(r) < gf.pdeg(b)


def test_prime_kernel_fast_paths_match_naive_convolution(rng):
    # pmul/pdivmod pack over every prime, from 1- and 2-step divisions up;
    # pin them against a naive in-test schoolbook reference.  (4, 4),
    # (5, 5), (8, 5) and (9, 5) put 4 and 5 terms in a slot: over
    # F_(2^31 - 1) the last 8-byte slot and the first 9-byte one.
    assert [gf._packed_slot(gf.prime_field(2**31 - 1), t) for t in (4, 5)] == [("Q", 64), (None, 72)]
    shapes = [(1, 1), (2, 2), (3, 2), (4, 3), (4, 4), (5, 5), (8, 5), (9, 5), (9, 8), (3, 5), (8, 8), (9, 7), (12, 5)]
    shapes += [(64, 64), (70, 200), (300, 260), (257, 3)]
    for p in KERNEL_PRIMES:
        F = gf.prime_field(p)
        for la, lb in shapes + [(rng.randrange(1, 300), rng.randrange(1, 300)) for _ in range(4)]:
            a = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
            b = [rng.randrange(p) for _ in range(lb - 1)] + [rng.randrange(1, p)]
            check_prime_kernel(F, a, b)
            check_prime_kernel(F, b, a)
            # all-maximal coefficients fill every slot to its bound
            check_prime_kernel(F, [p - 1] * la, [p - 1] * lb)


def test_pgcd_over_a_prime_field_matches_the_dividing_euclid(rng):
    # short and long operands, with common factors of degree 0 to 6, and
    # all-maximal operands
    for p in KERNEL_PRIMES:
        F = gf.prime_field(p)
        shapes = ((7, 6), (8, 8), (9, 3), (19, 19), (21, 20), (45, 30), (80, 79), (120, 2))
        for la, lb in shapes:
            g = [rng.randrange(p) for _ in range(rng.randrange(7))] + [rng.randrange(1, p)]
            a = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
            b = [rng.randrange(p) for _ in range(lb - 1)] + [rng.randrange(1, p)]
            a, b = gf.pmul(F, a, g), gf.pmul(F, b, g)
            for x, y in ((a, b), (b, a), ((p - 1,) * la, (p - 1,) * lb)):
                assert gf.pgcd(F, x, y) == Schoolbook(F).pgcd(x, y), (p, la, lb)
        # quotient digits 1 by an all-maximal divisor: every step adds
        # (p - 1)^2 to the middle slots of the first round
        top = (p - 1,) * 120
        assert gf.pgcd(F, gf.pmul(F, (1,) * 121, top), top) == gf.pmonic(F, top), p


@st.composite
def prime_kernel_operands(draw):
    p = draw(st.sampled_from(KERNEL_PRIMES))
    coeffs = st.lists(st.integers(0, p - 1), max_size=120)
    return p, draw(coeffs), draw(coeffs)


@settings(max_examples=150, deadline=None)
@given(prime_kernel_operands())
def test_prime_kernel_property(operands):
    p, a, b = operands
    check_prime_kernel(gf.prime_field(p), a, b)


def test_row_reduce_packed_matches_generic_loop(rng):
    # Rank-deficient products (nrows x r) @ (r x ncols), ranked by the
    # packed prime-field path (over F_2 the XOR basis on byte rows) and by
    # the schoolbook elimination, down to no rows and 1 x 1.  Widths 8, 9,
    # 64 and 65 put a row's top entry on both sides of a word boundary of
    # the int.
    shapes = (
        (60, 60, 45), (60, 40, 12), (25, 60, 20), (9, 8, 5), (12, 8, 8), (10, 9, 9),
        (70, 64, 50), (64, 64, 64), (66, 65, 65), (20, 65, 7),
        (3, 3, 2), (3, 3, 3), (1, 70, 1), (1, 1, 1), (0, 4, 0),
    )
    for p in (2, 3, 251):
        F = gf.prime_field(p)
        for nrows, ncols, r in shapes:
            left = [[rng.randrange(p) for _ in range(r)] for _ in range(nrows)]
            right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(r)]
            rows = [
                [sum(x * right[k][j] for k, x in enumerate(row)) % p for j in range(ncols)]
                for row in left
            ]
            got = gf.rank(rows, F)
            assert got == Schoolbook(F).rank(rows), (p, nrows, ncols)
            assert got <= r
    # over F_2: all-zero rows, and rows that repeat, also after a zero row
    F = gf.prime_field(2)
    for ncols in (1, 8, 9, 64, 65):
        rows = [[rng.randrange(2) for _ in range(ncols - 1)] + [1] for _ in range(3)]
        zero = [0] * ncols
        for case in ([zero] * 4, rows * 3, [zero] + rows + [zero] + rows[::-1], [rows[0]] * 5):
            assert gf.rank(case, F) == Schoolbook(F).rank(case), (ncols, case)
        assert gf.rank([zero] * 4, F) == 0 and gf.rank([rows[0]] * 5, F) == 1


def random_product(F, nrows, ncols, r, rng):
    """The rows of a random (nrows x r) @ (r x ncols) product over F, of
    rank at most r."""
    left = [[F.random(rng) for _ in range(r)] for _ in range(nrows)]
    right = [[F.random(rng) for _ in range(ncols)] for _ in range(r)]
    rows = []
    for row in left:
        out = [F.zero] * ncols
        for x, right_row in zip(row, right):
            out = [F.add(acc, F.mul(x, y)) for acc, y in zip(out, right_row)]
        rows.append(out)
    return rows


def test_rank_over_extension_bases_matches_generic_loop(rng):
    # The F_q-rank from the F_p-rank of the prime coordinates scaled by
    # each basis scalar, against the schoolbook elimination; the scaled rows
    # of F_{(2^61-1)^2} fit no 8-byte slot, so they are packed wider.
    F4 = gf.base_field(2, 2)
    fields = [F4, gf.base_field(2, 3), gf.base_field(3, 2), gf.base_field(2, 4)]
    fields += [gf.extension(gf.extension(F4, 3), 2), gf.base_field(251, 2), gf.base_field(2**61 - 1, 2)]
    shapes = ((12, 10, 6), (10, 12, 10), (9, 8, 5), (3, 3, 2), (3, 3, 3), (1, 7, 1), (1, 1, 1), (0, 4, 0), (3, 0, 0))
    for F in fields:
        for nrows, ncols, r in shapes:
            rows = random_product(F, nrows, ncols, r, rng)
            got = gf.rank(rows, F)
            assert got == Schoolbook(F).rank(rows), (F, nrows, ncols)
            assert got <= r
        # a row and its multiples by every scalar span one dimension
        row = [F.random(rng) for _ in range(5)] + [F.one]
        multiples = [[F.mul(c, x) for x in row] for c in map(F.from_index, range(1, min(F.order, 40)))]
        assert gf.rank(multiples, F) == 1, F


def test_fold_matches_the_pmod_reference():
    # prime bases (1- to 8-byte product slots), extension bases, a depth-3
    # tower, degree-1 moduli, and an int64 and an object product dtype
    F2, F4 = gf.prime_field(2), gf.base_field(2, 2)
    F64 = gf.extension(F4, 3)
    fields = [
        gf.extension(F2, 8), gf.extension(gf.prime_field(3), 5), gf.base_field(251, 3),
        gf.base_field(65521, 2), gf.extension(F4, 3), gf.extension(gf.base_field(3, 2), 2),
        gf.extension(gf.base_field(2, 4), 3), F64, gf.extension(F64, 2),
        gf.ExtensionField(F2, (1, 1)), gf.ExtensionField(F4, (F4.from_index(3), F4.one)),
        gf.extension(gf.ExtensionField(gf.prime_field(3), (1, 1)), 3),
        gf.base_field(2**31 - 1, 2), gf.base_field(2**31 + 11, 2),
    ]
    for ext in fields:
        want, fold = fold_by_pmod(ext), ext._unit_fold
        assert fold.dtype == _linalg.dot_dtype(ext.char, ext._stride), ext
        assert fold[:, gf._unit_slots(ext)].astype(np.uint64).tobytes() == want.tobytes(), ext


def pcoprime_fields():
    """Fields of both paths of _pgcd_unit, F_p and extensions, in slots of
    up to 8 bytes and wider (at 2^61 - 1 and 2^31 + 11)."""
    F4 = gf.base_field(2, 2)
    fields = [gf.prime_field(p) for p in (2, 3, 251, 2**61 - 1)]
    fields += [F4, gf.base_field(3, 2), gf.base_field(2, 4), gf.extension(gf.extension(F4, 3), 2)]
    return fields + [gf.base_field(2**31 + 11, 2)]


def test_pcoprime_is_a_gcd_of_degree_zero(rng):
    for F in pcoprime_fields():
        unit = F.from_index(rng.randrange(1, min(F.order, 2**20)))
        for la, lb in ((1, 1), (2, 5), (6, 6), (9, 21), (25, 24), (30, 3)):
            g = (F.random(rng), F.one)
            a = gf.ptrim(F, [F.random(rng) for _ in range(la - 1)] + [unit])
            b = gf.ptrim(F, [F.random(rng) for _ in range(lb - 1)] + [F.one])
            pairs = [(a, b), (b, a), (gf.pmul(F, a, g), gf.pmul(F, b, g)), (a, ()), ((), b), ((), ())]
            pairs += [((unit,), b), (a, (unit,)), ((unit,), ())]
            z = gf.pmul(F, b, g)
            for x, y in pairs:
                want = gf.pdeg(gf.pgcd(F, x, y)) == 0
                assert gf.pcoprime(F, x, (y,)) == want, (F, x, y)
                want = gf.pdeg(gf.pgcd(F, gf.pgcd(F, x, y), z)) == 0
                assert gf.pcoprime(F, x, (y, z)) == want, (F, x, y, z)


@functools.lru_cache(maxsize=None)
def kernel_fields():
    """Extension fields for the packed kernel: 1-, 2-, 4- and 8-byte slots,
    towers of depth 2 and 3, F_{(2^31-1)^2}, whose products fit 8 bytes and
    whose gcd's slots do not, and F_{(2^31+11)^2} and F_{(2^61-1)^2}, whose
    products fit no 8 bytes (and the last, no fold in uint64 either).
    Each is paired with its Schoolbook reference."""
    F4 = gf.base_field(2, 2)
    F64 = gf.extension(F4, 3)
    fields = [
        F4,
        gf.base_field(2, 3),
        gf.base_field(3, 2),
        gf.base_field(2, 4),
        gf.base_field(251, 2),
        gf.base_field(65521, 2),
        F64,
        gf.extension(F64, 2),
        gf.base_field(2**31 - 1, 2),
        gf.base_field(2**31 + 11, 2),
        # modulus x^2 + 1 (see test_default_modulus_over_a_huge_prime)
        gf.base_field(2**61 - 1, 2),
    ]
    return [(F, Schoolbook(F)) for F in fields]


def check_extension_kernel(F, L, a, b, e):
    """pmul, pdivmod and pgcd over F against the Schoolbook L of F; for
    each coefficient pair, F's products, powers (to q and to e) and
    inverses in its context against L's."""
    a, b = gf.ptrim(F, a), gf.ptrim(F, b)
    assert gf.pmul(F, a, b) == L.pmul(a, b)
    assert gf.psub_x(F, a) == gf.psub(L, a, (F.zero, F.one))
    if len(a) * len(b) * F.prime_dim <= 400:  # the loop gcd is the slowest reference
        assert gf.pgcd(F, a, b) == L.pgcd(a, b)
    for i, (x, y) in enumerate(dict.fromkeys(zip(a, b))):  # all-maximal operands repeat one pair
        assert F.mul(x, y) == L.mul(x, y), (F, x, y)
        assert F.pow(x, F.base.order) == L.pow(x, F.base.order), (F, x)
        if i == 0:  # the loop references of these are the slowest
            assert F.pow(y, e) == L.pow(y, e), (F, y, e)
            if x != F.zero:
                assert F.inv(x) == L.inv(x), (F, x)
    if b:
        q, r = gf.pdivmod(F, a, b)
        assert (q, r) == L.pdivmod(a, b)
        for c in q + r:
            F.validate(c)
        assert gf.pdeg(r) < gf.pdeg(b)
        assert gf.padd(L, L.pmul(q, b), r) == a


def max_element(F):
    """The element whose prime coordinates are all p - 1."""
    return F.from_prime_coords([F.char - 1] * F.prime_dim)


def test_extension_kernel_matches_schoolbook_loop(rng):
    # Shapes from one coefficient up, with random and with all-maximal
    # operands, which fill every slot to its bound.
    shapes = [(1, 1), (2, 2), (1, 4), (3, 2), (5, 5), (6, 5), (9, 9), (10, 3), (12, 8), (30, 17), (40, 40)]
    for F, L in kernel_fields():
        for la, lb in shapes + [(rng.randrange(1, 40), rng.randrange(1, 40))]:
            if la * lb * F.prime_dim > 2400:
                continue  # the loop reference is slow on the larger fields
            a = [F.random(rng) for _ in range(la - 1)] + [max_element(F)]
            b = [F.random(rng) for _ in range(lb - 1)] + [F.random(rng)]
            e = rng.randrange(min(F.order, 2**40))
            check_extension_kernel(F, L, a, b, e)
            check_extension_kernel(F, L, b, a, e)
            top = max_element(F)
            check_extension_kernel(F, L, [top] * la, [top] * lb, e)
            # zero operands, and a common factor for a gcd of positive degree
            check_extension_kernel(F, L, (), b, e)
            check_extension_kernel(F, L, a, (), e)
            if la * lb * F.prime_dim <= 200:
                g = [F.random(rng), top, F.one]
                check_extension_kernel(F, L, L.pmul(a, g), L.pmul(gf.ptrim(F, b), g), e)


def test_extension_kernel_at_slot_boundaries():
    # Slot sums that reach the bound a slot is sized from, at the largest
    # operand length a 1-byte slot holds and one past it.  pmul: all-
    # maximal factors; (sum of top x^i)^2 has coefficient m * top^2 at x^k,
    # m being the number of ways to write k = i + j.  pdivmod: a dividend
    # q * b + r with maximal low coefficients, divided by a maximal b one
    # longer than q, so that the last remainder coefficient holds p - 1 plus
    # one product of two maximal elements for every quotient step.
    for F, L in kernel_fields()[:4]:  # F_4, F_8, F_9, F_16
        p, top = F.char, max_element(F)
        square = F.prime_coords(L.mul(top, top))
        per_term = F.prime_dim * (p - 1) ** 2
        for n in (255 // per_term, 255 // per_term + 1):
            want = [
                F.from_prime_coords([min(k + 1, 2 * n - 1 - k) * c % p for c in square])
                for k in range(2 * n - 1)
            ]
            assert gf.pmul(F, (top,) * n, (top,) * n) == gf.ptrim(F, want), (F, n)
        for n in ((255 - (p - 1)) // per_term, (255 - (p - 1)) // per_term + 1):
            b, q = (top,) * (n + 1), (F.neg(top),) * n
            qb = L.pmul(q, b)
            a = (top,) * n + qb[n:]
            want = (q, gf.psub(L, a[:n], qb[:n]))
            assert gf.pdivmod(F, a, b) == want, (F, n)
    # pgcd over an extension: the first step adds lc(s) r and -lc(r) x^k s
    # of all-maximal r and s, so that its middle slot (y^(D-1)) sums D
    # products (p - 1)^2 and D products (p - 1)^3, D p (p - 1)^2 in all:
    # 252 for F_{3^21}, in 1-byte slots, and 264 for F_{3^22}
    for D, width in ((21, 8), (22, 16)):
        F = gf.base_field(3, D)
        L, top = Schoolbook(F), max_element(F)
        assert gf._packed_slot(F, 3)[1] == width
        for m, n in ((6, 4), (5, 3)):
            r, s = (top,) * m, (top,) * n
            assert gf.pgcd(F, r, s) == L.pgcd(r, s), (F, m, n)
            assert gf.pcoprime(F, r, (s,)) == L.pcoprime(r, (s,)), (F, m, n)


@st.composite
def extension_kernel_operands(draw):
    F, L = draw(st.sampled_from(kernel_fields()))
    index = st.integers(0, F.order - 1).map(F.from_index)
    size = 24 if F.prime_dim <= 4 else 8
    coeffs = st.lists(st.one_of(index, st.just(max_element(F))), max_size=size)
    return F, L, draw(coeffs), draw(coeffs), draw(st.integers(0, 2**40))


@settings(max_examples=120, deadline=None)
@given(extension_kernel_operands())
def test_extension_kernel_property(operands):
    check_extension_kernel(*operands)


def test_pdivmod_inverts_only_a_non_monic_leading_coefficient(monkeypatch, rng):
    F = gf.base_field(2, 2)
    inversions = []
    real_inv = F.inv
    monkeypatch.setattr(F, "inv", lambda a: inversions.append(a) or real_inv(a))
    for la, lb in ((5, 3), (40, 12)):
        a = tuple(F.random(rng) for _ in range(la - 1)) + (F.one,)
        for lead in (F.one, F.from_index(3)):
            b = tuple(F.random(rng) for _ in range(lb - 1)) + (lead,)
            inversions.clear()
            quo, rem = gf.pdivmod(F, a, b)
            assert gf.padd(F, gf.pmul(F, quo, b), rem) == gf.ptrim(F, a)
            assert len(rem) < lb
            assert inversions == ([] if lead == F.one else [lead]), (la, lead)


def test_the_slot_alone_picks_the_packed_path(monkeypatch, rng):
    # pdivmod and pgcd pack at every field and size, down to 1-step
    # divisions by moduli of degree 1, in the slot _packed_slot sizes from
    # their sums: a slot of 1 to 8 bytes while the sums fit 64 bits, and
    # past that the fewest whole bytes that hold them
    fields = [F for F, _ in kernel_fields()]
    fields += [gf.prime_field(p) for p in (2, 3, 13, 251, 2**31 - 1, 2**61 - 1, 2**64 + 13)]
    calls = []  # (packed helper, the field it ran over, its slot)

    def recorder(name, real):
        return lambda F, *args: calls.append((name, F, args[-1])) or real(F, *args)

    def sized(F, terms, extra=0):
        bound = extra + terms * F.prime_dim * (F.char - 1) ** 2
        slot = gf._packed_slot(F, terms, extra)
        assert slot[1] >= bound.bit_length() and (slot[0] is None) == (bound >> 64 > 0), (F, bound, slot)
        assert slot[0] is not None or slot[1] - 8 < bound.bit_length(), (F, bound, slot)
        return slot

    for name in ("_pdivmod_packed", "_pgcd_packed", "_pgcd_ext_packed"):
        monkeypatch.setattr(gf, name, recorder(name, getattr(gf, name)))
    for F in fields:
        p, prime = F.char, isinstance(F, gf.PrimeField)
        for d in (1, 2, 3, 4):
            # a non-monic modulus: pdivmod inverts its leading coefficient
            f = tuple(F.random(rng) for _ in range(d)) + (max_element(F),)
            assert gf._Barrett(F, f).slot == sized(F, 2 * d - 1), (F, d)
            for la in (d + 1, d + 2, 3 * d):
                a = tuple(F.random(rng) for _ in range(la - 1)) + (F.one,)
                calls.clear()
                gf.pdivmod(F, a, f)
                slot = sized(F, min(la - d, d + 1) if F.prime_dim * p > 2 else 0, p - 1)
                assert ("_pdivmod_packed", F, slot) in calls, (F, d, la)
                calls.clear()
                gf.pgcd(F, a, f)
                if prime:
                    name, slot = "_pgcd_packed", sized(F, d + 1 if p > 2 else 0, p - 1)
                else:
                    name, slot = "_pgcd_ext_packed", sized(F, p)
                assert (name, F, slot) in calls, (F, d, la)


def test_read_inverts_the_packed_layout(rng):
    # _read of canonically packed elements gives them back, over every
    # kernel field (towers of depth 2 and 3 gather their prime coordinates,
    # F_p[y]/(m) slices each stride) and their prime fields, at every slot
    # width from the narrowest that holds a product, past 8 bytes too; and
    # a _Barrett context unpacks a packed residue to it, trimmed
    fields = [F for F, _ in kernel_fields()]
    fields += [gf.prime_field(p) for p in (2, 3, 251, 65521, 2**31 - 1, 2**61 - 1, 2**64 + 13)]
    for F in fields:
        elems = [max_element(F), F.zero] + [F.random(rng) for _ in range(5)]
        for slot in gf._SLOT_CODES + ((None, 72), (None, 136), (None, 200)):
            if slot[1] < gf._packed_slot(F, 1)[1]:
                continue
            packed = gf._pack(gf._slots(F, elems), slot)
            assert list(gf._read(F, packed, len(elems), slot)) == elems, (F, slot)
        for d in (1, 2, 3):
            f = tuple(F.random(rng) for _ in range(d)) + (F.one,)
            ctx = gf._Barrett(F, f)
            for a in (elems[:d], [max_element(F)] * (d - 1) + [F.zero], [F.zero] * d):
                assert ctx.unpack(ctx.pack(a)) == gf.ptrim(F, a), (F, d, a)


def test_pdivmod_by_a_constant_is_a_scaling(monkeypatch, rng):
    # A constant divisor c gives (a c^-1, ()), with no long division: the
    # packed division and the field's subtraction are never called.  Over
    # F_2, F_5, F_4, F_9 and a depth-2 tower, for c = 1 and c != 1, and
    # for a = ().
    F4 = gf.base_field(2, 2)
    fields = [gf.prime_field(2), gf.prime_field(5), F4, gf.base_field(3, 2), gf.extension(F4, 3)]
    real_packed, divided = gf._pdivmod_packed, []
    monkeypatch.setattr(gf, "_pdivmod_packed", lambda F, *args: divided.append(F) or real_packed(F, *args))
    for F in fields:
        for c in {F.one, F.from_index(F.order - 1)}:
            for la in (0, 1, 2, 7, 40):
                a = gf.ptrim(F, [F.random(rng) for _ in range(la - 1)] + [F.one][: la > 0])
                want = tuple(F.mul(x, F.inv(c)) for x in a)
                with monkeypatch.context() as m:
                    m.setattr(F, "sub", None)
                    assert gf.pdivmod(F, a, (c,)) == (want, ()), (F, c, la)
                assert gf.pmul(F, want, (c,)) == a and F not in divided, (F, c, la)


def test_extension_gcd_at_large_primes(rng):
    # The fraction-free gcd over F_{65521^2} in 8-byte slots, and over
    # F_{(2^31-1)^2}, whose products fit 8 bytes, and F_{(2^31+11)^2},
    # whose products do not, in 12-byte ones
    fields = [(F, L) for F, L in kernel_fields() if F.char in (65521, 2**31 - 1, 2**31 + 11)]
    assert [gf._packed_slot(F, F.char) for F, _ in fields] == [("Q", 64), (None, 96), (None, 96)]
    for F, L in fields:
        for la, lb in ((7, 5), (4, 4), (9, 2)):
            a = [F.random(rng) for _ in range(la)]
            b = [F.random(rng) for _ in range(lb)]
            g = (F.random(rng), max_element(F), F.one)
            for x, y in ((a, b), (L.pmul(a, g), L.pmul(b, g))):
                x, y = gf.ptrim(F, x), gf.ptrim(F, y)
                assert gf.pgcd(F, x, y) == L.pgcd(x, y), (F, x, y)
                assert gf.pcoprime(F, x, (y,)) == L.pcoprime(x, (y,)), (F, x, y)


def test_pgcd_over_an_extension_inverts_at_most_once(monkeypatch, rng):
    # the fraction-free Euclid leaves only pmonic's inversion, and none
    # when the gcd is a constant
    F = gf.base_field(2, 4)
    inversions = []
    real_inv = F.inv
    monkeypatch.setattr(F, "inv", lambda a: inversions.append(a) or real_inv(a))
    for _ in range(10):
        a = tuple(F.random(rng) for _ in range(12)) + (F.random(rng),)
        b = tuple(F.random(rng) for _ in range(9)) + (F.from_index(5),)
        g = (F.random(rng), F.from_index(3))
        for x, y in ((a, b), (gf.pmul(F, a, g), gf.pmul(F, b, g))):
            inversions.clear()
            gcd = gf.pgcd(F, gf.ptrim(F, x), y)
            assert len(inversions) <= (len(gcd) > 1)


# Fields for the Barrett context and the Frobenius chain: F_2 (slot mod 2
# by one AND), odd primes and extension fields (numpy reductions), a
# depth-3 tower, and slots past 8 bytes: over F_(2^31 - 1) from degree 3
# (5 terms), over F_(2^64 + 13) 17 bytes, and over F_((2^61 - 1)^2) with a
# fold in Python ints.
@functools.lru_cache(maxsize=None)
def barrett_fields():
    F4 = gf.base_field(2, 2)
    fields = [gf.prime_field(2), gf.prime_field(3), gf.prime_field(251), F4]
    fields += [gf.base_field(3, 2), gf.base_field(2, 4), gf.extension(gf.extension(F4, 3), 2)]
    fields += [gf.prime_field(2**31 - 1), gf.prime_field(2**64 + 13), gf.base_field(2**61 - 1, 2)]
    return [(F, Schoolbook(F)) for F in fields]


def check_barrett(F, L, f, operands):
    """The context's products mod f and ppow_mod over F against the
    Schoolbook L of F."""
    ctx = gf._Barrett(F, f)
    for a, b in operands:
        a, b = gf.ptrim(F, a), gf.ptrim(F, b)
        want = L.pmod(L.pmul(a, b), f)
        assert ctx.unpack(ctx.mul(ctx.pack(a), ctx.pack(b))) == want, (F, f, a, b)
    d, q = len(f) - 1, F.order
    exponents = (0, 1, q, q**d) if d * F.prime_dim <= 12 else (0, 1, q)
    base = operands[0][0]
    for e in exponents:
        want = L.ppow_mod(base, e, f)
        assert gf.ppow_mod(F, base, e, f) == want, (F, f, e)
        assert ctx.unpack(ctx.pow(ctx.pack(L.pmod(base, f)), e)) == want, (F, f, e)


def test_barrett_matches_schoolbook_loop(rng):
    # monic and non-monic moduli from degree 1, random, zero and
    # all-maximal operands, and a base longer than the modulus
    for F, L in barrett_fields():
        top = max_element(F)
        for d in (1, 2, 3, 5, 8, 13):
            if d * F.prime_dim > (26 if F.order < 2**16 else 4):
                continue  # the loop reference is slow on the larger fields
            for lead in (F.one, top):
                f = tuple(F.random(rng) for _ in range(d)) + (lead,)
                residue = [F.random(rng) for _ in range(d)]
                operands = [(residue, [F.random(rng) for _ in range(d)]), ([top] * d, [top] * d), ((), [top] * d)]
                check_barrett(F, L, f, operands)
                longer = gf.ptrim(F, [F.random(rng) for _ in range(2 * d + 3)] + [top])
                assert gf.ppow_mod(F, longer, F.order, f) == L.ppow_mod(longer, F.order, f)


def test_barrett_at_slot_boundaries():
    # All-maximal operands at the largest degree d whose slot sums, up to
    # (2d - 1) * prime_dim * (p - 1)^2, fit a 1-byte slot, and one past it
    fields = barrett_fields()
    for F, L in (fields[0], fields[1], fields[3], fields[4]):  # F_2, F_3, F_4, F_9
        top = max_element(F)
        d_max = (255 // (F.prime_dim * (F.char - 1) ** 2) + 1) // 2
        for d in (d_max, d_max + 1):
            for f in ((top,) * d + (F.one,), (top,) * (d + 1)):
                ctx = gf._Barrett(F, f)
                assert ctx.slot[1] == (8 if d == d_max else 16), (F, d)
                a = (top,) * d
                want = L.pmod(L.pmul(a, a), f)
                assert ctx.unpack(ctx.mul(ctx.pack(a), ctx.pack(a))) == want, (F, d)


def test_barrett_where_the_fold_product_needs_uint64(rng):
    # Over F_{p^2}, p = 2^28 - 57, the fold's sums 3 (p - 1)^2 pass 2^53,
    # so _reduce multiplies in uint64, not float64; a context of degree 2
    # still packs, in 8-byte slots
    F = gf.base_field(2**28 - 57, 2)
    assert F._unit_fold.dtype == np.uint64
    top = max_element(F)
    f = (F.random(rng), top, F.one)
    assert gf._Barrett(F, f).slot == ("Q", 64)
    operands = [([top] * 2, [top] * 2), ([F.random(rng), top], [F.random(rng), F.random(rng)])]
    check_barrett(F, Schoolbook(F), f, operands)


def check_int_reduce(F, n, slot, words):
    """_reduce and _canon on the int over F_p or F_p[y]/(f), on n raw packed
    elements (words: their slots), against the slots mod p and, over an
    extension, the _unit_fold product that towers and wider odd-p slots
    reduce by, and the prime coordinates that product leaves."""
    assert gf._int_reduces(F, slot), (F, slot)
    p, raw = F.char, gf._pack(words, slot)
    dt = np.dtype(slot[0]).newbyteorder("<")
    slots = np.array(words, dtype=np.uint64).reshape(n, F._stride) % p
    if isinstance(F, gf.PrimeField):
        want, coords = slots, slots
    else:
        want = slots @ F._unit_fold.astype(np.uint64) % p
        coords = want[:, gf._unit_slots(F)]
    assert gf._reduce(F, raw, n, slot) == int.from_bytes(want.astype(dt).tobytes(), "little"), (F, n, slot)
    assert list(gf._canon(F, raw, n, slot)) == [F.from_prime_coords(c) for c in coords.tolist()], (F, n)


def test_char2_reduce_matches_the_unit_fold_product(rng):
    # Over F_4, F_8, F_16 and F_{2^8}, raw slots up to the bound of each
    # caller: Barrett contexts of degree d = 2 and 40 (2d - 1 terms), the
    # extension gcd (p D (p - 1)^2) and pdivmod (p - 1 plus 9 steps' terms);
    # 1-byte slots, and 2-byte ones for the degree-40 context over F_16 and
    # F_{2^8}.  Random slots, and every slot at the bound.
    for F in (gf.base_field(2, k) for k in (2, 3, 4, 8)):
        D = F.prime_dim
        for bound in (3 * D, 79 * D, 2 * D, 1 + 9 * D):
            slot = gf._slot(bound)
            for n in (1, 2, 13, 40):
                check_int_reduce(F, n, slot, [rng.randrange(bound + 1) for _ in range(n * F._stride)])
            check_int_reduce(F, 13, slot, [bound] * (13 * F._stride))


def test_char2_reduce_at_the_gcd_slot_edges(rng):
    # The gcd's slot sums reach 2 D: 254 in 1-byte slots over F_{2^127}
    # (x^127 + x + 1), and 256 in 2-byte ones over F_{2^128}
    # (x^128 + x^7 + x^2 + x + 1).  The gcd of x^d - 1 with x's conjugate
    # polynomial runs there unfolded (is_normal's criterion folds it to
    # x - 1 at d = 128) and must agree with the rank criterion.
    from normbase import oracle, polyring

    F2 = gf.prime_field(2)
    for low, width in (((1, 1), 8), ((1, 1, 1, 0, 0, 0, 0, 1), 16)):
        d = 127 if width == 8 else 128
        F = gf.ExtensionField(F2, low + (0,) * (d - len(low)) + (1,))
        slot = gf._packed_slot(F, 2)
        assert slot[1] == width
        for n in (1, 2, 13):
            check_int_reduce(F, n, slot, [rng.randrange(2 * d + 1) for _ in range(n * F._stride)])
            check_int_reduce(F, n, slot, [2 * d] * (n * F._stride))
        rows = oracle.conjugate_matrix(F.gen, F)
        coprime = gf.pcoprime(F, polyring.x_pow_minus_one(d, F).coeffs, (gf.ptrim(F, rows),))
        assert coprime == (oracle.rank_over_field(rows, F2) == d)


def test_odd_byte_reduce_matches_the_unit_fold_product(rng):
    # 1-byte slots over odd p go mod p by one bytes.translate, and over
    # F_p[y]/(f) through Barrett's quotient in y.  Raw slots up to the bound
    # of each caller whose sums fit a byte: t = D (p - 1)^2 per product
    # (pmul, Barrett contexts), p t (the extension gcd), p - 1 plus as many
    # terms as fit (pdivmod, the F_p gcd), and 255, every byte.  F_{3^21}
    # is the widest field whose gcd slot stays 1-byte (3 * 21 * 4 = 252).
    fields = [gf.prime_field(p) for p in (3, 5, 7, 11, 13)]
    fields += [gf.base_field(p, k) for p, k in ((3, 2), (5, 2), (3, 3), (3, 21))]
    slot = ("B", 8)
    for F in fields:
        p, t = F.char, F.prime_dim * (F.char - 1) ** 2
        bounds = {t, 255 // t * t, p - 1 + (256 - p) // t * t, 255}
        bounds |= {p * t} if p * t <= 255 else set()
        for bound in sorted(bounds):
            for n in (1, 2, 13, 40):
                check_int_reduce(F, n, slot, [rng.randrange(bound + 1) for _ in range(n * F._stride)])
            check_int_reduce(F, 13, slot, [bound] * (13 * F._stride))
        # wider slots keep numpy
        assert not gf._int_reduces(F, ("H", 16)), F
    assert gf._packed_slot(fields[-1], 3) == slot


def test_char2_euclid_and_division_by_xor(rng):
    # _pgcd_packed and _pdivmod_packed over F_2, one XOR per step, against
    # the schoolbook loops, in 1- and 2-byte slots: constant, equal-degree
    # and dividing operands, a == b, and zero through pgcd and pdivmod
    F, L = gf.prime_field(2), Schoolbook(gf.prime_field(2))

    def poly(n):
        return tuple(rng.randrange(2) for _ in range(n - 1)) + (1,)

    for la, lb in ((1, 1), (5, 1), (1, 5), (2, 2), (7, 7), (9, 4), (33, 32), (64, 20), (300, 299)):
        a, b = poly(la), poly(lb)
        pairs = [(a, b), (gf.pmul(F, a, b), b), (a, a), (gf.pmul(F, a, poly(3)), gf.pmul(F, b, poly(3)))]
        for x, y in pairs:
            for slot in (("B", 8), ("H", 16)):
                assert gf._pgcd_packed(F, x, y, slot) == L.pgcd(x, y), (x, y, slot)
                if len(x) >= len(y):
                    got = gf._pdivmod_packed(F, x, y, len(x) - len(y) + 1, slot)
                    assert got == L.pdivmod(x, y), (x, y, slot)
            assert gf.pgcd(F, x, y) == L.pgcd(x, y), (x, y)
            assert gf.pdivmod(F, x, y) == L.pdivmod(x, y), (x, y)
        for x in (a, ()):
            assert gf.pgcd(F, x, ()) == gf.pgcd(F, (), x) == L.pgcd(x, ()), x
            assert gf.pdivmod(F, (), x or (1,)) == ((), ())


def test_char2_xor_slots_stay_one_byte(monkeypatch, rng):
    # Over F_2 the Euclid and the division XOR and never sum, so pgcd and
    # pdivmod pack 1-byte slots also past the 255 coefficients from which
    # a summing slot would need 2 bytes
    F, L = gf.prime_field(2), Schoolbook(gf.prime_field(2))
    slots = []
    for name in ("_pgcd_packed", "_pdivmod_packed"):
        real = getattr(gf, name)
        monkeypatch.setattr(gf, name, lambda *args, real=real: slots.append(args[-1]) or real(*args))
    for n in (300, 511):
        a = tuple(rng.randrange(2) for _ in range(n - 1)) + (1,)
        b = tuple(rng.randrange(2) for _ in range(n - 2)) + (1,)
        ab = gf.pmul(F, a, b)
        for x, y in ((a, b), (ab, a), (ab, gf.pmul(F, b, (1, 1)))):
            assert gf.pgcd(F, x, y) == L.pgcd(x, y), (n, x, y)
            assert gf.pdivmod(F, x, y) == L.pdivmod(x, y), (n, x, y)
    assert len(slots) == 12 and set(slots) == {("B", 8)}


def test_rank_reads_prime_coordinates_in_one_array(monkeypatch, rng):
    # rank over an extension base builds its prime coordinates by one
    # np.array of the nested element tuples; they must come out in
    # prime_coords order, towers included
    seen = []
    real = _linalg.scale_by_basis
    monkeypatch.setattr(_linalg, "scale_by_basis", lambda coords, F: seen.append(coords) or real(coords, F))
    F4 = gf.base_field(2, 2)
    for F in (F4, gf.base_field(3, 2), gf.base_field(2, 4), gf.extension(gf.extension(F4, 2), 2)):
        rows = [[F.random(rng) for _ in range(5)] for _ in range(4)]
        seen.clear()
        gf.rank(rows, F)
        want = [[x for c in row for x in F.prime_coords(c)] for row in rows]
        assert seen[0].tolist() == want, F


def test_ppow_mod_and_pirreducible_in_wide_slots(rng):
    # F_{(2^61-1)^2} has no 8-byte slot: ppow_mod and pirreducible run in
    # a context of 16-byte slots, against the Schoolbook
    F, L = kernel_fields()[-1]
    x, q = (F.zero, F.one), F.order
    for d in (2, 3):
        f = tuple(F.random(rng) for _ in range(d)) + (F.one,)
        assert gf._Barrett(F, f).slot == (None, 128)
        for e in (0, 1, q, q**2):
            assert gf.ppow_mod(F, x, e, f) == L.ppow_mod(x, e, f), (d, e)
        assert gf.pirreducible(F, f) == rabin_reference(L, f)


def test_pirreducible_builds_a_context_only_to_reduce(monkeypatch):
    # Over F_2, h_k = x^(2^k) needs no reduction mod f of degree 64 while
    # k < 6: a candidate with the root 1 fails Ben-Or's gcd at k = 1 before
    # the chain builds a context, and an irreducible one builds exactly one.
    built = []

    class Counting(gf._Barrett):
        def __init__(self, F, f):
            built.append(f)
            super().__init__(F, f)

    F = gf.prime_field(2)
    m = gf.first_irreducible(F, 64)
    monkeypatch.setattr(gf, "_Barrett", Counting)
    assert not gf.pirreducible(F, (1, 1, 0, 1) + (0,) * 60 + (1,))  # x^64 + x^3 + x + 1
    assert built == []
    assert gf.pirreducible(F, m)
    assert built == [m]


def test_an_extension_field_builds_one_context(monkeypatch, rng):
    # mul, pow, frobenius, x_q_powers and the Frobenius matrix of a field
    # all run in the one context mod its modulus (the modulus search,
    # before the count, builds contexts of its own)
    fields = [
        gf.extension(gf.prime_field(2), 8), gf.extension(gf.prime_field(3), 7),
        gf.extension(gf.base_field(2, 2), 3), gf.base_field(3, 2),
    ]
    built = []

    class Counting(gf._Barrett):
        def __init__(self, F, f):
            built.append((F, f))
            super().__init__(F, f)

    monkeypatch.setattr(gf, "_Barrett", Counting)
    for ext in fields:
        a, b = ext.random(rng), ext.random(rng)
        ext.mul(a, b)
        ext.pow(a, 5)
        ext.frobenius(b)
        assert ext.x_q_powers() == ext.x_q_powers()
        _linalg.frobenius_matrix(ext)
        assert built == [(ext.base, ext.modulus)], ext
        built.clear()


def rabin_reference(L, f) -> bool:
    """Rabin's test with the arithmetic of a Schoolbook L, each power of x
    computed from x."""
    d, x = len(f) - 1, (L.zero, L.one)
    if d == 1:
        return True
    if L.ppow_mod(x, L.order**d, f) != x:
        return False
    for r in (r for r in range(2, d + 1) if d % r == 0 and all(r % s for s in range(2, r))):
        if len(L.pgcd(gf.psub(L, L.ppow_mod(x, L.order ** (d // r), f), x), f)) > 1:
            return False
    return True


def test_pirreducible_matches_the_degree_scan_exhaustively():
    # every monic polynomial of each degree against the irreducibles of the
    # numpy coefficient scan, which runs Rabin's test on its own
    for q, top in ((2, 10), (3, 6), (4, 5)):
        F = gf.field_of_order(q)
        for d in range(1, top + 1):
            rows = coefficient_scan(d, q).coeff_rows.tolist()
            want = {tuple(F.from_index(int(i)) for i in row) for row in rows}
            got = set()
            for num in range(q**d):
                f = tuple(F.from_index(num // q**i % q) for i in range(d)) + (F.one,)
                if gf.pirreducible(F, f):
                    got.add(f[:-1])
            assert got == want, (q, d)


@st.composite
def irreducibility_operands(draw):
    """A candidate of degree d <= 12 (4 over F_16) times a nonzero lead:
    random, or one of the reducible shapes that Ben-Or's gcds must reject
    by k = d/2, with no check at k = d: g^2 h, a product of two
    irreducibles of degree d/2, and x h."""
    F5 = gf.prime_field(5)
    F, L = draw(st.sampled_from(barrett_fields()[:6] + [(F5, Schoolbook(F5))]))
    d = draw(st.integers(1, 12 if F.prime_dim <= 2 else 4))
    rng = draw(st.randoms(use_true_random=False))

    def monic(n):
        return tuple(F.random(rng) for _ in range(n)) + (F.one,)

    shape = draw(st.sampled_from(("random", "square", "halves", "by_x")))
    f = monic(d)
    if shape == "square" and d >= 2:
        g = monic(rng.randint(1, d // 2))
        f = gf.pmul(F, gf.pmul(F, g, g), monic(d + 2 - 2 * len(g)))
    elif shape == "halves" and d % 2 == 0:
        g, h = (next(c for c in iter(lambda: monic(d // 2), None) if gf.pirreducible(F, c)) for _ in range(2))
        f = gf.pmul(F, g, h)
    elif shape == "by_x":
        f = (F.zero,) + monic(d - 1)
    lead = draw(st.integers(1, F.order - 1).map(F.from_index))
    return F, L, gf.pscale(F, f, lead)


@settings(max_examples=120, deadline=None)
@given(irreducibility_operands())
def test_pirreducible_property(operands):
    # non-monic candidates too: the verdict is that of the monic associate
    F, L, f = operands
    assert gf.pirreducible(F, f) == rabin_reference(L, gf.pmonic(L, f))


def test_each_modulus_is_tested_once(monkeypatch):
    tested = []
    real = gf.pirreducible
    monkeypatch.setattr(gf, "pirreducible", lambda F, f: tested.append(tuple(f)) or real(F, f))
    F = gf.prime_field(3)
    E = gf.extension(F, 5)
    assert tested.count(E.modulus) == 1
    tested.clear()
    assert gf.irreducible_extension(F, E.modulus) == E
    assert tested == [E.modulus]
    # x^2 + 2 = (x - 1)(x + 1)
    assert gf.irreducible_extension(F, (2, 0, 1)) is None
    with pytest.raises(ValueError):
        gf.extension(F, 2, modulus=(2, 0, 1))
    with pytest.raises(ValueError):
        gf.ExtensionField(F, (2, 0, 1))
    with pytest.raises(ValueError):
        gf.irreducible_extension(F, (1, 0, 2))  # not monic


def test_default_modulus_over_a_huge_prime():
    # x^2 + 1 is irreducible as 2^61 - 1 = 3 mod 4, and it is the first
    # candidate; the search counts its candidates lazily, so it never lists
    # the base field's elements
    assert gf.base_field(2**61 - 1, 2).modulus == (1, 0, 1)


def test_monic_candidates_walk_the_lexicographic_order():
    # against itertools.product over the listed elements, constant
    # coefficient first, from the start and from an offset
    for F, d in ((gf.prime_field(2), 3), (gf.prime_field(3), 2), (gf.base_field(2, 2), 2)):
        want = [tail + (F.one,) for tail in itertools.product(list(F.elements()), repeat=d)]
        assert list(gf.monic_candidates(F, d)) == want
        assert list(gf.monic_candidates(F, d, start=5)) == want[5:]
    assert list(gf.monic_candidates(gf.prime_field(5), 0)) == [(1,)]


def test_field_of_order():
    assert gf.field_of_order(7).order == 7
    assert gf.field_of_order(9).order == 9
    assert gf.field_of_order(16).order == 16
    assert gf.field_of_order(16) is gf.field_of_order(16)
    for _ in range(2):
        with pytest.raises(ValueError):
            gf.field_of_order(12)
