"""Dense univariate polynomials over any field from the gf module.

Polynomials are immutable and always normalized (no stored leading zeros);
the zero polynomial has the distinguished degree NEG_INF so that degree
comparisons and degree arithmetic stay honest.  Beyond ring arithmetic this
module provides irreducibility testing, complete factorization, cyclotomic
polynomials, and the structured factorization of x^n - 1 grouped by divisor.

Factorization is squarefree decomposition, then gf.pdistinct_degree's
Frobenius chain, then equal-degree splitting.  The chain takes a gcd at
every step until f first splits (Ben-Or mode, the test of is_irreducible);
after that it takes one gcd per block of steps k = s .. 2s - 1 and resolves
only a nontrivial one by degree (factoring mode).  While x^(q^k) has
degree below 2 deg f it is one division by f, so a context mod f is built
only at the first step that squares a residue.  The equal-degree stage is
Cantor-Zassenhaus at every field size (the F_2-trace map in characteristic
2), drawing from a random.Random seeded with DEFAULT_FACTOR_SEED unless the
caller overrides it.  Factor lists are always sorted by (degree,
lexicographic coefficients), so they do not depend on the seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from . import counting, gf
from .errors import VerificationError

NEG_INF = float("-inf")

DEFAULT_FACTOR_SEED = 20570


class Poly:
    """Little-endian coefficient vector over a fixed field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = field
        self.coeffs = gf.ptrim(field, tuple(coeffs))

    @classmethod
    def of(cls, field, coeffs):
        """Construct with coefficient validation (use for external input)."""
        coeffs = tuple(coeffs)
        for c in coeffs:
            field.validate(c)
        return cls(field, coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @property
    def degree(self):
        """The degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def monic(self) -> "Poly":
        return Poly(self.field, gf.pmonic(self.field, self.coeffs))

    def _check_same_ring(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            raise ValueError("polynomials belong to different coefficient fields")

    def __add__(self, other):
        self._check_same_ring(other)
        return Poly(self.field, gf.padd(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check_same_ring(other)
        return Poly(self.field, gf.psub(self.field, self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly(self.field, gf.pneg(self.field, self.coeffs))

    def __mul__(self, other):
        self._check_same_ring(other)
        return Poly(self.field, gf.pmul(self.field, self.coeffs, other.coeffs))

    def __pow__(self, e: int):
        """Square and multiply from the top bit of e: base**1 is base."""
        if e < 0:
            raise ValueError("negative polynomial power")
        if not e:
            return Poly.one(self.field)
        result = self
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __divmod__(self, other):
        self._check_same_ring(other)
        q, r = gf.pdivmod(self.field, self.coeffs, other.coeffs)
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def evaluate(self, a):
        """Horner evaluation at a point of the coefficient field."""
        return gf.peval(self.field, self.coeffs, a)

    def derivative(self) -> "Poly":
        F = self.field
        out = [
            F.mul(c, gf_int(F, i))
            for i, c in enumerate(self.coeffs)
            if i >= 1
        ]
        return Poly(F, out)

    def lift(self, ext) -> "Poly":
        """The same polynomial with coefficients embedded into an extension
        of this polynomial's field."""
        if ext.base != self.field:
            raise ValueError("can only lift into an extension of the coefficient field")
        return Poly(ext, tuple(ext.embed(c) for c in self.coeffs))

    def sort_key(self):
        """(degree, coefficient encodings from the constant term upward)."""
        F = self.field
        return (len(self.coeffs), tuple(F.index(c) for c in self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "Poly<0>"
        F = self.field
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == F.zero:
                continue
            if i == 0:
                terms.append(_coeff_str(F, c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if c == F.one else f"{_coeff_str(F, c)}*{xi}")
        return f"Poly<{' + '.join(terms)}>"


def _coeff_str(F, c) -> str:
    return str(c) if isinstance(c, int) else "(" + ",".join(map(str, c)) + ")"


def gf_int(F, i: int):
    """The image of the integer i in F (i.e. i copies of one)."""
    if isinstance(F, gf.PrimeField):
        return i % F.p
    return F.embed(gf_int(F.base, i))


def product(field, polys) -> Poly:
    """The product of polys over the field (one for none), multiplied
    pairwise in a balanced tree, so that the packed products stay short."""
    polys = list(polys) or [Poly.one(field)]
    while len(polys) > 1:
        polys = [a * b for a, b in zip(polys[::2], polys[1::2])] + polys[len(polys) & ~1 :]
    return polys[0]


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(f, 0) is monic(f) and gcd(0, 0) is 0."""
    f._check_same_ring(g)
    return Poly(f.field, gf.pgcd(f.field, f.coeffs, g.coeffs))


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's criterion: x^(q^k) - x is coprime to f for every
    k <= deg(f) / 2 (gf.pirreducible)."""
    if f.degree is NEG_INF or f.degree < 1:
        raise ValueError("irreducibility is undefined for constants")
    return gf.pirreducible(f.field, f.coeffs)


def poly_trace(f: Poly):
    """The x^(n-1) coefficient of a monic degree-n polynomial.  The field
    trace of a root is the negation of this value; both vanish together."""
    if f.degree is NEG_INF or f.degree < 1:
        raise ValueError("trace needs degree >= 1")
    if not f.is_monic():
        raise ValueError("trace is defined for monic polynomials")
    return f.coeffs[len(f.coeffs) - 2]


def monic_polys(field, degree: int):
    """All monic polynomials of exact degree, in lexicographic order."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return (Poly(field, coeffs) for coeffs in gf.monic_candidates(field, degree))


@dataclasses.dataclass
class Factorization:
    """Pairwise-coprime monic parts with multiplicities; when
    irreducible_parts is set every base is irreducible."""

    parts: list[tuple[Poly, int]]
    irreducible_parts: bool = False

    def product(self) -> Poly:
        if not self.parts:
            raise ValueError("empty factorization")
        return product(self.parts[0][0].field, (base**mult for base, mult in self.parts))

    def validate(self, expected: Poly | None = None) -> None:
        if not self.parts:
            raise ValueError("empty factorization")
        for base, mult in self.parts:
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            if base.degree is NEG_INF or base.degree < 1:
                raise ValueError("bases must have degree >= 1")
            if not base.is_monic():
                raise ValueError("bases must be monic")
            if self.irreducible_parts and not is_irreducible(base):
                raise ValueError(f"{base!r} is not irreducible")
        for (a, _), (b, _) in itertools.combinations(self.parts, 2):
            if not gf.pcoprime(a.field, a.coeffs, (b.coeffs,)):
                raise ValueError(f"parts {a!r} and {b!r} share a factor")
        if expected is not None and self.product() != expected.monic():
            raise ValueError("factorization does not reconstruct the input")

    def sorted(self) -> "Factorization":
        parts = sorted(self.parts, key=lambda bm: bm[0].sort_key())
        return Factorization(parts, self.irreducible_parts)

    def to_json_obj(self) -> list[dict]:
        from . import textio

        return [
            {
                "base": textio.format_poly(base),
                "multiplicity": mult,
                "degree": len(base.coeffs) - 1,
            }
            for base, mult in self.parts
        ]


# ---------------------------------------------------------------------------
# Complete factorization: squarefree part, then distinct-degree, then
# equal-degree splitting.
# ---------------------------------------------------------------------------


def _pth_root(f: Poly) -> Poly:
    """For f = g(x^p), recover g; coefficient roots are c^(q/p)."""
    F = f.field
    p = F.char
    root_pow = F.order // p
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p:
            if c != F.zero:
                raise VerificationError("polynomial is not of the form g(x^p)")
        else:
            out.append(F.pow(c, root_pow))
    return Poly(F, out)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree pairwise-coprime g_i with f.monic() = prod g_i^i."""
    F = f.field
    p = F.char
    out: dict[int, Poly] = {}

    def account(g: Poly, mult: int):
        if g.degree != 0:
            out[mult] = out[mult] * g if mult in out else g

    def walk(g: Poly, mult: int):
        dg = g.derivative()
        if dg.is_zero():
            walk(_pth_root(g), mult * p)
            return
        c = gcd(g, dg)
        w = g // c
        i = 1
        while w.degree != 0:
            y = gcd(w, c)
            account(w // y, mult * i)
            w, c = y, c // y
            i += 1
        if c.degree != 0:
            walk(_pth_root(c), mult * p)

    if f.degree is NEG_INF or f.degree < 1:
        raise ValueError("cannot decompose a constant")
    walk(f.monic(), 1)
    return [(g, mult) for mult, g in sorted(out.items())]


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus splitting of a squarefree monic f whose irreducible
    factors all have degree d."""
    F = f.field
    q = F.order
    out = []
    stack = [f]
    while stack:
        u = stack.pop()
        if u.degree == d:
            out.append(u)
            continue
        ctx = gf._barrett(F, u.coeffs)  # shared by the retries on u
        while True:
            h = Poly(F, tuple(F.random(rng) for _ in range(int(u.degree))))
            if h.degree is NEG_INF or h.degree < 1:
                continue
            # h has degree below that of u: it is its own residue
            if F.char == 2:
                # Even characteristic: gcd with the F_2-trace map of h.
                acc = g = ctx.pack(h.coeffs)
                for _ in range(F.prime_dim * d - 1):
                    g = ctx.mul(g, g)
                    acc = ctx.add(acc, g)
                w = gcd(u, Poly(F, ctx.unpack(acc)))
            else:
                g = Poly(F, ctx.unpack(ctx.pow(ctx.pack(h.coeffs), (q**d - 1) // 2)))
                w = gcd(u, g - Poly.one(F))
            if 0 < w.degree < u.degree:
                break
        stack.append(w)
        stack.append(u // w)
    return out


def factor(f: Poly, rng: random.Random | None = None, seed: int | None = None) -> Factorization:
    """Complete monic irreducible factorization of f (degree >= 1).

    Reproducible by construction: pass rng or seed to override the default
    seed.  The parts are sorted, so they do not depend on the seed."""
    if f.degree is NEG_INF or f.degree < 1:
        raise ValueError("cannot factor a constant")
    if rng is None:
        rng = random.Random(DEFAULT_FACTOR_SEED if seed is None else seed)
    found: dict[Poly, int] = {}
    for g, mult in squarefree_decomposition(f):
        for coeffs, d in gf.pdistinct_degree(g.field, g.coeffs):
            block = Poly(g.field, coeffs).monic()
            if block.degree == d:
                pieces = [block]
            else:
                pieces = _equal_degree_split(block, d, rng)
            for piece in pieces:
                if piece.degree != d:
                    raise VerificationError("equal-degree split returned a bad degree")
                found[piece] = found.get(piece, 0) + mult
    parts = sorted(found.items(), key=lambda bm: bm[0].sort_key())
    result = Factorization(parts, irreducible_parts=True)
    if result.product() != f.monic():
        raise VerificationError("factorization failed to reconstruct the input")
    return result


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and x^n - 1.
# ---------------------------------------------------------------------------


def x_pow_minus_one(n: int, field) -> Poly:
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [field.neg(field.one)] + [field.zero] * (n - 1) + [field.one]
    return Poly(field, coeffs)


def cyclotomic(d: int, field) -> Poly:
    """The d-th cyclotomic polynomial reduced over the field, computed by
    the Moebius product prod over e | d of (x^(d/e) - 1)^mu(e); requires
    gcd(d, char) = 1 and has degree euler_phi(d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d % field.char == 0:
        raise ValueError(f"{d} is divisible by the characteristic {field.char}")
    terms = {1: [], -1: []}
    for e in counting.divisors(d):
        if mu := counting.moebius(e):
            terms[mu].append(x_pow_minus_one(d // e, field))
    quo, rem = divmod(product(field, terms[1]), product(field, terms[-1]))
    if not rem.is_zero():
        raise VerificationError(f"cyclotomic division left a remainder at d={d}")
    if quo.degree != counting.euler_phi(d):
        raise VerificationError(f"cyclotomic degree mismatch at d={d}")
    return quo


@dataclasses.dataclass
class CyclotomicBlock:
    """Irreducible factors of one cyclotomic polynomial over F_q.  There are
    euler_phi(d)/order of them, each of degree order = mult_order(q, d)."""

    d: int
    order: int
    factors: list[Poly]


@dataclasses.dataclass
class XnMinusOneFactorization:
    """x^n - 1 = (x^m - 1)^(p^e) factored block-by-block over the divisors
    of m; every factor inside a block is verified to have degree
    mult_order(q, d)."""

    n: int
    m: int
    e: int
    multiplicity: int
    blocks: list[CyclotomicBlock]

    def flatten(self) -> Factorization:
        parts = [
            (h, self.multiplicity) for blk in self.blocks for h in blk.factors
        ]
        return Factorization(parts, irreducible_parts=True).sorted()


def factor_xn_minus_1(n: int, field, rng=None, seed=None) -> XnMinusOneFactorization:
    """Structured factorization of x^n - 1 over the field, grouped by the
    divisors d of the p-free part m of n; the p^e part becomes a uniform
    multiplicity since x^n - 1 = (x^m - 1)^(p^e)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = field.order
    s = counting.split_n(n, field.char)
    if rng is None:
        rng = random.Random(DEFAULT_FACTOR_SEED if seed is None else seed)
    blocks = []
    for d in counting.divisors(s.m):
        tau = counting.mult_order(q, d)
        phi = counting.euler_phi(d)
        fact = factor(cyclotomic(d, field), rng=rng)
        factors = [base for base, _ in fact.parts]
        if any(mult != 1 for _, mult in fact.parts):
            raise VerificationError(f"cyclotomic {d} is not squarefree over GF({q})")
        if len(factors) != phi // tau or any(h.degree != tau for h in factors):
            raise VerificationError(
                f"cyclotomic {d} over GF({q}) should have {phi // tau} "
                f"factors of degree {tau}"
            )
        blocks.append(CyclotomicBlock(d=d, order=tau, factors=factors))
    result = XnMinusOneFactorization(
        n=n, m=s.m, e=s.e, multiplicity=field.char**s.e, blocks=blocks
    )
    if result.flatten().product() != x_pow_minus_one(n, field):
        raise VerificationError("x^n - 1 factorization failed to reconstruct")
    return result
