"""Exact arithmetic in finite-field towers F_p <= F_q <= F_{q^n}.

A field object owns the arithmetic; elements are plain immutable data:
integers in [0, p) for a prime field, and little-endian tuples of base-field
elements (constant coordinate first) for an extension.  Plain data keeps
equality, hashing and serialization trivial and makes values safe to share
across workers.

Every field enumerates its elements in a fixed lexicographic order:
coefficient vectors compare from the constant coordinate upward, each
coordinate by its canonical integer encoding.  ``index``/``from_index``
expose that order as a bijection with ``range(order)``, so the encoding of
an element *is* its position in the enumeration.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from array import array

import numpy as np

from . import _linalg, counting
from .errors import BudgetExceeded, VerificationError

ELEMENT_BUDGET_DEFAULT = 2**20
POLY_BUDGET_DEFAULT = 2**16

BUDGET_ENV_VAR = "NORMBASE_BUDGET"


def resolve_budget(budget, default):
    """Explicit argument wins, then the NORMBASE_BUDGET variable, then default."""
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        return int(env)
    return default


def check_element_budget(order: int, budget=None) -> int:
    """The resolved element budget, or BudgetExceeded when a field of the
    given order has more elements than it allows."""
    cap = resolve_budget(budget, ELEMENT_BUDGET_DEFAULT)
    if order > cap:
        raise BudgetExceeded(f"field has {order} elements, budget is {cap}")
    return cap


def check_poly_budget(q: int, n: int, budget=None) -> None:
    """BudgetExceeded when the q^n monic candidates of degree n over F_q
    are more than the resolved polynomial-scan budget allows."""
    cap = resolve_budget(budget, POLY_BUDGET_DEFAULT)
    if q**n > cap:
        raise BudgetExceeded(f"scanning {q}^{n} candidates exceeds the budget {cap}")


class PrimeField:
    """The prime field F_p with elements represented as integers in [0, p)."""

    def __init__(self, p: int):
        if not counting.is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.degree = 1
        self.base = None
        self.prime_dim = 1
        # packed-kernel layout: slots per element (see _slots); _read_slot,
        # the slot of one product of two elements, is None where the kernel
        # does not pack over this field
        self._stride = 1
        self._read_slot = _slot((p - 1) ** 2)
        self._bits = {} if p == 2 else None  # over F_2, _mod_slots's masks
        if 2 < p < 16:  # 1-byte slots: _mod_slots's table of i mod p
            self._bits = {8: bytes(range(p)) * (256 // p) + bytes(range(256 % p))}
        self.zero = 0
        self.one = 1

    def validate(self, a) -> None:
        if not isinstance(a, int) or not 0 <= a < self.p:
            raise ValueError(f"{a!r} is not a canonical element of {self}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def elements(self, budget=None):
        check_element_budget(self.p, budget)
        return iter(range(self.p))

    def index(self, a) -> int:
        return a

    def from_index(self, i: int):
        if not 0 <= i < self.p:
            raise ValueError(f"index {i} out of range for {self}")
        return i

    def prime_coords(self, a):
        return (a,)

    def from_prime_coords(self, coords):
        return coords[0] % self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


# ---------------------------------------------------------------------------
# Raw polynomial kernel over an arbitrary field object.
#
# A polynomial is a little-endian tuple of field elements with no trailing
# zeros (the zero polynomial is the empty tuple).  The public Poly class in
# polyring wraps these same tuples; extension fields use them directly for
# modular reduction, inversion and modulus validation, which keeps this
# module free of import cycles.
# ---------------------------------------------------------------------------


# Coefficient vectors over F_p, F_q = F_p[y]/(m) or any tower above them
# are packed into one Python int of fixed-width slots, one slot per prime
# coordinate (Kronecker substitution), so that the O(n^2) coefficient
# loops of pmul and pdivmod (and of rank, over F_p) run inside
# CPython's big-int arithmetic.  An element of F_p takes one slot; an
# element of a degree-k extension takes (2k - 1) times its base field's
# stride, its k base coordinates at the first k base strides and the
# rest zero, so the product of two canonical elements (y-degree up to
# 2k - 2) fits in place without reduction.  Polynomial coefficient i
# starts at slot i * stride.
# A slot is sized from the largest sum it will hold, so no slot ever
# carries into the next.  Raw slots are brought back to canonical form by
# _reduce, and canonical ones become elements by _read alone.  Over F_p
# and F_p[y]/(f) (not towers) _reduce stays in the int wherever the slots
# allow (_reduce_int): a slot mod 2 is its low bit at every width, 1-byte
# slots over odd p go mod p by one bytes.translate, and then a Barrett
# quotient in y.  Elsewhere it takes the slots mod p in numpy and, over
# an extension, multiplies them by ExtensionField._unit_fold, the
# F_p-linear map that reduces mod every modulus of the tower.
_SLOT_CODES = tuple((code, 8 * array(code).itemsize) for code in "BHIQ")
_SLOT_DTYPES = {code: np.dtype(code).newbyteorder("<") for code, _ in _SLOT_CODES}


def _slot(bound: int):
    """(array typecode, bit width) of the narrowest slot holding values up
    to bound, or None when no 8-byte slot is wide enough."""
    for code, w in _SLOT_CODES:
        if bound >> w == 0:
            return code, w
    return None


def _packed_slot(F, terms: int, extra: int = 0):
    """The slot of a packed pmul or pdivmod over F whose slots sum up to
    terms products of prime coordinates per y-power of every level, plus
    extra; or None when the loop of field operations runs instead: when
    no 8-byte slot fits, and for field objects the kernel does not know."""
    if not isinstance(F, (PrimeField, ExtensionField)) or F._read_slot is None:
        return None
    return _slot(extra + terms * F.prime_dim * (F.char - 1) ** 2)


def _pack(coeffs, slot) -> int:
    if slot[1] == 8:
        return int.from_bytes(bytes(coeffs), "little")
    words = array(slot[0], coeffs)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _unpack(x: int, n: int, slot):
    """The n slots of x, lowest first, as unreduced integers (bytes for
    1-byte slots, else an array)."""
    if slot[1] == 8:
        return x.to_bytes(n, "little")
    words = array(slot[0])
    words.frombytes(x.to_bytes(n * slot[1] // 8, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _slots(F, coeffs):
    """The packed layout of canonical elements of F, one slot per entry."""
    if isinstance(F, PrimeField):
        return coeffs
    base = F.base
    pad = (0,) * ((F.degree - 1) * base._stride)
    out = []
    for c in coeffs:
        out += _slots(base, c)
        out += pad
    return out


def _unit_slots(F) -> list:
    """The slot of each prime coordinate in the packed layout of F."""
    if isinstance(F, PrimeField):
        return [0]
    inner = _unit_slots(F.base)
    return [i * F.base._stride + s for i in range(F.degree) for s in inner]


def _read(F, x: int, count: int, slot):
    """The count elements of F (list, array or bytes) packed canonically
    in x: over F_p its words, over F_p[y]/(f) the first k slots of each
    element's stride, and over a tower the slots of its prime coordinates
    (_unit_slots)."""
    n = count * F._stride
    words = _unpack(x, n, slot)
    if isinstance(F, PrimeField):
        return words
    if isinstance(F.base, PrimeField):
        return [tuple(words[i : i + F.degree]) for i in range(0, n, F._stride)]
    units = _unit_slots(F)
    return _elements(F, [[words[i + u] for u in units] for i in range(0, n, F._stride)])


def _canon(F, raw: int, count: int, slot):
    """The canonical elements of F that count raw packed elements stand
    for (raw: count * F._stride unreduced slots)."""
    return _read(F, _reduce(F, raw, count, slot), count, slot)


def _reduce(F, raw: int, n: int, slot) -> int:
    """The canonical packed form of raw, n packed coefficients over F in
    the given slots: _reduce_int where _int_reduces, else every slot mod p,
    and over an extension field one product with its _unit_fold, mod p
    again.  Zero is canonical and costs nothing."""
    if not raw:
        return 0
    if _int_reduces(F, slot):
        return _reduce_int(F, raw, n, slot)
    p, dt = F.char, _SLOT_DTYPES[slot[0]]
    words = np.frombuffer(raw.to_bytes(n * F._stride * dt.itemsize, "little"), dt) % p
    if isinstance(F, ExtensionField):
        words = _linalg.reduce_mod(words.reshape(n, F._stride) @ F._unit_fold, p)
    return int.from_bytes(words.astype(dt, copy=False).tobytes(), "little")


def _int_reduces(F, slot) -> bool:
    """Whether _reduce_int takes F's slots: over F_p and F_p[y]/(f), not
    towers, at every width for p = 2 and in 1-byte slots for odd p."""
    return F._bits is not None and (F.char == 2 or slot[1] == 8)


def _mod_slots(Fp, x: int, count: int, w: int) -> int:
    """Every slot of x (count slots of w bits) mod p on the int: over odd
    p in 1-byte slots one bytes.translate by the table of i mod p that Fp
    keeps; over F_2 one AND with bit 0 of each slot, by one mask per slot
    width kept by Fp (an AND of non-negative ints is as long as the
    shorter, so a longer mask serves every shorter operand)."""
    if Fp.p > 2:
        return int.from_bytes(x.to_bytes(count, "little").translate(Fp._bits[8]), "little")
    mask = Fp._bits.get(w, 0)
    if mask.bit_length() <= (count - 1) * w:
        mask = Fp._bits[w] = int.from_bytes((b"\1" + bytes(w // 8 - 1)) * count, "little")
    return x & mask


def _reduce_int(F, raw: int, n: int, slot) -> int:
    """_reduce over F_p or F_p[y]/(f), f of degree d, on the int alone:
    every slot mod p (_mod_slots), then all n elements mod f at once by
    Barrett's quotient in y: hi = the slots at y^d .. y^(2d-2), quo =
    floor(hi mu / y^(d-1)) with mu = floor(y^(2d-1) / f), and the low d
    slots of r + quo (-f), each cut mod p again (over F_2 the masks keep
    bit 0 alone).  Each product stays in its element's 2d - 1 slots, and a
    slot sums at most (d - 1) (p - 1)^2 + p - 1 <= prime_dim (p - 1)^2,
    within every caller's slot."""
    Fp, w, d, count = F.base or F, slot[1], F.degree, n * F._stride
    r = _mod_slots(Fp, raw, count, w)
    if d == 1:
        return r
    cached = F._bits.get(w)
    if cached is None or cached[0] < n:
        # hi, lo: the slots at y^0 .. y^(d-2), y^0 .. y^(d-1) of n elements
        full = b"\1" + bytes(w // 8 - 1) if F.char == 2 else b"\xff"
        zero, s = bytes(w // 8), 2 * d - 1
        hi, lo = (int.from_bytes((full * k + zero * (s - k)) * n, "little") for k in (d - 1, d))
        mu = pdivmod(Fp, _monomial(Fp, 2 * d - 1), F.modulus)[0]
        cached = F._bits[w] = (n, hi, lo, _pack(mu, slot), _pack(pneg(Fp, F.modulus), slot))
    _, hi, lo, mu, neg_f = cached
    quo = (r >> d * w & hi) * mu >> (d - 1) * w & hi
    if F.char == 2:
        return r + quo * neg_f & lo
    return _mod_slots(Fp, r + _mod_slots(Fp, quo, count, w) * neg_f & lo, count, w)


def _elements(F, rows) -> list:
    """Elements of F from their prime coordinate rows."""
    base = F.base
    if isinstance(base, PrimeField):
        return [tuple(r) for r in rows]
    k = base.prime_dim
    return [tuple(_elements(base, [r[i : i + k] for i in range(0, len(r), k)])) for r in rows]


def ptrim(F, c):
    c = tuple(c)
    end = len(c)
    while end > 0 and c[end - 1] == F.zero:
        end -= 1
    return c[:end]


def pdeg(c) -> int:
    """Degree as an int, -1 for the zero polynomial (kernel-internal only)."""
    return len(c) - 1


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = F.add(out[i], x)
    return ptrim(F, out)


def psub(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero
        y = b[i] if i < len(b) else F.zero
        out.append(F.sub(x, y))
    return ptrim(F, out)


def psub_x(F, h):
    """h - x, by changing coefficient 1 of h alone."""
    h = tuple(h) + (F.zero,) * (2 - len(h))
    return ptrim(F, h[:1] + (F.sub(h[1], F.one),) + h[2:])


def pneg(F, a):
    return tuple(F.neg(x) for x in a)


def pmul(F, a, b):
    if not a or not b:
        return ()
    la, lb = len(a), len(b)
    if slot := _packed_slot(F, min(la, lb)):
        # Kronecker substitution: each product slot holds an exact
        # convolution sum, so one big-int product does every step.
        prod = _pack(_slots(F, a), slot) * _pack(_slots(F, b), slot)
        return ptrim(F, _canon(F, prod, la + lb - 1, slot))
    out = [F.zero] * (la + lb - 1)
    for i, x in enumerate(a):
        if x == F.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(F, out)


def pscale(F, a, s):
    if s == F.zero:
        return ()
    return ptrim(F, tuple(F.mul(x, s) for x in a))


def pmonic(F, a):
    if not a:
        return a
    if len(a) == 1:  # a nonzero constant: no inversion
        return (F.one,)
    lead = a[-1]
    if lead == F.one:
        return a
    return pscale(F, a, F.inv(lead))


def pdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(b) == 1:  # a constant divisor is a scaling
        return (a if b[0] == F.one else pscale(F, a, F.inv(b[0]))), ()
    if len(a) < len(b):
        return (), a
    la, lb = len(a), len(b)
    steps = la - lb + 1
    D, p = F.prime_dim, F.char
    # over F_2 a step is one XOR, which sums nothing: 1-byte slots at
    # every length
    terms = min(steps, lb) if D * p > 2 else 0
    if slot := _packed_slot(F, terms, p - 1):
        return _pdivmod_packed(F, a, b, steps, slot)
    # a monic divisor, the common case, needs no inversion
    inv_lead = F.one if b[-1] == F.one else F.inv(b[-1])
    rem = list(a)
    quo = [F.zero] * steps
    for shift in range(steps - 1, -1, -1):
        coef = rem[shift + lb - 1]
        if coef == F.zero:
            continue
        fac = F.mul(coef, inv_lead)
        quo[shift] = fac
        for i, y in enumerate(b):
            rem[shift + i] = F.sub(rem[shift + i], F.mul(fac, y))
    return ptrim(F, quo), ptrim(F, rem)


def _pdivmod_packed(F, a, b, steps, slot):
    """pdivmod on packed operands with lazy reduction: for each quotient
    coefficient c add (-c) * b instead of subtracting c * b, so slots
    never borrow, and reduce a coefficient only when it is read (the
    leading one at each step, the remainder at the end).  Over F_2 the
    slots stay 0 or 1: a step is one XOR, and nothing is reduced."""
    lb = len(b)
    prime = isinstance(F, PrimeField)
    rem, bb = _pack(_slots(F, a), slot), _pack(_slots(F, b), slot)
    if prime and F.p == 2:
        quo = 0
        while (k := rem.bit_length() - bb.bit_length()) >= 0:
            rem ^= bb << k
            quo |= 1 << k
        return tuple(_read(F, quo, steps, slot)), ptrim(F, _read(F, rem, lb - 1, slot))
    width = F._stride * slot[1]
    mask = (1 << width) - 1
    p, zero, one = F.char, F.zero, F.one
    # F_p coefficients are read, scaled and negated inline: a helper call
    # per step cost F_2 a fifth of its time
    inv_lead = one if b[-1] == one else F.inv(b[-1])
    quo = [zero] * steps
    for shift in range(steps - 1, -1, -1):
        raw = rem >> (shift + lb - 1) * width & mask
        coef = raw % p if prime else _canon(F, raw, 1, slot)[0]
        if coef != zero:
            if inv_lead != one:
                coef = coef * inv_lead % p if prime else F.mul(coef, inv_lead)
            quo[shift] = coef
            neg = p - coef if prime else _pack([-c % p for c in _slots(F, (coef,))], slot)
            rem += neg * bb << shift * width
    # a's leading coefficient over b's is the quotient's, never zero
    return tuple(quo), ptrim(F, _canon(F, rem & (1 << (lb - 1) * width) - 1, lb - 1, slot))


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def pgcd(F, a, b):
    """Monic gcd; the zero polynomial acts as the identity.

    Over an extension field the kernel packs, the Euclid runs fraction-free
    on packed operands (_pgcd_ext_packed), and the only inversion is
    pmonic's, none for a constant gcd or in pcoprime.  Over F_p, where an
    inversion is one pow, it divides at each step, on operands that stay
    packed (_pgcd_packed, by XOR over F_2); where _packed_slot finds no
    slot it divides by pmod."""
    return pmonic(F, _pgcd_unit(F, a, b))


def pcoprime(F, a, bs) -> bool:
    """Whether the gcd of a and every b of the iterable bs has degree 0,
    read before pmonic; the gcd is taken one b at a time and stops at the
    first constant, reading at most one b past it."""
    for b in bs:
        if len(a) == 1:
            break
        a = _pgcd_unit(F, a, b)
    return len(a) == 1


def _pgcd_unit(F, a, b) -> tuple:
    """pgcd up to a unit."""
    if not a or not b:
        return a or b
    if len(a) == 1 or len(b) == 1:  # a constant divides every polynomial
        return (F.one,)
    if isinstance(F, ExtensionField) and (slot := _packed_slot(F, F.char)):
        return _pgcd_ext_packed(F, a, b, slot)
    if isinstance(F, PrimeField):
        # over F_2, one XOR per step, as in pdivmod
        if slot := _packed_slot(F, min(len(a), len(b)) if F.p > 2 else 0, F.p - 1):
            return _pgcd_packed(F, a, b, slot)
    while b:
        a, b = b, pmod(F, a, b)
    return a


def _pgcd_packed(F, a, b, slot) -> tuple:
    """gcd(a, b) up to a unit over F_p, for nonzero a and b, on packed
    operands that stay packed from one Euclid round to the next.  A round
    divides with lazy reduction as _pdivmod_packed does (the divisor's
    slots canonical, so that a dividend slot gains at most (p - 1)^2 from
    each of at most min(len(a), len(b)) steps), and then reduces the
    remainder's slots mod p once (_reduce).  Over F_2 the slots stay 0 or
    1, and a step is one XOR of the divisor shifted under the top slot."""
    p, w = F.p, slot[1]
    mask = (1 << w) - 1
    r0, r1, n0, n1 = _pack(a, slot), _pack(b, slot), len(a) - 1, len(b) - 1
    if p == 2:
        while r1 > 1:
            while (k := r0.bit_length() - r1.bit_length()) >= 0:
                r0 ^= r1 << k
            r0, r1 = r1, r0
        return (1,) if r1 else tuple(_read(F, r0, (r0.bit_length() + w - 1) // w, slot))
    if n0 < n1:
        r0, r1, n0, n1 = r1, r0, n1, n0
    while n1 > 0:
        # r1 is canonical: its top slot is its leading coefficient
        neg_inv = p - pow(r1 >> n1 * w, -1, p)
        for shift in range((n0 - n1) * w, -1, -w):
            c = (r0 >> shift + n1 * w & mask) % p
            if c:
                r0 += c * neg_inv % p * r1 << shift
        r0 = _reduce(F, r0 & (1 << n1 * w) - 1, n1, slot)
        r0, r1, n0, n1 = r1, r0, n1, (r0.bit_length() - 1) // w
    # a constant remainder divides every polynomial
    return (1,) if n1 == 0 else tuple(_read(F, r0, n0 + 1, slot))


def _pgcd_ext_packed(F, a, b, slot) -> tuple:
    """gcd(a, b) up to a unit, for nonzero a and b over an extension field
    F, on packed operands.

    Each elimination step sets r <- lc(s) r - lc(r) x^k s, a nonzero
    multiple of the division step it replaces, so none inverts: pgcd's
    pmonic is the one inversion.  It is two big-int products,
    r lc(s) + (s ((p - 1) lc(r)) << k w), whose slots sum at most
    D (p - 1)^2 + D (p - 1)^3 = p D (p - 1)^2 (the slot of
    _packed_slot(F, p)), then one _reduce of every coefficient below the
    top one, which cancels."""
    p = F.char
    w = F._stride * slot[1]
    r, s = _pack(_slots(F, a), slot), _pack(_slots(F, b), slot)
    nr, ns = len(a), len(b)
    if nr < ns:
        r, s, nr, ns = s, r, ns, nr
    while ns > 1:
        lead = s >> (ns - 1) * w
        while nr >= ns:
            raw = r * lead + (s * ((p - 1) * (r >> (nr - 1) * w)) << (nr - ns) * w)
            r = _reduce(F, raw & (1 << (nr - 1) * w) - 1, nr - 1, slot)
            nr = (r.bit_length() + w - 1) // w
        r, s, nr, ns = s, r, ns, nr
    if ns:  # a constant divides every polynomial
        r, nr = s, ns
    return tuple(_read(F, r, nr, slot))


class _Residues:
    """Arithmetic modulo one polynomial f over F on residues held as
    coefficient tuples, by pmul and pmod, where _packed_slot finds no slot
    for _Barrett's products.  _Barrett is its packed twin with the same
    pack, unpack, mul, add and pow, so a caller holds one context per
    modulus without asking which it got.  pack takes a residue (degree
    below that of f)."""

    def __init__(self, F, f):
        self.F, self.f = F, f
        self.one = pmod(F, (F.one,), f)  # () when f is a constant

    def pack(self, coeffs):
        return ptrim(self.F, coeffs)

    def unpack(self, a):
        return a

    def mul(self, a, b):
        return pmod(self.F, pmul(self.F, a, b), self.f)

    def add(self, a, b):
        return padd(self.F, a, b)

    def pow(self, a, e: int):
        """a^e, square and multiply from the top bit of e."""
        if not e:
            return self.one
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result


class _Barrett(_Residues):
    """Arithmetic modulo one polynomial f of degree d >= 1 with a unit
    leading coefficient, on residues packed as in pmul (coefficient i at
    slot i * stride, every slot canonical).

    mul is polynomial Barrett reduction.  With mu = floor(x^(2d-1) / f),
    t = a * b (degree <= 2d - 2) and hi = floor(t / x^d), the quotient
    floor(t / f) is exactly floor(hi * mu / x^(d-1)), and t mod f is the
    low d coefficients of t + quotient * (-f).  So a product mod f is three
    big-int products, each followed by a reduction of its slots; a slot
    sums at most 2d - 1 products of coefficients."""

    def __init__(self, F, f):
        d = len(f) - 1
        self.F, self.d = F, d
        self.slot = slot = _packed_slot(F, 2 * d - 1)
        self.width = F._stride * slot[1]  # bits per coefficient
        self.masks = {n: (1 << n * self.width) - 1 for n in (d - 1, d)}
        # over F_2 one AND cuts a product to n slots and takes them mod 2
        two = isinstance(F, PrimeField) and F.p == 2
        self.low_bits = two and {n: _mod_slots(F, m, n, slot[1]) for n, m in self.masks.items()}
        mu = pdivmod(F, _monomial(F, 2 * d - 1), f)[0]
        self.mu = self.pack(mu)
        self.neg_f = _pack([-c % F.char for c in _slots(F, f)], slot)
        self.one = 1  # the packed (F.one,)

    def pack(self, coeffs) -> int:
        return _pack(_slots(self.F, coeffs), self.slot)

    def unpack(self, x: int):
        return ptrim(self.F, _read(self.F, x, self.d, self.slot))

    def _reduce(self, raw: int, n: int) -> int:
        """The canonical packed form of the low n coefficients of raw."""
        if self.low_bits:
            return raw & self.low_bits[n]
        return _reduce(self.F, raw & self.masks[n], n, self.slot)

    def mul(self, a: int, b: int) -> int:
        d, w = self.d, self.width
        t = a * b
        hi = self._reduce(t >> d * w, d - 1)
        quo = self._reduce(hi * self.mu >> (d - 1) * w, d - 1)
        return self._reduce(t + quo * self.neg_f, d)

    def add(self, a: int, b: int) -> int:
        return self._reduce(a + b, self.d)


def _barrett(F, f):
    """The arithmetic context modulo f over F: a _Barrett wherever
    _packed_slot finds a slot for its products, else _Residues."""
    d = len(f) - 1
    if _packed_slot(F, 2 * d - 1):
        return _Barrett(F, f)
    return _Residues(F, f)


def ppow_mod(F, base, e: int, mod):
    if e < 0:
        raise ValueError("negative exponent")
    ctx = _barrett(F, mod)
    return ctx.unpack(ctx.pow(ctx.pack(pmod(F, base, mod)), e))


def pinv_mod(F, a, mod):
    """Inverse of a modulo mod via the extended Euclidean algorithm."""
    r0, r1 = pmod(F, a, mod), mod
    s0, s1 = (F.one,), ()
    while r1:
        q, r = pdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(F, s0, pmul(F, q, s1))
    if pdeg(r0) != 0:
        raise ZeroDivisionError("element is not invertible")
    return pmod(F, pscale(F, s0, F.inv(r0[0])), mod)


def pdistinct_degree(F, f):
    """The distinct-degree factorization of f (degree >= 1), lazily: yields
    (g, k) for k = 1, 2, ... with g the product of the irreducible factors
    of degree k of a squarefree monic f, up to a unit (made monic only when
    the chain goes on, so a caller that stops at a block inverts nothing),
    then the cofactor left when 2k passes its degree, which is irreducible,
    with k its degree.

    One Frobenius chain h_k = x^(q^k) mod f serves every k, and f is divided
    by each g found (an irreducible of degree e divides x^(q^k) - x exactly
    when e | k, and a reducible f of degree d has a factor of degree at most
    d/2).  Until f first splits, the chain takes gcd(h_k - x, f) at every
    step while 2k <= deg f (Ben-Or mode: Ben-Or's test stops at that split).
    After it, the steps k = s .. min(2s - 1, deg f // 2) past the monomials
    form one block (factoring mode, Gao and Panario): their h_k - x are
    multiplied mod f and the block takes one gcd with f, and only a
    nontrivial block gcd is resolved, by gcd(h_k - x, g) for increasing k.
    Each of those is exactly the degree-k part, as every factor of degree
    below s is already divided out.  While q^k < 2 deg f, h_k is one
    division of the monomial x^(q^k) by f (the monomial itself while
    q^k < deg f), no longer than the one that builds a context; a context
    is built only at the first step that must raise a residue to the q-th
    power, so a candidate rejected before it builds none, and again only
    after a factor is divided out."""
    q, k, split = F.order, 0, False
    h, ctx = (F.zero, F.one), None  # h = h_k, a residue mod f
    while 2 * (k + 1) <= (d := len(f) - 1):
        s = t = k + 1
        if split and q**s >= d:  # factoring mode, past the monomials
            t = min(2 * s - 1, d // 2)
        parts = []  # h_k - x for k = s .. t
        while k < t:
            k += 1
            if (e := q**k) < 2 * d:
                h = pdivmod(F, _monomial(F, e), f)[1]
            else:
                if ctx is None:
                    ctx = _barrett(F, f)
                    packed = ctx.pack(h)
                packed = ctx.pow(packed, q)
                h = ctx.unpack(packed)
            parts.append(psub_x(F, h))
        # a block's product mod f: its steps after the first square in ctx
        g = parts[0] if s == t else ctx.unpack(functools.reduce(ctx.mul, map(ctx.pack, parts)))
        if len(g := _pgcd_unit(F, g, f)) == 1:
            continue
        split, rest = True, g
        for j, a in enumerate(parts[:-1], s):  # a block, resolved by degree
            if len(gj := _pgcd_unit(F, pmod(F, a, rest), rest)) > 1:
                yield gj, j
                if len(rest := pdivmod(F, rest, pmonic(F, gj))[0]) == 1:
                    break
        else:  # what is left is the degree-t part
            yield rest, t
        f = pdivmod(F, f, pmonic(F, g))[0]
        h, ctx = pmod(F, h, f), None
    if len(f) > 1:
        yield f, pdeg(f)


def pirreducible(F, f) -> bool:
    """Whether f of degree d is irreducible (Ben-Or's test): the chain of
    pdistinct_degree finds no factor of degree up to d/2, so its first
    block is the cofactor f itself, with k = d."""
    d = pdeg(f)
    if d < 1:
        raise ValueError("irreducibility is undefined for constants")
    return next(pdistinct_degree(F, f))[1] == d


def _monomial(F, e: int):
    return (F.zero,) * e + (F.one,)


def peval(F, coeffs, a):
    """Horner evaluation of a raw coefficient tuple at a field point."""
    acc = F.zero
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, a), c)
    return acc


def rank(rows, F) -> int:
    """Rank of a list of equal-length rows over F.

    Gaussian elimination with first-nonzero pivots that clears only the
    rows below each pivot.  Over F_2 a row is an int with one byte per
    entry, and the rows go into an XOR basis keyed by their top bit.  Over
    odd p the rows are packed as in pdivmod: a row gains (p - fac) * pivot
    row at each of at most len(rows) steps, and an entry is reduced mod p
    only when it is read.  Over an extension base F_q, q = p^k, the
    F_q-span of the rows is the F_p-span of their prime coordinates
    scaled by each F_p-basis scalar of F_q, which has k times the F_q-rank.
    Primes whose sums fit no 8-byte slot, and fields the kernel does not
    know, run the loop of field operations."""
    ncols = len(rows[0]) if rows else 0
    if isinstance(F, ExtensionField):
        k, p, dt = F.prime_dim, F.char, _linalg.exact_dtype(F.char)
        coords = np.array(rows, dtype=dt).reshape(len(rows), ncols * k)
        scaled = _linalg.scale_by_basis(coords, F)
        return rank(scaled.reshape(k * len(rows), ncols * k).tolist(), PrimeField(p)) // k
    if isinstance(F, PrimeField) and F.p == 2:
        basis = {0: 0}  # top bit -> basis row; key 0 takes the rows that cancel
        for v in (int.from_bytes(bytes(row), "little") for row in rows):
            while v and (b := basis.get(v.bit_length())):
                v ^= b
            basis[v.bit_length()] = v
        return len(basis) - 1
    r = 0
    if isinstance(F, PrimeField) and (slot := _slot((F.p - 1) + len(rows) * (F.p - 1) ** 2)):
        p, w = F.p, slot[1]
        mask = (1 << w) - 1
        work = [_pack(row, slot) for row in rows]
        for c in range(ncols):
            at = c * w
            piv = next((i for i in range(r, len(work)) if (work[i] >> at & mask) % p), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            row = _unpack(work[r], ncols, slot)
            inv = pow(row[c], -1, p)
            pivot = _pack([x * inv % p for x in row], slot)
            for i in range(r + 1, len(work)):
                if fac := (work[i] >> at & mask) % p:
                    work[i] += (p - fac) * pivot
            r += 1
        return r
    work = [list(row) for row in rows]
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != F.zero), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = F.inv(work[r][c])
        # columns up to c are no longer read in the rows below r
        pivot = work[r][c + 1 :]
        for i in range(r + 1, len(work)):
            if work[i][c] != F.zero:
                fac = F.mul(work[i][c], inv)
                tail = zip(work[i][c + 1 :], pivot)
                work[i][c + 1 :] = [F.sub(x, F.mul(fac, y)) for x, y in tail]
        r += 1
    return r


def first_irreducible(F, degree: int):
    """Coefficients of the lexicographically smallest monic irreducible of
    the given degree (constant coordinate compared first).

    Candidates with zero constant term are divisible by x and are skipped
    wholesale (they fill the entire first stretch of the lexicographic
    order).  pirreducible's chain rejects each other candidate at its first
    gcd(x^(q^k) - x, f) != 1, which is at k = 1 for one with a root in F;
    only the irreducible one it returns runs every step to k = degree/2."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree == 1:
        return (F.zero, F.one)
    candidates = monic_candidates(F, degree, start=F.order ** (degree - 1))
    return next(cand for cand in candidates if pirreducible(F, cand))


def monic_candidates(F, degree: int, start: int = 0):
    """The monic polynomials of the given degree, as coefficient tuples in
    lexicographic order (constant coordinate compared first), from the
    start-th on.  A lazy base-q counter decoded by from_index: it builds
    no list of F's elements, which over F_(2^61-1) would not fit."""
    weights = [F.order**i for i in reversed(range(degree))]
    for num in range(start, F.order**degree):
        yield tuple(F.from_index(num // w % F.order) for w in weights) + (F.one,)


class ExtensionField:
    """F_{Q^n} built as base[x]/(modulus); elements are length-n tuples of
    base-field elements, constant coordinate first."""

    def __init__(self, base, modulus):
        modulus = _monic_modulus(base, modulus)
        if not pirreducible(base, modulus):
            raise ValueError("modulus is reducible over the base field")
        self._build(base, modulus)

    @classmethod
    def _of_irreducible(cls, base, modulus):
        """The field for a canonical monic modulus already known to be
        irreducible, built without testing it again."""
        field = cls.__new__(cls)
        field._build(base, modulus)
        return field

    def _build(self, base, modulus):
        degree = pdeg(modulus)
        self.base = base
        self.modulus = modulus
        self.degree = degree
        self.char = base.char
        self.order = base.order**degree
        self.prime_dim = degree * base.prime_dim
        # packed-kernel layout as in PrimeField; _read_slot is None when
        # the kernel cannot pack over this field (p too large for 8-byte
        # slots, or a base field of another kind)
        self._stride = (2 * degree - 1) * base._stride
        known = isinstance(base, (PrimeField, ExtensionField)) and base._read_slot
        self._read_slot = _slot(self._stride * (self.char - 1) ** 2) if known else None
        # over F_p itself, _reduce_int's masks, mu and -f per slot width
        self._bits = {} if isinstance(base, PrimeField) and base._bits is not None else None
        self.zero = (base.zero,) * degree
        self.one = self._pad((base.one,))
        self.gen = self._pad(pmod(base, (base.zero, base.one), modulus))

    def _pad(self, coeffs):
        return tuple(coeffs) + (self.base.zero,) * (self.degree - len(coeffs))

    @functools.cached_property
    def _unit_fold(self):
        """The packed kernel's reduction, F_p-linear on the raw slots mod
        p: row s of this (_stride x _stride) matrix, in _linalg.dot_dtype,
        holds at _unit_slots the prime coordinates of the element that a
        one in raw slot s stands for.  The slots of coefficient j stand for
        x^j times the base's fold rows: for j < n those rows at coordinate
        j, after that the rows of j - 1 times by_x, the prime-coordinate
        matrix of multiplication by x."""
        base, p, n, k = self.base, self.char, self.degree, self.base.prime_dim
        dim, dt = n * k, _linalg.exact_dtype(p)
        by_x = np.eye(dim, dim, k, dtype=dt)
        neg_f = np.array(self.prime_coords(pneg(base, self.modulus[:-1])), dtype=dt)
        by_x[dim - k :] = neg_f if k == 1 else _linalg.scale_by_basis(neg_f, base)
        low = np.zeros((n, base._stride, n, k), dtype=dt)
        low[np.arange(n), :, np.arange(n)] = base._unit_fold[:, _unit_slots(base)] if k > 1 else 1
        rows = [low.reshape(-1, dim)]
        top = rows[0][-base._stride :]
        for _ in range(n - 1):
            top = _linalg.matmul_mod(top, by_x, p)
            rows.append(top)
        fold = np.zeros((self._stride, self._stride), _linalg.dot_dtype(p, self._stride))
        fold[:, _unit_slots(self)] = np.concatenate(rows)
        return fold

    def validate(self, a) -> None:
        if not isinstance(a, tuple) or len(a) != self.degree:
            raise ValueError(
                f"{a!r} is not a length-{self.degree} coefficient vector of {self}"
            )
        for c in a:
            self.base.validate(c)

    def embed(self, c):
        """Embed a base-field element as a constant."""
        return self._pad((c,) if c != self.base.zero else ())

    def add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    @functools.cached_property
    def _ctx(self):
        """The arithmetic context modulo the modulus, shared by mul, pow and
        x_q_powers."""
        return _barrett(self.base, self.modulus)

    def mul(self, a, b):
        ctx = self._ctx
        return self._pad(ctx.unpack(ctx.mul(ctx.pack(a), ctx.pack(b))))

    def inv(self, a):
        t = ptrim(self.base, a)
        if not t:
            raise ZeroDivisionError("inverse of zero")
        return self._pad(pinv_mod(self.base, t, self.modulus))

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        ctx = self._ctx
        return self._pad(ctx.unpack(ctx.pow(ctx.pack(a), e)))

    def frobenius(self, a):
        """a raised to the order of the base field."""
        self.validate(a)
        return self.pow(a, self.base.order)

    def x_q_powers(self) -> list:
        """x^(q*i) mod f for i < n: n - 1 products by h = x^q in one context mod f."""
        ctx = self._ctx
        h = ctx.pow(ctx.pack(self.gen), self.base.order)
        powers = itertools.accumulate([h] * (self.degree - 1), ctx.mul, initial=ctx.one)
        return [self._pad(ctx.unpack(r)) for r in powers]

    def trace(self, a):
        """a + a^q + ... + a^(q^(n-1)), returned as a base-field element."""
        self.validate(a)
        acc = a
        cur = a
        for _ in range(self.degree - 1):
            cur = self.pow(cur, self.base.order)
            acc = self.add(acc, cur)
        if any(c != self.base.zero for c in acc[1:]):
            raise VerificationError(f"trace of {a!r} left the base field: {acc!r}")
        return acc[0]

    def elements(self, budget=None):
        """Every element exactly once, in lexicographic coefficient order."""
        check_element_budget(self.order, budget)
        base_elems = [self.base.from_index(i) for i in range(self.base.order)]
        return itertools.product(base_elems, repeat=self.degree)

    def index(self, a) -> int:
        i = 0
        for c in a:
            i = i * self.base.order + self.base.index(c)
        return i

    def from_index(self, i: int):
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} out of range for {self}")
        digits = []
        for _ in range(self.degree):
            i, d = divmod(i, self.base.order)
            digits.append(self.base.from_index(d))
        return tuple(reversed(digits))

    def prime_coords(self, a):
        out = []
        for c in a:
            out.extend(self.base.prime_coords(c))
        return tuple(out)

    def from_prime_coords(self, coords):
        k = self.base.prime_dim
        return tuple(
            self.base.from_prime_coords(tuple(coords[i * k : (i + 1) * k]))
            for i in range(self.degree)
        )

    def random(self, rng):
        return tuple(self.base.random(rng) for _ in range(self.degree))

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtensionField", self.base, self.modulus))

    def __repr__(self):
        return f"GF({self.base.order}^{self.degree})"


def _monic_modulus(base, modulus):
    """modulus as a trimmed tuple, or ValueError unless it is monic of
    degree >= 1 with canonical coefficients."""
    modulus = ptrim(base, tuple(modulus))
    for c in modulus:
        # the kernel's packed slots are sized for canonical coefficients
        base.validate(c)
    if pdeg(modulus) < 1:
        raise ValueError("modulus must have degree >= 1")
    if modulus[-1] != base.one:
        raise ValueError("modulus must be monic")
    return modulus


def irreducible_extension(base, modulus):
    """base[x]/(modulus), or None when modulus is reducible over base: the
    same checks as ExtensionField(base, modulus), for callers that answer
    a reducible modulus rather than fail on it."""
    modulus = _monic_modulus(base, modulus)
    if not pirreducible(base, modulus):
        return None
    return ExtensionField._of_irreducible(base, modulus)


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def base_field(p: int, k: int = 1, modulus=None):
    """F_{p^k}; with k > 1 the modulus defaults to the lexicographically
    smallest monic irreducible of degree k over F_p."""
    F = PrimeField(p)
    if k == 1:
        if modulus is not None:
            raise ValueError("a degree-1 base field takes no modulus")
        return F
    return extension(F, k, modulus)


def extension(field, n: int, modulus=None) -> ExtensionField:
    """Degree-n extension of `field`, with a deterministic default modulus."""
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if modulus is None:
        return ExtensionField._of_irreducible(field, first_irreducible(field, n))
    coeffs = tuple(getattr(modulus, "coeffs", modulus))
    if pdeg(ptrim(field, coeffs)) != n:
        raise ValueError(f"modulus degree is not the requested {n}")
    return ExtensionField(field, coeffs)


# Cached: every CLI count/test call and oracle-sweep roots op rebuilt F_q (66 us at q = 4).
@functools.lru_cache(maxsize=64)
def field_of_order(q: int):
    """F_q for a prime power q, built from deterministic moduli once per q."""
    p, k = counting.prime_power_split(q)
    return base_field(p, k)
