"""Reference arithmetic for the benchmark, written apart from normbase.

Every answer the benchmark gets from normbase is checked against this
module: integer closed forms (the Ore/Hensel product for the number of
normal elements, Moebius sums for irreducibles by trace, the equality
classification), dense polynomial arithmetic over F_p and over extensions
of F_p with Rabin's irreducibility test, and Gaussian elimination for the
rank of a conjugate matrix.  Nothing here imports normbase; field elements
use the same plain-data shapes (ints for F_p, little-endian tuples for an
extension) so that values can be compared directly.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} by trial division over 2 and the odd numbers."""
    if n < 1:
        raise ValueError("need n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    exps = factorize(n).values()
    if any(e > 1 for e in exps):
        return 0
    return (-1) ** len(exps)


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, or ValueError."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, k),) = fac.items()
    return p, k


def mult_order(q: int, d: int) -> int:
    """Least t >= 1 with q^t = 1 mod d (1 for d = 1)."""
    t, acc = 1, q % d
    while acc != 1 % d:
        acc = acc * q % d
        t += 1
    return t


def p_free_part(n: int, p: int) -> tuple[int, int]:
    """(m, e) with n = m * p^e and p not dividing m."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def normal_element_count(n: int, q: int) -> int:
    """Ore/Hensel: the number of normal elements of F_{q^n} over F_q is
    Phi_q(x^n - 1) = prod over the irreducible factors g^s of x^n - 1 of
    (q^deg g - 1) * q^(deg g * (s - 1)).  Over F_q, x^n - 1 = (x^m - 1)^(p^e)
    and x^m - 1 has phi(d) / ord_d(q) factors of degree ord_d(q) for every
    d | m."""
    p, _ = prime_power(q)
    m, e = p_free_part(n, p)
    s = p**e
    v = 1
    for d in divisors(m):
        deg = mult_order(q, d)
        v *= ((q**deg - 1) * q ** (deg * (s - 1))) ** (euler_phi(d) // deg)
    return v


def irreducible_count(n: int, q: int) -> int:
    """Monic irreducibles of degree n over F_q (Gauss)."""
    total = sum(mobius(d) * q ** (n // d) for d in divisors(n))
    return total // n


def irreducible_count_with_trace(n: int, q: int, nonzero: bool) -> int:
    """Monic irreducibles of degree n over F_q whose x^(n-1) coefficient is
    nonzero (nonzero=True) or zero.  Each nonzero value is taken by
    (1 / (q n)) * sum over d | n, p not dividing d, of mu(d) q^(n/d)."""
    p, _ = prime_power(q)
    per_value = sum(
        mobius(d) * q ** (n // d) for d in divisors(n) if d % p
    ) // (q * n)
    if nonzero:
        return (q - 1) * per_value
    return irreducible_count(n, q) - (q - 1) * per_value


def equality_holds(n: int, q: int) -> bool:
    """The classification of the equality case: n is a power of p, or n is
    a prime other than p and q is a primitive root modulo n."""
    p, _ = prime_power(q)
    if p_free_part(n, p)[0] == 1:
        return True
    return n != p and factorize(n) == {n: 1} and mult_order(q, n) == n - 1


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


class PrimeField:
    """F_p with elements the ints 0..p-1."""

    def __init__(self, p: int):
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def elements(self) -> list:
        return list(range(self.p))


class ExtensionField:
    """base[y]/(modulus) with elements the length-k tuples of base elements,
    constant coordinate first."""

    def __init__(self, base, modulus):
        self.base = base
        self.modulus = tuple(modulus)
        self.k = len(self.modulus) - 1
        self.char = base.char
        self.order = base.order**self.k
        self.zero = (base.zero,) * self.k
        self.one = self.pad((base.one,))

    def pad(self, coeffs) -> tuple:
        return tuple(coeffs) + (self.base.zero,) * (self.k - len(coeffs))

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        B = self.base
        prod = poly_mul(B, poly_trim(B, a), poly_trim(B, b))
        return self.pad(poly_divmod(B, prod, self.modulus)[1])

    def pow(self, a, e: int):
        out = self.one
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def elements(self) -> list:
        out = [()]
        for _ in range(self.k):
            out = [t + (c,) for t in out for c in self.base.elements()]
        return out

    def conjugates(self, a) -> list:
        """a, a^Q, ..., a^(Q^(k-1)) for Q the order of the base."""
        rows = [a]
        for _ in range(self.k - 1):
            rows.append(self.pow(rows[-1], self.base.order))
        return rows

    def trace(self, a):
        acc = self.zero
        for c in self.conjugates(a):
            acc = self.add(acc, c)
        if any(x != self.base.zero for x in acc[1:]):
            raise ArithmeticError(f"trace of {a!r} left the base field")
        return acc[0]


# ---------------------------------------------------------------------------
# Dense polynomials: little-endian tuples of field elements, no trailing zero
# ---------------------------------------------------------------------------


def poly_trim(F, c) -> tuple:
    c = list(c)
    while c and c[-1] == F.zero:
        c.pop()
    return tuple(c)


def poly_mul(F, a, b) -> tuple:
    if not a or not b:
        return ()
    if isinstance(F, PrimeField):
        p = F.p
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return poly_trim(F, [c % p for c in out])
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != F.zero:
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(F, out)


def poly_divmod(F, a, b) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return (), tuple(a)
    quo = [F.zero] * (len(rem) - db)
    inv_lead = F.inv(b[-1])
    prime = isinstance(F, PrimeField)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c == F.zero:
            continue
        f = F.mul(c, inv_lead)
        quo[top - db] = f
        base = top - db
        if prime:
            p = F.p
            for i, y in enumerate(b):
                rem[base + i] = (rem[base + i] - f * y) % p
        else:
            for i, y in enumerate(b):
                rem[base + i] = F.sub(rem[base + i], F.mul(f, y))
    return poly_trim(F, quo), poly_trim(F, rem[:db])


def poly_sub(F, a, b) -> tuple:
    n = max(len(a), len(b))
    a = tuple(a) + (F.zero,) * (n - len(a))
    b = tuple(b) + (F.zero,) * (n - len(b))
    return poly_trim(F, [F.sub(x, y) for x, y in zip(a, b)])


def poly_gcd(F, a, b) -> tuple:
    """Monic gcd."""
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    if not a:
        return a
    inv = F.inv(a[-1])
    return tuple(F.mul(c, inv) for c in a)


def poly_powmod(F, a, e: int, m) -> tuple:
    """a^e mod m for e >= 1, by left-to-right square and multiply."""
    a = poly_divmod(F, a, m)[1]
    out = a
    for bit in bin(e)[3:]:
        out = poly_divmod(F, poly_mul(F, out, out), m)[1]
        if bit == "1":
            out = poly_divmod(F, poly_mul(F, out, a), m)[1]
    return out


def poly_prod(F, factors) -> tuple:
    out = (F.one,)
    for f in factors:
        out = poly_mul(F, out, f)
    return out


def is_irreducible(F, f) -> bool:
    """Rabin's test for a monic f of degree n >= 1 over F (order Q):
    x^(Q^n) = x mod f, and gcd(x^(Q^(n/r)) - x, f) = 1 for each prime
    r | n.  The powers x^(Q^i) are built by repeated Q-th powering."""
    n = len(f) - 1
    if n < 1 or f[-1] != F.one:
        raise ValueError("need a monic polynomial of degree >= 1")
    if n == 1:
        return True
    x = (F.zero, F.one)
    wanted = {n // r for r in factorize(n)}
    cur = x
    for i in range(1, n + 1):
        cur = poly_powmod(F, cur, F.order, f)
        if i in wanted and len(poly_gcd(F, poly_sub(F, cur, x), f)) != 1:
            return False
    return cur == poly_divmod(F, x, f)[1]


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def rank(rows, F) -> int:
    """Rank over F of a list of equal-length rows, by Gaussian elimination."""
    work = [list(r) for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != F.zero), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = F.inv(work[r][c])
        pivot_row = [F.mul(x, inv) for x in work[r]]
        work[r] = pivot_row
        for i in range(r + 1, len(work)):
            f = work[i][c]
            if f != F.zero:
                work[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(work[i], pivot_row)]
        r += 1
    return r


def is_normal(a, E) -> bool:
    """Whether the conjugates of a span E over its base field."""
    return rank(E.conjugates(a), E.base) == E.k


def is_n_polynomial(F, f) -> bool:
    """Monic irreducible f over F whose root x mod f is normal."""
    if not is_irreducible(F, f):
        return False
    E = ExtensionField(F, f)
    return is_normal(E.pad(poly_divmod(F, (F.zero, F.one), f)[1]), E)
