"""Closed-form counts for normal elements and irreducible polynomials.

Everything here is exact big-integer arithmetic; no floats are used anywhere.
Conventions: q = p^k is a prime power with characteristic p, and n splits as
n = m * p^e with p not dividing m.  Divisor sums run over the divisors of m,
the p-free part, not of n; the two differ whenever e >= 1 and getting this
wrong is the classic mistake, so the code names things `m_divisors`.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import VerificationError


# Miller-Rabin bases: the first 13 primes.  Every composite below
# _MR_EXACT_BELOW has a witness among them (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017); the first twelve
# alone miss 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  "Composite" is proven at every size by
    a witness; "prime" is proven below _MR_EXACT_BELOW, and a larger n that
    no base witnesses raises ValueError instead of being guessed prime."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot prove {n} prime: it is a strong probable prime above 3.3e24")
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def moebius(d: int) -> int:
    if d < 1:
        raise ValueError("moebius expects a positive integer")
    fac = factorize(d)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(d: int) -> int:
    if d < 1:
        raise ValueError("euler_phi expects a positive integer")
    out = 1
    for p, e in factorize(d).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton iteration from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _prime_power_root(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k and p prime, or None; ValueError from is_prime
    (a probable prime too large to prove) passes through.  A q with a
    prime factor among _MR_BASES is a power of that prime or of none;
    otherwise p >= 43, so k <= log_43(q).  Roots come before is_prime
    (seconds on 43^2000), at prime k alone: an r^k with k composite is
    also a j-th power for each prime j | k, and a prime power iff r is."""
    if q < 2:
        return None
    for b in _MR_BASES:
        if q % b == 0:
            k = 0
            while q % b == 0:
                q, k = q // b, k + 1
            return (b, k) if q == 1 else None
    for k in range(2, int(math.log(q, 43)) + 2):
        if is_prime(k) and (r := _iroot(q, k)) ** k == q:
            split = _prime_power_root(r)
            return None if split is None else (split[0], split[1] * k)
    return (q, 1) if is_prime(q) else None


def prime_power_split(q: int) -> tuple[int, int]:
    """q = p^k with p prime, or ValueError."""
    split = _prime_power_root(q)
    if split is None:
        raise ValueError(f"{q} is not a prime power")
    return split


def is_prime_power(q: int) -> bool:
    return _prime_power_root(q) is not None


def prime_powers_up_to(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


def mult_order(q: int, d: int) -> int:
    """Least t >= 1 with q^t == 1 (mod d); the order of 1 modulo 1 is 1."""
    if d < 1:
        raise ValueError("modulus must be >= 1")
    if math.gcd(q, d) != 1:
        raise ValueError(f"{q} and {d} are not coprime")
    if d == 1:
        return 1
    t = 1
    acc = q % d
    while acc != 1:
        acc = acc * q % d
        t += 1
    return t


def is_primitive_root(q: int, n: int) -> bool:
    return mult_order(q, n) == euler_phi(n)


@dataclasses.dataclass(frozen=True)
class SplitN:
    """The decomposition n = m * p^e with p not dividing m."""

    n: int
    p: int
    m: int
    e: int


def split_n(n: int, p: int) -> SplitN:
    if n < 1:
        raise ValueError("n must be >= 1")
    m, e = n, 0
    while m % p == 0:
        m //= p
        e += 1
    return SplitN(n=n, p=p, m=m, e=e)


def normal_element_count(n: int, q: int) -> int:
    """Number of alpha in F_{q^n} whose conjugates alpha, alpha^q, ... form a
    basis over F_q:  q^(n-m) * prod over d | m of (q^tau(d) - 1)^(phi(d)/tau(d)),
    where tau(d) is the order of q modulo d."""
    p, _ = prime_power_split(q)
    s = split_n(n, p)
    out = q ** (n - s.m)
    for d in divisors(s.m):
        tau = mult_order(q, d)
        phi = euler_phi(d)
        if phi % tau != 0:
            raise VerificationError(f"tau({d}) = {tau} does not divide phi({d}) = {phi}")
        out *= (q**tau - 1) ** (phi // tau)
    return out


def normal_basis_count(n: int, q: int) -> int:
    """normal_element_count / n; each basis is generated by exactly n elements."""
    return _divided(normal_element_count(n, q), n, "normal-element count", "n")


def _divided(num: int, den: int, what: str, den_name: str) -> int:
    """num // den for a closed form whose division must be exact; raises
    VerificationError naming both sides when it is not."""
    if num % den != 0:
        raise VerificationError(f"{what} {num} not divisible by {den_name} = {den}")
    return num // den


def _m_divisor_trace_sum(n: int, q: int) -> int:
    """sum over d | m of mu(d) * q^(n/d), for n = m * p^e."""
    p, _ = prime_power_split(q)
    m_divisors = divisors(split_n(n, p).m)
    return sum(moebius(d) * q ** (n // d) for d in m_divisors)


def irr_count_trace(n: int, q: int, t: int = 1) -> int:
    """Number of monic irreducibles of degree n over F_q whose x^(n-1)
    coefficient equals the nonzero element t.  The value is the same for
    every nonzero t (a tested property, not an assumption), so t is only
    checked, then ignored:  (1/(q*n)) * sum over d | m of mu(d) * q^(n/d)."""
    if t == 0:
        raise ValueError(
            "the per-trace formula needs t != 0; "
            "use zero_trace_irr_count for the trace-zero count"
        )
    return _divided(_m_divisor_trace_sum(n, q), q * n, "trace sum", "q*n")


def nonzero_trace_irr_count(n: int, q: int) -> int:
    """Monic irreducibles of degree n with any nonzero trace coefficient:
    (q-1) * irr_count_trace."""
    return (q - 1) * irr_count_trace(n, q, 1)


def total_irr_count(n: int, q: int) -> int:
    """All monic irreducibles of degree n: (1/n) * sum over d | n of mu(d) q^(n/d)."""
    total = sum(moebius(d) * q ** (n // d) for d in divisors(n))
    if total % n != 0:
        raise VerificationError(f"irreducible-count sum {total} not divisible by {n}")
    return total // n


def zero_trace_irr_count(n: int, q: int) -> int:
    return total_irr_count(n, q) - nonzero_trace_irr_count(n, q)


def inequality_sides(n: int, q: int) -> tuple[int, int]:
    """Both sides of the counting inequality, exactly:

        lhs = normal_element_count(n, q)
        rhs = (q-1)/q * sum over d | m of mu(d) * q^(n/d)

    The division by q is exact because every summand has n/d >= 1."""
    lhs = normal_element_count(n, q)
    return lhs, (q - 1) * _divided(_m_divisor_trace_sum(n, q), q, "trace sum", "q")


def equality_predicate(n: int, q: int) -> bool:
    """True iff n is a power of p (including n = 1), or n is a prime other
    than p with q a primitive root modulo n."""
    p, _ = prime_power_split(q)
    if split_n(n, p).m == 1:
        return True
    return n != p and is_prime(n) and is_primitive_root(q, n)


def q_adic_valuation(t: int, q: int) -> int:
    """Largest v with q^v dividing t; rejects t = 0."""
    if t == 0:
        raise ValueError("the valuation of 0 is undefined")
    if t < 0 or q < 2:
        raise ValueError("need t >= 1 and q >= 2")
    v = 0
    while t % q == 0:
        t //= q
        v += 1
    return v


def witness_lower_bound(n: int, q: int) -> int:
    """q^(1+phi(n)) - q^phi(n) - q for squarefree n with at least two prime
    factors, all coprime to the characteristic; always >= 1.  It bounds
    from below the irreducibles of degree n with nonzero trace that are
    not N-polynomials: nonzero_trace_irr_count - normal_basis_count."""
    p, _ = prime_power_split(q)
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        raise ValueError("n must be squarefree")
    if len(fac) < 2:
        raise ValueError("n must have at least two prime factors")
    if n % p == 0:
        raise ValueError("n must be coprime to the characteristic")
    phi = euler_phi(n)
    out = q ** (1 + phi) - q**phi - q
    if out < 1:
        raise VerificationError(f"witness bound {out} < 1 at n={n}, q={q}")
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "q", "n", "m", "e",
    "lhs", "rhs", "equality", "predicate",
    "v", "nb_count", "irr_nonzero_trace",
    "oracle_v", "oracle_npoly", "oracle_irr",
)


@dataclasses.dataclass
class CountReport:
    """One verified (q, n) grid point.  Counts are exact big integers; the
    three oracle fields stay None when enumeration was disabled or over
    budget."""

    q: int
    n: int
    m: int
    e: int
    lhs: int
    rhs: int
    equality: bool
    predicate: bool
    v: int
    nb_count: int
    irr_nonzero_trace: int
    oracle_v: int | None = None
    oracle_npoly: int | None = None
    oracle_irr: int | None = None

    def to_json_obj(self) -> dict:
        def big(x):
            return None if x is None else str(x)

        return {
            "q": self.q,
            "n": self.n,
            "m": self.m,
            "e": self.e,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "equality": self.equality,
            "predicate": self.predicate,
            "v": str(self.v),
            "nb_count": str(self.nb_count),
            "irr_nonzero_trace": str(self.irr_nonzero_trace),
            "oracle_v": big(self.oracle_v),
            "oracle_npoly": big(self.oracle_npoly),
            "oracle_irr": big(self.oracle_irr),
        }

    def to_csv_row(self) -> list[str]:
        def cell(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "true" if x else "false"
            return str(x)

        return [cell(getattr(self, col)) for col in CSV_COLUMNS]


def build_report(q: int, n: int) -> CountReport:
    """Closed-form report for one grid point, with the counting inequality's
    invariants enforced: lhs <= rhs always, and equality exactly on
    predicate-true points.  A violation raises VerificationError and means a
    bug.  Each closed form is evaluated once: lhs is also v, and the trace
    sum gives both rhs and the nonzero-trace irreducibles."""
    p, _ = prime_power_split(q)
    s = split_n(n, p)
    lhs = normal_element_count(n, q)
    total = _m_divisor_trace_sum(n, q)
    rhs = (q - 1) * _divided(total, q, "trace sum", "q")
    predicate = equality_predicate(n, q)
    if lhs > rhs:
        raise VerificationError(f"lhs {lhs} > rhs {rhs} at q={q}, n={n}")
    if (lhs == rhs) != predicate:
        raise VerificationError(
            f"equality is {lhs == rhs} but the classification says {predicate} "
            f"at q={q}, n={n}"
        )
    nb = _divided(lhs, n, "normal-element count", "n")
    irr_nonzero = (q - 1) * _divided(total, q * n, "trace sum", "q*n")
    if rhs != n * irr_nonzero:
        raise VerificationError(f"rhs {rhs} != n * irreducible count at q={q}, n={n}")
    return CountReport(
        q=q, n=n, m=s.m, e=s.e,
        lhs=lhs, rhs=rhs,
        equality=lhs == rhs, predicate=predicate,
        v=lhs, nb_count=nb, irr_nonzero_trace=irr_nonzero,
    )
