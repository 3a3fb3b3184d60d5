import contextlib
import dataclasses
import functools
import random

import numpy as np
import pytest

from normbase import _linalg, counting, gf
from normbase.polyring import Poly

# entries of per-candidate (nk x nk) matrices one coefficient-scan chunk may hold
SCAN_ENTRIES = 2**19


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def f2():
    return gf.prime_field(2)


@pytest.fixture(scope="session")
def f3():
    return gf.prime_field(3)


@pytest.fixture(scope="session")
def f4():
    return gf.base_field(2, 2)


@pytest.fixture(scope="session")
def poly_scans():
    """The coefficient scan of every degree over every field of at most 16
    elements with q^n <= 2^16 candidates, keyed by (q, n): each cell is
    scanned once for all the tests that read it."""
    scans = {}
    for q in counting.prime_powers_up_to(16):
        n = 1
        while q**n <= 2**16:
            scans[q, n] = coefficient_scan(n, q)
            n += 1
    return scans


# ---------------------------------------------------------------------------
# The coefficient-side reference: a batched scan of every monic candidate.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CoefficientScan:
    """Every monic irreducible of one degree over one field, in
    lexicographic order, with its trace coefficient and N-polynomial flag."""

    field: object
    coeff_rows: np.ndarray        # (count, n) encoded low coefficients
    trace_nonzero: np.ndarray     # (count,) bool
    npoly: np.ndarray             # (count,) bool
    trace_counts: np.ndarray      # per encoded trace value

    def _decode(self, row) -> Poly:
        F = self.field
        coeffs = tuple(F.from_index(int(i)) for i in row) + (F.one,)
        return Poly(F, coeffs)

    def polys(self) -> list[Poly]:
        return [self._decode(row) for row in self.coeff_rows]

    @property
    def count(self) -> int:
        return len(self.coeff_rows)

    def witness(self) -> Poly | None:
        """The first irreducible with nonzero trace that is not an
        N-polynomial, or None when there is none."""
        hits = np.nonzero(self.trace_nonzero & ~self.npoly)[0]
        return self._decode(self.coeff_rows[hits[0]]) if len(hits) else None


def coefficient_scan(n: int, q: int) -> CoefficientScan:
    """The batched coefficient-side scan of the q^n monic candidates of
    degree n over F_q: the reference that the root census, the
    lexicographic walk (oracle.scan_irreducibles) and gf.pirreducible are
    held to.  Residues mod each candidate f are held in F_p coordinates,
    so that each conjugate of the root is one batched product with a
    per-candidate Frobenius matrix; a fixed-point screen, Rabin's
    coprimality conditions as batched invertibility tests and the rank
    criterion of normality run on those conjugates."""
    field = gf.field_of_order(q)
    if n == 1:
        # Every monic linear is irreducible; x - c is an N-polynomial
        # exactly when its root c is nonzero, i.e. the constant is nonzero.
        parts = [(np.arange(q, dtype=np.int64).reshape(q, 1), np.arange(q) != 0)]
    else:
        smats = _linalg.basis_scalar_matrices(field)
        chunk = max(1, SCAN_ENTRIES // (n * field.prime_dim) ** 2)
        parts = [
            _scan_chunk(field, n, smats, start, min(start + chunk, q**n))
            for start in range(0, q**n, chunk)
        ]
    coeff_rows = np.concatenate([rows for rows, _ in parts])
    trace_col = coeff_rows[:, n - 1]
    return CoefficientScan(
        field=field,
        coeff_rows=coeff_rows,
        trace_nonzero=trace_col != 0,
        npoly=np.concatenate([npoly for _, npoly in parts]),
        trace_counts=np.bincount(trace_col, minlength=q).astype(np.int64),
    )


def _scan_chunk(field, n: int, smats, start: int, stop: int):
    """(encoded coefficient rows, N-polynomial flags) of the irreducibles
    among the monic candidates of indices [start, stop); smats are the
    field's basis_scalar_matrices.

    A residue mod f is held by its prime coordinates: F_q = F_p[y]/(m) has
    the F_p-basis 1, y, .., y^(k-1), and the coefficient of x^j takes
    coordinates j*k .. j*k + k - 1.  Arrays put the candidate axis last, so
    that every step is a few long vector operations, and each F_p-linear
    map on F_q[x]/(f) is a per-candidate matrix applied by one einsum."""
    p, k = field.char, field.prime_dim
    dim = n * k
    wide = _linalg.dtype_for(p, dim)
    mod = functools.partial(_linalg.reduce_mod, p=p)
    if k > 1:
        # smats[1] multiplies by y, so its last column is y * y^(k-1) = y^k.
        y_k = smats[1][:, k - 1 :].astype(wide)

    def times_y(z):
        """Every F_q coordinate of z (..., dim, B) times y: a roll within
        each block plus its top digit times y^k = -m_low."""
        blocks = z.reshape(z.shape[:-2] + (n, k, z.shape[-1]))
        out = blocks[..., k - 1 : k, :] * y_k
        out[..., 1:, :] += blocks[..., :-1, :]
        return mod(out).reshape(z.shape)

    def times_x(v):
        """x*v mod f: a roll plus the top coefficient times x^n = -f_low."""
        out = np.einsum("ab,adb->db", v[dim - k :], neg_f, dtype=wide)
        out[k:] += v[: dim - k]
        return mod(out)

    def apply(v, mat):
        """(..., dim, B) through per-candidate matrices (dim, dim, B)."""
        return mod(np.einsum("...ib,ijb->...jb", v, mat, dtype=wide))

    def multiples(z, times, count, step=1):
        """(..., dim, B) -> (..., count, dim, B): g^(i*step)*z for i < count,
        where times multiplies by g; with g = y and count = k, row (j, a)
        of the stack over residues z_j is y^(a*step)*z_j."""
        out = np.empty(z.shape[:-2] + (count,) + z.shape[-2:], dtype=wide)
        out[..., 0, :, :] = z
        for i in range(1, count):
            nxt = out[..., i - 1, :, :]
            for _ in range(step):
                nxt = times(nxt)
            out[..., i, :, :] = nxt
        return out

    # Row i: prime coordinates of the low coefficients (a_0 .. a_{n-1}) of
    # the (start + i)-th monic candidate in lexicographic order.
    coeffs = index_coords(np.arange(start, stop), p, dim)
    neg_f = multiples(mod(-coeffs.T.astype(wide)), times_y, k)
    one, x = np.zeros((2, dim, len(coeffs)), dtype=wide)
    one[0] = x[k] = 1
    pows = multiples(one, times_x, n, p)  # x^(j*p) mod f
    if k > 1:
        # The p-th power map has rows (y^a*x^j)^p = y^(a*p)*x^(j*p); k - 1
        # more applications take x^(j*p) to x^(j*q).
        frob_p = multiples(pows, times_y, k, p).reshape(dim, dim, -1)
        for _ in range(k - 1):
            pows = apply(pows, frob_p)
        del frob_p
    # The q-th power map, F_q-linear: row (j, a) is y^a*x^(j*q).
    frob = multiples(pows, times_y, k).reshape(dim, dim, -1)

    # conj[i] = x^(q^i) mod f; conj[n] drives the fixed-point test.
    conj = multiples(x, lambda v: apply(v, frob), n + 1)
    surv = np.nonzero((conj[n] == conj[0]).all(axis=0))[0]
    coeffs, neg_f, conj = coeffs[surv], neg_f[..., surv], conj[:n, :, surv]

    # Rabin's completion on the survivors: for each prime r | n the
    # polynomial g = x^(q^(n/r)) - x must be coprime to f, i.e.
    # multiplication by g mod f, whose rows are g*x^j mod f, is invertible.
    primes = counting.factorize(n)
    if len(primes) == 1:
        # n = r^e.  A survivor divides x^(q^n) - x, so it is squarefree and
        # each of its irreducible factors has a degree dividing n.  If it
        # is reducible, every factor has a degree d < n, so d | n/r and
        # x^(q^(n/r)) = x modulo every factor, hence modulo f.  If it is
        # irreducible, x has degree n over F_q and x^(q^(n/r)) != x.  So
        # f is irreducible exactly when x^(q^(n/r)) != x mod f.
        (r,) = primes
        irreducible = (conj[n // r] != conj[0]).any(axis=0)
    else:
        irreducible = np.ones(len(surv), dtype=bool)
        for r in primes:
            g = mod(conj[n // r] - conj[0])
            rows = multiples(g, times_x, n).transpose(2, 0, 1)
            irreducible &= independent_over_base(rows, field)

    # Normality of the canonical root: its conjugates are conj[0..n-1].
    rows = conj[..., irreducible].transpose(2, 0, 1)
    normal = independent_over_base(rows, field)
    digits = coeffs[irreducible].reshape(-1, n, k).astype(np.int64)
    encoded = digits @ (p ** np.arange(k - 1, -1, -1, dtype=np.int64))
    return encoded.astype(_linalg.dtype_for(field.order)), normal


def independent_over_base(coords: np.ndarray, field) -> np.ndarray:
    """For a (B, n, n*k) batch of n elements each of a degree-n extension of
    field = F_q, q = p^k, given by prime coordinates, whether each member's
    n elements are independent over F_q: full F_p-rank of the elements
    scaled by every F_p-basis scalar of F_q, or over F_p of coords."""
    if field.prime_dim > 1:
        coords = _linalg.scale_by_basis(coords, field).reshape(len(coords), coords.shape[2], coords.shape[2])
    return _linalg.batched_rank_full(coords, field.char)


class Schoolbook:
    """The packed kernel's reference: polynomials over a field F of the
    kernel (little-endian coefficient tuples, as in gf) and F's own
    products, by loops of field operations.  Over an extension field its
    elements multiply by these loops over the base's Schoolbook, mod the
    modulus, so no level of the tower packs.  gf's helpers that only add,
    scale or trim (ptrim, padd, psub, pscale, pmonic) take it as a field."""

    def __init__(self, F):
        self.F, self.zero, self.one, self.order = F, F.zero, F.one, F.order
        # F's own sums, coordinate by coordinate, and over F_p its products
        self.add, self.sub = F.add, F.sub
        self.base = None
        if isinstance(F, gf.PrimeField):
            self.mul, self.inv = F.mul, F.inv
        else:
            self.base, self.products = Schoolbook(F.base), {}

    def mul(self, a, b):
        """Kept per instance: the lower levels of a tower repeat few products."""
        if (a, b) not in self.products:
            x, y = gf.ptrim(self.base, a), gf.ptrim(self.base, b)
            self.products[a, b] = self.F._pad(self.base.pmod(self.base.pmul(x, y), self.F.modulus))
        return self.products[a, b]

    def pow(self, a, e: int):
        """a^e for e >= 0, square and multiply."""
        out = self.one
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def inv(self, a):
        """By the extended Euclid with the modulus."""
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        base, r0, r1 = self.base, gf.ptrim(self.base, a), self.F.modulus
        s0, s1 = (base.one,), ()
        while r1:
            q, r = base.pdivmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, gf.psub(base, s0, base.pmul(q, s1))
        return self.F._pad(gf.pscale(base, s0, base.inv(r0[0])))

    def pmul(self, a, b):
        if not a or not b:
            return ()
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != self.zero:
                for j, y in enumerate(b):
                    out[i + j] = self.add(out[i + j], self.mul(x, y))
        return gf.ptrim(self, out)

    def pdivmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(a) < len(b):
            return (), a
        inv_lead, lb = self.one if b[-1] == self.one else self.inv(b[-1]), len(b)
        rem, quo = list(a), [self.zero] * (len(a) - lb + 1)
        for shift in reversed(range(len(quo))):
            if rem[shift + lb - 1] != self.zero:
                quo[shift] = fac = self.mul(rem[shift + lb - 1], inv_lead)
                for i, y in enumerate(b):
                    rem[shift + i] = self.sub(rem[shift + i], self.mul(fac, y))
        return gf.ptrim(self, quo), gf.ptrim(self, rem)

    def pmod(self, a, b):
        return self.pdivmod(a, b)[1]

    def pgcd(self, a, b):
        """The monic gcd by the dividing Euclid."""
        while b:
            a, b = b, self.pmod(a, b)
        return gf.pmonic(self, a)

    def pcoprime(self, a, bs) -> bool:
        for b in bs:
            a = self.pgcd(a, b)
        return len(a) == 1

    def ppow_mod(self, base, e: int, f):
        out, base = self.pmod((self.one,), f), self.pmod(base, f)
        for bit in bin(e)[2:]:
            out = self.pmod(self.pmul(out, out), f)
            if bit == "1":
                out = self.pmod(self.pmul(out, base), f)
        return out

    def rank(self, rows) -> int:
        """Gaussian elimination with first-nonzero pivots."""
        work, r = [list(row) for row in rows], 0
        for c in range(len(rows[0]) if rows else 0):
            piv = next((i for i in range(r, len(work)) if work[i][c] != self.zero), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            inv = self.inv(work[r][c])
            for i in range(r + 1, len(work)):
                if work[i][c] != self.zero:
                    fac = self.mul(work[i][c], inv)
                    work[i] = [self.sub(x, self.mul(fac, y)) for x, y in zip(work[i], work[r])]
            r += 1
        return r


def monic_polys(field, degree: int):
    """All monic polynomials of exact degree, in lexicographic order: the
    tests' lister over gf.monic_candidates."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return (Poly(field, coeffs) for coeffs in gf.monic_candidates(field, degree))


def index_coords(idx: np.ndarray, p: int, dim: int) -> np.ndarray:
    """Base-p digit rows (..., dim) of element indices, most significant
    digit first: the prime coordinates of those elements of a field of
    order p^dim, in the order of its from_index."""
    out = np.empty(idx.shape + (dim,), dtype=_linalg.dtype_for(p))
    rest = idx.astype(np.int64)
    for j in range(dim - 1, -1, -1):
        nxt = rest // p
        out[..., j] = rest - nxt * p
        rest = nxt
    return out


def linear_map_matrix(func, ext) -> np.ndarray:
    """Matrix over F_p of an F_p-linear map on ext, from a plain callable:
    column j is the prime-coordinate image of the j-th unit vector, in
    the dtype of _linalg.frobenius_matrix."""
    dim = ext.prime_dim
    cols = []
    for j in range(dim):
        unit = [0] * dim
        unit[j] = 1
        cols.append(ext.prime_coords(func(ext.from_prime_coords(tuple(unit)))))
    return (np.array(cols, dtype=np.int64).T % ext.char).astype(_linalg.dtype_for(ext.char))


def fold_by_pmod(ext) -> np.ndarray:
    """ext._unit_fold's prime-coordinate columns built one slot at a time:
    row (j, s) holds the prime coordinates of x^j mod f times the element
    that a one in the base's raw slot s stands for, by one pmod and one
    base product each."""
    base = ext.base
    if isinstance(base, gf.PrimeField):
        units = [base.one]
    else:
        fold = base._unit_fold[:, gf._unit_slots(base)].astype(np.uint64)
        units = gf._elements(base, fold.tolist())
    rows = []
    for j in range(2 * ext.degree - 1):
        xj = ext._pad(gf.pmod(base, gf._monomial(base, j), ext.modulus))
        for u in units:
            rows.append(ext.prime_coords(tuple(base.mul(u, c) for c in xj)))
    return np.array(rows, dtype=np.uint64)


@contextlib.contextmanager
def criterion(name):
    """Print one pass/fail line per acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    print(f"\n[acceptance] {name}: PASS")
