"""Vectorized linear algebra over F_p for the exhaustive scans.

Fields of order p^D are F_p-vector spaces; every F_q-linear map (Frobenius,
scalar multiplication, any linearized operator) is also F_p-linear and so
becomes a D x D integer matrix mod p, and a bijective one also permutes the
element indices.  Whole-field scans then reduce to index gathers and
matrix products, which is what makes enumerating 2^20 elements practical
in pure Python + numpy.  The batched Gaussian elimination,
batched_rank_full, is the rank-based reference the tests hold those
scans to; no scan of the library calls it.  Every dtype
of residues is picked here: dtype_for and exact_dtype store them, and
matmul_mod multiplies matrices of them in the dtype of one rule, dot_dtype,
which also types gf._reduce's fold.  Only the one-row chain of
oracle._conjugate_coords multiplies in a dtype of its own.

field_orbits is the one whole-field engine: Frobenius and the scalars of
F_q* permute the elements, and normality and every operator built from
Frobenius with F_q coefficients are constant on their orbits, so the
operator evaluations that decide normality run on one element per orbit.
"""

from __future__ import annotations

import functools

import numpy as np

from . import counting

_UNSIGNED = tuple((np.dtype(t), int(np.iinfo(t).max)) for t in (np.uint8, np.uint16, np.uint32, np.uint64))
_SIGNED = tuple((np.dtype(t), int(np.iinfo(t).max)) for t in (np.int16, np.int32, np.int64))


def dtype_for(p: int, terms: int = 0) -> np.dtype:
    """The numpy dtype for arithmetic mod p, chosen so that it cannot wrap.

    terms=0 gives the narrowest unsigned type storing residues in [0, p).
    terms=t >= 1 gives the narrowest signed type, int16 at least, holding
    every value of magnitude up to (p-1) + t*(p-1)^2: the largest
    intermediate of a length-t dot product of residues, or of one
    elimination step x - fac*y (t = 1)."""
    if terms == 0:
        bound, ladder = p - 1, _UNSIGNED
    else:
        bound, ladder = (p - 1) + terms * (p - 1) ** 2, _SIGNED
    for dt, top in ladder:
        if bound <= top:
            return dt
    raise ValueError(f"arithmetic mod {p} over {terms} terms does not fit in 64 bits")


def exact_dtype(p: int, terms: int = 0) -> np.dtype:
    """dtype_for(p, terms), or object (Python ints) past 64 bits."""
    try:
        return dtype_for(p, terms)
    except ValueError:
        return np.dtype(object)


def dot_dtype(p: int, terms: int) -> np.dtype:
    """The dtype of every product of residues mod p with dot products of the
    given number of terms: float64 while (p-1) + terms*(p-1)^2 < 2^53, so
    that every sum is an exact double (BLAS, 10-20x faster than numpy's integer
    matmul at 32-96 terms), else uint64 while terms*(p-1)^2 fits, else object."""
    bound = terms * (p - 1) ** 2
    if (p - 1) + bound < 2**53:
        return np.dtype(np.float64)
    if bound >> 64 == 0:
        return np.dtype(np.uint64)
    return np.dtype(object)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue arrays, broadcast as @ does, in dot_dtype; returned in exact_dtype(p)."""
    dt = dot_dtype(p, a.shape[-1])
    prod = a.astype(dt, copy=False) @ b.astype(dt, copy=False)
    if dt.kind == "f":  # reduced in the integers that hold its sums: 3x faster on 2^21 entries
        prod = prod.astype(exact_dtype(p, a.shape[-1]))
    return reduce_mod(prod, p).astype(exact_dtype(p), copy=False)


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place.  numpy vectorises floor division by a scalar but
    not %, so on a large int16 array this is about 3x faster than x % p.
    On float64 (products in the dtype of dot_dtype) floor division is as
    slow as %, and floor(x / p) is exact instead: for integers
    0 <= x < 2^53 - p the rounding error of x / p is less than its
    distance to the next integer."""
    if x.dtype.kind == "f":
        x -= np.floor(x / p) * p
    else:
        x -= x // p * p
    return x


# Cached: oracle-sweep's wall_s rose from 0.25 to 0.35 s without it.
@functools.lru_cache(maxsize=128)
def frobenius_matrix(ext) -> np.ndarray:
    """Frobenius on ext's prime coordinates, built once per field and
    returned read-only, since every caller shares the one array.  It fixes
    F_q, q = p^k, and sends x^i to h_i = x^(q*i) mod f (ext.x_q_powers),
    so column i*k + j holds the prime coordinates of u_j * h_i, u_j the
    j-th prime unit of F_q."""
    cols = np.array([ext.prime_coords(h) for h in ext.x_q_powers()], dtype=exact_dtype(ext.char))
    mat = np.ascontiguousarray(scale_by_basis(cols, ext.base).reshape(ext.prime_dim, -1).T)
    mat.setflags(write=False)
    return mat


# Cached: gf.rank over an extension base reads it at every call (21 us uncached).
@functools.lru_cache(maxsize=128)
def basis_scalar_matrices(field) -> np.ndarray:
    """The k x k matrices of multiplication by each F_p-basis scalar u_j of
    a field of order p^k, stacked (k, k, k) and read-only: column t of the
    j-th holds the prime coordinates of u_j * u_t."""
    k = field.prime_dim
    units = [field.from_prime_coords(tuple(row)) for row in np.eye(k, dtype=int).tolist()]
    prods = [[field.prime_coords(field.mul(u, v)) for v in units] for u in units]
    mats = np.array(prods, dtype=exact_dtype(field.char)).swapaxes(1, 2)
    mats.setflags(write=False)
    return mats


def scale_by_basis(vectors: np.ndarray, field) -> np.ndarray:
    """Prime coordinates (..., n*k) over field = F_q, q = p^k, times each
    F_p-basis scalar u_j of F_q, as (..., k, n*k): one product of inner
    dimension k."""
    k, smats = field.prime_dim, basis_scalar_matrices(field)
    lead, n = vectors.shape[:-1], vectors.shape[-1] // k
    by = smats.transpose(2, 0, 1).reshape(k, k * k)  # by[t, j*k + u]: coordinate u of u_j * u_t
    prod = matmul_mod(vectors.reshape(-1, k), by, field.char).reshape(lead + (n, k, k))
    return prod.swapaxes(-3, -2).reshape(lead + (k, n * k))


def apply_map(vectors: np.ndarray, mat: np.ndarray, p: int) -> np.ndarray:
    """(N, D) coordinate rows through a (D, D) map, reduced mod p."""
    return matmul_mod(vectors, mat.T, p)


def index_coords(idx: np.ndarray, p: int, dim: int) -> np.ndarray:
    """Base-p digit rows (..., dim) of element indices, most significant
    digit first: the prime coordinates of those elements of a field of
    order p^dim, in the order of its from_index."""
    out = np.empty(idx.shape + (dim,), dtype=dtype_for(p))
    rest = idx.astype(np.int64)
    for j in range(dim - 1, -1, -1):
        nxt = rest // p
        out[..., j] = rest - nxt * p
        rest = nxt
    return out


def index_map(mat: np.ndarray, p: int) -> np.ndarray:
    """The map of element indices [0, p^D) that an F_p-linear map with
    (D, D) matrix mat induces: out[i] is the index of mat @ index_coords(i).
    An invertible mat gives a permutation; a singular one, such as the
    trace, is welcome too, as the doubling below uses only linearity.

    Built by digit doubling: the image of c*p^t + i (i < p^t) is the image
    of i plus c times the image of the unit vector of weight p^t, added
    digit by digit mod p, for every c at once.  The digits are packed into
    one int64 with a spare top bit each: a digit sum x + y + 2^(b-1) - p
    sets that bit exactly when x + y >= p and carries into no other
    digit."""
    dim = mat.shape[0]
    bits = (p - 1).bit_length() + 1
    if dim * bits > 63:
        raise ValueError(f"{p}^{dim} element indices do not pack into 64 bits")
    shifts = np.arange(dim - 1, -1, -1, dtype=np.int64) * bits
    ones = int(np.sum(np.int64(1) << shifts))
    bias = ((1 << bits - 1) - p) * ones
    scalars = np.arange(1, p, dtype=np.int64)[:, None]
    cols = mat.astype(np.int64)
    out = np.zeros(p**dim, dtype=np.int64)
    size = 1
    for j in range(dim - 1, -1, -1):
        steps = (scalars * cols[:, j] % p << shifts).sum(axis=1)
        total = out[:size] + steps[:, None]
        total -= ((total + bias) >> bits - 1 & ones) * p
        out[size : p * size] = total.ravel()
        size *= p
    idx = np.zeros_like(out)
    for s in shifts:
        idx *= p
        idx += out >> s & (1 << bits) - 1
    return idx


def _scalar_canon(field, n: int) -> np.ndarray:
    """For every element of a degree-n extension of field = F_q, the index
    of its multiple whose leading (most significant) nonzero F_q
    coordinate is 1: one member of each orbit of F_q*.

    The indices of [q^m, q^(m+1)) are the elements a*q^m + r with leading
    coordinate a and r < q^m, whose canonical multiple is 1*q^m + r/a
    (the index of 1 in F_q is p^(k-1), constant coordinate first).  The
    coordinatewise scaling r -> r/a doubles up the same way, one
    coordinate at a time: (d*q^m + r)/a = (d/a)*q^m + r/a."""
    q = field.order
    if q == 2:  # F_2* is trivial
        return np.arange(2**n, dtype=np.int64)
    if n > 1:
        div = _division_table(field)
    one = field.index(field.one)
    scaled = np.zeros((q - 1, 1), dtype=np.int64)  # row a - 1: r -> r/a on [0, q^m)
    parts = [np.zeros(1, dtype=np.int64)]
    for m in range(n):
        parts.append((one * q**m + scaled).ravel())
        if m + 1 < n:
            scaled = (div[:, :, None] * q**m + scaled[:, None, :]).reshape(q - 1, -1)
    return np.concatenate(parts)


def _division_table(field) -> np.ndarray:
    """(q - 1, q) table of field indices: row a - 1, column d holds d/a,
    from one log/antilog pair of a generator of F_q*."""
    q = field.order
    primes = counting.factorize(q - 1)
    gen = next(
        g
        for g in map(field.from_index, range(2, q))
        if all(field.pow(g, (q - 1) // r) != field.one for r in primes)
    )
    antilog = np.empty(q - 1, dtype=np.int64)
    x = field.one
    for t in range(q - 1):
        antilog[t] = field.index(x)
        x = field.mul(x, gen)
    log = np.zeros(q, dtype=np.int64)
    log[antilog] = np.arange(q - 1)
    div = antilog[(log[None, :] - log[1:, None]) % (q - 1)]
    div[:, 0] = 0
    return div


def field_orbits(ext) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of <F_q*> x <Frobenius> on ext, a degree-n extension of
    F_q, over element indices: (rep, conj).  rep[i] is the representative
    of element i's orbit, and conj[j, t] is the index of the t-th
    conjugate (Frobenius applied t times, t = 0..n) of the j-th
    representative, in ascending order.

    A representative is the least scalar-canonical index (_scalar_canon)
    over the Frobenius orbit, which is the same for every member of the
    orbit because Frobenius commutes with the scalars of F_q.  The minimum
    over n conjugates is taken over windows that double: after s rounds
    rep[i] is the least over Frobenius powers 0 .. 2^s - 1 of i, so
    ceil(log2 n) rounds cover a whole orbit."""
    n = ext.degree
    sigma = index_map(frobenius_matrix(ext), ext.char)
    rep = _scalar_canon(ext.base, n)
    power = sigma
    span = 1
    while span < n:
        rep = np.minimum(rep, rep[power])
        span *= 2
        if span < n:
            power = power[power]
    conj = [np.flatnonzero(rep == np.arange(len(rep)))]
    for _ in range(n):
        conj.append(sigma[conj[-1]])
    return rep, np.stack(conj, axis=1)


def batched_rank_full(mats: np.ndarray, p: int) -> np.ndarray:
    """For a (B, m, m) batch of matrices over F_p, whether each has rank m.

    Fraction-free Gaussian elimination run across the whole batch at once:
    below the pivot, row <- lead * row - fac * pivot row, which needs no
    inverse and keeps every rank.  The pivot for every batch member is the
    first nonzero entry in the current column (deterministic, and batch
    members that go singular are masked out via the returned flags rather
    than aborting the elimination).  Over F_2 up to m = 32 the rows are
    packed into uint32 words, column j at bit j, and the elimination step
    becomes one masked XOR per column."""
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected a (B, m, m) batch")
    nbatch, m, _ = mats.shape
    ok = np.ones(nbatch, dtype=bool)
    bidx = np.arange(nbatch)
    if p == 2 and m <= 32:
        work = np.zeros((nbatch, m), dtype=np.uint32)
        for j in range(m):
            work |= (mats[:, :, j].astype(np.uint32) & np.uint32(1)) << np.uint32(j)
        for c in range(m):
            bits = (work[:, c:] >> np.uint32(c)) & np.uint32(1)
            ok &= bits.any(axis=1)
            piv = c + np.argmax(bits, axis=1)
            row_c = work[bidx, c].copy()
            row_p = work[bidx, piv].copy()
            work[bidx, c] = row_p
            work[bidx, piv] = row_c
            if c + 1 < m:
                sel = ((work[:, c + 1 :] >> np.uint32(c)) & np.uint32(1)).astype(bool)
                work[:, c + 1 :] ^= np.where(sel, work[:, c, None], np.uint32(0))
        return ok
    work = mats.astype(dtype_for(p, 2)) % p
    for c in range(m):
        col = work[:, c:, c]
        nz = col != 0
        ok &= nz.any(axis=1)
        piv = c + np.argmax(nz, axis=1)
        row_c = work[bidx, c, c:].copy()
        row_p = work[bidx, piv, c:].copy()
        work[bidx, c, c:] = row_p
        work[bidx, piv, c:] = row_c
        if c + 1 < m:
            lead = work[:, c, c, None, None]
            fac = p - work[:, c + 1 :, c, None]
            rest = work[:, c + 1 :, c:]
            rest *= lead
            rest += fac * work[:, c, None, c:]
            reduce_mod(rest, p)
    return ok
