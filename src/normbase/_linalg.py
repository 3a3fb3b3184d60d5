"""Vectorized linear algebra over F_p for the exhaustive scans.

Fields of order p^D are F_p-vector spaces; every F_q-linear map (Frobenius,
scalar multiplication, any linearized operator) is also F_p-linear and so
becomes a D x D integer matrix mod p.  Whole-field scans then reduce to
digit-table sums and matrix products, which is what makes enumerating 2^20
elements practical in pure Python + numpy.  The batched Gaussian elimination,
batched_rank_full, is the rank-based reference the tests hold those
scans to; no scan of the library calls it.  Every dtype
of residues is picked here: dtype_for and exact_dtype store them, and
matmul_mod multiplies matrices of them in the dtype of one rule, dot_dtype,
which also types gf._reduce's fold.  Only the one-row chain of
oracle._conjugate_coords multiplies in a dtype of its own.

map_images is the one whole-field engine: it applies the matrices of
F_p-linear maps to every element index in blocks, by tables of the images
of an index's low and high digits, and the whole-field counts read each
verdict from those images element by element.
"""

from __future__ import annotations

import functools

import numpy as np


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


# map_images' tables hold the images of the low digits of an index, at most
# 2^LOW_BITS indices of them (one digit at least), and each block adds the
# images of enough high digits to hold about BLOCK elements.
LOW_BITS = 16
BLOCK = 2**15


def _digit_bits(p: int) -> int:
    """The width of one digit mod p in map_images' packed images: room for
    p - 1 and a spare top bit."""
    return (p - 1).bit_length() + 1


def map_images(mats, p: int):
    """The whole-field engine: for each block of the element indices
    [0, p^D) of a field of order p^D, in ascending order, a lazy iterator
    over the block's images under each F_p-linear map of mats, (D, D)
    matrices, in their order.  An image is packed into one int64, digit j
    of mats[m] @ (the element's prime coordinates, most significant digit
    first) at bit (D - 1 - j) * _digit_bits(p), so it is 0 exactly when the
    image is the zero element.

    A map is linear, so the image of index h*p^L + l (l < p^L) is the image
    of h*p^L plus the image of l, added digit by digit mod p.  Each map
    gets one table of the images of the p^L low-digit indices l and one of
    the high-digit indices h*p^L, both built by digit doubling: the image
    of c*p^t + i (i < p^t) is the image of i plus c times the image of the
    t-th digit's unit vector, and the images for c in [s, 2s) come from
    those for c < s by one digit-add.  A block's images are one sum of a
    run of high-table entries and the whole low table.  A digit sum
    x + y + 2^(b-1) - p sets the digit's spare top bit exactly when
    x + y >= p, and carries into no other digit."""
    dim = mats[0].shape[0]
    bits = _digit_bits(p)
    if dim * bits > 63:
        raise ValueError(f"{p}^{dim} element indices do not pack into 64 bits")
    shifts = np.arange(dim - 1, -1, -1, dtype=np.int64) * bits
    ones = int(np.sum(np.int64(1) << shifts))
    bias = ((1 << bits - 1) - p) * ones

    def add(x, y, out=None):
        out = np.add(x, y, out=out)
        out -= ((out + bias) >> bits - 1 & ones) * p
        return out

    def table(cols):
        """The images of every index of cols.shape[1] digits, by their columns."""
        units = (cols << shifts[:, None]).sum(axis=0)  # images of the digits' unit vectors
        out = np.zeros(p ** cols.shape[1], dtype=np.int64)
        size = 1
        for unit in units[::-1]:
            done = size  # out[c*size + i] = out[i] + c*unit for c < done / size
            while done < p * size:
                step = min(done, p * size - done)
                add(out[:step], add(out[done - size], unit), out=out[done : done + step])
                done += step
            size *= p
        return out

    low = 1
    while low < dim and p ** (low + 1) <= 2**LOW_BITS:
        low += 1
    cols = [mat.astype(np.int64) for mat in mats]
    if low == dim:  # one block: each map's table of every index, built when asked for
        yield (table(c) for c in cols)
        return
    tables = [(table(c[:, : dim - low]), table(c[:, dim - low :])) for c in cols]
    rows = max(1, BLOCK // p**low)
    for h in range(0, p ** (dim - low), rows):
        yield (add(hi[h : h + rows, None], lo).ravel() for hi, lo in tables)


def split_digits(images: np.ndarray, p: int, dim: int, digits: int):
    """map_images' packed images of dim digits, split after the leading
    `digits`: the integers those digits spell in base p, most significant
    first, and whether every image's other digits are zero."""
    bits = _digit_bits(p)
    mask, tail = (1 << bits) - 1, (dim - digits) * bits
    lead = images >> tail + (digits - 1) * bits & mask
    for s in range(digits - 2, -1, -1):
        lead *= p
        lead += images >> tail + s * bits & mask
    return lead, not tail or not (images & (1 << tail) - 1).any()


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
