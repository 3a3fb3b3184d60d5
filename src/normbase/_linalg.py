"""Vectorized linear algebra over F_p for the exhaustive scans.

Fields of order p^D are F_p-vector spaces; every F_q-linear map (Frobenius,
scalar multiplication, any linearized operator) is also F_p-linear and so
becomes a D x D integer matrix mod p.  Whole-field scans then reduce to
matrix products and a batched Gaussian elimination, which is what makes
enumerating 2^20 elements practical in pure Python + numpy.
"""

from __future__ import annotations

import numpy as np

_UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)
_SIGNED = (np.int16, np.int32, np.int64)


def dtype_for(p: int, terms: int = 0) -> np.dtype:
    """The numpy dtype for arithmetic mod p; every dtype of the scans is
    chosen here, so that none of them can wrap around.

    terms=0 gives the narrowest unsigned type storing residues in [0, p).
    terms=t >= 1 gives the narrowest signed type, int16 at least, holding
    every value of magnitude up to (p-1) + t*(p-1)^2: the largest
    intermediate of a length-t dot product of residues, or of one
    elimination step x - fac*y (t = 1)."""
    if terms == 0:
        bound, ladder = p - 1, _UNSIGNED
    else:
        bound, ladder = (p - 1) + terms * (p - 1) ** 2, _SIGNED
    for dt in ladder:
        if bound <= np.iinfo(dt).max:
            return np.dtype(dt)
    raise ValueError(f"arithmetic mod {p} over {terms} terms does not fit in 64 bits")


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place.  numpy vectorises floor division by a scalar but
    not %, so on a large int16 array this is about 3x faster than x % p."""
    x -= x // p * p
    return x


def linear_map_matrix(func, ext) -> np.ndarray:
    """Matrix over F_p of an F_p-linear map on ext, from a plain callable.

    Column j is the prime-coordinate image of the j-th unit vector, so the
    matrix is exact by construction whenever func is linear."""
    dim = ext.prime_dim
    cols = []
    for j in range(dim):
        unit = [0] * dim
        unit[j] = 1
        e = ext.from_prime_coords(tuple(unit))
        cols.append(ext.prime_coords(func(e)))
    return (np.array(cols, dtype=np.int64).T % ext.char).astype(dtype_for(ext.char))


def frobenius_matrix(ext) -> np.ndarray:
    return linear_map_matrix(ext.frobenius, ext)


def basis_scalar_matrices(field) -> list[np.ndarray]:
    """The k x k matrices of multiplication by each F_p-basis scalar of a
    field of order p^k; for a prime field this is just [identity]."""
    mats = []
    for t in range(field.prime_dim):
        unit = [0] * field.prime_dim
        unit[t] = 1
        s = field.from_prime_coords(tuple(unit))
        mats.append(linear_map_matrix(lambda a: field.mul(a, s), field))
    return mats


def apply_map(vectors: np.ndarray, mat: np.ndarray, p: int) -> np.ndarray:
    """(N, D) coordinate rows through a (D, D) map, reduced mod p."""
    # int32 at least: int16 was no faster overall for these shapes.
    wide = np.promote_types(dtype_for(p, mat.shape[1]), np.int32)
    prod = vectors.astype(wide) @ mat.T.astype(wide)
    return reduce_mod(prod, p).astype(dtype_for(p))


def scale_coords(vectors: np.ndarray, mat: np.ndarray, p: int) -> np.ndarray:
    """Prime coordinates (..., n*k) of elements of an extension of F_q,
    q = p^k, multiplied by the scalar of F_q whose k x k matrix is mat.
    A scalar of F_q acts on each F_q coordinate separately, here as k^2
    strided multiply-adds: about 3x faster than a matmul of inner
    dimension k on many rows."""
    k = mat.shape[0]
    blocks = vectors.reshape(vectors.shape[:-1] + (vectors.shape[-1] // k, k))
    blocks = blocks.astype(dtype_for(p, k))
    out = np.zeros_like(blocks)
    for u, t in zip(*np.nonzero(mat)):
        out[..., u] += int(mat[u, t]) * blocks[..., t]
    return reduce_mod(out, p).astype(dtype_for(p)).reshape(vectors.shape)


def independent_over_base(coords: np.ndarray, smats: list[np.ndarray], p: int) -> np.ndarray:
    """For a (B, n, n*k) batch of n elements each of a degree-n extension of
    F_q, q = p^k, given by prime coordinates, whether each member's n
    elements are independent over F_q.  That is full F_p-rank of the
    elements scaled by every F_p-basis scalar of F_q (smats, from
    basis_scalar_matrices); over a prime field it is the rank of coords."""
    if len(smats) > 1:
        coords = np.concatenate([scale_coords(coords, s, p) for s in smats], axis=1)
    return batched_rank_full(coords, p)


def all_vectors(p: int, dim: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Base-p digit rows for indices [start, stop), most significant digit
    first.  Row i equals prime_coords(from_index(start + i)) of a field of
    order p^dim, so numpy scans walk elements in the canonical order."""
    if stop is None:
        stop = p**dim
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(idx), dim), dtype=dtype_for(p))
    for j in range(dim):
        out[:, j] = (idx // p ** (dim - 1 - j)) % p
    return out


def inverse_table(p: int, dtype) -> np.ndarray:
    return np.array([0] + [pow(i, -1, p) for i in range(1, p)], dtype=dtype)


def _batched_rank_full_gf2(mats: np.ndarray) -> np.ndarray:
    """Rank-fullness over F_2 with rows packed into machine words: the
    elimination step becomes one masked XOR per column."""
    nbatch, m, _ = mats.shape
    work = np.zeros((nbatch, m), dtype=np.uint32)
    for j in range(m):
        work |= (mats[:, :, j].astype(np.uint32) & np.uint32(1)) << np.uint32(j)
    ok = np.ones(nbatch, dtype=bool)
    bidx = np.arange(nbatch)
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


def batched_rank_full(mats: np.ndarray, p: int) -> np.ndarray:
    """For a (B, m, m) batch of matrices over F_p, whether each has rank m.

    Plain Gaussian elimination run across the whole batch at once; the pivot
    for every batch member is the first nonzero entry in the current column
    (deterministic, and batch members that go singular are masked out via
    the returned flags rather than aborting the elimination)."""
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected a (B, m, m) batch")
    if p == 2 and mats.shape[1] <= 32:
        return _batched_rank_full_gf2(mats % 2)
    wide = dtype_for(p, 1)
    work = mats.astype(wide) % p
    nbatch, m, _ = work.shape
    ok = np.ones(nbatch, dtype=bool)
    inv = inverse_table(p, wide)
    bidx = np.arange(nbatch)
    for c in range(m):
        col = work[:, c:, c]
        nz = col != 0
        ok &= nz.any(axis=1)
        piv = c + np.argmax(nz, axis=1)
        row_c = work[bidx, c, :].copy()
        row_p = work[bidx, piv, :].copy()
        work[bidx, c, :] = row_p
        work[bidx, piv, :] = row_c
        work[:, c, :] = work[:, c, :] * inv[work[:, c, c]][:, None] % p
        if c + 1 < m:
            fac = work[:, c + 1 :, c]
            work[:, c + 1 :, :] -= fac[:, :, None] * work[:, c, None, :]
            work[:, c + 1 :, :] %= p
    return ok
