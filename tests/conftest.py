import contextlib
import random

import numpy as np
import pytest

from normbase import _linalg, counting, gf, oracle


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
            scans[q, n] = oracle.scan_irreducibles(n, q, budget=2**16)
            n += 1
    return scans


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
    """ext._fold's matrix built one slot at a time: row (j, s) holds the
    prime coordinates of x^j mod f times the element that a one in the
    base's raw slot s stands for, by one pmod and one base product each."""
    base = ext.base
    units = [base.one] if isinstance(base, gf.PrimeField) else gf._elements(base, base._fold.tolist())
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
