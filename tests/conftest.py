import contextlib
import random

import pytest

from normbase import counting, gf, oracle


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


@contextlib.contextmanager
def criterion(name):
    """Print one pass/fail line per acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    print(f"\n[acceptance] {name}: PASS")
