"""The coefficient scan's output pinned by hash.

tests/data/scan_digest.json holds, per cell (q, n) with prime-power
q <= 256, n >= 2 and q^n <= 2^12, a sha256 of the coeff_rows,
trace_nonzero, npoly and trace_counts of conftest.coefficient_scan, the
batched reference scan that the test suite holds the library to, each
normalised to one dtype so that a change of internal dtype does not move
the hash.  Regenerate it (only from a tree whose reference scan is
trusted) with

    PYTHONPATH=src python tests/test_scan_digest.py
"""

import hashlib
import json
import pathlib

from normbase import counting

from conftest import coefficient_scan

DIGEST_PATH = pathlib.Path(__file__).parent / "data" / "scan_digest.json"
MAX_CANDIDATES = 2**12


def digest_cells(max_candidates: int = MAX_CANDIDATES) -> list[tuple[int, int]]:
    return [
        (q, n)
        for q in range(2, 257)
        if counting.is_prime_power(q)
        for n in range(2, 64)
        if q**n <= max_candidates
    ]


def scan_digest(scan) -> str:
    h = hashlib.sha256()
    for arr, dt in (
        (scan.coeff_rows, "<i8"),
        (scan.trace_nonzero, "?"),
        (scan.npoly, "?"),
        (scan.trace_counts, "<i8"),
    ):
        a = arr.astype(dt)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_scan_matches_pinned_digest():
    pinned = json.loads(DIGEST_PATH.read_text())
    cells = digest_cells()
    assert sorted(pinned) == sorted(f"{q},{n}" for q, n in cells)
    for q, n in cells:
        assert scan_digest(coefficient_scan(n, q)) == pinned[f"{q},{n}"], (q, n)


if __name__ == "__main__":
    table = {f"{q},{n}": scan_digest(coefficient_scan(n, q)) for q, n in digest_cells()}
    DIGEST_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cells to {DIGEST_PATH}")
