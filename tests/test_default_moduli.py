"""The default moduli pinned by hash.

An element of a field built with a default modulus is encoded relative to
that modulus, so a change of gf.first_irreducible's answer would move every
such encoding.  tests/data/default_moduli.json holds, per (q, degree), a
sha256 of the element indices of first_irreducible(F_q, degree), at every
degree that the benchmark's tower-factor workload builds.  Regenerate it
(only from a tree whose irreducibility test is trusted) with

    PYTHONPATH=src python tests/test_default_moduli.py
"""

import hashlib
import json
import pathlib

from normbase import gf

DIGEST_PATH = pathlib.Path(__file__).parent / "data" / "default_moduli.json"

DEGREES = {
    2: (*range(2, 25), 32, 48, 64, 93, 120),
    3: tuple(range(2, 21)),
    5: tuple(range(2, 17)),
    7: tuple(range(2, 17)),
    4: tuple(range(2, 10)),
    9: tuple(range(2, 8)),
    16: tuple(range(2, 8)),
}


def modulus_digest(F, degree: int) -> str:
    indices = [F.index(c) for c in gf.first_irreducible(F, degree)]
    return hashlib.sha256(repr(indices).encode()).hexdigest()


def digests() -> dict[str, str]:
    out = {}
    for q, degrees in DEGREES.items():
        F = gf.field_of_order(q)
        for d in degrees:
            out[f"{q},{d}"] = modulus_digest(F, d)
    return out


def test_default_moduli_match_pinned_digest():
    pinned = json.loads(DIGEST_PATH.read_text())
    got = digests()
    assert sorted(got) == sorted(pinned)
    assert [key for key in got if got[key] != pinned[key]] == []


if __name__ == "__main__":
    table = digests()
    DIGEST_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} moduli to {DIGEST_PATH}")
