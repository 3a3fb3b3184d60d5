"""The CLI's bytes and exit codes, pinned: each command in
tests/data/cli_golden.json is replayed in-process through `cli.main`, and
its stdout, stderr and exit code must equal the recorded ones.

The file was recorded before a refactor it guards.  Re-record it only for
an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from normbase import cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = [
    ["count", "v", "--q", "2", "--n", "7"],
    ["count", "v", "--q", "2", "--n", "7", "--oracle"],
    ["count", "nb", "--q", "3", "--n", "4"],
    ["count", "nb", "--q", "3", "--n", "4", "--oracle"],
    ["count", "irr-trace", "--q", "5", "--n", "3", "--t", "2"],
    ["count", "irr-trace", "--q", "5", "--n", "3", "--t", "2", "--oracle"],
    ["count", "irr-total", "--q", "4", "--n", "3"],
    ["count", "irr-total", "--q", "4", "--n", "3", "--oracle"],
    ["count", "v", "--q", "2", "--n", "21", "--oracle"],
    ["test", "npoly", "--q", "2", "--poly", "1,0,1,1"],
    ["test", "npoly", "--q", "2", "--poly", "1,0,0,1"],
    ["test", "npoly", "--q", "2", "--poly", "1,1,0,1"],
    ["test", "npoly", "--q", "2", "--poly", "1,0,0,0,1,1,1,1"],
    ["test", "normal", "--q", "2", "--modulus", "1,1,0,1", "--element", "1,1,1"],
    ["test", "normal", "--q", "2", "--modulus", "1,1,0,1", "--element", "1,0,0"],
    ["test", "normal", "--q", "2", "--modulus", "1,1,0,1", "--element", "0,1,0"],
    ["test", "normal", "--q", "2", "--modulus", "1,0,1", "--element", "1,0"],
    ["witness", "--q", "2", "--n", "7"],
    ["witness", "--q", "2", "--n", "4"],
    ["witness", "--q", "2", "--n", "5"],
    ["witness", "--q", "2", "--n", "18"],
    ["factor-xn1", "--q", "4", "--n", "15"],
    ["verify", "--q", "2,3", "--n", "1..4", "--oracle", "--format", "json"],
    ["count", "v", "--q", "6", "--n", "3"],
    ["verify", "--q", "2", "--n", "0..3"],
]


def replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded():
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_byte_identical_to_the_record(argv, recorded):
    assert replay(argv) == recorded[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([replay(argv) for argv in COMMANDS], indent=1) + "\n")
