"""Command-line behavior: outputs, exit codes, determinism."""

import json
import time

import pytest

from normbase import cli, gf, oracle
from normbase.polyring import Poly
from normbase.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main, parse_n_spec, parse_q_list


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_q_list():
    assert parse_q_list("2,3,2^2") == [2, 3, 4]
    assert parse_q_list("3^2") == [9]
    with pytest.raises(cli.UsageError):
        parse_q_list("6")
    with pytest.raises(cli.UsageError):
        parse_q_list("abc")


def test_parse_n_spec():
    assert parse_n_spec("1..4") == [1, 2, 3, 4]
    assert parse_n_spec("5,2,2") == [2, 5]
    with pytest.raises(cli.UsageError):
        parse_n_spec("0..2")
    with pytest.raises(cli.UsageError):
        parse_n_spec("x")


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "1..8", "--oracle")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 9
    assert lines[0].startswith("q,n,m,e,lhs,rhs,")
    row7 = lines[8 - 1].split(",")
    assert row7[:2] == ["2", "7"]
    assert row7[4:8] == ["49", "63", "false", "false"]
    assert row7[11:] == ["49", "7", "9"]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2,3", "--n", "1..3", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data) == 6
    assert data[0]["q"] == 2 and data[0]["n"] == 1
    assert isinstance(data[0]["lhs"], str)  # big integers as decimal strings
    assert data[0]["oracle_v"] is None


def test_verify_exit_codes(capsys):
    code, _, err = run(capsys, "verify", "--q", "6", "--n", "1..3")
    assert code == EXIT_USAGE
    assert "not a prime power" in err
    code, _, _ = run(capsys, "verify", "--q", "2", "--n", "0..3")
    assert code == EXIT_USAGE


def test_verify_deterministic_bytes(tmp_path, capsys):
    args = ["verify", "--q", "2,3", "--n", "1..6", "--oracle", "--seed", "42"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a), "--workers", "1"]) == EXIT_OK
    assert main(args + ["--out", str(b), "--workers", "2"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_starts_no_more_workers_than_grid_points(capsys, monkeypatch):
    # a fake pool records its size and maps in this process: no real
    # process starts
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(cli.multiprocessing, "Pool", FakePool)
    args = ["verify", "--q", "2,3", "--n", "1..2"]
    serial = run(capsys, *args, "--workers", "1")
    assert sizes == []
    assert run(capsys, *args, "--workers", "64") == serial
    assert sizes == [4]
    assert run(capsys, "verify", "--q", "2", "--n", "1", "--workers", "64")[0] == EXIT_OK
    assert sizes == [4]


def test_count_values(capsys):
    assert run(capsys, "count", "v", "--n", "7", "--q", "2") == (EXIT_OK, "49\n", "")
    assert run(capsys, "count", "nb", "--n", "4", "--q", "2") == (EXIT_OK, "2\n", "")
    assert run(capsys, "count", "irr-trace", "--n", "7", "--q", "2") == (EXIT_OK, "9\n", "")
    assert run(capsys, "count", "irr-total", "--n", "3", "--q", "2") == (EXIT_OK, "2\n", "")
    # a large prime q is recognised at once (Miller-Rabin, not trial division)
    assert run(capsys, "count", "v", "--n", "1", "--q", str(2**61 - 1)) == (EXIT_OK, f"{2**61 - 2}\n", "")


def test_count_with_oracle(capsys):
    code, out, _ = run(capsys, "count", "v", "--n", "6", "--q", "3", "--oracle")
    assert code == EXIT_OK and out == "324\n"
    code, out, _ = run(capsys, "count", "irr-trace", "--n", "4", "--q", "3", "--t", "2", "--oracle")
    assert code == EXIT_OK and out == "6\n"
    code, _, err = run(capsys, "count", "irr-trace", "--n", "4", "--q", "3", "--t", "0")
    assert code == EXIT_USAGE


def test_verify_oracle_past_the_int16_ceiling(capsys):
    code, out, _ = run(capsys, "verify", "--q", "251", "--n", "2", "--oracle")
    assert code == EXIT_OK
    assert out.splitlines()[1].endswith(",62500,31250,31250")


def test_count_oracle_past_field_order_256(capsys):
    code, out, _ = run(capsys, "count", "irr-total", "--q", "257", "--n", "2", "--oracle", "--budget", "70000")
    assert code == EXIT_OK and out == "32896\n"


def test_count_oracle_counts_roots_up_to_the_element_budget(capsys):
    # nb, irr-trace and irr-total --oracle count from the roots in F_{q^n},
    # so past the 2^16 candidates of the coefficient scan they answer up
    # to 2^20 elements, and --budget caps the elements
    for argv in (
        ("count", "nb", "--q", "2", "--n", "17"),
        ("count", "irr-trace", "--q", "5", "--n", "7", "--t", "3"),
        ("count", "irr-total", "--q", "2", "--n", "17"),
    ):
        code, want, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert run(capsys, *argv, "--oracle") == (EXIT_OK, want, ""), argv
    code, _, err = run(capsys, "count", "nb", "--q", "2", "--n", "21", "--oracle")
    assert code == EXIT_BUDGET and "2097152 elements" in err
    argv = ("count", "irr-total", "--q", "2", "--n", "8", "--oracle", "--budget")
    assert run(capsys, *argv, "255")[0] == EXIT_BUDGET
    assert run(capsys, *argv, "256") == (EXIT_OK, "30\n", "")


def test_count_budget_exceeded(capsys):
    code, _, err = run(capsys, "count", "v", "--n", "8", "--q", "2", "--oracle", "--budget", "16")
    assert code == EXIT_BUDGET
    assert "budget" in err.lower()


def test_count_v_oracle_checks_the_budget_before_building_the_field(capsys):
    # a degree-3000 modulus search would take minutes; the budget check
    # comes first, with the same message as count nb
    errs = []
    for kind in ("v", "nb"):
        start = time.perf_counter()
        code, out, err = run(capsys, "count", kind, "--q", "2", "--n", "3000", "--oracle")
        assert time.perf_counter() - start < 10
        assert code == EXIT_BUDGET and out == ""
        errs.append(err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"budget exceeded: field has {2**3000} elements, budget is ")


def test_factor_xn1_output(capsys):
    code, out, _ = run(capsys, "factor-xn1", "--n", "7", "--q", "2")
    assert code == EXIT_OK
    assert "d=7: tau=3, factors=2" in out
    assert "1,1,0,1" in out and "1,0,1,1" in out
    code, out, _ = run(capsys, "factor-xn1", "--n", "6", "--q", "2")
    assert code == EXIT_OK
    assert "multiplicity p^e = 2" in out
    code, out, _ = run(capsys, "factor-xn1", "--n", "1", "--q", "5")
    assert code == EXIT_OK
    assert "d=1: tau=1, factors=1" in out and "4,1" in out


def test_cmd_test_npoly(capsys):
    assert run(capsys, "test", "npoly", "--q", "2", "--poly", "1,0,1,1")[1] == "true\n"
    code, out, _ = run(capsys, "test", "npoly", "--q", "2", "--poly", "1,1,0,1")
    assert out == "false (zero trace)\n"
    code, out, _ = run(capsys, "test", "npoly", "--q", "2", "--poly", "1,0,0,1")
    assert out == "false (reducible)\n"
    # irreducible with nonzero trace that still fails the rank test
    code, out, _ = run(capsys, "test", "npoly", "--q", "2", "--poly", "1,0,0,0,1,1,1,1")
    assert code == EXIT_OK
    assert out.startswith("false (conjugate rank")


def test_cmd_test_normal(capsys):
    code, out, _ = run(
        capsys, "test", "normal", "--q", "2", "--modulus", "1,0,1,1", "--element", "0,1,0"
    )
    assert code == EXIT_OK and out == "true\n"
    code, out, _ = run(
        capsys, "test", "normal", "--q", "2", "--modulus", "1,0,1,1", "--element", "0"
    )
    assert out == "false (zero trace)\n"
    code, out, _ = run(
        capsys, "test", "normal", "--q", "2", "--modulus", "1,0,1,1", "--element", "1"
    )
    assert out.startswith("false (conjugate rank")  # trace(1) = 1 for odd n
    # F_{3^4}, 3 not dividing 4: nonzero traces, so the gcd criterion
    # decides; 1 + y + 2y^2 lies in F_9
    f81 = ("test", "normal", "--q", "3", "--modulus", "1,0,1,1,1", "--element")
    assert run(capsys, *f81, "0,0,1,1")[1] == "true\n"
    assert run(capsys, *f81, "1,1,2")[1] == "false (conjugate rank 2 < 4)\n"
    code, _, err = run(
        capsys, "test", "normal", "--q", "2", "--modulus", "1,0,1", "--element", "1"
    )
    assert code == EXIT_USAGE and "reducible" in err


def test_cmd_test_tests_each_modulus_once(capsys, monkeypatch):
    tested = []
    real = gf.pirreducible
    monkeypatch.setattr(gf, "pirreducible", lambda F, f: tested.append(tuple(f)) or real(F, f))
    assert run(capsys, "test", "npoly", "--q", "2", "--poly", "1,0,1,1")[1] == "true\n"
    assert run(capsys, "test", "npoly", "--q", "2", "--poly", "1,0,0,1")[1] == "false (reducible)\n"
    argv = ("test", "normal", "--q", "2", "--modulus", "1,0,1,1", "--element", "0,1,0")
    assert run(capsys, *argv)[1] == "true\n"
    assert oracle.is_n_polynomial(Poly(gf.prime_field(2), (1, 0, 1, 1)))
    assert tested == [(1, 0, 1, 1), (1, 0, 0, 1), (1, 0, 1, 1), (1, 0, 1, 1)]


def test_cmd_test_usage_errors(capsys):
    code, _, err = run(capsys, "test", "npoly", "--q", "4", "--poly", "1,1")
    assert code == EXIT_USAGE and "prime" in err
    code, _, _ = run(capsys, "test", "npoly", "--q", "2", "--poly", "0,1,1")  # not monic... (0,1,1) is monic deg 2; use non-monic over F3
    code, _, err = run(capsys, "test", "npoly", "--q", "3", "--poly", "1,2")
    assert code == EXIT_USAGE


def test_cmd_witness(capsys):
    code, out, _ = run(capsys, "witness", "--n", "7", "--q", "2")
    assert code == EXIT_OK
    assert out.strip() == "1,0,0,0,1,1,1,1"
    code, out, _ = run(capsys, "witness", "--n", "3", "--q", "2")
    assert code == EXIT_OK and out.startswith("none (")
    code, out, _ = run(capsys, "witness", "--n", "4", "--q", "2")
    assert code == EXIT_OK and out.startswith("none (")
    code, _, _ = run(capsys, "witness", "--n", "18", "--q", "2")
    assert code == EXIT_BUDGET
    # past the default 2^16 candidates, the census of F_{2^17} and the walk
    # both run under the raised budget
    code, out, _ = run(capsys, "witness", "--q", "2", "--n", "17", "--budget", "131072")
    assert code == EXIT_OK and out == "1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,1,1,1\n"


def test_full_grid_sweep_without_oracle(capsys):
    # closed forms only: the whole q <= 16, n <= 24 grid in one CLI call
    code, out, _ = run(
        capsys, "verify", "--q", "2,3,4,5,7,8,9,11,13,16", "--n", "1..24"
    )
    assert code == EXIT_OK
    assert len(out.strip().split("\n")) == 1 + 10 * 24


def test_verify_json_deterministic_bytes(tmp_path):
    args = ["verify", "--q", "2,3", "--n", "1..5", "--oracle", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a), "--workers", "2"]) == EXIT_OK
    assert main(args + ["--out", str(b), "--workers", "1"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_violation_exit_code_is_reachable(capsys, monkeypatch):
    # sabotage one closed form; every oracle-backed command must notice and
    # exit 1, proving the violation path works end to end
    from normbase import counting

    real = counting.normal_element_count
    monkeypatch.setattr(
        counting, "normal_element_count", lambda n, q: real(n, q) + (n == 5)
    )
    code, _, err = run(capsys, "count", "v", "--n", "5", "--q", "2", "--oracle")
    assert code == 1
    assert "verification failure" in err
    # the message names the stage and the (q, n) point
    assert "count v q=2 n=5: enumeration" in err
    code, _, err = run(capsys, "verify", "--q", "2", "--n", "5..5", "--oracle")
    assert code == 1


def test_no_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_one_parser_per_process_matches_a_fresh_parser(capsys, monkeypatch):
    # main builds its parser once; calls in a row, usage errors among them,
    # print the same bytes and exit codes as calls with a fresh parser each
    calls = [
        ("count", "v", "--q", "2", "--n", "4"),
        ("count", "nb", "--q", "3", "--n", "5", "--oracle"),
        ("count", "bogus", "--q", "2", "--n", "4"),
        ("verify", "--q", "2,3", "--n", "1..3"),
        ("count", "v", "--q", "6", "--n", "2"),
        ("witness", "--q", "2", "--n", "6"),
        ("count",),
        ("factor-xn1", "--q", "3", "--n", "4"),
        ("count", "v", "--q", "2", "--n", "4"),
    ]
    assert cli.build_parser() is cli.build_parser()
    once = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in calls]
    assert once == fresh
    assert [code for code, _, _ in once] == [0, 0, 2, 0, 2, 0, 2, 0, 0]
    assert once[0] == once[-1]
