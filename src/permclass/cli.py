"""Batch command-line front end.

Subcommands: count, distribution, guess, verify, growth, kernel-check.
Output formats: text (default), json (schema permclass/1), and csv for
the tables of count and distribution.  All output is deterministic for
a given invocation.  Each main call builds only its subcommand's parser.

Exit codes: 0 success; 2 usage, parse or out-of-range input error;
3 oracle/functional-equation mismatch; 4 node budget exhausted;
5 verification failed; 6 internal consistency failure (any other
ArithmeticError, such as a non-integer count or an inexact division,
or a bundled fixture file that cannot be read or whose checksum does
not match); 7 no polynomial found; 8 guess gave up: no kernel vector
passed the exact check within algebraic.MAX_PRIMES primes.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import algebraic, class_a, class_b, fixtures, oracle, perms
from .polynomials import MultivariatePolynomial
from .series import UnivariateSeries

SCHEMA = "permclass/1"

EXIT_MISMATCH = 3
EXIT_BUDGET = 4
EXIT_VERIFY_FAILED = 5
EXIT_INCONSISTENT = 6
EXIT_NO_GUESS = 7
EXIT_PRIME_BUDGET = 8

_CLASSES = {
    "class_a": (perms.CLASS_A_BASIS, class_a),
    "class_b": (perms.CLASS_B_BASIS, class_b),
}

_FE_STATS = {"class_a": "initial_decreasing_run",
             "class_b": "marked_trailing_run"}

_FIXTURES = {
    "eq5": fixtures.eq5_min_poly,
    "eq6": fixtures.eq6_min_poly,
    "degree8": fixtures.degree8_min_poly,
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _emit(args, payload: dict, text_lines: list[str],
          columns: tuple[str, ...] = ()) -> None:
    """Print the payload as JSON, or the text lines.  In CSV format
    (tables only) print a header of the column names, then each of
    ``payload["rows"]`` as its values in those columns, bools in lower
    case."""
    if args.format == "json":
        print(json.dumps(dict(schema=SCHEMA, **payload), sort_keys=True))
    elif args.format == "csv":
        print(",".join(columns))
        for row in payload["rows"]:
            print(",".join(str(row[k]).lower() if isinstance(row[k], bool)
                           else str(row[k]) for k in columns))
    else:
        for line in text_lines:
            print(line)


def _fe_counts(class_id: str, n: int) -> list[int]:
    _, mod = _CLASSES[class_id]
    return mod.counts(mod.iterate(n))


def _series_for(class_id: str, source: str, order: int) -> UnivariateSeries:
    _, mod = _CLASSES[class_id]
    if source == "fskew_at_f1" and class_id != "class_a":
        raise CliError("fskew_at_f1 only exists for class_a", 2)
    state = mod.iterate(order)
    if source == "f1":
        return state.f.subst_t(1)
    return state.fskew_at_f1


def cmd_count(args) -> int:
    class_id = args.class_id
    basis, _ = _CLASSES[class_id]
    table = {"n": range(args.n + 1)}
    if args.method in ("oracle", "both"):
        table["oracle"] = oracle.enumerate_avoiders(
            basis, args.n, node_budget=args.node_budget).counts
    if args.method in ("functional_equation", "both"):
        table["functional_equation"] = _fe_counts(class_id, args.n)
    if args.method == "both":
        table["match"] = [a == b for a, b in zip(
            table["oracle"], table["functional_equation"])]
    status = "ok" if all(table.get("match", ())) else "mismatch"
    rows = [dict(zip(table, values)) for values in zip(*table.values())]
    lines = ["\t".join(("MATCH" if x else "MISMATCH")
                       if isinstance(x, bool) else str(x)
                       for x in row.values()) for row in rows]
    _emit(args, {"command": "count", "class": class_id,
                 "method": args.method, "status": status, "rows": rows},
          lines, tuple(table))
    return 0 if status == "ok" else EXIT_MISMATCH


def cmd_distribution(args) -> int:
    class_id = args.class_id
    basis, _ = _CLASSES[class_id]
    stat = args.stat or _FE_STATS[class_id]
    if stat == "gap_count" and args.n == 0:
        raise CliError("gap_count is undefined on the empty permutation, "
                       "so --n 0 has no rows; use --n 1 or more", 2)
    rep = oracle.statistic_distribution(basis, args.n, stat,
                                        node_budget=args.node_budget)
    rows = [{"n": n, "k": k, "count": c}
            for n, row in enumerate(rep.rows)
            for k, c in enumerate(row) if c]
    _emit(args, {"command": "distribution", "class": class_id,
                 "statistic": stat, "rows": rows},
          ["%d,%d,%d" % (r["n"], r["k"], r["count"]) for r in rows],
          ("n", "k", "count"))
    return 0


def cmd_guess(args) -> int:
    series = _series_for(args.class_id, args.series, args.terms)
    guess = algebraic.guess_min_poly(series, args.dy, args.dz)
    if guess is None:
        _emit(args, {"command": "guess", "status": "no_polynomial_found"},
              ["no polynomial found"])
        return EXIT_NO_GUESS
    residual = algebraic.verify_annihilation(
        guess.poly, {"z": UnivariateSeries.z(series.order), "y": series})
    _emit(args, {"command": "guess", "class": args.class_id,
                 "polynomial": guess.poly.serialize(),
                 "dy": guess.dy, "dz": guess.dz,
                 "margin": guess.confidence_margin,
                 "residual_order": residual},
          ["polynomial: %s" % guess.poly,
           "term list: %s" % guess.poly.serialize(),
           "degrees: y %d, z %d" % (guess.dy, guess.dz),
           "margin: %d" % guess.confidence_margin,
           "verification residual order: %d" % residual])
    return 0


def _load_verify_poly(args) -> MultivariatePolynomial:
    """The polynomial to verify: nonzero, in variables among z and y,
    with a term in y and a term of z-degree at most the order.  Zero, or
    terms all beyond the order, pass for every series; a nonzero
    polynomial without y annihilates none."""
    if args.fixture:
        if args.fixture not in _FIXTURES:
            raise CliError("unknown fixture %r (choose from %s)"
                           % (args.fixture, ", ".join(sorted(_FIXTURES))), 2)
        poly = _FIXTURES[args.fixture]()
    else:
        try:
            with open(args.poly) as fh:
                poly = fixtures.parse_poly_text(fh.read())
        except (OSError, ValueError, IndexError) as exc:
            raise CliError("cannot parse polynomial file: %s" % exc, 2)
    foreign = [v for v in poly.vars if v not in ("z", "y")]
    if foreign:
        raise CliError("polynomial variables must be among z and y, got %s"
                       % ", ".join(foreign), 2)
    if poly.is_zero():
        raise CliError("the zero polynomial annihilates every series", 2)
    exponents = [dict(zip(poly.vars, e)) for e in poly.terms]
    if not any(e.get("y", 0) for e in exponents):
        raise CliError("the polynomial has no term in y, so no series "
                       "is its root", 2)
    if 0 <= args.order < min(e.get("z", 0) for e in exponents):
        raise CliError("every term has z-degree above the order %d, so "
                       "nothing is checked" % args.order, 2)
    return poly


def cmd_verify(args) -> int:
    poly = _load_verify_poly(args)
    series = _series_for(args.class_id, args.series, args.order)
    residual = algebraic.verify_annihilation(
        poly, {"z": UnivariateSeries.z(args.order), "y": series})
    passed = residual > args.order
    _emit(args, {"command": "verify", "class": args.class_id,
                 "order": args.order, "residual_order": residual,
                 "status": "pass" if passed else "fail"},
          ["residual order: %d" % residual,
           "verification: %s" % ("PASS" if passed else "FAIL")])
    return 0 if passed else EXIT_VERIFY_FAILED


def cmd_growth(args) -> int:
    class_id = args.class_id
    counts = _fe_counts(class_id, args.terms)
    ratio, extrapolated = algebraic.growth_estimate(counts)
    payload = {"command": "growth", "class": class_id,
               "terms": args.terms, "ratio": ratio,
               "extrapolated": extrapolated}
    lines = ["ratio estimate: %.6f" % ratio,
             "extrapolated estimate: %.6f" % extrapolated]
    if class_id == "class_a":
        candidates = algebraic.growth_exact(fixtures.eq5_min_poly())
        rates = [1.0 / c for c in candidates]
        payload.update(candidates=candidates,
                       note="singularity 5/32, growth 32/5")
        lines.append("singularity candidates: %s"
                     % ", ".join("%.9f" % c for c in candidates))
        claim = "32/5 at singularity 5/32"
    else:
        rates = algebraic.growth_exact(fixtures.growth_quartic())
        payload.update(quartic_roots=rates)
        lines.append("growth quartic roots: %s"
                     % ", ".join("%.9f" % r for r in rates))
        claim = "root of the quartic"
    growth = algebraic.reported_growth(rates, extrapolated)
    payload["exact_growth"] = growth
    lines.append("exact growth: %.6f (%s)" % (growth, claim))
    _emit(args, payload, lines)
    return 0


def cmd_kernel_check(args) -> int:
    state = class_b.iterate(args.order)
    residuals, cofactor = algebraic.kernel_root_check(state)
    ok = (all(r > args.order for r in residuals.values())
          and cofactor.total_degree() == 0)
    payload = {"command": "kernel-check", "order": args.order,
               "cofactor": cofactor.serialize(),
               "status": "pass" if ok else "fail", **residuals}
    _emit(args, payload,
          ["m1(z, t1) residual order: %d" % residuals["m1_residual_order"],
           "K(z, t1) residual order: %d" % residuals["kernel_residual_order"],
           "R residual order: %d" % residuals["r_residual_order"],
           "P residual order: %d" % residuals["p_residual_order"],
           "K cofactor: %s" % cofactor,
           "kernel check: %s" % ("PASS" if ok else "FAIL")])
    return 0 if ok else EXIT_VERIFY_FAILED


def _count_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", default="both",
                   choices=("oracle", "functional_equation", "both"))
    p.add_argument("--node-budget", type=int, default=None)


def _distribution_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", choices=sorted(oracle.STATISTICS), default=None)
    p.add_argument("--node-budget", type=int, default=None)


def _guess_args(p) -> None:
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--dy", type=int, required=True)
    p.add_argument("--dz", type=int, required=True)
    p.add_argument("--series", default="f1", choices=("f1", "fskew_at_f1"))


def _verify_args(p) -> None:
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--series", default="f1", choices=("f1", "fskew_at_f1"))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial file (vars: header + "
                                    "coef:monomial term list)")
    src.add_argument("--fixture", help="bundled fixture name")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone if it is a subcommand, else all six."""
    # name -> (help, formats, --class applies, argument adder, handler),
    # built per call so that a handler replaced on the module is the one run
    commands = {
        "count": ("counting sequence", ("text", "json", "csv"), True,
                  _count_args, cmd_count),
        "distribution": ("statistic distribution (oracle)",
                         ("text", "json", "csv"), True, _distribution_args,
                         cmd_distribution),
        "guess": ("conjecture a minimal polynomial", ("text", "json"), True,
                  _guess_args, cmd_guess),
        "verify": ("check a polynomial annihilates a computed series",
                   ("text", "json"), True, _verify_args, cmd_verify),
        "growth": ("growth-rate report", ("text", "json"), True,
                   lambda p: p.add_argument("--terms", type=int, default=60),
                   cmd_growth),
        "kernel-check": (
            "kernel extraction and root annihilation checks", ("text", "json"),
            False, lambda p: p.add_argument("--order", type=int, default=40),
            cmd_kernel_check),
    }
    parser = argparse.ArgumentParser(
        prog="permclass",
        description="Exact enumeration and algebra for Av(2413,3412) "
                    "and Av(1432,2143)")
    one = command in commands
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(commands) if one else None)
    for name in (command,) if one else commands:
        help_, formats, with_class, add_args, func = commands[name]
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=formats, default="text")
        if with_class:
            p.add_argument("--class", dest="class_id", required=True,
                           choices=sorted(_CLASSES))
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except oracle.BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except algebraic.PrimeBudgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRIME_BUDGET
    except (ArithmeticError, fixtures.FixtureIntegrityError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        # out-of-range input rejected by the library (SeriesError and
        # InsufficientDataError included)
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
