"""Workloads, reference data and output checks.

Every job is one ``permclass`` command line, run in-process through
``permclass.cli.main``.  Its output is checked against references that
the code under test does not produce: the frozen files in
``tests/golden/``, the bundled minimal polynomials (evaluated here with
plain integer lists, not with ``permclass.series``), 32/5 and the root
of the class-B growth quartic found here by exact bisection.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

FE_ORDER = 60        # FE rows checked by annihilation beyond the goldens
ORACLE_N = 10
STATS = {"class_a": "initial_decreasing_run",
         "class_b": "marked_trailing_run"}
# z^4 - 7z^3 + 9z^2 - 8z + 4; its root near 5.63 is the class-B growth rate
GROWTH_QUARTIC = (4, -8, 9, -7, 1)


@dataclass
class References:
    fe_counts: dict[str, list[int]]        # rows 0..40
    oracle_counts: dict[str, list[int]]    # rows 0..ORACLE_N
    distributions: dict[str, str]          # CSV through n = ORACLE_N
    minpolys: dict[str, dict]              # (z-exp, y-exp) -> coefficient
    quartic_root: float


def _golden_counts(path: Path) -> list[int]:
    out = []
    for line in path.read_text().splitlines():
        if line.strip():
            n, c = line.split("\t")
            if int(n) != len(out):
                raise ValueError("%s: rows out of order" % path)
            out.append(int(c))
    return out


def _golden_distribution(path: Path, n_max: int) -> str:
    lines = path.read_text().splitlines()
    keep = [lines[0]] + [ln for ln in lines[1:]
                         if ln and int(ln.split(",")[0]) <= n_max]
    return "\n".join(keep) + "\n"


def _zy_terms(poly) -> dict:
    """Terms of a bundled polynomial in (z, y), refusing a constant one
    (the zero polynomial would "annihilate" any series)."""
    if tuple(poly.vars) != ("z", "y") or not any(
            c and e[1] for e, c in poly.terms.items()):
        raise ValueError("reference polynomial must involve y, in (z, y)")
    return {e: c for e, c in poly.terms.items() if c}


def _bisect_root(coeffs, lo: Fraction, hi: Fraction) -> float:
    def q(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))
    if (q(lo) > 0) == (q(hi) > 0):
        raise ValueError("no sign change on the bracket")
    while hi - lo > Fraction(1, 10 ** 15):
        mid = (lo + hi) / 2
        if (q(mid) > 0) == (q(lo) > 0):
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def load_references(root: Path, fixtures) -> References:
    golden = root / "tests" / "golden"
    classes = ("class_a", "class_b")
    return References(
        fe_counts={c: _golden_counts(golden / ("%s_fe_counts_40.tsv" % c))
                   for c in classes},
        oracle_counts={c: _golden_counts(golden / ("%s_counts.tsv" % c))
                       [:ORACLE_N + 1] for c in classes},
        distributions={c: _golden_distribution(
            golden / ("%s_%s.csv" % (c, STATS[c])), ORACLE_N)
            for c in classes},
        minpolys={"class_a": _zy_terms(fixtures.eq5_min_poly()),
                  "class_b": _zy_terms(fixtures.degree8_min_poly())},
        quartic_root=_bisect_root(GROWTH_QUARTIC, Fraction(5), Fraction(6)),
    )


# -- output checks ---------------------------------------------------------
# Each check takes (references, stdout) and returns a list of problems;
# the exit code is checked by the caller.

def _mul(a: list, b: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def _evaluate(terms: dict, f: list, order: int) -> list:
    """sum c z^a f^b truncated after z^order, by Horner in f."""
    dy = max(b for _a, b in terms)
    by_y = [[0] * (order + 1) for _ in range(dy + 1)]
    for (a, b), c in terms.items():
        if a <= order:
            by_y[b][a] += c
    acc = by_y[dy]
    for b in range(dy - 1, -1, -1):
        acc = [x + y for x, y in zip(_mul(acc, f, order), by_y[b])]
    return acc


def annihilation_residual(terms: dict, f: list[int]) -> int | None:
    """First z-power at which P(z, f) fails to vanish, or None.

    A wrong f_k first shows at z^(k+s), s the valuation of P_y(z, f)
    (4 for the class-B degree-8 polynomial), so P(z, f) is checked
    through z^(N+s) with the unknown rows beyond N set to 0: they reach
    only z^(N+1+s) and beyond."""
    n = len(f) - 1
    deriv = {(a, b - 1): b * c for (a, b), c in terms.items() if b}
    shift = next((k for k, x in enumerate(_evaluate(deriv, f, n)) if x), n)
    acc = _evaluate(terms, f + [0] * shift, n + shift)
    return next((k for k, x in enumerate(acc) if x), None)


def _rows(out: str, width: int) -> list[list[str]]:
    rows = [ln.split("\t") for ln in out.splitlines() if ln]
    if any(len(r) != width for r in rows) or \
            [r[0] for r in rows] != [str(n) for n in range(len(rows))]:
        raise ValueError("malformed table")
    return rows


def check_fe(cls: str) -> Callable:
    def check(refs: References, out: str) -> list[str]:
        counts = [int(r[1]) for r in _rows(out, 2)]
        if len(counts) != FE_ORDER + 1:
            return ["%s: %d FE rows, want %d"
                    % (cls, len(counts), FE_ORDER + 1)]
        problems = []
        golden = refs.fe_counts[cls]
        bad = [n for n, c in enumerate(golden) if counts[n] != c]
        if bad:
            problems.append("%s: FE rows %s differ from the golden file"
                            % (cls, bad[:5]))
        residual = annihilation_residual(refs.minpolys[cls], counts)
        if residual is not None:
            problems.append("%s: minimal polynomial residual at z^%d"
                            % (cls, residual))
        return problems
    return check


def check_count_both(cls: str) -> Callable:
    def check(refs: References, out: str) -> list[str]:
        rows = _rows(out, 4)
        got = [(int(r[1]), int(r[2]), r[3]) for r in rows]
        want = [(c, c, "MATCH") for c in refs.oracle_counts[cls]]
        if got != want:
            bad = [n for n, (g, w) in enumerate(zip(got, want)) if g != w]
            return ["%s: count rows %s differ from the golden file"
                    % (cls, bad[:5] or "(length)")]
        return []
    return check


def check_distribution(cls: str) -> Callable:
    def check(refs: References, out: str) -> list[str]:
        if out != refs.distributions[cls]:
            return ["%s: distribution differs from the golden file" % cls]
        return []
    return check


def parse_terms(text: str) -> dict:
    """``coef:z^a*y^b`` tokens -> {(a, b): coef}."""
    terms: dict = {}
    for token in text.split():
        coef, mono = token.split(":")
        exps = {"z": 0, "y": 0}
        if mono != "1":
            for factor in mono.split("*"):
                name, _, k = factor.partition("^")
                exps[name] += int(k or 1)
        key = (exps["z"], exps["y"])
        terms[key] = terms.get(key, 0) + int(coef)
    return {e: c for e, c in terms.items() if c}


def _line(out: str, prefix: str) -> str | None:
    return next((ln[len(prefix):] for ln in out.splitlines()
                 if ln.startswith(prefix)), None)


def check_guess(refs: References, out: str) -> list[str]:
    listed = _line(out, "term list: ")
    if listed is None:
        return ["guess: no term list"]
    got, eq5 = parse_terms(listed), refs.minpolys["class_a"]
    if got != eq5 and got != {e: -c for e, c in eq5.items()}:
        return ["guess: polynomial is not +-eq5"]
    return []


def check_last_line(expected: str) -> Callable:
    def check(refs: References, out: str) -> list[str]:
        lines = out.splitlines()
        if not lines or lines[-1] != expected:
            return ["last line is not %r" % expected]
        return []
    return check


def check_growth(cls: str) -> Callable:
    """The printed values at their printed precision: singularity
    candidates and quartic roots to 9 places, exact growth to 6."""
    def check(refs: References, out: str) -> list[str]:
        if cls == "class_a":
            listed, root = "singularity candidates: ", 5 / 32
            growth = 32 / 5
        else:
            listed, root = "growth quartic roots: ", refs.quartic_root
            growth = refs.quartic_root
        problems = []
        values = (_line(out, listed) or "").split(", ")
        if "%.9f" % root not in values:
            problems.append("%s: %.9f not among %s" % (cls, root, values))
        exact = _line(out, "exact growth: ") or ""
        if exact.split(" ")[0] != "%.6f" % growth:
            problems.append("%s: exact growth %r, want %.6f"
                            % (cls, exact, growth))
        return problems
    return check


# -- workloads -------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    part: int               # 1 or 2: the per-workflow time it adds to
    argv: tuple
    check: Callable


@dataclass(frozen=True)
class Workload:
    why: str
    parts: tuple            # names of the two per-workflow times
    jobs: tuple


def _fe_jobs() -> tuple:
    return tuple(Job(part, ("count", "--class", cls, "--method",
                            "functional_equation", "--n", str(FE_ORDER)),
                     check_fe(cls))
                 for part, cls in ((1, "class_a"), (2, "class_b")))


def _oracle_jobs() -> tuple:
    jobs = []
    for cls in ("class_a", "class_b"):
        jobs.append(Job(1, ("count", "--class", cls, "--method", "both",
                            "--n", str(ORACLE_N)), check_count_both(cls)))
        jobs.append(Job(2, ("distribution", "--class", cls, "--n",
                            str(ORACLE_N), "--stat", STATS[cls],
                            "--format", "csv"), check_distribution(cls)))
    return tuple(jobs)


def _algebra_jobs() -> tuple:
    return (
        Job(1, ("kernel-check", "--order", "40"),
            check_last_line("kernel check: PASS")),
        Job(2, ("guess", "--class", "class_a", "--terms", "40", "--dy", "3",
                "--dz", "4"), check_guess),
        Job(2, ("verify", "--class", "class_b", "--fixture", "degree8",
                "--order", "41"), check_last_line("verification: PASS")),
        Job(2, ("verify", "--class", "class_a", "--fixture", "eq6",
                "--series", "fskew_at_f1", "--order", "40"),
            check_last_line("verification: PASS")),
        Job(2, ("growth", "--class", "class_a", "--terms", "30"),
            check_growth("class_a")),
        Job(2, ("growth", "--class", "class_b", "--terms", "30"),
            check_growth("class_b")),
    )


WORKLOADS = {
    "fe_deep": Workload(
        why="FE counts to N=60, both classes: bivariate series products, "
            "tpoly_mul_acc and the class operators; no oracle work. "
            "workflow.part1_s, part2_s: class A, class B",
        parts=("fe_a_s", "fe_b_s"), jobs=_fe_jobs()),
    "oracle_crosscheck": Workload(
        why="count --method both and distribution at n=10, both classes: "
            "oracle generation, child checks, statistics; FE takes ms. "
            "workflow.part1_s, part2_s: counts, distributions",
        parts=("count_both_s", "distribution_s"), jobs=_oracle_jobs()),
    "algebra_verify": Workload(
        why="guess, verify, growth, kernel-check: univariate Fraction "
            "products, resultant, Newton, nullspace. workflow.part1_s, "
            "part2_s: kernel-check, the rest",
        parts=("kernel_check_s", "guess_verify_s"), jobs=_algebra_jobs()),
}


def self_check(refs: References) -> list[str]:
    """Show that the checks can fail: a correct count table and
    distribution pass, and one corrupted count or row is flagged."""
    counts = refs.oracle_counts["class_a"]
    table = ["%d\t%d\t%d\tMATCH" % (n, c, c) for n, c in enumerate(counts)]
    dist = refs.distributions["class_a"].splitlines()
    n, k, c = dist[-1].split(",")
    bad_table = table[:-1] + ["%d\t%d\t%d\tMATCH" % (len(counts) - 1,
                                                    counts[-1],
                                                    counts[-1] + 1)]
    bad_dist = dist[:-1] + ["%s,%s,%d" % (n, k, int(c) + 1)]
    count_check = check_count_both("class_a")
    dist_check = check_distribution("class_a")
    cases = [
        ("correct count table", count_check, table, False),
        ("corrupted count", count_check, bad_table, True),
        ("correct distribution", dist_check, dist, False),
        ("corrupted distribution row", dist_check, bad_dist, True),
    ]
    problems = []
    for label, check, lines, want_flag in cases:
        flagged = bool(check(refs, "\n".join(lines) + "\n"))
        if flagged != want_flag:
            problems.append("self-check: %s %s" % (
                label, "not flagged" if want_flag else "flagged"))
    return problems
