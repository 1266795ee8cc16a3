"""Brute-force ground truth: enumerate all avoiders of a basis up to a
length bound and tabulate statistic distributions.

Avoiders are generated depth first by appending a new rightmost value
to an avoider (the other entries relabelled); the classes are closed
under removal of the last entry, so the search tree is exactly the
class.  For each parent the values that may be appended are found once,
by one scan of the parent that collects the forbidden values as a union
of intervals (``_kernels``); the two bases of interest are the only
ones with such a scan.  Counts and statistic rows are tallied during the
walk, each child's statistic updated from its parent's; the last length
is counted, not built.  Memory grows with the length bound, not with the
counts.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from . import _kernels, perms
from .perms import Basis, Perm, CLASS_A_BASIS, CLASS_B_BASIS

DEFAULT_NODE_BUDGET = 10 ** 8
BUDGET_ENV_VAR = "PERMCLASS_NODE_BUDGET"

STATISTICS: dict[str, Callable[[Perm], int]] = {
    "initial_decreasing_run": perms.initial_decreasing_run,
    "trailing_increasing_run": perms.trailing_increasing_run,
    "marked_trailing_run": perms.marked_trailing_run,
    "gap_count": perms.gap_count,
    "slice_count": perms.slice_count,
}


class BudgetExceededError(RuntimeError):
    """Raised when the enumeration would exceed the node budget."""


@dataclass
class CountReport:
    """Per-length counts, with optional per-statistic distributions.

    distributions maps a statistic name to a matrix m[n][k]: the number
    of length-n avoiders with statistic value k.
    """

    basis: Basis
    counts: list[int]
    distributions: dict[str, list[list[int]]] = field(default_factory=dict)

    def serialize_counts(self) -> str:
        """Golden-file format: one line per length, `n <tab> count`."""
        return "".join("%d\t%d\n" % (n, c) for n, c in enumerate(self.counts))

    def serialize_distribution(self, stat: str) -> str:
        """CSV rows n,k,count (zero rows omitted)."""
        rows = ["n,k,count"]
        for n, row in enumerate(self.distributions[stat]):
            for k, c in enumerate(row):
                if c:
                    rows.append("%d,%d,%d" % (n, k, c))
        return "\n".join(rows) + "\n"


def parse_counts(text: str) -> list[int]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            n, c = line.split("\t")
            assert int(n) == len(out)
            out.append(int(c))
    return out


def default_budget() -> int:
    value = os.environ.get(BUDGET_ENV_VAR)
    if not value:
        return DEFAULT_NODE_BUDGET
    try:
        return int(value)
    except ValueError:
        raise ValueError("%s must be an integer, got %r"
                         % (BUDGET_ENV_VAR, value)) from None


# The scan giving, as a bit mask (bit v), the values whose appending to
# an avoider makes an occurrence of a basis pattern.
_FORBIDDEN_SCANS: dict[Basis, Callable[[list], int]] = {
    CLASS_A_BASIS: _kernels.class_a_forbidden,
    CLASS_B_BASIS: _kernels.class_b_forbidden,
}


# For each entry of STATISTICS: the statistic of the child p+v (p
# relabelled) from p, the statistic s of p and v.  Every statistic is
# taken as 0 on the empty permutation (gap_count is undefined there and
# its length-0 row is left empty).
def _step_initial_decreasing_run(p: list, s: int, v: int) -> int:
    return s + 1 if s == len(p) and (not p or v <= p[-1]) else s


def _step_trailing_increasing_run(p: list, s: int, v: int) -> int:
    return s + 1 if p and v > p[-1] else 1


def _step_gap_count(p: list, s: int, v: int) -> int:
    return s + 1 if p and v > p[-1] else 2


def _step_marked_trailing_run(p: list, s: int, v: int) -> int:
    # v == 1 is the new minimum and is never marked
    if p and v > p[-1]:
        return s + 1
    return 0 if v == 1 else 1


def _step_slice_count(p: list, s: int, v: int) -> int:
    return s + (v == 1)


_STEPS: dict[str, Callable[[list, int, int], int]] = {
    "initial_decreasing_run": _step_initial_decreasing_run,
    "trailing_increasing_run": _step_trailing_increasing_run,
    "marked_trailing_run": _step_marked_trailing_run,
    "gap_count": _step_gap_count,
    "slice_count": _step_slice_count,
}


class _Budget:
    __slots__ = ("budget", "left")

    def __init__(self, budget: int | None):
        self.budget = budget if budget is not None else default_budget()
        if self.budget < 0:
            raise ValueError("node budget must be >= 0, got %d" % self.budget)
        self.left = self.budget

    def spend(self, amount: int, length: int) -> None:
        """Spend on extending a parent to children of the given length."""
        self.left -= amount
        if self.left < 0:
            raise BudgetExceededError(
                "node budget of %d extension attempts exhausted while "
                "generating length %d; raise it with --node-budget or %s"
                % (self.budget, length, BUDGET_ENV_VAR))


def _walk(basis: Basis, n_max: int, node_budget: int | None,
          step: Callable[[list, int, int], int] | None = None,
          first: int = 1) -> tuple[list[int], list[list[int]]]:
    """Depth-first walk of the avoiders of length <= n_max.

    Returns (counts, rows): counts[n] avoiders of length n and, with a
    ``step`` (see _STEPS), rows[n][k] of them with statistic value k
    (rows[n] has n + 2 entries).  With ``first`` = 2 only values >= 2
    are appended after the first entry, so every avoider starts with 1.

    A parent with children of length n spends the number of candidate
    values, n - first + 1 (1 for the empty parent), as a level-by-level
    search would, so the budget runs out on the same inputs.  Only
    children that will themselves be extended are built; memory grows
    with n_max, not with the counts.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if basis not in _FORBIDDEN_SCANS:
        raise ValueError("no forbidden-value scan for basis %s" % basis)
    budget = _Budget(node_budget)
    forbidden = _FORBIDDEN_SCANS[basis]
    counts = [1] + [0] * n_max
    rows = [[0] * (n + 2) for n in range(n_max + 1)]
    rows[0][0] = 1
    pending = []            # (parent, v, statistic of parent + v)

    def expand(p: list, s: int) -> None:
        n = len(p) + 1      # length of the children
        lo = first if n >= 2 else 1
        budget.spend(n - lo + 1, n)
        # bit 0 stands for no value, and bit 1 is set when v = 1 is skipped
        forbid = forbidden(p) | ((1 << lo) - 1)
        counts[n] += n + 1 - forbid.bit_count()
        deeper = n < n_max
        if step is None and not deeper:
            return
        allowed = [v for v in range(lo, n + 1) if not forbid >> v & 1]
        if step is None:
            pending.extend((p, v, 0) for v in allowed)
            return
        row = rows[n]
        for v in allowed:
            t = step(p, s, v)
            row[t] += 1
            if deeper:
                pending.append((p, v, t))

    if n_max > 0:
        expand([], 0)
    while pending:
        p, v, s = pending.pop()
        child = [x + 1 if x >= v else x for x in p]
        child.append(v)
        expand(child, s)
    return counts, rows


def enumerate_avoiders(b: Basis, n_max: int,
                       node_budget: int | None = None) -> CountReport:
    """Exact counts of avoiders of each length <= n_max.

    >>> enumerate_avoiders(CLASS_A_BASIS, 4).counts
    [1, 1, 2, 6, 22]
    """
    counts, _rows = _walk(b, n_max, node_budget)
    return CountReport(basis=b, counts=counts)


def statistic_distribution(b: Basis, n_max: int, stat: str,
                           node_budget: int | None = None) -> CountReport:
    """Counts refined by a permutation statistic: matrix m[n][k] of
    length-n avoiders with statistic value k."""
    if stat not in STATISTICS:
        raise ValueError("unknown statistic %r (choose from %s)"
                         % (stat, ", ".join(sorted(STATISTICS))))
    counts, rows = _walk(b, n_max, node_budget, _STEPS[stat])
    if stat == "gap_count":
        rows[0][0] = 0  # gap count is undefined on the empty permutation
    return CountReport(basis=b, counts=counts, distributions={stat: rows})


def single_slice_distribution(b: Basis, n_max: int,
                              node_budget: int | None = None) -> CountReport:
    """Avoiders that start with their smallest entry, tabulated by the
    marked trailing run (the whole trailing run except the minimum)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    counts, rows = _walk(b, n_max, node_budget, _step_marked_trailing_run,
                         first=2)
    counts[0] = 0
    matrix = [[0]] + [row[:n + 1] for n, row in enumerate(rows) if n]
    return CountReport(basis=b, counts=counts,
                       distributions={"marked_trailing_run": matrix})


def filter_all_avoiders(b: Basis, n: int) -> list[Perm]:
    """Independent cross-check: filter all n! permutations with the
    generic containment test (no pruning, no incremental check)."""
    return [p for p in perms.all_perms(n) if perms.avoids_basis(p, b)]
