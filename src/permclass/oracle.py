"""Brute-force ground truth: enumerate all avoiders of a basis up to a
length bound and tabulate statistic distributions.

Avoiders are generated by appending a new rightmost value to an
avoider (the other entries relabelled); the classes are closed under
removal of the last entry, so this generating tree is exactly the
class.  It is walked one length at a time (West, "Generating trees and
the Catalan and Schroder numbers", Discrete Math. 146, 1995), and no
permutation is built.  Each avoider is reduced to a key: its label, a
small state written as ranks among its free slots (the values whose
appending makes no basis occurrence), from which each child's label
follows (``_kernels``), plus the rank of its last entry and its
statistic when a statistic is tabulated.  The subtree below an avoider
depends only on its key, so a length is held as a dict from key to
multiplicity, each key expanded once.  The two bases of interest are
the only ones with such a label.  Counts and statistic rows are tallied
from the multiplicities, each child's statistic updated from its
parent's.  The last length is counted, not built: its avoiders are
tallied from their parents' numbers of free slots.  Memory grows with
the distinct keys of one length, not with the counts: at n_max = 10,
length 8 has 248 keys for class A and 74 for class B for plain counts,
and 545 and 163 with the statistic of the functional equation.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from . import _kernels, perms
from .perms import Basis, Perm, CLASS_A_BASIS

# In children formed.  A walk that spends it all takes 0.7-2.9 s on 2
# vCPU with Python 3.11.7 (class A counts reach length 16, B's 42).
DEFAULT_NODE_BUDGET = 10 ** 6
BUDGET_ENV_VAR = "PERMCLASS_NODE_BUDGET"

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


def parse_counts(text: str) -> list[int]:
    """Inverse of ``CountReport.serialize_counts``; rows must run 0, 1, ..."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            n, c = line.split("\t")
            if int(n) != len(out):
                raise ValueError("counts row %s out of order: expected %d"
                                 % (n, len(out)))
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


# For each entry of STATISTICS: the statistic of the child p+v (p
# relabelled) from the length n of p, the rank of its last entry among
# its free slots, its statistic s and the rank of v.  Every step
# depends on v only through v == 1 and v > last, which the ranks keep:
# slot 1 is always free, and a free v exceeds last exactly when its
# rank does.  The function of the same name in ``perms`` evaluates the
# statistic on a permutation; the tests check the rules against it.
# The empty permutation's last entry is taken as 1, so it has no ascent
# and its one child, 1, extends its decreasing run.  Each step is
# constant on each of the ranks {1}, {2..last} and {last+1..k}, which
# lets the walk tally the last length by class.  Every statistic is
# taken as 0 on the empty permutation (gap_count is undefined there and
# its length-0 row is left empty).
def _step_initial_decreasing_run(n: int, last: int, s: int, v: int) -> int:
    return s + 1 if s == n and v <= last else s


def _step_trailing_increasing_run(n: int, last: int, s: int, v: int) -> int:
    return s + 1 if v > last else 1


def _step_gap_count(n: int, last: int, s: int, v: int) -> int:
    return s + 1 if v > last else 2


def _step_marked_trailing_run(n: int, last: int, s: int, v: int) -> int:
    # v == 1 is the new minimum and is never marked
    if v > last:
        return s + 1
    return 0 if v == 1 else 1


def _step_slice_count(n: int, last: int, s: int, v: int) -> int:
    return s + (v == 1)


STATISTICS: dict[str, Callable[[int, int, int, int], int]] = {
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
        """Spend on the children formed at the given length."""
        self.left -= amount
        if self.left < 0:
            raise BudgetExceededError(
                "node budget of %d children exhausted while "
                "generating length %d; lengths up to %d are complete; "
                "raise it with --node-budget or %s"
                % (self.budget, length, length - 1, BUDGET_ENV_VAR))


def _walk(basis: Basis, n_max: int, node_budget: int | None,
          step: Callable[[int, int, int, int], int] | None = None,
          first: int = 1) -> tuple[list[int], list[list[int]]]:
    """Walk the generating tree of the avoiders of length <= n_max one
    length at a time.

    Returns (counts, rows): counts[n] avoiders of length n and, with a
    ``step`` (a rule of STATISTICS), rows[n][k] of them with statistic
    value k (rows[n] has n + 2 entries).  With ``first`` = 2 only values
    >= 2 are appended after the first entry, so every avoider starts
    with 1.

    A length is a dict from a key (k, label, last, s) to the number of
    avoiders with that key: k free slots, the label of
    ``_kernels.LABEL_TREES``, the rank of the last entry among the free
    slots and the statistic s.  The last entry and s are keyed only
    with a ``step``.  The subtree below an avoider depends only on its
    key, so equal keys are merged and expanded once, each child formed
    from its parent's label and the rank a of its appended slot.  The
    avoiders of length n_max - 1 are keyed without a label and not
    expanded: their children are tallied from k and last over the
    three classes of rank, 1, 2..last and last+1..k, on which every
    step is constant.

    Before a length n is generated the budget is spent by the children
    it forms, k - lo + 1 for every key of length n - 1 (lo = ``first``,
    or 1 for n = 1), so when it runs out every shorter length is
    complete.  Memory grows with the distinct keys of one length, not
    with the counts.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if basis not in _kernels.LABEL_TREES:
        raise ValueError("no generating-tree kernels for basis %s" % basis)
    budget = _Budget(node_budget)
    root, size, child = _kernels.LABEL_TREES[basis]
    counts = [1] + [0] * n_max
    rows = [[0] * (n + 2) for n in range(n_max + 1)]
    rows[0][0] = 1
    level = {(1, root, 1, 0): 1}    # the empty avoider, last rank 1
    for n in range(1, n_max + 1):   # the length being generated
        lo = first if n >= 2 else 1
        budget.spend(sum(key[0] - lo + 1 for key in level), n)
        row = rows[n]
        if n == n_max:
            for (k, _label, last, s), c in level.items():
                counts[n] += c * (k - lo + 1)
                if step is None:
                    continue
                if lo == 1:
                    row[step(n - 1, last, s, 1)] += c
                if last > 1:
                    row[step(n - 1, last, s, 2)] += c * (last - 1)
                if k > last:
                    row[step(n - 1, last, s, last + 1)] += c * (k - last)
            break
        grow = n < n_max - 1        # whether the children are expanded
        children: dict[tuple, int] = {}
        for (k, label, last, s), c in level.items():
            counts[n] += c * (k - lo + 1)
            for a in range(lo, k + 1):
                t = step(n - 1, last, s, a) if step is not None else 0
                row[t] += c
                label_a, last_a = child(label, a)
                key = (size(label_a), label_a if grow else None,
                       last_a if step is not None else 1, t)
                children[key] = children.get(key, 0) + c
        level = children
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
    counts, rows = _walk(b, n_max, node_budget, STATISTICS[stat])
    if stat == "gap_count":
        rows[0][0] = 0  # gap count is undefined on the empty permutation
    return CountReport(basis=b, counts=counts, distributions={stat: rows})


def single_slice_distribution(b: Basis, n_max: int,
                              node_budget: int | None = None) -> CountReport:
    """Avoiders that start with their smallest entry, tabulated by the
    marked trailing run (the whole trailing run except the minimum)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    counts, rows = _walk(b, n_max, node_budget,
                         STATISTICS["marked_trailing_run"], first=2)
    counts[0] = 0
    matrix = [[0]] + [row[:n + 1] for n, row in enumerate(rows) if n]
    return CountReport(basis=b, counts=counts,
                       distributions={"marked_trailing_run": matrix})


def filter_all_avoiders(b: Basis, n: int) -> list[Perm]:
    """Independent cross-check: filter all n! permutations with the
    generic containment test (no pruning, no incremental check)."""
    return [p for p in perms.all_perms(n) if perms.avoids_basis(p, b)]
