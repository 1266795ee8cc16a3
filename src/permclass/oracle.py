"""Ground truth independent of the functional equations: the number of
avoiders of a basis of each length up to a bound, and their
distribution by a statistic, from the class's generating tree.

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
the only ones with such a label.  Every length is tallied from the
keys one length below by the rank class of the appended slot, a
statistic rule asked once per key for all three classes, so the last
length is counted without being built, and the one before it is
formed from its children's numbers of free slots, not their labels.
Memory grows with the distinct keys of one length, not with the
counts: at n_max = 10, length 8 has 248 keys for class A and 74 for
class B for plain counts, and 545 and 163 with the statistic of the
functional equation.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from . import _kernels
from .perms import Basis, CLASS_A_BASIS

# In children formed.  A walk that spends it all takes 0.4-1.6 s on 2
# vCPU with Python 3.11.7 (class A counts reach length 16, B's 42).
DEFAULT_NODE_BUDGET = 10 ** 6
BUDGET_ENV_VAR = "PERMCLASS_NODE_BUDGET"

class BudgetExceededError(RuntimeError):
    """Raised when the enumeration would exceed the node budget."""


@dataclass
class CountReport:
    """Per-length counts and their rows: rows[n][k] is the number of
    length-n avoiders with statistic value k (all in column 0 when no
    statistic is tabulated)."""

    counts: list[int]
    rows: list[list[int]]


def default_budget() -> int:
    value = os.environ.get(BUDGET_ENV_VAR)
    if not value:
        return DEFAULT_NODE_BUDGET
    try:
        return int(value)
    except ValueError:
        raise ValueError("%s must be an integer, got %r"
                         % (BUDGET_ENV_VAR, value)) from None


# For each entry of STATISTICS: from the length n of p and its
# statistic s, the statistic of the child p+v (p relabelled) when the
# rank of v among p's free slots is 1, in 2..last or in last+1..k, last
# being the rank of p's last entry.  A statistic depends on v only
# through v == 1 and v > last, which the ranks keep: slot 1 is always
# free, and a free v exceeds last exactly when its rank does.  These
# are the three classes the walk tallies every length by.  The function
# of the same name in tests/reference.py evaluates the statistic on a
# permutation; the tests check the rules against it.  The empty
# permutation's last entry is taken as 1, so it has no ascent and its
# one child, 1, extends its decreasing run.  Every statistic is taken
# as 0 on the empty permutation (gap_count is undefined there and its
# length-0 row is left empty).
def _step_initial_decreasing_run(n: int, s: int) -> tuple[int, int, int]:
    return (s + 1, s + 1, s) if s == n else (s, s, s)


def _step_trailing_increasing_run(n: int, s: int) -> tuple[int, int, int]:
    return 1, 1, s + 1


def _step_gap_count(n: int, s: int) -> tuple[int, int, int]:
    return 2, 2, s + 1


def _step_marked_trailing_run(n: int, s: int) -> tuple[int, int, int]:
    return 0, 1, s + 1  # the new minimum, rank 1, is never marked


def _step_slice_count(n: int, s: int) -> tuple[int, int, int]:
    return s + 1, s, s


Step = Callable[[int, int], tuple[int, int, int]]
STATISTICS: dict[str, Step] = {
    "initial_decreasing_run": _step_initial_decreasing_run,
    "trailing_increasing_run": _step_trailing_increasing_run,
    "marked_trailing_run": _step_marked_trailing_run,
    "gap_count": _step_gap_count,
    "slice_count": _step_slice_count,
}


def _walk(basis: Basis, n_max: int, node_budget: int | None,
          step: Step | None = None) -> tuple[list[int], list[list[int]]]:
    """Walk the generating tree of the avoiders of length <= n_max one
    length at a time.

    Returns (counts, rows): rows[n][k] avoiders of length n with
    statistic value k under ``step`` (a rule of STATISTICS; without one,
    all of them in column 0), rows[n] having n + 2 entries, and
    counts[n], the sum of rows[n].

    A length is a dict from a key (k, label, last, s) to the number of
    avoiders with that key: k free slots, the label of
    ``_kernels.LABEL_TREES``, the rank of the last entry among the free
    slots and the statistic s.  The last entry and s are keyed only
    with a ``step``.  The subtree below an avoider depends only on its
    key, so equal keys are merged and expanded once.  Every length is
    tallied from the keys one length below by the three classes of
    rank, 1, 2..last and last+1..k: the step, called once per key,
    gives the statistic of each class, and each child, formed from its
    parent's label and the rank a of its appended slot, takes the value
    of a's class.  The children of length n_max are tallied but not
    formed, and those of length n_max - 1, which are not expanded, are
    keyed without a label: their numbers of free slots and last ranks
    come from the size kernel of ``LABEL_TREES``, which forms no label.

    Before a length n is generated the budget is spent by the children
    it forms, k for every key of length n - 1, so when it runs out every
    shorter length is complete.  Memory grows with the distinct keys of
    one length, not with the counts.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if basis not in _kernels.LABEL_TREES:
        raise ValueError("no generating-tree kernels for basis %s" % basis)
    budget = node_budget if node_budget is not None else default_budget()
    if budget < 0:
        raise ValueError("node budget must be >= 0, got %d" % budget)
    left = budget
    root, size, child, child_size = _kernels.LABEL_TREES[basis]
    rows = [[0] * (n + 2) for n in range(n_max + 1)]
    rows[0][0] = 1
    level = {(1, root, 1, 0): 1}    # the empty avoider, last rank 1
    for n in range(1, n_max + 1):   # the length being generated
        left -= sum(key[0] for key in level)
        if left < 0:
            raise BudgetExceededError(
                "node budget of %d children exhausted while "
                "generating length %d; lengths up to %d are complete; "
                "raise it with --node-budget or %s"
                % (budget, n, n - 1, BUDGET_ENV_VAR))
        row = rows[n]
        grow = n < n_max - 1        # whether the children are expanded
        children: dict[tuple, int] = {}
        for (k, label, last, s), c in level.items():
            t1, t2, t3 = step(n - 1, s) if step is not None else (0, 0, 0)
            row[t1] += c
            row[t2] += c * (last - 1)
            row[t3] += c * (k - last)
            if n == n_max:
                continue
            for a in range(1, k + 1):
                if grow:
                    label_a, last_a = child(label, a)
                    k_a = size(label_a)
                else:
                    label_a = None
                    k_a, last_a = child_size(label, a)
                key = (k_a, label_a, last_a if step is not None else 1,
                       t1 if a == 1 else t2 if a <= last else t3)
                children[key] = children.get(key, 0) + c
        level = children
    return [sum(row) for row in rows], rows


def enumerate_avoiders(b: Basis, n_max: int,
                       node_budget: int | None = None) -> CountReport:
    """Exact counts of avoiders of each length <= n_max.

    >>> enumerate_avoiders(CLASS_A_BASIS, 4).counts
    [1, 1, 2, 6, 22]
    """
    return CountReport(*_walk(b, n_max, node_budget))


def statistic_distribution(b: Basis, n_max: int, stat: str,
                           node_budget: int | None = None) -> CountReport:
    """Counts refined by a permutation statistic: rows[n][k] is the
    number of length-n avoiders with statistic value k."""
    if stat not in STATISTICS:
        raise ValueError("unknown statistic %r (choose from %s)"
                         % (stat, ", ".join(sorted(STATISTICS))))
    counts, rows = _walk(b, n_max, node_budget, STATISTICS[stat])
    if stat == "gap_count":
        rows[0][0] = 0  # gap count is undefined on the empty permutation
    return CountReport(counts, rows)
