"""The tests' reference on explicit permutations and whole series.

The oracle walks labels and the functional equations are iterated one
row at a time, so neither builds a permutation or applies an operator
to a whole series.  What they compute is checked against the
definitions here: the statistics evaluated on a permutation, the
avoiders found by filtering all n! permutations with the generic
containment test, the skew decomposition, and the residuals of each
class's defining equations built from the whole-series operators,
which the iterations do not call.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from permclass import class_a, class_b
from permclass.perms import Basis, Perm, contains, parse_perm
from permclass.series import BivariateSeries, UnivariateSeries


def standardize(values: Sequence[int]) -> Perm:
    """The permutation order-isomorphic to an arbitrary sequence of
    distinct integers.

    >>> standardize((6, 4, 7))
    Perm('213')
    """
    order = sorted(values)
    rank = {v: i + 1 for i, v in enumerate(order)}
    return Perm(rank[v] for v in values)


def avoids_basis(p: Perm, b: Basis) -> bool:
    """True iff ``p`` contains none of the basis patterns."""
    return not any(contains(p, sigma) for sigma in b.patterns)


def skew_sum(p: Perm, q: Perm) -> Perm:
    """Stack ``q`` below and to the right of ``p``.

    >>> skew_sum(parse_perm("1"), parse_perm("1"))
    Perm('21')
    """
    m = len(q)
    return Perm(tuple(v + m for v in p) + q.entries)


def skew_components(p: Perm) -> list[Perm]:
    """The unique maximal decomposition p = s1 (-) s2 (-) ... with every
    part skew indecomposable.  Returns [p] iff p is skew indecomposable.

    >>> skew_components(parse_perm("321"))
    [Perm('1'), Perm('1'), Perm('1')]
    >>> skew_components(parse_perm("2413"))
    [Perm('2413')]
    """
    n = len(p)
    if n == 0:
        return []
    parts = []
    start = 0
    min_seen = n + 1
    for i, v in enumerate(p):
        min_seen = min(min_seen, v)
        # the prefix through i is a skew block iff it occupies exactly the
        # top values n-start-... : equivalently its min exceeds everything
        # to the right, i.e. min == n - i
        if min_seen == n - i:
            parts.append(standardize(p.entries[start:i + 1]))
            start = i + 1
            min_seen = n + 1
    return parts


def initial_decreasing_run(p: Perm) -> int:
    """Length of the maximal strictly decreasing prefix of consecutive
    entries; 0 only for the empty permutation.

    >>> initial_decreasing_run(parse_perm("64357218"))
    3
    """
    n = len(p)
    if n == 0:
        return 0
    r = 1
    while r < n and p[r] < p[r - 1]:
        r += 1
    return r


def trailing_increasing_run(p: Perm) -> int:
    """Length of the maximal increasing suffix of consecutive entries;
    0 only for the empty permutation.

    >>> trailing_increasing_run(parse_perm("14235"))
    3
    """
    n = len(p)
    if n == 0:
        return 0
    r = 1
    while r < n and p[n - r - 1] < p[n - r]:
        r += 1
    return r


def gap_count(p: Perm) -> int:
    """One more than the trailing increasing run; every nonempty
    permutation has at least two gaps.

    >>> gap_count(parse_perm("14235"))
    4
    """
    if len(p) == 0:
        raise ValueError("gap count is undefined for the empty permutation")
    return trailing_increasing_run(p) + 1


def marked_trailing_run(p: Perm) -> int:
    """The trailing increasing run not counting the minimum entry.

    This is the catalytic statistic that the slice-adding recursion for
    Av(1432,2143) tracks: inserting a new bottom slice directly to the
    left of the current minimum merges slices rather than extending the
    decomposition, so the gap to the left of the minimum is never usable
    and the minimum is never a marked entry.

    >>> [marked_trailing_run(parse_perm(s)) for s in ("12", "21", "213")]
    [1, 0, 1]
    """
    r = trailing_increasing_run(p)
    n = len(p)
    if n and p[n - r] == 1:
        return r - 1
    return r


def left_to_right_minima(p: Perm) -> list[int]:
    """Positions (1-based) of the left-to-right minima."""
    out = []
    cur = len(p) + 1
    for i, v in enumerate(p):
        if v < cur:
            cur = v
            out.append(i + 1)
    return out


def slice_count(p: Perm) -> int:
    return len(left_to_right_minima(p))


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of length n."""
    for entries in itertools.permutations(range(1, n + 1)):
        yield Perm(entries)


def filter_all_avoiders(b: Basis, n: int) -> list[Perm]:
    """Independent cross-check: filter all n! permutations with the
    generic containment test (no pruning, no incremental check)."""
    return [p for p in all_perms(n) if avoids_basis(p, b)]


def class_a_equation_residuals(state: class_a.ClassAState
                               ) -> tuple[int, int]:
    """z-order of the first violated coefficient of each defining
    equation of class A (order+1 for both means the state satisfies them
    through the truncation)."""
    f, fskew = state.f, state.fskew
    f1 = f.subst_t(1)
    rhs2 = ((f - 1) * f1).shift(1) + class_a.omega_apply(fskew, f, f1)
    inv_zt = BivariateSeries.geometric_tz(state.order)
    inv_z = UnivariateSeries.geometric(1, state.order)
    rhs3 = inv_zt + (fskew * inv_zt) * inv_z
    return (fskew - rhs2).valuation(), (f - rhs3).valuation()


def class_b_equation_residuals(state: class_b.ClassBState) -> int:
    """z-order of the first coefficient at which f differs from
    1 + Phi[f] + Psi[Theta[f]] + Xi[Lambda[f]], built from the
    whole-series operators (order+1 means the state satisfies the
    equation through the truncation)."""
    f = state.f
    rhs = 1 + class_b.phi_apply(f, class_b.s_series(state.order)) \
        + class_b.psi_apply(class_b.theta_apply(f)) \
        + class_b.xi_apply(class_b.lambda_apply(f))
    return (f - rhs).valuation()
