"""Permutations in one-line notation, pattern containment, and the
statistics used by the layer/slice decompositions.

A permutation of length n is a bijection on {1..n}, stored as the tuple
(p(1), ..., p(n)).  The empty permutation is a first-class value.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class InvalidPermutationError(ValueError):
    pass


@dataclass(frozen=True)
class Perm:
    """A permutation in one-line notation.

    >>> Perm((2, 1, 3))
    Perm('213')
    >>> len(Perm(()))
    0
    """

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int] = ()):
        entries = tuple(entries)
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise InvalidPermutationError(
                "not a permutation of 1..n: %r" % (entries,))
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return "Perm(%r)" % (format_perm(self),)

    def __str__(self) -> str:
        return format_perm(self)


EMPTY = Perm(())


def parse_perm(text: str) -> Perm:
    """Parse either the comma-free digit form (n <= 9) or the
    comma-separated form.

    >>> parse_perm("2413")
    Perm('2413')
    >>> parse_perm("11,2,1,3,4,5,6,7,8,9,10")[0]
    11
    """
    text = text.strip()
    if not text:
        return EMPTY
    if "," in text:
        return Perm(int(part) for part in text.split(","))
    return Perm(int(ch) for ch in text)


def format_perm(p: Perm) -> str:
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def standardize(values: Sequence[int]) -> Perm:
    """The permutation order-isomorphic to an arbitrary sequence of
    distinct integers.

    >>> standardize((6, 4, 7))
    Perm('213')
    """
    order = sorted(values)
    rank = {v: i + 1 for i, v in enumerate(order)}
    return Perm(rank[v] for v in values)


def contains(host: Perm, pattern: Perm) -> bool:
    """True iff some subsequence of ``host`` is order-isomorphic to
    ``pattern``.  Containment is reflexive; every permutation contains
    the empty pattern.

    >>> contains(parse_perm("64357218"), parse_perm("231"))
    True
    >>> contains(parse_perm("64357218"), parse_perm("132"))
    False
    """
    k = len(pattern)
    if k == 0:
        return True
    n = len(host)
    if k > n:
        return False
    return _occurs(host.entries, pattern.entries)


def _occurs(host: Sequence[int], pat: Sequence[int]) -> bool:
    # Backtracking over positions.  chosen[j] is the host value playing
    # pat[j]; each extension is pruned by comparing the candidate against
    # every previously chosen value.
    k = len(pat)
    n = len(host)
    chosen: list[int] = []

    def extend(start: int) -> bool:
        j = len(chosen)
        if j == k:
            return True
        for i in range(start, n - (k - j) + 1):
            v = host[i]
            ok = True
            for jj in range(j):
                if (chosen[jj] < v) != (pat[jj] < pat[j]):
                    ok = False
                    break
            if ok:
                chosen.append(v)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    return extend(0)


def contains_ending_at_last(host: Perm, pattern: Perm) -> bool:
    """True iff ``host`` has an occurrence of ``pattern`` whose final
    element is the last entry of ``host``.  This is the incremental check
    used when permutations are generated by appending a rightmost entry.
    """
    k = len(pattern)
    if k == 0 or len(host) < k:
        return k == 0
    entries = host.entries
    v = entries[-1]
    pat = pattern.entries
    target = pat[-1]
    prefix_pat = pat[:-1]
    # v plays pat[-1]; the remaining k-1 letters come from the prefix.
    for positions in itertools.combinations(range(len(entries) - 1), k - 1):
        vals = [entries[i] for i in positions]
        ok = True
        for a in range(k - 1):
            if (vals[a] < v) != (prefix_pat[a] < target):
                ok = False
                break
            for b in range(a + 1, k - 1):
                if (vals[a] < vals[b]) != (prefix_pat[a] < prefix_pat[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


@dataclass(frozen=True)
class Basis:
    """An antichain of forbidden patterns."""

    patterns: frozenset[Perm]

    def __init__(self, patterns: Iterable[Perm]):
        patterns = frozenset(patterns)
        for p in patterns:
            for q in patterns:
                if p is not q and contains(p, q):
                    raise ValueError(
                        "basis is not an antichain: %s contains %s" % (p, q))
        object.__setattr__(self, "patterns", patterns)

    def __iter__(self) -> Iterator[Perm]:
        return iter(sorted(self.patterns, key=lambda p: p.entries))

    def __str__(self) -> str:
        return "{%s}" % ",".join(str(p) for p in self)


CLASS_A_BASIS = Basis([parse_perm("2413"), parse_perm("3412")])
CLASS_B_BASIS = Basis([parse_perm("1432"), parse_perm("2143")])


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
