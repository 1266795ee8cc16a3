"""Permutations in one-line notation, pattern containment, and the two
bases.

A permutation of length n is a bijection on {1..n}, stored as the tuple
(p(1), ..., p(n)).  The empty permutation is a first-class value.  The
oracle builds no permutation; the statistics and the skew decomposition
on explicit permutations, against which it is checked, are the tests'
reference (tests/reference.py).
"""
from __future__ import annotations

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
        return "Perm(%r)" % (str(self),)

    def __str__(self) -> str:
        """The digit form for n <= 9, else comma-separated."""
        return ("" if len(self) <= 9 else ",").join(map(str, self.entries))


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


def contains(host: Perm, pattern: Perm) -> bool:
    """True iff some subsequence of ``host`` is order-isomorphic to
    ``pattern``.  Containment is reflexive; every permutation contains
    the empty pattern.

    >>> contains(parse_perm("64357218"), parse_perm("231"))
    True
    >>> contains(parse_perm("64357218"), parse_perm("132"))
    False
    """
    return _occurs(host.entries, pattern.entries)


def _occurs(host: Sequence[int], pat: Sequence[int],
            ending_at_last: bool = False) -> bool:
    # Backtracking over positions.  chosen[j] is the host value playing
    # pat[j]; each extension is pruned by comparing the candidate against
    # every previously chosen value.  With ending_at_last, pat's last
    # letter may only take the host's last index, n - 1.  The empty
    # pattern is found at once; a pattern longer than the host leaves
    # the first range empty.
    k = len(pat)
    n = len(host)
    chosen: list[int] = []

    def extend(start: int) -> bool:
        j = len(chosen)
        if j == k:
            return True
        if ending_at_last and j == k - 1:
            start = max(start, n - 1)
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
    return _occurs(host.entries, pattern.entries, ending_at_last=True)


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
