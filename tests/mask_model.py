"""The slot-mask model of the oracle's generating trees, the reference
from which ``permclass._kernels``'s label transitions are derived.

The forbidden mask of a permutation p has bit w set when appending w
(the other entries relabelled) makes a basis occurrence ending at w.
It follows from p's parent,

    mask(p+v) = split(mask(p), v) | ext(state of p, v),

where ``split`` (see ``split_mask``) carries p's own occurrences over,
gap v split in two, and ``ext``, one interval, covers the occurrences
that use v as the third of their four entries.  The state is small:
P(1..n+1) for class A, (g, M1) for class B.  ``class_{a,b}_ext`` give
the interval for one appended value and ``class_{a,b}_child`` the state
of p+v; ``GENERATING_TREES`` holds them with the empty permutation's
state.  ``fold`` applies them along one permutation, ``mask_walk``
walks the generating tree by (mask, state) keys, and ``label`` writes a
(mask, state) key as the label of ``_kernels``.
"""
from __future__ import annotations

from permclass.perms import Basis, CLASS_A_BASIS, CLASS_B_BASIS


def split_mask(m: int, v: int) -> int:
    """The forbidden mask of p as seen from p+v: bits below v stay and
    bits from v up move up by one, bit v going to both v and v+1.  An
    occurrence in p+v+w that avoids v is one in p+w', and gap w' = v of
    p is split by v into gaps v and v+1."""
    return (m & ((2 << v) - 1)) | (m >> v << (v + 1))


def class_a_ext(state: tuple, v: int) -> int:
    """As a bit mask, the values w whose appending to p+v (p of length
    n, its entries >= v raised by one, v in 1..n+1) makes an occurrence
    of 2413 or 3412 with v as its third entry.  ``state`` is P(1..n+1)
    of p: P(u) is the largest top p_j of an ascent p_i < p_j (i < j)
    with p_i >= u, or 0 for none.

    Write q = p+v, so q_k = v and q_i = p_i + 1 > v for p_i >= v.  An
    occurrence 2413 is q_k < q_i < w <= q_j with i < j < k, that is an
    ascent p_i < p_j with p_i >= v and w in (p_i+1, p_j+1]; 3412 is
    q_k < w <= q_i < q_j, the same ascents with w in (v, p_i+1].  Their
    union over all such ascents is (v, P(v)+1].
    """
    top = state[v - 1]
    return (4 << top) - (2 << v) if top else 0


def class_a_child(state: tuple, v: int) -> tuple:
    """The state (see ``class_a_ext``) of p+v from that of p.  An
    ascent of p+v either lies in p, relabelled by rel(t) = t + [t >= v],
    or ends at v.  For u <= v, rel(p_i) >= u exactly when p_i >= u; for
    u > v, exactly when p_i >= u - 1.  So P'(u) is rel(P(u)) for u <= v
    and rel(P(u-1)) for u > v, rel(0) = 0.  Every value below v
    precedes v, so for u < v some p_i in [u, v) tops out at v as well:
    P'(u) is raised to v.  A nonzero P(u) exceeds u, so for u >= v it
    is raised by one.
    """
    head = tuple(t + 1 if t >= v else v for t in state[:v - 1])
    tail = tuple(t + 1 if t else 0 for t in state[v - 1:])
    return head + tail[:1] + tail


def class_b_ext(state: tuple, v: int) -> int:
    """Like ``class_a_ext`` for 1432 and 2143.  ``state`` is (g, M1) of
    p: g the least entry with a smaller entry after it (n+1 for none),
    M1 the maximum after the entry 1 (0 when 1 is last or p is empty).

    With q = p+v and q_k = v: 1432 is q_i < w <= q_k < q_j, that is
    p_i < v with a later p_j >= v and w in (p_i, v]; 2143 is
    q_j < q_i < w <= q_k, that is p_i < v with a later entry below it
    and w in (p_i, v].  The union is (m, v], m the least such p_i.
    Two kinds of p_i qualify:

      - one with a later entry below it, for every v > p_i; the least
        of these is g, so g qualifies exactly when v > g;
      - a right-to-left minimum, when v <= the maximum after it.  The
        leftmost right-to-left minimum, the entry 1, has both the
        least value and the largest maximum after it, M1, so wherever
        another one qualifies 1 does too: m = 1 when 1 < v <= M1.

    So the mask is (1, v] for v <= M1 (empty for v = 1), else (g, v]
    for v > g, else empty.
    """
    g, m1 = state
    if v <= m1:
        return (2 << v) - 4
    return (2 << v) - (2 << g) if v > g else 0


def class_b_child(state: tuple, v: int) -> tuple:
    """The state (see ``class_b_ext``) of p+v from that of p, of length
    n.  The entries with a smaller one after them are those of p,
    relabelled, and those above v, the least of which is v+1 (n+2, for
    none, when v = n+1): g' = min(g + [g >= v], v + 1).  The entry 1
    is v itself, and last, when v = 1; otherwise it stays 1 and v joins
    the entries after it: M1' = v if M1 = 0, else max(M1 + [M1 >= v],
    v).
    """
    g, m1 = state
    g = min(g + (g >= v), v + 1)
    if v == 1:
        return g, 0
    return g, max(m1 + (m1 >= v), v) if m1 else v


# Per basis: the state of the empty permutation, ext and child.
GENERATING_TREES: dict[Basis, tuple] = {
    CLASS_A_BASIS: ((0,), class_a_ext, class_a_child),
    CLASS_B_BASIS: ((1, 0), class_b_ext, class_b_child),
}


def fold(p: list, basis: Basis) -> tuple[int, tuple]:
    """The forbidden mask and the state of ``p`` for ``basis``, whether
    or not p avoids it; distinct positive values stand for their
    relative order.  Folds mask(p+v) = split_mask(mask(p), v) |
    ext(state, v) one entry at a time from the empty permutation, each
    v its entry's rank so far."""
    state, ext, child = GENERATING_TREES[basis]
    mask = seen = 0
    for x in p:
        seen |= 1 << x
        v = (seen & ((2 << x) - 1)).bit_count()
        mask = split_mask(mask, v) | ext(state, v)
        state = child(state, v)
    return mask, state


def forbidden(p: list, basis: Basis) -> int:
    """The forbidden mask of ``p`` (see ``fold``)."""
    return fold(p, basis)[0]


def label(mask: int, state: tuple, n: int, basis: Basis) -> tuple:
    """The label (see ``permclass._kernels``) of a permutation of length
    n with forbidden mask ``mask`` and state ``state``: its state
    written as ranks among its free slots."""
    free = [f for f in range(1, n + 2) if not mask >> f & 1]

    def rank(x):
        return sum(f <= x for f in free)
    if basis == CLASS_A_BASIS:
        return tuple(rank(state[f - 1]) for f in free)
    g, m1 = state
    return len(free), rank(g), rank(m1)


def mask_walk(basis: Basis, n_max: int, step=None,
              first: int = 1) -> tuple[list[int], list[list[int]]]:
    """``permclass.oracle._walk`` on (mask, state) keys, without a
    budget: every avoider of length n < n_max is keyed by its mask,
    state, last entry and statistic, and each key has a child at each
    of its free slots >= ``first`` (any for n = 0), its statistic from
    the step given values, not ranks.  No length is tallied by class."""
    root, ext, child = GENERATING_TREES[basis]
    counts = [1] + [0] * n_max
    rows = [[0] * (n + 2) for n in range(n_max + 1)]
    rows[0][0] = 1
    level = {(0, root, 1, 0): 1}    # the empty avoider, last entry 1
    for n in range(1, n_max + 1):
        lo = first if n >= 2 else 1
        children: dict[tuple, int] = {}
        for (mask, state, last, s), k in level.items():
            for v in range(lo, n + 1):
                if mask >> v & 1:
                    continue
                t = step(n - 1, last, s, v) if step is not None else 0
                counts[n] += k
                rows[n][t] += k
                if n < n_max:
                    key = (split_mask(mask, v) | ext(state, v),
                           child(state, v), v if step is not None else 1, t)
                    children[key] = children.get(key, 0) + k
        level = children
    return counts, rows
