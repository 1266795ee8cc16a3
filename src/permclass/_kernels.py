"""The hot kernels: series convolutions and the oracle's generating trees.

Coefficients are arbitrary Python numbers (ints or Fractions), so the
convolutions are exact object arithmetic.

The oracle makes the children of an avoider p of length n by appending
a value v in 1..n+1, the slot v, its entries >= v raised by one.  A
slot is forbidden when p+v contains a basis pattern, and free
otherwise.  Slot 1 is always free, because no basis pattern ends in
its 1.  Appending v splits slot v in two: the child's slots below v are
p's, its slots v and v+1 are v's lower and upper copies, and its slot
w+1 is p's slot w for w > v.  An occurrence in p+v+w that does not use
v is one in p+w', so a forbidden slot stays forbidden in every
descendant.  The new forbidden slots are those whose occurrence has v
as its third of four entries, one interval that follows from a small
state of p.  So the subtree below p depends only on p's free slots F
and on where its state falls among them (the "active sites" of West,
Discrete Math. 146, 1995, and Bousquet-Melou, Electron. J. Combin.
9(2), 2003).  That is p's label, written in ranks
rank_F(x) = |{f in F : f <= x}|:

  - class A, state P(1..n+1), P(u) the largest top p_j of an ascent
    p_i < p_j (i < j) with p_i >= u, or 0: the tuple of rank_F(P(f))
    over the free slots f, non-increasing because P is;
  - class B, state (g, M1), g the least entry with a smaller entry
    after it (n+1 for none) and M1 the maximum after the entry 1 (0
    when 1 is last or p is empty): (|F|, rank_F(g), rank_F(M1)).

``class_{a,b}_child(label, a)`` give the label of p+v, v the free slot
of rank a, and rank_F'(v) over the child's free slots F', the rank of
its last entry.  ``LABEL_TREES`` holds them with the empty permutation's label
and a label's number of free slots.  The child checks
``class_{a,b}_child_ok`` exist only because ``perfbench/tracing.py``
wraps them; the walk calls neither.
"""
from __future__ import annotations

from operator import itemgetter

from .perms import (Basis, CLASS_A_BASIS, CLASS_B_BASIS, Perm,
                    contains_ending_at_last)

BACKEND = "python"  # the kernel implementation, recorded by benchmark runs


def tpoly_mul_acc(acc: list, p: list, q: list) -> None:
    """acc[i+j] += p[i] * q[j] for all i, j.  ``acc`` must already be
    long enough (len(p) + len(q) - 1)."""
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                if qj:
                    acc[i + j] += pi * qj


def series_mul(a: list, b: list, order: int) -> list:
    """Truncated Cauchy product of coefficient lists (univariate)."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if i > order:
            break
        if ai:
            top = min(len(b) - 1, order - i)
            for j in range(top + 1):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def class_a_child(label: tuple, a: int) -> tuple[tuple, int]:
    """The class-A label of p+v and the rank of v among its free slots
    F', from p's label L (k = len(L) free slots) and v's rank a.

    Write q = p+v, q_k = v, rel(t) = t + [t >= v].  An occurrence 2413
    ending at w is q_k < q_i < w <= q_j with i < j < k, that is an
    ascent p_i < p_j with p_i >= v and w in (p_i+1, p_j+1]; 3412 is
    q_k < w <= q_i < q_j, the same ascents with w in (v, p_i+1].  So
    the new forbidden slots are (v, P(v)+1].  An ascent of q lies in p,
    relabelled, or ends at v, and every value below v precedes v: so
    P'(u) is rel(P(u)) for u <= v and rel(P(u-1)) for u > v, rel(0) =
    0, and for u < v it is raised to v.

    Let R = L[a-1] = rank_F(P(v)), 0 exactly when P(v) is (slot 1 is
    free).  If R > 0, P(v) > v, and the new forbidden slots are v's
    upper copy and p's free slots of rank a+1..R.  The child's free
    slots are p's of rank < a, then v, then p's of rank > R.  For free
    f < v, P(f) >= P(v), so P'(f) = P(f)+1, and the child's free slots
    up to it are a of rank <= a and p's in (P(v), P(f)]: rank
    a + L[f] - R.  P'(v) = P(v)+1 has rank a.  For free f > P(v), P'
    at f+1 is 0 or P(f)+1, of rank a + L[f] - R.

    If R = 0, nothing is forbidden anew, and the child has k+1 free
    slots: p's below v, both copies of v, p's above v.  P vanishes from
    v on, so P' does on v's copies and above, k-a+2 zeros.  For free
    f < v, P'(f) is v, of rank a, when P(f) < v, that is L[f] < a; else
    it is P(f)+1, above both copies of v, of rank L[f]+1.

    Either way v is the child's free slot of rank a.
    """
    top = label[a - 1]
    if top:
        d = a - top
        return (tuple([r + d for r in label[:a - 1]]) + (a,)
                + tuple([r + d if r else 0 for r in label[top:]])), a
    return (tuple([r + 1 if r >= a else a for r in label[:a - 1]])
            + (0,) * (len(label) - a + 2)), a


def class_b_child(label: tuple, a: int) -> tuple[tuple, int]:
    """Like ``class_a_child`` for 1432 and 2143, the label (k, G, M)
    with G = rank_F(g) and M = rank_F(M1).

    With q = p+v and q_k = v: 1432 ending at w is q_i < w <= q_k < q_j,
    that is p_i < v with a later p_j >= v and w in (p_i, v]; 2143 is
    q_j < q_i < w <= q_k, that is p_i < v with a later entry below it
    and w in (p_i, v].  The new forbidden slots are (m, v], m the least
    such p_i.  An entry with a later smaller one qualifies when v
    exceeds it, and the least of these is g.  A right-to-left minimum
    qualifies when v is at most the maximum after it, and the entry 1
    has the least value and the largest such maximum, M1.  So the
    interval is (1, v] for v <= M1, else (g, v] for v > g, else empty.
    The entries with a smaller one after them are those of p,
    relabelled, and those above v: g' = min(g + [g >= v], v+1).  The
    entry 1 is v itself, and last, when v = 1; otherwise v joins the
    entries after it: M1' = v if M1 = 0, else max(M1 + [M1 >= v], v).

    In ranks, v free gives v > g exactly when G < a and v <= M1 exactly
    when M >= a; M = 0 exactly when M1 = 0.
      - a = 1: nothing is forbidden anew, so k+1 slots are free; g' = 2
        has rank 2 (both copies of 1 are free) and M1' = 0; v ranks 1.
      - M >= a: slots 2..v go, v's lower copy among them, leaving slot
        1, v+1 and p's k-a slots above v.  g' is g, of rank 1, when
        G < a, else v+1, of rank 2.  M1' = M1+1 has rank 2 + M - a.
        v ranks 1.
      - G < a: slots g+1..v go, p's free slots of rank G+1..a-1 and
        v's lower copy, leaving G + 1 + k - a.  g' = g keeps rank G,
        and M1' = v ranks G, as v does.
      - otherwise nothing is forbidden anew: k+1 free slots, g' = v+1
        of rank a+1, and M1' = v of rank a, as v.
    """
    k, g, m = label
    if a == 1:
        return (k + 1, 2, 0), 1
    if m >= a:
        return (k - a + 2, 1 if g < a else 2, m - a + 2), 1
    if g < a:
        return (g + 1 + k - a, g, g), g
    return (k + 1, a + 1, a), a


# Per basis: the empty permutation's label (one free slot), the number
# of free slots of a label, and the child's label.
LABEL_TREES: dict[Basis, tuple] = {
    CLASS_A_BASIS: ((0,), len, class_a_child),
    CLASS_B_BASIS: ((1, 1, 0), itemgetter(0), class_b_child),
}


def class_a_child_ok(q: list, v: int) -> bool:
    """Whether ``q``, a permutation of 1..n+1 ending in ``v`` whose
    prefix avoids 2413 and 3412, still avoids them."""
    return not any(contains_ending_at_last(Perm(q), sigma)
                   for sigma in CLASS_A_BASIS.patterns)


def class_b_child_ok(q: list, v: int) -> bool:
    """Like ``class_a_child_ok`` for 1432 and 2143."""
    return not any(contains_ending_at_last(Perm(q), sigma)
                   for sigma in CLASS_B_BASIS.patterns)
