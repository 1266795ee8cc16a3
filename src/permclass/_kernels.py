"""The hot kernels: series convolutions and the oracle's avoidance
masks for the two classes.

Coefficients are arbitrary Python numbers (ints or Fractions), so the
convolutions are exact object arithmetic.  The scans take permutations
as lists of the values 1..n.

The oracle walk never scans a child: the forbidden mask of p+v (bit w
set when appending w makes an occurrence ending at w) is

    mask(p+v) = split(mask(p), v) | ext_p[v],

where ``split`` (see ``split_mask``) carries p's own occurrences over,
gap v split in two, and ``ext_p[v]``, one interval, covers the
occurrences that use v as the third of their four entries.
``class_{a,b}_extensions`` give ``ext_p`` for every v in one O(n) pass
over p.  The full scans ``class_{a,b}_forbidden`` stay as a reference
for the tests, and the child checks built on them because
``perfbench/tracing.py`` wraps them by name; the walk calls neither.
"""
from __future__ import annotations

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


def class_a_child_ok(q: list, v: int) -> bool:
    """Whether ``q``, a permutation of 1..n+1 ending in ``v`` whose
    prefix avoids 2413 and 3412, still avoids them: ``v`` is not in
    ``class_a_forbidden`` of the prefix relabelled to 1..n."""
    parent = [x - 1 if x > v else x for x in q[:-1]]
    return not class_a_forbidden(parent) >> v & 1


def class_b_child_ok(q: list, v: int) -> bool:
    """Like ``class_a_child_ok`` for 1432 and 2143."""
    parent = [x - 1 if x > v else x for x in q[:-1]]
    return not class_b_forbidden(parent) >> v & 1


def class_a_forbidden(p: list) -> int:
    """The values v in 1..n+1 whose appending to ``p`` (the other
    entries relabelled) makes an occurrence of 2413 or 3412 ending at
    v, as a bit mask (bit v); ``p`` need not avoid the patterns.  Such
    an occurrence has i<j<k with p[k] < p[i] < p[j] and v in
    (p[i], p[j]] (2413) or (p[k], p[i]] (3412).  For fixed j the union
    over i and k is (m, p[j]], with m the minimum after j, whenever
    some p[i] left of j lies strictly between m and p[j].  One
    right-to-left scan.
    """
    n = len(p)
    left = (2 << n) - 2     # values before j, once p[j] is taken out
    forbid = 0
    low = n + 1             # min(p[j+1:])
    for pj in reversed(p):
        left ^= 1 << pj
        if low < pj:
            if left & ((1 << pj) - (2 << low)):
                forbid |= (2 << pj) - (2 << low)
        else:
            low = pj
    return forbid


def class_b_forbidden(p: list) -> int:
    """Like ``class_a_forbidden`` for 1432 and 2143.  Such an occurrence
    has i<j<k with v in (p[i], p[k]] and p[i] < p[k] < p[j] (1432) or
    p[j] < p[i] < p[k] (2143).  For fixed j the union is

      - over 1432: (m, M], m the minimum before j and M the largest
        entry after j below p[j], when m < M;
      - over 2143: (s, T], s the least entry before j above p[j] and T
        the largest entry after j, when s < T.

    One left-to-right scan.
    """
    n = len(p)
    later = (2 << n) - 2    # values after j, once p[j] is taken out
    seen = 0                # values before j
    forbid = 0
    low = n + 1             # min(p[:j])
    for pj in p:
        later ^= 1 << pj
        if low < pj:
            band = later & ((1 << pj) - (2 << low))
            if band:
                forbid |= (1 << band.bit_length()) - (2 << low)
        else:
            low = pj
        above = seen >> pj
        if above:
            succ = pj + (above & -above).bit_length() - 1
            top = later.bit_length() - 1
            if succ < top:
                forbid |= (2 << top) - (2 << succ)
        seen |= 1 << pj
    return forbid


def split_mask(m: int, v: int) -> int:
    """The forbidden mask of p as seen from p+v: bits below v stay and
    bits from v up move up by one, bit v going to both v and v+1.  An
    occurrence in p+v+w that avoids v is one in p+w', and gap w' = v of
    p is split by v into gaps v and v+1."""
    return (m & ((2 << v) - 1)) | (m >> v << (v + 1))


def class_a_extensions(p: list) -> list:
    """``ext[v]`` for v in 1..n+1 (index 0 unused): as a bit mask, the
    values w whose appending to p+v (p's entries >= v raised by one)
    makes an occurrence of 2413 or 3412 with v as its third entry.

    Write q = p+v, so q_k = v and q_i = p_i + 1 > v for p_i >= v.  An
    occurrence 2413 is q_k < q_i < w <= q_j with i < j < k, that is an
    ascent p_i < p_j with p_i >= v and w in (p_i+1, p_j+1]; 3412 is
    q_k < w <= q_i < q_j, the same ascents with w in (v, p_i+1].  Their
    union over all such ascents is (v, P+1], P the largest p_j topping
    an ascent p_i < p_j with p_i >= v.  The largest top over ascents
    from a given p_i is the maximum after it, when that is larger; one
    right-to-left pass records it per value, and P is its running
    maximum over the values from n down to v.
    """
    n = len(p)
    top = [0] * (n + 2)     # top[a]: the maximum after a, when above a
    high = 0
    for a in reversed(p):
        if high > a:
            top[a] = high
        else:
            high = a
    ext = [0] * (n + 2)
    big = 0                 # P for the current v, 0 for none
    for v in range(n, 0, -1):
        if top[v] > big:
            big = top[v]
        if big:
            ext[v] = (4 << big) - (2 << v)
    return ext


def class_b_extensions(p: list) -> list:
    """Like ``class_a_extensions`` for 1432 and 2143.

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

    So ext[v] is (1, v] for 1 < v <= M1, else (g, v] for v > g, else
    empty.  One right-to-left pass finds g and M1.
    """
    n = len(p)
    g = n + 1               # least entry with a smaller entry after it
    m1 = 0                  # maximum after the entry 1 (0 if it is last)
    low = n + 1
    high = 0
    for a in reversed(p):
        if a > low:
            if a < g:
                g = a
        else:
            low = a
            if a == 1:
                m1 = high
        if a > high:
            high = a
    ext = [0] * (n + 2)
    for v in range(2, n + 2):
        if v <= m1:
            ext[v] = (2 << v) - 4
        elif v > g:
            ext[v] = (2 << v) - (2 << g)
    return ext
