"""The hot kernels: series convolutions and the oracle's avoidance
scans for the two classes.

Coefficients are arbitrary Python numbers (ints or Fractions), so the
convolutions are exact object arithmetic.  The scans take permutations
as lists of the values 1..n.
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
    """Avoidance check for Av(2413,3412) when ``v`` was appended as the
    rightmost entry of ``q`` (``q`` includes ``v`` in its last slot; the
    prefix already avoids the basis).  An occurrence of a basis pattern
    must end at the new entry:

      2413 with v as the '3':  exists i<j<k: q[k] < q[i] < v < q[j]
      3412 with v as the '2':  exists i<j<k: q[k] < v < q[i] < q[j]
    """
    n = len(q) - 1
    if n < 3:
        return True
    # inclusive suffix minima over the prefix q[0..n-1]
    sufmin = [0] * n
    cur = q[n - 1]
    for j in range(n - 1, -1, -1):
        if q[j] < cur:
            cur = q[j]
        sufmin[j] = cur
    max_below = 0       # max q[i] with q[i] < v among i < j
    min_above = n + 2   # min q[i] with q[i] > v among i < j
    for j in range(n):
        qj = q[j]
        if qj > v:
            # 2413: q[i] < v < q[j], some later q[k] < q[i]
            if j + 1 < n and max_below > sufmin[j + 1]:
                return False
            # 3412: v < q[i] < q[j], some later q[k] < v
            if j + 1 < n and qj > min_above and sufmin[j + 1] < v:
                return False
            if qj < min_above:
                min_above = qj
        elif qj > max_below:
            max_below = qj
    return True


def class_b_child_ok(q: list, v: int) -> bool:
    """Avoidance check for Av(1432,2143) with ``v`` appended:

      1432 with v as the '2':  exists i<j<k: q[i] < v < q[k] < q[j]
      2143 with v as the '3':  exists i<j<k: q[j] < q[i] < v < q[k]
    """
    n = len(q) - 1
    if n < 3:
        return True
    premin = n + 2          # min over entries strictly before current
    runmax_after_low = 0    # max q[j] over j with premin[j] < v
    max_below = 0           # max q[i] with q[i] < v so far
    inv_below_v = False     # some i<j with q[j] < q[i] < v seen
    for k in range(n):
        qk = q[k]
        if qk > v:
            # 1432: earlier j with q[j] > q[k] > v and a small entry before j
            if runmax_after_low > qk:
                return False
            # 2143: an inversion below v before k
            if inv_below_v:
                return False
        if premin < v and qk > runmax_after_low:
            runmax_after_low = qk
        if qk < v:
            if qk < max_below:
                inv_below_v = True
            elif qk > max_below:
                max_below = qk
        if qk < premin:
            premin = qk
    return True


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
