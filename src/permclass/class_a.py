"""Polynomial-time enumeration of Av(2413,3412).

The class is generated by its skew-indecomposable members: every
permutation is a skew sum of skew-indecomposable layers, and appending
a layer acts on the generating function as a linear operator on
monomials in the catalytic variable t, which marks the length of the
initial decreasing run.  Writing f(z,t) for the class and fskew(z,t)
for its skew-indecomposable members of length at least two,

    fskew = z f(z,1) (f(z,t) - 1) + Omega[fskew]
    f     = 1/(1-zt) + fskew / ((1-zt)(1-z))

where Omega: t^k -> (z/(1-z)) (f(z,t)-1) sum_{j=0}^{k} t^j f(z,1)^{k-j}.

With Omega[fskew] = (z/(1-z)) (f-1) G, G = sum_j t^j H_j the Omega
chain (see ``omega_apply``), the first equation factors as

    fskew = z (f-1) W,   W = f(z,1) + G/(1-z).

Both right-hand sides strictly raise z-order: row n (the z^n
coefficient) of each right-hand side needs only rows below n of f and
fskew.  ``iterate`` therefore computes the rows online, each row of
every intermediate once.

The one bivariate product, (f-1) times W, is formed by evaluation and
interpolation (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 10) after a Kronecker substitution inside each pair of
t-coefficients (ibid. 8.4; Harvey, JSC 44, 2009): a row
E(t^2) + t O(t^2) is packed as E(T) + 2^S O(T), T = t^2, two
coefficients a value.  The packed rows of (f-1)/z and of W are also
kept as their values at T = -K..K, K = floor((N+1)/4) for order N.
Product row n, of T-degree (n+1)/2, reads the middle 2k+1 points,
k = floor((n+3)/4): one dot product of length n+1 at each, interpolated
back in O(n^2) by ``series.tpoly_interpolate``; block m's slots of S
bits hold t^2m, t^2m+1 and part of t^2m+2.  A row is evaluated at
T = +-x in one ``tpoly_value_pair`` pass.  Order N costs about N^3/6
value products, half as many as unpacked, and a quarter of the
interpolation and of W's Horner work; a coefficient product would cost
about N^4/24.

The slots are exact while 2^S exceeds every coefficient, and as these
are nonnegative each is at most the row's value at t = 1,
bound_n = sum_i f(1)_{i+1} W_{n-i}(1), exact in O(n).  S is set at the
first product row to bits(bound) + ceil(11 (N-s)/4) + 1, as 11/4 >
log2(32/5), the growth rate, which the count ratios approach from
below.  A later bound with more bits repacks and re-evaluates every
row; an unpacked row must sum to bound_n, or ConsistencyError.  So the
points and the radix depend on the order asked for, and the rows do
not.  With S more bits a value product costs more, and near N=200
packing stops paying (see README).  The Omega chain stays in
coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import mul

from .series import (BivariateSeries, ConsistencyError, UnivariateSeries,
                     check_counting, tpoly_interpolate, tpoly_sum,
                     tpoly_value_pair)

_QUARTER_BITS_PER_ROW = 11   # a slot's headroom per row to come, times 4


@dataclass(frozen=True)
class ClassAState:
    """f, fskew computed exactly to the truncation order."""

    order: int
    f: BivariateSeries
    fskew: BivariateSeries


def omega_apply(w: BivariateSeries, f: BivariateSeries,
                f1: UnivariateSeries) -> BivariateSeries:
    """The layer-adding operator applied monomial-wise to w.

    Regrouped by the power of t in the image: with w = sum_k w_k(z) t^k,

        Omega[w] = (z/(1-z)) (f-1) sum_j t^j H_j,   H_j = w_j + f1 H_{j+1}

    (H computed top-down), which needs one univariate product per
    t-power instead of one per monomial.
    """
    h = w.columns()
    for j in range(len(h) - 2, -1, -1):
        h[j] = h[j] + f1 * h[j + 1]
    g = BivariateSeries.from_columns(h)
    pref = UnivariateSeries.geometric(1, w.order).shift(1)  # z/(1-z)
    return ((f - 1) * g) * pref


def iterate(n_max: int) -> ClassAState:
    """Compute f and fskew exactly to order n_max, one row at a time.

    Row s of fskew = z (f-1) W is row n = s-2 of fz W, fz = (f-1)/z,
    from rows below s of f and below s-1 of W; see ``_product_row``.
    Row m of W = f1 + G/(1-z) is row m of f1 = f(z,1) plus the sum of
    rows 0..m of G.  Row s of f, fz's new row, follows from row s of
    fskew by the second equation, (1-z)(1-tz) f = 1 - z + fskew:

        f_s = fskew_s + (1+t) f_{s-1} - t f_{s-2},  s >= 2,

    with f_0 = 1 and f_1 = t.  The new rows of (f-1)/z, f_s, and of W
    are packed (``_pack``) and evaluated once at each point T = -K..K,
    K = (n_max+1)//4, the points the last product row needs.  The bound
    on a product row's coefficients comes from f1 and W's row sums; S
    is set, or raised with every row repacked and re-evaluated, when it
    has more bits than S.  Row s costs about s^2/2 value products and
    O(s^2) other work.

    >>> iterate(4).f.subst_t(1).c
    [1, 1, 2, 6, 22]
    """
    if n_max < 0:
        raise ValueError("order must be >= 0, got %d" % n_max)
    f, fskew = [[1], [0, 1]], [[0], [0]]   # rows 0 and 1
    f1 = [1, 1]         # f(z,1)
    h = [[0, 0], [0]]   # Omega chain: h[j][m-j] = [z^m] H_j
    g_sum = [0]         # the sum of the rows of G so far
    w, w1 = [[1], [1]], [1, 1]   # rows of W, and W(z,1)
    width = 0           # the slot width S, set at the first product row
    k = (n_max + 1) // 4   # the points are T = -k..k
    at = ([], [])       # of (f-1)/z and W, per point: the packed rows' values
    for s in range(2, n_max + 1):
        bound = sum(map(mul, f1[1:], reversed(w1[:-1])))
        if (bits := bound.bit_length()) > width:
            width = bits + 1 + -(-_QUARTER_BITS_PER_ROW * (n_max - s) // 4)
            for rows, a in zip((f[1:], w), at):
                a[:] = map(list, zip(*(_values(_pack(r, width), k)
                                       for r in rows)))
        fskew.append(_product_row(at, width, bound))
        f.append(tpoly_sum(fskew[s], f[-1], [0] + f[-1],
                           [0] + [-x for x in f[-2]]))
        f1.append(sum(f[s]))
        g_sum = tpoly_sum(g_sum, _omega_chain_row(fskew[s], f1, h))
        w.append(tpoly_sum([f1[s]], g_sum))
        w1.append(sum(w[-1]))
        for new, a in zip((f[s], w[-1]), at):
            for point, v in zip(a, _values(_pack(new, width), k),
                                strict=True):
                point.append(v)
    state = ClassAState(order=n_max, f=BivariateSeries(f, n_max),
                        fskew=BivariateSeries(fskew, n_max))
    check_counting(state.f, state.fskew)
    return state


def _product_row(at: tuple, width: int, bound: int) -> list:
    """Row n of fz W, sum_i fz_i W_{n-i}, fz = (f-1)/z, from the values
    of the rows of fz and W packed with slot width ``width`` per point
    T = -K..K (``at``; fz has rows 0..n); the row must sum to ``bound``.

    fz_i = f_{i+1} has t-degree i+1 and W_m at most m, so the packed
    row has T-degree at most (n+1)/2: the values are one dot product at
    each of the middle 2k+1 points, k = (n+3)//4, and the interpolated
    blocks are unpacked by shifts and masks.
    """
    n, mid = len(at[0][0]) - 1, len(at[0]) // 2
    k = (n + 3) // 4
    values = [sum(map(mul, a, reversed(b[:n + 1])))
              for a, b in zip(*(x[mid - k:mid + k + 1] for x in at),
                              strict=True)]
    blocks = tpoly_interpolate(values, -k)
    mask, row = (1 << width) - 1, [0] * (2 * len(blocks) + 1)
    for m, c in enumerate(blocks):
        row[2 * m] += c & mask
        row[2 * m + 1] += c >> width & mask
        row[2 * m + 2] += c >> 2 * width
    if sum(row) != bound:
        raise ConsistencyError("row z^%d of fskew does not sum to its "
                               "value at t = 1" % (n + 2))
    return row


def _pack(p: list, width: int) -> list:
    """p = E(t^2) + t O(t^2) as E(T) + 2^width O(T), T = t^2."""
    return [e + (o << width)
            for e, o in zip_longest(p[::2], p[1::2], fillvalue=0)]


def _values(p: list, k: int) -> list:
    """The values of p at -k..k, one ``tpoly_value_pair`` per x."""
    pairs = [tpoly_value_pair(p, x) for x in range(1, k + 1)]
    return [m for _, m in reversed(pairs)] + p[:1] + [v for v, _ in pairs]


def _omega_chain_row(w: list, f1: list, h: list) -> list:
    """Extend the chain H_j = w_j + f1 H_{j+1} by row n = len(h), given
    row n of w, and return that row of G = sum_j t^j H_j.

    H_j starts at z^j because row m of w has t-degree at most m, so
    column j of ``h`` is stored from z^j on; ``f1`` holds the
    coefficients of f(z,1).
    """
    n = len(h)
    h.append([])
    out = [0] * (n + 1)
    for j in range(n, -1, -1):
        x = w[j] if j < len(w) else 0
        if j < n:
            # rows j+1..n of H_{j+1} against f1's coefficients 0..n-j-1
            x += sum(map(mul, f1, reversed(h[j + 1])))
        h[j].append(x)
        out[j] = x
    return out


def counts(state: ClassAState) -> list[int]:
    """The counting sequence |Av_n(2413,3412)| for n = 0..order.

    >>> counts(iterate(6))
    [1, 1, 2, 6, 22, 90, 395]
    """
    f1 = state.f.subst_t(1)
    return [int(x) for x in f1.c]


def fskew_at_f1(state: ClassAState) -> UnivariateSeries:
    """The substitution fskew(z, f(z,1)), the combination annihilated
    by the degree-3-in-g algebraic relation."""
    return state.fskew.subst_t(state.f.subst_t(1))
