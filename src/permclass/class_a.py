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
interpolation in t (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 10).  The rows of (f-1)/z and of W are also kept as their
values at the points t = -k..k, added as 0 and then in pairs -x, x only
when a row's t-degree first needs them, so the points never depend on
the order asked for (the iteration stays online in the sense of van
der Hoeven, "Relax, but don't be too lazy", JSC 2002).  Row n of the
product is one dot product of length n+1 at each of its points (n+2
are needed, n+3 when they end a pair), brought back to coefficients in
O(n^2) by ``series.tpoly_interpolate``.  The second equation, cleared
as (1-z)(1-tz) f = 1 - z + fskew, is the recurrence
f_s = fskew_s + (1+t) f_{s-1} - t f_{s-2} (s >= 2, f_1 = t); it gives
f's new row both in coefficients and in values, the latter at one
product by x per point from the dot product just taken.  Only W's new
row, and every row at a new pair of points, are evaluated from
coefficients, by one even/odd Horner pass per pair,
p(+-x) = E(x^2) +- x O(x^2).  Each of these steps is O(n^2) per row, so
order N costs about N^3/3 value products, where a coefficient product
would cost about N^4/24.  The values are longer numbers than the
coefficients: row n's points have |x| <= (n+2)/2, so its value is at
most ((n+2)/2)^(n+1) times the sum of its coefficients, about
(n+1) log2((n+2)/2) bits more, and n+1 bits fewer than at points
0..n+1.  The Omega chain stays in coefficients, at O(n^2) per row.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .series import (BivariateSeries, UnivariateSeries, check_counting,
                     tpoly_interpolate, tpoly_sum, tpoly_value_pair)


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

    Row s of fskew = z (f-1) W is row s-2 of fz W, fz = (f-1)/z, one
    row product that needs rows below s of f and rows below s-1 of W;
    see ``_product_row``, which also returns the row's values at the
    points -k..k.  Row m of W = f1 + G/(1-z) is row m of f1 = f(z,1)
    plus the sum of rows 0..m of G.

    Row s of f, which is fz's new row, follows from row s of fskew by
    the second equation, (1-z)(1-tz) f = 1 - z + fskew:

        f_s = fskew_s + (1+t) f_{s-1} - t f_{s-2},  s >= 2,

    with f_0 = 1 and f_1 = t, in coefficients and, at t = x, in values:
    one product by x per point.  Only W's new row is evaluated at every
    point, by ``tpoly_value_pair`` (one pass per pair +-x).  Row s costs
    about s^2 value products and O(s^2) other work.

    >>> iterate(4).f.subst_t(1).c
    [1, 1, 2, 6, 22]
    """
    if n_max < 0:
        raise ValueError("order must be >= 0, got %d" % n_max)
    f, fskew = [[1]], [[0]]
    f1 = [1]            # f(z,1)
    fz = []             # rows of (f-1)/z: fz[i] = f[i+1]
    h = [[0]]           # Omega chain: h[j][m-j] = [z^m] H_j
    g_sum = [0]         # the sum of the rows of G so far
    w = [[1]]           # rows of W
    fz_at, w_at = [], []   # per point x = -k..k: fz_at[x+k][i] = fz_i(x)
    for s in range(1, n_max + 1):
        if s >= 2:
            row, values = _product_row(fz, w, fz_at, w_at)
            # f_s by the recurrence, in coefficients
            f.append(tpoly_sum(row, f[-1], [0] + f[-1],
                               [0] + [-x for x in f[-2]]))
        else:
            row, values = [0], []
            f.append([0, 1])
        fskew.append(row)
        f1.append(sum(f[s]))
        fz.append(f[s])
        g_sum = tpoly_sum(g_sum, _omega_chain_row(row, f1, h))
        w.append(tpoly_sum([f1[s]], g_sum))
        if s >= 2:
            # f_s(x) by the recurrence (f_0 = 1); W's new row by Horner
            k = len(fz_at) // 2
            for x, (v, fz_x) in enumerate(zip(values, fz_at, strict=True),
                                          -k):
                last = fz_x[-1]
                fz_x.append(v + last + x * (last - (fz_x[-2] if s > 2 else 1)))
            for w_x, v in zip(w_at, _values(w[-1], k), strict=True):
                w_x.append(v)
    state = ClassAState(order=n_max, f=BivariateSeries(f, n_max),
                        fskew=BivariateSeries(fskew, n_max))
    check_counting(state.f, state.fskew)
    return state


def _product_row(fz: list, w: list, fz_at: list, w_at: list) -> tuple:
    """Row n = len(fz) - 1 of fz W, sum_i fz_i W_{n-i}, and its values
    at the points -k..k.

    Row n has t-degree at most n+1, as fz_i = f_{i+1} has t-degree
    i+1 (by the recurrence in ``iterate``) and W_m at most m, so n+2
    points determine it and k <= (n+2)/2: a value is at most k^(n+1)
    times the sum of the row's coefficients.  ``fz_at`` and ``w_at``
    (per point -k..k, the values of the rows of fz and of W) gain the
    points missing, 0 first and then pairs -x, x (see ``_add_points``).
    At each point the row's value is one dot product, and
    ``tpoly_interpolate`` turns the values back into coefficients.
    """
    n = len(fz) - 1
    while len(fz_at) < n + 2:
        _add_points(fz, fz_at)
        _add_points(w, w_at)
    values = [sum(map(mul, a, reversed(b[:n + 1])))
              for a, b in zip(fz_at, w_at, strict=True)]
    return tpoly_interpolate(values, -(len(values) // 2)), values


def _values(p: list, k: int) -> list:
    """The values of p at t = -k..k, one ``tpoly_value_pair`` per x."""
    pairs = [tpoly_value_pair(p, x) for x in range(1, k + 1)]
    return [m for _, m in reversed(pairs)] + p[:1] + [v for v, _ in pairs]


def _add_points(rows: list, at: list) -> None:
    """Give ``at`` (per point -k..k, the values of ``rows``) its next
    points: 0 when empty, else the pair -(k+1), k+1, both from one
    ``tpoly_value_pair`` per row."""
    if not at:
        at.append([p[0] for p in rows])
        return
    x = len(at) // 2 + 1
    pairs = [tpoly_value_pair(p, x) for p in rows]
    at.insert(0, [m for _, m in pairs])
    at.append([v for v, _ in pairs])


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
