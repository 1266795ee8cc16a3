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
every intermediate once.  Row n costs about n^3/6 coefficient products
in the one bivariate product, (f-1) times W, and O(n^2) elsewhere, so
order N costs about N^4/24 in all.
"""
from __future__ import annotations

from dataclasses import dataclass

from .series import (BivariateSeries, OnlineQuotient, UnivariateSeries,
                     check_counting, row_product, tpoly_sum)


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

    Row s of fskew = z (f-1) W is row s-2 of ((f-1)/z) W, one row
    product that needs rows below s of f and rows below s-1 of W.  Row
    m of W = f1 + G/(1-z) is row m of f1 = f(z,1) plus the sum of rows
    0..m of G.  Row s of f then follows from row s of fskew.

    >>> iterate(4).f.subst_t(1).c
    [1, 1, 2, 6, 22]
    """
    if n_max < 0:
        raise ValueError("order must be >= 0, got %d" % n_max)
    f, fskew = [[1]], [[0]]
    f1 = [[1]]          # f(z,1), as rows of t-degree 0
    fz = []             # rows of (f-1)/z: fz[i] = f[i+1]
    h = [[0]]           # Omega chain: h[j][m-j] = [z^m] H_j
    g_sum = [0]         # the sum of the rows of G so far
    w = [[1]]           # rows of W
    quot = OnlineQuotient([1], [0, 1])   # fskew / ((1-z)(1-tz))
    quot.push(fskew[0])
    for s in range(1, n_max + 1):
        row = row_product(fz, w, s - 2) if s >= 2 else [0]
        fskew.append(row)
        f.append(tpoly_sum(quot.push(row), [0] * s + [1]))
        f1.append([sum(f[s])])
        fz.append(f[s])
        g_sum = tpoly_sum(g_sum, _omega_chain_row(row, f1, h))
        w.append(tpoly_sum(f1[s], g_sum))
    state = ClassAState(order=n_max, f=BivariateSeries(f, n_max),
                        fskew=BivariateSeries(fskew, n_max))
    check_counting(state.f, state.fskew)
    return state


def _omega_chain_row(w: list, f1: list, h: list) -> list:
    """Extend the chain H_j = w_j + f1 H_{j+1} by row n = len(h), given
    row n of w, and return that row of G = sum_j t^j H_j.

    H_j starts at z^j because row m of w has t-degree at most m, so
    column j of ``h`` is stored from z^j on.
    """
    n = len(h)
    h.append([])
    out = [0] * (n + 1)
    for j in range(n, -1, -1):
        x = w[j] if j < len(w) else 0
        if j < n:
            col = h[j + 1]   # rows j+1..n of H_{j+1}
            top = len(col) - 1
            x += sum(f1[i][0] * col[top - i] for i in range(top + 1))
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


def equation_residuals(state: ClassAState) -> tuple[int, int]:
    """z-order of the first violated coefficient of each defining
    equation (order+1 for both means the state satisfies them through
    the truncation)."""
    f, fskew = state.f, state.fskew
    f1 = f.subst_t(1)
    rhs2 = ((f - 1) * f1).shift(1) + omega_apply(fskew, f, f1)
    inv_zt = BivariateSeries.geometric_tz(state.order)
    inv_z = UnivariateSeries.geometric(1, state.order)
    rhs3 = inv_zt + (fskew * inv_zt) * inv_z
    return (fskew - rhs2).valuation(), (f - rhs3).valuation()


def fskew_at_f1(state: ClassAState) -> UnivariateSeries:
    """The substitution fskew(z, f(z,1)), the combination annihilated
    by the degree-3-in-g algebraic relation."""
    return state.fskew.subst_t(state.f.subst_t(1))
