"""Polynomial-time enumeration of Av(1432,2143).

Permutations are built by adding a new bottom slice below an avoider,
and the recursion tracks the catalytic variable t marking the usable
gaps of the trailing increasing run (the run minus its minimum entry;
see perms.marked_trailing_run).  With f(z,t) the class series and
s(z,t) the single-slice series, the three ways a new slice can attach
give

    f = 1 + Phi[f] + Psi[Theta[f]] + Xi[Lambda[f]]

with the linear monomial operators

    Phi:    t^k -> s(z,t) (1 + t + ... + t^k)
    Theta:  t^k -> t + ... + t^k                  (t^0 -> 0)
    Psi:    t^k -> [t^2 z^4 / ((1-z)^2 (1-tz)(1-(1+t)z))] (1 + ... + t^{k-1})
    Lambda: t^k -> [z/(1-2z)] (t + ... + t^k)
    Xi:     t^k -> [tz/(1-tz)] sum_{j=0}^{k-1} t^{k-1-j} / (1-z)^j

Every image strictly raises z-order: row n (the z^n coefficient) of the
right-hand side needs only rows below n of f.  ``iterate`` therefore
computes the rows online, each row of every intermediate once.  The
column sums behind Phi, Theta and Psi act within a row, and the Psi,
Lambda and Xi prefactors have linear denominators, which act as
one-row recurrences; only Phi's product with s costs more, about n^3/6
coefficient products for row n, so order N costs about N^4/24 in all.
"""
from __future__ import annotations

from dataclasses import dataclass

from .series import (BivariateSeries, OnlineQuotient, UnivariateSeries,
                     check_counting, row_product, tpoly_sum)


@dataclass(frozen=True)
class ClassBState:
    """f computed exactly to the truncation order, together with the
    materialized single-slice series."""

    order: int
    f: BivariateSeries
    s: BivariateSeries


def s_series(order: int) -> BivariateSeries:
    """The single-slice series

        s = z/(1-tz) + t z^3/((1-2z)(1-tz)^2)
            + t^2 z^5/((1-z)^2 (1-tz)^2 (1-(1+t)z)),

    counting avoiders that start with their minimum, by length and
    marked trailing run.

    >>> s_series(3).c
    [[0], [1], [0, 1], [0, 1, 1]]
    """
    inv_tz = BivariateSeries.geometric_tz(order)
    # 1/(1-tz)^2 = sum (n+1) (tz)^n and 1/(1-z)^2 = sum (n+1) z^n
    inv_tz2 = BivariateSeries([[0] * n + [n + 1] for n in range(order + 1)],
                              order)
    inv_z2 = UnivariateSeries([n + 1 for n in range(order + 1)], order)
    inv_2z = UnivariateSeries.geometric(2, order)
    inv_1pt = BivariateSeries([[1], [-1, -1]], order).inverse()  # 1/(1-(1+t)z)
    term1 = inv_tz.shift(1)
    term2 = (inv_tz2 * inv_2z).shift(3).mul_tpoly([0, 1])
    term3 = ((inv_tz2 * inv_1pt) * inv_z2).shift(5).mul_tpoly([0, 0, 1])
    return term1 + term2 + term3


def _columns(w: BivariateSeries) -> tuple[int, list[list]]:
    """(tmax, column list): column j holds the z-coefficients of t^j."""
    tmax = max(len(r) for r in w.c) - 1
    cols = [[w.coefficient(n, j) for n in range(w.order + 1)]
            for j in range(tmax + 1)]
    return tmax, cols


def _suffix_sums(w: BivariateSeries) -> tuple[int, list[UnivariateSeries]]:
    """S_j(z) = sum_{k >= j} w_k(z) for j = 0..tmax+1 (last one zero)."""
    tmax, cols = _columns(w)
    sums: list[UnivariateSeries] = [UnivariateSeries.zero(w.order)]
    acc = [0] * (w.order + 1)
    out = []
    for j in range(tmax, -1, -1):
        acc = [a + b for a, b in zip(acc, cols[j])]
        out.append(UnivariateSeries(list(acc), w.order))
    sums = out[::-1] + [UnivariateSeries.zero(w.order)]
    return tmax, sums


def _from_columns(cols: list[UnivariateSeries],
                  order: int) -> BivariateSeries:
    return BivariateSeries([[col.c[n] for col in cols]
                            for n in range(order + 1)], order)


def phi_apply(w: BivariateSeries, s: BivariateSeries) -> BivariateSeries:
    """Phi[w] = s(z,t) * sum_j t^j S_j with S_j the suffix column sums."""
    tmax, sums = _suffix_sums(w)
    return s * _from_columns(sums[:tmax + 1], w.order)


def theta_apply(w: BivariateSeries) -> BivariateSeries:
    """Theta[w] = sum_{j>=1} t^j S_j (the t^0 monomial maps to zero)."""
    tmax, sums = _suffix_sums(w)
    cols = [UnivariateSeries.zero(w.order)] + sums[1:tmax + 1]
    return _from_columns(cols, w.order)


def psi_apply(w: BivariateSeries) -> BivariateSeries:
    """Psi[w] = [t^2 z^4 / ((1-z)^2 (1-tz)(1-(1+t)z))] sum_j t^j S_{j+1}."""
    tmax, sums = _suffix_sums(w)
    body = _from_columns(sums[1:tmax + 1] or [sums[-1]], w.order)
    order = w.order
    inv_z = UnivariateSeries.geometric(1, order)
    inv_tz = BivariateSeries.geometric_tz(order)
    inv_1pt = BivariateSeries([[1], [-1, -1]], order).inverse()
    pref = ((inv_tz * inv_1pt) * (inv_z * inv_z)).shift(4).mul_tpoly(
        [0, 0, 1])
    return pref * body


def lambda_apply(w: BivariateSeries) -> BivariateSeries:
    """Lambda[w] = [z/(1-2z)] sum_{j>=1} t^j S_j."""
    return theta_apply(w) * UnivariateSeries.geometric(2, w.order).shift(1)


def xi_apply(w: BivariateSeries) -> BivariateSeries:
    """Xi[w] = [tz/(1-tz)] sum_i t^i H_i with
    H_i = sum_{k>=i+1} w_k /(1-z)^{k-1-i}, computed by the top-down
    chain H_i = w_{i+1} + H_{i+1}/(1-z)."""
    tmax, cols = _columns(w)
    order = w.order
    ucols = [UnivariateSeries(c, order) for c in cols]
    inv_z = UnivariateSeries.geometric(1, order)
    h = [UnivariateSeries.zero(order)] * (tmax + 1)
    for i in range(tmax - 1, -1, -1):
        h[i] = ucols[i + 1] + inv_z * h[i + 1]
    body = _from_columns(h if tmax else [h[0]], order)
    pref = BivariateSeries.geometric_tz(order).shift(1).mul_tpoly([0, 1])
    return pref * body


def iterate(n_max: int) -> ClassBState:
    """Compute f exactly to order n_max, one row at a time.

    Row n of f is 1 (at n = 0) plus row n of s * A, of the Psi
    prefactor times B and of tz/(1-tz) times sum_i t^i H_i, where A
    holds the column suffix sums of f, B those of Theta[f] from t^1
    on, and H the Xi chain over Lambda[f] = z/(1-2z) Theta[f].  Each
    needs rows of f below n only.

    >>> iterate(4).f.subst_t(1).c
    [1, 1, 2, 6, 22]
    """
    if n_max < 0:
        raise ValueError("order must be >= 0, got %d" % n_max)
    s = s_series(n_max)
    s_z = s.c[1:]                 # s/z: s has no z^0 term
    f, a = [], []
    # B / ((1-z)^2 (1-tz) (1-(1+t)z)), which is Psi[Theta[f]] / (t^2 z^4)
    psi = OnlineQuotient([1], [1], [0, 1], [1, 1])
    lam = OnlineQuotient([2])     # Theta[f] / (1-2z) = Lambda[f] / z
    xi = OnlineQuotient([0, 1])   # sum_i t^i H_i / (1-tz) = Xi[...] / (tz)
    q = [0]                       # running z-sums of the H_i
    xi.push([0])                  # row 0 of H: Lambda[f] starts at z^1
    for n in range(n_max + 1):
        if n == 0:
            row = [1]
        else:
            row = tpoly_sum(row_product(s_z, a, n - 1),
                            ([0, 0] + psi.rows[n - 4]) if n >= 4 else [0],
                            [0] + xi.rows[n - 1])
        f.append(row)
        a.append(_suffix_sums_row(row))
        psi.push(_suffix_sums_row(a[n][1:]))   # row n of B
        # row n of Theta[f] gives row n+1 of Lambda[f], hence of H
        theta = [0] + a[n][1:]
        xi.push(_xi_chain_row(lam.push(theta), q))
    state = ClassBState(order=n_max, f=BivariateSeries(f, n_max), s=s)
    check_counting(state.f)
    return state


def _suffix_sums_row(row: list) -> list:
    """[sum(row[j:]) for each j]; [0] for an empty row."""
    out = list(row) or [0]
    for j in range(len(out) - 2, -1, -1):
        out[j] += out[j + 1]
    return out


def _xi_chain_row(lam_row: list, q: list) -> list:
    """The next row of sum_i t^i H_i for the chain
    H_i = Lambda_{i+1} + H_{i+1}/(1-z), given the same row of Lambda[f]
    and the running z-sums q_i of the H_i, which it updates."""
    top = max(len(lam_row), len(q)) - 2
    q.extend([0] * (top + 2 - len(q)))
    out = [0] * (top + 1)
    above = 0                     # H_{i+1} in this row
    for i in range(top, -1, -1):
        q[i + 1] += above
        above = out[i] = \
            (lam_row[i + 1] if i + 1 < len(lam_row) else 0) + q[i + 1]
    q[0] += above
    return out or [0]


def counts(state: ClassBState) -> list[int]:
    """The counting sequence |Av_n(1432,2143)| for n = 0..order.

    >>> counts(iterate(6))
    [1, 1, 2, 6, 22, 89, 381]
    """
    return [int(x) for x in state.f.subst_t(1).c]


def equation_residuals(state: ClassBState) -> int:
    """z-order of the first coefficient at which f differs from
    1 + Phi[f] + Psi[Theta[f]] + Xi[Lambda[f]], built from the
    whole-series operators (order+1 means the state satisfies the
    equation through the truncation)."""
    f = state.f
    rhs = 1 + phi_apply(f, state.s) + psi_apply(theta_apply(f)) \
        + xi_apply(lambda_apply(f))
    return (f - rhs).valuation()


def case_decomposition(state: ClassBState
                       ) -> tuple[BivariateSeries, BivariateSeries,
                                  BivariateSeries]:
    """The three slice-addition case series (g_a, g_b, g_c) with
    f = 1 + g_a + g_b + g_c."""
    f, s = state.f, state.s
    return (phi_apply(f, s), psi_apply(theta_apply(f)),
            xi_apply(lambda_apply(f)))


def auxiliary_series(state: ClassBState
                     ) -> tuple[UnivariateSeries, UnivariateSeries,
                                UnivariateSeries]:
    """(f(z,1), f_t(z,1), f(z,1/(1-z))): the specializations appearing
    in the kernel relation."""
    f1 = state.f.subst_t(1)
    ft1 = state.f.deriv_t_at_1()
    frecip = state.f.subst_t(UnivariateSeries.geometric(1, state.order))
    return f1, ft1, frecip
