"""Polynomial-time enumeration of Av(1432,2143).

Permutations are built by adding a new bottom slice below an avoider,
and the recursion tracks the catalytic variable t marking the usable
gaps of the trailing increasing run (the run minus its minimum entry;
see ``marked_trailing_run`` in tests/reference.py).  With f(z,t) the
class series and s(z,t) the single-slice series, the three ways a new
slice can attach give

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
column sums behind Phi, Theta and Psi act within a row, and s and the
Psi, Lambda and Xi prefactors have only linear denominators, which act
as one-row recurrences.  Row n takes a fixed number of products of a
row with a linear factor c(t), O(n) coefficient operations, so order N
costs about N^2 in all: the iteration forms no bivariate product.  Each
quotient row is added to the row of f it feeds when made; none is kept.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, zip_longest
from operator import add

from .series import (BivariateSeries, OnlineQuotient, UnivariateSeries,
                     check_counting, tpoly_suffix_sums, tpoly_sum)


@dataclass(frozen=True)
class ClassBState:
    """f computed exactly to the truncation order."""

    order: int
    f: BivariateSeries


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


def _suffix_sums(w: BivariateSeries) -> list[UnivariateSeries]:
    """S_j(z) = sum_{k >= j} w_k(z) for j = 0..deg_t w + 1 (last one
    zero), w_k the t^k column of w."""
    return list(accumulate(reversed(w.columns()),
                           initial=UnivariateSeries.zero(w.order)))[::-1]


def phi_apply(w: BivariateSeries, s: BivariateSeries) -> BivariateSeries:
    """Phi[w] = s(z,t) * sum_j t^j S_j with S_j the suffix column sums."""
    return s * BivariateSeries.from_columns(_suffix_sums(w))


def theta_apply(w: BivariateSeries) -> BivariateSeries:
    """Theta[w] = sum_{j>=1} t^j S_j (the t^0 monomial maps to zero)."""
    return BivariateSeries.from_columns(
        [UnivariateSeries.zero(w.order)] + _suffix_sums(w)[1:])


def psi_apply(w: BivariateSeries) -> BivariateSeries:
    """Psi[w] = [t^2 z^4 / ((1-z)^2 (1-tz)(1-(1+t)z))] sum_j t^j S_{j+1}."""
    body = BivariateSeries.from_columns(_suffix_sums(w)[1:])
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
    order = w.order
    cols = w.columns()
    inv_z = UnivariateSeries.geometric(1, order)
    h = [UnivariateSeries.zero(order)] * len(cols)
    for i in range(len(cols) - 2, -1, -1):
        h[i] = cols[i + 1] + inv_z * h[i + 1]
    body = BivariateSeries.from_columns(h)
    pref = BivariateSeries.geometric_tz(order).shift(1).mul_tpoly([0, 1])
    return pref * body


def iterate(n_max: int) -> ClassBState:
    """Compute f exactly to order n_max, one row at a time.

    Row n of f is 1 (at n = 0) plus row n of s * A + Psi[Theta[f]]
    and of tz/(1-tz) times sum_i t^i H_i, where A holds the column
    suffix sums of f, B those of Theta[f] from t^1 on, Psi[Theta[f]] is
    the Psi prefactor times B, and H is the Xi chain over
    Lambda[f] = z/(1-2z) Theta[f].  Each needs rows of f below n only.
    The terms of s and the Psi prefactor divide by linear factors only,
    and the t^2 z^5 term of s shares its denominator with the Psi
    prefactor, so

        s * A + Psi[Theta[f]] = z q1 + t z^3 q2 + t^2 z^4 p,
        q1 = A/(1-tz),  q2 = q1/((1-2z)(1-tz)),
        p = (z q1 + B)/((1-z)^2 (1-tz) (1-(1+t)z)),

    three one-row recurrences, each fed rows already made: O(n)
    coefficient operations for row n, nine products by a linear
    factor in all.  The quotient rows made from row n of f are added
    when they are made to the rows of f they belong to: n+1 (q1), n+2
    (the Xi quotient), n+3 (q2) and n+4 (p).  So only the pending terms
    of the next four rows are kept, and no quotient keeps its history.

    >>> iterate(4).f.subst_t(1).c
    [1, 1, 2, 6, 22]
    """
    if n_max < 0:
        raise ValueError("order must be >= 0, got %d" % n_max)
    q1 = OnlineQuotient([0, 1])
    q2 = OnlineQuotient([2], [0, 1])
    p = OnlineQuotient([1], [1], [0, 1], [1, 1])
    lam = OnlineQuotient([2])     # Theta[f] / (1-2z) = Lambda[f] / z
    xi = OnlineQuotient([0, 1])   # sum_i t^i H_i / (1-tz) = Xi[...] / (tz)
    q = [0]                       # running z-sums of the H_i
    due = [[[1]], [], [], []]     # the terms of rows n .. n+3 of f
    last = [0]                    # row n-1 of q1
    f = []
    for n in range(n_max + 1):
        row = tpoly_sum(*due.pop(0))
        due.append([])            # now rows n+1 .. n+4
        f.append(row)
        a = tpoly_suffix_sums(row)              # row n of A
        b = tpoly_suffix_sums(a[1:])            # row n of B
        due[3].append([0, 0] + p.push(tpoly_sum(last, b)))
        last = q1.push(a)
        due[0].append(last)
        due[2].append([0] + q2.push(last))
        # row n of Theta[f] gives row n+1 of Lambda[f], hence of H
        due[1].append([0] + xi.push(_xi_chain_row(lam.push([0] + a[1:]), q)))
    state = ClassBState(order=n_max, f=BivariateSeries(f, n_max))
    check_counting(state.f)
    return state


def _xi_chain_row(lam_row: list, q: list) -> list:
    """The next row of sum_i t^i H_i for the chain
    H_i = Lambda_{i+1} + H_{i+1}/(1-z), given the same row of Lambda[f]
    and the running z-sums q_i of the H_i, which it updates: H_i is
    Lambda_{i+1} + q_{i+1} + H_{i+1}, a suffix sum, then q_i += H_i."""
    h = tpoly_suffix_sums([x + y for x, y in
                           zip_longest(lam_row[1:], q[1:], fillvalue=0)])
    q.extend([0] * (len(lam_row) - len(q)))
    q[:len(h)] = map(add, q, h)
    return h


def counts(state: ClassBState) -> list[int]:
    """The counting sequence |Av_n(1432,2143)| for n = 0..order.

    >>> counts(iterate(6))
    [1, 1, 2, 6, 22, 89, 381]
    """
    return [int(x) for x in state.f.subst_t(1).c]
