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
coefficient) of each needs only rows below n of f and fskew, so
``iterate`` computes the rows online, each row of each factor once.

The one bivariate product, (f-1) times W, is formed by evaluation and
interpolation (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 10) after a Kronecker substitution inside each pair of
t-coefficients (ibid. 8.4; Harvey, JSC 44, 2009): a row
E(t^2) + t O(t^2) is packed as E(T) + 2^S O(T), T = t^2, and kept as
its values at T = -K..K, K = floor((N+1)/4) for order N
(``series.tpoly_values``).  Product row n, of T-degree (n+1)/2, reads
the middle 2k+1 points, k = floor((n+3)/4): one dot product of length
n+1 at each, interpolated back in O(n^2) (``series.tpoly_interpolate``);
block m's slots of S bits hold t^2m, t^2m+1 and part of t^2m+2.  Order
N costs about N^3/6 value products, half as many as unpacked; a
coefficient product would cost about N^4/24.  The chain is packed
whole, row m of G at t = 2^(8B), B bytes a slot: row n of G is one dot
product sum_{i>=1} f1_i G_{n-i}, its slots shifted down one, added to
fskew_n and summed from the top, so N^2/2 long-integer products in
place of N^3/6 small ones; column 0 is H_0 = fskew(z, f(z,1)).  W has
no rows: packing being linear, its values are summed from G's.
Below order 60 (``_ONE_POINT_BELOW``, measured) the product is packed
the same way: rows of f and G whole in the chain's B-byte slots, product
row n one dot product of length n+1, read off its slots, with no Horner
pass or interpolation; N=30/40 take 0.5/0.6 of the time at the points.
Its factors are n+1 integers of about nB bytes, and their products
outgrow the points' short ones: from N=60 the points win, and at N=120
one point is 3.2 times slower, so both stay, chosen by the order.

The slots are exact while 2^S exceeds every coefficient they hold.
These are nonnegative, so fskew_n's are at most fskew_n(1) =
sum_i f1_{i+1} W_{n-2-i}(1), and G_n's, suffix sums of its slots, at
most G_{n,0} <= top = fskew_n(1) + sum_{i>=1} f1_i G_{n-i}(1) (not
G_n(1)), both exact in O(n) before row n (f1_n G_0 = 0).  One slot,
S = bits(top) + ceil(11 (N-s)/4) + 1 bits at row s (11/4 > log2(32/5),
the growth rate), or ceil(S/8) bytes in the chain, is widened when top
outgrows it, with every row repacked; a product row must sum to
fskew_n(1), or ConsistencyError.  The points and the radix depend on
the order asked for, not the rows.  With S more bits a value product
costs more, and near N=200 packing stops paying (see README).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import mul

from .series import (BivariateSeries, ConsistencyError, UnivariateSeries,
                     check_counting, tpoly_interpolate, tpoly_suffix_sums,
                     tpoly_sum, tpoly_values)

_QUARTER_BITS_PER_ROW = 11   # a slot's headroom per row to come, times 4
_ONE_POINT_BELOW = 60   # orders below multiply whole rows at t = 2^(8B)


@dataclass(frozen=True)
class ClassAState:
    """f, fskew and fskew(z, f(z,1)) exactly to the truncation order."""

    order: int
    f: BivariateSeries
    fskew: BivariateSeries
    fskew_at_f1: UnivariateSeries


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
    from rows 0..n of fz and W (``_product_row``), with G from
    ``_chain_row``; and by the second equation,

        f_s = fskew_s + (1+t) f_{s-1} - t f_{s-2},  s >= 2,

    with f_0 = 1 and f_1 = t.  Row s packs its new rows, f_{s-1} and
    G_{s-2} (``_pack``), each evaluated once at the points T = -K..K,
    K = (n_max+1)//4, and G_{s-1} (``_pack_bytes``), under one slot S;
    a wider S repacks every row through the same loop.  Below order
    ``_ONE_POINT_BELOW`` f_{s-1} and G_{s-2} are packed whole like
    G_{s-1}, at the one point t = 2^(8B).  W = f1 + G/(1-z) is kept
    only as values, W_{s-2}'s being W_{s-3}'s plus G_{s-2}'s plus
    f1_{s-2} - f1_{s-3}; f_N and G_N are not packed, G_{N-1} is not
    evaluated.  Row s costs about s^2/2 value products, s long-integer
    products and O(s) Horner passes; at one point, 2s long-integer
    products and none.

    >>> iterate(4).f.subst_t(1).c
    [1, 1, 2, 6, 22]
    """
    if n_max < 0:
        raise ValueError("order must be >= 0, got %d" % n_max)
    f, fskew, f1 = [[1], [0, 1]], [[0], [0]], [1, 1]   # rows 0, 1; f(z,1)
    g, g1, w1 = [[0], [0]], [0, 0], []   # rows of the chain G; G, W at t = 1
    width, k = 0, (n_max + 1) // 4   # S, set at row 2; the points T = -k..k
    points = 1 if n_max < _ONE_POINT_BELOW else 2 * k + 1
    for s in range(2, n_max + 1):
        w1.append(f1[s - 2] + sum(g1[:-1]))   # W_{s-2}(1)
        bound = sum(map(mul, f1[1:], reversed(w1)))   # fskew_s(1)
        top = bound + sum(map(mul, f1[1:], reversed(g1)))   # >= G_{s,0}
        if (bits := top.bit_length()) > width:   # (re)pack every row
            width = _width(bits, s, n_max)
            size = -(-width // 8)   # bytes a slot of the chain's rows
            at, packed = [[[] for _ in range(points)] for _ in range(2)], []
        for r in range(len(packed) + 2, s + 1):   # f_{r-1}, W_{r-2}, G_{r-1}
            # at each point W_{r-2} = W_{r-3} + G_{r-2} + f1_{r-2} - f1_{r-3}
            step = f1[r - 2] - f1[r - 3] if r > 2 else 1
            for fz, w, x, y in zip(*at, *(
                    [_pack_bytes(p, size)] if points == 1
                    else tpoly_values(_pack(p, width), k)
                    for p in (f[r - 1], g[r - 2]))):
                fz.append(x)
                w.append((w[-1] if w else 0) + y + step)
            packed.append(_pack_bytes(g[r - 1], size))
        fskew.append(_product_row(at, width, size, bound))
        row = fskew[s] + [0] * (s + 1 - len(fskew[s]))
        for j, (x, y) in enumerate(zip_longest(f[-1], f[-2], fillvalue=0)):
            row[j] += x   # + (1+t) f_{s-1} - t f_{s-2}
            row[j + 1] += x - y
        f.append(tpoly_sum(row))
        f1.append(sum(f[s]))
        g.append(_chain_row(fskew[s], f1, packed, size))
        g1.append(sum(g[s]))
    state = ClassAState(order=n_max, f=BivariateSeries(f, n_max),
                        fskew=BivariateSeries(fskew, n_max),
                        fskew_at_f1=UnivariateSeries([r[0] for r in g], n_max))
    check_counting(state.f, state.fskew)
    return state


def _width(bits: int, s: int, n_max: int) -> int:
    """Slot bits for a bound of ``bits`` bits at row s of n_max."""
    return bits + 1 + -(-_QUARTER_BITS_PER_ROW * (n_max - s) // 4)


def _product_row(at: list, width: int, size: int, bound: int) -> list:
    """Row n of fz W, fz = (f-1)/z, from fz's and W's rows 0..n as
    values (``at``), either whole at t = 2^(8 size) or packed with slot
    width ``width`` at T = -K..K; the row must sum to ``bound``.

    At one point the row is one dot product, read off its slots.  At
    the points, fz_i = f_{i+1} has t-degree i+1 and W_m at most m, so
    the packed row has T-degree at most (n+1)/2: the values are one dot
    product at each of the middle 2k+1 points, k = (n+3)//4, and the
    interpolated blocks are unpacked by shifts and masks.
    """
    n, mid = len(at[0][0]) - 1, len(at[0]) // 2
    k = (n + 3) // 4 if mid else 0
    values = [sum(map(mul, a, reversed(b)))
              for a, b in zip(*(x[mid - k:mid + k + 1] for x in at),
                              strict=True)]
    if not mid:
        row = _unpack_bytes(values[0], size)
    else:
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


def _pack_bytes(p: list, size: int) -> int:
    """p at t = 2^(8 size): its coefficients in slots of ``size`` bytes."""
    return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in p]),
                          "little")


def _chain_row(u: list, f1: list, packed: list, size: int) -> list:
    """Row n of G from row n of fskew, u, and G's rows 1..n-1 (G_0 = 0)
    in slots of ``size`` bytes: H_j = fskew_j + f1 H_{j+1} at z^n is
    G_{n,j} = u_j + q_{j+1} + G_{n,j+1}, q = sum_{i>=1} f1_i G_{n-i}:
    the suffix sums of the slots of u plus q shifted down one."""
    q = sum(map(mul, f1[1:], reversed(packed))) >> 8 * size
    q += _pack_bytes(u, size)
    return tpoly_suffix_sums(_unpack_bytes(q, size))


def _unpack_bytes(q: int, size: int) -> list:
    """The coefficients of q read off its slots of ``size`` bytes."""
    data = q.to_bytes((q.bit_length() + 7) // 8, "little")
    return [int.from_bytes(data[i:i + size], "little")
            for i in range(0, len(data), size)]


def counts(state: ClassAState) -> list[int]:
    """The counting sequence |Av_n(2413,3412)| for n = 0..order.

    >>> counts(iterate(6))
    [1, 1, 2, 6, 22, 90, 395]
    """
    f1 = state.f.subst_t(1)
    return [int(x) for x in f1.c]

