"""Exact truncated power series in z, univariate or with polynomial-in-t
coefficients.

Three invariants hold for every series built here:

- Coefficients are exact rationals: Python ints (bools included) or
  Fractions.  The constructor checks each list it is given once and
  raises SeriesError on anything else, a float or an int subclass.
- A bivariate row (the z^n coefficient, a polynomial in t) carries no
  trailing zeros, and the zero row is [0].  The constructor trims every
  row, so equal series have equal row lists.
- Every binary operation truncates to the smaller order of its operands
  and never extends an operand with fabricated zeros.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import Sequence, Union

from . import _kernels

Coeff = Union[int, Fraction]

_EXACT = frozenset((int, bool, Fraction))


class SeriesError(ValueError):
    pass


class ConsistencyError(ArithmeticError):
    """A coefficient came out non-integral or negative: the iteration
    no longer counts anything."""


def _check_exact(values: list) -> list:
    """``values`` itself, once every entry is an int, bool or Fraction."""
    if not _EXACT.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) not in _EXACT)
        raise SeriesError("coefficients must be exact rationals, got %r"
                          % (bad,))
    return values


class _Series:
    """What both series types share: the truncation order N, the list
    ``c`` of the coefficients of z^0..z^N, and the operations that only
    move or compare those coefficients.  A subclass names its zero and
    one coefficient in ``_ZERO`` and ``_ONE``."""

    __slots__ = ("order", "c")

    @classmethod
    def zero(cls, order: int):
        return cls([cls._ZERO], order)

    @classmethod
    def one(cls, order: int):
        return cls([cls._ONE], order)

    def _common(self, other: "_Series") -> int:
        return min(self.order, other.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def shift(self, k: int):
        """Multiply by z^k (truncation order unchanged)."""
        return type(self)([self._ZERO] * k + self.c, self.order)

    def truncate(self, order: int):
        if order > self.order:
            raise SeriesError("cannot extend truncation order")
        return type(self)(self.c[:order + 1], order)

    def valuation(self) -> int:
        """z-order of the first nonzero coefficient; order+1 if zero."""
        for n, x in enumerate(self.c):
            if x != self._ZERO:
                return n
        return self.order + 1

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.order == other.order and self.c == other.c


class UnivariateSeries(_Series):
    """A power series in z truncated at order N (coefficients of
    z^0..z^N are known)."""

    __slots__ = ()
    _ZERO, _ONE = 0, 1

    def __init__(self, coeffs: Sequence[Coeff], order: int | None = None):
        coeffs = _check_exact(list(coeffs))
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        del coeffs[order + 1:]
        coeffs += [0] * (order + 1 - len(coeffs))
        self.order = order
        self.c = coeffs

    # -- constructors ------------------------------------------------

    @classmethod
    def z(cls, order: int) -> "UnivariateSeries":
        return cls([0, 1], order)

    @classmethod
    def geometric(cls, a: Coeff, order: int) -> "UnivariateSeries":
        """1/(1 - a z) expanded to the requested order."""
        out = [1]
        for _ in range(order):
            out.append(out[-1] * a)
        return cls(out, order)

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            out = list(self.c)
            out[0] += other
            return UnivariateSeries(out, self.order)
        if not isinstance(other, UnivariateSeries):
            return NotImplemented  # defer to BivariateSeries.__radd__
        n = self._common(other)
        return UnivariateSeries(
            [self.c[i] + other.c[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self):
        return UnivariateSeries([-x for x in self.c], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UnivariateSeries([x * other for x in self.c], self.order)
        if not isinstance(other, UnivariateSeries):
            return NotImplemented  # defer to BivariateSeries.__rmul__
        n = self._common(other)
        return UnivariateSeries(_kernels.series_mul(self.c, other.c, n), n)

    __rmul__ = __mul__

    def inverse(self) -> "UnivariateSeries":
        """Multiplicative inverse; requires a unit constant term."""
        a0 = self.c[0]
        if a0 == 0:
            raise SeriesError("series with zero constant term has no inverse")
        # reciprocals of +-1 stay integers, anything else turns rational
        inv0 = a0 if a0 == 1 or a0 == -1 else Fraction(1, 1) / a0
        out = [inv0]
        for n in range(1, self.order + 1):
            s = 0
            for k in range(1, n + 1):
                s += self.c[k] * out[n - k]
            out.append(-s * inv0)
        return UnivariateSeries(out, self.order)

    def __truediv__(self, other: "UnivariateSeries"):
        return self * other.inverse()

    def __repr__(self):
        head = ", ".join(str(x) for x in self.c[:6])
        return "UnivariateSeries([%s%s], order=%d)" % (
            head, ", ..." if self.order > 5 else "", self.order)


def _tpoly_trim(p: list) -> list:
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def tpoly_sum(*polys: Sequence[Coeff]) -> list:
    """The sum of polynomials in t given as coefficient lists."""
    out = [0] * max(len(p) for p in polys)
    for p in polys:
        for j, x in enumerate(p):
            out[j] += x
    return _tpoly_trim(out)


def tpoly_suffix_sums(p: Sequence[Coeff]) -> list:
    """[sum(p[j:]) for j in range(len(p))], [0] for an empty p: the
    coefficients of the divided difference sum_j p_j (1 + t + ... + t^j).

    >>> tpoly_suffix_sums([1, 2, 3]), tpoly_suffix_sums([])
    ([6, 5, 3], [0])
    """
    return list(accumulate(reversed(p)))[::-1] or [0]


def tpoly_value(p: Sequence[Coeff], x: Coeff) -> Coeff:
    """The polynomial p in t, given as its coefficient list, at t = x,
    by Horner."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def tpoly_values(p: Sequence[Coeff], k: int) -> list:
    """The polynomial p in t at t = -k..k: p is split once as
    E(t^2) + t O(t^2), and p(+-x) = E(x^2) +- x O(x^2) costs one Horner
    pass over E and one over O, each half as long as p.

    >>> tpoly_values([1, 2, 3], 2)          # 1 + 2t + 3t^2
    [9, 2, 1, 6, 17]
    """
    even, odd = p[::2][::-1], p[1::2][::-1]
    plus, minus = [], []
    for x in range(1, k + 1):
        x2, e, o = x * x, 0, 0
        for c in even:
            e = e * x2 + c
        for c in odd:
            o = o * x2 + c
        plus.append(e + x * o)
        minus.append(e - x * o)
    return minus[::-1] + [p[0] if p else 0] + plus


def tpoly_interpolate(values: Sequence[int], start: int = 0) -> list:
    """The trimmed coefficient list of the integer polynomial p of
    degree below d+1 = len(values) with p(start + x) = values[x],
    x = 0..d.

    Newton's forward formula p(t) = sum_k Delta^k p(a) C(t - a, k),
    k = 0..d, a = start, is exact for deg p <= d.  The coefficients
    c_k = Delta^k p(a) / k! are integers when p has integer
    coefficients, for then so has q(u) = p(u + a), say a_m: by
    Stirling, u^m = sum_k S(m, k) u(u-1)...(u-k+1) =
    sum_k S(m, k) k! C(u, k), so q(u) = sum_k (k! sum_m a_m S(m, k))
    C(u, k), and as the C(u, k) are a basis, Delta^k p(a) =
    Delta^k q(0) = k! sum_m a_m S(m, k).  So each division is exact,
    and a nonzero remainder means the values are not those of an
    integer polynomial of degree <= d: that raises ArithmeticError.
    The c_k are the coefficients in the Newton basis at a, a+1, ...,
    p = c_0 + (t-a) (c_1 + (t-a-1) (c_2 + ... + (t-a-d+1) c_d)), which
    Horner expands from the inside out.  Both steps cost O(d^2).

    >>> tpoly_interpolate([1, 3, 7, 13])       # 1 + t + t^2
    [1, 1, 1]
    >>> tpoly_interpolate([1, 1, 3, 7], -1)    # the same, at -1, 0, 1, 2
    [1, 1, 1]

    and t(t-1)/2, whose Delta^2 p(0) is 1, is refused:

    >>> tpoly_interpolate([0, 0, 1])  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    ArithmeticError: values are not those of an integer polynomial: ...
    """
    cur = list(values)
    newton = cur[:1]
    for _ in range(1, len(cur)):
        cur = list(map(sub, cur[1:], cur))   # the next forward differences
        newton.append(cur[0])
    fact = 1
    for k in range(2, len(newton)):
        fact *= k
        q, r = divmod(newton[k], fact)
        if r:
            raise ArithmeticError(
                "values are not those of an integer polynomial: "
                "Delta^%d is not divisible by %d!" % (k, k))
        newton[k] = q
    out = newton[-1:] or [0]
    for k in range(len(newton) - 2, -1, -1):
        # out = out * (t - a) + c_k, a = start + k
        a = start + k
        out = [newton[k] - a * out[0],
               *map(sub, out, map(a.__mul__, out[1:])), out[-1]]
    return _tpoly_trim(out)


def row_product(a: Sequence[Sequence[Coeff]], b: Sequence[Sequence[Coeff]],
                n: int) -> list:
    """Row n (the z^n coefficient, a polynomial in t) of the product of
    two bivariate series given by their rows: sum_{i=0..n} a_i b_{n-i}.

    Both row lists must hold rows 0..n; later rows are not read, so an
    online caller can ask for row n as soon as both factors reach it.
    """
    pairs = [(a[i], b[n - i]) for i in range(n + 1)]
    acc = [0] * max(len(p) + len(q) - 1 for p, q in pairs)
    for p, q in pairs:
        _kernels.tpoly_mul_acc(acc, p, q)
    return _tpoly_trim(acc)


class OnlineQuotient:
    """The rows of w / prod_k (1 - c_k(t) z) for a bivariate series w
    whose rows arrive one at a time.

    Dividing by 1 - c(t) z is the recurrence out_n = w_n + c(t) out_{n-1},
    so each row costs one short t-polynomial product per factor, where a
    product with the expanded prefactor would cost n of them.  Only the
    last row of each factor's recurrence is kept; a caller that needs a
    quotient row later keeps it itself.
    """

    __slots__ = ("factors", "_last")

    def __init__(self, *factors: Sequence[Coeff]):
        self.factors = [list(c) for c in factors]
        self._last = [[0] for _ in self.factors]

    def push(self, row: Sequence[Coeff]) -> list:
        """Take row n of w; return row n of the quotient."""
        for k, c in enumerate(self.factors):
            last = self._last[k]
            acc = list(row) + [0] * (len(c) + len(last) - 1 - len(row))
            _kernels.tpoly_mul_acc(acc, c, last)
            row = self._last[k] = _tpoly_trim(acc)
        return row


class BivariateSeries(_Series):
    """A power series in z whose z^n coefficient is an exact polynomial
    in the catalytic variable t, kept as a trimmed row of coefficients.

    For the counting series the t-degree of the z^n coefficient is at
    most n; the representation does not force this (polynomial inputs
    such as a bare ``t`` are allowed), callers assert it where it is an
    invariant.
    """

    __slots__ = ()
    _ZERO, _ONE = [0], [1]

    def __init__(self, tpolys: Sequence[Sequence[Coeff]],
                 order: int | None = None):
        # copying every row keeps the shared [0] of zero() and shift()
        # out of the result
        rows = [_check_exact(list(row)) for row in tpolys]
        if order is None:
            order = len(rows) - 1
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        del rows[order + 1:]
        rows += [[0] for _ in range(order + 1 - len(rows))]
        self.order = order
        self.c = [_tpoly_trim(r or [0]) for r in rows]

    # -- constructors ------------------------------------------------

    @classmethod
    def geometric_tz(cls, order: int) -> "BivariateSeries":
        """1/(1 - t z) = sum t^n z^n."""
        return cls([[0] * n + [1] for n in range(order + 1)], order)

    @classmethod
    def from_univariate(cls, u: UnivariateSeries) -> "BivariateSeries":
        return cls([[x] for x in u.c], u.order)

    @classmethod
    def from_columns(cls, cols: Sequence[UnivariateSeries]
                     ) -> "BivariateSeries":
        """sum_j t^j cols[j], to the smallest order among the columns.

        >>> u = UnivariateSeries
        >>> BivariateSeries.from_columns([u([1, 0, 3]), u([0, 2, 0])]).c
        [[1], [0, 2], [3]]
        """
        order = min(col.order for col in cols)
        return cls([[col.c[n] for col in cols] for n in range(order + 1)],
                   order)

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            rows = [list(r) for r in self.c]
            rows[0][0] += other
            return BivariateSeries(rows, self.order)
        if isinstance(other, UnivariateSeries):
            other = BivariateSeries.from_univariate(other)
        n = self._common(other)
        return BivariateSeries(
            [tpoly_sum(self.c[i], other.c[i]) for i in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self):
        return BivariateSeries([[-x for x in r] for r in self.c], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariateSeries(
                [[x * other for x in r] for r in self.c], self.order)
        if isinstance(other, UnivariateSeries):
            other = BivariateSeries.from_univariate(other)
        n = self._common(other)
        return BivariateSeries(
            [row_product(self.c, other.c, m) for m in range(n + 1)], n)

    __rmul__ = __mul__

    def mul_tpoly(self, p: Sequence[Coeff]) -> "BivariateSeries":
        """Multiply by a polynomial in t (z-free)."""
        rows = []
        for r in self.c:
            acc = [0] * (len(r) + len(p) - 1)
            _kernels.tpoly_mul_acc(acc, r, list(p))
            rows.append(acc)
        return BivariateSeries(rows, self.order)

    def inverse(self) -> "BivariateSeries":
        """Inverse when the z^0 coefficient is a nonzero constant."""
        head = self.c[0]
        if len(head) != 1 or head[0] == 0:
            raise SeriesError(
                "bivariate inverse needs a constant unit z^0 coefficient")
        a0 = head[0]
        inv0 = a0 if a0 in (1, -1) else Fraction(1, 1) / a0
        # row n: -inv0 * sum_{k=1..n} c_k rows_{n-k}, a row of (c/z) * rows
        tail = self.c[1:]
        rows = [[inv0]]
        for n in range(1, self.order + 1):
            rows.append([-x * inv0 for x in row_product(tail, rows, n - 1)])
        return BivariateSeries(rows, self.order)

    # -- columns, substitutions and derivatives ----------------------

    def columns(self) -> list[UnivariateSeries]:
        """The t^j columns C_j(z) of f = sum_j t^j C_j, j = 0..deg_t f.

        >>> BivariateSeries([[1], [0, 2], [3]], 2).columns()[1]
        UnivariateSeries([0, 2, 0], order=2)
        """
        rows = self.c
        return [UnivariateSeries([r[j] if j < len(r) else 0 for r in rows],
                                 self.order)
                for j in range(max(len(r) for r in rows))]

    def subst_t(self, value) -> UnivariateSeries:
        """Substitute for t either the constant 1 or a univariate series
        with nonzero constant term; exact, no truncation loss.

        For a series, Horner runs over the columns C_j of f truncated to
        the smaller order: out = C_d, then out = out * value + C_j for
        j = d-1..0, so the substitution costs deg_t f products.
        """
        if value == 1:
            return UnivariateSeries([sum(r) for r in self.c], self.order)
        if not isinstance(value, UnivariateSeries):
            raise SeriesError("subst_t target must be 1 or a series")
        if value.c[0] == 0:
            raise SeriesError("subst_t series target needs nonzero "
                              "constant term")
        cols = self.truncate(self._common(value)).columns()
        out = cols.pop()
        for col in reversed(cols):
            out = out * value + col
        return out

    def deriv_t_at_1(self) -> UnivariateSeries:
        """The t-partial derivative evaluated at t = 1, termwise."""
        return UnivariateSeries(
            [sum(j * x for j, x in enumerate(r)) for r in self.c],
            self.order)

    def __repr__(self):
        return "BivariateSeries(order=%d)" % self.order


def check_counting(*series: BivariateSeries) -> None:
    """Raise ConsistencyError unless every coefficient is a nonnegative
    int and the t-degree of each z^n coefficient is at most n, as for a
    series counting permutations by length and a statistic."""
    for f in series:
        for n, row in enumerate(f.c):
            if len(row) - 1 > n:
                raise ConsistencyError(
                    "t-degree exceeds length at z^%d" % n)
            for x in row:
                if not isinstance(x, int) or x < 0:
                    raise ConsistencyError(
                        "non-integer or negative coefficient at z^%d: %r"
                        % (n, x))
