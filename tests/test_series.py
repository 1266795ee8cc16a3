
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from permclass.series import (BivariateSeries, ConsistencyError,
                              OnlineQuotient, SeriesError, UnivariateSeries,
                              check_counting, row_product, tpoly_interpolate,
                              tpoly_suffix_sums, tpoly_values)

coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=1,
                  max_size=7)


def useries(c):
    return UnivariateSeries(c, len(c) - 1)


@given(coeffs, coeffs, coeffs)
def test_univariate_ring_axioms(a, b, c):
    order = min(len(a), len(b), len(c)) - 1
    A, B, C = useries(a), useries(b), useries(c)
    assert (A + B).truncate(order) == (B + A).truncate(order)
    assert ((A + B) + C).truncate(order) == (A + (B + C)).truncate(order)
    assert (A * B).truncate(order) == (B * A).truncate(order)
    assert ((A * B) * C).truncate(order) == (A * (B * C)).truncate(order)
    assert (A * (B + C)).truncate(order) == \
        (A * B + A * C).truncate(order)


@given(coeffs)
def test_univariate_inverse_property(a):
    a = [1] + a  # force unit constant term
    A = useries(a)
    prod = A * A.inverse()
    assert prod.c[0] == 1 and all(x == 0 for x in prod.c[1:])


def test_geometric_series():
    g = UnivariateSeries.geometric(2, 5)
    assert g.c == [1, 2, 4, 8, 16, 32]
    one_minus = UnivariateSeries([1, -2], 5)
    assert (g * one_minus).c == [1, 0, 0, 0, 0, 0]


def test_truncation_to_minimum_order():
    a = UnivariateSeries([1, 2, 3], 2)
    b = UnivariateSeries([1, 1], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1
    with pytest.raises(SeriesError):
        a.truncate(5)


def test_inverse_requires_unit():
    with pytest.raises(SeriesError):
        UnivariateSeries([0, 1], 3).inverse()
    with pytest.raises(SeriesError):
        BivariateSeries([[0, 1]], 3).inverse()


def test_integer_coefficients_preserved():
    """Inverting a series with constant term +-1 must stay in integers
    (the functional-equation iteration depends on this)."""
    inv = UnivariateSeries([1, -3, 2], 6).inverse()
    assert all(isinstance(x, int) for x in inv.c)


def test_bivariate_geometric_tz():
    g = BivariateSeries.geometric_tz(3)
    assert g.c == [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]]


def test_bivariate_mul_against_expansion():
    # (1 + tz)(1 - tz) = 1 - t^2 z^2
    a = BivariateSeries([[1], [0, 1]], 3)
    b = BivariateSeries([[1], [0, -1]], 3)
    assert (a * b) == BivariateSeries([[1], [0], [0, 0, -1]], 3)


def test_bivariate_univariate_and_scalar_branches():
    f = BivariateSeries.geometric_tz(4)
    u = UnivariateSeries.geometric(1, 4)
    left = u * f
    right = f * u
    assert left == right
    assert (f * 3).c[2] == [0, 0, 3]
    assert (3 * f) == f * 3


tpolys = st.lists(st.integers(min_value=-9, max_value=9), min_size=1,
                 max_size=5)
brows = st.lists(tpolys, min_size=1, max_size=6)


def naive_product(a, b):
    """{(z-power, t-power): coefficient} of the full product."""
    out = {}
    for i, p in enumerate(a):
        for j, x in enumerate(p):
            for k, q in enumerate(b):
                for l, y in enumerate(q):
                    key = (i + k, j + l)
                    out[key] = out.get(key, 0) + x * y
    return out


@given(brows, brows)
def test_row_product_matches_naive_product(a, b):
    full = naive_product(a, b)
    for n in range(min(len(a), len(b))):
        row = row_product(a, b, n)
        assert len(row) == 1 or row[-1] != 0
        want = [full.get((n, j), 0) for j in range(max(len(row), 10))]
        assert row + [0] * (len(want) - len(row)) == want


@given(brows)
def test_online_quotient_matches_inverse(w):
    order = len(w) - 1
    factors = ([1], [2], [0, 1], [1, 1])
    quot = OnlineQuotient(*factors)
    rows = [quot.push(r) for r in w]
    want = BivariateSeries(w, order)
    for c in factors:
        want = want * BivariateSeries([[1], [-x for x in c]], order).inverse()
    assert BivariateSeries(rows, order) == want


def test_bivariate_inverse():
    d = BivariateSeries([[1], [-1, -1]], 5)  # 1 - (1+t) z
    prod = d * d.inverse()
    assert prod == BivariateSeries.one(5)


def test_subst_t_one_and_series():
    f = BivariateSeries([[1], [0, 2], [1, 0, 3]], 2)
    at1 = f.subst_t(1)
    assert at1.c == [1, 2, 4]
    recip = UnivariateSeries.geometric(1, 2)  # 1/(1-z), constant term 1
    sub = f.subst_t(recip)
    # z^0: 1; z^1: 2*(1/(1-z)) -> 2 + 2z; z^2: 1 + 3*(1/(1-z))^2 -> 4 at z^2
    assert sub.c == [1, 2, 1 + 2 + 3]
    with pytest.raises(SeriesError):
        f.subst_t(UnivariateSeries.z(2))


exact = st.one_of(st.integers(min_value=-9, max_value=9),
                  st.fractions(min_value=-4, max_value=4, max_denominator=6))
# rows of any t-degree (also above their z-power), trailing zeros allowed
exact_rows = st.lists(st.lists(exact, min_size=1, max_size=9), min_size=1,
                      max_size=7)
targets = st.tuples(exact.filter(lambda x: x != 0),
                    st.lists(exact, max_size=7))


def subst_t_per_row(rows, order, value, value_order):
    """sum_m z^m row_m(value) to order min(order, value_order), with
    Horner in t on each row over plain truncated coefficient lists."""
    n = min(order, value_order)
    rows = (rows + [[0]] * (n + 1))[:n + 1]
    v = (value + [0] * (n + 1))[:n + 1]
    out = [0] * (n + 1)
    for m, row in enumerate(rows):
        pv = [row[-1]] + [0] * n
        for x in reversed(row[:-1]):
            pv = [sum(pv[i] * v[k - i] for i in range(k + 1))
                  for k in range(n + 1)]
            pv[0] += x
        for k in range(n + 1 - m):
            out[m + k] += pv[k]
    return out


@given(exact_rows, st.integers(min_value=0, max_value=7), targets,
       st.integers(min_value=0, max_value=7))
@example(rows=[[0, 0, 1], [Fraction(1, 2), 0, 0, 0]], order=3,
         target=(3, [-1]), value_order=2)
def test_subst_t_matches_per_row_horner(rows, order, target, value_order):
    value = [target[0]] + target[1]
    got = BivariateSeries(rows, order).subst_t(
        UnivariateSeries(value, value_order))
    assert got.order == min(order, value_order)
    assert got.c == subst_t_per_row(rows, order, value, value_order)


def test_deriv_t_at_1():
    f = BivariateSeries([[1], [0, 2], [1, 0, 3]], 2)
    assert f.deriv_t_at_1().c == [0, 2, 6]


def test_exact_rational_coefficients_rejected():
    with pytest.raises(SeriesError):
        UnivariateSeries([0.5], 0)
    # the error names the first coefficient that is not exact
    for make in (lambda: UnivariateSeries([1, 2, 0.5, 0.25]),
                 lambda: BivariateSeries([[0.5]]),
                 lambda: BivariateSeries([[1], [2], [1, 2, 0.5, 0.25]])):
        with pytest.raises(SeriesError, match="got 0.5$"):
            make()


@given(exact_rows, st.integers(min_value=0, max_value=3))
def test_rows_with_trailing_zeros_are_canonical(rows, pad):
    order = len(rows) - 1
    padded = [row + [0] * pad for row in rows]
    f, g = BivariateSeries(rows, order), BivariateSeries(padded, order)
    assert f == g and f.c == g.c
    assert all(len(r) == 1 or r[-1] != 0 for r in g.c)
    zero_rows = [[0] * (pad + 1)] * (order + 1)
    assert BivariateSeries(zero_rows, order).valuation() == order + 1
    assert g.valuation() == next(
        (n for n, r in enumerate(rows) if any(r)), order + 1)


@given(exact_rows)
def test_columns_round_trip(rows):
    f = BivariateSeries(rows)
    cols = f.columns()
    assert all(col.order == f.order for col in cols)
    assert BivariateSeries.from_columns(cols) == f


big_ints = st.integers(min_value=-10 ** 30, max_value=10 ** 30)


@given(st.lists(big_ints, max_size=41), st.integers(min_value=0,
                                                    max_value=3),
       st.integers(min_value=-25, max_value=0))
@example(coeffs=[], extra=0, start=0)          # the zero polynomial, one point
@example(coeffs=[0, 0, 0], extra=0, start=0)   # the zero polynomial, 3 points
@example(coeffs=[-7], extra=0, start=0)        # degree 0, one point
@example(coeffs=[1, 1, 1], extra=0, start=-1)  # points -1..1, as in class A
def test_tpoly_interpolate_recovers_coefficients(coeffs, extra, start):
    """Values at start..start+d of an integer polynomial of degree <= d,
    computed here term by term, interpolate back to its trimmed
    coefficients."""
    d = max(len(coeffs) - 1, 0) + extra
    values = [sum(c * x ** k for k, c in enumerate(coeffs))
              for x in range(start, start + d + 1)]
    want = list(coeffs) or [0]
    while len(want) > 1 and want[-1] == 0:
        want.pop()
    assert tpoly_interpolate(values, start) == want


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("extra", [0, 2])
def test_tpoly_interpolate_rejects_non_integer_polynomials(k, extra):
    """C(t - start, k), integer-valued but with non-integer
    coefficients, at start..start+k+extra: Delta^k p(start) = 1 is not
    divisible by k!.  k = 2, start = 0 gives [0, 0, 1], t(t-1)/2; the
    last start puts every point at or below 0."""
    values = [math.comb(x, k) for x in range(k + extra + 1)]
    for start in (0, -1, -k - extra):
        with pytest.raises(ArithmeticError):
            tpoly_interpolate(values, start)


@given(st.lists(big_ints, max_size=41), st.integers(min_value=0,
                                                    max_value=20))
@example(coeffs=[], k=3)              # the empty list
@example(coeffs=[-7], k=5)            # degree 0
@example(coeffs=[1, 2, 3], k=2)       # odd length
@example(coeffs=[1, 2, 3, 4], k=2)    # even length
@example(coeffs=[10 ** 30, -10 ** 30], k=0)
def test_tpoly_values_are_plain_evaluations(coeffs, k):
    """The values at -k..k are those of sum(c x^j) at each x."""
    assert tpoly_values(coeffs, k) == [
        sum(c * x ** j for j, c in enumerate(coeffs))
        for x in range(-k, k + 1)]


@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                max_size=12).map(lambda p: p + [0] * (len(p) % 3)))
@example(p=[])                        # the empty list
@example(p=[0])
@example(p=[5, 0, 0])                 # trailing zeros are kept
def test_tpoly_suffix_sums_are_plain_sums(p):
    """The suffix sums, one per coefficient, with trailing zeros kept;
    [0] for the empty list."""
    assert tpoly_suffix_sums(p) == \
        ([sum(p[j:]) for j in range(len(p))] or [0])


@pytest.mark.parametrize("cls", [UnivariateSeries, BivariateSeries])
def test_negative_truncation_order_rejected(cls):
    with pytest.raises(SeriesError, match="^truncation order must be >= 0$"):
        cls([], -1)


@pytest.mark.parametrize("target", [2, Fraction(1, 2), [1, 1]])
def test_subst_t_target_neither_one_nor_series_rejected(target):
    f = BivariateSeries([[1], [0, 1]], 1)
    with pytest.raises(SeriesError,
                       match="^subst_t target must be 1 or a series$"):
        f.subst_t(target)


def test_check_counting_rejects_t_degree_above_length():
    """Row z^1 = t^2 has a statistic value above the length 1."""
    with pytest.raises(ConsistencyError,
                       match="^t-degree exceeds length at z\\^1$"):
        check_counting(BivariateSeries([[1], [0, 0, 1]], 1))
