import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from permclass.algebraic import m1_poly
from permclass.polynomials import (MultivariatePolynomial,
                                   NotDivisibleError, RamificationError,
                                   newton_series_root, resultant)
from permclass.series import UnivariateSeries


def zy():
    return MultivariatePolynomial.variables("z", "y")


def test_arithmetic_basics():
    z, y = zy()
    p = (z + y) * (z - y)
    assert p == z ** 2 - y ** 2
    assert (p - p).is_zero()
    assert p.degree("z") == 2 and p.degree("y") == 2
    assert p.total_degree() == 2
    assert (z * y).coefficient_in("y", 1) == \
        MultivariatePolynomial.variable(("z",), "z")


def test_exact_division_and_failure():
    z, y = zy()
    p = (2 * z + 3 * y) * (z ** 2 - y + 5)
    assert p.exact_div(2 * z + 3 * y) == z ** 2 - y + 5
    with pytest.raises(NotDivisibleError):
        (p + 1).exact_div(2 * z + 3 * y)
    with pytest.raises(NotDivisibleError):
        (2 * z).exact_div(4 * z)  # coefficient not divisible over Z


small_poly = st.builds(
    lambda terms: MultivariatePolynomial(
        ("z", "y"), {(i, j): c for (i, j), c in terms.items()}),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    st.integers(-5, 5), max_size=5))


@given(small_poly, small_poly)
def test_exact_division_round_trip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_primitive_normalization():
    z, y = zy()
    assert (-2 * y + 4 * z).primitive() == 2 * z - y
    assert (6 * z * y - 9 * y).primitive() == 2 * z * y - 3 * y


def test_serialize_parse_round_trip():
    z, y = zy()
    p = 3 * z ** 2 * y - 7 * y + 5
    assert MultivariatePolynomial.parse(p.serialize(), ("z", "y")) == p
    assert MultivariatePolynomial.parse("0:1", ("z", "y")).is_zero()


def test_resultant_known_values():
    z, y = zy()
    assert resultant(y ** 2 - z, y - 3, "y").lift(("z", "y")) == 9 - z
    # shared root y = 2 makes the resultant vanish identically
    assert resultant((y - 2) * (y + 1), (y - 2) * (y - 5), "y").is_zero()
    # res_y(y^2 - z, z y - 1) = z^2 (1/z^2 - z) = 1 - z^3
    assert resultant(y ** 2 - z, z * y - 1, "y").lift(("z", "y")) == \
        1 - z ** 3


def test_resultant_vanishes_iff_common_root_numerically():
    rng = random.Random(7)
    z, y = zy()
    for _ in range(20):
        a = rng.randint(-4, 4)
        b = rng.randint(1, 3)
        c = rng.randint(4, 6)
        p = (y - a) * (y + b) + z * y
        q = (y - a) * (y - c) + z * y ** 2
        r = resultant(p, q, "y")
        # at z = 0 both share the root y = a, so the resultant vanishes
        assert r.eval({"z": Fraction(0)}) == 0
        # with the shared factor removed, generically it does not
        r2 = resultant(y + b, y - c, "y")
        assert r2.eval({"z": Fraction(0)}) != 0


def test_resultant_requires_positive_degree():
    z, y = zy()
    with pytest.raises(ValueError):
        resultant(z + 1, z - 1, "y")


def test_newton_sqrt_one_plus_z():
    z, t = MultivariatePolynomial.variables("z", "t")
    p = t ** 2 - (1 + z)
    root = newton_series_root(p, Fraction(1), 16)
    assert root.c[:4] == [1, Fraction(1, 2), Fraction(-1, 8),
                          Fraction(1, 16)]
    residual = p.eval({"z": UnivariateSeries.z(16), "t": root})
    assert residual.valuation() == 17


# t1(z) of the class-B kernel to order 40, as the Newton iteration gave
# it when it ran in Fractions (every denominator 1)
KERNEL_ROOT_T1 = [
    1, 0, -1, -2, -2, 1, 9, 20, 20, -24, -150, -327, -293, 599, 3097,
    6452, 4854, -15878, -71252, -140112, -81328, 437346, 1746254, 3214989,
    1223971, -12345295, -44552833, -76242173, -11292089, 354175849,
    1167638037, 1842585992, -233903034, -10273377388, -31169512310,
    -44916262506, 20666940330, 300249982156, 842620298312, 1094651876068,
    -959993556112]


def test_newton_integral_start_stays_in_ints():
    """p_t(0, 1) = -1 for m1, so an integral start gives an int root."""
    root = newton_series_root(m1_poly(), Fraction(1), 40)
    assert all(type(x) is int for x in root.c)
    assert root.c == KERNEL_ROOT_T1
    residual = m1_poly().eval({"z": UnivariateSeries.z(40), "t": root})
    assert residual.valuation() == 41


def test_newton_rejects_ramified_branch():
    z, t = MultivariatePolynomial.variables("z", "t")
    with pytest.raises(RamificationError):
        newton_series_root(t ** 2 - z, Fraction(0), 5)


def test_newton_rejects_non_root():
    z, t = MultivariatePolynomial.variables("z", "t")
    with pytest.raises(ValueError):
        newton_series_root(t ** 2 - (1 + z), Fraction(2), 5)


def test_eval_with_series_assignment():
    z, y = zy()
    catalan = UnivariateSeries(
        [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796], 10)
    p = z * y ** 2 - y + 1
    assert p.eval({"z": UnivariateSeries.z(10), "y": catalan}).valuation() \
        == 11


def test_lift_and_partial_eval():
    z, y = zy()
    p = z * y + y ** 2
    lifted = p.lift(("w", "z", "y"))
    assert lifted.degree("w") == 0
    assert lifted.coefficient_in("w", 0) == p
