import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permclass import algebraic, class_b, cli, fixtures
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


def test_power_is_repeated_product():
    z, y = zy()
    for p in (z * y - 1, algebraic.m2_poly()):
        product = MultivariatePolynomial.constant(p.vars, 1)
        for k in range(7):
            assert p ** k == product
            product = product * p
        with pytest.raises(ValueError):
            p ** -1


def test_int_subtraction():
    z, y = zy()
    for p in (z * y - 1, algebraic.m2_poly()):
        assert p - 3 == p + (-3)
        assert 3 - p == -p + 3


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultivariatePolynomial(("z", "y"), {(0, 1): 1, (0, -1): -1})


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


@pytest.mark.parametrize("text, reason", [
    ("1:z 2:w", "term '2:w': variable 'w' is not in the header"),
    ("1:z 3*y", "term '3*y': no ':' after the coefficient"),
    ("1:y^2^3", "term '1:y^2^3': exponent '2^3' is not an integer"),
    ("1.5:y", "term '1.5:y': coefficient '1.5' is not an integer"),
    ("1:y -1:y^-1", "term '-1:y^-1': exponent '-1' is negative"),
])
def test_parse_names_the_malformed_term(text, reason):
    with pytest.raises(ValueError, match="^%s$" % re.escape(reason)):
        MultivariatePolynomial.parse(text, ("z", "y"))


def test_resultant_known_values():
    z, y = zy()
    assert resultant(y ** 2 - z, y - 3, "y").lift(("z", "y")) == 9 - z
    # shared root y = 2 makes the resultant vanish identically
    assert resultant((y - 2) * (y + 1), (y - 2) * (y - 5), "y").is_zero()
    # res_y(y^2 - z, z y - 1) = z^2 (1/z^2 - z) = 1 - z^3
    assert resultant(y ** 2 - z, z * y - 1, "y").lift(("z", "y")) == \
        1 - z ** 3
    # degree exactly at the bound n deg_z p + m deg_z q = 2
    assert resultant(z * y + z, z * y + 1, "y").lift(("z", "y")) == \
        z - z ** 2


def _random_z_poly(rng, degree):
    (z,) = MultivariatePolynomial.variables("z")
    return sum(rng.randint(-5, 5) * z ** k for k in range(degree)) \
        + rng.choice([-3, -1, 1, 2]) * z ** degree


def test_resultant_matches_product_formula():
    """res_y(c prod (y - a_i(z)), q) = c^n prod q(z, a_i(z)), with n the
    y-degree of q, computed by polynomial arithmetic alone.  q is dense
    below its leading coefficient, so the resultant reaches the degree
    bound, and that coefficient vanishes at an interpolation point,
    where the formal degree n must be kept."""
    rng = random.Random(19)
    (zz,) = MultivariatePolynomial.variables("z")
    z, y = zy()
    for _ in range(12):
        m, n, dq = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        c = _random_z_poly(rng, rng.randint(0, 1))
        roots = [_random_z_poly(rng, rng.randint(0, 2)) for _ in range(m)]
        q_terms = {(j, k): rng.randint(-4, 4) or 1
                   for j in range(dq + 1) for k in range(n)}
        # q's leading coefficient 2 z^(dq-1) (z - r) vanishes at z = r
        r = rng.randint(1, 3)
        q_terms[(dq, n)], q_terms[(dq - 1, n)] = 2, -2 * r
        q = MultivariatePolynomial(("z", "y"), q_terms)
        p = c.lift(("z", "y"))
        for a in roots:
            p = p * (y - a.lift(("z", "y")))
        expected = c ** n
        for a in roots:
            expected = expected * sum(
                (coef * zz ** j * a ** k for (j, k), coef in q_terms.items()),
                MultivariatePolynomial.zero(("z",)))
        assert resultant(p, q, "y") == expected


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


@pytest.mark.parametrize("p, q", [
    (MultivariatePolynomial.variable(("x", "z", "y"), "y"),
     MultivariatePolynomial.variable(("x", "z", "y"), "x")),
    (MultivariatePolynomial.variable(("y",), "y"),
     MultivariatePolynomial.constant(("y",), 2)),
    (MultivariatePolynomial.variable(("z", "y"), "y"),
     MultivariatePolynomial.variable(("y", "z"), "y")),
    (MultivariatePolynomial.variable(("z", "t"), "t"),
     MultivariatePolynomial.variable(("z", "t"), "z")),
], ids=["three_variables", "one_variable", "different_order", "no_y"])
def test_resultant_requires_two_shared_variables(p, q):
    with pytest.raises(ValueError, match="same two variables") as err:
        resultant(p, q, "y")
    assert "\n" not in str(err.value)


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


def test_eval_edge_semantics():
    z, y = zy()
    s = UnivariateSeries([1, 2, 3], 2)
    zero = MultivariatePolynomial.zero(("z", "y")).eval({"z": s, "y": s})
    assert zero == 0 and type(zero) is int
    const = MultivariatePolynomial.constant(("z", "y"), -7).eval(
        {"z": s, "y": Fraction(1, 2)})
    assert const == -7 and type(const) is int
    with pytest.raises(KeyError) as missing:
        (z * y).eval({"z": s})
    assert missing.value.args == ("no value for variable 'y'",)


# -- eval against a term-by-term reference in plain lists ---------------

def _ref_mul(a: list, b: list) -> list:
    """Truncated Cauchy product of two coefficient lists, cut to the
    shorter length."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _ref_eval(terms: dict, values: list):
    """sum c * prod values[i]^e[i], one term and one factor at a time.
    A value is a scalar or a list of series coefficients; the result is
    a list, cut to the shortest series that occurs, or a scalar when no
    series occurs."""
    used = [v for i, v in enumerate(values)
            if isinstance(v, list) and any(e[i] for e in terms)]
    n = min(map(len, used)) if used else 0
    total = [0] * n if used else 0
    for e, c in terms.items():
        term = [c] + [0] * (n - 1) if used else c
        for v, k in zip(values, e):
            for _ in range(k):
                if isinstance(v, list):
                    term = _ref_mul(term, v)
                elif used:
                    term = [x * v for x in term]
                else:
                    term = term * v
        total = [x + y for x, y in zip(total, term)] if used else total + term
    return total


_scalar = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
_series = (
    st.builds(lambda c, zero_head: [0] + c[1:] if zero_head else c,
              st.lists(_scalar, min_size=1, max_size=7), st.booleans())
    | st.builds(lambda k, n: [0] * k + [1] + [0] * n,
                st.integers(0, 3), st.integers(0, 3)))


@st.composite
def eval_cases(draw):
    names = ("z", "y", "t")[:draw(st.integers(1, 3))]
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 40) for _ in names]),
        st.integers(-5, 5).filter(bool), max_size=6))
    values = [draw(_scalar | _series) for _ in names]
    return MultivariatePolynomial(names, terms), values


@settings(deadline=None)
@given(eval_cases())
def test_eval_matches_term_by_term_reference(case):
    poly, values = case
    got = poly.eval({
        name: UnivariateSeries(v) if isinstance(v, list) else v
        for name, v in zip(poly.vars, values)})
    want = _ref_eval(poly.terms, values)
    if isinstance(want, list):
        assert isinstance(got, UnivariateSeries)
        assert (got.order, got.c) == (len(want) - 1, want)
    else:
        assert got == want


# -- the number and size of the series products eval forms -------------

def test_degree8_check_is_horner_in_y(series_products):
    """Only the deg_y = 8 Horner steps in y multiply two series with two
    or more nonzero coefficients; the steps in z multiply by a power of
    z, which has one."""
    f1 = class_b.iterate(200).f.subst_t(1)
    poly = fixtures.degree8_min_poly()
    del series_products[:]
    assert algebraic.verify_annihilation(
        poly, {"z": UnivariateSeries.z(200), "y": f1}) == 201
    dense = sum(1 for a, b, _ in series_products
                if sum(map(bool, a)) >= 2 and sum(map(bool, b)) >= 2)
    assert dense <= poly.degree("y") == 8


def _kernel_check_products(series_products, capsys, order):
    """The coefficient products ``kernel-check --order order`` forms:
    nonzero a[i] times nonzero b[j], i + j <= the product's order."""
    assert cli.main(["kernel-check", "--order", str(order)]) == 0
    assert capsys.readouterr().out.endswith("kernel check: PASS\n")
    work = 0
    for a, b, n in series_products:
        nonzero_b = [j for j, x in enumerate(b) if x]
        work += sum(1 for i, x in enumerate(a) if x
                    for j in nonzero_b if i + j <= n)
    return work


def test_kernel_check_40_coefficient_products(series_products, capsys):
    """The kernel check at order 40 forms at most 15,000 coefficient
    products in all (154,088 with one product per variable per term,
    23,385 with f(z, t1) substituted at the kernel root)."""
    assert _kernel_check_products(series_products, capsys, 40) <= 15000


def test_kernel_check_200_coefficient_products(series_products, capsys):
    """At order 200 at most 300,000 (1,575,047 with f(z, t1)
    substituted at the kernel root, most of them in that substitution)."""
    assert _kernel_check_products(series_products, capsys, 200) <= 300000


def test_constructor_rejects_wrong_arity_and_non_integers():
    with pytest.raises(ValueError, match="^exponent arity mismatch$"):
        MultivariatePolynomial(("z",), {(1, 2): 1})
    with pytest.raises(ValueError, match="^coefficients must be integers$"):
        MultivariatePolynomial(("z",), {(1,): Fraction(1, 2)})


small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.one_of(st.just(0), st.integers(-10 ** 12, 10 ** 12)),
    max_size=6).map(lambda terms: MultivariatePolynomial("xyz", terms))


@given(small_polys, small_polys, st.integers(-3, 3))
def test_arithmetic_keeps_nonzero_int_terms(p, q, k):
    """+, -, *, unary - and **2 build their terms without the public
    constructor's checks: each result already holds only nonzero int
    coefficients under exponent tuples of arity 3, as the constructor
    would give it, and takes the values of the operands' arithmetic."""
    point = {"x": 2, "y": -3, "z": 5}
    pv, qv = p.eval(point), q.eval(point)
    for r, value in ((p + q, pv + qv), (p - q, pv - qv), (p * q, pv * qv),
                     (-p, -pv), (p ** 2, pv ** 2), (p * k, pv * k),
                     (p + k, pv + k)):
        assert all(type(c) is int and c for c in r.terms.values())
        assert all(len(e) == 3 for e in r.terms)
        assert r == MultivariatePolynomial(r.vars, r.terms)
        assert r.eval(point) == value


def test_exact_div_by_zero_rejected():
    z, y = zy()
    with pytest.raises(ZeroDivisionError,
                       match="^polynomial division by zero$"):
        (z * y).exact_div(MultivariatePolynomial.zero(("z", "y")))


def test_newton_series_root_needs_z_and_t():
    z, y = zy()
    with pytest.raises(ValueError,
                       match="^polynomial must be in variables z and t$"):
        newton_series_root(1 - y + z, Fraction(1), 5)
