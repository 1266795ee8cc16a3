from fractions import Fraction
from math import comb

import pytest

from permclass import algebraic, class_a, class_b, fixtures
from permclass.polynomials import MultivariatePolynomial
from permclass.series import UnivariateSeries


def catalan_series(order):
    return UnivariateSeries(
        [comb(2 * n, n) // (n + 1) for n in range(order + 1)], order)


def test_guess_catalan():
    guess = algebraic.guess_min_poly(catalan_series(30), 2, 1)
    z, y = MultivariatePolynomial.variables("z", "y")
    assert guess.poly in (z * y ** 2 - y + 1, -(z * y ** 2 - y + 1))
    assert guess.dy == 2 and guess.dz == 1
    assert guess.confidence_margin >= 10


def test_guess_requires_enough_terms():
    with pytest.raises(algebraic.InsufficientDataError):
        algebraic.guess_min_poly(catalan_series(10), 2, 3)


def test_guess_returns_none_for_wrong_shape():
    """The class-A series is not rational, so no (1,1) guess exists."""
    f1 = class_a.iterate(20).f.subst_t(1)
    assert algebraic.guess_min_poly(f1, 1, 1) is None


def test_guess_stable_under_more_terms(state_a60):
    f1 = state_a60.f.subst_t(1)
    g40 = algebraic.guess_min_poly(f1.truncate(40), 3, 4)
    g50 = algebraic.guess_min_poly(f1.truncate(50), 3, 4)
    assert g40.poly == g50.poly


def test_guess_verify_round_trip(state_a60):
    f1 = state_a60.f.subst_t(1).truncate(40)
    guess = algebraic.guess_min_poly(f1, 3, 4)
    residual = algebraic.verify_annihilation(
        guess.poly, {"z": UnivariateSeries.z(40), "y": f1}, 40)
    assert residual > 40


def test_verify_annihilation_mutation_detected(state_a60):
    f1 = state_a60.f.subst_t(1).truncate(40)
    eq5 = fixtures.eq5_min_poly()
    assign = {"z": UnivariateSeries.z(40), "y": f1}
    assert algebraic.verify_annihilation(eq5, assign, 40) == 41
    for expo in list(eq5.terms)[:4]:
        terms = dict(eq5.terms)
        terms[expo] += 1
        mutated = MultivariatePolynomial(eq5.vars, terms)
        assert algebraic.verify_annihilation(mutated, assign, 40) <= 10


def test_kernel_decomposition_identity():
    kd = algebraic.kernel_extract()
    y0 = MultivariatePolynomial.variable(kd.P.vars, "y0")
    k_full = kd.P.coefficient_in("y0", 1).lift(kd.P.vars)
    assert kd.P == k_full * y0 + kd.R
    assert kd.cofactor.total_degree() == 0
    for name in ("y0", "y1", "y2", "y3"):
        assert kd.P.degree(name) == 1
    assert kd.K == fixtures.kernel_k() * int(kd.cofactor.terms.get((0, 0), 1))


def test_kernel_fixture_matches_factored_form():
    z, t = MultivariatePolynomial.variables("z", "t")
    assert fixtures.kernel_k() == \
        (1 - 2 * z) * (1 - z) * fixtures.kernel_m1() * fixtures.kernel_m2()
    assert algebraic.m1_poly() == fixtures.kernel_m1()
    assert algebraic.m2_poly() == fixtures.kernel_m2()


def test_m1_root_at_origin():
    # m1(0, t) = 1 - t, so the unramified branch starts at t = 1
    assert algebraic.m1_poly().eval({"z": 0, "t": Fraction(1)}) == 0


def test_kernel_root_check_small():
    st = class_b.iterate(20)
    report = algebraic.kernel_root_check(20, st)
    assert report["m1_residual_order"] > 20
    assert report["kernel_residual_order"] > 20
    assert report["r_residual_order"] > 20
    assert report["p_residual_order"] > 20


def test_growth_estimate_geometric():
    seq = [2 ** n for n in range(15)]
    assert algebraic.growth_estimate(seq, "ratio") == 2.0
    assert algebraic.growth_estimate(seq, "extrapolated") == 2.0
    with pytest.raises(ValueError):
        algebraic.growth_estimate([1, 2, 3], "ratio")
    with pytest.raises(ValueError):
        algebraic.growth_estimate(seq, "bogus")


def test_growth_exact_geometric():
    z, y = MultivariatePolynomial.variables("z", "y")
    assert algebraic.growth_exact(y * (1 - z) - 1) == [1.0]


def test_growth_exact_quartic_direct():
    roots = algebraic.growth_exact(fixtures.growth_quartic())
    assert any(abs(r - 5.6317595) < 1e-5 for r in roots)


def test_class_a_exact_growth(state_a60):
    eq5 = fixtures.eq5_min_poly()
    candidates = algebraic.growth_exact(eq5)
    # 5/32 is a double root of the discriminant: polishing must run on
    # the squarefree part to reach float precision there
    assert any(abs(c - 5 / 32) < 1e-12 for c in candidates)
    disc = algebraic.discriminant_in_z(eq5)
    assert disc.eval({"z": Fraction(5, 32)}) == 0
    growth = algebraic.reported_growth(eq5, class_a.counts(state_a60))
    assert abs(growth - 32 / 5) < 1e-12
