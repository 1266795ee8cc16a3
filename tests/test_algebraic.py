import hashlib
from fractions import Fraction
from math import comb, isqrt, lcm

import pytest
from hypothesis import given, strategies as st

from permclass import algebraic, class_a, class_b, fixtures
from permclass.polynomials import MultivariatePolynomial, NotDivisibleError
from permclass.series import BivariateSeries, UnivariateSeries


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


def test_guess_loose_bounds_give_tight_degrees(state_a60):
    """Bounds (5, 6) above eq5's (3, 4) find eq5 and report its degrees
    and the margin at the tight bounds."""
    f1 = state_a60.f.subst_t(1)
    loose = algebraic.guess_min_poly(f1, 5, 6)
    tight = algebraic.guess_min_poly(f1, 3, 4)
    assert loose == tight
    assert (loose.dy, loose.dz, loose.confidence_margin) == (3, 4, 41)


def test_guess_verify_round_trip(state_a60):
    f1 = state_a60.f.subst_t(1).truncate(40)
    guess = algebraic.guess_min_poly(f1, 3, 4)
    residual = algebraic.verify_annihilation(
        guess.poly, {"z": UnivariateSeries.z(40), "y": f1})
    assert residual > 40


def _reference_kernel_vector(matrix, ncols):
    """The first kernel vector by Gauss-Jordan over Fraction, pivoting on
    the first nonzero entry in column order: the first free column gets
    1, each pivot column minus its reduced entry there.  Scaled by the
    lcm of the denominators; None at full column rank."""
    m = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            vec = [Fraction(0)] * ncols
            vec[c] = Fraction(1)
            for pr, pc in enumerate(pivots):
                vec[pc] = -m[pr][c]
            den = lcm(*(x.denominator for x in vec))
            return [int(x * den) for x in vec]
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return None


def _rows_orthogonal_to(v, us):
    """(v.v) u - (u.v) v for each u: integer rows with v in the kernel."""
    vv = sum(x * x for x in v)
    out = []
    for u in us:
        uv = sum(a * b for a, b in zip(u, v))
        out.append([vv * a - uv * b for a, b in zip(u, v)])
    return out


@st.composite
def kernel_cases(draw):
    ncols = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    us = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                       min_size=1, max_size=7))
    v = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    if any(v) and draw(st.booleans()):
        return _rows_orthogonal_to(v, us), ncols
    return us, ncols


@given(kernel_cases())
def test_kernel_vector_matches_fraction_gauss_jordan(case):
    matrix, ncols = case
    assert (algebraic._kernel_vector(matrix, ncols)
            == _reference_kernel_vector(matrix, ncols))


def test_kernel_vector_drops_an_unlucky_prime(monkeypatch):
    """Column 0 is a multiple of the first prime, so mod that prime the
    first free column is 0, not 2; its vector e0 reconstructs but fails
    the exact check, and the second prime's larger free column wins.
    With column 0 a multiple of the second prime and a kernel entry of
    2^70, that prime comes between the first, third and fourth, whose
    CRT it must not join.  Each unlucky prime costs one prime, no more
    (the cap is set to the primes needed)."""
    a, b = (1, 2, 0, 1), (0, 1, 1, 3)
    for p, k, cap in zip(algebraic._PRIMES, (1, 2 ** 70), (2, 4)):
        monkeypatch.setattr(algebraic, "MAX_PRIMES", cap)
        matrix = [[p * x, y, k * p * x + y] for x, y in zip(a, b)]
        assert algebraic._kernel_vector_mod(matrix, 3, p) == (0, [1, 0, 0])
        assert algebraic._kernel_vector(matrix, 3) == [-k, -1, 1]
        assert _reference_kernel_vector(matrix, 3) == [-k, -1, 1]


def test_kernel_vector_with_large_entries_needs_crt(monkeypatch):
    """Entries above 2^70 reconstruct only from a modulus above 2^141,
    that is from three 62-bit primes combined by CRT."""
    v = [2 ** 71 + 1, -(2 ** 70 + 3), 5, 1]
    matrix = _rows_orthogonal_to(v, [(1, 0, 2, 0), (0, 1, 0, 3),
                                     (2, 1, 1, 1), (1, -1, 0, 4)])
    assert _reference_kernel_vector(matrix, 4) == v
    assert algebraic._kernel_vector(matrix, 4) == v
    monkeypatch.setattr(algebraic, "MAX_PRIMES", 2)
    with pytest.raises(algebraic.PrimeBudgetError) as info:
        algebraic._kernel_vector(matrix, 4)
    assert info.value.primes == 2


def test_kernel_vector_full_rank_is_none():
    matrix = [[1, 2], [3, 4], [5, 6]]
    assert algebraic._kernel_vector(matrix, 2) is None
    assert _reference_kernel_vector(matrix, 2) is None


def test_verify_annihilation_mutation_detected(state_a60):
    f1 = state_a60.f.subst_t(1).truncate(40)
    eq5 = fixtures.eq5_min_poly()
    assign = {"z": UnivariateSeries.z(40), "y": f1}
    assert algebraic.verify_annihilation(eq5, assign) == 41
    for expo in list(eq5.terms)[:4]:
        terms = dict(eq5.terms)
        terms[expo] += 1
        mutated = MultivariatePolynomial(eq5.vars, terms)
        assert algebraic.verify_annihilation(mutated, assign) <= 10


@pytest.mark.parametrize("coeff", [0, 3])
def test_verify_annihilation_rejects_values_that_are_not_series(coeff):
    """A constant polynomial, or the zero polynomial, evaluates to a
    number with no truncation order to check against."""
    poly = MultivariatePolynomial(("z", "y"), {(0, 0): coeff})
    assign = {"z": UnivariateSeries.z(5), "y": UnivariateSeries([1], 5)}
    with pytest.raises(ValueError, match="is %d, not a series" % coeff):
        algebraic.verify_annihilation(poly, assign)


def test_reconstruct_without_small_lift_is_none():
    """Just above sqrt(p/2), a residue is no r/s with |r|, |s| within
    that bound, so the vector has no reconstruction."""
    p = algebraic._PRIMES[0]
    assert algebraic._reconstruct([1, isqrt(p // 2) + 1], p) is None


def test_z_coeffs_rejects_two_variables():
    z, y = MultivariatePolynomial.variables("z", "y")
    with pytest.raises(ValueError, match="^expected a polynomial in one "
                                         "variable, got z, y$"):
        algebraic._z_coeffs(z * y + 1)


def test_kernel_decomposition_identity():
    kd = algebraic.kernel_extract()
    y0 = MultivariatePolynomial.variable(kd.P.vars, "y0")
    k_full = kd.P.coefficient_in("y0", 1).lift(kd.P.vars)
    assert kd.P == k_full * y0 + kd.R
    assert kd.cofactor.total_degree() == 0
    for name in ("y0", "y1", "y2", "y3"):
        assert kd.P.degree(name) == 1
    assert kd.K == algebraic.kernel_poly() * kd.cofactor.terms[(0, 0)]


def test_kernel_extract_term_counts_and_hashes():
    """P, K, R and the cofactor, pinned by term count and the sha256 of
    serialize(); any change to the cleared equation shows here."""
    kd = algebraic.kernel_extract()
    expected = {
        "P": (155, "8fb76bc221eac057f6949daf1b4f4e1c"
                   "054e615fa54dd152597daec6dea26e5b"),
        "K": (40, "dc0da4b85228d6589189b125ccd4021b"
                  "0434e244f9fd76390ca1fd4ce2482e9f"),
        "R": (115, "c1a792a4b79296f2a7c6636816fd36df"
                   "5047550f0c8f6a82671b49942351628d"),
    }
    for name, (count, digest) in expected.items():
        poly = getattr(kd, name)
        assert len(poly.terms) == count, name
        assert hashlib.sha256(
            poly.serialize().encode()).hexdigest() == digest, name
    assert len(kd.cofactor.terms) == 1
    assert kd.cofactor.serialize() == "1:1"


def test_kernel_factor_t_degrees():
    # one unramified root t1 (quadratic m1) and two ramified (quartic m2)
    assert algebraic.m1_poly().degree("t") == 2
    assert algebraic.m2_poly().degree("t") == 4


def test_m1_root_at_origin():
    # m1(0, t) = 1 - t, so the unramified branch starts at t = 1
    assert algebraic.m1_poly().eval({"z": 0, "t": Fraction(1)}) == 0


def test_kernel_root_check_small():
    st = class_b.iterate(20)
    residuals, _ = algebraic.kernel_root_check(st)
    assert residuals["m1_residual_order"] > 20
    assert residuals["kernel_residual_order"] > 20
    assert residuals["r_residual_order"] > 20
    assert residuals["p_residual_order"] > 20


def test_kernel_root_check_200():
    residuals, _ = algebraic.kernel_root_check(class_b.iterate(200))
    assert set(residuals.values()) == {201}


def test_kernel_root_check_forms_no_series_substitution_at_the_root(
        monkeypatch):
    """At the kernel root K vanishes through the order, so y0 =
    f(z, t1) is not formed: subst_t only ever substitutes t = 1."""
    targets = []
    subst_t = BivariateSeries.subst_t

    def spy(f, value):
        targets.append(value)
        return subst_t(f, value)

    monkeypatch.setattr(BivariateSeries, "subst_t", spy)
    residuals, _ = algebraic.kernel_root_check(class_b.iterate(40))
    assert set(residuals.values()) == {41}
    assert targets and not any(isinstance(x, UnivariateSeries)
                               for x in targets)


@pytest.mark.parametrize("k", [3, 10])
def test_kernel_root_check_off_the_root(monkeypatch, k):
    """With t1 + z^k in place of the kernel root, m1's residual is k
    and K's is k+3 (K = (1-2z)(1-z) m1 m2, m1_t(0, 1) = -1, and m2(z, t1)
    has z-order 3), so y0 = f(z, t1 + z^k) is formed, and P's residual
    is that of K y0 + R, computed here from subst_t."""
    order = 20
    root = algebraic.newton_series_root

    def off_root(p, t0, n):
        return root(p, t0, n) + UnivariateSeries.z(n).shift(k - 1)

    monkeypatch.setattr(algebraic, "newton_series_root", off_root)
    state = class_b.iterate(order)
    residuals, _ = algebraic.kernel_root_check(state)
    f, t = state.f, off_root(algebraic.m1_poly(), Fraction(1), order)
    at = {"y0": f.subst_t(t), "y1": f.subst_t(1), "y2": f.deriv_t_at_1(),
          "y3": f.subst_t(UnivariateSeries.geometric(1, order)),
          "z": UnivariateSeries.z(order), "t": t}
    kd = algebraic.kernel_extract()
    k_at, r_at = kd.K.eval(at), kd.R.eval(at)
    assert residuals["m1_residual_order"] == k
    assert residuals["kernel_residual_order"] == k_at.valuation() == k + 3
    assert residuals["r_residual_order"] == r_at.valuation()
    assert residuals["p_residual_order"] == (k_at * at["y0"]
                                             + r_at).valuation()


@pytest.mark.parametrize("order", [0, 1, 40, 120])
def test_kernel_root_check_y3_is_f_at_one_over_one_minus_z(monkeypatch,
                                                           order):
    """The y3 that kernel_root_check assigns, built by running sums, is
    f(z, 1/(1-z)) as subst_t gives it by full series products."""
    state = class_b.iterate(order)
    seen = []
    evaluate = MultivariatePolynomial.eval

    def spy(poly, assignment):
        if "y3" in assignment:
            seen.append(assignment["y3"])
        return evaluate(poly, assignment)

    monkeypatch.setattr(MultivariatePolynomial, "eval", spy)
    algebraic.kernel_root_check(state)
    want = state.f.subst_t(UnivariateSeries.geometric(1, order))
    assert seen and all(y3 == want for y3 in seen)


def test_growth_estimate_geometric():
    seq = [2 ** n for n in range(15)]
    assert algebraic.growth_estimate(seq) == (2.0, 2.0)
    with pytest.raises(ValueError):
        algebraic.growth_estimate([1, 2, 3])


def test_growth_estimate_richardson_removes_1_over_n():
    """a_n = (n+1) 3^n has ratios 3 (1 + 1/n), exactly the correction
    one Richardson step removes: the ratio alone is off by 3/N."""
    seq = [(n + 1) * 3 ** n for n in range(15)]
    ratio, extrapolated = algebraic.growth_estimate(seq)
    assert ratio == pytest.approx(3 + 3 / 14, abs=1e-12)
    assert extrapolated == pytest.approx(3, abs=1e-9)


def test_reported_growth_takes_the_nearest_rate():
    """Not the largest or the first in the window: of three rates within
    25% of 5.6315, the nearest."""
    rates = [0.836, 5.6318, 5.858]
    assert algebraic.reported_growth(rates, 5.6315) == 5.6318
    assert algebraic.reported_growth(rates[::-1], 5.6315) == 5.6318
    assert algebraic.reported_growth([6.4, 1.0], 6.1) == 6.4


def test_reported_growth_window_is_relative_and_closed():
    assert algebraic.reported_growth([5.0], 4.0) == 5.0
    with pytest.raises(ArithmeticError,
                       match="no growth candidate matches the estimate"):
        algebraic.reported_growth([5.01], 4.0)
    with pytest.raises(ArithmeticError):
        algebraic.reported_growth([0.836, 5.6318, 5.858], 20.0)


def test_growth_exact_geometric():
    z, y = MultivariatePolynomial.variables("z", "y")
    assert algebraic.growth_exact(y * (1 - z) - 1) == [1.0]


def test_growth_exact_quartic_direct():
    roots = algebraic.growth_exact(fixtures.growth_quartic())
    assert roots == [0.836109638399, 5.631759538825]


(_Z,) = MultivariatePolynomial.variables("z")


@pytest.mark.parametrize("poly, roots", [
    # roots 10^-11 apart, each in its own bracket
    ((_Z - 1) * (10 ** 11 * _Z - 10 ** 11 - 1), [1.0, 1.00000000001]),
    # a double root off the grid is no sign change until made squarefree
    ((3 * _Z - 1) ** 2 * (_Z - 2), [0.333333333333, 2.0]),
    ((5 * _Z - 2) * (_Z ** 2 - 2), [0.4, 1.414213562373]),
    ((32 * _Z - 5) ** 2, [0.15625]),
    # not primitive, so the remainder sequence must remove contents
    (6 * (3 * _Z - 1) ** 3 * (_Z - 2), [0.333333333333, 2.0]),
], ids=["close_roots", "double_root_off_grid", "irrational", "grid_point",
        "triple_root_not_primitive"])
def test_growth_exact_y_free(poly, roots):
    assert algebraic.growth_exact(poly) == roots


def test_degree8_discriminant_and_squarefree_part():
    """The discriminant of class B's degree-8 polynomial is far from
    squarefree: the reversed growth quartic divides it four times."""
    disc = algebraic.discriminant_in_z(fixtures.degree8_min_poly())
    assert disc.degree("z") == 232 and len(disc.terms) == 214
    quartic = 4 * _Z ** 4 - 8 * _Z ** 3 + 9 * _Z ** 2 - 7 * _Z + 1
    rest = disc
    for _ in range(4):
        rest = rest.exact_div(quartic)
    with pytest.raises(NotDivisibleError):
        rest.exact_div(quartic)
    assert len(algebraic._squarefree(algebraic._z_coeffs(disc))) - 1 == 83


def test_class_a_exact_growth(state_a60):
    eq5 = fixtures.eq5_min_poly()
    candidates = algebraic.growth_exact(eq5)
    # 5/32 is a double root of the discriminant; on the squarefree part
    # it is a simple root and a grid point, so it is found exactly
    assert candidates == [0.15625, 1.0]
    disc = algebraic.discriminant_in_z(eq5)
    assert disc.eval({"z": Fraction(5, 32)}) == 0
    _ratio, estimate = algebraic.growth_estimate(class_a.counts(state_a60))
    growth = algebraic.reported_growth([1.0 / c for c in candidates],
                                       estimate)
    assert abs(growth - 32 / 5) < 1e-12
