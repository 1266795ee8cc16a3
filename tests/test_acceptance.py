"""Acceptance suite: one test (and hence one pass/fail line under
``pytest -v``) per acceptance criterion.

Criterion 10 is the scope statement that the full resultant-elimination
chains and asymptotic expansions are deliberately excluded; it has no
runnable content and is represented here only by this note.
"""
import time
from fractions import Fraction

from permclass import algebraic, class_a, class_b, fixtures
from permclass.series import UnivariateSeries

from conftest import coefficient


def test_criterion_01_class_a_counts_match_oracle_to_n11(
        state_a60, oracle_counts_11):
    rep = oracle_counts_11["class_a"]
    assert class_a.counts(state_a60)[:12] == rep.counts


def test_criterion_02_class_b_counts_match_oracle_to_n11(
        state_b60, oracle_counts_11):
    rep = oracle_counts_11["class_b"]
    assert class_b.counts(state_b60)[:12] == rep.counts


def test_criterion_03_bivariate_coefficients_match_oracle_to_n10(
        state_a60, state_b60, oracle_distributions_10):
    rep_a = oracle_distributions_10["class_a"]
    for n in range(11):
        row = rep_a.rows[n]
        for k in range(n + 1):
            assert coefficient(state_a60.f, n, k) == \
                (row[k] if k < len(row) else 0)
    # for class B the tracked statistic is the trailing increasing run
    # without its minimum entry (see notes on the slice recursion)
    rep_b = oracle_distributions_10["class_b"]
    for n in range(11):
        row = rep_b.rows[n]
        for k in range(n + 1):
            assert coefficient(state_b60.f, n, k) == \
                (row[k] if k < len(row) else 0)


def test_criterion_04_degree3_guess_reproduced_and_verified(state_a60):
    start = time.monotonic()
    f1 = state_a60.f.subst_t(1).truncate(40)
    guess = algebraic.guess_min_poly(f1, 3, 4)
    eq5 = fixtures.eq5_min_poly()
    assert guess is not None
    assert guess.poly in (eq5.primitive(), (-eq5).primitive())
    residual = algebraic.verify_annihilation(
        eq5, {"z": UnivariateSeries.z(40), "y": f1})
    assert residual > 40
    assert time.monotonic() - start <= 60


def test_criterion_05_fskew_composition_annihilated_to_38(state_a60):
    series = state_a60.fskew_at_f1.truncate(40)
    residual = algebraic.verify_annihilation(
        fixtures.eq6_min_poly(),
        {"z": UnivariateSeries.z(40), "y": series})
    assert residual > 38


def test_criterion_06_final_degree3_polynomial_and_exact_growth(state_a60):
    eq5 = fixtures.eq5_min_poly()
    counting = state_a60.f.subst_t(1).truncate(40)
    residual = algebraic.verify_annihilation(
        eq5, {"z": UnivariateSeries.z(40), "y": counting})
    assert residual > 40
    candidates = algebraic.growth_exact(eq5)
    assert any(abs(c - 5 / 32) < 1e-8 for c in candidates)
    assert algebraic.discriminant_in_z(eq5).eval(
        {"z": Fraction(5, 32)}) == 0
    _ratio, estimate = algebraic.growth_estimate(class_a.counts(state_a60))
    growth = algebraic.reported_growth([1.0 / c for c in candidates],
                                       estimate)
    assert abs(growth - 32 / 5) < 1e-6


def test_criterion_07_degree8_annihilates_class_b_to_40(state_b60):
    start = time.monotonic()
    f1 = state_b60.f.subst_t(1).truncate(41)
    residual = algebraic.verify_annihilation(
        fixtures.degree8_min_poly(),
        {"z": UnivariateSeries.z(41), "y": f1})
    assert residual > 41
    assert time.monotonic() - start <= 60


def test_criterion_08_kernel_divisibility_and_root_annihilation():
    decomp = algebraic.kernel_extract()
    for name in ("y0", "y1", "y2", "y3"):
        assert decomp.P.degree(name) == 1
    assert decomp.cofactor.total_degree() == 0  # K divides exactly
    residuals, _ = algebraic.kernel_root_check(class_b.iterate(40))
    assert residuals["m1_residual_order"] > 40
    assert residuals["kernel_residual_order"] > 40


def test_criterion_09_growth_rates_numeric(state_a60, state_b60):
    _ratio, est_a = algebraic.growth_estimate(class_a.counts(state_a60))
    assert abs(est_a - 6.4) < 0.05
    roots = algebraic.growth_exact(fixtures.growth_quartic())
    quartic_root = max(roots)
    assert abs(quartic_root - 5.63) <= 0.01
    _ratio, est_b = algebraic.growth_estimate(class_b.counts(state_b60))
    assert abs(est_b - quartic_root) < 0.05
