import hashlib
import sys
import tracemalloc

from permclass import class_b, oracle, perms
from permclass.series import BivariateSeries, UnivariateSeries

import reference
from conftest import coefficient, golden_counts, golden_text, \
    single_slice_report


def test_counts_small():
    assert class_b.counts(class_b.iterate(6)) == [1, 1, 2, 6, 22, 89, 381]


def test_counts_match_fe_golden_40(state_b60):
    got = "".join("%d\t%d\n" % (n, c)
                  for n, c in enumerate(class_b.counts(state_b60)[:41]))
    assert got == golden_text("class_b_fe_counts_40.tsv")


def test_rows_to_200_are_pinned():
    """Every coefficient of f to order 200, past the order-60 residual
    check: the sha256 of the rows, one a line with space-separated
    coefficients, as computed at commit 763e4d6."""
    text = "".join(" ".join(map(str, row)) + "\n"
                   for row in class_b.iterate(200).f.c)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "af917338844467f8936fadc4bf00c0edf28666c623358957f412bdac3b645a87")


def test_iteration_keeps_no_quotient_history():
    """The iteration's peak allocation stays within a small multiple of
    f's own coefficients: the quotient rows are added to f's rows as
    they are made, not kept (keeping them reads about 7.7 at order
    200, against about 1.7 without)."""
    tracemalloc.start()
    try:
        f = class_b.iterate(200).f
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(sys.getsizeof(x) for row in f.c for x in row)
    assert peak < 3 * size


def test_counts_match_oracle_golden(state_b60):
    golden = golden_counts("class_b_counts.tsv")
    assert class_b.counts(state_b60)[:len(golden)] == golden


def test_equation_residuals(state_b60):
    """The online rows satisfy the equation as built from the
    whole-series operators, which the iteration does not call."""
    assert reference.class_b_equation_residuals(state_b60) > \
        state_b60.order


def test_equation_residuals_detect_a_wrong_row(state_b60):
    f = BivariateSeries([list(r) for r in state_b60.f.c], state_b60.order)
    f.c[57][2] += 1
    broken = class_b.ClassBState(order=f.order, f=f)
    assert reference.class_b_equation_residuals(broken) == 57


def test_s_series_first_coefficients():
    s = class_b.s_series(3)
    assert s.c == [[0], [1], [0, 1], [0, 1, 1]]


def test_s_series_matches_single_slice_oracle():
    s = class_b.s_series(9)
    rep = single_slice_report(9)
    for n in range(1, 10):
        row = rep.rows[n]
        for k in range(n + 1):
            assert coefficient(s, n, k) == (row[k] if k < len(row) else 0)


def test_theta_definition_cases():
    order = 5
    one = BivariateSeries.one(order)
    t = BivariateSeries([[0, 1]], order)
    assert class_b.theta_apply(one) == BivariateSeries.zero(order)
    assert class_b.theta_apply(t) == t


def test_phi_of_constant_is_s():
    order = 8
    s = class_b.s_series(order)
    assert class_b.phi_apply(BivariateSeries.one(order), s) == s


def test_decomposition_identity(state_b60):
    """The three slice-addition cases, from the whole-series operators,
    add up to f - 1, each counting permutations."""
    f = state_b60.f
    g_a = class_b.phi_apply(f, class_b.s_series(state_b60.order))
    g_b = class_b.psi_apply(class_b.theta_apply(f))
    g_c = class_b.xi_apply(class_b.lambda_apply(f))
    assert 1 + g_a + g_b + g_c == f
    for g in (g_a, g_b, g_c):
        for row in g.c:
            for x in row:
                assert isinstance(x, int) and x >= 0


def test_phi_closed_form_cross_multiplied(state_b60):
    """Phi[f] (1-t) = s (f(z,1) - t f(z,t)): the divided-difference
    closed form, checked without dividing by (1-t)."""
    f, s = state_b60.f, class_b.s_series(state_b60.order)
    left = class_b.phi_apply(f, s).mul_tpoly([1, -1])
    right = s * (f.subst_t(1) - f.mul_tpoly([0, 1]))
    assert left == right


def test_theta_discrete_derivative_consistency(state_b60):
    """Theta[f] at t=1 is f_t(z,1): the t->1 limit of the divided
    difference holds exactly for the computed series."""
    theta = class_b.theta_apply(state_b60.f)
    assert theta.subst_t(1) == state_b60.f.deriv_t_at_1()


def test_xi_lambda_minimum_order():
    order = 8
    t = BivariateSeries([[0, 1]], order)
    image = class_b.xi_apply(class_b.lambda_apply(t))
    valuation = next(n for n, row in enumerate(image.c) if any(row))
    assert valuation == 2  # z from Lambda, z from Xi


def test_auxiliary_series(state_b60):
    """f(z,1), f_t(z,1) and f(z,1/(1-z)), the specializations that
    kernel_root_check assigns to y1..y3."""
    f = state_b60.f
    f1, ft1 = f.subst_t(1), f.deriv_t_at_1()
    frecip = f.subst_t(UnivariateSeries.geometric(1, state_b60.order))
    assert f1.c[0] == 1
    # the sole entry of the length-1 permutation is its minimum, which
    # the marked trailing run excludes
    assert ft1.c[0] == 0 and ft1.c[1] == 0 and ft1.c[2] == 1
    assert frecip.c[0] == 1
    # moments: sum over the oracle distribution at small n
    rep = oracle.statistic_distribution(perms.CLASS_B_BASIS, 6,
                                        "marked_trailing_run")
    for n in range(7):
        row = rep.rows[n]
        assert ft1.c[n] == sum(k * c for k, c in enumerate(row))


def test_operator_images_raise_z_order():
    order = 6
    for k in range(order):
        w = BivariateSeries([[0] * k + [1]], order).shift(k)   # (tz)^k
        for image in (class_b.phi_apply(w, class_b.s_series(order)),
                      class_b.psi_apply(w),
                      class_b.xi_apply(w),
                      class_b.lambda_apply(w)):
            head = [n for n, row in enumerate(image.c) if any(row)]
            assert not head or head[0] >= k + 1
