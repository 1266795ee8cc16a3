import hashlib

import pytest

from permclass import algebraic, class_a, fixtures, perms
from permclass.series import (BivariateSeries, ConsistencyError,
                              UnivariateSeries, check_counting)

import reference
from conftest import golden_counts, golden_text


def test_counts_small():
    assert class_a.counts(class_a.iterate(6)) == [1, 1, 2, 6, 22, 90, 395]


def test_counts_match_fe_golden_40(state_a60):
    got = "".join("%d\t%d\n" % (n, c)
                  for n, c in enumerate(class_a.counts(state_a60)[:41]))
    assert got == golden_text("class_a_fe_counts_40.tsv")


def test_counts_match_oracle_golden(state_a60):
    golden = golden_counts("class_a_counts.tsv")
    assert class_a.counts(state_a60)[:len(golden)] == golden


def test_equation_residuals(state_a60):
    res2, res3 = reference.class_a_equation_residuals(state_a60)
    assert res2 > state_a60.order
    assert res3 > state_a60.order


def test_rows_to_100_are_pinned(state_a100):
    """Every coefficient of f and fskew to order 100, past the order-60
    residual check: the sha256 of the rows, one a line with space-
    separated coefficients, f's first, as computed at commit 42efc2f
    with the points t = 0, 1, 2, ... and Horner values."""
    text = "".join(" ".join(map(str, row)) + "\n"
                   for series in (state_a100.f, state_a100.fskew)
                   for row in series.c)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "79adfcfba577716b97e7a93f75f83c5de057900ce93325b03acf65c720f2bc09")


@pytest.mark.parametrize("name, digest", [
    ("f", "9433452785bc3fc8c21303f2d14747f8c0a6944b2495f7e24f0061b8353f3438"),
    ("fskew",
     "2bd734035952bae2d06d1a68720d00908bd48b9eb71025ff5cca88aa7df0ad23"),
])
def test_each_series_rows_to_100_are_pinned(state_a100, name, digest):
    """Each of f and fskew to order 100, far past the order-40 goldens:
    the sha256 of its rows, one a line with space-separated
    coefficients, as computed at commit c0e91ce with unpacked values."""
    text = "".join(" ".join(map(str, row)) + "\n"
                   for row in getattr(state_a100, name).c)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_narrow_slots_repack_to_the_same_rows(monkeypatch, pack_widths,
                                              state_a60):
    """With no headroom per row, the slot width is set from the first
    product row's bound alone, so later rows outgrow it and every row
    is repacked: the rows still equal the unpacked iteration's."""
    monkeypatch.setattr(class_a, "_QUARTER_BITS_PER_ROW", 0)
    state = class_a.iterate(60)
    assert state.f.c == state_a60.f.c
    assert state.fskew.c == state_a60.fskew.c
    assert len(pack_widths) > 1


@pytest.mark.parametrize("order", [60, 120])
def test_shipped_slot_rule_packs_once(pack_widths, order):
    class_a.iterate(order)
    assert len(pack_widths) == 1


def test_narrow_chain_slots_repack_to_the_same_rows(monkeypatch, chain_sizes,
                                                    state_a100):
    """With no headroom per row, the Omega chain's slots are sized by
    each row's bound alone and widen again and again, every widening
    repacking G's rows: the rows and fskew(z, f(z,1)) still equal the
    pinned order-100 state's."""
    monkeypatch.setattr(class_a, "_QUARTER_BITS_PER_ROW", 0)
    assert class_a.iterate(100) == state_a100
    assert len(chain_sizes) > 2


def test_narrow_slots_hold_every_chain_row(monkeypatch, state_a100):
    """With no headroom per row, the one slot is set from each row's top
    bound alone, and the chain's bytes still hold the largest
    coefficient, G_{n,0}, of every row of G they make: the top bound
    covers G's rows, not only fskew's."""
    monkeypatch.setattr(class_a, "_QUARTER_BITS_PER_ROW", 0)
    chain_row, fits = class_a._chain_row, []

    def checked(u, f1, packed, size):
        row = chain_row(u, f1, packed, size)
        fits.append(row[0] < 1 << 8 * size)
        return row
    monkeypatch.setattr(class_a, "_chain_row", checked)
    assert class_a.iterate(100) == state_a100
    assert fits == [True] * 99


@pytest.mark.parametrize("order", [60, 120])
def test_shipped_slot_rule_packs_the_chain_once(chain_sizes, order):
    class_a.iterate(order)
    assert len(chain_sizes) == 1


@pytest.mark.parametrize("order, calls", [(3, 4), (10, 36), (60, 1770)])
def test_each_row_is_evaluated_once_at_each_point(monkeypatch, order, calls):
    """The 2N-2 packed rows that the product rows read, f_1..f_{N-1} of
    (f-1)/z and W_0..W_{N-2}, are each evaluated once, at every pair of
    points T = +-1..+-K, K = (N+1)//4: (2N-2) K pair evaluations, no
    more."""
    evaluate, seen = class_a.tpoly_values, []

    def counted(p, k):
        seen.append(k)
        return evaluate(p, k)
    monkeypatch.setattr(class_a, "tpoly_values", counted)
    class_a.iterate(order)
    assert len(seen) == 2 * order - 2
    assert sum(seen) == calls == (2 * order - 2) * ((order + 1) // 4)


def test_fskew_at_f1_is_the_substitution_to_100(state_a100):
    """The chain's column 0, carried on the state, against fskew's rows
    substituted at t = f(z,1) by Horner over fskew's columns."""
    assert state_a100.fskew_at_f1 == state_a100.fskew.subst_t(
        state_a100.f.subst_t(1))


def test_eq5_annihilates_counts_to_100(state_a100):
    """The degree-3 polynomial of the paper vanishes at f(z,1) through
    z^100, far past the order-40 goldens."""
    residual = algebraic.verify_annihilation(
        fixtures.eq5_min_poly(),
        {"z": UnivariateSeries.z(100), "y": state_a100.f.subst_t(1)})
    assert residual > 100


def test_eq6_annihilates_fskew_at_f1_to_100(state_a100):
    """eq6 vanishes at fskew(z, f(z,1)) through z^100, a value that
    depends on every t-coefficient of fskew's rows, not only on their
    sums."""
    residual = algebraic.verify_annihilation(
        fixtures.eq6_min_poly(),
        {"z": UnivariateSeries.z(100), "y": state_a100.fskew_at_f1})
    assert residual > 100


def test_fskew_counts_skew_indecomposables():
    """fskew(z,1) counts the skew-indecomposable avoiders of length at
    least 2, checked against the oracle's explicit permutations."""
    st = class_a.iterate(7)
    f1skew = st.fskew.subst_t(1)
    for n in range(2, 8):
        explicit = [p for p in reference.filter_all_avoiders(
            perms.CLASS_A_BASIS, n) if len(reference.skew_components(p)) == 1]
        assert f1skew.c[n] == len(explicit)
    assert f1skew.c[0] == 0 and f1skew.c[1] == 0


def test_omega_raises_z_order():
    st = class_a.iterate(10)
    f1 = st.f.subst_t(1)
    w = BivariateSeries([[0, 0, 0, 1]], 10).shift(4)   # t^3 z^4
    image = class_a.omega_apply(w, st.f, f1)
    valuation = next(n for n, row in enumerate(image.c) if any(row))
    assert valuation >= 4 + 2  # prefactor z * (f-1) adds two z-orders


def test_nonnegative_integer_invariant(state_a60):
    for row in state_a60.f.c:
        for x in row:
            assert isinstance(x, int) and x >= 0


def test_consistency_check_catches_bad_state():
    st = class_a.iterate(5)
    broken = BivariateSeries([list(r) for r in st.f.c], st.order)
    broken.c[3][1] = -broken.c[3][1]
    check_counting(st.f, st.fskew)
    with pytest.raises(ConsistencyError):
        check_counting(broken, st.fskew)
