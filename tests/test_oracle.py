import itertools

import pytest

from permclass import class_a, class_b, oracle, perms
from permclass.perms import CLASS_A_BASIS, CLASS_B_BASIS, Basis, parse_perm

from conftest import BASES, STATISTICS, golden_text

# per class: the functional-equation counts and the fixture with its state
FE = {"class_a": (class_a.counts, "state_a60"),
      "class_b": (class_b.counts, "state_b60")}


@pytest.mark.parametrize("basis", [CLASS_A_BASIS, CLASS_B_BASIS],
                         ids=["class_a", "class_b"])
def test_pruned_generation_equals_full_filter(basis):
    rep = oracle.enumerate_avoiders(basis, 6)
    for n in range(7):
        assert rep.counts[n] == len(oracle.filter_all_avoiders(basis, n))


def test_counts_match_golden_files(oracle_counts_11):
    for name in ("class_a", "class_b"):
        rep = oracle_counts_11[name]
        assert rep.serialize_counts() == golden_text(name + "_counts.tsv")


@pytest.mark.parametrize("name", sorted(FE))
def test_fe_counts_match_oracle_to_n13(name, request):
    counts, fixture = FE[name]
    want = oracle.enumerate_avoiders(BASES[name], 13).counts
    assert counts(request.getfixturevalue(fixture))[:14] == want


@pytest.mark.parametrize("name", sorted(FE))
def test_fe_rows_match_oracle_distribution_to_n12(name, request):
    """Row n of the bivariate FE series is the distribution of the
    class's tracked statistic over the avoiders of length n."""
    f = request.getfixturevalue(FE[name][1]).f
    stat = STATISTICS[name]
    rep = oracle.statistic_distribution(BASES[name], 12, stat)
    for n, row in enumerate(rep.distributions[stat]):
        assert [f.coefficient(n, k) for k in range(len(row))] == row, n


def test_basis_without_scan_rejected():
    with pytest.raises(ValueError):
        oracle.enumerate_avoiders(Basis([parse_perm("123")]), 7)


@pytest.mark.parametrize("basis", [CLASS_A_BASIS, CLASS_B_BASIS],
                         ids=["class_a", "class_b"])
def test_every_statistic_matches_filtered_avoiders(basis):
    """The distributions tallied during generation, each child's value
    updated from its parent's, equal the statistic evaluated on every
    avoider found by filtering all permutations."""
    avoiders = [oracle.filter_all_avoiders(basis, n) for n in range(8)]
    for stat in oracle.STATISTICS:
        fn = getattr(perms, stat)   # the reference, on whole permutations
        rep = oracle.statistic_distribution(basis, 7, stat)
        for n, row in enumerate(rep.distributions[stat]):
            want = [0] * len(row)
            if not (n == 0 and stat == "gap_count"):
                for p in avoiders[n]:
                    want[fn(p)] += 1
            assert row == want, (stat, n)


def test_statistic_distribution_row_sums():
    rep = oracle.statistic_distribution(CLASS_A_BASIS, 7,
                                        "initial_decreasing_run")
    for n, row in enumerate(rep.distributions["initial_decreasing_run"]):
        assert sum(row) == rep.counts[n]


def test_distribution_golden_files(oracle_distributions_10):
    repa = oracle_distributions_10["class_a"]
    assert repa.serialize_distribution("initial_decreasing_run") == \
        golden_text("class_a_initial_decreasing_run.csv")
    repb = oracle_distributions_10["class_b"]
    assert repb.serialize_distribution("marked_trailing_run") == \
        golden_text("class_b_marked_trailing_run.csv")


def test_single_slice_distribution_golden():
    rep = oracle.single_slice_distribution(CLASS_B_BASIS, 10)
    assert rep.serialize_distribution("marked_trailing_run") == \
        golden_text("class_b_single_slice_marked_trailing_run.csv")


def test_budget_exhaustion_raises():
    with pytest.raises(oracle.BudgetExceededError):
        oracle.enumerate_avoiders(CLASS_A_BASIS, 9, node_budget=100)


def _run_budgeted(name, basis, n_max, budget):
    if name == "enumerate_avoiders":
        return oracle.enumerate_avoiders(basis, n_max, node_budget=budget)
    if name == "statistic_distribution":
        return oracle.statistic_distribution(
            basis, n_max, "marked_trailing_run", node_budget=budget)
    return oracle.single_slice_distribution(basis, n_max, node_budget=budget)


def test_budget_counts_candidate_children():
    """The budget is spent on every candidate child: 1 for the empty
    avoider, and n - first + 1 per avoider of length n - 1 >= 1, also
    at the last length, which is counted without being built.  It is
    spent one whole length at a time, before that length is generated,
    so a budget that runs out names the first length it does not cover
    and every shorter length is complete."""
    for basis in (CLASS_A_BASIS, CLASS_B_BASIS):
        for name, first in (("enumerate_avoiders", 1),
                            ("statistic_distribution", 1),
                            ("single_slice_distribution", 2)):
            counts = _run_budgeted(name, basis, 7, None).counts
            exact = 1 + sum((n - first + 1) * counts[n - 1]
                            for n in range(2, 8))
            assert _run_budgeted(name, basis, 7, exact).counts == counts
            with pytest.raises(oracle.BudgetExceededError,
                               match="generating length 7;"):
                _run_budgeted(name, basis, 7, exact - 1)
            # through[L - 1]: the spend on lengths 1..L
            through = list(itertools.accumulate(
                [1] + [(n - first + 1) * counts[n - 1]
                       for n in range(2, 8)]))
            assert through[-1] == exact
            for length in range(1, 7):
                with pytest.raises(
                        oracle.BudgetExceededError,
                        match="generating length %d; lengths up to %d are "
                              "complete;" % (length + 1, length)):
                    _run_budgeted(name, basis, 7, through[length - 1])
                with pytest.raises(
                        oracle.BudgetExceededError,
                        match="generating length %d; lengths up to %d are "
                              "complete;" % (length, length - 1)):
                    _run_budgeted(name, basis, 7, through[length - 1] - 1)
    rep = oracle.enumerate_avoiders(CLASS_A_BASIS, 6, node_budget=683)
    assert sum(n * rep.counts[n - 1] for n in range(1, 7)) == 683
    with pytest.raises(oracle.BudgetExceededError):
        oracle.enumerate_avoiders(CLASS_A_BASIS, 6, node_budget=682)


@pytest.mark.parametrize("stat", sorted(oracle.STATISTICS))
def test_step_constant_on_each_value_class(stat):
    """The last length is tallied by popcount over the appended values
    1, 2..last and last+1..n+1, so every step must be constant on each
    (the empty parent's last entry is taken as 1)."""
    step = oracle.STATISTICS[stat]
    for n in range(8):
        for last in range(max(n, 1) + 1):
            for s in range(n + 2):
                for values in ([1], range(2, last + 1),
                               range(max(last + 1, 2), n + 2)):
                    assert len({step(n, last, s, v) for v in values}) <= 1


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv(oracle.BUDGET_ENV_VAR, "50")
    assert oracle.default_budget() == 50
    with pytest.raises(oracle.BudgetExceededError):
        oracle.enumerate_avoiders(CLASS_B_BASIS, 9)


def test_counts_serialization_round_trip():
    rep = oracle.enumerate_avoiders(CLASS_B_BASIS, 5)
    assert oracle.parse_counts(rep.serialize_counts()) == rep.counts


def test_counts_out_of_order_rejected():
    with pytest.raises(ValueError, match="out of order"):
        oracle.parse_counts("0\t1\n2\t2\n1\t1\n")


def test_unknown_statistic_rejected():
    with pytest.raises(ValueError):
        oracle.statistic_distribution(CLASS_A_BASIS, 3, "no_such_stat")


def test_gap_count_is_trailing_run_plus_one():
    rep = oracle.statistic_distribution(CLASS_B_BASIS, 6, "gap_count")
    rep2 = oracle.statistic_distribution(CLASS_B_BASIS, 6,
                                         "trailing_increasing_run")
    for n in range(1, 7):
        shifted = [0] + rep2.distributions["trailing_increasing_run"][n]
        got = rep.distributions["gap_count"][n]
        width = max(len(shifted), len(got))
        assert [x for x in got + [0] * (width - len(got))] == \
            [x for x in shifted + [0] * (width - len(shifted))]
