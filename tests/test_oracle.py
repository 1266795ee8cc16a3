import pytest

from permclass import oracle, perms
from permclass.perms import CLASS_A_BASIS, CLASS_B_BASIS, Basis, parse_perm

from conftest import golden_text


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
    for stat, fn in oracle.STATISTICS.items():
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


def test_budget_counts_candidate_children():
    """The budget is spent on every candidate child, n per avoider of
    length n - 1: sum(n * counts[n - 1], n = 1..6) = 683 for class A."""
    rep = oracle.enumerate_avoiders(CLASS_A_BASIS, 6, node_budget=683)
    assert sum(n * rep.counts[n - 1] for n in range(1, 7)) == 683
    with pytest.raises(oracle.BudgetExceededError):
        oracle.enumerate_avoiders(CLASS_A_BASIS, 6, node_budget=682)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv(oracle.BUDGET_ENV_VAR, "50")
    assert oracle.default_budget() == 50
    with pytest.raises(oracle.BudgetExceededError):
        oracle.enumerate_avoiders(CLASS_B_BASIS, 9)


def test_counts_serialization_round_trip():
    rep = oracle.enumerate_avoiders(CLASS_B_BASIS, 5)
    assert oracle.parse_counts(rep.serialize_counts()) == rep.counts


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
