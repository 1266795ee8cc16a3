import itertools

import pytest

from permclass import class_a, class_b, cli, oracle, perms
from permclass.perms import CLASS_A_BASIS, CLASS_B_BASIS, Basis, parse_perm

import mask_model
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


@pytest.mark.parametrize("name, n", [("class_a", 14), ("class_b", 40)],
                         ids=["class_a", "class_b"])
def test_fe_counts_match_oracle_deep(name, n, request):
    """The oracle confirms the FE counts to n = 14 for class A and
    n = 40 for class B, under the default budget."""
    counts, fixture = FE[name]
    want = oracle.enumerate_avoiders(BASES[name], n).counts
    assert counts(request.getfixturevalue(fixture))[:n + 1] == want


@pytest.mark.parametrize("stat", [None] + sorted(oracle.STATISTICS))
@pytest.mark.parametrize("basis", [CLASS_A_BASIS, CLASS_B_BASIS],
                         ids=["class_a", "class_b"])
def test_walk_matches_mask_walk_to_n12(basis, stat):
    """The label walk's counts and statistic rows, for every n_max <= 12
    and first = 1 and 2, equal those of the tests' (mask, state) walk,
    which gives the step values, not ranks, and tallies no length."""
    step = oracle.STATISTICS[stat] if stat else None
    for first in (1, 2):
        want_counts, want_rows = mask_model.mask_walk(basis, 12, step, first)
        for n_max in range(13):
            counts, rows = oracle._walk(basis, n_max, None, step, first)
            assert counts == want_counts[:n_max + 1], (first, n_max)
            if step is not None:
                assert rows == want_rows[:n_max + 1], (first, n_max)


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


def _csv_through_cli(capsys, monkeypatch, rep, class_id, stat):
    """The CSV that ``distribution --format csv`` prints for ``rep``."""
    monkeypatch.setattr(oracle, "statistic_distribution",
                        lambda *args, **kwargs: rep)
    assert cli.main(["distribution", "--class", class_id, "--n", "10",
                     "--stat", stat, "--format", "csv"]) == 0
    return capsys.readouterr().out


def test_distribution_golden_files(capsys, monkeypatch,
                                   oracle_distributions_10):
    repa = oracle_distributions_10["class_a"]
    assert _csv_through_cli(capsys, monkeypatch, repa, "class_a",
                            "initial_decreasing_run") == \
        golden_text("class_a_initial_decreasing_run.csv")
    repb = oracle_distributions_10["class_b"]
    assert _csv_through_cli(capsys, monkeypatch, repb, "class_b",
                            "marked_trailing_run") == \
        golden_text("class_b_marked_trailing_run.csv")


def test_single_slice_distribution_golden(capsys, monkeypatch):
    rep = oracle.single_slice_distribution(CLASS_B_BASIS, 10)
    assert _csv_through_cli(capsys, monkeypatch, rep, "class_b",
                            "marked_trailing_run") == \
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


def _spends(basis, n_max, stat, first):
    """The children the walk forms at each length n = 1..n_max, from
    scratch: each distinct key of the avoiders of length n - 1 (those
    starting with 1 for ``first`` = 2) forms one per free slot >= lo
    (lo = ``first``, or 1 for n = 1).  A key is the number of free
    slots, the label (left out at length n_max - 1) and, with a
    statistic, the rank of the last entry among the free slots (1 for
    the empty avoider) and the statistic's value."""
    out = []
    for n in range(1, n_max + 1):
        lo = first if n >= 2 else 1
        keys = set()
        for p in oracle.filter_all_avoiders(basis, n - 1):
            p = list(p)
            if first == 2 and p[:1] not in ([], [1]):
                continue
            mask, state = mask_model.fold(p, basis)
            free = [f for f in range(1, n + 1) if not mask >> f & 1]
            last = sum(f <= (p[-1] if p else 1) for f in free)
            keys.add((len(free),
                      mask_model.label(mask, state, n - 1, basis)
                      if n < n_max else None,
                      last if stat else 1,
                      getattr(perms, stat)(perms.Perm(p)) if stat else 0))
        out.append(sum(k - lo + 1 for k, *_ in keys))
    return out


def test_budget_counts_candidate_children():
    """The budget is spent on the children each length forms, one per
    free slot >= lo of each distinct key one length shorter, also at
    the last length, which is tallied without being built.  It is spent
    one whole length at a time, before that length is generated, so a
    budget that runs out names the first length it does not cover and
    every shorter length is complete."""
    for basis in (CLASS_A_BASIS, CLASS_B_BASIS):
        for name, stat, first in (
                ("enumerate_avoiders", None, 1),
                ("statistic_distribution", "marked_trailing_run", 1),
                ("single_slice_distribution", "marked_trailing_run", 2)):
            counts = _run_budgeted(name, basis, 7, None).counts
            # through[L - 1]: the spend on lengths 1..L
            through = list(itertools.accumulate(
                _spends(basis, 7, stat, first)))
            exact = through[-1]
            assert _run_budgeted(name, basis, 7, exact).counts == counts
            with pytest.raises(oracle.BudgetExceededError,
                               match="generating length 7;"):
                _run_budgeted(name, basis, 7, exact - 1)
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
    # 1 + 2 + 6 + 18 + 51 for lengths 1..5, whose parents are keyed by
    # 1, 1, 2, 5 and 12 labels, and 15 for length 6, whose parents are
    # keyed by their free slots alone, 2, 3, 4 or 6 of them
    rep = oracle.enumerate_avoiders(CLASS_A_BASIS, 6, node_budget=93)
    assert rep.counts == [1, 1, 2, 6, 22, 90, 395]
    assert sum(_spends(CLASS_A_BASIS, 6, None, 1)) == 93
    with pytest.raises(oracle.BudgetExceededError):
        oracle.enumerate_avoiders(CLASS_A_BASIS, 6, node_budget=92)


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
