import itertools

import pytest
from hypothesis import given, strategies as st

from permclass import perms
from permclass.perms import (Basis, Perm, contains, contains_ending_at_last,
                             parse_perm)

import reference

perm_strategy = st.permutations(range(1, 8)).map(
    lambda xs: Perm(tuple(xs)))


def test_parse_and_format_round_trip():
    for text in ("", "1", "2413", "35142"):
        assert str(parse_perm(text)) == text
    long = "11,2,1,3,4,5,6,7,8,9,10"
    assert str(parse_perm(long)) == long


def test_invalid_permutation_rejected():
    with pytest.raises(perms.InvalidPermutationError):
        Perm((1, 3))
    with pytest.raises(perms.InvalidPermutationError):
        Perm((1, 1, 2))


def test_standardize():
    assert reference.standardize((6, 4, 7)) == parse_perm("213")
    assert reference.standardize(()) == perms.EMPTY


def test_contains_known_cases():
    host = parse_perm("64357218")
    assert contains(host, parse_perm("231"))
    assert not contains(host, parse_perm("132"))
    assert contains(parse_perm("2413"), parse_perm("2413"))
    assert not contains(parse_perm("241365"), parse_perm("3412"))
    assert contains(parse_perm("35142"), parse_perm("2413"))


@given(perm_strategy)
def test_contains_is_reflexive_and_empty_pattern_trivial(p):
    assert contains(p, p)
    assert contains(p, perms.EMPTY)


@given(perm_strategy, st.sampled_from(["2413", "3412", "1432", "2143"]))
def test_contains_ending_at_last_consistent(p, pattern_text):
    """An occurrence ending at the last entry implies containment, and
    containment of the child without one in the parent implies one."""
    pattern = parse_perm(pattern_text)
    if contains_ending_at_last(p, pattern):
        assert contains(p, pattern)
    elif contains(p, pattern):
        prefix = reference.standardize(p.entries[:-1])
        assert contains(prefix, pattern)


def test_contains_exhaustive():
    """Every host of length <= 7 against every pattern of length <= 4,
    longer than the host too: an occurrence is a choice of positions."""
    patterns = [Perm(q) for k in range(5)
                for q in itertools.permutations(range(1, k + 1))]
    for n in range(8):
        for entries in itertools.permutations(range(1, n + 1)):
            host = Perm(entries)
            occurring = {reference.standardize(sub)
                         for k in range(min(n, 4) + 1)
                         for sub in itertools.combinations(entries, k)}
            for pattern in patterns:
                assert contains(host, pattern) == (pattern in occurring), \
                    (host, pattern)


def test_contains_ending_at_last_exhaustive():
    """Every host of length <= 7 against every pattern of length <= 4,
    the bases' included: an occurrence ending at the last entry is a
    choice of prefix positions followed by the last position."""
    patterns = [Perm(q) for k in range(5)
                for q in itertools.permutations(range(1, k + 1))]
    for n in range(8):
        for entries in itertools.permutations(range(1, n + 1)):
            host = Perm(entries)
            ending = {perms.EMPTY}
            for k in range(1, min(n, 4) + 1):
                for positions in itertools.combinations(range(n - 1),
                                                        k - 1):
                    ending.add(reference.standardize(
                        [entries[i] for i in positions + (n - 1,)]))
            for pattern in patterns:
                assert contains_ending_at_last(host, pattern) == \
                    (pattern in ending), (host, pattern)


def test_basis_rejects_non_antichain():
    with pytest.raises(ValueError):
        Basis([parse_perm("12"), parse_perm("123")])


def test_skew_components():
    assert reference.skew_components(parse_perm("321")) == \
        [parse_perm("1")] * 3
    assert reference.skew_components(parse_perm("2413")) == \
        [parse_perm("2413")]
    assert reference.skew_components(parse_perm("45312")) == [
        parse_perm("12"), parse_perm("1"), parse_perm("12")]


def test_skew_sum():
    assert reference.skew_sum(parse_perm("231"), parse_perm("21")) == \
        parse_perm("45321")


@given(perm_strategy)
def test_skew_components_recompose(p):
    parts = reference.skew_components(p)
    out = perms.EMPTY
    for part in parts:
        out = reference.skew_sum(out, part)
    assert out == p


def test_statistics_small_cases():
    assert reference.initial_decreasing_run(parse_perm("64357218")) == 3
    assert reference.trailing_increasing_run(parse_perm("14235")) == 3
    assert reference.gap_count(parse_perm("14235")) == 4
    assert [reference.marked_trailing_run(parse_perm(s))
            for s in ("12", "21", "1", "213", "312")] == [1, 0, 0, 1, 1]
    with pytest.raises(ValueError):
        reference.gap_count(perms.EMPTY)


def test_slices_and_minima():
    p = parse_perm("11,14,6,7,10,8,12,2,5,3,9,4,13,1")
    assert reference.slice_count(p) == 4
    assert reference.left_to_right_minima(parse_perm("321")) == [1, 2, 3]


@given(perm_strategy)
def test_marked_trailing_run_bounds(p):
    r = reference.trailing_increasing_run(p)
    m = reference.marked_trailing_run(p)
    assert m in (r, r - 1)
    assert 0 <= m < len(p) + 1
