"""Properties shared by the online iterations of both classes."""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from permclass import class_a, class_b

from conftest import coefficient

CLASSES = [class_a, class_b]


@pytest.mark.parametrize("mod", CLASSES, ids=["class_a", "class_b"])
@settings(deadline=None)
@given(n=st.integers(min_value=0, max_value=59))
def test_iterate_is_a_prefix_of_a_deeper_iterate(mod, state_a60, state_b60,
                                                 n):
    """Every series of the state at order n is the order-60 one
    truncated, so nothing the iteration builds once at order n (the
    prefactor recurrences; class A's evaluation points and slot width)
    depends on n beyond the truncation."""
    deep = state_a60 if mod is class_a else state_b60
    state = mod.iterate(n)
    assert state.order == n
    for field in dataclasses.fields(state):
        if field.name != "order":
            assert getattr(state, field.name) == \
                getattr(deep, field.name).truncate(n)


@pytest.mark.parametrize("mod", CLASSES, ids=["class_a", "class_b"])
@settings(deadline=None)
@given(n=st.integers(min_value=0, max_value=10))
def test_bivariate_rows_match_oracle_distribution(
        mod, oracle_distributions_10, n):
    """Every coefficient of f to order n equals the oracle's count of
    avoiders of that length with that value of the tracked statistic;
    small n reach the rows before each recurrence starts."""
    name = mod.__name__.rpartition(".")[2]
    oracle_rows = oracle_distributions_10[name].rows
    f = mod.iterate(n).f
    for m in range(n + 1):
        width = max(len(f.c[m]), len(oracle_rows[m]))
        assert [coefficient(f, m, k) for k in range(width)] == \
            oracle_rows[m] + [0] * (width - len(oracle_rows[m]))


@pytest.mark.parametrize("mod", CLASSES, ids=["class_a", "class_b"])
def test_iterate_rejects_negative_order(mod):
    with pytest.raises(ValueError):
        mod.iterate(-1)
