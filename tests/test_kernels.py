import functools
import itertools
import operator

import pytest
from hypothesis import given, strategies as st

from permclass import _kernels, perms

import mask_model

perm_lists = st.permutations(range(1, 9))
values = st.integers(min_value=1, max_value=9)
any_perms = st.integers(0, 12).flatmap(
    lambda n: st.permutations(range(1, n + 1)))


def _child(p, v):
    v = min(v, len(p) + 1)
    q = [x + 1 if x >= v else x for x in p]
    q.append(v)
    return q, v


@given(perm_lists, values)
def test_class_a_check_matches_generic_containment(p, v):
    q, v = _child(list(p), v)
    parent = perms.Perm(tuple(p))
    if not perms.avoids_basis(parent, perms.CLASS_A_BASIS):
        return
    want = perms.avoids_basis(perms.Perm(q), perms.CLASS_A_BASIS)
    assert _kernels.class_a_child_ok(q, v) == want


@given(perm_lists, values)
def test_class_b_check_matches_generic_containment(p, v):
    q, v = _child(list(p), v)
    parent = perms.Perm(tuple(p))
    if not perms.avoids_basis(parent, perms.CLASS_B_BASIS):
        return
    want = perms.avoids_basis(perms.Perm(q), perms.CLASS_B_BASIS)
    assert _kernels.class_b_child_ok(q, v) == want


def _forbidden_by_containment(p, basis):
    """Bit v set iff p+v has a basis occurrence ending at v."""
    forbid = 0
    for v in range(1, len(p) + 2):
        q = perms.Perm(_child(p, v)[0])
        if any(perms.contains_ending_at_last(q, sigma)
               for sigma in basis.patterns):
            forbid |= 1 << v
    return forbid


def _masks_by_occurrences(n, basis):
    """``_forbidden_by_containment`` of every permutation of length n,
    as a dict keyed by tuple, found from occurrences rather than by one
    containment search per appended value: an occurrence of a basis
    pattern ending at the appended w uses entries order-isomorphic to
    the pattern without its last letter, and the w completing them fill
    one gap between two of those entries.  Each tuple of values gives
    its gaps once, and a permutation ORs them over its subsequences."""
    k = len(next(iter(basis.patterns))) - 1

    def shape(t):
        return tuple(sorted(t).index(x) for x in t)

    gaps = {}
    for head in itertools.permutations(range(1, n + 1), k):
        s = sorted(head)
        m = 0
        for sigma in basis.patterns:
            *pat, end = sigma.entries
            if shape(head) == shape(pat):
                below = sum(x < end for x in pat)
                lo = s[below - 1] if below else 0
                hi = s[below] if below < k else n + 1
                m |= (2 << hi) - (2 << lo)
        gaps[head] = m
    return {q: functools.reduce(operator.or_, map(
                gaps.__getitem__, itertools.combinations(q, k)), 0)
            for q in itertools.permutations(range(1, n + 1))}


def _state_of_a(p):
    """The class-A state of p: P(u) for u = 1..n+1, the largest top p_j
    of an ascent p_i < p_j (i < j) with p_i >= u, or 0 for none."""
    top = [0] * (len(p) + 2)    # top[a]: the largest later entry above a
    for i, a in enumerate(p):
        top[a] = max([b for b in p[i + 1:] if b > a], default=0)
    return tuple(max(top[u:]) for u in range(1, len(p) + 2))


def _state_of_b(p):
    """The class-B state of p: (g, M1), g the least entry with a smaller
    entry after it (n+1 for none), M1 the maximum after the entry 1 (0
    when 1 is last or p is empty)."""
    g = min((a for i, a in enumerate(p) if min(p[i:]) < a),
            default=len(p) + 1)
    m1 = max(p[p.index(1) + 1:], default=0) if p else 0
    return g, m1


BASES = [(perms.CLASS_A_BASIS, _state_of_a, mask_model.class_a_ext,
          mask_model.class_a_child),
         (perms.CLASS_B_BASIS, _state_of_b, mask_model.class_b_ext,
          mask_model.class_b_child)]
BASIS_IDS = ["class_a", "class_b"]


@pytest.mark.parametrize("basis", [b[0] for b in BASES], ids=BASIS_IDS)
@given(any_perms)
def test_forbidden_matches_generic_containment(basis, p):
    p = list(p)
    assert mask_model.forbidden(p, basis) == \
        _forbidden_by_containment(p, basis)


@pytest.mark.parametrize("basis", [b[0] for b in BASES], ids=BASIS_IDS)
def test_occurrence_masks_match_containment(basis):
    for n in range(7):
        for q, mask in _masks_by_occurrences(n, basis).items():
            assert mask == _forbidden_by_containment(list(q), basis), q


@functools.cache
def _masks_to_8(basis):
    """``_masks_by_occurrences`` of every permutation of length <= 8."""
    masks = {}
    for n in range(9):
        masks.update(_masks_by_occurrences(n, basis))
    return masks


@pytest.mark.parametrize("basis, state_of, ext, child", BASES,
                         ids=BASIS_IDS)
def test_child_mask_from_parent_exhaustive(basis, state_of, ext, child):
    """For every p of length <= 7 (avoider or not) and every v, the
    state of p+v follows from that of p, and mask(p+v) =
    split(mask(p), v) | ext(state of p, v), both masks by containment."""
    masks = _masks_to_8(basis)
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            state = state_of(list(p))
            for v in range(1, n + 2):
                q = _child(list(p), v)[0]
                assert child(state, v) == state_of(q), (p, v)
                assert mask_model.split_mask(masks[p], v) | ext(state, v) \
                    == masks[tuple(q)], (p, v)


def _label_and_free(p, mask, basis, state_of):
    """The label of p, from its mask and its state computed from
    scratch, and its free slots."""
    n = len(p)
    free = [f for f in range(1, n + 2) if not mask >> f & 1]
    return mask_model.label(mask, state_of(p), n, basis), free


def _check_child_label(p, mask_of, basis, state_of):
    """The label kernel's child of p at each free slot v is the label of
    p+v and the number of its free slots <= v, both from ``mask_of``."""
    child = _kernels.LABEL_TREES[basis][2]
    label, free = _label_and_free(p, mask_of(p), basis, state_of)
    assert free[0] == 1     # no basis pattern ends in its 1
    for a, v in enumerate(free, 1):
        q = _child(p, v)[0]
        want, q_free = _label_and_free(q, mask_of(q), basis, state_of)
        last = sum(f <= v for f in q_free)
        assert child(label, a) == (want, last), (p, v)


@pytest.mark.parametrize("basis, state_of", [b[:2] for b in BASES],
                         ids=BASIS_IDS)
def test_child_label_from_parent_exhaustive(basis, state_of):
    """For every avoider p of length <= 7 and every free slot v, the
    label of p+v and the rank of v among its free slots (the number of
    them <= v) follow from the label of p and the rank of v, free slots
    by containment."""
    masks = _masks_to_8(basis)
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            if perms.avoids_basis(perms.Perm(p), basis):
                _check_child_label(list(p), lambda q: masks[tuple(q)],
                                   basis, state_of)


@pytest.mark.parametrize("basis, state_of", [b[:2] for b in BASES],
                         ids=BASIS_IDS)
@given(data=st.data())
def test_child_label_from_parent_matches_containment(basis, state_of,
                                                     data):
    """Like the exhaustive test for an avoider of length <= 11, grown
    one free slot at a time, and its children."""
    p = []
    for _ in range(data.draw(st.integers(0, 11))):
        mask = mask_model.forbidden(p, basis)
        p = _child(p, data.draw(st.sampled_from(
            [f for f in range(1, len(p) + 2) if not mask >> f & 1])))[0]
    _check_child_label(p, lambda q: _forbidden_by_containment(q, basis),
                       basis, state_of)


@pytest.mark.parametrize("basis, state_of, ext, child", BASES,
                         ids=BASIS_IDS)
@given(data=st.data())
def test_child_mask_from_parent_matches_containment(basis, state_of, ext,
                                                    child, data):
    p = list(data.draw(any_perms))
    n = len(p)
    v = data.draw(st.integers(1, n + 1))
    q = _child(p, v)[0]
    want = _forbidden_by_containment(q, basis)
    parent = _forbidden_by_containment(p, basis)
    state = state_of(p)
    assert mask_model.split_mask(parent, v) | ext(state, v) == want
    assert child(state, v) == state_of(q)


def test_active_backend_exposed():
    assert _kernels.BACKEND == "python"
