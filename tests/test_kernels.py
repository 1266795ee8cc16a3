import functools
import itertools
import operator

import pytest
from hypothesis import given, strategies as st

from permclass import _kernels, perms

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


@given(any_perms)
def test_class_a_forbidden_matches_generic_containment(p):
    p = list(p)
    assert _kernels.class_a_forbidden(p) == \
        _forbidden_by_containment(p, perms.CLASS_A_BASIS)


@given(any_perms)
def test_class_b_forbidden_matches_generic_containment(p):
    p = list(p)
    assert _kernels.class_b_forbidden(p) == \
        _forbidden_by_containment(p, perms.CLASS_B_BASIS)


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


BASES = [(perms.CLASS_A_BASIS, _kernels.class_a_extensions),
         (perms.CLASS_B_BASIS, _kernels.class_b_extensions)]
BASIS_IDS = ["class_a", "class_b"]


@pytest.mark.parametrize("basis", [b for b, _ in BASES], ids=BASIS_IDS)
def test_occurrence_masks_match_containment(basis):
    for n in range(7):
        for q, mask in _masks_by_occurrences(n, basis).items():
            assert mask == _forbidden_by_containment(list(q), basis), q


@pytest.mark.parametrize("basis, extensions", BASES, ids=BASIS_IDS)
def test_child_mask_from_parent_exhaustive(basis, extensions):
    """mask(p+v) = split(mask(p), v) | ext_p[v] for every p of length
    <= 7 (avoider or not) and every v, both masks by containment."""
    masks = {}
    for n in range(9):
        masks.update(_masks_by_occurrences(n, basis))
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            ext = extensions(list(p))
            assert len(ext) == n + 2
            for v in range(1, n + 2):
                child = tuple(_child(list(p), v)[0])
                assert _kernels.split_mask(masks[p], v) | ext[v] == \
                    masks[child], (p, v)


@pytest.mark.parametrize("basis, extensions", BASES, ids=BASIS_IDS)
@given(data=st.data())
def test_child_mask_from_parent_matches_containment(basis, extensions,
                                                    data):
    p = list(data.draw(any_perms))
    v = data.draw(st.integers(1, len(p) + 1))
    want = _forbidden_by_containment(_child(p, v)[0], basis)
    parent = _forbidden_by_containment(p, basis)
    assert _kernels.split_mask(parent, v) | extensions(p)[v] == want


def test_active_backend_exposed():
    assert _kernels.BACKEND == "python"
