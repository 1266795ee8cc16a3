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


BASES = [(perms.CLASS_A_BASIS, _state_of_a, _kernels.class_a_ext,
          _kernels.class_a_child),
         (perms.CLASS_B_BASIS, _state_of_b, _kernels.class_b_ext,
          _kernels.class_b_child)]
BASIS_IDS = ["class_a", "class_b"]


@pytest.mark.parametrize("basis", [b[0] for b in BASES], ids=BASIS_IDS)
def test_occurrence_masks_match_containment(basis):
    for n in range(7):
        for q, mask in _masks_by_occurrences(n, basis).items():
            assert mask == _forbidden_by_containment(list(q), basis), q


@pytest.mark.parametrize("basis, state_of, ext, child", BASES,
                         ids=BASIS_IDS)
def test_child_mask_from_parent_exhaustive(basis, state_of, ext, child):
    """For every p of length <= 7 (avoider or not) and every v, the
    state of p+v follows from that of p, and mask(p+v) =
    split(mask(p), v) | ext(state of p)[v], both masks by containment."""
    masks = {}
    for n in range(9):
        masks.update(_masks_by_occurrences(n, basis))
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            state = state_of(list(p))
            intervals = ext(state, n)
            assert len(intervals) == n + 2
            for v in range(1, n + 2):
                q = _child(list(p), v)[0]
                assert child(state, n, v) == state_of(q), (p, v)
                assert _kernels.split_mask(masks[p], v) | intervals[v] == \
                    masks[tuple(q)], (p, v)


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
    assert _kernels.split_mask(parent, v) | ext(state, n)[v] == want
    assert child(state, n, v) == state_of(q)


def test_active_backend_exposed():
    assert _kernels.BACKEND == "python"
