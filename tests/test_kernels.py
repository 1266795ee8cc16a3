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


def test_active_backend_exposed():
    assert _kernels.BACKEND == "python"
