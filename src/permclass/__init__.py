"""Exact-arithmetic enumeration of Av(2413,3412) and Av(1432,2143).

Three layers: an oracle that counts the avoiders by walking their
generating tree by labels, building no permutation (``oracle``),
polynomial-time counters iterating the classes' functional equations
(``class_a``, ``class_b``), and guess-and-check algebra on the
resulting series (``algebraic``), all over exact integers and
rationals.  The ``permclass`` console script fronts the common
workflows.
"""

__version__ = "0.1.0"

__all__ = [
    "perms", "oracle", "series", "polynomials", "class_a", "class_b",
    "algebraic", "fixtures",
]
