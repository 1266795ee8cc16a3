"""Sparse multivariate polynomials over the integers, plus the two
algebraic primitives built on them: resultants of bivariate polynomials
(integer determinants at points, then interpolation) and Newton
iteration for a power-series root.

A polynomial carries its own ordered tuple of variable names; terms map
exponent tuples to nonzero integer coefficients.  The canonical term
order is descending lexicographic on exponent tuples, which also fixes
the serialization and the leading term used for exact division.
Evaluation is sparse multivariate Horner, dense series values outermost.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Mapping

from .series import UnivariateSeries, tpoly_interpolate, tpoly_value


class NotDivisibleError(ArithmeticError):
    pass


class RamificationError(ArithmeticError):
    """Newton iteration needs a simple root at z=0; a vanishing
    t-derivative there means the branch is ramified."""


@dataclass(frozen=True)
class MultivariatePolynomial:
    """Integer polynomial in named indeterminates.

    >>> z, y = MultivariatePolynomial.variables("z", "y")
    >>> str(z * y ** 2 - y + 1)
    'z*y^2 - y + 1'
    """

    vars: tuple[str, ...]
    terms: dict  # exponent tuple -> nonzero int

    def __init__(self, vars: Iterable[str], terms: Mapping):
        vars = tuple(vars)
        clean = {}
        for expo, coef in terms.items():
            expo = tuple(expo)
            if len(expo) != len(vars):
                raise ValueError("exponent arity mismatch")
            if expo and min(expo) < 0:
                raise ValueError("negative exponent in %s" % (expo,))
            if coef:
                if int(coef) != coef:
                    raise ValueError("coefficients must be integers")
                clean[expo] = int(coef)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, vars: tuple, terms: dict) -> "MultivariatePolynomial":
        """From terms this class formed (the right arity, int
        coefficients): the zeros dropped, without the checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "vars", vars)
        object.__setattr__(out, "terms",
                           {e: c for e, c in terms.items() if c})
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, vars: Iterable[str]) -> "MultivariatePolynomial":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: Iterable[str], c: int) -> "MultivariatePolynomial":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: Iterable[str], name: str) -> "MultivariatePolynomial":
        vars = tuple(vars)
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): 1})

    @classmethod
    def variables(cls, *names: str) -> "list[MultivariatePolynomial]":
        """All generators of Z[names] at once, sharing one variable order."""
        return [cls.variable(names, n) for n in names]

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient_in(self, name: str, power: int) -> "MultivariatePolynomial":
        """The coefficient of name**power, as a polynomial in the
        remaining variables."""
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {}
        for e, c in self.terms.items():
            if e[i] == power:
                terms[e[:i] + e[i + 1:]] = c
        return MultivariatePolynomial(rest, terms)

    def lift(self, vars: Iterable[str]) -> "MultivariatePolynomial":
        """Reinterpret in a larger (or reordered) variable tuple."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(vars)
            for p, ei in zip(pos, e):
                ne[p] = ei
            terms[tuple(ne)] = c
        return MultivariatePolynomial(vars, terms)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "MultivariatePolynomial") -> None:
        if self.vars != other.vars:
            raise ValueError("variable tuples differ: %r vs %r"
                             % (self.vars, other.vars))

    def __add__(self, other):
        if isinstance(other, int):
            other = MultivariatePolynomial.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MultivariatePolynomial._of(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return MultivariatePolynomial._of(
                self.vars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultivariatePolynomial._of(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return MultivariatePolynomial.constant(self.vars, 1)
        return _power(self, k)

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultivariatePolynomial.constant(self.vars, other)
        return (isinstance(other, MultivariatePolynomial)
                and self.vars == other.vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def exact_div(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        """Exact quotient in Z[vars]; raises NotDivisibleError otherwise."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        de = max(other.terms)
        dc = other.terms[de]
        q: dict = {}
        rem = dict(self.terms)
        while rem:
            re = max(rem)
            rc = rem[re]
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe) or rc % dc:
                raise NotDivisibleError("inexact polynomial division")
            qc = rc // dc
            q[qe] = q.get(qe, 0) + qc
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(qe, e2))
                nc = rem.get(e, 0) - qc * c2
                if nc:
                    rem[e] = nc
                else:
                    rem.pop(e, None)
        return MultivariatePolynomial(self.vars, q)

    def derivative(self, name: str) -> "MultivariatePolynomial":
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                terms[ne] = terms.get(ne, 0) + c * e[i]
        return MultivariatePolynomial(self.vars, terms)

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def primitive(self) -> "MultivariatePolynomial":
        """Divide out the content and normalize the leading coefficient
        (lex order) to be positive; canonical form for guesses."""
        if not self.terms:
            return self
        g = self.content()
        if self.terms[max(self.terms)] < 0:
            g = -g
        return MultivariatePolynomial(
            self.vars, {e: c // g for e, c in self.terms.items()})

    # -- evaluation -----------------------------------------------------

    def eval(self, assignment: Mapping):
        """Substitute a value for every variable, by sparse multivariate
        Horner (Knuth, TAOCP vol. 2, 4.6.4).  Values may be ints,
        Fractions or series.

        The terms are grouped by the exponent of one variable x, each
        group's coefficient is evaluated the same way in the remaining
        variables, and the groups are combined from the top as
        acc * x^gap + inner, with x^gap by binary powering.  Series with
        two or more nonzero coefficients are taken outermost, by
        decreasing degree, because only a product with them is a full
        series product and the outermost variable is multiplied least
        often; scalars and monomial series such as z go innermost, where
        a product is a scaling or a shift.  The zero polynomial gives 0
        and a constant polynomial its coefficient, an int.

        >>> z, y = MultivariatePolynomial.variables("z", "y")
        >>> (z * y ** 2 - y + 1).eval({"z": 2, "y": 3})
        16
        >>> (z * y ** 2 - y + 1).eval({"z": 3, "y": Fraction(1, 2)})
        Fraction(5, 4)
        """
        for v in self.vars:
            if v not in assignment:
                raise KeyError("no value for variable %r" % v)
        if not self.terms:
            return 0
        values = [assignment[v] for v in self.vars]
        degrees = [max(e[i] for e in self.terms)
                   for i in range(len(self.vars))]
        order = sorted(range(len(self.vars)),
                       key=lambda i: (-_product_cost(values[i]), -degrees[i]))
        terms = [(tuple(e[i] for i in order), c)
                 for e, c in self.terms.items()]
        return _horner(terms, [values[i] for i in order], 0)

    # -- text form ------------------------------------------------------

    def _monomial(self, e: tuple[int, ...]) -> str:
        """The monomial with exponents e, as in `z*y^2`; "" for 1."""
        return "*".join(v if k == 1 else "%s^%d" % (v, k)
                        for v, k in zip(self.vars, e) if k)

    def serialize(self) -> str:
        """Term list `coef:monomial`, lex-descending, space separated.

        >>> z, y = MultivariatePolynomial.variables("z", "y")
        >>> (z * y ** 2 - y + 1).serialize()
        '1:z*y^2 -1:y 1:1'
        """
        if not self.terms:
            return "0:1"
        return " ".join("%d:%s" % (self.terms[e], self._monomial(e) or "1")
                        for e in sorted(self.terms, reverse=True))

    @classmethod
    def parse(cls, text: str, vars: Iterable[str]) -> "MultivariatePolynomial":
        """The inverse of ``serialize``.  Raises ValueError naming the
        first malformed term and its fault."""
        vars = tuple(vars)
        terms: dict = {}

        def number(s: str, what: str) -> int:
            try:
                return int(s)
            except ValueError:
                raise ValueError("term %r: %s %r is not an integer"
                                 % (token, what, s)) from None

        for token in text.split():
            coef_s, colon, mono = token.partition(":")
            if not colon:
                raise ValueError("term %r: no ':' after the coefficient"
                                 % token)
            e = [0] * len(vars)
            if mono != "1":
                for factor in mono.split("*"):
                    name, caret, k = factor.partition("^")
                    if name not in vars:
                        raise ValueError(
                            "term %r: variable %r is not in the header"
                            % (token, name))
                    power = number(k, "exponent") if caret else 1
                    if power < 0:
                        raise ValueError("term %r: exponent %r is negative"
                                         % (token, k))
                    e[vars.index(name)] += power
            e = tuple(e)
            terms[e] = terms.get(e, 0) + number(coef_s, "coefficient")
        return cls(vars, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = self._monomial(e)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%d*%s" % (abs(c), mono)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def _product_cost(value) -> int:
    """0 for a scalar, 1 for a series with at most one nonzero
    coefficient (a product with it is a scaled shift), 2 for any other
    series."""
    if isinstance(value, (int, Fraction)):
        return 0
    return 1 if sum(1 for x in value.c if x != 0) <= 1 else 2


def _power(x, k: int):
    """x^k for k >= 1 by binary powering, in O(log k) products."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def _horner(terms: list, values: list, depth: int):
    """The sum of c * prod_i values[i]^e[i] over the (e, c) in terms,
    whose exponents e agree before index ``depth``: Horner in
    values[depth] over groups of equal e[depth], recursing on each
    group."""
    if depth == len(values):
        return terms[0][1]
    groups: dict = {}
    for e, c in terms:
        groups.setdefault(e[depth], []).append((e, c))
    x = values[depth]
    keys = sorted(groups, reverse=True)
    acc = _horner(groups[keys[0]], values, depth + 1)
    for hi, lo in zip(keys, keys[1:]):
        acc = _power(x, hi - lo) * acc + _horner(groups[lo], values,
                                                 depth + 1)
    return _power(x, keys[-1]) * acc if keys[-1] else acc


def resultant(p: MultivariatePolynomial, q: MultivariatePolynomial,
              name: str) -> MultivariatePolynomial:
    """Resultant with respect to ``name`` of two polynomials in the same
    two variables: their Sylvester determinant, a polynomial in the
    other variable x.  With m and n the degrees of p and q in ``name``,
    each term of the determinant takes n entries from p and m from q, so
    its x-degree is at most n deg_x p + m deg_x q.  It is taken in
    integers at x = 0, 1, ... up to that bound, with the formal degrees
    m and n kept where a leading coefficient vanishes, and interpolated
    (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5-6).

    >>> z, y = MultivariatePolynomial.variables("z", "y")
    >>> str(resultant(y ** 2 - z, y - 3, "y"))
    '-z + 9'
    """
    if p.vars != q.vars or len(p.vars) != 2 or name not in p.vars:
        raise ValueError("resultant needs polynomials in the same two "
                         "variables, one of them %r; got (%s) and (%s)" % (
                             name, ", ".join(p.vars), ", ".join(q.vars)))
    i = p.vars.index(name)
    x = p.vars[1 - i]
    m, n = p.degree(name), q.degree(name)
    if min(m, n) < 0 or m + n == 0:
        raise ValueError("resultant needs nonzero polynomials of positive "
                         "degree in %r" % name)
    # the coefficients in ``name``, leading first, as lists in x
    pc, qc = ([[0] * (f.degree(x) + 1) for _ in range(f.degree(name) + 1)]
              for f in (p, q))
    for f, rows in ((p, pc), (q, qc)):
        for e, c in f.terms.items():
            rows[-1 - e[i]][e[1 - i]] = c
    values = []
    for v in range(n * p.degree(x) + m * q.degree(x) + 1):
        a = [tpoly_value(c, v) for c in pc]
        b = [tpoly_value(c, v) for c in qc]
        values.append(_det([[0] * k + a + [0] * (n - 1 - k)
                            for k in range(n)]
                           + [[0] * k + b + [0] * (m - 1 - k)
                              for k in range(m)]))
    return MultivariatePolynomial(
        (x,), {(k,): c for k, c in enumerate(tpoly_interpolate(values))})


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: each division by the previous pivot is exact."""
    sign, prev = 1, 1
    while len(rows) > 1:
        if not rows[0][0]:
            k = next((i for i, row in enumerate(rows) if row[0]), None)
            if k is None:
                return 0
            rows[0], rows[k] = rows[k], rows[0]
            sign = -sign
        piv, *top = rows[0]
        rows = [[(piv * a - row[0] * b) // prev
                 for a, b in zip(row[1:], top)] for row in rows[1:]]
        prev = piv
    return sign * rows[0][0]


def newton_series_root(p: MultivariatePolynomial, t0: Fraction,
                       order: int) -> UnivariateSeries:
    """The unique power series t(z) with p(z, t(z)) = 0 and t(0) = t0,
    for p in variables (z, t) with a simple root at (0, t0).

    Quadratic Newton iteration with order doubling.  Raises
    RamificationError when p_t(0, t0) = 0 (the branch would need
    fractional exponents, which this series type cannot hold).  An
    integral t0 is kept as an int, so when p has integer coefficients
    and p_t(0, t0) = +-1 every coefficient of the root is an int;
    otherwise they are exact Fractions.
    """
    if set(p.vars) != {"z", "t"}:
        raise ValueError("polynomial must be in variables z and t")
    t0 = Fraction(t0)
    if t0.denominator == 1:
        t0 = t0.numerator
    if p.eval({"z": 0, "t": t0}) != 0:
        raise ValueError("t0 is not a root of p(0, t)")
    dp = p.derivative("t")
    if dp.eval({"z": 0, "t": t0}) == 0:
        raise RamificationError("p_t vanishes at (0, t0): ramified branch")
    cur = UnivariateSeries([t0], 0)
    reached = 0
    while reached < order:
        # correct mod z^{reached+1}; one step at the doubled truncation
        # squares the error order
        reached = min(order, 2 * reached + 1)
        cur = UnivariateSeries(cur.c, reached)
        assign = {"z": UnivariateSeries.z(reached), "t": cur}
        val = p.eval(assign)
        der = dp.eval(assign)
        cur = cur - val / der
    return cur.truncate(order)
