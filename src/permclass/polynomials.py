"""Sparse multivariate polynomials over the integers, plus the two
algebraic primitives built on them: Sylvester resultants (fraction-free)
and Newton iteration for a power-series root.

A polynomial carries its own ordered tuple of variable names; terms map
exponent tuples to nonzero integer coefficients.  The canonical term
order is descending lexicographic on exponent tuples, which also fixes
the serialization and the leading term used for exact division.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .series import UnivariateSeries


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
        return MultivariatePolynomial(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultivariatePolynomial(
            self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultivariatePolynomial.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return MultivariatePolynomial(
                self.vars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultivariatePolynomial(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MultivariatePolynomial.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultivariatePolynomial.constant(self.vars, other)
        return (isinstance(other, MultivariatePolynomial)
                and self.vars == other.vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """(exponent, coefficient) of the lex-largest term."""
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        """Exact quotient in Z[vars]; raises NotDivisibleError otherwise."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        de, dc = other.leading_term()
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
        """Substitute a value for every variable.  Values may be ints,
        Fractions, or series objects (anything supporting + and * with
        itself and with ints); powers are cached per variable."""
        for v in self.vars:
            if v not in assignment:
                raise KeyError("no value for variable %r" % v)
        caches: list[list] = [[1, assignment[v]] for v in self.vars]

        def power(i: int, k: int):
            cache = caches[i]
            while len(cache) <= k:
                cache.append(cache[-1] * cache[1])
            return cache[k]

        total = 0
        for e, c in sorted(self.terms.items()):
            term = c
            for i, k in enumerate(e):
                if k:
                    term = power(i, k) * term
            total = total + term
        return total

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
        vars = tuple(vars)
        terms: dict = {}
        for token in text.split():
            coef_s, mono = token.split(":", 1)
            e = [0] * len(vars)
            if mono != "1":
                for factor in mono.split("*"):
                    if "^" in factor:
                        name, k = factor.split("^")
                        e[vars.index(name)] += int(k)
                    else:
                        e[vars.index(factor)] += 1
            e = tuple(e)
            terms[e] = terms.get(e, 0) + int(coef_s)
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


def sylvester_matrix(p: MultivariatePolynomial, q: MultivariatePolynomial,
                     name: str) -> list[list[MultivariatePolynomial]]:
    """Sylvester matrix of p, q with respect to one variable; entries
    are polynomials in the remaining variables."""
    m, n = p.degree(name), q.degree(name)
    if m <= 0 and n <= 0:
        raise ValueError("resultant needs positive degree in %r" % name)
    pc = [p.coefficient_in(name, m - i) for i in range(m + 1)]
    qc = [q.coefficient_in(name, n - i) for i in range(n + 1)]
    size = m + n
    zero = MultivariatePolynomial.zero(pc[0].vars)
    rows = []
    for i in range(n):
        rows.append([zero] * i + pc + [zero] * (n - 1 - i))
    for i in range(m):
        rows.append([zero] * i + qc + [zero] * (m - 1 - i))
    assert all(len(r) == size for r in rows)
    return rows


def _bareiss_det(m: list[list[MultivariatePolynomial]]) -> MultivariatePolynomial:
    """Fraction-free determinant; all divisions are exact in Z[vars]."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    vars = m[0][0].vars
    one = MultivariatePolynomial.constant(vars, 1)
    m = [row[:] for row in m]
    sign = 1
    prev = one
    for r in range(n - 1):
        if m[r][r].is_zero():
            for i in range(r + 1, n):
                if not m[i][r].is_zero():
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                return MultivariatePolynomial.zero(vars)
        piv = m[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = piv * m[i][j] - m[i][r] * m[r][j]
                m[i][j] = num.exact_div(prev)
            m[i][r] = MultivariatePolynomial.zero(vars)
        prev = piv
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(p: MultivariatePolynomial, q: MultivariatePolynomial,
              name: str) -> MultivariatePolynomial:
    """Resultant with respect to ``name``: the Sylvester determinant, a
    polynomial in the remaining variables.

    >>> z, y = MultivariatePolynomial.variables("z", "y")
    >>> str(resultant(y ** 2 - z, y - 3, "y"))
    '-z + 9'
    """
    return _bareiss_det(sylvester_matrix(p, q, name))


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
