"""Guess-and-check machinery for algebraic generating functions.

Four groups of tools:

* conjecture a minimal polynomial for a power series from its initial
  terms (exact nullspace of the linear system in the coefficients);
* verify that a polynomial annihilates given series to full order;
* extract the kernel of the slice recursion for Av(1432,2143): clear
  the functional equation over its common denominator, collect the
  linear coefficient of f(z,t), and factor out the kernel K(z,t) whose
  power-series root feeds the kernel method;
* growth rates, numeric (ratio / Richardson extrapolation) and exact
  (singularity candidates from the discriminant of a minimal
  polynomial, isolated and refined with rational arithmetic).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import class_b
from .polynomials import (MultivariatePolynomial, NotDivisibleError,
                          newton_series_root, resultant)
from .series import UnivariateSeries

GUESS_MARGIN_THRESHOLD = 10


class InsufficientDataError(ValueError):
    """Too few series terms to support a guess at the requested degree
    bounds."""


@dataclass(frozen=True)
class AlgebraicGuess:
    """A conjectured minimal polynomial P(z, y) with P(z, series) = 0
    to the full available order.  confidence_margin counts the series
    coefficients beyond the number of unknowns that the guess also
    annihilates."""

    poly: MultivariatePolynomial
    dy: int
    dz: int
    confidence_margin: int


def guess_min_poly(series: UnivariateSeries, dy: int, dz: int,
                   margin_threshold: int = GUESS_MARGIN_THRESHOLD
                   ) -> AlgebraicGuess | None:
    """Search for P(z,y), deg_y <= dy, deg_z <= dz, annihilating the
    series through its truncation order.

    Every known coefficient gives one linear equation on the (dy+1)(dz+1)
    unknown integer coefficients.  Returns None when only the zero
    polynomial fits or when the margin (equations minus unknowns) falls
    below the threshold; raises when the series is too short to reach
    the threshold at all.  Among solutions, one of minimal y-degree and
    then minimal z-degree is returned in content-free canonical form.
    """
    unknowns = (dy + 1) * (dz + 1)
    rows = series.order + 1
    if rows < unknowns + margin_threshold:
        raise InsufficientDataError(
            "need at least %d series terms for degree bounds (%d, %d), "
            "have %d" % (unknowns + margin_threshold, dy, dz, rows))
    powers = [UnivariateSeries.one(series.order)]
    for _ in range(dy):
        powers.append(powers[-1] * series)
    solution = _nullspace_vector(powers, dy, dz, rows)
    if solution is None:
        return None
    poly, adz, ady = solution
    if ady < dy or adz < dz:
        # the true degrees undershot the bounds; re-solve at the tight
        # bounds so the minimality claim is explicit
        tight = _nullspace_vector(powers, ady, adz, rows)
        if tight is not None:
            poly, adz, ady = tight
    margin = rows - (ady + 1) * (adz + 1)
    if margin < margin_threshold:
        return None
    return AlgebraicGuess(poly=poly, dy=ady, dz=adz,
                          confidence_margin=margin)


def _nullspace_vector(powers: list[UnivariateSeries], dy: int, dz: int,
                      rows: int):
    """One nullspace vector of the annihilation system, as a canonical
    polynomial, or None.  Unknown (i, j) multiplies z^j y^i."""
    cols = []
    for i in range(dy + 1):
        for j in range(dz + 1):
            cols.append((i, j))
    matrix = []
    for n in range(rows):
        row = []
        for i, j in cols:
            row.append(powers[i].c[n - j] if n >= j else 0)
        matrix.append([Fraction(x) for x in row])
    basis = _nullspace(matrix, len(cols))
    if not basis:
        return None
    vec = basis[0]
    lcm = 1
    for c in vec:
        if c:
            lcm = math.lcm(lcm, c.denominator)
    terms = {}
    ady = adz = 0
    for (i, j), c in zip(cols, vec):
        if c:
            terms[(j, i)] = int(c * lcm)
            ady = max(ady, i)
            adz = max(adz, j)
    poly = MultivariatePolynomial(("z", "y"), terms).primitive()
    return poly, adz, ady


def _nullspace(matrix: list[list[Fraction]], ncols: int
               ) -> list[list[Fraction]]:
    """Basis of the nullspace over Q, by Gaussian elimination with a
    fixed pivot rule (first nonzero in column order)."""
    m = [row[:] for row in matrix]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -m[pr][fc]
        basis.append(vec)
    return basis


def verify_annihilation(poly: MultivariatePolynomial, assignment: dict,
                        order: int) -> int:
    """z-order of the first nonzero coefficient of poly evaluated at
    the assignment (series and/or rationals), or order+1 when the
    result vanishes through the truncation.  Verification at order N
    passes iff the return value exceeds N."""
    assign = {}
    for name in poly.vars:
        value = assignment[name]
        if isinstance(value, UnivariateSeries):
            value = value.truncate(min(order, value.order))
        assign[name] = value
    value = poly.eval(assign)
    if isinstance(value, UnivariateSeries):
        return value.valuation()
    return 0 if value else order + 1


# ---------------------------------------------------------------------
# kernel extraction for the class-B recursion
# ---------------------------------------------------------------------

_KVARS = ("y0", "y1", "y2", "y3", "z", "t")
# correspondence: y0=f(z,t), y1=f(z,1), y2=f_t(z,1), y3=f(z,1/(1-z)),
# and (z, t) play the roles of x0, x1.


def _kgens():
    return MultivariatePolynomial.variables(*_KVARS)


def _factor_table() -> dict[str, MultivariatePolynomial]:
    y0, y1, y2, y3, z, t = _kgens()
    return {
        "1-t": 1 - t,
        "1-z": 1 - z,
        "1-2z": 1 - 2 * z,
        "1-tz": 1 - t * z,
        "1-(1+t)z": 1 - z - t * z,
        "1-t+tz": 1 - t + t * z,
    }


class _RationalFunction:
    """num / prod(factor^e) with factors drawn from the fixed table;
    no cancellation is attempted (the final numerator is cleaned up by
    trial division)."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultivariatePolynomial,
                 den: dict | None = None):
        self.num = num
        self.den = {k: v for k, v in (den or {}).items() if v}

    def __mul__(self, other: "_RationalFunction") -> "_RationalFunction":
        den = dict(self.den)
        for k, v in other.den.items():
            den[k] = den.get(k, 0) + v
        return _RationalFunction(self.num * other.num, den)

    def __add__(self, other: "_RationalFunction") -> "_RationalFunction":
        table = _factor_table()
        den = dict(self.den)
        for k, v in other.den.items():
            den[k] = max(den.get(k, 0), v)
        a, b = self.num, other.num
        for k, v in den.items():
            a = a * table[k] ** (v - self.den.get(k, 0))
            b = b * table[k] ** (v - other.den.get(k, 0))
        return _RationalFunction(a + b, den)

    def __sub__(self, other: "_RationalFunction") -> "_RationalFunction":
        return self + _RationalFunction(-other.num, other.den)


@dataclass(frozen=True)
class KernelDecomposition:
    """P = K*y0 + R with K free of y0..y3.  cofactor is K divided by
    its displayed factored form (1-2z)(1-z) m1 m2; a transcription
    error anywhere makes the division fail instead of yielding a unit.
    """

    P: MultivariatePolynomial
    K: MultivariatePolynomial
    R: MultivariatePolynomial
    cofactor: MultivariatePolynomial


def m1_poly() -> MultivariatePolynomial:
    """1 - z - t + t^2 z - t^2 z^2, the minimal polynomial of the
    unramified kernel root t1(z)."""
    z, t = MultivariatePolynomial.variables("z", "t")
    return 1 - z - t + t ** 2 * z - t ** 2 * z ** 2


def m2_poly() -> MultivariatePolynomial:
    """The quartic-in-t minimal polynomial of the two ramified kernel
    roots."""
    z, t = MultivariatePolynomial.variables("z", "t")
    return (1 - z - 2 * t + 2 * t * z + t ** 2 + t ** 2 * z
            - 3 * t ** 2 * z ** 2 - 2 * t ** 3 * z + 2 * t ** 2 * z ** 3
            + 2 * t ** 3 * z ** 2 + t ** 4 * z ** 2 - t ** 4 * z ** 3)


def kernel_poly() -> MultivariatePolynomial:
    """K(z,t) = (1-2z)(1-z) m1(z,t) m2(z,t), expanded."""
    z, t = MultivariatePolynomial.variables("z", "t")
    return (1 - 2 * z) * (1 - z) * m1_poly() * m2_poly()


def kernel_extract() -> KernelDecomposition:
    """Clear the class-B functional equation over its common
    denominator and split off the coefficient of y0 = f(z,t).

    The equation, with the monomial operators summed in closed form
    (divided differences in t; see class_b for the operator versions):

        y0 = 1 + s(z,t) (y1 - t y0)/(1-t)
               + p ((1-t) y2 - t y1 + t y0)/(1-t)^2
               + (tz/(1-tz)) (z/(1-2z)) [-(1-z)/(1-t+tz)]
                   [t (y1 - y0)/(1-t) - (y3 - y1)]

    where p = t^2 z^4/((1-z)^2 (1-tz)(1-(1+t)z)) and s is the
    single-slice series' closed form.  The numerator P is linear in
    y0..y3 and its y0-coefficient is divisible by the kernel K.
    """
    y0, y1, y2, y3, z, t = _kgens()
    one = MultivariatePolynomial.constant(_KVARS, 1)

    def rf(num, **den):
        names = {"t1": "1-t", "z1": "1-z", "z2": "1-2z", "tz": "1-tz",
                 "pz": "1-(1+t)z", "ttz": "1-t+tz"}
        return _RationalFunction(num, {names[k]: v for k, v in den.items()})

    s = (rf(z, tz=1) + rf(t * z ** 3, z2=1, tz=2)
         + rf(t ** 2 * z ** 5, z1=2, tz=2, pz=1))
    psi_pref = rf(t ** 2 * z ** 4, z1=2, tz=1, pz=1)
    g_a = s * rf(y1 - t * y0, t1=1)
    g_b = psi_pref * rf((1 - t).lift(_KVARS) * y2 - t * y1 + t * y0, t1=2)
    lam_t = rf(z * (y1 - y0) * t, z2=1, t1=1)
    lam_u = rf(y3 - y1, z2=1)
    g_c = rf(t * z, tz=1) * rf(-(1 - z).lift(_KVARS), ttz=1) * (lam_t - lam_u)
    lhs = _RationalFunction(y0) - _RationalFunction(one) - g_a - g_b - g_c
    p = lhs.num.primitive()
    p = _strip_spurious_factors(p)
    for name in ("y0", "y1", "y2", "y3"):
        if p.degree(name) != 1:
            raise ArithmeticError("P is not linear in %s" % name)
    k_coeff = p.coefficient_in("y0", 1)
    for name in ("y1", "y2", "y3"):
        if k_coeff.degree(name) > 0:
            raise ArithmeticError("y0-coefficient involves %s" % name)
    k_zt = k_coeff.eval_univariate({"y1": 0, "y2": 0, "y3": 0})
    cofactor = k_zt.exact_div(kernel_poly())  # raises if transcription wrong
    r = p - k_coeff.lift(_KVARS) * MultivariatePolynomial.variable(_KVARS,
                                                                   "y0")
    if r.degree("y0") > 0:
        raise ArithmeticError("remainder still involves y0")
    return KernelDecomposition(P=p, K=k_zt, R=r, cofactor=cofactor)


def _strip_spurious_factors(p: MultivariatePolynomial
                            ) -> MultivariatePolynomial:
    """Divide out denominator factors the common-denominator pass left
    in all terms (the representation never cancels)."""
    table = _factor_table()
    changed = True
    while changed:
        changed = False
        for factor in table.values():
            try:
                q = p.exact_div(factor)
            except NotDivisibleError:
                continue
            p = q
            changed = True
    return p.primitive()


def kernel_root_check(n_max: int,
                      state: "class_b.ClassBState | None" = None) -> dict:
    """Compute the kernel root t1(z) and verify the annihilations the
    kernel method rests on.  Returns a report dict with the residual
    orders; each check passes when its residual order exceeds n_max
    (t1 itself) resp. stays within the documented truncation loss (R).
    """
    t1 = newton_series_root(m1_poly(), Fraction(1), n_max)
    zs = UnivariateSeries.z(n_max)
    m1_res = m1_poly().eval({"z": zs, "t": t1}).valuation()
    k_res = kernel_poly().eval({"z": zs, "t": t1}).valuation()
    report = {
        "t1": t1,
        "m1_residual_order": m1_res,
        "kernel_residual_order": k_res,
        "order": n_max,
    }
    if state is not None:
        if state.order < n_max:
            raise ValueError("state order below requested check order")
        decomp = kernel_extract()
        f1, ft1, frecip = class_b.auxiliary_series(state)
        assignment = {"y1": f1.truncate(n_max), "y2": ft1.truncate(n_max),
                      "y3": frecip.truncate(n_max), "z": zs, "t": t1}
        r_zt = decomp.R.eval_univariate({"y0": 0})
        report["r_residual_order"] = r_zt.eval(assignment).valuation()
        p_full = decomp.P.eval(
            dict(assignment,
                 y0=state.f.subst_t(t1).truncate(n_max)))
        report["p_residual_order"] = p_full.valuation()
    return report


# ---------------------------------------------------------------------
# growth rates
# ---------------------------------------------------------------------

def growth_estimate(counts: list[int], mode: str = "extrapolated") -> float:
    """Numeric growth-rate estimate from a counting sequence.

    ratio mode: c_N / c_{N-1}.  extrapolated mode: one Richardson step
    against a 1/n correction, N r_N - (N-1) r_{N-1}, appropriate for
    ratios converging like gamma (1 + alpha/n).

    >>> growth_estimate([2 ** n for n in range(12)], "ratio")
    2.0
    >>> growth_estimate([2 ** n for n in range(12)], "extrapolated")
    2.0
    """
    nz = [c for c in counts if c]
    if len(nz) < 10:
        raise ValueError("need at least 10 nonzero terms")
    n = len(counts) - 1
    r_n = counts[n] / counts[n - 1]
    if mode == "ratio":
        return r_n
    if mode != "extrapolated":
        raise ValueError("mode must be 'ratio' or 'extrapolated'")
    r_prev = counts[n - 1] / counts[n - 2]
    return n * r_n - (n - 1) * r_prev


def growth_exact(minpoly: MultivariatePolynomial) -> list[float]:
    """Positive real singularity candidates of the algebraic function
    defined by minpoly(z, y) = 0: roots of the y-discriminant and of
    the leading y-coefficient.  A y-free polynomial is treated as a
    direct root-finding problem in z.

    >>> z, y = MultivariatePolynomial.variables("z", "y")
    >>> growth_exact(y * (1 - z) - 1)
    [1.0]
    """
    dy = minpoly.degree("y") if "y" in minpoly.vars else 0
    if dy <= 0:
        target = minpoly if len(minpoly.vars) == 1 else \
            minpoly.coefficient_in("y", 0)
        candidates = _positive_roots(_z_coeffs(target))
    else:
        disc = discriminant_in_z(minpoly)
        lead = minpoly.coefficient_in("y", dy)
        candidates = _positive_roots(_z_coeffs(disc))
        candidates += _positive_roots(_z_coeffs(lead))
    out = sorted(set(round(c, 12) for c in candidates))
    return out


def discriminant_in_z(minpoly: MultivariatePolynomial
                      ) -> MultivariatePolynomial:
    """The y-resultant of minpoly and its y-derivative, for exact
    vanishing checks at rational points."""
    return resultant(minpoly, minpoly.derivative("y"), "y")


def reported_growth(minpoly: MultivariatePolynomial,
                    counts: list[int], tolerance: float = 0.25) -> float:
    """The reciprocal of the smallest singularity candidate consistent
    with the numeric estimate from the counting sequence."""
    estimate = growth_estimate(counts, "extrapolated")
    for cand in growth_exact(minpoly):
        if cand > 0 and abs(1.0 / cand - estimate) <= tolerance * estimate:
            return 1.0 / cand
    raise ArithmeticError("no singularity candidate matches the estimate")


def _z_coeffs(p: MultivariatePolynomial) -> list[Fraction]:
    """Coefficient list of a univariate polynomial (any single-variable
    MultivariatePolynomial)."""
    if len(p.vars) != 1:
        live = [v for v in p.vars if p.degree(v) > 0]
        if len(live) > 1:
            raise ValueError("polynomial is not univariate")
        name = live[0] if live else p.vars[0]
        p = p.eval_univariate({v: 0 for v in p.vars if v != name})
    out = [Fraction(0)] * (p.total_degree() + 1)
    for e, c in p.terms.items():
        out[e[0]] = Fraction(c)
    return out


def _positive_roots(coeffs: list[Fraction]) -> list[float]:
    """Positive real roots of a rational-coefficient polynomial,
    isolated by recursion on the derivative (the polynomial is
    monotonic between derivative roots) and refined by bisection to
    1e-9, then polished with float Newton on the squarefree part, where
    every root is simple and Newton converges quadratically."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)  # drop root at z = 0; not positive
    if len(coeffs) <= 1:
        return []
    sq = _squarefree(coeffs)
    bound = 1 + max(abs(c) for c in sq[:-1]) / abs(sq[-1])
    roots = _roots_between(sq, Fraction(0), Fraction(bound))
    return [_polish(sq, r) for r in roots if r > 0]


def _horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deriv(coeffs: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_div(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    a = a[:]
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        q[len(a) - len(b)] = f
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    return q


def _squarefree(coeffs: list[Fraction]) -> list[Fraction]:
    g = _poly_gcd(coeffs, _deriv(coeffs))
    if len(g) <= 1:
        return coeffs
    return _poly_div(coeffs, g)


def _roots_between(coeffs: list[Fraction], lo: Fraction,
                   hi: Fraction) -> list[Fraction]:
    """All roots in [lo, hi]; the polynomial is made squarefree first
    so a root can coincide with a derivative root only at lo."""
    coeffs = _squarefree(coeffs)
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        root = -coeffs[0] / coeffs[1]
        return [root] if lo <= root <= hi else []
    breaks = sorted({lo, hi, *_roots_between(_deriv(coeffs), lo, hi)})
    roots = []
    if _horner(coeffs, lo) == 0:
        roots.append(lo)
    for a, b in zip(breaks, breaks[1:]):
        fa, fb = _horner(coeffs, a), _horner(coeffs, b)
        if fb == 0:
            roots.append(b)
        elif fa and (fa > 0) != (fb > 0):
            roots.append(_bisect(coeffs, a, b, fa))
    return sorted(set(roots))


def _bisect(coeffs: list[Fraction], a: Fraction, b: Fraction,
            fa: Fraction) -> Fraction:
    target = Fraction(1, 10 ** 9)
    while b - a > target:
        mid = (a + b) / 2
        fm = _horner(coeffs, mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return (a + b) / 2


def _polish(coeffs: list[Fraction], x: Fraction) -> float:
    cf = [float(c) for c in coeffs]
    df = [float(c) for c in _deriv(coeffs)]
    xf = float(x)
    for _ in range(4):
        d = _fhorner(df, xf)
        if d == 0:
            break
        xf -= _fhorner(cf, xf) / d
    return xf


def _fhorner(cf: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(cf):
        acc = acc * x + c
    return acc
