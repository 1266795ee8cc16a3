"""Guess-and-check machinery for algebraic generating functions.

Four groups of tools:

* conjecture a minimal polynomial for a power series from its initial
  terms (the first kernel vector of the linear system in the
  coefficients, by elimination mod p, CRT, rational reconstruction and
  an exact check over Z);
* verify that a polynomial annihilates given series at the series'
  own order;
* extract the kernel of the slice recursion for Av(1432,2143): clear
  the functional equation over its common denominator, collect the
  linear coefficient of f(z,t), and factor out the kernel K(z,t) whose
  power-series root feeds the kernel method;
* growth rates, numeric (ratio / Richardson extrapolation) and exact
  (singularity candidates from the discriminant of a minimal
  polynomial, bracketed by sign tests and bisection in integers on a
  grid of step 2^-50; floats appear only in the final division).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .polynomials import MultivariatePolynomial, newton_series_root, resultant
from .series import UnivariateSeries, tpoly_value

GUESS_MARGIN_THRESHOLD = 10
GROWTH_TOLERANCE = 0.25
# growth_exact brackets each root in a cell of width 2^-_GRID_BITS; the
# class-B root 5.63175953882542668... is 7.3e-14 below a boundary of its
# 12-place rounding, so 2^-44 would be too coarse
_GRID_BITS = 50
# the 62-bit primes 2^62 - d for guessing by elimination mod p, tried in
# order; MAX_PRIMES caps how many one guess may use
_PRIMES = tuple((1 << 62) - d for d in (57, 87, 117, 143, 153, 167, 171, 195))
MAX_PRIMES = len(_PRIMES)


class InsufficientDataError(ValueError):
    """Too few series terms to support a guess at the requested degree
    bounds."""


class PrimeBudgetError(ArithmeticError):
    """MAX_PRIMES primes gave no kernel vector that passes the exact
    check over Z."""

    def __init__(self, primes: int):
        super().__init__("no kernel vector passed the exact check over Z "
                         "after %d prime%s" % (primes, "s" * (primes != 1)))
        self.primes = primes


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


def guess_min_poly(series: UnivariateSeries, dy: int,
                   dz: int) -> AlgebraicGuess | None:
    """Search for P(z,y), deg_y <= dy, deg_z <= dz, annihilating the
    series through its truncation order.

    Every known coefficient gives one linear equation on the (dy+1)(dz+1)
    unknown integer coefficients, solved by elimination mod p, CRT,
    rational reconstruction and an exact check over Z (see
    _kernel_vector).  Returns None when only the zero polynomial fits;
    raises InsufficientDataError when the series is too short for a
    margin (equations minus unknowns) of GUESS_MARGIN_THRESHOLD, and
    PrimeBudgetError when MAX_PRIMES primes give no candidate that
    passes the exact check.  Among solutions, one of minimal y-degree
    and then minimal z-degree is returned in content-free canonical
    form.
    """
    if dy < 0 or dz < 0:
        raise ValueError("degree bounds must be >= 0, got dy=%d, dz=%d"
                         % (dy, dz))
    unknowns = (dy + 1) * (dz + 1)
    rows = series.order + 1
    if rows < unknowns + GUESS_MARGIN_THRESHOLD:
        raise InsufficientDataError(
            "need series order at least %d for degree bounds (%d, %d), "
            "have order %d" % (unknowns + GUESS_MARGIN_THRESHOLD - 1, dy, dz,
                               series.order))
    powers = [UnivariateSeries.one(series.order)]
    for _ in range(dy):
        powers.append(powers[-1] * series)
    solution = _nullspace_vector(powers, dy, dz, rows)
    if solution is None:
        return None
    # the columns at the tight bounds (ady, adz) keep their order, so the
    # vector is also the first kernel vector there; they are no more than
    # the unknowns, so the margin is at least GUESS_MARGIN_THRESHOLD
    poly, adz, ady = solution
    return AlgebraicGuess(poly=poly, dy=ady, dz=adz,
                          confidence_margin=rows - (ady + 1) * (adz + 1))


def _nullspace_vector(powers: list[UnivariateSeries], dy: int, dz: int,
                      rows: int):
    """(poly, deg_z, deg_y): the first kernel vector of the
    annihilation system as a canonical polynomial and its degrees, or
    None.  Unknown (i, j) multiplies z^j y^i; the columns run y-degree
    major, so the first kernel vector has minimal y-degree and then
    minimal z-degree."""
    cols = [(i, j) for i in range(dy + 1) for j in range(dz + 1)]
    matrix = []
    for n in range(rows):
        row = [powers[i].c[n - j] if n >= j else 0 for i, j in cols]
        den = math.lcm(*(x.denominator for x in row))
        matrix.append([x.numerator * (den // x.denominator) for x in row])
    vec = _kernel_vector(matrix, len(cols))
    if vec is None:
        return None
    poly = MultivariatePolynomial(
        ("z", "y"), {(j, i): c for (i, j), c in zip(cols, vec)}).primitive()
    return poly, poly.degree("z"), poly.degree("y")


def _kernel_vector(matrix: list[list[int]], ncols: int) -> list[int] | None:
    """The first kernel vector over Q of an integer matrix, as a
    primitive integer vector with a positive last nonzero entry, or None
    when the columns are independent.

    "First" means the one whose last nonzero column fc is smallest: the
    kernel vector a Gauss-Jordan reduction over Q reads off its first
    free column.  Each prime p gives fc_p <= fc (the primitive vector
    reduces to a nonzero kernel vector mod p), so only the primes with
    the largest fc_p so far are kept.  Their vectors are combined by
    CRT and rationally reconstructed; a candidate is accepted only if
    it annihilates every row exactly over Z.  Columns before fc are
    then independent over Q, so the vector is the one over Q.
    """
    best = -1
    residues: list[int] = []
    modulus = 1
    primes = _PRIMES[:MAX_PRIMES]
    for p in primes:
        found = _kernel_vector_mod(matrix, ncols, p)
        if found is None:
            return None     # full column rank mod p, hence over Q
        fc, vec = found
        if fc < best:
            continue        # unlucky prime
        if fc > best:
            best, residues, modulus = fc, vec, p
        else:
            inv = pow(modulus, -1, p)
            residues = [a + modulus * ((b - a) * inv % p)
                        for a, b in zip(residues, vec)]
            modulus *= p
        candidate = _reconstruct(residues, modulus)
        if candidate is not None and all(
                sum(a * b for a, b in zip(row, candidate)) == 0
                for row in matrix):
            return candidate
    raise PrimeBudgetError(len(primes))


def _kernel_vector_mod(matrix: list[list[int]], ncols: int, p: int
                       ) -> tuple[int, list[int]] | None:
    """(fc, v): the first free column of the matrix mod p and its kernel
    vector, v[fc] = 1 and zero beyond fc; None at full column rank.

    Forward elimination, pivoting on the first row with a nonzero entry;
    rows are stored reversed so the current column is the last entry and
    is popped once eliminated.  Every column before fc is a pivot, so
    back substitution through the pivot rows gives v."""
    active = [[x % p for x in reversed(row)] for row in matrix]
    echelon = []            # pivot row of column k, normalised, reversed
    for c in range(ncols):
        for idx, row in enumerate(active):
            if row[-1]:
                break
        else:
            vec = [0] * ncols
            vec[c] = 1
            for k in range(c - 1, -1, -1):
                prow = echelon[k]
                vec[k] = -sum(prow[ncols - 1 - j] * vec[j]
                              for j in range(k + 1, c + 1)) % p
            return c, vec
        prow = active.pop(idx)
        inv = pow(prow[-1], -1, p)
        prow = [x * inv % p for x in prow]
        echelon.append(prow)
        for i, row in enumerate(active):
            f = row.pop()
            if f:
                active[i] = [(a - f * b) % p for a, b in zip(row, prow)]
    return None


def _reconstruct(residues: list[int], modulus: int) -> list[int] | None:
    """The integer vector proportional to the rationals r/s with
    |r|, |s| <= sqrt(modulus / 2) and s prime to the modulus congruent
    to the residues, scaled by the lcm of the denominators; None if some
    entry has no such r/s."""
    bound = math.isqrt(modulus // 2)
    fracs = []
    for a in residues:
        r0, r1, s0, s1 = modulus, a, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        if abs(s1) > bound or math.gcd(s1, modulus) != 1:
            return None
        fracs.append(Fraction(r1, s1))
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs]


def verify_annihilation(poly: MultivariatePolynomial, assignment: dict) -> int:
    """z-order of the first nonzero coefficient of poly evaluated at
    the assignment (series and/or rationals), or N+1 when the value
    vanishes through its truncation order N, the smallest order among
    the series it is built from.  Verification at order N passes iff
    the return value exceeds N.  Raises ValueError when the value is
    not a series, as for a constant or the zero polynomial."""
    value = poly.eval(assignment)
    if not isinstance(value, UnivariateSeries):
        raise ValueError("the polynomial's value is %r, not a series"
                         % (value,))
    return value.valuation()


# ---------------------------------------------------------------------
# kernel extraction for the class-B recursion
# ---------------------------------------------------------------------

_KVARS = ("y0", "y1", "y2", "y3", "z", "t")
# y0=f(z,t), y1=f(z,1), y2=f_t(z,1), y3=f(z,1/(1-z)), and (z, t) play
# the roles of x0, x1; kernel_root_check builds y1..y3 from f.


@dataclass(frozen=True)
class KernelDecomposition:
    """P = K*y0 + R with K free of y0..y3, where P is the class-B
    functional equation cleared over its least common denominator.
    cofactor is K divided by its displayed factored form
    (1-2z)(1-z) m1 m2 (kernel_poly); a transcription error anywhere
    makes the division fail or leaves a non-constant cofactor.
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
    """Clear the class-B functional equation over its least common
    denominator and split off the coefficient of y0 = f(z,t).

    The equation, with the monomial operators summed in closed form
    (divided differences in t; see class_b for the operator versions):

        y0 = 1 + s(z,t) (y1 - t y0)/(1-t)
               + p ((1-t) y2 - t y1 + t y0)/(1-t)^2
               + (tz/(1-tz)) (z/(1-2z)) [-(1-z)/(1-t+tz)]
                   [t (y1 - y0)/(1-t) - (y3 - y1)]

    where p = t^2 z^4/((1-z)^2 (1-tz)(1-(1+t)z)) and
    s = z/(1-tz) + t z^3/((1-2z)(1-tz)^2)
        + t^2 z^5/((1-z)^2 (1-tz)^2 (1-(1+t)z)).
    y0 minus the right-hand side is written as seven terms, each a
    numerator over a product of factors from one table; the numerator
    over the per-factor maximum exponents, made primitive, is P.  P is
    linear in y0..y3 and its y0-coefficient is the kernel K.
    """
    y0, y1, y2, y3, z, t = MultivariatePolynomial.variables(*_KVARS)
    factors = {"t1": 1 - t, "z1": 1 - z, "z2": 1 - 2 * z, "tz": 1 - t * z,
               "pz": 1 - z - t * z, "ttz": 1 - t + t * z}
    a = y1 - t * y0
    b = (1 - t) * y2 - t * y1 + t * y0
    c = (1 - z) * t * z
    terms = [
        (y0 - 1, {}),
        (-z * a, {"tz": 1, "t1": 1}),
        (-t * z ** 3 * a, {"z2": 1, "tz": 2, "t1": 1}),
        (-t ** 2 * z ** 5 * a, {"z1": 2, "tz": 2, "pz": 1, "t1": 1}),
        (-t ** 2 * z ** 4 * b, {"z1": 2, "tz": 1, "pz": 1, "t1": 2}),
        (c * z * t * (y1 - y0), {"tz": 1, "ttz": 1, "z2": 1, "t1": 1}),
        (-c * (y3 - y1), {"tz": 1, "ttz": 1, "z2": 1}),
    ]
    lcd = {name: max(den.get(name, 0) for _, den in terms)
           for name in factors}
    p = MultivariatePolynomial.zero(_KVARS)
    for num, den in terms:  # one product of num with its y-free multiplier
        p = p + num * math.prod(factors[name] ** (e - den.get(name, 0))
                                for name, e in lcd.items())
    p = p.primitive()
    if (any(sum(e[:4]) > 1 for e in p.terms)
            or not all(any(e[i] for e in p.terms) for i in range(4))):
        raise ArithmeticError("P is not linear in y0..y3")
    k = MultivariatePolynomial(_KVARS[4:], {e[4:]: c for e, c in
                                            p.terms.items() if e[0]})
    cofactor = k.exact_div(kernel_poly())  # raises if transcription wrong
    r = p - k.lift(_KVARS) * y0
    return KernelDecomposition(P=p, K=k, R=r, cofactor=cofactor)


def kernel_root_check(state) -> tuple[dict, MultivariatePolynomial]:
    """Compute the kernel root t1(z) and verify the annihilations the
    kernel method rests on, at the order N of ``state``, a class-B
    state read through ``.f`` (f(z,t)) and ``.order``.  Returns
    (residuals, cofactor): the four residual orders (as
    verify_annihilation gives them, of m1, K, R and P at one
    assignment: t = t1, y0 = f(z, t1) and y1..y3 the specializations
    f(z,1), f_t(z,1) and f(z,1/(1-z)), built here), keyed as
    ``kernel-check`` reports them, each of which exceeds N when its
    check passes, and the cofactor of the kernel decomposition.
    P = K*y0 + R, so P's value is K's times y0 plus R's.  y0 = f(z,t1),
    one series product per t-degree of f, is formed only when K's
    residual is at most N: at a root of K, K*y0 vanishes through z^N,
    and y0, of which R is free, is set to 0.
    """
    t1 = newton_series_root(m1_poly(), Fraction(1), state.order)
    decomp = kernel_extract()
    f = state.f
    *cols, y3 = [col.c for col in f.columns()]
    for col in reversed(cols):  # Horner; times 1/(1-z) is a running sum
        y3 = [s + x for s, x in zip(accumulate(y3), col)]
    at = {"y1": f.subst_t(1), "y2": f.deriv_t_at_1(),
          "y3": UnivariateSeries(y3, f.order),
          "z": UnivariateSeries.z(state.order), "t": t1}
    k_at = decomp.K.eval(at)
    at["y0"] = 0 if k_at.valuation() > state.order else f.subst_t(t1)
    r_at = decomp.R.eval(at)
    p_at = k_at * at["y0"] + r_at
    residuals = {"m1_residual_order": verify_annihilation(m1_poly(), at),
                 "kernel_residual_order": k_at.valuation(),
                 "r_residual_order": r_at.valuation(),
                 "p_residual_order": p_at.valuation()}
    return residuals, decomp.cofactor


# ---------------------------------------------------------------------
# growth rates
# ---------------------------------------------------------------------

def growth_estimate(counts: list[int]) -> tuple[float, float]:
    """Numeric growth-rate estimates from a counting sequence c_0..c_N:
    (ratio, extrapolated).

    ratio: r_N = c_N / c_{N-1}.  extrapolated: one Richardson step
    against a 1/n correction, N r_N - (N-1) r_{N-1}, appropriate for
    ratios converging like gamma (1 + alpha/n).

    >>> growth_estimate([2 ** n for n in range(12)])
    (2.0, 2.0)
    """
    nz = [c for c in counts if c]
    if len(nz) < 10:
        raise ValueError("need at least 10 nonzero terms")
    n = len(counts) - 1
    r_n = counts[n] / counts[n - 1]
    r_prev = counts[n - 1] / counts[n - 2]
    return r_n, n * r_n - (n - 1) * r_prev


def growth_exact(minpoly: MultivariatePolynomial) -> list[float]:
    """Positive real singularity candidates of the algebraic function
    defined by minpoly(z, y) = 0: roots of the y-discriminant and of
    the leading y-coefficient.  A polynomial in z alone is treated as a
    direct root-finding problem.  Each root is reported as the grid
    point 2^-_GRID_BITS at or below it (see _positive_roots), rounded to
    12 places.

    >>> z, y = MultivariatePolynomial.variables("z", "y")
    >>> growth_exact(y * (1 - z) - 1)
    [1.0]
    """
    dy = minpoly.degree("y") if "y" in minpoly.vars else 0
    if dy <= 0:
        candidates = _positive_roots(_z_coeffs(minpoly))
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


def reported_growth(rates: list[float], estimate: float) -> float:
    """The candidate growth rate nearest the numeric estimate; raises
    ArithmeticError unless it lies within GROWTH_TOLERANCE (relative)
    of the estimate."""
    best = min(rates, key=lambda rate: abs(rate - estimate))
    if abs(best - estimate) > GROWTH_TOLERANCE * estimate:
        raise ArithmeticError("no growth candidate matches the estimate")
    return best


def _z_coeffs(p: MultivariatePolynomial) -> list[int]:
    """Coefficient list of a polynomial in one variable, no trailing zeros."""
    if len(p.vars) != 1:
        raise ValueError("expected a polynomial in one variable, got %s"
                         % ", ".join(p.vars))
    out = [0] * (p.total_degree() + 1)
    for e, c in p.terms.items():
        out[e[0]] = c
    return out


def _positive_roots(coeffs: list[int]) -> list[float]:
    """Positive real roots of an integer polynomial, each to within one
    step of the grid 2^-_GRID_BITS below it.

    The squarefree part p (degree d), where every root is a sign change,
    is scaled to Q(a) = 2^(_GRID_BITS d) p(a / 2^_GRID_BITS), which has
    integer coefficients; its roots in [0, Cauchy bound) are bracketed
    in ints by _roots_between.  A root that is a grid point, such as
    5/32, is found exactly; one within one grid step of an extremum of
    p, or of one of its derivatives, can be missed."""
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)  # drop root at z = 0; not positive
    if len(coeffs) <= 1:
        return []
    sq = _squarefree(coeffs)
    d = len(sq) - 1
    scaled = [c << (_GRID_BITS * (d - i)) for i, c in enumerate(sq)]
    one = 1 << _GRID_BITS
    bound = one - (-max(abs(c) for c in sq[:-1]) * one // abs(sq[-1]))
    return [a / one for a in _roots_between(scaled, 0, bound)]


def _deriv(coeffs: list) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _primitive(coeffs: list[int]) -> list[int]:
    """coeffs divided by their content, the gcd of the coefficients."""
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs] if g else coeffs


def _pseudo_divmod(a: list[int], b: list[int]
                   ) -> tuple[list[int], list[int]]:
    """Pseudo-division in Z[x]: (q, r) with lc(b)^k a = q b + r for
    k = deg a - deg b + 1, deg r < deg b and r without trailing zeros."""
    lead, db = b[-1], len(b) - 1
    a, q = a[:], []
    while len(a) > db:
        top = a.pop()
        a = [lead * x for x in a]
        q = [lead * x for x in q] + [top]
        shift = len(a) - db
        for i, x in enumerate(b[:-1]):
            a[shift + i] -= top * x
    while a and not a[-1]:
        a.pop()
    return q[::-1], a


def _squarefree(coeffs: list[int]) -> list[int]:
    """The primitive part of coeffs / gcd(coeffs, coeffs'): the same
    roots, each simple.  The gcd is the last term of the primitive
    remainder sequence over Z, each term the primitive part of the
    pseudo-remainder of the two before it (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, ch. 6); the remainder of coeffs by it is
    zero, so the pseudo-quotient is the quotient times a constant."""
    g, r = coeffs, _deriv(coeffs)
    while r:
        g, r = r, _primitive(_pseudo_divmod(g, r)[1])
    return _primitive(_pseudo_divmod(coeffs, g)[0])


def _roots_between(coeffs: list[int], lo: int, hi: int) -> list[int]:
    """The integers a in [lo, hi) such that [a, a+1) holds a root of the
    integer polynomial at which it changes sign.

    The cells of the derivative's sign changes, found the same way,
    split [lo, hi] into stretches where the polynomial is monotonic,
    each holding at most one root, and cells that hold an extremum.  A
    root is a breakpoint where the polynomial vanishes, or is bracketed
    by a sign change and bisected in ints down to one cell.  So every
    root is found if the polynomial is squarefree (a root of even
    multiplicity is no sign change) and no root lies within one cell of
    an extremum, where two roots cancel and are missed."""
    if len(coeffs) <= 1:
        return []
    breaks = {lo, hi}
    for b in _roots_between(_deriv(coeffs), lo, hi):
        breaks.update((b, b + 1))
    breaks = sorted(breaks)
    values = [tpoly_value(coeffs, x) for x in breaks]
    roots = []
    for a, b, fa, fb in zip(breaks, breaks[1:], values, values[1:]):
        if fa == 0:
            roots.append(a)
        elif fb and (fa > 0) != (fb > 0):
            while b - a > 1:
                mid = (a + b) // 2
                fm = tpoly_value(coeffs, mid)
                if fm == 0:
                    a = mid
                    break
                if (fm > 0) == (fa > 0):
                    a = mid
                else:
                    b = mid
            roots.append(a)
    return roots
