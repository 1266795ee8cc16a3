"""Bundled polynomial fixtures.

The long displays (the three minimal polynomials and the class-B growth
quartic) are shipped as data files rather than code: transcription is
the dominant risk for objects this size, so each file carries a sha256
recorded in data/CHECKSUMS and every load verifies it.  The annihilation
tests are the second line of defense: a mistranscribed polynomial fails
to annihilate the independently computed series.
"""
from __future__ import annotations

import hashlib
from importlib import resources

from .polynomials import MultivariatePolynomial


class FixtureIntegrityError(RuntimeError):
    pass


def _data_text(name: str) -> str:
    try:
        return (resources.files(__package__) / "data" / name).read_text()
    except OSError as exc:
        raise FixtureIntegrityError("cannot read bundled file %s: %s"
                                    % (name, exc.strerror or exc)) from exc


def _checksums() -> dict[str, str]:
    out = {}
    for line in _data_text("CHECKSUMS").splitlines():
        if line.strip():
            digest, name = line.split()
            out[name] = digest
    return out


def load_poly(name: str) -> MultivariatePolynomial:
    """Load and checksum-verify one bundled polynomial."""
    expected = _checksums().get(name)
    if expected is None:
        raise FixtureIntegrityError("no checksum recorded for %s" % name)
    body = _data_text(name)
    actual = hashlib.sha256(body.encode()).hexdigest()
    if actual != expected:
        raise FixtureIntegrityError(
            "checksum mismatch for %s: %s != %s" % (name, actual, expected))
    return parse_poly_text(body)


def parse_poly_text(text: str) -> MultivariatePolynomial:
    """Parse a polynomial file: a `vars: z y` header line, then the term
    list of ``MultivariatePolynomial.serialize``.  Raises ValueError
    when the text is malformed."""
    header, _, term_list = text.partition("\n")
    if not header.startswith("vars: "):
        raise ValueError("missing 'vars:' header")
    names = header[len("vars: "):].split()
    if len(set(names)) != len(names):
        raise ValueError("repeated variable name in %r" % header)
    return MultivariatePolynomial.parse(term_list, names)


def eq5_min_poly() -> MultivariatePolynomial:
    """Degree-3 annihilator of the Av(2413,3412) counting series, in
    (z, y)."""
    return load_poly("eq5_min_poly.txt")


def eq6_min_poly() -> MultivariatePolynomial:
    """Degree-3 annihilator of fskew(z, f(z,1)) for Av(2413,3412), in
    (z, y)."""
    return load_poly("eq6_min_poly.txt")


def degree8_min_poly() -> MultivariatePolynomial:
    """Degree-8 annihilator of the Av(1432,2143) counting series, in
    (z, y)."""
    return load_poly("degree8_min_poly.txt")


def growth_quartic() -> MultivariatePolynomial:
    """z^4 - 7z^3 + 9z^2 - 8z + 4; its root near 5.63 is the
    Av(1432,2143) growth rate."""
    return load_poly("growth_quartic.txt")

