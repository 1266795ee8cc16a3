from importlib import resources

import pytest

from permclass import fixtures


def test_all_fixtures_load_and_verify():
    polys = {
        "eq5": fixtures.eq5_min_poly(),
        "eq6": fixtures.eq6_min_poly(),
        "degree8": fixtures.degree8_min_poly(),
        "quartic": fixtures.growth_quartic(),
    }
    assert polys["eq5"].degree("y") == 3 and polys["eq5"].degree("z") == 4
    assert polys["eq6"].degree("y") == 3 and polys["eq6"].degree("z") == 8
    assert polys["degree8"].degree("y") == 8
    assert polys["degree8"].degree("z") == 17
    assert polys["quartic"].vars == ("z",)


@pytest.mark.parametrize("header", ["vars: z y y", "vars: z z y"])
def test_repeated_variable_name_rejected(header):
    with pytest.raises(ValueError, match="repeated variable name"):
        fixtures.parse_poly_text(header + "\n1:z*y -1:1\n")


def test_checksums_name_exactly_the_data_files():
    """No orphan data file and no stale checksum: CHECKSUMS lists every
    other file in data/, and each loads through its checksum."""
    data = resources.files(fixtures.__package__) / "data"
    files = {f.name for f in data.iterdir() if f.is_file()} - {"CHECKSUMS"}
    assert set(fixtures._checksums()) == files
    for name in files:
        assert not fixtures.load_poly(name).is_zero()


def test_eq5_spot_coefficients():
    eq5 = fixtures.eq5_min_poly()
    # z^4 y^3 ... + 10 z y ... - 9 z + 1
    assert eq5.terms[(4, 3)] == 1
    assert eq5.terms[(1, 1)] == 10
    assert eq5.terms[(1, 0)] == -9
    assert eq5.terms[(0, 0)] == 1


def test_tampered_fixture_detected(monkeypatch):
    original = fixtures._data_text

    def tampered(name):
        body = original(name)
        if name == "eq5_min_poly.txt":
            body = body.replace("-9:z", "-8:z")
        return body

    monkeypatch.setattr(fixtures, "_data_text", tampered)
    with pytest.raises(fixtures.FixtureIntegrityError):
        fixtures.eq5_min_poly()


def test_missing_checksum_detected():
    with pytest.raises(fixtures.FixtureIntegrityError):
        fixtures.load_poly("no_such_fixture.txt")
