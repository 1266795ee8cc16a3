import pathlib

import pytest

from permclass import _kernels, class_a, class_b, oracle, perms

import mask_model

GOLDEN = pathlib.Path(__file__).parent / "golden"

BASES = {"class_a": perms.CLASS_A_BASIS, "class_b": perms.CLASS_B_BASIS}
STATISTICS = {"class_a": "initial_decreasing_run",
              "class_b": "marked_trailing_run"}


@pytest.fixture(scope="session")
def state_a60():
    """Class-A functional-equation state at order 60, shared across the
    suite (the iteration is deterministic)."""
    return class_a.iterate(60)


@pytest.fixture(scope="session")
def state_a100():
    """Class-A state at order 100: its rows reach t-degrees, and so
    interpolations through numbers of points, that order 60 does not."""
    return class_a.iterate(100)


@pytest.fixture(scope="session")
def state_b60():
    """Class-B functional-equation state at order 60."""
    return class_b.iterate(60)


@pytest.fixture(scope="session")
def oracle_counts_11():
    """Oracle reports with the counts to n = 11 for both classes; the
    slowest oracle runs of the suite, made once."""
    return {name: oracle.enumerate_avoiders(basis, 11)
            for name, basis in BASES.items()}


@pytest.fixture(scope="session")
def oracle_distributions_10():
    """Oracle reports with the distribution of each class's tracked
    statistic (see STATISTICS) to n = 10."""
    return {name: oracle.statistic_distribution(basis, 10, STATISTICS[name])
            for name, basis in BASES.items()}


@pytest.fixture
def series_products(monkeypatch):
    """The operands (a, b, order) of every _kernels.series_mul call made
    after the fixture is requested."""
    log = []
    series_mul = _kernels.series_mul

    def logged(a, b, order):
        log.append((a, b, order))
        return series_mul(a, b, order)
    monkeypatch.setattr(_kernels, "series_mul", logged)
    return log


@pytest.fixture
def pack_widths(monkeypatch):
    """The slot widths ``class_a._pack`` is called with after the
    fixture is requested.  A repacking raises the width, so there is
    one width per packing, and the largest is the one in use."""
    widths = set()
    pack = class_a._pack

    def spy(p, width):
        widths.add(width)
        return pack(p, width)
    monkeypatch.setattr(class_a, "_pack", spy)
    return widths


@pytest.fixture
def chain_sizes(monkeypatch):
    """The slot sizes in bytes ``class_a._pack_bytes`` is called with
    after the fixture is requested: one per packing of the Omega
    chain's rows, as a widening repacks them."""
    sizes = set()
    pack_bytes = class_a._pack_bytes

    def spy(p, size):
        sizes.add(size)
        return pack_bytes(p, size)
    monkeypatch.setattr(class_a, "_pack_bytes", spy)
    return sizes


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def golden_counts(name: str) -> list[int]:
    """The counts of a golden `n <tab> count` file, whose rows must run
    n = 0, 1, ..."""
    rows = [line.split("\t") for line in golden_text(name).splitlines()]
    assert [int(n) for n, _ in rows] == list(range(len(rows))), name
    return [int(c) for _, c in rows]


def coefficient(f, n: int, k: int):
    """[z^n t^k] of a bivariate series, 0 above row n's t-degree."""
    row = f.c[n]
    return row[k] if k < len(row) else 0


def single_slice_report(n_max: int) -> oracle.CountReport:
    """The class-B avoiders of length 1..n_max that start with their
    minimum, by marked trailing run k = 0..n (row 0 is [0]), from the
    tests' (mask, state) walk appending values >= 2 after the first."""
    counts, rows = mask_model.mask_walk(
        perms.CLASS_B_BASIS, n_max, oracle.STATISTICS["marked_trailing_run"],
        first=2)
    counts[0] = 0
    matrix = [[0]] + [row[:n + 1] for n, row in enumerate(rows) if n]
    return oracle.CountReport(counts, rows=matrix)
