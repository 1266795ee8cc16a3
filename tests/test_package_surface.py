"""The package holds only what the command line runs.

The CLI runs below cover every subcommand, every output format, every
statistic and the usage (exit 2), budget (exit 4) and no-polynomial
(exit 7) errors.  While they run, and while the package is imported
afresh for them, a call-event trace records every function entered.
Every ``def`` under ``src/permclass`` (dunder methods aside) must be
entered, or be named in ``ALLOWED`` with why it stays:

- ``traced``: ``perfbench/tracing.py`` wraps it, so the benchmark
  needs the name;
- ``traced-helper``: only traced names call it.

The layers also stay apart: the series, polynomial, algebra and fixture
modules import no engine, no oracle and no CLI.
"""
import ast
import contextlib
import io
import pathlib
import sys

import permclass
from permclass import class_a

PACKAGE = pathlib.Path(permclass.__file__).resolve().parent

ALLOWED = {
    "_kernels.class_a_child_ok": "traced",
    "_kernels.class_b_child_ok": "traced",
    "perms.contains_ending_at_last": "traced-helper",
    "class_a.omega_apply": "traced",
    "class_b.s_series": "traced",
    "class_b._suffix_sums": "traced-helper",
    "class_b.phi_apply": "traced",
    "class_b.theta_apply": "traced",
    "class_b.psi_apply": "traced",
    "class_b.lambda_apply": "traced",
    "class_b.xi_apply": "traced",
    "series._Series.zero": "traced-helper",
    "series._Series.shift": "traced-helper",
    "series.UnivariateSeries.geometric": "traced-helper",
    "series.BivariateSeries.geometric_tz": "traced-helper",
    "series.BivariateSeries.from_univariate": "traced-helper",
    "series.BivariateSeries.from_columns": "traced-helper",
    "series.BivariateSeries.mul_tpoly": "traced-helper",
    "series.BivariateSeries.inverse": "traced",
    "series.row_product": "traced-helper",
}


def _runs(poly_file):
    """The CLI argument lists, each as cheap as its path allows."""
    runs = []
    for class_id in ("class_a", "class_b"):
        for fmt in ("text", "json", "csv"):
            runs.append(["count", "--class", class_id, "--n", "6",
                         "--format", fmt])
        for method in ("oracle", "functional_equation"):
            runs.append(["count", "--class", class_id, "--n", "5",
                         "--method", method])
        runs.append(["distribution", "--class", class_id, "--n", "5"])
        runs.append(["growth", "--class", class_id, "--terms", "20"])
        runs.append(["growth", "--class", class_id, "--terms", "20",
                     "--format", "json"])
    for stat in ("initial_decreasing_run", "trailing_increasing_run",
                 "marked_trailing_run", "gap_count", "slice_count"):
        for fmt in ("text", "json", "csv"):
            runs.append(["distribution", "--class", "class_b", "--n", "5",
                         "--stat", stat, "--format", fmt])
    runs += [
        ["guess", "--class", "class_a", "--terms", "40", "--dy", "3",
         "--dz", "4"],
        ["guess", "--class", "class_a", "--terms", "40", "--dy", "3",
         "--dz", "4", "--format", "json"],
        ["guess", "--class", "class_a", "--terms", "20", "--dy", "1",
         "--dz", "1"],
        ["verify", "--class", "class_a", "--fixture", "eq5", "--order",
         "20"],
        ["verify", "--class", "class_a", "--fixture", "eq6", "--order",
         "20", "--series", "fskew_at_f1", "--format", "json"],
        ["verify", "--class", "class_b", "--fixture", "degree8",
         "--order", "20"],
        ["verify", "--class", "class_a", "--poly", str(poly_file),
         "--order", "20"],
        ["kernel-check", "--order", "10"],
        ["kernel-check", "--order", "10", "--format", "json"],
        ["count", "--class", "class_a", "--n", str(class_a._ONE_POINT_BELOW),
         "--method", "functional_equation"],
        ["count", "--class", "class_a", "--n", "-1"],
        ["count", "--class", "class_a", "--n", "9", "--method", "oracle",
         "--node-budget", "50"],
    ]
    return runs


def _defined() -> dict:
    """(file, first line) -> module-qualified name of every function
    defined in the package, nested ones included, dunders left out.
    The first line is the code object's: that of the first decorator."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[(str(path), first)] = name
                visit(child, path, name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return out


def _entered(runs) -> set:
    """(file, first line) of every code object under the package entered
    while it is imported afresh and ``cli.main`` runs each argument
    list.  The modules imported before are put back afterwards."""
    entered = set()

    def trace(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        # no local trace function: only call events are reported

    saved = {name: module for name, module in sys.modules.items()
             if name == "permclass" or name.startswith("permclass.")}
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for name in saved:
            del sys.modules[name]
        import permclass.cli as cli
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in runs]
    finally:
        sys.settrace(previous)
        for name in [n for n in sys.modules
                     if n == "permclass" or n.startswith("permclass.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    assert {2, 4, 7} <= set(codes) <= {0, 2, 4, 7}, codes
    # a relative sys.path entry leaves co_filename relative
    return {(str(pathlib.Path(name).resolve()), line)
            for name, line in entered}


def test_every_package_function_runs_or_is_traced(tmp_path):
    poly_file = tmp_path / "eq5.txt"
    poly_file.write_text((PACKAGE / "data" / "eq5_min_poly.txt").read_text())
    defined = _defined()
    entered = _entered(_runs(poly_file))
    never = {name for key, name in defined.items() if key not in entered}
    assert never == set(ALLOWED), (
        "never entered but not allowed: %s; allowed but entered or gone: %s"
        % (sorted(never - set(ALLOWED)), sorted(set(ALLOWED) - never)))
    assert set(ALLOWED.values()) <= {"traced", "traced-helper"}


def _package_imports(module: str) -> set:
    """The package modules that ``module`` imports from, relatively or
    by the name ``permclass``."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / (module + ".py")).read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            head = ("permclass." if node.level else "") + (node.module or "")
            names = [head.rstrip(".") + "." + alias.name
                     for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("permclass."))
    return found


def test_algebra_layer_imports_no_engine():
    """Series, polynomials, the algebra and the fixtures sit below the
    engines: none of them imports class_a, class_b, the oracle or the
    CLI."""
    lower = ("series", "polynomials", "algebraic", "fixtures")
    upper = {"class_a", "class_b", "oracle", "cli"}
    assert {m: sorted(_package_imports(m) & upper) for m in lower} == {
        m: [] for m in lower}
