"""Every Python source of the project parses under the oldest Python that
``pyproject.toml`` declares, so the floor holds without a 3.10
interpreter at hand."""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_parse_at_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject,
                      re.MULTILINE)
    assert floor, "requires-python must read >=MAJOR.MINOR"
    version = (int(floor.group(1)), int(floor.group(2)))
    paths = sorted(path for top in ("src/permclass", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=version)
