"""Every name the benchmark's tracer wraps still exists.

perfbench/tracing.py looks the traced functions up by name; a renamed
or deleted one would make a traced benchmark run fail at install.
The benchmark files are imported, not changed."""
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_over_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    modules = {name: importlib.import_module("permclass." + name)
               for name in run.MODULES}
    original = modules["_kernels"].class_b_child_ok
    tracer = tracing.Tracer(modules)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert modules["_kernels"].class_b_child_ok is original
