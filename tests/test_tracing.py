"""The benchmark's tracer (bench/tracing.py) wraps package functions by name.

Tracer.install() looks up every name in its SPANS table with getattr, so
deleting or renaming a traced function breaks the traced benchmark run.  This
test loads the tracer as the benchmark does and installs it on the package.
"""
import importlib.util
import sys
from pathlib import Path

import compext.cli  # noqa: F401 -- the tracer wraps functions of every layer, cli included

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("compext_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_restores_it():
    tracing = _load_tracing()

    def bindings():
        return {(mod, name): getattr(sys.modules[mod], name) for mod, spans in tracing.SPANS.items() for name in spans}

    before = bindings()
    with tracing.Tracer():
        during = bindings()
    assert all(during[key] is not fn for key, fn in before.items())
    assert bindings() == before
