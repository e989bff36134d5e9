"""The benchmark's tracer (bench/tracing.py) wraps package functions by name.

Tracer.install() looks up every name in its SPANS table with getattr, so
deleting or renaming a traced function breaks the traced benchmark run.  This
test loads the tracer as the benchmark does and installs it on the package.
"""
import importlib.util
import sys
from pathlib import Path

import compext.cli  # noqa: F401 -- the tracer wraps functions of every layer, cli included
from compext import extspec
from compext.lft import LinearFractionalMap, standard_form
from compext.operators import composition_matrix
from compext.spaces import SpaceSpec

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


# form -> (a text of that form, the span groups of its build that matter here);
# every text builds on Fock space, where each family is defined
WITNESS_SPANS = {
    "identity": ("identity", set()),
    "shift:k": ("shift:1", {"operators.factories"}),
    "sigma-shift:c,k": ("sigma-shift:0.2,1", {"operators.factories"}),
    "qdiff:m": ("qdiff:1", {"operators.factories"}),
    "qmult-shifted:tau,m": ("qmult-shifted:0.5,1", {"operators.factories"}),
    "mult:monomial,k": ("mult:monomial,1", {"operators.factories"}),
    "mult:binomial,w": ("mult:binomial,1i", {"operators.factories", "series"}),
    "mult:cayley,w": ("mult:cayley,1i", {"operators.factories", "series"}),
    "mult:exponential,t": ("mult:exponential,1", {"operators.factories", "series"}),
    "mult:sigma-power,k": ("mult:sigma-power,1", {"operators.factories"}),
}


def test_tracer_sees_the_factories_and_series_of_every_witness():
    # the witness builders call the factories through the module attributes
    # that the tracer rebinds; a builder holding a function object would hide them
    assert list(WITNESS_SPANS) == list(extspec.WITNESSES)
    phi, space = LinearFractionalMap(0.5, 0.1, 0, 1), SpaceSpec("fock", alpha=0.5)
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        for text, want in WITNESS_SPANS.values():
            start = len(tracer.spans)
            extspec.build_witness(text, phi, space, 8)
            groups = {span[3] for span in tracer.spans[start:]}
            assert groups & {"operators.factories", "series"} == want, text


def test_tracer_counts_strict_failures_without_the_keyword():
    # the tracer counts a SingularTruncationError from strict ratio_set; only
    # strict mode raises it, so a filtered call adds nothing
    tracing = _load_tracing()
    singular = composition_matrix(standard_form("hyperbolic-automorphism", r=0.5), SpaceSpec("bergman"), 48)
    rotation = composition_matrix(LinearFractionalMap(1j, 0, 0, 1), SpaceSpec("bergman"), 48)
    assert not singular.is_diagonal
    calls = (
        lambda: extspec.ext_scan(singular, extspec.GridSpec("circle", 16)),  # strict, then filtered
        lambda: extspec.ratio_set(singular, filtered=True),
        lambda: extspec.ratio_set(rotation),  # strict, and the rotation's section is invertible
    )
    added = []
    with tracing.Tracer() as tracer:
        for call in calls:
            before = tracer.counts["extspec.ratio_set.strict_failures"]
            call()
            added.append(tracer.counts["extspec.ratio_set.strict_failures"] - before)
    assert added == [1, 0, 0]


def test_tracer_counts_the_iteration_routes_solves_through_the_lapack_seam():
    # the probe's iteration route calls ztrsyl through extspec.lapack, which
    # the tracer replaces with a counting proxy; its Schur form is computed
    # beside that seam and counts no solve
    tracing = _load_tracing()
    section = composition_matrix(LinearFractionalMap(0.9, 0.05, 0, 1), SpaceSpec("fock"), 24)
    with tracing.Tracer() as tracer:
        probe = extspec.SylvesterProbe(section)
        assert probe.route == "iteration" and tracer.counts["extspec.probe.solves"] == 0
        probe.sigma_min(0.5 + 0.5j)
        solves = tracer.counts["extspec.probe.solves"]
    assert solves > 0
    assert not isinstance(extspec.lapack, tracing._CountingLapack)  # restored on uninstall
