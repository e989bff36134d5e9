"""Per-layer spans for the traced run, recorded from outside the package.

Tracer.install() wraps the functions listed in SPANS and rebinds each wrapper
under every name that binds the original in any loaded compext.* module (the
layers import each other with `from .x import f`, so patching one module is
not enough).  SylvesterProbe is patched on the class, and the lapack module
that extspec reaches through `compext.extspec.lapack` is replaced by a proxy
that counts ztrsyl calls.  Tracer.uninstall() restores every binding.

A span is (request id, span id, parent span id, name, start, end); spans are
kept in memory and reduced by layer_metrics() when the run ends.  Self time
is a span's duration minus the durations of its direct children, which nest
inside it because one thread makes every call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_FACTORIES = (
    "multiplication_matrix",
    "basis_shift_matrix",
    "sigma_shift_matrix",
    "quasi_diff_matrix",
    "quasi_mult_matrix",
    "shifted_quasi_mult",
    "matrix_power",
    "matmul",
    "adjoint",
    "direct_sum",
)

# module -> {function: metric group}; a span is named by its group
SPANS = {
    "compext.lft": {"classify": "lft.classify", "is_self_map_of_disk": "lft.is_self_map_of_disk"},
    "compext.series": dict.fromkeys(
        ("lft_taylor", "binomial_power", "cayley_power", "parabolic_eigenfunction", "compose_series"), "series"
    ),
    "compext.spaces": {"monomial_norms": "spaces.monomial_norms"},
    "compext.operators": {
        "composition_matrix": "operators.composition_matrix",
        "op_norm": "operators.op_norm",
        "operator_to_matrix_market": "operators.matrix_market",
    }
    | dict.fromkeys(_FACTORIES, "operators.factories"),
    "compext.extspec": {
        "build_witness": "extspec.build_witness",
        "intertwining_residual": "extspec.intertwining_residual",
        "ratio_set": "extspec.ratio_set",
        "ratio_distance": "extspec.ratio_distance",
        "_eig_with_reliability": "extspec.eig",
        "_dedup_sorted": "extspec.dedup",
        "ext_scan": "extspec.ext_scan",
        "verify_theorem_suite": "extspec.verify_theorem_suite",
    },
    "compext.cli": {"main": "cli"},
}
PROBE_METHODS = {"__init__": "extspec.probe.setup", "sigma_min": "extspec.probe"}
GROUPS = sorted({g for spans in SPANS.values() for g in spans.values()} | set(PROBE_METHODS.values()))
COUNTERS = (
    "extspec.ratio_set.strict_failures",
    "extspec.ratio_set.ratios_out",
    "extspec.ext_scan.points",
    "extspec.probe.points",
    "extspec.probe.flagged_points",
    "extspec.probe.solves",
    "extspec.probe.zero_returns",
)


class _CountingLapack:
    """Stands in for scipy.linalg.lapack inside compext.extspec; counts ztrsyl."""

    def __init__(self, lapack, counts: Counter):
        self._lapack = lapack
        self._counts = counts

    def ztrsyl(self, *args, **kwargs):
        self._counts["extspec.probe.solves"] += 1
        return self._lapack.ztrsyl(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lapack, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = 0
        self._stack = []
        self._restore = []

    # -- recording

    def _wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            t0 = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.request, sid, parent, name, t0, t1)
                if observe is not None:
                    observe(args, kwargs, result, error)

        return traced

    def _observe_ratio_set(self, args, kwargs, result, error):
        strict = kwargs.get("reliability_tol", args[3] if len(args) > 3 else None) is None
        if strict and isinstance(error, sys.modules["compext.extspec"].SingularTruncationError):
            self.counts["extspec.ratio_set.strict_failures"] += 1
        if result is not None:
            self.counts["extspec.ratio_set.ratios_out"] += int(result.size)

    def _observe_ext_scan(self, args, kwargs, result, error):
        if result is None:
            return
        probed = ~np.isnan(result.sylvester)
        self.counts["extspec.ext_scan.points"] += int(result.lam.size)
        self.counts["extspec.probe.points"] += int(probed.sum())
        self.counts["extspec.probe.flagged_points"] += int((probed & result.flagged).sum())

    def _observe_sigma_min(self, args, kwargs, result, error):
        if result == 0.0:
            self.counts["extspec.probe.zero_returns"] += 1

    # -- installation

    def install(self):
        wrapped = {}
        observers = {"extspec.ratio_set": self._observe_ratio_set, "extspec.ext_scan": self._observe_ext_scan}
        for modname, spans in SPANS.items():
            mod = sys.modules[modname]
            for name, group in spans.items():
                wrapped[id(getattr(mod, name))] = self._wrap(group, getattr(mod, name), observers.get(group))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "compext" or modname.startswith("compext.")):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    self._rebind(mod, attr, wrapped[id(value)])
        extspec = sys.modules["compext.extspec"]
        probe = extspec.SylvesterProbe
        for meth, name in PROBE_METHODS.items():
            observe = self._observe_sigma_min if meth == "sigma_min" else None
            self._rebind(probe, meth, self._wrap(name, getattr(probe, meth), observe))
        self._rebind(extspec, "lapack", _CountingLapack(extspec.lapack, self.counts))
        return self

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction

    def layer_metrics(self, cycles: int) -> dict:
        """Per-cycle call counts and self times by metric group, plus counters."""
        child = defaultdict(float)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls, self_ms = Counter(), defaultdict(float)
        for _, sid, _, group, t0, t1 in self.spans:
            calls[group] += 1
            self_ms[group] += (t1 - t0 - child[sid]) * 1e3
        out = {}
        for g in GROUPS:
            out[f"{g}.calls"] = calls[g] / cycles
            out[f"{g}.self_ms"] = self_ms[g] / cycles
        for name in COUNTERS:
            out[name] = self.counts[name] / cycles
        probed = self.counts["extspec.probe.points"]
        out["extspec.probe.flag_yield"] = self.counts["extspec.probe.flagged_points"] / probed if probed else 0.0
        out["extspec.probe.setup_ms"] = out.pop("extspec.probe.setup.self_ms")
        return out


