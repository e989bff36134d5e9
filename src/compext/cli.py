"""Command line surface.

Subcommands: classify, matrix, eigs, extcheck, extscan, verify.  Every
command echoes its resolved configuration in the JSON it emits, so runs are
reproducible from their own output; output is byte-stable across runs with
the same inputs, except for the timestamp field.  This module alone decides
how results become JSON (_encode) and CSV (cmd_extscan).

Exit codes: 0 success; 1 any compext DomainError (inadmissible symbol,
wrong space, singular truncation, Fock norms or matrix entries out of float
range, ...), a failed verify, or an unresolved class under extscan
--require-prediction; 2 any other ValueError, usage or parse error (an
empty grid or one with a non-finite radius or radius ratio; checked at parse
time: a degenerate --phi, a complex literal past the float range in --phi or
--lam, a negative --seed and a --candidates that is neither 'all' nor an
integer >= 0); 3 unresolved symbol class.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .extspec import (
    GridSpec,
    SingularTruncationError,
    UnresolvedClassError,
    build_witness,
    ext_scan,
    intertwining_residual,
    predicted_ext,
    ratio_set,
    verify_theorem_suite,
)
from .lft import (
    DomainError,
    LinearFractionalMap,
    classify,
    format_complex,
    format_lft,
    is_fock_symbol,
    is_inf,
    is_self_map_of_disk,
    parse_complex,
    parse_lft,
)
from .operators import composition_matrix, operator_to_matrix_market
from .spaces import SpaceSpec


@dataclass
class RunConfig:
    command: str
    phi: str | None = None
    space: str = "bergman"
    alpha: float = 1.0
    n: int = 48
    seed: int = 0
    threshold: float = 1e-6
    margin: int = 0
    grid: str | None = None
    points: int | None = None
    rmin: float | None = None
    rmax: float | None = None
    witness: str | None = None
    lam: str | None = None
    out: str | None = None


def _bounded_int(lo: int, hi: float, what: str):
    def conv(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer")
        if not lo <= v <= hi:
            span = f"lie in [{lo}, {hi}]" if hi < math.inf else f"be >= {lo}"
            raise argparse.ArgumentTypeError(f"{what} must {span}")
        return v

    return conv


def _candidates_type(text: str) -> int | str:
    """'all' or an integer >= 0."""
    return text if text == "all" else _bounded_int(0, math.inf, "--candidates")(text)


def _phi_type(text: str) -> LinearFractionalMap:
    try:
        return parse_lft(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _complex_type(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common(p: argparse.ArgumentParser, need_phi: bool = True):
    p.add_argument("--phi", type=_phi_type, required=need_phi,
                   help="symbol as 'a,b,c,d' with complex entries in x+yi form")
    p.add_argument("--space", choices=("hardy", "bergman", "fock"), default="bergman")
    p.add_argument("--alpha", type=float, default=1.0, help="fock weight parameter")
    p.add_argument("--n", type=_bounded_int(8, 256, "--n"), default=48,
                   help="truncation order, 8..256")
    p.add_argument("--seed", type=_bounded_int(0, math.inf, "--seed"), default=0)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")


def _add_grid(p: argparse.ArgumentParser):
    p.add_argument("--grid", choices=("circle", "annulus", "disk"), default="circle")
    p.add_argument("--points", type=_bounded_int(16, 4096, "--points"), default=360)
    p.add_argument("--rmin", type=float, default=0.2)
    p.add_argument("--rmax", type=float, default=1.0)


def _config(args) -> RunConfig:
    """The run's configuration: each RunConfig field from the argument of its
    name, at the field's default where the command has no such argument, the
    symbol and lambda echoed as text."""
    fields = dataclasses.fields(RunConfig)
    config = RunConfig(**{f.name: getattr(args, f.name, f.default) for f in fields})
    if config.phi is not None:
        config.phi = format_lft(config.phi)
    if config.lam is not None:
        config.lam = format_complex(config.lam)
    return config


def _fields(obj) -> dict:
    """A dataclass's fields under their JSON names: the "json" entry of a
    field's metadata, else the field's own name.  A field still at a None
    default is left out."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None and f.default is None:
            continue
        out[f.metadata.get("json", f.name)] = value
    return out


def _encode(obj):
    """json.dumps hook for what the standard encoder does not know: a complex
    number as [re, im], INF as null, an ndarray as its flat row-major list, a
    numpy scalar as its Python value and a dataclass as _fields(obj)."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        flat = obj.ravel()
        if np.iscomplexobj(flat):  # all pairs at once, not one hook call per entry
            return np.stack([flat.real, flat.imag], axis=-1).tolist()
        return flat.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if is_inf(obj):
        return None
    if dataclasses.is_dataclass(obj):
        return _fields(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(text: str, out: str | None):
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _respond(args, result):
    """Write the command's JSON document (its configuration, a timestamp and
    the result) to --out or stdout."""
    doc = {
        "config": asdict(_config(args)),  # unset options stay null, which _fields would drop
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "result": result,
    }
    _write(json.dumps(doc, sort_keys=True, indent=2, default=_encode) + "\n", args.out)


def _space(args) -> SpaceSpec:
    return SpaceSpec(kind=args.space, alpha=args.alpha)


def cmd_classify(args) -> int:
    result = _fields(classify(args.phi))
    result["self_map"] = is_self_map_of_disk(args.phi)
    result["fock_symbol"] = is_fock_symbol(args.phi)
    _respond(args, result)
    return 0


def cmd_matrix(args) -> int:
    space = _space(args)
    if args.witness:
        A = build_witness(args.witness, args.phi, space, args.n)
    else:
        A = composition_matrix(args.phi, space, args.n)
    if args.format == "mm":
        _write(operator_to_matrix_market(A), args.out)
    else:
        _respond(args, A)
    return 0


def cmd_eigs(args) -> int:
    space = _space(args)
    A = composition_matrix(args.phi, space, args.n)
    w, err = A.eig_reliability
    order = np.lexsort((w.imag, w.real))
    w, err = w[order], err[order]
    reliable = err <= args.reliability_tol * np.abs(w)
    try:
        ratios = ratio_set(A, reliability_tol=args.reliability_tol)
        ratio_info = {"count": ratios.size, "sample": ratios[:64]}
    except SingularTruncationError as exc:
        ratio_info = {"count": 0, "sample": [], "note": str(exc)}
    result = {
        "eigenvalues": w,
        "error_estimates": [float(e) if np.isfinite(e) else None for e in err],
        "reliable": reliable,
        "reliable_count": np.count_nonzero(reliable),
        "ratio_set": ratio_info,
    }
    _respond(args, result)
    return 0


def cmd_extcheck(args) -> int:
    space = _space(args)
    A = composition_matrix(args.phi, space, args.n)
    X = build_witness(args.witness, args.phi, space, args.n)
    lam = args.lam
    res = intertwining_residual(A, X, lam, args.margin)
    passed = res <= args.threshold
    result = {
        "witness": args.witness,
        "lambda": lam,
        "margin": args.margin,
        "residual": res,
        "threshold": args.threshold,
        "passed": bool(passed),
    }
    _respond(args, result)
    return 0


SCAN_COLUMNS = ("re(lambda)", "im(lambda)", "ratio_distance", "sylvester_min_sv", "flagged")


def cmd_extscan(args) -> int:
    space = _space(args)
    A = composition_matrix(args.phi, space, args.n)
    predicted = None
    unresolved = None
    try:
        predicted = predicted_ext(args.phi, space)
    except UnresolvedClassError as exc:
        unresolved = str(exc)
        if args.require_prediction:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    grid = GridSpec(shape=args.grid, points=args.points, rmin=args.rmin, rmax=args.rmax)
    rep = ext_scan(
        A,
        grid,
        sylvester_threshold=args.threshold,
        ratio_threshold=args.ratio_threshold,
        candidates=args.candidates,
        seed=args.seed,
    )
    summary = {
        "label": A.label,
        "space": A.space,
        "order": A.order,
        "grid": _fields(grid) | {"step": rep.step, "count": rep.lam.size},
        "sylvester_threshold": args.threshold,
        "ratio_threshold": rep.ratio_threshold,
        "candidates": rep.candidates,
        "seed": args.seed,
        "flagged_count": np.count_nonzero(rep.flagged),
        "notes": rep.notes + ([f"prediction unresolved: {unresolved}"] if unresolved else []),
        "predicted": predicted,
    }
    rows = zip(
        rep.lam.real.tolist(),
        rep.lam.imag.tolist(),
        rep.ratio_dist.tolist(),
        rep.sylvester.tolist(),  # nan where the probe did not run
        rep.flagged.tolist(),
    )
    if args.out:
        lines = [",".join(SCAN_COLUMNS)]
        lines += [f"{re!r},{im!r},{rd!r},{sv!r},{fl:d}" for re, im, rd, sv, fl in rows]
        csv_path = args.out[:-5] if args.out.endswith(".json") else args.out
        _write("\n".join(lines) + "\n", csv_path + ".grid.csv")
    else:
        summary["columns"] = SCAN_COLUMNS
        summary["rows"] = [
            [re, im, rd, None if math.isnan(sv) else sv, fl] for re, im, rd, sv, fl in rows
        ]
    _respond(args, summary)
    return 0


def cmd_verify(args) -> int:
    space = _space(args)
    report = verify_theorem_suite(
        args.phi, space, args.n, seed=args.seed, scan_points=args.points
    )
    for row in report.rows:
        status = "PASS" if row.passed else "FAIL"
        print(
            f"{status}  {row.check:<34} {row.witness:<28} "
            f"lambda={row.lam:.6g}  residual={row.residual:.3e}  thr={row.threshold:g}",
            file=sys.stderr,
        )
    for row in report.scan_rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"{status}  {row.name:<34} worst={row.worst:.3e}  {row.detail}", file=sys.stderr)
    result = _fields(report)
    result["passed"] = report.passed
    _respond(args, result)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="compext",
        description="Extended eigenvalues of composition operators: "
        "truncations, intertwining witnesses, grid scans.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="dynamical class of a symbol on the disk")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("matrix", help="truncation of C_phi (or a named witness)")
    _add_common(p)
    p.add_argument("--witness", default=None, help="witness grammar, e.g. shift:2")
    p.add_argument("--format", choices=("json", "mm"), default="json")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("eigs", help="truncation eigenvalues with reliability estimates")
    _add_common(p)
    p.add_argument("--reliability-tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("extcheck", help="residual of A X - lambda X A for one witness")
    _add_common(p)
    p.add_argument("--witness", required=True,
                   help="identity | shift:k | sigma-shift:c,k | qdiff:m | "
                        "qmult-shifted:tau,m | mult:family,param")
    p.add_argument("--lam", required=True, type=_complex_type, help="trial lambda, x+yi")
    p.add_argument("--margin", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.set_defaults(func=cmd_extcheck)

    p = sub.add_parser("extscan", help="scan a grid for extended-eigenvalue candidates")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="sylvester flag threshold")
    p.add_argument("--ratio-threshold", type=float, default=None,
                   help="ratio-distance flag threshold (default: just under one grid step)")
    p.add_argument("--candidates", type=_candidates_type, default=None,
                   help="sylvester probe budget: an integer >= 0 or 'all'")
    p.add_argument("--require-prediction", action="store_true",
                   help="exit 1 when the symbol class has no resolved prediction")
    p.set_defaults(func=cmd_extscan)

    p = sub.add_parser("verify", help="run every known identity for the symbol's class")
    _add_common(p)
    p.add_argument("--points", type=_bounded_int(16, 4096, "--points"), default=None)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnresolvedClassError):
            return 3
        return 1 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
