"""Command line surface.

Subcommands: classify, matrix, eigs, extcheck, extscan, verify.  Every
command echoes its resolved configuration in the JSON it emits, so runs are
reproducible from their own output; output is byte-stable across runs with
the same inputs, except for the timestamp field.

Exit codes: 0 success, 1 domain error (inadmissible symbol, wrong space,
singular truncation, ...), 2 usage or parse error (including an empty or
malformed grid), 3 unresolved symbol class.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .extspec import (
    BadAnnulusError,
    EmptyGridError,
    GridSpec,
    SingularTruncationError,
    TooLargeError,
    UnresolvedClassError,
    build_witness,
    ext_scan,
    intertwining_residual,
    predicted_ext,
    ratio_set,
    verify_theorem_suite,
)
from .lft import (
    DegenerateMapError,
    IdentityMapError,
    LinearFractionalMap,
    ParamOutOfRangeError,
    classify,
    format_complex,
    format_lft,
    is_fock_symbol,
    is_self_map_of_disk,
    parse_complex,
    parse_lft,
)
from .operators import (
    BadShiftError,
    CenterOutsideDiskError,
    DimensionMismatchError,
    SymbolNotAdmissibleError,
    WrongSpaceError,
    composition_matrix,
    operator_to_json,
    operator_to_matrix_market,
)
from .series import (
    NegativeParameterError,
    OrderMismatchError,
    PoleInsideDiskError,
    ZeroConstantTermError,
)
from .spaces import PointOutsideDomainError, SpaceSpec

DOMAIN_ERRORS = (
    DegenerateMapError,
    IdentityMapError,
    ParamOutOfRangeError,
    SymbolNotAdmissibleError,
    WrongSpaceError,
    BadShiftError,
    CenterOutsideDiskError,
    DimensionMismatchError,
    PointOutsideDomainError,
    PoleInsideDiskError,
    NegativeParameterError,
    ZeroConstantTermError,
    OrderMismatchError,
    SingularTruncationError,
    TooLargeError,
    BadAnnulusError,
)


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


def _bounded_int(lo: int, hi: int, what: str):
    def conv(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer")
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(f"{what} must lie in [{lo}, {hi}]")
        return v

    return conv


def _phi_type(text: str) -> LinearFractionalMap:
    try:
        return parse_lft(text)
    except DegenerateMapError:
        raise
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")


def _add_grid(p: argparse.ArgumentParser):
    p.add_argument("--grid", choices=("circle", "annulus", "disk"), default="circle")
    p.add_argument("--points", type=_bounded_int(16, 4096, "--points"), default=360)
    p.add_argument("--rmin", type=float, default=0.2)
    p.add_argument("--rmax", type=float, default=1.0)


def _config(args, command: str) -> RunConfig:
    return RunConfig(
        command=command,
        phi=format_lft(args.phi) if getattr(args, "phi", None) is not None else None,
        space=getattr(args, "space", "bergman"),
        alpha=getattr(args, "alpha", 1.0),
        n=getattr(args, "n", 48),
        seed=getattr(args, "seed", 0),
        threshold=getattr(args, "threshold", 1e-6),
        margin=getattr(args, "margin", 0),
        grid=getattr(args, "grid", None),
        points=getattr(args, "points", None),
        rmin=getattr(args, "rmin", None),
        rmax=getattr(args, "rmax", None),
        witness=getattr(args, "witness", None),
        lam=getattr(args, "lam_text", None),
        out=getattr(args, "out", None),
    )


def _emit(doc: dict, out: str | None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _wrap(config: RunConfig, result: dict) -> dict:
    return {
        "config": asdict(config),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "result": result,
    }


def _space(args) -> SpaceSpec:
    return SpaceSpec(kind=args.space, alpha=args.alpha)


def cmd_classify(args) -> int:
    cls = classify(args.phi)
    result = cls.to_dict()
    result["self_map"] = is_self_map_of_disk(args.phi)
    result["fock_symbol"] = is_fock_symbol(args.phi)
    _emit(_wrap(_config(args, "classify"), result), args.out)
    return 0


def cmd_matrix(args) -> int:
    space = _space(args)
    if args.witness:
        A = build_witness(args.witness, args.phi, space, args.n)
    else:
        A = composition_matrix(args.phi, space, args.n)
    if args.format == "mm":
        text = operator_to_matrix_market(A)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    doc = _wrap(_config(args, "matrix"), json.loads(operator_to_json(A)))
    _emit(doc, args.out)
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
        ratio_info = {
            "count": int(ratios.size),
            "sample": [[z.real, z.imag] for z in ratios[:64]],
        }
    except SingularTruncationError as exc:
        ratio_info = {"count": 0, "sample": [], "note": str(exc)}
    result = {
        "eigenvalues": [[z.real, z.imag] for z in w],
        "error_estimates": [float(e) if np.isfinite(e) else None for e in err],
        "reliable": [bool(b) for b in reliable],
        "reliable_count": int(np.count_nonzero(reliable)),
        "ratio_set": ratio_info,
    }
    _emit(_wrap(_config(args, "eigs"), result), args.out)
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
        "lambda": [lam.real, lam.imag],
        "margin": args.margin,
        "residual": res,
        "threshold": args.threshold,
        "passed": bool(passed),
    }
    _emit(_wrap(_config(args, "extcheck"), result), args.out)
    return 0


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
    candidates = args.candidates
    if candidates is not None and candidates != "all":
        candidates = int(candidates)
    rep = ext_scan(
        A,
        grid,
        sylvester_threshold=args.threshold,
        ratio_threshold=args.ratio_threshold,
        candidates=candidates,
        seed=args.seed,
        predicted=predicted,
    )
    rep_dict = rep.to_dict()
    if unresolved:
        rep_dict["notes"].append(f"prediction unresolved: {unresolved}")
    rows = rep_dict.pop("rows")
    columns = rep_dict.pop("columns")
    summary = dict(rep_dict)
    doc = _wrap(_config(args, "extscan"), summary)
    if args.out:
        _emit(doc, args.out)
        csv_path = args.out[:-5] if args.out.endswith(".json") else args.out
        with open(csv_path + ".grid.csv", "w") as fh:
            fh.write(rep.to_csv())
    else:
        summary["columns"] = columns
        summary["rows"] = rows
        _emit(doc, None)
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
    doc = _wrap(_config(args, "verify"), report.to_dict())
    _emit(doc, args.out)
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
    p.add_argument("--candidates", default=None,
                   help="sylvester probe budget: an integer or 'all'")
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
    if getattr(args, "lam", None) is not None:
        # argparse converted the literal to complex; echo it back as text
        args.lam_text = format_complex(args.lam)
    try:
        return args.func(args)
    except UnresolvedClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EmptyGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
