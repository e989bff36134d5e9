"""Command line surface.

Subcommands: classify, matrix, eigs, extcheck, extscan, verify, one
COMMANDS entry each; main adds arguments only to the subparser of the
command it runs, so a run builds one command's options.  Every JSON
document echoes, under "config", the options its command parsed (the parser
is their only list), so feeding them back to compext reproduces the run;
output is byte-stable across runs with the same inputs, except for the
timestamp field.  This module alone decides how results become JSON and
CSV: one _plain pass turns each document into plain JSON values (dataclasses,
complex numbers, numpy scalars and non-finite floats included), json.dumps
writes it, and the column writer (_Block, _csv) writes the arrays: extscan
rows, eigs arrays and matrix entries.  The JSON is strict (RFC 8259): a
non-finite float is null there, and nan, inf or -inf in the CSV.

Exit codes: 0 success; 1 a DomainError (inadmissible symbol, wrong space,
Fock norms or matrix entries out of float range, a singular truncation: its
one subclass SingularTruncationError, ...), a failed verify, or an unresolved
class under extscan --require-prediction; 2 a plain ValueError, usage or
parse error (an empty grid or one with a non-finite radius, radius ratio,
point or step; checked at parse time: a degenerate --phi, a complex literal
past the float range in --phi or --lam, a non-finite --alpha or --threshold,
a negative --seed, which only extscan and verify take, and a --candidates
that is neither 'all' nor an integer >= 0), or an --out file that cannot be
written; 3 an UnresolvedClassError, an unresolved symbol class.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Callable
from datetime import datetime, timezone

import numpy as np

from .extspec import (
    GRID_SHAPES,
    RELIABILITY_TOL,
    SYLVESTER_THRESHOLD,
    WITNESSES,
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
    classify,
    format_complex,
    format_lft,
    is_fock_symbol,
    is_self_map_of_disk,
    parse_complex,
    parse_lft,
)
from .operators import composition_matrix, operator_to_matrix_market
from .spaces import KINDS, SpaceSpec


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


def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return v


def _candidates_type(text: str) -> int | str:
    """'all' or an integer >= 0."""
    return text if text == "all" else _bounded_int(0, math.inf, "--candidates")(text)


def _parsed(parse: Callable[[str], object]):
    """An argparse type that reports parse's ValueError as a usage error."""

    def conv(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return conv


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--phi", type=_parsed(parse_lft), required=True,
                   help="symbol as 'a,b,c,d' with complex entries in x+yi form")
    p.add_argument("--space", choices=KINDS, default="bergman")
    p.add_argument("--alpha", type=_finite_float, default=1.0, help="fock weight parameter")
    p.add_argument("--n", type=_bounded_int(8, 256, "--n"), default=48,
                   help="truncation order, 8..256")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")


def _add_grid(p: argparse.ArgumentParser):
    default = GridSpec()
    p.add_argument("--grid", choices=GRID_SHAPES, default=default.shape)
    p.add_argument("--points", type=_bounded_int(16, 4096, "--points"), default=default.points)
    p.add_argument("--rmin", type=float, default=default.rmin)
    p.add_argument("--rmax", type=float, default=default.rmax)


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


def _plain(obj):
    """obj as plain JSON values, at any depth: a dataclass as _fields(obj), a
    complex number as [re, im], a numpy scalar as its Python value, a tuple
    as a list and a non-finite float as None, since null is the one JSON
    spelling of nan, inf and -inf that RFC 8259 allows."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, complex):
        return _plain([obj.real, obj.imag])
    if isinstance(obj, np.generic):
        return _plain(obj.item())
    if dataclasses.is_dataclass(obj):
        return _plain(_fields(obj))
    return obj


# How a column's words read in the text: str(list) writes floats with
# float.__repr__, as json and the CSV f-string do, non-finite ones as nan, inf
# and -inf, and flags as True and False.  "-inf" comes first, so that null
# does not leave its sign behind.
_JSON = {"-inf": "null", "inf": "null", "nan": "null", "True": "true", "False": "false"}
_CSV = {"True": "1", "False": "0"}


def _tokens(column: np.ndarray, spelling: dict) -> list:
    """The entries of a float or bool column as text, from one str(list)
    pass, with each word in spelling replaced by its spelling."""
    text = str(column.tolist())[1:-1]
    for word, spelled in spelling.items():
        if word in text:
            text = text.replace(word, spelled)
    return text.split(", ")


def _join(columns: list, head: str, cell_sep: str, row_sep: str, tail: str) -> str:
    """Nonempty token columns of one length as text, row by row: head, the
    rows separated by row_sep, the cells of a row by cell_sep, then tail."""
    k, n = len(columns), len(columns[0])
    seps = ([row_sep] + [cell_sep] * (k - 1)) * n  # the text before each cell
    seps[0] = head
    text = [""] * (2 * k * n)
    text[::2] = seps
    for j, column in enumerate(columns):  # the cells, row-major
        text[2 * j + 1 :: 2 * k] = column
    return "".join(text) + tail


class _Block:
    """Float or bool columns of one length that _dumps writes as one array
    (non-finite floats as null): one column as a flat list, several as rows
    of one entry per column."""

    def __init__(self, *columns: np.ndarray):
        self.columns = columns

    def json(self, indent: str) -> str:
        """The array as json.dumps(indent=2) writes it on a line at indent."""
        if not self.columns[0].size:
            return "[]"
        columns = [_tokens(column, _JSON) for column in self.columns]
        inner = indent + "  "
        if len(columns) == 1:
            return _join(columns, f"[\n{inner}", "", f",\n{inner}", f"\n{indent}]")
        row, cell = f"{inner}[\n{inner}  ", f",\n{inner}  "
        return _join(columns, f"[\n{row}", cell, f"\n{inner}],\n{row}", f"\n{inner}]\n{indent}]")


def _complex_block(a: np.ndarray) -> _Block:
    """A complex array as its flat row-major list of [re, im] pairs."""
    flat = a.ravel()
    return _Block(flat.real, flat.imag)


def _csv(header: tuple, columns: tuple) -> str:
    """Float and bool columns of one length as CSV: the header, then one line
    per row, flags as 1 and 0 and non-finite floats as nan, inf and -inf."""
    tokens = [_tokens(column, _CSV) for column in columns]
    return _join(tokens, ",".join(header) + "\n", ",", "\n", "\n")


_SENTINEL = "\0"  # what json.dumps writes for a block, as the string "\u0000"


def _dumps(doc) -> str:
    """doc as json.dumps(sort_keys=True, indent=2) writes it, with each
    non-finite float as null (allow_nan=False makes sure) and each _Block in
    it written by the column writer.  The blocks are met in the order the
    text holds them; a document without one is not searched."""
    blocks = []

    def encode(obj):
        if isinstance(obj, _Block):
            blocks.append(obj)
            return _SENTINEL
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")

    text = json.dumps(_plain(doc), sort_keys=True, indent=2, allow_nan=False, default=encode)
    if not blocks:
        return text
    pieces = text.split(json.dumps(_SENTINEL))
    out = [pieces[0]]
    for block, piece in zip(blocks, pieces[1:], strict=True):
        line = out[-1][out[-1].rfind("\n") + 1 :]
        out += [block.json(line[: len(line) - len(line.lstrip(" "))]), piece]
    return "".join(out)


def _write(text: str, out: str | None):
    """Write text to the file out, or to stdout when out is not given.  A
    file that cannot be written is a ValueError that names it."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _respond(args, result):
    """Write the command's JSON document (the options it parsed, a timestamp
    and the result) to --out or stdout; the symbol and lambda are echoed as
    the text they parse back from."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    config["phi"] = format_lft(args.phi)
    if "lam" in config:
        config["lam"] = format_complex(args.lam)
    doc = {
        "config": config,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "result": result,
    }
    _write(_dumps(doc) + "\n", args.out)


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
        _respond(args, _fields(A) | {"entries": _complex_block(A.entries)})
    return 0


def cmd_eigs(args) -> int:
    space = _space(args)
    A = composition_matrix(args.phi, space, args.n)
    w, err = A.eig_reliability
    order = np.lexsort((w.imag, w.real))
    w, err = w[order], err[order]
    reliable = err <= RELIABILITY_TOL * np.abs(w)
    try:
        ratios = ratio_set(A, reliability_tol=RELIABILITY_TOL)
        ratio_info = {"count": ratios.size, "sample": _complex_block(ratios[:64])}
    except SingularTruncationError as exc:
        ratio_info = {"count": 0, "sample": [], "note": str(exc)}
    result = {
        "eigenvalues": _complex_block(w),
        "error_estimates": _Block(err),
        "reliable": _Block(reliable),
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
    rep = ext_scan(A, grid, candidates=args.candidates, seed=args.seed)
    summary = {
        "label": A.label,
        "space": A.space,
        "order": A.order,
        "grid": _fields(grid) | {"step": rep.step, "count": rep.lam.size},
        "sylvester_threshold": SYLVESTER_THRESHOLD,
        "ratio_threshold": rep.ratio_threshold,
        "candidates": rep.candidates,
        "seed": args.seed,
        "flagged_count": np.count_nonzero(rep.flagged),
        "notes": rep.notes + ([f"prediction unresolved: {unresolved}"] if unresolved else []),
        "predicted": predicted,
    }
    columns = (rep.lam.real, rep.lam.imag, rep.ratio_dist, rep.sylvester, rep.flagged)
    if args.out:
        csv_path = args.out[:-5] if args.out.endswith(".json") else args.out
        _write(_csv(SCAN_COLUMNS, columns), csv_path + ".grid.csv")
    else:
        summary["columns"] = SCAN_COLUMNS
        # the Sylvester value is nan where the probe did not run: null in JSON, nan in CSV
        summary["rows"] = _Block(*columns)
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


_WITNESS_HELP = "a witness, complex parameters written x+yi: " + " | ".join(WITNESSES)


def _add_matrix(p: argparse.ArgumentParser):
    p.add_argument("--witness", default=None, help=_WITNESS_HELP)
    p.add_argument("--format", choices=("json", "mm"), default="json")


def _add_extcheck(p: argparse.ArgumentParser):
    p.add_argument("--witness", required=True, help=_WITNESS_HELP)
    p.add_argument("--lam", required=True, type=_parsed(parse_complex), help="trial lambda, x+yi")
    p.add_argument("--margin", type=int, default=0)
    p.add_argument("--threshold", type=_finite_float, default=1e-8)


def _add_extscan(p: argparse.ArgumentParser):
    _add_grid(p)
    p.add_argument("--candidates", type=_candidates_type, default=None,
                   help="sylvester probe budget: an integer >= 0 or 'all'")
    p.add_argument("--require-prediction", action="store_true",
                   help="exit 1 when the symbol class has no resolved prediction")
    p.add_argument("--seed", type=_bounded_int(0, math.inf, "--seed"), default=0)


def _add_verify(p: argparse.ArgumentParser):
    p.add_argument("--points", type=_bounded_int(16, 4096, "--points"), default=None)
    p.add_argument("--seed", type=_bounded_int(0, math.inf, "--seed"), default=0)


def _add_nothing(p: argparse.ArgumentParser):
    pass


# (name, help, the function that adds the command's own arguments after
# _add_common's, the function that runs it), in the order --help lists them
COMMANDS = (
    ("classify", "dynamical class of a symbol on the disk", _add_nothing, cmd_classify),
    ("matrix", "truncation of C_phi (or a named witness)", _add_matrix, cmd_matrix),
    ("eigs", "truncation eigenvalues with reliability estimates", _add_nothing, cmd_eigs),
    ("extcheck", "residual of A X - lambda X A for one witness", _add_extcheck, cmd_extcheck),
    ("extscan", "scan a grid for extended-eigenvalue candidates", _add_extscan, cmd_extscan),
    ("verify", "run every known identity for the symbol's class", _add_verify, cmd_verify),
)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The compext parser with one subparser per command, where only
    command's subparser holds its arguments: the others hold only -h, which
    is all that the top-level usage, help and "invalid choice" errors read."""
    ap = argparse.ArgumentParser(
        prog="compext",
        description="Extended eigenvalues of composition operators: "
        "truncations, intertwining witnesses, grid scans.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name == command:
            _add_common(p)
            add_arguments(p)
            p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option with a value and no other positional,
    # so the first word that names a command is the one argparse runs
    names = {entry[0] for entry in COMMANDS}
    command = next((word for word in argv if word in names), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnresolvedClassError):
            return 3
        return 1 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
