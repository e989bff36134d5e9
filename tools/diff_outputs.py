"""Compare the CLI outputs of two source trees over the benchmark's request pools.

    python3 tools/diff_outputs.py OLD_TREE NEW_TREE [--workload W ...]
    python3 tools/diff_outputs.py OLD_TREE NEW_TREE --acceptance

Every request of the pools in bench/workloads.py (all three workloads unless
--workload narrows them) is sent through compext.cli.main once per tree, each
tree in its own subprocess with its src/ first on sys.path and BLAS pinned to
one thread; the two trees run side by side.  The pools come from this
checkout's bench/, so both trees answer the same requests.  A short fixed list
of off-pool requests (OFF_POOL) is sent on every run too, and reported
separately: it reaches the output rules no pool request does.

Outputs are compared after masking what legitimately changes from run to run:
the JSON "timestamp" and the temporary directory that replaces the "{out}"
placeholder of `extscan --out` (its JSON and .grid.csv files are compared
too).  The report gives, per command, how many requests produced identical
output (exit code, stdout, stderr and files, byte for byte) and, for the rest,
each differing field with wildcard indices (extscan rows by column name), the
number of requests in which it differs and the largest absolute difference of
its numbers, followed by two of the differing requests.  Outputs that parse to
the same values but differ in their bytes (1 against 1.0, say) are reported
as "(same values, different bytes)".  For the pool requests the report also
counts how many of the differing outputs of NEW_TREE still match their
bench/reference digest, by the rule the benchmark checks every output with
(workloads.digest and workloads.mismatch): a change that moves digits but no
verdict keeps that count equal to the number that differ.  Exit status: 0
when every output is identical, 1 otherwise.

With --acceptance the pools are not sent; instead each tree runs its own
tests/test_acceptance.py (pytest -s, the same environment) and the nine
"[Cn] PASS/FAIL: ..." lines the acceptance tests print are compared, label by
label.  Exit status: 0 when both trees print the same nine lines, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = "{out}"  # the placeholder bench/workloads.py puts in --out arguments
MASK = "<masked>"
EXAMPLES = 2  # differing requests listed per command
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

# Requests the pools lack, each with what it reaches; one request per failure
# path shows that every error message and exit code survives a change.
OFF_POOL = [
    # the identity: a null multiplier
    ["classify", "--phi=1,0,0,1"],
    # an affine map: a null fixed point (infinity)
    ["classify", "--phi=0.5,0.25,0,1"],
    # a non-self-map
    ["classify", "--phi=2,0,0,1"],
    # matrix JSON
    ["matrix", "--phi=0.5i,0.1,0.2,1", "--n", "8", "--format", "json"],
    # an unresolved class (no prediction on hardy)
    ["extscan", "--phi=1,0.5,0.5,1", "--space", "hardy", "--n", "16", "--points", "32"],
    # a prediction without a base (unit circle)
    ["extscan", "--phi=1,0.5,0.5,1", "--space", "bergman", "--n", "16", "--points", "32"],
    # skipped probes (order 160 > 128) in the JSON rows
    ["extscan", "--phi=i,0,0,1", "--space", "fock", "--n", "160", "--points", "16"],
    # skipped probes in the CSV
    ["extscan", "--phi=i,0,0,1", "--space", "fock", "--n", "160", "--points", "16", "--out", OUT],
    # verify at its default scan sizes: the rotation circle
    ["verify", "--phi=0.7071067811865476+0.7071067811865475i,0,0,1", "--space", "fock", "--n", "16"],
    # the power annulus
    ["verify", "--phi=0.5,0.1,0,1", "--space", "bergman", "--n", "16"],
    # the unit-circle annulus, whose scan row fails: a finite section cannot see the circle
    ["verify", "--phi=1,0.5,0.5,1", "--space", "bergman", "--n", "16"],
    # the closed disk
    ["verify", "--phi=0.5,0.5,0,1", "--space", "bergman", "--n", "16"],
    # an irrational Fock rotation, w = e^{2i}, whose flags lie near w^k, |k| < N, only
    ["verify", "--phi=-0.41614691548307164+0.9092973907000532i,0,0,1", "--space", "fock", "--n", "128"],
    # the one verify whose scan the probe settles by inverse iteration (a multiplier near 1); it
    # exits 1, every witness row passing and scan-flags-near-powers reading a worst of 0.2639
    ["verify", "--phi=0.9,0.05,0,1", "--space", "bergman", "--n", "24"],
    # Sylvester values settled by inverse iteration (ztrsyl solves) at n = 24
    ["extscan", "--phi=0.95,0.1,0,1", "--space", "fock", "--n", "24", "--points", "16"],
    # and at n = 128, the probe's largest order; every other request takes the certificate, exact or
    # dense route
    ["extscan", "--phi=0.9,0.05,0,1", "--space", "fock", "--n", "128", "--points", "16"],
    # a witness label in Matrix Market
    ["matrix", "--phi=0.5,0,0,1", "--space", "fock", "--n", "8", "--witness", "qmult-shifted:0.5,2", "--format", "mm"],
    # a witness label in JSON
    ["matrix", "--phi=0.5,0,0,1", "--n", "8", "--witness", "mult:binomial,1+1i", "--format", "json"],
    # the entries and label of a mult:monomial witness (the pools compare witnesses only through one
    # extcheck residual each)
    ["matrix", "--phi=0.5,0,0,1", "--n", "16", "--witness", "mult:monomial,3", "--format", "mm"],
    # of a mult:cayley witness
    ["matrix", "--phi=0.5,0,0,1", "--n", "16", "--witness", "mult:cayley,1i", "--format", "mm"],
    # of a mult:exponential witness
    ["matrix", "--phi=0.5,0,0,1", "--n", "16", "--witness", "mult:exponential,1.0", "--format", "mm"],
    # of a mult:sigma-power witness
    ["matrix", "--phi=0.5,0.1,0,1", "--n", "16", "--witness", "mult:sigma-power,2", "--format", "mm"],
    # of a sigma-shift witness
    ["matrix", "--phi=0.5,0,0,1", "--n", "16", "--witness", "sigma-shift:0.2,2", "--format", "mm"],
    # of a qdiff witness
    ["matrix", "--phi=0.5,0,0,1", "--n", "16", "--space", "fock", "--witness", "qdiff:2", "--format", "mm"],
    # of the identity witness
    ["matrix", "--phi=0.5,0,0,1", "--n", "8", "--witness", "identity", "--format", "mm"],
    # of a shift witness
    ["matrix", "--phi=0.5,0,0,1", "--n", "8", "--witness", "shift:3", "--format", "mm"],
    # domain error, exit 1: a non-self-map
    ["matrix", "--phi=2,0,0,1"],
    # domain error: a qdiff witness off Fock space
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "qdiff:1"],
    # domain error: a shift past the order
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "shift:9"],
    # domain error: a sigma-shift centre outside the disk
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "sigma-shift:2,1"],
    # domain error: a margin that keeps nothing
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "identity", "--margin", "8"],
    # domain error: a negative exponential parameter
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "mult:exponential,-1"],
    # domain error: Fock norms past the float range
    ["matrix", "--phi=0.5,0,0,1", "--space", "fock", "--alpha", "0.01", "--n", "256"],
    # exit 1: an unmet --require-prediction
    ["extscan", "--phi=1,0.5,0.5,1", "--space", "hardy", "--n", "8", "--points", "16", "--require-prediction"],
    # domain error: witness entries past the float range, in Matrix Market
    ["matrix", "--phi=0.5,0,0,1", "--n", "64", "--witness", "mult:binomial,1e300", "--format", "mm"],
    # domain error: the same witness under extcheck
    ["extcheck", "--phi=0.5,0,0,1", "--n", "64", "--lam", "1", "--witness", "mult:binomial,1e300"],
    # domain error: qmult-shifted entries past the float range
    ["matrix", "--phi=0.5,0,0,1", "--space", "fock", "--n", "8", "--witness", "qmult-shifted:5,1000", "--format", "json"],
    # domain error: a sigma-power witness whose binomial coefficients pass the float range and whose
    # entries underflow to a zero operator
    ["extcheck", "--phi=0.5,0.1,0,1", "--n", "256", "--lam", "1", "--witness", "mult:sigma-power,100000"],
    # domain error: the residual A X - lambda X A past the float range from a finite witness and
    # lambda
    ["extcheck", "--phi=1i,0,0,1", "--space", "bergman", "--n", "9", "--witness", "mult:cayley,100i", "--lam=1e300"],
    # exit 2: an unknown witness
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "bogus:1"],
    # an unknown multiplication family
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "mult:bogus,1"],
    # a malformed witness parameter list
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "sigma-shift:0.2"],
    # a malformed witness parameter list
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "qmult-shifted:0.5"],
    # a malformed witness parameter list
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "shift:"],
    # a malformed witness parameter list: a bad integer
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "shift:x"],
    # a bad complex literal in a witness
    ["extcheck", "--phi=0.5,0,0,1", "--n", "8", "--lam", "1", "--witness", "sigma-shift:zz,1"],
    # an empty matrix witness, which exited 0 with C_phi before cmd_matrix told an empty witness
    # from none
    ["matrix", "--phi=0.5,0,0,1", "--n", "8", "--witness", "", "--format", "mm"],
    # an empty grid
    ["extscan", "--phi=0.5,0,0,1", "--n", "8", "--grid", "annulus", "--rmin", "2", "--rmax", "1", "--points", "16"],
    # a disk whose radii rmax * k overflow; it exited 0 with Infinity and NaN in the JSON before
    # make_grid checked
    ["extscan", "--phi=0.5,0,0,1", "--n", "8", "--grid", "disk", "--rmax", "1e308", "--points", "16"],
    # a circle whose step 2 rmax overflows; the same
    ["extscan", "--phi=0.5,0,0,1", "--n", "8", "--grid", "circle", "--rmax", "1e308", "--points", "16"],
    # exit 3: an unresolved class
    ["verify", "--phi=1,0.5,0.5,1", "--space", "hardy", "--n", "8"],
    # the order-256 matrix JSON, 3.9 MB of entries in the column writer
    ["matrix", "--phi=1,0.5,0.5,1", "--n", "256", "--format", "json"],
    # ratio_distance: a Fock contraction whose eigenvalues 0.01^k span hundreds of decades; the
    # reliability filter keeps 8 ratios, 1e-8 to 1e6, one block
    ["extscan", "--phi=0.01,0,0,1", "--space", "fock", "--n", "256", "--grid", "disk", "--points", "4096"],
    # ratio_distance: a Bergman rotation scanned on an annulus far outside its ratio set, wide
    # candidate boxes in the tiles
    ["extscan", "--phi=0.6+0.8i,0,0,1", "--space", "bergman", "--n", "256", "--grid", "annulus",
     "--rmin", "3", "--rmax", "40", "--points", "4096"],
    # ratio_distance: a circle of subnormal radius 1e-320
    ["extscan", "--phi=0.5,0,0,1", "--n", "8", "--grid", "circle", "--rmax", "1e-320", "--points", "16"],
    # ratio_distance: a Fock spiral whose 71 ratios span 3.7e-9 to 1.8e7; the argument bound
    # certifies about 300 points and the tile walk measures the rest
    ["extscan", "--phi=0.5+0.3i,0.2,0,1", "--space", "fock", "--n", "64", "--grid", "disk", "--points", "4096"],
    # --candidates 0 on a Fock contraction far from singular: no rank-one certificate applies, no
    # probe is built, the Sylvester column is all null
    ["extscan", "--phi=0.9,0.05,0,1", "--space", "fock", "--n", "24", "--points", "16", "--candidates", "0"],
    # an empty ratio set (no eigenvalue reliable on Fock 0.1z + 3, alpha = 10): eigs's ratio_set
    # note
    ["eigs", "--phi=0.1,3,0,1", "--space", "fock", "--alpha", "10", "--n", "8"],
    # the same under extscan: its "no reliable eigenvalues" branch, the "no ratio ranking" note for
    # --candidates 3 and ratio_distance's return for an empty set
    ["extscan", "--phi=0.1,3,0,1", "--space", "fock", "--alpha", "10", "--n", "8", "--points", "16",
     "--candidates", "3"],
    # complex literals -0, .5i and 1e-3-2.5e2i in --phi, and their config echo
    ["classify", "--phi=-0,.5i,1e-3-2.5e2i,i"],
    # complex literals -0i, -0 and bare i in --phi and --lam, .5i in a witness
    ["extcheck", "--phi=.5i,-0i,-0,1", "--n", "8", "--lam=i", "--witness", "mult:cayley,.5i"],
    # complex literals in --phi and a witness parameter
    ["matrix", "--phi=i,-0,-0i,1", "--n", "8", "--witness", "mult:binomial,1e-3-2.5e2i", "--format", "json"],
    # a sigma-shift change of basis at n = 130 passing binomials above 2^53 (j >= 57) and powers of
    # c = 0.6+0.2i past exponent 100 (CPython's polar branch), each entry's repr compared
    ["matrix", "--phi=0.5,0,0,1", "--space", "bergman", "--n", "130", "--witness", "sigma-shift:0.6+0.2i,3",
     "--format", "mm"],
    # the same on Hardy with c = -0.3-0i: every entry's imaginary part an exact zero whose sign is
    # compared
    ["matrix", "--phi=0.5,0,0,1", "--space", "hardy", "--n", "130", "--witness", "sigma-shift:-0.3-0i,2",
     "--format", "mm"],
    # argparse error (exit 2, empty stdout), as one parser holding every command gives: an option
    # before the command
    ["--phi=0.5,0,0,1", "classify"],
    # argparse error: an unrecognized trailing word
    ["classify", "--phi=0.5,0,0,1", "extra"],
    # argparse error: -- before the command
    ["--", "classify", "--phi=0.5,0,0,1"],
    # the parser's own outputs: the missing-command error, the top-level help (before and beside a
    # command), the "invalid choice" error and a command's help
    [],
    ["--help"],
    ["-h", "extcheck"],
    ["bogus"],
    ["extcheck", "--help"],
    # a disk of the smallest subnormal radius, whose inner rings underflow to 0: make_grid refuses
    # it (exit 2)
    ["extscan", "--phi=0.5,0,0,1", "--n", "8", "--grid", "disk", "--rmax", "5e-324", "--points", "16"],
    # an extcheck at n = 256 whose witness (X - tau I)^3, tau = 1e47, and kept block have largest
    # entries near 2^468, above the 2^459 past which xGESDD rescales its input itself, so
    # singular_values passes them to LAPACK unlifted (a sigma-shift witness reaches only 2^346 at n
    # = 256, even with |c| = 0.999)
    ["extcheck", "--phi=0.5,0.1,0,1", "--space", "fock", "--n", "256", "--witness", "qmult-shifted:1e47,3",
     "--lam=0.125", "--margin", "3"],
]


def responses(requests: list):
    """Send each request through compext.cli.main, importing it first, and
    yield its output as a record: the exit code (or the exception it raised,
    as text), stdout, stderr and the files its --out wrote.  The {out}
    placeholder becomes a file in a temporary directory, whose path is
    masked in the record."""
    from compext.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.json")
        for argv in requests:
            argv = [out_path if a == OUT else a for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # reported as a difference, not a crash
                    rc = f"raised {type(exc).__name__}: {exc}"
            files = {}
            for name in ("out.json", "out.grid.csv"):
                path = os.path.join(tmp, name)
                if os.path.exists(path):
                    files[name] = Path(path).read_text()
                    os.remove(path)
            rec = {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}
            yield json.loads(json.dumps(rec).replace(tmp, MASK))


def run_tree(src: str, requests: list, results: str) -> None:
    """Send each request from the tree at src and write the raw outputs."""
    sys.path.insert(0, src)
    Path(results).write_text(json.dumps(list(responses(requests))))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _normalize(rec: dict) -> dict:
    """Parsed, masked form of one request's output."""

    def doc(text: str):
        try:
            d = json.loads(text)
        except ValueError:
            return text.splitlines()
        if isinstance(d, dict) and "timestamp" in d:
            d["timestamp"] = MASK
        return d

    files = {}
    for name, text in rec["files"].items():
        if name.endswith(".csv"):
            lines = text.splitlines()
            files[name] = {
                "columns": lines[0].split(","),
                "rows": [[_number(v) for v in line.split(",")] for line in lines[1:]],
            }
        else:
            files[name] = doc(text)
    return {"rc": rec["rc"], "stdout": doc(rec["stdout"]), "stderr": rec["stderr"].splitlines(), "files": files}


def _masked(rec: dict) -> list:
    """stdout and the files as raw text, timestamps masked, for the byte
    comparison (_diff compares the exit code and stderr already)."""
    texts = [rec["stdout"]] + [rec["files"][name] for name in sorted(rec["files"])]
    return [TIMESTAMP.sub(MASK, text) for text in texts]


def _diff(a, b, path: str, found: dict) -> None:
    """Record in found[path] the largest |a - b| (None when not numeric)."""
    if isinstance(a, dict) and isinstance(b, dict):
        if "columns" in a and "rows" in a and a.get("columns") == b.get("columns"):
            cols = a["columns"]
            a = {k: v for k, v in a.items() if k != "rows"} | {"rows": [dict(zip(cols, r)) for r in a["rows"]]}
            b = {k: v for k, v in b.items() if k != "rows"} | {"rows": [dict(zip(cols, r)) for r in b["rows"]]}
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                found.setdefault(f"{path}.{key} (present in one tree only)", None)
            else:
                _diff(a[key], b[key], f"{path}.{key}", found)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            found.setdefault(f"{path} (length {len(a)} vs {len(b)})", None)
        for x, y in zip(a, b):
            _diff(x, y, f"{path}[*]", found)
    elif a != b and not (a != a and b != b):  # NaN matches NaN
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        found[path] = _worst(found.get(path, 0.0), abs(a - b) if numeric else None)


def _worst(x, y):
    """The larger difference; None (not numeric) dominates, then nan (a
    number against nan), which max would drop when it comes second."""
    if x is None or y is None:
        return None
    return max(x, y) if x == x and y == y else math.nan


def _matches_reference(workloads, req, ref, rec: dict) -> bool:
    """Whether rec, one tree's output for req, reproduces ref, the request's
    bench/reference digest (None when none is recorded)."""
    if ref is None:
        return False
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in rec["files"].items():
            Path(tmp, name).write_text(text)
        try:
            got = workloads.digest(req, rec["rc"], rec["stdout"], Path(tmp, "out.json"))
        except (ValueError, KeyError, IndexError, OSError):
            return False
    return workloads.mismatch(got, ref) is None


def compare(requests: list, old: list, new: list, check=None) -> bool:
    """Print the per-command report; check(i, record), when given, says
    whether NEW_TREE's i-th output matches its reference digest."""
    per_cmd = defaultdict(lambda: {"total": 0, "same": 0, "fields": {}, "examples": [], "digest_ok": 0})
    for i, (argv, ra, rb) in enumerate(zip(requests, old, new)):
        # the command, after any option; "(none)" for a line without one
        entry = per_cmd[next((a for a in argv if not a.startswith("-")), "(none)")]
        entry["total"] += 1
        found = {}
        _diff(_normalize(ra), _normalize(rb), "", found)
        if not found and _masked(ra) != _masked(rb):
            found["(same values, different bytes)"] = None
        if not found:
            entry["same"] += 1
            continue
        entry["digest_ok"] += bool(check and check(i, rb))
        if len(entry["examples"]) < EXAMPLES:
            entry["examples"].append(" ".join(argv))
        for field, delta in found.items():
            count, worst = entry["fields"].get(field, (0, 0.0))
            entry["fields"][field] = (count + 1, _worst(worst, delta))
    identical = True
    for cmd in sorted(per_cmd):
        e = per_cmd[cmd]
        print(f"{cmd}: {e['same']} of {e['total']} identical")
        identical &= e["same"] == e["total"]
        if check and e["same"] < e["total"]:
            print(f"  {e['digest_ok']} of the {e['total'] - e['same']} that differ match their bench/reference digest")
        for field, (count, worst) in sorted(e["fields"].items()):
            size = "not numeric" if worst is None else f"max |diff| {worst:.3g}"
            print(f"  {field.lstrip('.')}: differs in {count} ({size})")
        for example in e["examples"]:
            print(f"  e.g. {example}")
    return identical


def acceptance_lines(tree: str, env: dict) -> subprocess.Popen:
    """Start the tree's acceptance tests; their output is read from stdout."""
    root = Path(tree).resolve()
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "tests/test_acceptance.py"]
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def compare_acceptance(old: str, new: str) -> bool:
    """Print each [Cn] label as identical or with both trees' lines."""
    lines = [dict(re.findall(r"(\[C\d+\])([^\n]*)", text)) for text in (old, new)]
    identical = len(lines[0]) == 9
    for label in sorted(set(lines[0]) | set(lines[1]), key=lambda k: int(k[2:-1])):
        a, b = (side.get(label, " (not printed)") for side in lines)
        if a == b:
            print(f"{label} identical")
        else:
            identical = False
            print(f"{label} differs\n  old:{a}\n  new:{b}")
    return identical


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?", help="root of the first source tree")
    ap.add_argument("new", nargs="?", help="root of the second source tree")
    ap.add_argument("--workload", action="append", help="limit to these workloads (repeatable)")
    ap.add_argument("--acceptance", action="store_true", help="compare the [Cn] lines of the acceptance tests instead")
    ap.add_argument("--run-tree", nargs=3, metavar=("SRC", "REQUESTS", "RESULTS"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_tree:
        src, req_file, results = args.run_tree
        run_tree(src, json.loads(Path(req_file).read_text()), results)
        return 0
    if not (args.old and args.new):
        ap.error("give two source trees")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if args.acceptance:
        for tree in (args.old, args.new):
            if not (Path(tree) / "tests" / "test_acceptance.py").is_file():
                ap.error(f"{tree} has no tests/test_acceptance.py")
        procs = [acceptance_lines(tree, env) for tree in (args.old, args.new)]
        old, new = (p.communicate()[0] for p in procs)
        print(f"acceptance, {args.old} vs {args.new}")
        return 0 if compare_acceptance(old, new) else 1

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    pool = []  # (request, its reference digest or None)
    for w in args.workload or workloads.WORKLOADS:
        refs = json.loads((ROOT / "bench" / "reference" / f"{w}.json").read_text())["requests"]
        pool += [(req, refs.get(req.key)) for req in workloads.pool(w)]
    pooled = [list(req.argv) for req, _ in pool]
    requests = pooled + OFF_POOL
    with tempfile.TemporaryDirectory() as tmp:
        req_file = os.path.join(tmp, "requests.json")
        Path(req_file).write_text(json.dumps(requests))
        procs, outputs = [], []
        for i, tree in enumerate((args.old, args.new)):
            src = str(Path(tree).resolve() / "src")
            if not os.path.isdir(os.path.join(src, "compext")):
                ap.error(f"{tree} has no src/compext")
            outputs.append(os.path.join(tmp, f"results{i}.json"))
            cmd = [sys.executable, __file__, "--run-tree", src, req_file, outputs[-1]]
            procs.append(subprocess.Popen(cmd, env=env))
        if any(p.wait() != 0 for p in procs):
            print("error: a tree's run failed", file=sys.stderr)
            return 2
        old, new = (json.loads(Path(o).read_text()) for o in outputs)
    n = len(pooled)
    print(f"{n} requests, {args.old} vs {args.new}")
    identical = compare(pooled, old[:n], new[:n], lambda i, rec: _matches_reference(workloads, *pool[i], rec))
    print(f"{len(OFF_POOL)} off-pool requests")
    identical &= compare(OFF_POOL, old[n:], new[n:])
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
