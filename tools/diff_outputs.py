"""Compare the CLI outputs of two source trees over the benchmark's request pools.

    python3 tools/diff_outputs.py OLD_TREE NEW_TREE [--workload W ...]

Every request of the pools in bench/workloads.py (all three workloads unless
--workload narrows them) is sent through compext.cli.main once per tree, each
tree in its own subprocess with its src/ first on sys.path and BLAS pinned to
one thread; the two trees run side by side.  The pools come from this
checkout's bench/, so both trees answer the same requests.

Outputs are compared after masking what legitimately changes from run to run:
the JSON "timestamp" and the temporary directory that replaces the "{out}"
placeholder of `extscan --out` (its JSON and .grid.csv files are compared
too).  The report gives, per command, how many requests produced identical
output (exit code, stdout, stderr and files) and, for the rest, each differing
field with wildcard indices (extscan rows by column name), the number of
requests in which it differs and the largest absolute difference of its
numbers, followed by two of the differing requests.  Exit status: 0 when every output is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = "{out}"  # the placeholder bench/workloads.py puts in --out arguments
MASK = "<masked>"
EXAMPLES = 2  # differing requests listed per command


def run_tree(src: str, requests: list, results: str) -> None:
    """Send each request through compext.cli.main and write the raw outputs."""
    sys.path.insert(0, src)
    from compext.cli import main

    records = []
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
            records.append(json.loads(json.dumps(rec).replace(tmp, MASK)))
    Path(results).write_text(json.dumps(records))


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
    """The larger difference; None (not numeric) dominates."""
    return None if x is None or y is None else max(x, y)


def compare(requests: list, old: list, new: list) -> bool:
    per_cmd = defaultdict(lambda: {"total": 0, "same": 0, "fields": {}, "examples": []})
    for argv, ra, rb in zip(requests, old, new):
        entry = per_cmd[argv[0]]
        entry["total"] += 1
        found = {}
        _diff(_normalize(ra), _normalize(rb), "", found)
        if not found:
            entry["same"] += 1
            continue
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
        for field, (count, worst) in sorted(e["fields"].items()):
            size = "not numeric" if worst is None else f"max |diff| {worst:.3g}"
            print(f"  {field.lstrip('.')}: differs in {count} ({size})")
        for example in e["examples"]:
            print(f"  e.g. {example}")
    return identical


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?", help="root of the first source tree")
    ap.add_argument("new", nargs="?", help="root of the second source tree")
    ap.add_argument("--workload", action="append", help="limit to these workloads (repeatable)")
    ap.add_argument("--run-tree", nargs=3, metavar=("SRC", "REQUESTS", "RESULTS"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_tree:
        src, req_file, results = args.run_tree
        run_tree(src, json.loads(Path(req_file).read_text()), results)
        return 0
    if not (args.old and args.new):
        ap.error("give two source trees")

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    requests = [list(req.argv) for w in (args.workload or workloads.WORKLOADS) for req in workloads.pool(w)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
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
    print(f"{len(requests)} requests, {args.old} vs {args.new}")
    return 0 if compare(requests, old, new) else 1


if __name__ == "__main__":
    sys.exit(main())
