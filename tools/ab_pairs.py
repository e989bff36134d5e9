"""Run the benchmark on two source trees in alternating pairs and compare them.

    python3 tools/ab_pairs.py OLD_TREE NEW_TREE --workload W --pairs K [--seconds S] [--seeds N ...]

Pair i runs `python3 bench/run.py --workload W --seed SEED_i --seconds S
--trace 0` once in each tree, each run a subprocess started from the tree's
root, so each tree imports its own src/.  The tree that goes first alternates
from pair to pair (OLD first in the first pair).  The seeds are --seeds, one
per pair, or 1 .. K when none are given.  Nothing under either tree is
changed.

For every end-to-end metric that BENCHMARK.json lists (its name, unit,
which direction is better and its bound, a share of OLD's median), the
report gives each side's median and quartiles over the pairs, the change of
the medians relative to OLD's median, OLD's interquartile range, and the
number of pairs NEW won (ties count for neither side).  Two rules mark a
metric:
  - no regression: "worse" when NEW's median is worse than OLD's by more
    than the bound; otherwise "unresolved" when OLD's interquartile range
    exceeds the bound, unless every NEW run is better than every OLD run;
  - a claimed gain: "gain" when at least ten pairs ran, NEW won at least
    nine tenths of them and the medians differ, in NEW's favour, by more
    than OLD's interquartile range.
Each run's failed-request count and `correct` flag are reported too.  Exit
status: 0 when every run finished and was correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object that bench/run.py prints last, or None when the run
    exits non-zero or prints no result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{tree} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """(q1, median, q3) by the inclusive method, which a sample of one allows."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def report(metrics: list, pairs: list) -> list:
    """One line per end-to-end metric over the pairs where both runs finished."""
    lines = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        old = [o["metrics"][name]["value"] for o, n in pairs]
        new = [n["metrics"][name]["value"] for o, n in pairs]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        iqr = o3 - o1
        ahead = (nm - om) if higher else (om - nm)
        bound = m["bound"] * abs(om)
        every_run_better = min(new) > max(old) if higher else max(new) < min(old)
        verdict = "; worse" if -ahead > bound else "; unresolved" if iqr > bound and not every_run_better else ""
        gain = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and ahead > iqr
        rel = f"{(nm - om) / om:+.1%}" if om else "n/a"
        lines.append(
            f"{name} [{m['unit']}]: old {o1:.4g}/{om:.4g}/{o3:.4g}, new {n1:.4g}/{nm:.4g}/{n3:.4g}"
            f" (q1/median/q3); median {rel} of {om:.4g}, old IQR {iqr:.3g};"
            f" new won {wins} of {len(pairs)}{verdict}{'; gain' if gain else ''}"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seeds", type=int, nargs="+")
    args = ap.parse_args(argv)
    seeds = args.seeds or list(range(1, args.pairs + 1))
    if len(seeds) != args.pairs:
        ap.error(f"--seeds gives {len(seeds)} seeds for {args.pairs} pairs")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    pairs, ok = [], True
    for i, seed in enumerate(seeds):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        got = {side: run_once(trees[side], args.workload, seed, args.seconds) for side in order}
        for side in order:
            res = got[side]
            if res is None or not res["correct"]:
                ok = False
            status = "no result" if res is None else f"{res['failed']} failed of {res['attempted']}, correct {res['correct']}"
            rps = "" if res is None else f", requests_per_s {res['metrics']['requests_per_s']['value']:.4g}"
            print(f"pair {i + 1} seed {seed} {side}: {status}{rps}", flush=True)
        if got["old"] is not None and got["new"] is not None:
            pairs.append((got["old"], got["new"]))
    print(f"{args.workload}: {len(pairs)} complete pairs, {args.seconds:g} s per run")
    if pairs:
        print("\n".join(report(metrics, pairs)))
    return 0 if ok and len(pairs) == len(seeds) else 1


if __name__ == "__main__":
    sys.exit(main())
