"""compext benchmark: one client driving compext.cli.main in-process, closed loop.

    python3 bench/run.py --workload verify-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  The workload's request cycle is generated from --seed (see
workloads.py) and sent back to back, each request after the previous one has
returned.  The cycle is sent over and over (passes) until --seconds of
request time have been measured and at least MIN_PASSES passes are done.
Every time is scaled to a reference host speed by a calibration kernel timed
between requests (hostspeed.py), and each request's latency is the median of
its scaled times over the passes.  Every output is checked against the
reference recorded in bench/reference/ (see record.py).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json; --trace 1
wraps every layer in spans (tracing.py), runs whole passes, and reports the
per-layer metrics per pass.  The last line of stdout is the result object;
the lines before it list the environment and each metric with its sample
count.
"""

import os

# one BLAS thread: unpinned OpenBLAS on two cores made eig at N=64 ten times slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

MIN_PASSES = 2  # every request is sent at least twice
MAX_SECONDS = 120.0  # measured-time cap that keeps a run inside its time limit
SETUP_REPEATS = 9


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or references)."""


def load_compext():
    """Import compext from this checkout's src/, never from anywhere else."""
    if not (SRC / "compext" / "__init__.py").is_file():
        raise BenchError(f"no compext sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import compext
    import compext.cli

    if Path(compext.__file__).resolve().parent != (SRC / "compext").resolve():
        raise BenchError(f"imported compext from {compext.__file__}, not from {SRC}")
    return compext.cli


def load_references(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"no reference outputs at {path}")
    return json.loads(path.read_text())["requests"]


def execute(cli, req, work: Path):
    """Send one request; returns (exit code or None if it raised, stdout or
    the traceback, output path, seconds)."""
    out_path = work / "scan.json"
    for stale in work.iterdir():  # a request that writes nothing must not see the last one's files
        stale.unlink()
    argv = [str(out_path) if a == workloads.OUT else a for a in req.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a request this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request, not a crashed benchmark
        elapsed = time.perf_counter() - t0
        return None, traceback.format_exc(limit=3), out_path, elapsed
    elapsed = time.perf_counter() - t0
    return rc, stdout.getvalue(), out_path, elapsed


def check(req, rc, stdout, out_path, refs) -> str | None:
    """None when the output matches the reference, else the reason."""
    if rc is None:
        return stdout
    ref = refs.get(req.key)
    if ref is None:
        return "no reference recorded for this request"
    try:
        got = workloads.digest(req, rc, stdout, out_path)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return f"unreadable output: {exc!r}"
    return workloads.mismatch(got, ref)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def send(cli, req, refs, work: Path):
    """Send one request and check it; returns (seconds, failure or None)."""
    rc, stdout, out_path, dt = execute(cli, req, work)
    reason = check(req, rc, stdout, out_path, refs)
    if reason is None:
        return dt, None
    print(f"mismatch: {req.key}: rc={rc}: {reason}", file=sys.stderr)
    return dt, (req.key, rc, reason)


@contextlib.contextmanager
def work_dir():
    """A temporary directory under bench/ for `extscan --out` files."""
    path = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_loop(cli, cycle, refs, seconds, tracer=None, min_passes=MIN_PASSES, between=None):
    """Closed loop over the cycle, pass after pass.  Untraced: stop once
    `seconds` of request time and `min_passes` passes are done, part-way
    through a pass if need be.  Traced: run whole passes, as many as fit in
    `seconds` (at least one), so that per-pass counts repeat.  `between(busy)`
    is called after every request.  Returns (for each request of the cycle,
    its sends as (midpoint, seconds); failures; measured seconds; whole
    passes run)."""
    latencies = [[] for _ in cycle]
    failures = []
    busy = 0.0
    passes = 0
    with work_dir() as work:
        while True:
            pass_busy = 0.0
            for i, req in enumerate(cycle):
                if tracer is not None:
                    tracer.request += 1
                t0 = time.perf_counter()
                dt, failure = send(cli, req, refs, work)
                latencies[i].append((t0 + dt / 2, dt))
                busy += dt
                pass_busy += dt
                if failure is not None:
                    failures.append(failure)
                if between is not None:
                    between(busy)
                done = tracer is None and busy >= seconds and passes >= min_passes
                if done or busy >= MAX_SECONDS:
                    return latencies, failures, busy, passes
            passes += 1
            if tracer is None and busy >= seconds and passes >= min_passes:
                return latencies, failures, busy, passes
            if tracer is not None and busy + pass_busy > seconds:
                return latencies, failures, busy, passes


def warm_up(cli, cycle, refs) -> list:
    """One request per subcommand, untimed: first-call set-up inside numpy and
    scipy is paid once per process, like the import that setup_s measures.
    Returns the failures."""
    first = {}
    for req in cycle:
        first.setdefault(req.command, req)
    with work_dir() as work:
        sent = [send(cli, req, refs, work) for req in first.values()]
    return [failure for _, failure in sent if failure is not None]


def setup_seconds() -> tuple:
    """(midpoint, wall time) of one fresh interpreter importing compext."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import compext"], env=env, check=True, cwd=ROOT)
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


class Sampler:
    """Called after every request: samples the host speed once per
    hostspeed.CALIBRATE_EVERY_S of request time, and times SETUP_REPEATS
    interpreter starts spread evenly over the run's request time (one at the
    start, the rest as `busy` crosses each step), each followed by a kernel
    sample."""

    def __init__(self, seconds: float, speed: hostspeed.HostSpeed):
        self.speed = speed
        self.step = seconds / SETUP_REPEATS
        self.starts = []
        self._start()

    def _start(self):
        self.starts.append(setup_seconds())
        self.speed.sample()

    def __call__(self, busy: float):
        self.speed.tick(busy)
        if len(self.starts) < SETUP_REPEATS and busy >= self.step * len(self.starts):
            self._start()

    def finish(self):
        """Make up the starts a run that ended early did not reach."""
        while len(self.starts) < SETUP_REPEATS:
            self._start()


def latency_metrics(per_request: list, ok: int) -> dict:
    """Throughput and latency percentiles from one latency per request."""
    return {
        "requests_per_s": ok / sum(per_request),
        "request_p50_ms": percentile(per_request, 0.50) * 1e3,
        "request_p90_ms": percentile(per_request, 0.90) * 1e3,
    }


def git_commit() -> str:
    """HEAD's commit when the checkout is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    sources = sorted((SRC / "compext").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": digest,
        "source_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def metric_specs(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, refs=None) -> dict:
    """One benchmark run; returns the result object (see the module docstring)."""
    cli = load_compext()
    refs = load_references(workload) if refs is None else refs
    cycle = workloads.cycle(workload, seed, tiny=tiny)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    failures = warm_up(cli, cycle, refs)
    speed = hostspeed.HostSpeed()
    if trace:
        with tracing.Tracer() as tracer:
            lat, fails, busy, passes = run_loop(cli, cycle, refs, seconds, tracer=tracer, between=speed.tick)
    else:
        sampler = Sampler(seconds, speed)
        lat, fails, busy, passes = run_loop(cli, cycle, refs, seconds, min_passes=1 if tiny else MIN_PASSES,
                                            between=sampler)
        sampler.finish()
    for _ in range(hostspeed.NEAREST):  # the speed after the last request
        speed.sample()
    sent = sum(map(len, lat))
    failed_keys = {key for key, _, _ in fails}
    ok = sum(req.key not in failed_keys for req in cycle)
    n = len(cycle)
    scaled = latency_metrics([statistics.median(speed.scaled(ts)) for ts in lat], ok)
    if trace:
        values = tracer.layer_metrics(max(passes, 1))
        values["trace.requests_per_s"] = scaled["requests_per_s"]
        values["trace.busy_ms"] = busy * 1e3 / max(passes, 1)
        specs = metric_specs("per_layer")
        samples = dict.fromkeys(values, f"per pass, {passes} passes of {n} requests")
        samples["trace.requests_per_s"] = f"{ok} correct of {n} requests, scaled like requests_per_s"
    else:
        sends = f"median of {min(map(len, lat))} to {max(map(len, lat))} sends"
        values = scaled | {
            "setup_s": statistics.median(speed.scaled(sampler.starts)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        unscaled = latency_metrics([statistics.median(dt for _, dt in ts) for ts in lat], ok)
        unscaled["setup_s"] = statistics.median(dt for _, dt in sampler.starts)
        kernel = [dt * 1e3 for _, dt in speed.marks]
        print(f"host speed: kernel {statistics.median(kernel):.3f} ms median, {min(kernel):.3f} to {max(kernel):.3f} ms"
              f" over {len(kernel)} samples; reference {hostspeed.REFERENCE_S * 1e3:g} ms")
        print("unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in sorted(unscaled.items())))
        specs = metric_specs("end_to_end")
        samples = {
            "setup_s": f"median of {len(sampler.starts)} interpreter starts, scaled",
            "requests_per_s": f"{ok} correct of {n} requests, each the {sends}, scaled; {busy:.2f} s measured",
            "request_p50_ms": f"{n} requests, each the {sends}, scaled",
            "request_p90_ms": f"{n} requests, {n - math.ceil(0.9 * n)} beyond p90",
            "peak_rss_mb": "1 process",
        }
        print(f"error_rate = {len(fails) / sent:.6g} ratio  [{len(fails)} of {sent} requests sent]")
    failures += fails
    for name, unit in specs:
        print(f"{name} = {values[name]:.6g} {unit}  [{samples[name]}]")
    return {
        "correct": not failures,
        "attempted": sent,
        "failed": len(fails),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compext benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
