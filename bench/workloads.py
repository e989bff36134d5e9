"""Request pools, per-seed schedules and output digests for the three workloads.

Each workload is a list of slots.  A slot is one request shape (subcommand,
space, symbol class, truncation order, grid) with a fixed pool of VARIANTS
parameter draws; the pool is generated from a fixed seed, so reference
outputs can be recorded once for every request the benchmark can send.  The
run seed picks which REPEAT variants of each slot the run's cycle sends
(the N=128 requests of verify-scan use one fixed draw), and the order of the
cycle.  The composition of a cycle (how
many requests of each shape) never depends on the seed, and averaging over
several draws per slot keeps the cost of a cycle steady from seed to seed.
The cycles are kept short, 5 to 10 s, because a run sends its cycle several
times over (see run.py).

A digest is the part of a request's output that must not change: the exit
code, every verdict, each scan's flagged-point indices, witness residuals
(to RESIDUAL_RTOL) and matrix checksums.  Raw Sylvester sigma values and
distances are deliberately left out, so that a more accurate probe which
keeps the same flags still matches.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-scan", "spectral-limit", "witness-batch")
VARIANTS = 8
REPEAT = 4
POOL_SEED = 20240327

RESIDUAL_RTOL = 1e-6
RESIDUAL_ATOL = 1e-13
CHECKSUM_RTOL = 1e-9

OUT = "{out}"  # placeholder for a per-run output path inside the checkout


@dataclass(frozen=True)
class Request:
    argv: tuple

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def order(self) -> str:
        return self.argv[self.argv.index("--n") + 1]


@dataclass(frozen=True)
class Slot:
    name: str
    variants: tuple  # of Request
    repeat: int  # distinct variants a cycle sends


# ---------------------------------------------------------------------------
# symbol generation (standard forms, parameters inside their constraints)


def cx(z) -> str:
    """Complex literal in the CLI's x+yi form."""
    z = complex(z)
    text = repr(z.real)
    if z.imag != 0:
        text += ("+" if z.imag > 0 else "-") + repr(abs(z.imag)) + "i"
    return text


def phi_arg(a, b, c, d) -> str:
    # --phi=... keeps argparse from reading a leading minus sign as an option
    return "--phi=" + ",".join(cx(v) for v in (a, b, c, d))


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _unit(rng: random.Random) -> complex:
    # an angle bounded away from 0 so that the rotation is not near the identity
    theta = _u(rng, 0.05, 0.45) * rng.choice((-1, 1))
    return cmath.exp(2j * math.pi * theta)


def symbol(family: str, rng: random.Random) -> dict:
    """One draw of a symbol family: space, coefficients and the class data
    that witnesses need (multiplier, fixed point)."""
    if family == "fock-rotation":
        w = _unit(rng)
        return {"space": "fock", "coeffs": (w, 0, 0, 1), "w": w}
    if family == "fock-affine":
        w = _u(rng, 0.45, 0.65) * cmath.exp(1j * _u(rng, -0.6, 0.6))
        b = complex(_u(rng, -1, 1), _u(rng, -1, 1))
        return {"space": "fock", "coeffs": (w, b, 0, 1), "w": w, "tau": b / (1 - w)}
    if family == "bergman-elliptic":
        w = _unit(rng)
        return {"space": "bergman", "coeffs": (w, 0, 0, 1), "w": w}
    if family == "bergman-hyperbolic-aut":
        r = _u(rng, 0.3, 0.7)
        # multiplier at the attracting point z = 1 is (1 - r)/(1 + r) = 1/R
        return {"space": "bergman", "coeffs": (1, r, r, 1), "R": (1 + r) / (1 - r)}
    if family == "bergman-na-1":
        r = _u(rng, 0.3, 0.7)
        return {"space": "bergman", "coeffs": (r, 1 - r, 0, 1), "r": r}
    if family in ("bergman-na-3", "bergman-loxodromic"):
        if family == "bergman-na-3":
            a = complex(_u(rng, 0.4, 0.7))
        else:
            a = _u(rng, 0.4, 0.7) * cmath.exp(1j * _u(rng, 0.4, 2.6) * rng.choice((-1, 1)))
        # |a| + |1 - a| |c| <= 1 keeps z -> a (z - c) + c a self-map of the disk
        rho = _u(rng, 0.1, 0.8) * (1 - abs(a)) / abs(1 - a)
        c = rho * cmath.exp(1j * _u(rng, -math.pi, math.pi))
        return {"space": "bergman", "coeffs": (a, c * (1 - a), 0, 1), "a": a, "c": c}
    if family == "bergman-parabolic-aut":
        t = _u(rng, 0.5, 2.0) * rng.choice((-1, 1))
        a = 1j * t
        # half-plane translation length: (1 + phi(0))/(1 - phi(0)) - 1
        phi0 = a / (2 + a)
        return {"space": "bergman", "coeffs": (2 - a, a, -a, 2 + a), "shift": (1 + phi0) / (1 - phi0) - 1}
    raise ValueError(f"unknown symbol family {family!r}")


VERIFY_FAMILIES = (
    "fock-rotation",
    "fock-affine",
    "bergman-elliptic",
    "bergman-hyperbolic-aut",
    "bergman-na-1",
    "bergman-na-3",
    "bergman-loxodromic",
    "bergman-parabolic-aut",
)


def _base(command: str, sym: dict, n: int) -> list:
    return [command, phi_arg(*sym["coeffs"]), "--space", sym["space"], "--n", str(n)]


def _slot(name: str, make, variants: int = VARIANTS, repeat: int = REPEAT) -> Slot:
    rng = random.Random(f"{POOL_SEED}:{name}")
    return Slot(name, tuple(Request(tuple(make(rng, v))) for v in range(variants)), repeat)


# ---------------------------------------------------------------------------
# verify-scan: every resolved (space, class) pair, plus probe-everything scans


SCAN_SHAPES = {
    # family: (grid, rmin, rmax) -- the acceptance-scan shapes C1, C4, C5, C6
    "fock-rotation": ("circle", None, None),
    "bergman-loxodromic": ("annulus", None, None),
    "bergman-hyperbolic-aut": ("annulus", 0.2, 5.0),
    "bergman-na-1": ("disk", None, None),
}
VERIFY_POINTS = {48: 16, 128: 16}
SCAN_POINTS = {48: 32, 128: 16}
# at N=128 a probe that does not converge costs ~60 ms, so only the C1 and C6
# shapes are scanned there; a run must fit several passes of the cycle
SCAN_ORDERS = {48: tuple(SCAN_SHAPES), 128: ("fock-rotation", "bergman-na-1")}


def _draws(n: int) -> tuple:
    """(variants, repeat) for requests at order n.  N=128 requests use one
    fixed draw: their cost varies up to 3x between draws (probe convergence),
    so a per-seed draw would let the seed, not the code, set the figures."""
    return (1, 1) if n == 128 else (VARIANTS, REPEAT)


def _verify_slots() -> list:
    slots = []
    for n in (48, 128):
        for fam in VERIFY_FAMILIES:
            def make(rng, v, fam=fam, n=n):
                sym = symbol(fam, rng)
                return _base("verify", sym, n) + ["--points", str(VERIFY_POINTS[n]), "--seed", str(v)]

            slots.append(_slot(f"verify {fam} n={n}", make, *_draws(n)))
    for n, families in SCAN_ORDERS.items():
        for fam in families:
            grid, rmin, rmax = SCAN_SHAPES[fam]

            def make(rng, v, fam=fam, n=n, grid=grid, rmin=rmin, rmax=rmax):
                sym = symbol(fam, rng)
                if fam == "bergman-loxodromic":
                    rmin, rmax = round(abs(sym["a"]) ** 1.5, 6), round(1.1 / abs(sym["a"]), 6)
                argv = _base("extscan", sym, n) + ["--grid", grid, "--points", str(SCAN_POINTS[n])]
                if rmin is not None:
                    argv += ["--rmin", repr(rmin), "--rmax", repr(rmax)]
                return argv + ["--candidates", "all", "--seed", str(v)]

            slots.append(_slot(f"extscan {fam} n={n}", make, *_draws(n)))
    return slots


# ---------------------------------------------------------------------------
# spectral-limit: extscan and eigs at the CLI limits (N=256, 4096 points)


SPECTRAL_FAMILIES = ("bergman-elliptic", "fock-rotation", "bergman-hyperbolic-aut", "bergman-parabolic-aut")
SPECTRAL_GRIDS = {"circle": [], "annulus": ["--rmin", "0.5", "--rmax", "2.0"], "disk": []}


def _spectral_slots() -> list:
    slots = []
    for fam in SPECTRAL_FAMILIES:
        for grid, extra in SPECTRAL_GRIDS.items():
            def make(rng, v, fam=fam, grid=grid, extra=extra):
                argv = _base("extscan", symbol(fam, rng), 256) + ["--grid", grid, "--points", "4096"] + extra
                # disk scans write their JSON summary and the 4096-row CSV to files
                return argv + (["--out", OUT] if grid == "disk" else [])

            slots.append(_slot(f"extscan {fam} {grid}", make))
        slots.append(_slot(f"eigs {fam}", lambda rng, v, fam=fam: _base("eigs", symbol(fam, rng), 256)))
    return slots


# ---------------------------------------------------------------------------
# witness-batch: classify, one extcheck per witness-grammar entry, matrix --format mm


def _witness_case(entry: str, rng: random.Random, n: int):
    """(symbol, witness text, lambda, margin, threshold) for one grammar entry,
    with the class's lambda and the margin verify uses for it."""
    if entry == "identity":
        sym = symbol("bergman-na-3", rng)
        return sym, "identity", 1.0, 0, 1e-10
    if entry == "shift":
        sym, k = symbol("bergman-elliptic", rng), rng.randint(1, 5)
        return sym, f"shift:{k}", sym["w"] ** (-k), 0, 1e-10
    if entry == "sigma-shift":
        sym, k = symbol("bergman-loxodromic", rng), rng.randint(1, 3)
        return sym, f"sigma-shift:{cx(sym['c'])},{k}", sym["a"] ** (-k), k, 1e-9
    if entry == "qdiff":
        sym, k = symbol("fock-rotation", rng), rng.randint(1, 5)
        return sym, f"qdiff:{k}", sym["w"] ** (-k), k, 1e-10
    if entry == "qmult-shifted":
        sym, k = symbol("fock-affine", rng), rng.randint(1, 3)
        return sym, f"qmult-shifted:{cx(sym['tau'])},{k}", sym["w"] ** k, k, 1e-9
    if entry == "mult:monomial":
        sym, k = symbol("bergman-elliptic", rng), rng.randint(1, 5)
        return sym, f"mult:monomial,{k}", sym["w"] ** k, k, 1e-10
    if entry == "mult:binomial":
        sym, w = symbol("bergman-na-1", rng), rng.choice((1.0, 2.0, 1 + 1j))
        return sym, f"mult:binomial,{cx(w)}", complex(sym["r"]) ** w, 3 * n // 4, 1e-6
    if entry == "mult:cayley":
        sym, w = symbol("bergman-hyperbolic-aut", rng), rng.choice((1j, 2j))
        return sym, f"mult:cayley,{cx(w)}", complex(sym["R"]) ** w, n - n // 8, 1e-6
    if entry == "mult:exponential":
        sym, t = symbol("bergman-parabolic-aut", rng), rng.choice((1.0, 2.0))
        return sym, f"mult:exponential,{t!r}", cmath.exp(-sym["shift"] * t), n - n // 8, 1e-3
    if entry == "mult:sigma-power":
        sym, k = symbol("bergman-na-3", rng), rng.randint(1, 3)
        return sym, f"mult:sigma-power,{k}", sym["a"] ** k, k, 1e-9
    raise ValueError(f"unknown witness entry {entry!r}")


WITNESS_ENTRIES = (
    "identity",
    "shift",
    "sigma-shift",
    "qdiff",
    "qmult-shifted",
    "mult:monomial",
    "mult:binomial",
    "mult:cayley",
    "mult:exponential",
    "mult:sigma-power",
)
WITNESS_ORDERS = (32, 64, 128, 256)


def _witness_slots() -> list:
    slots = []
    for n in WITNESS_ORDERS:
        slots.append(_slot(f"classify n={n}",
                           lambda rng, v, n=n: _base("classify", symbol(rng.choice(VERIFY_FAMILIES), rng), n)))
        for entry in WITNESS_ENTRIES:
            def make(rng, v, entry=entry, n=n):
                sym, witness, lam, margin, thr = _witness_case(entry, rng, n)
                return _base("extcheck", sym, n) + [
                    "--witness", witness, "--lam=" + cx(lam), "--margin", str(margin), "--threshold", repr(thr)
                ]

            slots.append(_slot(f"extcheck {entry} n={n}", make))
        slots.append(_slot(f"matrix n={n}",
                           lambda rng, v, n=n: _base("matrix", symbol(rng.choice(VERIFY_FAMILIES), rng), n)
                           + ["--format", "mm"]))
    return slots


_SLOTS = {"verify-scan": _verify_slots, "spectral-limit": _spectral_slots, "witness-batch": _witness_slots}


def slots(workload: str) -> list:
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _SLOTS[workload]()


def pool(workload: str) -> list:
    """Every request the workload can send, whatever the seed."""
    return [req for slot in slots(workload) for req in slot.variants]


def cycle(workload: str, seed: int, tiny: bool = False) -> list:
    """The fixed-composition request cycle for one seed.

    The seed chooses each slot's variants and the order within each lane (one
    subcommand at one order N); lanes are interleaved evenly, so that every
    prefix of the cycle has close to the cycle's own mix.  tiny keeps the
    first request of each subcommand, for the smoke test.
    """
    rng = random.Random(seed)
    chosen = []
    for slot in slots(workload):
        picks = rng.sample(range(len(slot.variants)), slot.repeat)
        chosen.extend(slot.variants[i] for i in picks)
    if tiny:
        first = {}
        for req in chosen:
            first.setdefault(req.command, req)
        return list(first.values())
    lanes = {}
    for req in chosen:
        lanes.setdefault((req.command, req.order), []).append(req)
    placed = []
    for lane in lanes.values():
        rng.shuffle(lane)
        placed.extend(((i + 0.5) / len(lane), rng.random(), req) for i, req in enumerate(lane))
    placed.sort(key=lambda t: (t[0], t[1]))
    return [req for _, _, req in placed]


# ---------------------------------------------------------------------------
# digests and comparison


def digest(req: Request, rc, stdout: str, out_path: Path | None) -> dict:
    """The output facts a run must reproduce."""
    d = {"rc": rc}
    if rc != 0 and not (req.command == "verify" and rc == 1):
        return d
    cmd = req.command
    if cmd == "matrix":
        return d | _mm_digest(stdout)
    if OUT in req.argv:
        doc = json.loads(out_path.read_text())
        csv_path = Path(str(out_path)[: -len(".json")] + ".grid.csv")
        flags = [line.rsplit(",", 1)[1] for line in csv_path.read_text().splitlines()[1:]]
        return d | {"flagged": _runs([f == "1" for f in flags]), "flagged_count": doc["result"]["flagged_count"]}
    result = json.loads(stdout)["result"]
    if cmd == "classify":
        return d | {k: result[k] for k in ("class", "self_map", "fock_symbol")}
    if cmd == "extcheck":
        return d | {"passed": result["passed"], "residual": result["residual"]}
    if cmd == "eigs":
        return d | {"eigenvalues": len(result["eigenvalues"]), "reliable_count": result["reliable_count"]}
    if cmd == "extscan":
        return d | {"flagged": _runs([row[4] for row in result["rows"]]), "flagged_count": result["flagged_count"]}
    if cmd == "verify":
        return d | {
            "passed": result["passed"],
            "rows": [[r["check"], r["witness"], r["passed"], r["residual"]] for r in result["rows"]],
            "scan_checks": [[r["name"], r["passed"]] for r in result["scan_checks"]],
        }
    raise ValueError(f"no digest for command {cmd!r}")


def _runs(flags: list) -> list:
    """Flagged grid indices as inclusive [first, last] runs."""
    runs = []
    for i, flagged in enumerate(flags):
        if not flagged:
            continue
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return runs


def _mm_digest(text: str) -> dict:
    import numpy as np

    lines = text.split("\n", 3)
    n = int(lines[2].split()[0])
    body = np.array(lines[3].split(), dtype=float).reshape(-1, 4)
    i, j, re_, im = body.T
    return {
        "order": n,
        "entries": int(body.shape[0]),
        "frobenius": float(math.sqrt((re_ ** 2 + im ** 2).sum())),
        "weighted_re": float((re_ * i).sum()),
        "weighted_im": float((im * j).sum()),
    }


def _close(a, b, rtol, atol) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def mismatch(got: dict, ref: dict) -> str | None:
    """None when got reproduces ref, else a one-line reason."""
    if got.keys() != ref.keys():
        return f"fields {sorted(got)} != reference {sorted(ref)}"
    for k, want in ref.items():
        have = got[k]
        if k == "rows":
            if len(have) != len(want):
                return f"{len(have)} verify rows != reference {len(want)}"
            for h, w in zip(have, want):
                if h[:3] != w[:3] or not _close(h[3], w[3], RESIDUAL_RTOL, RESIDUAL_ATOL):
                    return f"verify row {h} != reference {w}"
        elif k == "residual":
            if not _close(have, want, RESIDUAL_RTOL, RESIDUAL_ATOL):
                return f"residual {have!r} != reference {want!r}"
        elif k in ("frobenius", "weighted_re", "weighted_im"):
            scale = ref["frobenius"] * ref["order"] ** 2
            if not _close(have, want, 0.0, CHECKSUM_RTOL * scale):
                return f"{k} {have!r} != reference {want!r}"
        elif have != want:
            return f"{k} {have!r} != reference {want!r}"
    return None
