"""Workload definitions and input generation for the polyspec benchmark.

Standard library only: the orchestrator imports this module without
importing numpy, scipy or polyspec, so that its independent checks share
no code with the program under test.

Every workload runs all three entry points (`verify`, `bounds`,
`fuzz-algebra`) in very different proportions, so that every end-to-end
metric has a value on every workload:

* verify-small: many small `verify` runs; per-run overheads dominate.
* verify-fine: the reference grids; the eigensolve dominates.
* bounds-algebra: `bounds` on analytic spectra and the full fuzz suite;
  its `verify` part is a two-rung rod probe of about 4% of a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

# A rod rung counts as certified when its report's radius is at most this.
CERTIFIED_RADIUS = 1e-3


@dataclass(frozen=True)
class VerifyCase:
    """One `polyspec verify` configuration, run once per seed in a pass."""

    name: str
    shape: str
    points: Tuple[int, ...]
    l: int
    k: int
    extents: Optional[Tuple[float, ...]] = None
    mask: Optional[str] = None        # "L": the upper-right quadrant removed
    in_radius: bool = True            # member of the fixed cert_radius_gmean list
    expected_failure: str = ""        # why this case fails at the benchmark's base

    @property
    def box_extents(self) -> Tuple[float, ...]:
        return self.extents or tuple(1.0 for _ in self.points)

    @property
    def h(self) -> Tuple[float, ...]:
        return tuple(e / (m + 1) for e, m in zip(self.box_extents, self.points))

    @property
    def unknowns(self) -> int:
        if self.mask is not None:
            return sum(row.count("1") for row in mask_rows(self.mask, self.points))
        return math.prod(self.points)

    @property
    def is_rod(self) -> bool:
        return self.shape == "interval" and self.l == 2

    def config(self, seed: int) -> dict:
        domain = {"shape": self.shape, "n": len(self.points),
                  "extents": list(self.box_extents), "h": list(self.h), "l": self.l}
        if self.mask is not None:
            domain["mask"] = mask_rows(self.mask, self.points)
        return {"domain": domain, "k": self.k, "seed": seed}


def mask_rows(kind: str, points: Tuple[int, ...]) -> List[str]:
    if kind != "L":
        raise ValueError(f"unknown mask {kind!r}")
    rows, cols = points
    return ["1" * (cols // 2) + ("0" if i < rows // 2 else "1") * (cols - cols // 2)
            for i in range(rows)]


ROD_FAULT = ("solver works on the assembled power A = G^T G (cond(G)^2) and "
             "widens its residual floor to 64 eps |A| / lambda")

SMALL_CASES = (
    VerifyCase("square-20x20-l1", "rectangle", (20, 20), 1, 5),
    VerifyCase("lshape-24x24-l1", "masked-rectangle", (24, 24), 1, 5, mask="L"),
    VerifyCase("lshape-24x24-l2", "masked-rectangle", (24, 24), 2, 5, mask="L"),
    VerifyCase("rod-400-l2", "interval", (400,), 2, 5),
    VerifyCase("interval-200-l3", "interval", (200,), 3, 5),
    VerifyCase("rect-16x33-l2", "rectangle", (16, 33), 2, 5, extents=(1.0, 2.0)),
)

FINE_CASES = (
    VerifyCase("rod-999-l2", "interval", (999,), 2, 5),
    VerifyCase("rod-2000-l2", "interval", (2000,), 2, 5),
    VerifyCase("rod-4000-l2", "interval", (4000,), 2, 5),
    VerifyCase("rod-8000-l2", "interval", (8000,), 2, 5),
    VerifyCase("rod-16000-l2", "interval", (16000,), 2, 5,
               expected_failure="exit 1: lambda_1 = 532.56 against 500.56, "
                                "6.4% over the 2% oracle tolerance; " + ROD_FAULT),
    VerifyCase("plate-60x60-l2", "rectangle", (60, 60), 2, 5),
    VerifyCase("plate-120x120-l2", "rectangle", (120, 120), 2, 5),
    VerifyCase("square-201x201-l1", "rectangle", (201, 201), 1, 5),
    VerifyCase("box-20x20x20-l1", "box", (20, 20, 20), 1, 5),
    VerifyCase("interval-400-l3", "interval", (400,), 3, 5),
    VerifyCase("interval-2000-l3", "interval", (2000,), 3, 5, in_radius=False,
               expected_failure="exit 3: smallest computed eigenvalue -9.691e+04 "
                                "is not positive; " + ROD_FAULT),
)

PROBE_CASES = (
    VerifyCase("rod-400-l2", "interval", (400,), 2, 5),
    VerifyCase("rod-800-l2", "interval", (800,), 2, 5),
)

# (file stem, operator order l, dimension n) of the analytic spectra
SPECTRA = (("interval", 1, 1), ("square", 1, 2), ("cube", 1, 3), ("rod", 2, 1))
SPECTRUM_LENGTH = 41


@dataclass(frozen=True)
class Workload:
    """What one pass runs; BENCHMARK.json says why each workload exists."""

    name: str
    cases: Tuple[VerifyCase, ...]
    seeds_per_case: int
    bounds_k: Tuple[int, ...]
    fuzz_trials: int


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-small", SMALL_CASES, 3, (10, 40), 200),
        Workload("verify-fine", FINE_CASES, 1, (10, 40), 200),
        Workload("bounds-algebra", PROBE_CASES, 3, tuple(range(1, 41)), 10_000),
    )
}


@dataclass(frozen=True)
class Op:
    """One call of polyspec.cli.main, repeated in every pass."""

    kind: str                  # "verify", "bounds" or "fuzz"
    name: str
    args: Tuple[str, ...]      # argv without the per-pass output prefix
    case: Optional[VerifyCase] = None
    seed: int = 0
    spectrum: str = ""
    bound_k: int = 0
    trials: int = 0

    def argv(self, pass_dir: str) -> List[str]:
        if self.kind == "verify":
            return list(self.args) + ["--out", os.path.join(pass_dir, self.name)]
        return list(self.args)


def derived_seed(workload_seed: int, *parts) -> int:
    """Seed of one config, derived from the workload seed and its name."""
    text = "/".join(str(p) for p in (workload_seed,) + parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def rod_constants(count: int) -> List[float]:
    """First positive roots of cos(k) cosh(k) = 1, by bisection.

    The root near (j + 1/2) pi lies within 0.6 of it, where cos(k) - sech(k)
    changes sign; written here, apart from the program's
    oracles, so that the rod checks do not test the program against itself.
    """
    roots = []
    for j in range(1, count + 1):
        lo, hi = (j + 0.5) * math.pi - 0.6, (j + 0.5) * math.pi + 0.6
        f_lo = math.cos(lo) - 1.0 / math.cosh(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = math.cos(mid) - 1.0 / math.cosh(mid)
            if mid in (lo, hi) or f_mid == 0.0:
                break
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def analytic_spectrum(stem: str, count: int) -> List[float]:
    """Smallest eigenvalues of the unit interval, square, cube or clamped rod."""
    if stem == "rod":
        return [k ** 4 for k in rod_constants(count)]
    dim = {"interval": 1, "square": 2, "cube": 3}[stem]
    top = 8
    while True:
        sums = [0]
        for _ in range(dim):
            sums = [s + j * j for s in sums for j in range(1, top + 1)]
        sums.sort()
        # a tuple with an index above top sums to at least (top+1)^2 + dim - 1
        if len(sums) >= count and sums[count - 1] < (top + 1) ** 2 + dim - 1:
            return [math.pi ** 2 * s for s in sums[:count]]
        top *= 2


def operations(workload: Workload, seed: int, input_dir: str) -> List[Op]:
    """The operations of one pass, in order; inputs live in input_dir."""
    ops = []
    for case in workload.cases:
        for rep in range(workload.seeds_per_case):
            name = f"{case.name}.s{rep}"
            ops.append(Op("verify", name,
                          ("verify", "--config", os.path.join(input_dir, name + ".json")),
                          case=case, seed=derived_seed(seed, workload.name, name)))
    for stem, l, n in SPECTRA:
        for k in workload.bounds_k:
            ops.append(Op("bounds", f"bounds-{stem}-k{k}",
                          ("bounds", "--eigenvalues", os.path.join(input_dir, stem + ".txt"),
                           "--l", str(l), "--n", str(n), "--k", str(k)),
                          spectrum=stem, bound_k=k))
    fuzz_seed = derived_seed(seed, workload.name, "fuzz") % 100_000
    ops.append(Op("fuzz", "fuzz-algebra",
                  ("fuzz-algebra", "--trials", str(workload.fuzz_trials),
                   "--seed", str(fuzz_seed)),
                  seed=fuzz_seed, trials=workload.fuzz_trials))
    return ops


def write_inputs(ops: List[Op], input_dir: str) -> None:
    """Write the config of every verify operation and the eigenvalue files."""
    os.makedirs(input_dir)
    for op in ops:
        if op.kind == "verify":
            with open(op.args[2], "w", encoding="utf-8") as fh:
                json.dump(op.case.config(op.seed), fh, indent=2)
    for stem, _, _ in SPECTRA:
        values = analytic_spectrum(stem, SPECTRUM_LENGTH)
        with open(os.path.join(input_dir, stem + ".txt"), "w", encoding="utf-8") as fh:
            fh.write("".join(f"{v!r}\n" for v in values))
