"""End-to-end verification runs: build, solve, check, report.

Identity checks run first; a failed exactness check poisons the overall
verdict because inequalities evaluated on a wrong operator mean nothing.
Runs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Union

import numpy as np

from . import bounds as bnd
from . import identities as ident
from .algebra import ExponentPair, InadmissibleExponents
from .bounds import BoundCheck, BoundParams, ZeroGapError
from .eigensolve import PairCountError, SolverError, smallest_eigenpairs
from .grids import DomainSpec, GridError
from .operators import build_polyharmonic
from .oracles import analytic_spectrum
from .report import VerificationReport

DEFAULT_TOLERANCES = {
    "solver": 1e-8,        # eigenpair residual target
    "bounds": bnd.BOUND_REL_TOL,  # relative slack on inequality right sides
    "commutator": 1e-10,   # exact identity, unit-spacing replica
    "trace": 1.0,          # multiple of the h^2 lambda^(1/l) correction scale
    "interpolation": 1e-3,
    "gradient_match": 6.0,  # multiple of max(h/extent), first-order effect
    "gradient_bound": 1e-3,
    "oracle": 0.02,        # computed vs analytic eigenvalues
    "agreement": 1e-12,    # special case vs general form
}

# default special-case parameters exercised by a run
DEFAULT_CASES = ((1, 1.5, None), (2, None, None), (3, None, 0.5), (4, None, 1.0))


class ConfigError(ValueError):
    """Invalid run configuration."""


class _SpectrumRows:
    """What the bound checks of one spectrum share.

    The general form is evaluated in one sweep call, over every pair that
    the enabled checks read, each pair once: the sweep pairs, the pairs the
    displayed cases are compared with, and (2, 2) for the quadratic form.
    """

    def __init__(self, lam, base: BoundParams, pairs, tolerances: dict, checks):
        self.lam = np.asarray(lam, dtype=float)
        self.base = base
        self.pairs = pairs
        self.agreement = tolerances["agreement"]
        self.checks = checks
        self.cases = _cases(base)
        self._general = None

    @cached_property
    def zero_gap(self) -> bool:
        return bnd.has_zero_gap(self.lam, self.base.k)

    def row(self, func, params=None, *args, name=None) -> BoundCheck:
        """func's row at params (default: the base parameters)."""
        try:
            return func(self.lam, self.base if params is None else params, *args)
        except (ZeroGapError, InadmissibleExponents, bnd.ParameterError) as exc:
            return BoundCheck.inapplicable(name or func.__name__, str(exc))

    def sweep(self, func, pairs) -> List[BoundCheck]:
        """func's rows at pairs from one call; an inapplicable pair's row is named after func."""
        return [entry if isinstance(entry, BoundCheck)
                else BoundCheck.inapplicable(func.__name__, str(entry))
                for entry in func(self.lam, self.base, pairs=pairs)]

    def general(self, alpha: float, beta: float) -> BoundCheck:
        if self._general is None:
            pairs = []
            if {"yang_type_general", "yang_type_simplified"} & self.checks:
                pairs += self.pairs
            # with a zero gap the cases are not compared with the general form
            if "yang_type_cases" in self.checks and not self.zero_gap:
                pairs += [pair for _, _, pair in self.cases]
            if "quadratic_gap_bound" in self.checks:
                pairs.append((2.0, 2.0))
            pairs = list(dict.fromkeys(pairs))
            # looked up at call time, so wrappers on the bounds module see the call
            self._general = dict(zip(pairs, self.sweep(bnd.yang_type_general, pairs)))
        return self._general[alpha, beta]


def _cases(base: BoundParams) -> List[tuple]:
    """(case, its parameters, the general-form pair it writes out) per default case."""
    out = []
    for case, alpha, beta in DEFAULT_CASES:
        p = base.with_exponents(base.alpha if alpha is None else alpha,
                                base.beta if beta is None else beta)
        pair = {1: (p.alpha, 2 * p.alpha - 1), 2: (1.0, 1.0),
                3: (0.5, p.beta), 4: (-1.0, p.beta)}[case]
        out.append((case, p, pair))
    return out


def _note(row: BoundCheck, text: str) -> None:
    row.notes = f"{row.notes}; {text}" if row.notes else text


def _case_rows(rows: _SpectrumRows) -> List[BoundCheck]:
    out = []
    for case, params, pair in rows.cases:
        row = rows.row(bnd.yang_type_case, params, case, name=f"yang_type_case({case})")
        out.append(row)
        if not row.applicable:
            continue
        # with a zero gap the displayed case forms keep gap-free brackets that
        # the zero-contribution policy legitimately shrinks, so they are only
        # comparable with the general form on strict-gap spectra
        if rows.zero_gap:
            _note(row, "agreement with general form skipped (zero gap)")
            continue
        general = rows.general(*pair)
        if not general.applicable:
            _note(row, "general form inapplicable here (zero gap); displayed form only")
            continue
        mismatch = abs(row.rhs - general.rhs) / max(abs(row.rhs), abs(general.rhs), 1e-300)
        lhs_mismatch = abs(row.lhs - general.lhs) / max(abs(row.lhs), 1e-300)
        if max(mismatch, lhs_mismatch) > rows.agreement:
            row.holds = False
            _note(row, f"disagrees with general form by {mismatch:.2e}")
        else:
            _note(row, "agrees with general form")
    return out


def _quadratic_rows(rows: _SpectrumRows) -> List[BoundCheck]:
    row = rows.row(bnd.quadratic_gap_bound)
    general = rows.general(2.0, 2.0)
    if row.applicable and general.applicable \
            and abs(row.rhs - general.rhs) / max(abs(row.rhs), 1e-300) > rows.agreement:
        row.holds = False
        row.notes = "disagrees with general form at (2, 2)"
    return [row]


def _simplified_rows(rows: _SpectrumRows) -> List[BoundCheck]:
    out = rows.sweep(bnd.yang_type_simplified, rows.pairs)
    for (alpha, beta), row in zip(rows.pairs, out):
        general = rows.general(alpha, beta)
        if row.applicable and general.applicable \
                and row.rhs < general.rhs * (1 - 1e-12):
            row.holds = False
            row.notes = "fails to dominate the general right side"
    return out


def _chain_rows(rows: _SpectrumRows) -> List[BoundCheck]:
    k = rows.base.k or rows.lam.size - 1  # BoundParams rejects k < 1
    chain = bnd.recursive_upper_chain(float(rows.lam[0]), rows.base, depth=k)
    ratios = rows.lam[1:k + 1] / chain[:k]
    return [BoundCheck(
        name=f"recursive_chain(depth={k})",
        lhs=float(np.max(ratios)), rhs=1.0, rel_tol=rows.base.rel_tol,
        notes="max ratio of computed eigenvalue to chained upper bound")]


def _single(name: str):
    # the evaluator is looked up at call time, so wrappers installed on the
    # bounds module see every call
    return lambda rows: [rows.row(getattr(bnd, name))]


# every inequality check in report order: (check name, row producer)
BOUND_CHECKS = (
    ("yang_type_general", lambda rows: [rows.general(a, b) for a, b in rows.pairs]),
    ("yang_type_cases", _case_rows),
    ("quadratic_gap_bound", _quadratic_rows),
    ("spectral_gap_bound", _single("spectral_gap_bound")),
    ("yang_type_simplified", _simplified_rows),
    ("yang_first_inequality", _single("yang_first_inequality")),
    ("ppw_gap_bound", _single("ppw_gap_bound")),
    ("yang_second_inequality", _single("yang_second_inequality")),
    ("comparison", lambda rows: bnd.comparison_table(rows.lam, rows.base)),
    ("recursive_chain", _chain_rows),
)

IDENTITY_CHECKS = ("commutator", "trace_identity", "interpolation", "gradient_sum")
KNOWN_CHECKS = IDENTITY_CHECKS + tuple(name for name, _ in BOUND_CHECKS) + ("oracle",)


def _bound_rows(lam, base: BoundParams, pairs, tolerances: dict,
                checks) -> List[BoundCheck]:
    """Rows of the registered checks named in checks, in registry order."""
    rows = _SpectrumRows(lam, base, pairs, tolerances, set(checks))
    return [row for name, produce in BOUND_CHECKS if name in checks
            for row in produce(rows)]


@dataclass
class RunConfig:
    domain: DomainSpec
    k: int
    sweeps: Union[str, tuple] = "auto-grid"
    checks: tuple = KNOWN_CHECKS
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    output: Optional[str] = None

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        self.checks = tuple(self.checks)
        for name in self.checks:
            if name not in KNOWN_CHECKS:
                raise ConfigError(f"unknown check {name!r}")
        merged = dict(DEFAULT_TOLERANCES)
        for name, value in dict(self.tolerances).items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {name!r}")
            if not (float(value) > 0):
                raise ConfigError(f"tolerance {name!r} must be positive")
            merged[name] = float(value)
        self.tolerances = merged
        if isinstance(self.sweeps, str):
            if self.sweeps != "auto-grid":
                raise ConfigError(f"sweeps must be 'auto-grid' or a pair list, got {self.sweeps!r}")
        else:
            self.sweeps = tuple((float(a), float(b)) for a, b in self.sweeps)
            for alpha, beta in self.sweeps:
                # an inadmissible pair only yields skipped rows, so a sweep of
                # such pairs would pass without checking anything
                try:
                    admissible = ExponentPair(alpha, beta).admissible
                except ValueError as exc:
                    raise ConfigError(f"sweep pair ({alpha}, {beta}): {exc}") from exc
                if not admissible:
                    raise ConfigError(
                        f"sweep pair ({alpha}, {beta}) is not admissible: "
                        f"alpha^2 > 2 beta")

    def sweep_pairs(self) -> List[tuple]:
        if self.sweeps == "auto-grid":
            return bnd.admissible_grid()
        return list(self.sweeps)

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "k": self.k,
            "sweeps": ("auto-grid" if self.sweeps == "auto-grid"
                       else [list(p) for p in self.sweeps]),
            "checks": list(self.checks),
            "tolerances": dict(sorted(self.tolerances.items())),
            "seed": self.seed,
            "output": self.output,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a mapping")
        unknown = set(data) - {"domain", "k", "sweeps", "checks", "tolerances",
                               "seed", "output"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "domain" not in data or "k" not in data:
            raise ConfigError("config requires 'domain' and 'k'")
        try:
            domain = DomainSpec.from_dict(data["domain"])
        except GridError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(
            domain=domain,
            k=int(data["k"]),
            sweeps=data.get("sweeps", "auto-grid"),
            checks=tuple(data.get("checks", KNOWN_CHECKS)),
            tolerances=dict(data.get("tolerances", {})),
            seed=int(data.get("seed", 0)),
            output=data.get("output"),
        )

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


def run(config: RunConfig, out_override: Optional[str] = None) -> VerificationReport:
    """Full verification pipeline; writes report files when an output prefix is set."""
    tol = config.tolerances
    spec = config.domain
    report = VerificationReport(config=config.to_dict(), spectrum=None)
    out_prefix = out_override if out_override is not None else config.output

    operator = build_polyharmonic(spec)
    pairs_needed = config.k + 1
    try:
        spectrum = smallest_eigenpairs(operator, pairs_needed,
                                       tol=tol["solver"], seed=config.seed)
    except PairCountError as exc:
        raise ConfigError(f"k+1: {exc}") from exc
    except SolverError as exc:
        report.error = f"solver failure: {exc}"
        report.verdict = "fail"
        if out_prefix:
            report.save(out_prefix)
        return report

    report.spectrum = {
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "residuals": [float(r) for r in spectrum.residuals],
        "k": spectrum.k,
        "solver_tol": spectrum.solver_tol,
        "interior_points": list(spec.interior_shape),
    }

    enabled = set(config.checks)
    identity_rows: List[ident.IdentityRow] = []
    oracle_rows: List[ident.IdentityRow] = []

    # exactness checks come first
    if "commutator" in enabled:
        identity_rows += ident.commutator_check(spec, seed=config.seed,
                                                tol=tol["commutator"])
    if "trace_identity" in enabled:
        identity_rows += ident.trace_identity_check(spectrum, spec, tol=tol["trace"])
    if "interpolation" in enabled:
        identity_rows += ident.interpolation_check(spectrum, spec,
                                                   tol=tol["interpolation"])
    if "gradient_sum" in enabled:
        identity_rows += ident.gradient_sum_check(
            spectrum, spec, tol_match=tol["gradient_match"],
            tol_bound=tol["gradient_bound"])

    lam = spectrum.eigenvalues
    bound_rows = _bound_rows(
        lam, BoundParams(l=spec.l, n=spec.n, k=config.k, rel_tol=tol["bounds"]),
        config.sweep_pairs(), tol, enabled)

    if "oracle" in enabled:
        reference = analytic_spectrum(spec, pairs_needed)
        if reference is None:
            oracle_rows.append(ident.IdentityRow(
                name="oracle", observed=0.0, reference=0.0,
                deviation=0.0, tol=tol["oracle"], passed=True,
                notes="no analytic reference for this domain"))
        else:
            for j in range(pairs_needed):
                rel = abs(lam[j] - reference[j]) / reference[j]
                oracle_rows.append(ident.IdentityRow(
                    name=f"oracle(lambda_{j + 1})",
                    observed=float(lam[j]), reference=float(reference[j]),
                    deviation=rel, tol=tol["oracle"], passed=rel <= tol["oracle"]))

    identity_ok = all(r.passed for r in identity_rows)
    bounds_ok = all(r.holds for r in bound_rows if r.applicable)
    oracle_ok = all(r.passed for r in oracle_rows)
    report.identity_rows = [r.to_dict() for r in identity_rows]
    report.bound_rows = [r.to_dict() for r in bound_rows]
    report.oracle_rows = [r.to_dict() for r in oracle_rows]
    report.verdict = "pass" if (identity_ok and bounds_ok and oracle_ok) else "fail"

    if out_prefix:
        report.save(out_prefix)
    return report


def evaluate_bounds_on_list(lam: Sequence[float], l: int, n: int,
                            k: Optional[int] = None) -> List[BoundCheck]:
    """Every registered inequality row for a user-supplied eigenvalue list (no solve)."""
    return _bound_rows(lam, BoundParams(l=l, n=n, k=k), bnd.admissible_grid(),
                       DEFAULT_TOLERANCES, KNOWN_CHECKS)
