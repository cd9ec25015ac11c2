"""Order-based sum inequalities and gap-weight couple membership.

Standalone algebraic kernels: the power-mean inequality, Chebyshev's sum
inequality, a generalized (three-sequence, two-exponent) Chebyshev
inequality, and a sampling-based membership test for the power-family
couples f(x) = (lam - x)**alpha, g(x) = (lam - x)**beta on (0, lam).
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Verdict slack: the inequalities are exact, so the tolerance only absorbs
# floating-point rounding.
REL_TOL = 1e-12
ABS_TOL = 1e-15


class InapplicableInput(ValueError):
    """Input violates an ordering precondition; the inequality says nothing."""


class InadmissibleExponents(ValueError):
    """Exponent pair outside the admissible region alpha**2 <= 2*beta."""


class ZeroBaseError(ValueError):
    """A zero base would be raised to a negative exponent."""


@dataclass(frozen=True)
class CheckResult:
    """Both sides of one inequality instance plus the verdict."""

    lhs: float
    rhs: float
    holds: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _verdict(lhs: float, rhs: float, rel_tol: float = REL_TOL,
             abs_tol: float = ABS_TOL) -> CheckResult:
    tol = rel_tol * max(abs(lhs), abs(rhs)) + abs_tol
    return CheckResult(lhs=float(lhs), rhs=float(rhs), holds=lhs <= rhs + tol)


@dataclass(frozen=True)
class ExponentPair:
    """Pair (alpha, beta) with beta >= 0; admissible when alpha**2 <= 2*beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("exponents must be finite")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")

    @property
    def admissible(self) -> bool:
        return self.alpha ** 2 <= 2.0 * self.beta + 1e-12

    @property
    def conjugate_exponent(self) -> float:
        """The exponent 2*alpha - beta - 1 appearing opposite beta."""
        return 2.0 * self.alpha - self.beta - 1.0


@dataclass(frozen=True)
class MonotoneTriple:
    """Sequences A (nonincreasing), B and C (nondecreasing), all >= 0."""

    A: tuple
    B: tuple
    C: tuple

    def __post_init__(self):
        a, b, c = (np.asarray(s, dtype=float) for s in (self.A, self.B, self.C))
        k = len(a)
        if k < 1 or len(b) != k or len(c) != k:
            raise ValueError("A, B, C must share a common length >= 1")
        if np.any(a < 0) or np.any(b < 0) or np.any(c < 0):
            raise ValueError("all entries must be nonnegative")
        # orderings are non-strict
        if np.any(np.diff(a) > 0):
            raise ValueError("A must be nonincreasing")
        if np.any(np.diff(b) < 0):
            raise ValueError("B must be nondecreasing")
        if np.any(np.diff(c) < 0):
            raise ValueError("C must be nondecreasing")
        object.__setattr__(self, "A", tuple(float(x) for x in a))
        object.__setattr__(self, "B", tuple(float(x) for x in b))
        object.__setattr__(self, "C", tuple(float(x) for x in c))

    def __len__(self) -> int:
        return len(self.A)


@dataclass(frozen=True)
class ChiLambdaCouple:
    """Power-family couple f(x) = (lam-x)**alpha, g(x) = (lam-x)**beta on (0, lam)."""

    lam: float
    exponents: ExponentPair

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def f(self, x):
        return (self.lam - np.asarray(x, dtype=float)) ** self.exponents.alpha

    def g(self, x):
        return (self.lam - np.asarray(x, dtype=float)) ** self.exponents.beta


def power_mean_holds(s: Sequence[float], gamma: float,
                     rel_tol: float = REL_TOL) -> CheckResult:
    """Check (sum s_i)**gamma <= k**(gamma-1) * sum s_i**gamma for gamma >= 1.

    Equality holds when all entries are equal or k == 1.
    """
    arr = np.asarray(s, dtype=float)
    if arr.size == 0:
        raise ValueError("sequence must be nonempty")
    if np.any(arr < 0):
        raise ValueError("entries must be nonnegative")
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    k = arr.size
    lhs = arr.sum() ** gamma
    rhs = k ** (gamma - 1.0) * np.sum(arr ** gamma)
    return _verdict(lhs, rhs, rel_tol)


def _oppositely_ordered(a: np.ndarray, b: np.ndarray) -> bool:
    # (a_i - a_j)(b_i - b_j) <= 0 for all pairs
    da = a[:, None] - a[None, :]
    db = b[:, None] - b[None, :]
    return bool(np.all(da * db <= 1e-15 * (np.abs(da) * np.abs(db) + 1)))


def chebyshev_sum_holds(a: Sequence[float], b: Sequence[float],
                        rel_tol: float = REL_TOL) -> CheckResult:
    """Chebyshev's sum inequality for oppositely ordered sequences.

    sum a_i b_i <= (1/n) (sum a_i)(sum b_i) whenever
    (a_i - a_j)(b_i - b_j) <= 0 for every pair; constant sequences give
    equality.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.size != bv.size:
        raise ValueError("sequences must have the same length")
    if av.size == 0:
        raise ValueError("sequences must be nonempty")
    if not _oppositely_ordered(av, bv):
        raise InapplicableInput("sequences are not oppositely ordered")
    n = av.size
    lhs = float(np.dot(av, bv))
    rhs = float(av.sum() * bv.sum() / n)
    return _verdict(lhs, rhs, rel_tol)


def _safe_power(base: np.ndarray, exponent: float) -> np.ndarray:
    if exponent < 0 and np.any(base == 0):
        raise ZeroBaseError(
            f"zero base with negative exponent {exponent}; strict positivity required")
    return base ** exponent


def generalized_chebyshev_holds(t: MonotoneTriple, e: ExponentPair,
                                rel_tol: float = REL_TOL) -> CheckResult:
    """Generalized Chebyshev inequality for a monotone triple.

    (sum A_i**beta B_i)(sum A_i**q C_i) <= (sum A_i**beta)(sum A_i**q B_i C_i)
    with q = 2*alpha - beta - 1, valid whenever alpha**2 <= 2*beta.
    """
    if not e.admissible:
        raise InadmissibleExponents(
            f"(alpha={e.alpha}, beta={e.beta}) violates alpha**2 <= 2*beta")
    a = np.asarray(t.A, dtype=float)
    b = np.asarray(t.B, dtype=float)
    c = np.asarray(t.C, dtype=float)
    q = e.conjugate_exponent
    a_beta = _safe_power(a, e.beta)
    a_q = _safe_power(a, q)
    lhs = np.sum(a_beta * b) * np.sum(a_q * c)
    rhs = np.sum(a_beta) * np.sum(a_q * b * c)
    return _verdict(lhs, rhs, rel_tol)


def quadratic_chebyshev_holds(t: MonotoneTriple,
                              rel_tol: float = REL_TOL) -> CheckResult:
    """Squared-weight instance: (sum A_i^2 B_i)(sum A_i C_i) <= (sum A_i^2)(sum A_i B_i C_i).

    Evaluated directly, independently of generalized_chebyshev_holds, so the
    two can cross-check each other.
    """
    a = np.asarray(t.A, dtype=float)
    b = np.asarray(t.B, dtype=float)
    c = np.asarray(t.C, dtype=float)
    lhs = np.sum(a * a * b) * np.sum(a * c)
    rhs = np.sum(a * a) * np.sum(a * b * c)
    return _verdict(lhs, rhs, rel_tol)


@dataclass(frozen=True)
class MembershipVerdict:
    """Result of sampling the couple condition over a pair grid."""

    holds_on_samples: bool
    first_violation: Optional[tuple]  # (x, y, condition_value) or None
    pairs_checked: int
    admissible_by_criterion: bool  # closed-form power-family criterion


def chi_lambda_member(c: ChiLambdaCouple, sample_count: int,
                      rel_tol: float = REL_TOL) -> MembershipVerdict:
    """Sample the couple condition on a uniform pair grid in (0, lam).

    The displayed condition, evaluated literally for every sampled x != y:

        ((f(x)-f(y))/(x-y))**2
          + (f(x)**2/(g(x)(lam-x)) + f(y)**2/(g(y)(lam-y)))
            * (g(x)-g(y))/(x-y)  <=  0

    For the power family the closed-form criterion is alpha**2 <= 2*beta;
    the verdict reports both so callers can cross-check.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be at least 2")
    lam = c.lam
    xs = lam * (np.arange(1, sample_count + 1) / (sample_count + 1.0))
    fx = c.f(xs)
    gx = c.g(xs)
    weight = fx ** 2 / (gx * (lam - xs))

    first_violation = None
    pairs = 0
    # condition is symmetric in (x, y); check ordered pairs once
    for i in range(sample_count - 1):
        x = xs[i]
        y = xs[i + 1:]
        dxy = x - y
        df = (fx[i] - fx[i + 1:]) / dxy
        dg = (gx[i] - gx[i + 1:]) / dxy
        value = df ** 2 + (weight[i] + weight[i + 1:]) * dg
        scale = df ** 2 + np.abs((weight[i] + weight[i + 1:]) * dg)
        tol = rel_tol * scale + ABS_TOL
        pairs += y.size
        bad = np.nonzero(value > tol)[0]
        if bad.size and first_violation is None:
            j = int(bad[0])
            first_violation = (float(x), float(y[j]), float(value[j]))
            break

    return MembershipVerdict(
        holds_on_samples=first_violation is None,
        first_violation=first_violation,
        pairs_checked=pairs,
        admissible_by_criterion=c.exponents.admissible,
    )


# ---------------------------------------------------------------------------
# randomized fuzz suites (also driven by the CLI)
# ---------------------------------------------------------------------------

@dataclass
class FuzzReport:
    name: str
    trials: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def random_monotone_triple(rng: np.random.Generator, max_len: int = 30,
                           positive: bool = True) -> MonotoneTriple:
    """Random triple with well-scaled entries; A strictly positive if asked."""
    k = int(rng.integers(1, max_len + 1))
    low = 0.1 if positive else 0.0
    a = np.sort(rng.uniform(low, 10.0, size=k))[::-1]
    b = np.sort(rng.uniform(0.0, 10.0, size=k))
    c = np.sort(rng.uniform(0.0, 10.0, size=k))
    return MonotoneTriple(A=tuple(a), B=tuple(b), C=tuple(c))


def random_admissible_pair(rng: np.random.Generator) -> ExponentPair:
    alpha = rng.uniform(-2.0, 3.0)
    beta = alpha ** 2 / 2.0 + rng.uniform(0.0, 3.0)
    return ExponentPair(alpha=alpha, beta=beta)


def fuzz_generalized_chebyshev(trials: int = 10_000, pairs_per_triple: int = 10,
                               seed: int = 0, rel_tol: float = REL_TOL) -> FuzzReport:
    rng = np.random.default_rng(seed)
    violations = []
    for t in range(trials):
        triple = random_monotone_triple(rng, positive=True)
        for _ in range(pairs_per_triple):
            pair = random_admissible_pair(rng)
            res = generalized_chebyshev_holds(triple, pair, rel_tol=rel_tol)
            if not res.holds:
                violations.append((t, triple, pair, res))
    return FuzzReport("generalized_chebyshev", trials, violations)


def fuzz_quadratic_chebyshev(trials: int = 10_000, seed: int = 0,
                             rel_tol: float = REL_TOL) -> FuzzReport:
    rng = np.random.default_rng(seed)
    violations = []
    for t in range(trials):
        triple = random_monotone_triple(rng, positive=True)
        res = quadratic_chebyshev_holds(triple, rel_tol=rel_tol)
        if not res.holds:
            violations.append((t, triple, res))
    return FuzzReport("quadratic_chebyshev", trials, violations)


def fuzz_power_mean(trials: int = 10_000, seed: int = 0,
                    rel_tol: float = REL_TOL) -> FuzzReport:
    rng = np.random.default_rng(seed)
    violations = []
    for t in range(trials):
        k = int(rng.integers(1, 31))
        s = rng.uniform(0.0, 10.0, size=k)
        gamma = rng.uniform(1.0, 5.0)
        res = power_mean_holds(s, gamma, rel_tol=rel_tol)
        if not res.holds:
            violations.append((t, s, gamma, res))
    return FuzzReport("power_mean", trials, violations)


def fuzz_chebyshev_sum(trials: int = 10_000, seed: int = 0,
                       rel_tol: float = REL_TOL) -> FuzzReport:
    rng = np.random.default_rng(seed)
    violations = []
    for t in range(trials):
        k = int(rng.integers(1, 31))
        a = np.sort(rng.uniform(-5.0, 5.0, size=k))
        b = np.sort(rng.uniform(-5.0, 5.0, size=k))[::-1]
        res = chebyshev_sum_holds(a, b, rel_tol=rel_tol)
        if not res.holds:
            violations.append((t, a, b, res))
    return FuzzReport("chebyshev_sum", trials, violations)


def run_all_fuzz(trials: int = 10_000, seed: int = 0) -> list:
    """All four suites at the same trial count; used by the CLI."""
    return [
        fuzz_generalized_chebyshev(trials, seed=seed),
        fuzz_quadratic_chebyshev(trials, seed=seed + 1),
        fuzz_power_mean(trials, seed=seed + 2),
        fuzz_chebyshev_sum(trials, seed=seed + 3),
    ]
