"""Order-based sum inequalities and gap-weight couple membership.

Standalone algebraic kernels: the power-mean inequality, Chebyshev's sum
inequality, a generalized (three-sequence, two-exponent) Chebyshev
inequality, and a sampling-based membership test for the power-family
couples f(x) = (lam - x)**alpha, g(x) = (lam - x)**beta on (0, lam).
Everything here is a pure function of its inputs.

Each inequality has one array kernel that evaluates a batch of instances
of one length; the one-instance checks call it with a batch of one. The
quadratic instance keeps a formula of its own, as an independent
cross-check of the generalized form.

The randomized fuzz suites draw each trial from the seeded stream exactly
as a per-trial loop of ``rng.integers(1, 31)`` and ``rng.uniform`` calls
would: the length k, then all of the trial's uniforms in one
``rng.random`` call, mapped to each range as ``lo + (hi - lo) * z``, which
is the arithmetic of ``rng.uniform``. So a seed always yields the same
instances, and a violation keeps its trial index. The drawn trials are
evaluated in chunks of ``FUZZ_CHUNK`` trials, grouped by length, with one
kernel call per group; the chunk bounds the working set.
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


def _holds(lhs, rhs, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL):
    """Verdicts of a batch: lhs <= rhs up to the rounding slack."""
    tol = rel_tol * np.maximum(np.abs(lhs), np.abs(rhs)) + abs_tol
    return lhs <= rhs + tol


def _check_result(lhs, rhs, rel_tol: float) -> CheckResult:
    """CheckResult of one instance of a batch (arrays of size one)."""
    return CheckResult(lhs=lhs.item(), rhs=rhs.item(),
                       holds=_holds(lhs, rhs, rel_tol).item())


def _admissible(alpha, beta):
    return alpha ** 2 <= 2.0 * beta + 1e-12


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
        return _admissible(self.alpha, self.beta)

    @property
    def conjugate_exponent(self) -> float:
        """The exponent 2*alpha - beta - 1 appearing opposite beta."""
        return 2.0 * self.alpha - self.beta - 1.0


def _check_triples(a, b, c) -> None:
    """Validate triples, one per row of a, b, c (the last axis runs along each)."""
    if a.shape[-1] < 1 or b.shape != a.shape or c.shape != a.shape:
        raise ValueError("A, B, C must share a common length >= 1")
    if np.any(a < 0) or np.any(b < 0) or np.any(c < 0):
        raise ValueError("all entries must be nonnegative")
    # orderings are non-strict
    if np.any(np.diff(a, axis=-1) > 0):
        raise ValueError("A must be nonincreasing")
    if np.any(np.diff(b, axis=-1) < 0):
        raise ValueError("B must be nondecreasing")
    if np.any(np.diff(c, axis=-1) < 0):
        raise ValueError("C must be nondecreasing")


@dataclass(frozen=True)
class MonotoneTriple:
    """Sequences A (nonincreasing), B and C (nondecreasing), all >= 0."""

    A: tuple
    B: tuple
    C: tuple

    def __post_init__(self):
        a, b, c = (np.asarray(s, dtype=float) for s in (self.A, self.B, self.C))
        _check_triples(a, b, c)
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


def _power_mean_sides(s: np.ndarray, gamma: np.ndarray):
    """Both sides of the power-mean inequality for sequences s (n, k), gamma (n,)."""
    if s.shape[-1] == 0:
        raise ValueError("sequence must be nonempty")
    if np.any(s < 0):
        raise ValueError("entries must be nonnegative")
    if np.any(gamma < 1):
        raise ValueError(f"gamma must be >= 1, got {gamma[gamma < 1][0]}")
    k = s.shape[-1]
    lhs = np.sum(s, axis=-1) ** gamma
    rhs = k ** (gamma - 1.0) * np.sum(s ** gamma[..., None], axis=-1)
    return lhs, rhs


def power_mean_holds(s: Sequence[float], gamma: float,
                     rel_tol: float = REL_TOL) -> CheckResult:
    """Check (sum s_i)**gamma <= k**(gamma-1) * sum s_i**gamma for gamma >= 1.

    Equality holds when all entries are equal or k == 1.
    """
    lhs, rhs = _power_mean_sides(np.asarray(s, dtype=float).reshape(1, -1),
                                 np.array([gamma], dtype=float))
    return _check_result(lhs, rhs, rel_tol)


def _chebyshev_sum_sides(a: np.ndarray, b: np.ndarray):
    """Both sides of Chebyshev's sum inequality for sequences a, b of shape (n, k)."""
    if a.shape != b.shape:
        raise ValueError("sequences must have the same length")
    if a.shape[-1] == 0:
        raise ValueError("sequences must be nonempty")
    # (a_i - a_j)(b_i - b_j) <= 0 for all pairs
    da = a[..., :, None] - a[..., None, :]
    db = b[..., :, None] - b[..., None, :]
    if not np.all(da * db <= 1e-15 * (np.abs(da) * np.abs(db) + 1)):
        raise InapplicableInput("sequences are not oppositely ordered")
    n = a.shape[-1]
    # BLAS dot products, as np.dot takes them (it copies a strided b first)
    lhs = np.matmul(a[..., None, :], np.ascontiguousarray(b)[..., :, None])[..., 0, 0]
    rhs = np.sum(a, axis=-1) * np.sum(b, axis=-1) / n
    return lhs, rhs


def chebyshev_sum_holds(a: Sequence[float], b: Sequence[float],
                        rel_tol: float = REL_TOL) -> CheckResult:
    """Chebyshev's sum inequality for oppositely ordered sequences.

    sum a_i b_i <= (1/n) (sum a_i)(sum b_i) whenever
    (a_i - a_j)(b_i - b_j) <= 0 for every pair; constant sequences give
    equality.
    """
    lhs, rhs = _chebyshev_sum_sides(np.asarray(a, dtype=float).reshape(1, -1),
                                    np.asarray(b, dtype=float).reshape(1, -1))
    return _check_result(lhs, rhs, rel_tol)


def _generalized_sides(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                       alpha: np.ndarray, beta: np.ndarray):
    """Both sides of the generalized inequality for a batch.

    a, b, c hold one triple per row, shape (n, k); alpha and beta hold the
    pairs checked against each triple, shape (n, p). Returns lhs and rhs of
    shape (n, p).
    """
    bad = ~_admissible(alpha, beta)
    if np.any(bad):
        i = tuple(np.argwhere(bad)[0])
        raise InadmissibleExponents(
            f"(alpha={alpha[i]}, beta={beta[i]}) violates alpha**2 <= 2*beta")
    q = 2.0 * alpha - beta - 1.0
    zero_base = np.any(a == 0, axis=-1)[..., None]
    for exponent in (beta, q):
        hit = zero_base & (exponent < 0)
        if np.any(hit):
            raise ZeroBaseError(
                f"zero base with negative exponent {exponent[tuple(np.argwhere(hit)[0])]}; "
                "strict positivity required")
    a, b, c = a[..., None, :], b[..., None, :], c[..., None, :]
    a_beta = a ** beta[..., None]
    a_q = a ** q[..., None]
    lhs = np.sum(a_beta * b, axis=-1) * np.sum(a_q * c, axis=-1)
    rhs = np.sum(a_beta, axis=-1) * np.sum(a_q * b * c, axis=-1)
    return lhs, rhs


def generalized_chebyshev_holds(t: MonotoneTriple, e: ExponentPair,
                                rel_tol: float = REL_TOL) -> CheckResult:
    """Generalized Chebyshev inequality for a monotone triple.

    (sum A_i**beta B_i)(sum A_i**q C_i) <= (sum A_i**beta)(sum A_i**q B_i C_i)
    with q = 2*alpha - beta - 1, valid whenever alpha**2 <= 2*beta.
    """
    lhs, rhs = _generalized_sides(np.array([t.A]), np.array([t.B]), np.array([t.C]),
                                  np.array([[e.alpha]]), np.array([[e.beta]]))
    return _check_result(lhs, rhs, rel_tol)


def _quadratic_sides(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Both sides of the squared-weight instance for triples in rows of (n, k)."""
    lhs = np.sum(a * a * b, axis=-1) * np.sum(a * c, axis=-1)
    rhs = np.sum(a * a, axis=-1) * np.sum(a * b * c, axis=-1)
    return lhs, rhs


def quadratic_chebyshev_holds(t: MonotoneTriple,
                              rel_tol: float = REL_TOL) -> CheckResult:
    """Squared-weight instance: (sum A_i^2 B_i)(sum A_i C_i) <= (sum A_i^2)(sum A_i B_i C_i).

    Evaluated directly, independently of generalized_chebyshev_holds, so the
    two can cross-check each other.
    """
    lhs, rhs = _quadratic_sides(np.array([t.A]), np.array([t.B]), np.array([t.C]))
    return _check_result(lhs, rhs, rel_tol)


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


FUZZ_CHUNK = 1024  # trials evaluated together; bounds the working set
_MAX_LEN = 30


def _trial_groups(rng: np.random.Generator, trials: int, width):
    """Draw the suite's trials in order; yield them chunk by chunk, grouped by length.

    Trial t draws k = integers(1, 31), then width(k) uniforms in [0, 1).
    Yields (k, trial indices, uniforms of shape (n, width(k))).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for start in range(0, trials, FUZZ_CHUNK):
        groups = {}
        for t in range(start, min(start + FUZZ_CHUNK, trials)):
            k = int(rng.integers(1, _MAX_LEN + 1))
            groups.setdefault(k, []).append((t, rng.random(width(k))))
        for k, drawn in groups.items():
            index, z = zip(*drawn)
            yield k, index, np.array(z)


def _uniform(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """rng.uniform(lo, hi) from the rng.random() draws z, bit for bit."""
    return lo + (hi - lo) * z


def _triples(z: np.ndarray, k: int):
    """Checked monotone triples from the first 3k uniforms of each row, drawn as A, B, C."""
    a = np.ascontiguousarray(np.sort(_uniform(z[:, :k], 0.1, 10.0), axis=1)[:, ::-1])
    b = np.sort(_uniform(z[:, k:2 * k], 0.0, 10.0), axis=1)
    c = np.sort(_uniform(z[:, 2 * k:3 * k], 0.0, 10.0), axis=1)
    _check_triples(a, b, c)
    return a, b, c


def _scalar_square(x: np.ndarray) -> np.ndarray:
    # ``alpha ** 2`` on a float calls libm's pow, which differs from
    # numpy's x * x in the last bit for about one value in a thousand
    return np.array([v ** 2 for v in x.ravel().tolist()]).reshape(x.shape)


def _in_trial_order(found: list) -> list:
    """Violations from (sort key, violation) entries, in drawing order."""
    return [v for _, v in sorted(found, key=lambda entry: entry[0])]


def fuzz_generalized_chebyshev(trials: int = 10_000, pairs_per_triple: int = 10,
                               seed: int = 0, rel_tol: float = REL_TOL) -> FuzzReport:
    rng = np.random.default_rng(seed)
    found = []
    for k, index, z in _trial_groups(rng, trials, lambda k: 3 * k + 2 * pairs_per_triple):
        a, b, c = _triples(z, k)
        alpha = _uniform(z[:, 3 * k::2], -2.0, 3.0)
        beta = _scalar_square(alpha) / 2.0 + _uniform(z[:, 3 * k + 1::2], 0.0, 3.0)
        lhs, rhs = _generalized_sides(a, b, c, alpha, beta)
        holds = _holds(lhs, rhs, rel_tol)
        for i in np.flatnonzero(~holds.all(axis=1)):
            triple = MonotoneTriple(A=a[i], B=b[i], C=c[i])
            for j in np.flatnonzero(~holds[i]):
                pair = ExponentPair(alpha=float(alpha[i, j]), beta=float(beta[i, j]))
                found.append(((index[i], j), (index[i], triple, pair,
                                              _check_result(lhs[i, j], rhs[i, j], rel_tol))))
    return FuzzReport("generalized_chebyshev", trials, _in_trial_order(found))


def fuzz_quadratic_chebyshev(trials: int = 10_000, seed: int = 0,
                             rel_tol: float = REL_TOL) -> FuzzReport:
    rng = np.random.default_rng(seed)
    found = []
    for k, index, z in _trial_groups(rng, trials, lambda k: 3 * k):
        a, b, c = _triples(z, k)
        lhs, rhs = _quadratic_sides(a, b, c)
        for i in np.flatnonzero(~_holds(lhs, rhs, rel_tol)):
            found.append((index[i], (index[i], MonotoneTriple(A=a[i], B=b[i], C=c[i]),
                                     _check_result(lhs[i], rhs[i], rel_tol))))
    return FuzzReport("quadratic_chebyshev", trials, _in_trial_order(found))


def fuzz_power_mean(trials: int = 10_000, seed: int = 0,
                    rel_tol: float = REL_TOL) -> FuzzReport:
    rng = np.random.default_rng(seed)
    found = []
    for k, index, z in _trial_groups(rng, trials, lambda k: k + 1):
        s = _uniform(z[:, :k], 0.0, 10.0)
        gamma = _uniform(z[:, k], 1.0, 5.0)
        lhs, rhs = _power_mean_sides(s, gamma)
        for i in np.flatnonzero(~_holds(lhs, rhs, rel_tol)):
            found.append((index[i], (index[i], s[i], float(gamma[i]),
                                     _check_result(lhs[i], rhs[i], rel_tol))))
    return FuzzReport("power_mean", trials, _in_trial_order(found))


def fuzz_chebyshev_sum(trials: int = 10_000, seed: int = 0,
                       rel_tol: float = REL_TOL) -> FuzzReport:
    rng = np.random.default_rng(seed)
    found = []
    for k, index, z in _trial_groups(rng, trials, lambda k: 2 * k):
        a = np.sort(_uniform(z[:, :k], -5.0, 5.0), axis=1)
        b = np.sort(_uniform(z[:, k:], -5.0, 5.0), axis=1)[:, ::-1]
        lhs, rhs = _chebyshev_sum_sides(a, b)
        for i in np.flatnonzero(~_holds(lhs, rhs, rel_tol)):
            found.append((index[i], (index[i], a[i], b[i],
                                     _check_result(lhs[i], rhs[i], rel_tol))))
    return FuzzReport("chebyshev_sum", trials, _in_trial_order(found))


def run_all_fuzz(trials: int = 10_000, seed: int = 0) -> list:
    """All four suites at the same trial count; used by the CLI."""
    return [
        fuzz_generalized_chebyshev(trials, seed=seed),
        fuzz_quadratic_chebyshev(trials, seed=seed + 1),
        fuzz_power_mean(trials, seed=seed + 2),
        fuzz_chebyshev_sum(trials, seed=seed + 3),
    ]
