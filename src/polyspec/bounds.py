"""Universal eigenvalue inequality evaluators.

Every evaluator takes the first k+1 eigenvalues of an order-l problem in
dimension n and reports both sides of one inequality. The shared constant
is c0 = 2*sqrt(l*(n + 2l - 2))/n with c1 = c0**2. BoundParams.rel_tol is
the relative slack every row allows its right side.

A spectrum is validated once, into a GapList: lambda_1..lambda_{k+1} must
be finite, positive and nondecreasing, or ValueError is raised. The
GapList holds what the rows share (the gaps, their zero mask and note,
the fractional weights raised once per order), and every evaluator takes
one in place of a plain list, so the rows of one spectrum read one object.

Zero spectral gaps are handled by a fixed policy: gap terms with a
nonnegative exponent contribute zero, and any negative gap exponent makes
the instance inapplicable (signalled by ZeroGapError). Gaps below a small
relative floor count as zero, which also flags repeated eigenvalues from
numerical spectra.

The two-exponent forms (yang_type_general, yang_type_simplified) also
evaluate a whole sweep of (alpha, beta) pairs in one call. Each distinct
exponent among alpha, beta and 2*alpha - beta - 1 is raised once into one
table of gap powers (scalar powers, exactly as the one-pair call raises
them), and each pair's sums are row sums of that table, so a sweep row
equals the one-pair row bit for bit. The zero-gap policy applies per
exponent: a negative exponent that meets a zero gap makes only the pairs
using it inapplicable. The displayed cases and the quadratic form keep
formulas of their own, as independent cross-checks of the general form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from .algebra import ExponentPair, InadmissibleExponents

BOUND_REL_TOL = 1e-9     # slack on rhs; the inequalities are exact
GAP_REL_FLOOR = 1e-10    # gaps below this times lambda_{k+1} count as zero


class ZeroGapError(ValueError):
    """A zero gap met a negative exponent; the instance is inapplicable."""


class ParameterError(ValueError):
    """Parameters outside the admissible range of the requested inequality."""


@dataclass(frozen=True)
class BoundParams:
    """Operator order, dimension, exponents and truncation index.

    k = None means "use all but the last supplied eigenvalue".
    """

    l: int
    n: int
    alpha: float = 2.0
    beta: float = 2.0
    k: Optional[int] = None
    rel_tol: float = BOUND_REL_TOL

    def __post_init__(self):
        if self.l < 1:
            raise ParameterError("operator order l must be a positive integer")
        if self.n < 1:
            raise ParameterError("dimension n must be a positive integer")
        if self.beta < 0:
            raise ParameterError("beta must be nonnegative")
        if self.k is not None and self.k < 1:
            raise ParameterError("truncation index k must be >= 1")
        if not self.rel_tol >= 0:
            raise ParameterError("slack rel_tol must be nonnegative")

    @property
    def c0(self) -> float:
        return 2.0 * math.sqrt(self.l * (self.n + 2 * self.l - 2)) / self.n

    @property
    def c1(self) -> float:
        return 4.0 * self.l * (self.n + 2 * self.l - 2) / self.n ** 2

    def with_exponents(self, alpha: float, beta: float) -> "BoundParams":
        return replace(self, alpha=alpha, beta=beta)


@dataclass
class BoundCheck:
    """One evaluated inequality: both sides, margin and verdict.

    A row with a side that is not finite (an overflowed power) is
    inapplicable: it keeps its values and says so in its notes.
    """

    name: str
    lhs: float
    rhs: float
    margin: float = field(init=False)
    holds: bool = field(init=False)
    applicable: bool = True
    notes: str = ""
    rel_tol: float = BOUND_REL_TOL

    def __post_init__(self):
        self.margin = self.rhs - self.lhs
        if self.applicable and not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            self.applicable = False
            side = "lhs" if not math.isfinite(self.lhs) else "rhs"
            self.notes = "; ".join(filter(None, [self.notes, f"{side} is not finite (overflow)"]))
        self.holds = bool(self.applicable
                          and self.lhs <= self.rhs + self.rel_tol * abs(self.rhs))

    @classmethod
    def inapplicable(cls, name: str, reason: str) -> "BoundCheck":
        return cls(name=name, lhs=float("nan"), rhs=float("nan"),
                   applicable=False, notes=reason)

    def to_dict(self) -> dict:
        def _num(x):
            x = float(x)
            return x if math.isfinite(x) else None

        return {
            "name": self.name,
            "lhs": _num(self.lhs),
            "rhs": _num(self.rhs),
            "margin": _num(self.margin),
            "holds": bool(self.holds),
            "applicable": bool(self.applicable),
            "notes": self.notes,
        }


class GapList:
    """One spectrum validated and cut at k: what every row of it reads.

    head is lambda_1..lambda_k; gaps are lambda_{k+1} - lambda_i, those
    under the zero floor set to 0 and marked in zero; note is the zero-gap
    note the gap rows carry. The arrays are read, never written.
    """

    def __init__(self, lam: Sequence[float], k: Optional[int] = None):
        values = np.asarray(lam, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("need a one-dimensional spectrum with at least two entries")
        if k is None:
            k = values.size - 1
        if k < 1:
            raise ValueError("truncation index k must be >= 1")
        if values.size < k + 1:
            raise ValueError(f"need at least k+1={k + 1} eigenvalues, got {values.size}")
        if not np.isfinite(values[:k + 1]).all():
            raise ValueError("eigenvalues must be finite")
        if values[0] <= 0:
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(values[:k + 1]) < -1e-9 * values[k]):
            raise ValueError("eigenvalues must be nondecreasing")
        self.values, self.k = values, k
        self.head = values[:k]
        g = values[k] - self.head
        self.zero = g <= GAP_REL_FLOOR * values[k]
        self.has_zero = bool(self.zero.any())
        self.gaps = np.where(self.zero, 0.0, g)
        self.note = ""
        if self.has_zero:
            idx = ", ".join(str(i + 1) for i in np.nonzero(self.zero)[0])
            self.note = f"repeated eigenvalues: zero-gap terms dropped at i={idx}"
        self._weights = {}

    @classmethod
    def of(cls, lam: "Spectrum", k: Optional[int]) -> "GapList":
        """lam itself when it is a GapList cut at k, else a new GapList.

        k None means all but the last value, as in the constructor.
        """
        if not isinstance(lam, GapList):
            return cls(lam, k)
        if (lam.values.size - 1 if k is None else k) != lam.k:
            raise ValueError(f"spectrum was cut at k={lam.k}, not at k={k}")
        return lam

    def weights(self, l: int) -> tuple:
        """(lambda_i^((l-1)/l), lambda_i^(1/l)) for i <= k, raised once per order."""
        if l not in self._weights:
            self._weights[l] = (self.head ** ((l - 1) / l), self.head ** (1.0 / l))
        return self._weights[l]

    def gap_pow(self, e: float) -> np.ndarray:
        """Gap powers under the zero-contribution policy."""
        if not self.has_zero:
            return self.gaps ** e
        if e < 0:
            raise ZeroGapError(f"zero gap with negative exponent {e}: strict gap required")
        out = np.zeros_like(self.gaps)
        out[~self.zero] = self.gaps[~self.zero] ** e
        return out


Spectrum = Union[Sequence[float], GapList]


def has_zero_gap(lam: Spectrum, k: Optional[int] = None) -> bool:
    """True when some gap lambda_{k+1} - lambda_i falls below the zero floor."""
    return GapList.of(lam, k).has_zero


Pairs = Optional[Sequence[tuple]]
PairRow = Union[BoundCheck, ZeroGapError, InadmissibleExponents]


def _two_exponent_rows(t: GapList, p: BoundParams, pairs: Pairs,
                       form: str, weights: tuple):
    """Rows of a two-exponent form, one per (alpha, beta), from one gap-power table.

    The form's lhs is sum (L-l_i)^alpha; its right side is
    c0 * sqrt(sum (L-l_i)^beta w1_i) * sqrt(sum (L-l_i)^(2a-b-1) w2_i) with
    (w1, w2) = weights, a weight None meaning unweighted.

    With pairs None the row of (p.alpha, p.beta) is returned and an
    inadmissible pair or a zero gap under a negative exponent raises.
    Otherwise each pair gets its row or, where the pair is inapplicable,
    the InadmissibleExponents or ZeroGapError the one-pair call would raise.
    """
    column = {}      # exponent -> its row of the gap-power table
    entries = []
    for alpha, beta in [(p.alpha, p.beta)] if pairs is None else pairs:
        if not ExponentPair(alpha, beta).admissible:
            entries.append(InadmissibleExponents(
                f"(alpha={alpha}, beta={beta}) violates alpha**2 <= 2*beta"))
            continue
        exponents = (alpha, beta, 2.0 * alpha - beta - 1.0)
        negative = [e for e in exponents if e < 0]
        if t.has_zero and negative:
            entries.append(ZeroGapError(
                f"zero gap with negative exponent {negative[0]}: strict gap required"))
            continue
        entries.append((alpha, beta, [column.setdefault(e, len(column))
                                      for e in exponents]))

    # one scalar power per exponent, not one broadcast power: numpy's fast
    # paths for 2, 0.5 and -1 round differently from its general power, so a
    # broadcast would move rows by an ulp
    table = np.array([t.gap_pow(e) for e in column]).reshape(len(column), t.k)
    plain = table.sum(axis=1)
    lhs, t1, t2 = (plain.tolist() if w is None else (table * w).sum(axis=1).tolist()
                   for w in (None,) + weights)

    c0 = p.c0
    rows: List[PairRow] = []
    for entry in entries:
        if isinstance(entry, ValueError):
            rows.append(entry)
            continue
        alpha, beta, (a, b, q) = entry
        rows.append(BoundCheck(name=f"{form}(alpha={alpha:g},beta={beta:g},k={t.k})",
                               lhs=lhs[a], rhs=c0 * math.sqrt(t1[b] * t2[q]),
                               notes=t.note, rel_tol=p.rel_tol))
    if pairs is not None:
        return rows
    if isinstance(rows[0], ValueError):
        raise rows[0]
    return rows[0]


def yang_type_general(lam: Spectrum, p: BoundParams,
                      pairs: Pairs = None) -> Union[BoundCheck, List[PairRow]]:
    """General two-exponent gap-power inequality.

    sum (L-l_i)^alpha <= c0 * sqrt(sum (L-l_i)^beta l_i^((l-1)/l))
                            * sqrt(sum (L-l_i)^(2a-b-1) l_i^(1/l))
    with L = lambda_{k+1}, for alpha**2 <= 2*beta, beta >= 0.

    Returns the BoundCheck at (p.alpha, p.beta), or with pairs a list with
    one entry per pair: its BoundCheck, or the InadmissibleExponents or
    ZeroGapError that makes that pair inapplicable.
    """
    t = GapList.of(lam, p.k)
    return _two_exponent_rows(t, p, pairs, "yang_type_general", t.weights(p.l))


def yang_type_case(lam: Spectrum, p: BoundParams, case: int) -> BoundCheck:
    """Named special cases of the general inequality.

    1: balanced second bracket (beta = 2*alpha - 1, alpha within
       [2 - sqrt(2), 2 + sqrt(2)]), gap-free second factor.
    2: alpha = beta = 1 (linear gaps).
    3: alpha = 1/2 with beta >= 1/8; the opposite exponent is -beta.
    4: alpha = -1 with beta >= 1/2; the opposite exponent is -beta - 3.

    Cases 3 and 4 carry negative gap exponents and require a strict gap.
    Each case is written out from its own displayed form so it can be
    cross-checked against yang_type_general at the same parameters.
    """
    t = GapList.of(lam, p.k)
    alpha, beta = p.alpha, p.beta
    # the gap exponents of the lhs and of the two brackets; None: gap-free
    if case == 1:
        if not (2.0 - math.sqrt(2.0) - 1e-12 <= alpha <= 2.0 + math.sqrt(2.0) + 1e-12):
            raise ParameterError(
                f"case 1 requires alpha in [2-sqrt(2), 2+sqrt(2)], got {alpha}")
        (e0, e1, e2), label = (alpha, 2 * alpha - 1, None), f"1,alpha={alpha:g}"
    elif case == 2:
        (e0, e1, e2), label = (1.0, 1.0, None), "2"
    elif case == 3:
        if beta < 0.125 - 1e-12:
            raise ParameterError(f"case 3 requires beta >= 1/8, got {beta}")
        (e0, e1, e2), label = (0.5, beta, -beta), f"3,beta={beta:g}"
    elif case == 4:
        if beta < 0.5 - 1e-12:
            raise ParameterError(f"case 4 requires beta >= 1/2, got {beta}")
        (e0, e1, e2), label = (-1.0, beta, -beta - 3.0), f"4,beta={beta:g}"
    else:
        raise ParameterError(f"case must be 1, 2, 3 or 4, got {case}")

    w_lo, w_hi = t.weights(p.l)
    lhs = float(np.sum(t.gap_pow(e0)))
    t1 = float(np.sum(t.gap_pow(e1) * w_lo))
    t2 = float(np.sum(w_hi if e2 is None else t.gap_pow(e2) * w_hi))
    return BoundCheck(name=f"yang_type_case({label},k={t.k})", lhs=lhs,
                      rhs=p.c0 * math.sqrt(t1 * t2), notes=t.note, rel_tol=p.rel_tol)


def quadratic_gap_bound(lam: Spectrum, p: BoundParams) -> BoundCheck:
    """Squared-gap instance (alpha = beta = 2), written out directly."""
    t = GapList.of(lam, p.k)
    g = t.gaps
    w_lo, w_hi = t.weights(p.l)
    lhs = float(np.sum(g ** 2))
    t1 = float(np.sum(g ** 2 * w_lo))
    t2 = float(np.sum(g * w_hi))
    rhs = p.c0 * math.sqrt(t1 * t2)
    return BoundCheck(name=f"quadratic_gap_bound(k={t.k})", lhs=lhs, rhs=rhs,
                      notes=t.note, rel_tol=p.rel_tol)


def spectral_gap_bound(lam: Spectrum, p: BoundParams) -> BoundCheck:
    """Top-gap bound by the product of fractional power sums.

    lambda_{k+1} - lambda_k <= c1/k**2 (sum l_i^((l-1)/l)) (sum l_i^(1/l)).
    """
    t = GapList.of(lam, p.k)
    k = t.k
    w_lo, w_hi = t.weights(p.l)
    lhs = float(t.values[k] - t.values[k - 1])
    rhs = p.c1 / k ** 2 * float(np.sum(w_lo)) * float(np.sum(w_hi))
    return BoundCheck(name=f"spectral_gap_bound(k={k})", lhs=lhs, rhs=rhs,
                      rel_tol=p.rel_tol)


def yang_type_simplified(lam: Spectrum, p: BoundParams,
                         pairs: Pairs = None) -> Union[BoundCheck, List[PairRow]]:
    """Variant with plain gap sums in the first bracket and l_i in the second.

    Its right side dominates the general inequality's right side (the
    fractional weights recombine as l_i^((l-1)/l) * l_i^(1/l) = l_i).
    Takes pairs and returns rows as yang_type_general does.
    """
    t = GapList.of(lam, p.k)
    return _two_exponent_rows(t, p, pairs, "yang_type_simplified", (None, t.head))


def yang_first_inequality(lam: Spectrum, p: BoundParams) -> BoundCheck:
    """Quadratic-in-gaps bound: sum g_i^2 <= c1 * sum g_i l_i."""
    t = GapList.of(lam, p.k)
    lhs = float(np.sum(t.gaps ** 2))
    rhs = p.c1 * float(np.sum(t.gaps * t.head))
    return BoundCheck(name=f"yang_first_inequality(k={t.k})", lhs=lhs, rhs=rhs,
                      rel_tol=p.rel_tol)


def ppw_gap_bound(lam: Spectrum, p: BoundParams) -> BoundCheck:
    """Top gap bounded by the running mean: l_{k+1} - l_k <= c1/k sum l_i."""
    t = GapList.of(lam, p.k)
    k = t.k
    lhs = float(t.values[k] - t.values[k - 1])
    rhs = p.c1 / k * float(np.sum(t.head))
    return BoundCheck(name=f"ppw_gap_bound(k={k})", lhs=lhs, rhs=rhs,
                      rel_tol=p.rel_tol)


def yang_second_inequality(lam: Spectrum, p: BoundParams) -> BoundCheck:
    """Explicit next-eigenvalue bound: l_{k+1} <= (1 + c1)/k sum l_i."""
    t = GapList.of(lam, p.k)
    k = t.k
    lhs = float(t.values[k])
    rhs = (1.0 + p.c1) / k * float(np.sum(t.head))
    return BoundCheck(name=f"yang_second_inequality(k={k})", lhs=lhs, rhs=rhs,
                      rel_tol=p.rel_tol)


def recursive_upper_chain(lambda_1: float, p: BoundParams, depth: int) -> np.ndarray:
    """A priori upper bounds U_2..U_{depth+1} grown from lambda_1 alone.

    U_1 = lambda_1 and U_{k+1} = (1 + c1)/k * sum_{i<=k} U_i. Because the
    next-eigenvalue bound is monotone in each eigenvalue, every U_k
    dominates the true lambda_k.
    """
    if lambda_1 <= 0:
        raise ValueError("lambda_1 must be positive")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    chain = np.empty(depth + 1)
    chain[0] = lambda_1
    running = lambda_1
    for k in range(1, depth + 1):
        chain[k] = (1.0 + p.c1) * running / k
        running += chain[k]
    return chain[1:]


def comparison_table(lam: Spectrum, p: BoundParams) -> List[BoundCheck]:
    """Historical inequalities evaluated on the same spectrum.

    hile_protter: sum l_i/(L - l_i) >= n k / 4, second-order problems only
    (stored with the constant on the lhs so that holds == lhs <= rhs).
    chen_qian_hook: n^2 k^2 / (4 l (n+2l-2)) <= (sum l_i^(1/l)/(L - l_i))
    * (sum l_i^((l-1)/l)); reduces to hile_protter at l = 1.
    Cheng, Ichikawa and Mametsuka's inequality is yang_first_inequality's
    formula, so it has no row of its own.
    """
    t = GapList.of(lam, p.k)
    k, g = t.k, t.gaps
    w_lo, w_hi = t.weights(p.l)
    rows: List[BoundCheck] = []

    if p.l != 1:
        rows.append(BoundCheck.inapplicable(
            f"hile_protter(k={k})", "stated for order l=1 only"))
    elif t.has_zero:
        rows.append(BoundCheck.inapplicable(
            f"hile_protter(k={k})", "zero gap in a denominator"))
    else:
        rows.append(BoundCheck(
            name=f"hile_protter(k={k})",
            lhs=p.n * k / 4.0,
            rhs=float(np.sum(t.head / g)),
            notes="lower-bound form: constant <= gap-ratio sum", rel_tol=p.rel_tol))

    if t.has_zero:
        rows.append(BoundCheck.inapplicable(
            f"chen_qian_hook(k={k})", "zero gap in a denominator"))
    else:
        rows.append(BoundCheck(
            name=f"chen_qian_hook(k={k})",
            lhs=p.n ** 2 * k ** 2 / (4.0 * p.l * (p.n + 2 * p.l - 2)),
            rhs=float(np.sum(w_hi / g)) * float(np.sum(w_lo)),
            notes="lower-bound form: constant <= product of sums", rel_tol=p.rel_tol))
    return rows


def admissible_grid(alphas: Sequence[float] = (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 2.5),
                    beta_max: float = 4.0,
                    beta_step: float = 0.5) -> List[tuple]:
    """Sweep grid of admissible (alpha, beta): beta from alpha**2/2 up to beta_max."""
    pairs = []
    for alpha in alphas:
        beta = alpha * alpha / 2.0
        while beta <= beta_max + 1e-12:
            pairs.append((float(alpha), float(beta)))
            beta += beta_step
    return pairs
