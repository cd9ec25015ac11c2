"""Checks of polyspec's outputs against computations made apart from it.

Nothing here imports polyspec: the references are built from the grid
description alone, and the outputs are read from the reports and the
command-line text the program wrote.

* l = 1 on unmasked boxes: the exact discrete spectrum
  sum_d (4/h_d^2) sin^2(j_d pi / (2 (m_d + 1))).
* l >= 2 or masked, at most SVD_LIMIT unknowns: squared singular values
  of a factor G with G^T G equal to the program's operator, built here
  from forward differences (see `factor`).
* Larger clamped rods (l = 2 intervals): the root of cos k cosh k = 1,
  with a first-order discretization allowance; larger clamped plates:
  the literature value of the clamped square plate, likewise.

Each reported eigenvalue must lie within its certified radius
(`spectrum.solver_tol` times the eigenvalue) of the reference, plus the
reference's own rounding or discretization allowance.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Dict, List

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

import workloads

EPS = float(np.finfo(float).eps)
SVD_LIMIT = 4000
# Relative discretization error of lambda_1 is C h on the clamped rod and
# plate. The accurate rungs give C = 3.99 (rod, 999 points), 3.995 (2000),
# 3.997 (4000) and 3.79 (plate, 60 x 60); the allowance takes 1.5 times that.
DISCRETIZATION_C = 6.0
# lambda_1 of the clamped unit square plate: (35.985)^2 (Leissa, Vibration
# of Plates, NASA SP-160, 1969).
PLATE_LAMBDA_1 = 35.985 ** 2


def forward_difference(shape, h) -> sp.csr_matrix:
    """Stacked per-axis forward differences with zero values outside the box.

    D^T D is the (2n+1)-point negative Laplacian with Dirichlet zero
    boundary on the box.
    """
    blocks = []
    for d, (m, hd) in enumerate(zip(shape, h)):
        one = sp.diags([np.ones(m), -np.ones(m)], [0, -1], shape=(m + 1, m)) / hd
        mats = [sp.identity(p, format="csr") for p in shape]
        mats[d] = one
        out = mats[0]
        for mat in mats[1:]:
            out = sp.kron(out, mat, format="csr")
        blocks.append(out)
    return sp.vstack(blocks, format="csr")


def factor(case: workloads.VerifyCase) -> sp.csr_matrix:
    """G with G^T G equal to the order-l clamped operator on case's grid.

    The operator is E^T L^l E on the box padded by l-1 cells, where E
    injects the interior (or mask) cells and L = D^T D. So G = L^(l/2) E
    for even l and G = D L^((l-1)/2) E for odd l.
    """
    pad = case.l - 1
    padded = tuple(m + 2 * pad for m in case.points)
    d = forward_difference(padded, case.h)
    lap = (d.T @ d).tocsr()
    index = np.arange(math.prod(padded)).reshape(padded)
    cells = index[tuple(slice(pad, pad + m) for m in case.points)]
    if case.mask is not None:
        rows = workloads.mask_rows(case.mask, case.points)
        cells = cells[np.array([[ch == "1" for ch in row] for row in rows])]
    cells = cells.ravel()
    g = sp.csr_matrix((np.ones(cells.size), (cells, np.arange(cells.size))),
                      shape=(math.prod(padded), cells.size))
    for _ in range(case.l // 2):
        g = lap @ g
    if case.l % 2:
        g = d @ g
    return sp.csr_matrix(g)


def reference(case: workloads.VerifyCase, count: int):
    """(reference eigenvalues, absolute allowance of the reference, method)."""
    if case.l == 1 and case.mask is None:
        per_axis = []
        for m, h in zip(case.points, case.h):
            j = np.arange(1, min(m, count) + 1)
            per_axis.append(4.0 / h ** 2 * np.sin(j * np.pi / (2 * (m + 1))) ** 2)
        sums = per_axis[0]
        for values in per_axis[1:]:
            sums = np.add.outer(sums, values).ravel()
        ref = np.sort(sums)[:count]
        return ref, 64 * EPS * ref, "exact discrete spectrum"
    if case.unknowns <= SVD_LIMIT:
        sigma = sla.svdvals(factor(case).toarray())
        small = np.sort(sigma)[:count]
        # the SVD's absolute error is a small multiple of eps * sigma_max
        slack = 2 * small * 16 * EPS * sigma.max() + 16 * EPS * small ** 2
        return small ** 2, slack, "svdvals(G)^2"
    h = max(case.h)
    if case.is_rod and case.box_extents == (1.0,):
        ref = workloads.rod_constants(1)[0] ** 4
        return np.array([ref]), np.array([DISCRETIZATION_C * h * ref]), "clamped-rod root"
    if case.shape == "rectangle" and case.l == 2 and case.box_extents == (1.0, 1.0):
        ref = PLATE_LAMBDA_1
        return np.array([ref]), np.array([DISCRETIZATION_C * h * ref]), "clamped plate"
    raise ValueError(f"no independent reference for {case.name}")


def report_path(pass_dir: str, op_name: str) -> str:
    return os.path.join(pass_dir, op_name + ".report.json")


def _body(path: str):
    """The report file without its timestamp line; None when it is missing."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return re.sub(rb'\n  "timestamp": "[^"]*",?', b"", fh.read())


def check_verify(case, report: dict, ref, errors: List[str], label: str) -> None:
    """Rows hold and eigenvalues lie within radius of the reference."""
    if report["verdict"] != "pass" or report["error"] is not None:
        errors.append(f"{label}: verdict {report['verdict']} ({report['error']})")
    for row in report["identity_rows"] + report["oracle_rows"]:
        if not row["passed"]:
            errors.append(f"{label}: identity row {row['name']} fails")
    for row in report["bound_rows"]:
        if row["applicable"] and not row["holds"]:
            errors.append(f"{label}: inequality row {row['name']} fails")
    if not report["spectrum"]:
        errors.append(f"{label}: no spectrum recorded")
        return
    lam = np.asarray(report["spectrum"]["eigenvalues"])
    if lam.size != case.k + 1 or np.any(np.diff(lam) < 0) or lam[0] <= 0:
        errors.append(f"{label}: eigenvalues not k+1 positive nondecreasing values")
        return
    eigen_within(report, ref, errors, label)


def eigen_within(report: dict, ref, errors: List[str], label: str) -> bool:
    """Whether every eigenvalue with a reference lies within its allowance."""
    values, slack, method = ref
    lam = np.asarray(report["spectrum"]["eigenvalues"])[:values.size]
    radius = report["spectrum"]["solver_tol"]
    allowed = radius * lam + slack
    bad = np.nonzero(np.abs(lam - values) > allowed)[0]
    if bad.size:
        i = int(bad[0])
        errors.append(f"{label}: lambda_{i + 1} = {float(lam[i])!r} vs {method} {float(values[i])!r}, "
                      f"allowed {allowed[i]:.3e}")
        return False
    return True


_ROW = re.compile(r"^  (PASS|FAIL|SKIP)  (\S+?): (.*)$")
_SIDES = re.compile(r"lhs (\S+) <= rhs (\S+)$")


def check_bounds(op, text: str, lam: List[float], errors: List[str]) -> int:
    """Rows of one `bounds` call; returns the row count it printed."""
    label = op.name
    rows = [_ROW.match(line) for line in text.splitlines()]
    rows = [m for m in rows if m]
    tail = re.search(r"^(\d+) rows, (\d+) failures$", text, re.M)
    if tail is None:
        errors.append(f"{label}: no row count printed")
        return 0
    count, failures = int(tail.group(1)), int(tail.group(2))
    if count != len(rows) or failures != 0 or any(m.group(1) == "FAIL" for m in rows):
        errors.append(f"{label}: {count} rows printed as {len(rows)}, {failures} failures")
    if not any(m.group(1) == "PASS" for m in rows):
        errors.append(f"{label}: no applicable row")
    # three rows recomputed here; they are theorems, so each must hold
    stem, l, n = next(s for s in workloads.SPECTRA if s[0] == op.spectrum)
    k = op.bound_k
    arr = np.asarray(lam[:k + 1])
    head, top = arr[:k], arr[k]
    c1 = 4.0 * l * (n + 2 * l - 2) / n ** 2
    expected = {
        f"yang_second_inequality(k={k})": (top, (1 + c1) / k * head.sum()),
        f"ppw_gap_bound(k={k})": (top - head[-1], c1 / k * head.sum()),
        f"yang_first_inequality(k={k})": (((top - head) ** 2).sum(),
                                          c1 * ((top - head) * head).sum()),
    }
    printed = {m.group(2): _SIDES.search(m.group(3)) for m in rows}
    for name, (lhs, rhs) in expected.items():
        sides = printed.get(name)
        if sides is None:
            errors.append(f"{label}: row {name} missing")
            continue
        got = (float(sides.group(1)), float(sides.group(2)))
        scale = abs(lhs) + abs(rhs)
        if abs(got[0] - lhs) > 1e-6 * scale or abs(got[1] - rhs) > 1e-6 * scale:
            errors.append(f"{label}: {name} printed {got}, recomputed {(lhs, rhs)}")
        if lhs > rhs * (1 + 1e-12):
            errors.append(f"{label}: {name} violated on an analytic spectrum")
    return count


_SUITE = re.compile(r"^  PASS  (\w+): (\d+) trials, 0 violations$", re.M)
_COUPLE = re.compile(r"^  PASS  couple\(alpha=(\S+),beta=(\S+)\): (member|violation)", re.M)


def check_fuzz(op, text: str, errors: List[str]) -> None:
    suites = _SUITE.findall(text)
    if len(suites) != 4 or any(int(t) != op.trials for _, t in suites):
        errors.append(f"{op.name}: expected four suites of {op.trials} trials "
                      f"with no violations, got {suites}")
    couples = _COUPLE.findall(text)
    if len(couples) != 6:
        errors.append(f"{op.name}: expected six couple verdicts, got {len(couples)}")
    for alpha, beta, verdict in couples:
        # power-family criterion: a couple belongs to the family iff alpha^2 <= 2 beta
        member = float(alpha) ** 2 <= 2 * float(beta) + 1e-12
        if member != (verdict == "member"):
            errors.append(f"{op.name}: couple ({alpha}, {beta}) reported {verdict}")


def check_run(ops, worker: Dict, input_dir: str) -> dict:
    """All checks of one run; returns errors, failures and certificate metrics."""
    errors: List[str] = []
    passes = worker["passes"]
    first = passes[0]
    refs = {}
    reports = {}
    rows_per_op = {}
    # only the causes named in workloads.py may make an operation fail
    for index, op in enumerate(ops):
        codes = sorted({p["codes"][index] for p in passes} - {0})
        if codes and not (op.case is not None and op.case.expected_failure):
            errors.append(f"{op.name}: exited {codes}, not a known failure")
    for index, op in enumerate(ops):
        text = worker["outputs"][index]
        if op.kind == "verify":
            expected = first["codes"][index] != 0 and op.case.expected_failure
            path = report_path(first["dir"], op.name)
            body = _body(path)
            if body is None:
                reports[op.name] = {}
                if not expected:
                    errors.append(f"{op.name}: no report written")
                continue
            with open(path, encoding="utf-8") as fh:
                reports[op.name] = json.load(fh)
            for later in passes[1:]:
                if _body(report_path(later["dir"], op.name)) != body:
                    errors.append(f"{op.name}: report body differs between passes "
                                  f"with the same config and seed")
                    break
            if expected:
                continue
            case = op.case
            if case.name not in refs:
                refs[case.name] = reference(case, case.k + 1)
            check_verify(case, reports[op.name], refs[case.name], errors, op.name)
        elif op.kind == "bounds":
            with open(os.path.join(input_dir, op.spectrum + ".txt"), encoding="utf-8") as fh:
                lam = [float(line) for line in fh]
            rows_per_op[op.name] = check_bounds(op, text, lam, errors)
        else:
            check_fuzz(op, text, errors)

    # a fixed list: a listed config that stops recording a radius is an error,
    # not a config that drops out of the mean
    radii = []
    for op in ops:
        if op.kind == "verify" and op.case.in_radius:
            spectrum = reports[op.name].get("spectrum")
            if spectrum:
                radii.append(spectrum["solver_tol"])
            else:
                errors.append(f"{op.name}: no radius for cert_radius_gmean")
    gmean = math.exp(sum(math.log(r) for r in radii) / len(radii)) if radii else float("nan")

    # the rod ladder: every rung up to the answer certified, on every seed
    rod = workloads.rod_constants(1)[0] ** 4
    certified_points = 0
    rungs = sorted({op.case.points[0] for op in ops if op.kind == "verify" and op.case.is_rod})
    for points in rungs:
        ok = True
        for op in ops:
            if op.kind != "verify" or not op.case.is_rod or op.case.points[0] != points:
                continue
            report = reports[op.name]
            allowance = DISCRETIZATION_C * max(op.case.h) * rod
            ok = (ok and bool(report.get("spectrum"))
                  and report["spectrum"]["solver_tol"] <= workloads.CERTIFIED_RADIUS
                  and eigen_within(report, (np.array([rod]), np.array([allowance]),
                                            "clamped-rod root"), [], op.name))
        if not ok:
            break
        certified_points = points

    return {"errors": errors, "cert_radius_gmean": gmean,
            "rod_certified_points": certified_points, "rows_per_op": rows_per_op}
