"""Command-line entry points.

Subcommands: solve (spectrum only), verify (full pipeline), bounds
(inequalities on a supplied eigenvalue list), fuzz-algebra (randomized
property suites). Exit codes: 0 pass, 1 check failure, 2 usage or config
error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import algebra
from .eigensolve import PairCountError, SolverError, smallest_eigenpairs
from .harness import ConfigError, RunConfig, evaluate_bounds_on_list, run
from .operators import build_polyharmonic

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _parse_tol_overrides(pairs: Optional[List[str]]) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    return out


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config)
    overrides = _parse_tol_overrides(args.tol)
    if overrides or args.seed is not None:
        data = config.to_dict()
        data["tolerances"].update(overrides)
        if args.seed is not None:
            data["seed"] = args.seed
        config = RunConfig.from_dict(data)
    return config


def _cmd_solve(args) -> int:
    config = _load_config(args)
    operator = build_polyharmonic(config.domain)
    try:
        spectrum = smallest_eigenpairs(operator, config.k,
                                       tol=config.tolerances["solver"],
                                       seed=config.seed)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for j, (lam, res) in enumerate(zip(spectrum.eigenvalues, spectrum.residuals), 1):
        print(f"lambda_{j} = {float(lam)!r}   residual = {res:.3e}")
    out = args.out or config.output
    if out:
        payload = {
            "domain": config.domain.to_dict(),
            "eigenvalues": [float(v) for v in spectrum.eigenvalues],
            "residuals": [float(r) for r in spectrum.residuals],
        }
        path = f"{out}.spectrum.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    config = _load_config(args)
    report = run(config, out_override=args.out)
    if report.error:
        print(f"FAIL  {report.error}", file=sys.stderr)
        return EXIT_SOLVER
    for row in report.identity_rows:
        mark = "PASS" if row["passed"] else "FAIL"
        print(f"  {mark}  {row['name']}: deviation {row['deviation']:.3e} (tol {row['tol']:g})")
    for row in report.bound_rows:
        if not row["applicable"]:
            print(f"  SKIP  {row['name']}: {row['notes']}")
            continue
        mark = "PASS" if row["holds"] else "FAIL"
        print(f"  {mark}  {row['name']}: lhs {row['lhs']:.6e} <= rhs {row['rhs']:.6e}")
    for row in report.oracle_rows:
        mark = "PASS" if row["passed"] else "FAIL"
        if row["name"] == "oracle":
            print(f"  {mark}  oracle: {row['notes']}")
        else:
            print(f"  {mark}  {row['name']}: {row['observed']:.6f} vs {row['reference']:.6f}")
    print(f"verdict: {report.verdict}")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def _cmd_bounds(args) -> int:
    try:
        with open(args.eigenvalues, "r", encoding="utf-8") as fh:
            lam = [float(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        print(f"cannot read eigenvalue list: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if len(lam) < 2 or any(v <= 0 for v in lam):
        print("need at least two positive eigenvalues", file=sys.stderr)
        return EXIT_USAGE
    try:
        rows = evaluate_bounds_on_list(lam, l=args.l, n=args.n, k=args.k)
    except ValueError as exc:  # bad l, n or k, or a decreasing list
        print(f"bad eigenvalue list or parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    for row in rows:
        if not row.applicable:
            print(f"  SKIP  {row.name}: {row.notes}")
            continue
        mark = "PASS" if row.holds else "FAIL"
        failures += 0 if row.holds else 1
        print(f"  {mark}  {row.name}: lhs {row.lhs:.6e} <= rhs {row.rhs:.6e}")
    print(f"{len(rows)} rows, {failures} failures")
    return EXIT_PASS if failures == 0 else EXIT_CHECK_FAILURE


def _cmd_fuzz(args) -> int:
    # zero trials would pass vacuously; numpy rejects a negative seed
    if args.trials < 1 or args.seed < 0:
        print(f"fuzz-algebra needs --trials >= 1 and --seed >= 0, "
              f"got --trials {args.trials} --seed {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    reports = algebra.run_all_fuzz(trials=args.trials, seed=args.seed)
    chi_params = [(2.0, 2.0, True), (1.0, 1.0, True), (-1.0, 0.5, True),
                  (0.5, 0.125, True), (2.0, 1.0, False), (3.0, 2.0, False)]
    chi_failures = 0
    for alpha, beta, expect in chi_params:
        couple = algebra.ChiLambdaCouple(
            lam=1.0, exponents=algebra.ExponentPair(alpha=alpha, beta=beta))
        verdict = algebra.chi_lambda_member(couple, sample_count=50)
        ok = verdict.holds_on_samples == expect
        chi_failures += 0 if ok else 1
        mark = "PASS" if ok else "FAIL"
        detail = "member" if verdict.holds_on_samples else f"violation at {verdict.first_violation[:2]}"
        print(f"  {mark}  couple(alpha={alpha:g},beta={beta:g}): {detail}")
    failed = chi_failures
    for rep in reports:
        mark = "PASS" if rep.passed else "FAIL"
        failed += 0 if rep.passed else 1
        print(f"  {mark}  {rep.name}: {rep.trials} trials, {len(rep.violations)} violations")
    return EXIT_PASS if failed == 0 else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyspec",
        description="Numerical verification of universal eigenvalue inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument("--out", default=None, help="override output prefix")
    common.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override one tolerance (repeatable)")

    p_solve = sub.add_parser("solve", parents=[common], help="compute the spectrum only")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", parents=[common], help="full verification pipeline")
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="evaluate inequalities on an eigenvalue list")
    p_bounds.add_argument("--eigenvalues", required=True,
                          help="file with one positive eigenvalue per line")
    p_bounds.add_argument("--l", type=int, default=1, help="operator order")
    p_bounds.add_argument("--n", type=int, default=1, help="space dimension")
    p_bounds.add_argument("--k", type=int, default=None,
                          help="truncation index (default: count - 1)")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_fuzz = sub.add_parser("fuzz-algebra", help="randomized algebra property suites")
    p_fuzz.add_argument("--trials", type=int, default=10_000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ConfigError, PairCountError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entrypoint() -> None:
    sys.exit(main())
