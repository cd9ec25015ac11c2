"""Benchmark of polyspec through its public command-line entry point.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) for --seconds in a
worker process, checks every output against computations made apart from
the program, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
Run from anywhere; all files go under <repo>/.perfbench_runs/ and are
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4          # set-up processes besides the worker; setup_s is the median of all
# time the set-up processes and the worker may take beyond --seconds: set-up,
# the last pass started before --seconds ran out, and the exit; the checks
# that follow have no deadline
DEADLINE_MARGIN_S = 60.0


def child(cmd, deadline, env):
    """Run one child process to completion or kill it at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for " + " ".join(cmd[2:4]))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(cmd[1])} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return proc.stdout


def end_to_end(ops, worker, checked) -> dict:
    untraced = [p for p in worker["passes"] if not p["traced"]]

    def seconds(p, kind):
        return sum(t for t, op in zip(p["times"], ops) if op.kind == kind)

    rows = sum(checked["rows_per_op"].values())
    trials = sum(4 * op.trials for op in ops if op.kind == "fuzz")
    return {
        "verify_s": statistics.median(seconds(p, "verify") for p in untraced),
        "peak_rss_mb": worker["peak_rss_mb"],
        "cert_radius_gmean": checked["cert_radius_gmean"],
        "rod_certified_points": checked["rod_certified_points"],
        "bound_rows_per_s": statistics.median(rows / seconds(p, "bounds") for p in untraced),
        "fuzz_trials_per_s": statistics.median(trials / seconds(p, "fuzz") for p in untraced),
    }


def per_layer(worker) -> dict:
    layers = dict(worker["layers"])
    layers["trace.pass_s"] = layers.pop("pass_s")
    layers["trace.untraced_pass_s"] = layers.pop("untraced_pass_s")
    layers["trace.unattributed_s"] = layers.pop("unattributed_s")
    layers["trace.overhead_pct"] = 100.0 * (
        layers["trace.pass_s"] / layers["trace.untraced_pass_s"] - 1.0)
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="BLAS threads of the worker (default: usable CPUs)")
    args = parser.parse_args()
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S

    if not os.path.isfile(os.path.join(ROOT, "src", "polyspec", "cli.py")):
        print(f"no polyspec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    threads = str(args.blas_threads or len(os.sched_getaffinity(0)))
    blas_env = {v: threads for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
    os.environ.update(blas_env)      # before this process imports numpy for the checks
    env = dict(os.environ)
    run_dir = os.path.join(ROOT, ".perfbench_runs",
                           f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(run_dir)
    worker_py = os.path.join(HERE, "worker.py")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        for i in range(SETUP_PROBES):
            out = child([sys.executable, worker_py, *common, "--setup-only",
                         "--run-dir", os.path.join(run_dir, f"setup-{i}")], deadline, env)
            setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        child([sys.executable, worker_py, *common, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--run-dir", run_dir], deadline, env)
        with open(os.path.join(run_dir, "worker.json"), encoding="utf-8") as fh:
            worker = json.load(fh)
        setup.append(worker["setup_s"])

        import checks
        input_dir = os.path.join(run_dir, "inputs")
        ops = workloads.operations(workloads.WORKLOADS[args.workload], args.seed, input_dir)
        checked = checks.check_run(ops, worker, input_dir)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(ops) * len(worker["passes"])
    failed_ops = sorted({ops[i].name for p in worker["passes"]
                         for i, code in enumerate(p["codes"]) if code != 0})
    failed = sum(code != 0 for p in worker["passes"] for code in p["codes"])
    if args.trace:
        values = per_layer(worker)
    else:
        values = end_to_end(ops, worker, checked)
        values["setup_s"] = statistics.median(setup)

    print("env " + json.dumps(dict(worker["env"], blas_threads_requested=int(threads)),
                              sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  passes {len(worker['passes'])}  "
          f"measured {worker['measured_s']:.1f} s")
    for name in failed_ops:
        case = next(op.case for op in ops if op.name == name)
        known = case.expected_failure if case is not None else ""
        print(f"failed op {name}: {known or 'not a known failure'}")
    for error in checked["errors"]:
        print(f"CHECK FAILED {error}")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<28} {value:>16.6g} {metric['unit']}")
    correct = not checked["errors"] and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values())
    print(f"attempted {attempted}  failed {failed}  correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
