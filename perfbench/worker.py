"""One workload in one process: set up, run whole passes for a given time.

Run by run.py, never directly by a user. Every pass calls
polyspec.cli.main once per operation, with every report written into a
directory new to that pass. Writes <run-dir>/worker.json for run.py,
which checks the outputs in its own process so that the checks do not
count toward this process's peak memory.

With --setup-only the process times the set-up and exits; run.py starts
several such processes, because the import can be timed once a process.
"""

from time import perf_counter

SETUP_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# numpy's and scipy's OpenBLAS report their thread counts through these
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_environment() -> dict:
    """BLAS library, version and the thread count each loaded copy reports."""
    import ctypes

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def environment() -> dict:
    import numpy
    import scipy
    env = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    env.update(blas_environment())
    return env


def run_pass(cli, ops, pass_dir, tracer=None):
    os.mkdir(pass_dir)
    times, codes, outputs = [], [], []
    for index, op in enumerate(ops):
        argv = op.argv(pass_dir)
        buf = io.StringIO()
        if tracer is not None:
            tracer.op = index
        start = perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        times.append(perf_counter() - start)
        codes.append(code)
        outputs.append(buf.getvalue())
    return times, codes, outputs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import polyspec.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"polyspec was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    input_dir = os.path.join(args.run_dir, "inputs")
    ops = workloads.operations(workload, args.seed, input_dir)
    workloads.write_inputs(ops, input_dir)
    setup_s = perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    # whole passes only, so every run attempts the same operations in the
    # same proportions. A traced run starts with an untraced warm-up pass
    # (first ARPACK and scipy.sparse calls, cold caches) that no median
    # uses, then alternates untraced and traced passes.
    min_passes = 5 if args.trace else 2
    passes, layer_passes, first_outputs = [], [], None
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 0 and len(passes) > 0
        pass_dir = os.path.join(args.run_dir, f"pass-{len(passes):04d}")
        if traced:
            tracer.reset()
            uninstall = tracer.install()
        try:
            times, codes, outputs = run_pass(cli, ops, pass_dir, tracer if traced else None)
        finally:
            if traced:
                uninstall()
        passes.append({"dir": pass_dir, "times": times, "codes": codes, "traced": traced,
                       "warmup": bool(args.trace) and not passes})
        if first_outputs is None:
            first_outputs = outputs
        if traced:
            layer = tracer.pass_metrics()
            layer["report.bytes"] = sum(os.path.getsize(p) for p in tracer.saved_paths)
            layer["pass_s"] = sum(times)
            layer["unattributed_s"] = layer["pass_s"] - layer.pop("self_total_s")
            layer_passes.append(layer)
    measured_s = perf_counter() - start

    result = {
        "setup_s": setup_s,
        "measured_s": measured_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "ops": [op.name for op in ops],
        "passes": passes,
        "outputs": first_outputs,
    }
    if args.trace:
        untraced = statistics.median(sum(p["times"]) for p in passes
                                     if not p["traced"] and not p["warmup"])
        layer = {key: statistics.median(p[key] for p in layer_passes)
                 for key in layer_passes[0]}
        layer["untraced_pass_s"] = untraced
        result["layers"] = layer
    with open(os.path.join(args.run_dir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
