"""Spans and counts around polyspec's public functions, applied from outside.

`Tracer.install()` replaces each listed function, in every polyspec module
that holds a reference to it, by a wrapper that records a span (operation,
name, start, end, parent span) and the layer's counts; it returns a
function that puts the originals back. Nothing under src/ is changed.

A layer's self time is the duration of its spans minus the time their
direct child spans cover; the self times of all spans add up to the
durations of the root `cli.main` spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) -> span name; the span name's prefix is the layer
FUNCTIONS = {
    ("polyspec.cli", "main"): "cli.main",
    ("polyspec.harness", "run"): "harness.run",
    ("polyspec.harness", "evaluate_bounds_on_list"): "harness.list",
    ("polyspec.operators", "build_polyharmonic"): "operators.build",
    ("polyspec.operators", "build_laplacian"): "operators.build",
    ("polyspec.eigensolve", "smallest_eigenpairs"): "eigensolve.solve",
    ("polyspec.identities", "commutator_check"): "identities.commutator",
    ("polyspec.identities", "trace_identity_check"): "identities.trace",
    ("polyspec.identities", "interpolation_check"): "identities.interpolation",
    ("polyspec.identities", "gradient_sum_check"): "identities.gradient",
    ("polyspec.algebra", "run_all_fuzz"): "algebra.fuzz",
    ("polyspec.algebra", "fuzz_generalized_chebyshev"): "algebra.fuzz",
    ("polyspec.algebra", "fuzz_quadratic_chebyshev"): "algebra.fuzz",
    ("polyspec.algebra", "fuzz_power_mean"): "algebra.fuzz",
    ("polyspec.algebra", "fuzz_chebyshev_sum"): "algebra.fuzz",
    ("polyspec.algebra", "chi_lambda_member"): "algebra.member",
}
FUNCTIONS.update({("polyspec.bounds", f): "bounds.eval" for f in (
    "yang_type_general", "yang_type_case", "quadratic_gap_bound",
    "spectral_gap_bound", "yang_type_simplified", "yang_first_inequality",
    "ppw_gap_bound", "yang_second_inequality", "recursive_upper_chain",
    "comparison_table", "has_zero_gap", "admissible_grid")})

# (module, class, attribute) -> span name; properties are wrapped as properties
METHODS = {
    ("polyspec.grids", "DomainSpec", "mask_array"): "grids.derived",
    ("polyspec.grids", "DomainSpec", "interior_count"): "grids.derived",
    ("polyspec.grids", "DomainSpec", "flat_indices"): "grids.derived",
    ("polyspec.grids", "DomainSpec", "coordinate"): "grids.derived",
    ("polyspec.report", "VerificationReport", "save"): "report.save",
}

# per-layer self-time metrics -> the span names they sum
SELF_TIMES = {
    "cli.self_s": ("cli.main",),
    "harness.self_s": ("harness.run", "harness.list"),
    "grids.derived_s": ("grids.derived",),
    "operators.build_s": ("operators.build",),
    "eigensolve.solve_s": ("eigensolve.solve",),
    "identities.commutator_s": ("identities.commutator",),
    "identities.trace_s": ("identities.trace",),
    "identities.interpolation_s": ("identities.interpolation",),
    "identities.gradient_s": ("identities.gradient",),
    "bounds.eval_s": ("bounds.eval",),
    "algebra.fuzz_s": ("algebra.fuzz",),
    "algebra.member_s": ("algebra.member",),
    "report.save_s": ("report.save",),
}
# per-layer call counts -> the span name they count
CALL_COUNTS = {
    "grids.derived_calls": "grids.derived",
    "operators.builds": "operators.build",
    "eigensolve.calls": "eigensolve.solve",
}


class Tracer:
    """Records spans and counts of one pass at a time."""

    def __init__(self):
        self.op = -1
        self.spans = []      # [op, name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        self.saved_paths = []
        from polyspec.algebra import FuzzReport
        from polyspec.bounds import BoundCheck
        self._bound_check = BoundCheck
        self._fuzz_report = FuzzReport

    def reset(self):
        self.spans, self.stack, self.saved_paths = [], [], []
        self.counts = defaultdict(int)

    def _count(self, name, parent, args, result):
        if name == "eigensolve.solve":
            self.counts["eigensolve.rows"] += args[0].dimension
        elif name.startswith("identities."):
            self.counts["identities.rows"] += len(result)
        elif name == "bounds.eval" and (parent < 0 or self.spans[parent][1] != "bounds.eval"):
            rows = result if isinstance(result, list) else [result]
            self.counts["bounds.rows"] += sum(isinstance(r, self._bound_check) for r in rows)
        elif name == "algebra.fuzz" and isinstance(result, self._fuzz_report):
            self.counts["algebra.trials"] += result.trials
        elif name == "report.save":
            self.saved_paths.extend(result)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [self.op, name, perf_counter(), 0.0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            self._count(name, parent, args, result)
            return result

        return traced

    def install(self):
        """Wrap every listed function and method; returns the undo function."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "polyspec" or n.startswith("polyspec.")]
        for (module_name, attr), name in FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        for (module_name, cls_name, attr), name in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                wrapper = property(self.wrap(name, original.fget), doc=original.__doc__)
            else:
                wrapper = self.wrap(name, original)
            setattr(cls, attr, wrapper)
            undo.append((cls, attr, original))

        def uninstall():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)
        return uninstall

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        self_time = defaultdict(float)
        calls = defaultdict(int)
        run_s = 0.0
        for span, covered in zip(self.spans, child):
            duration = span[3] - span[2]
            self_time[span[1]] += duration - covered
            calls[span[1]] += 1
            if span[1] == "harness.run":
                run_s += duration
        out = {metric: sum(self_time[n] for n in names)
               for metric, names in SELF_TIMES.items()}
        out["harness.run_s"] = run_s
        out.update({metric: calls[n] for metric, n in CALL_COUNTS.items()})
        for key in ("eigensolve.rows", "identities.rows", "bounds.rows", "algebra.trials"):
            out[key] = self.counts[key]
        out["self_total_s"] = sum(self_time.values())
        return out
