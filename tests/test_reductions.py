"""verify sums grid vectors without numpy's BLAS.

numpy and scipy each load their own OpenBLAS, each with its own thread
pool. A threaded numpy ddot between scipy's LU and ARPACK calls makes the
two pools compete for the cores, so every dot product and norm of a grid
vector on the verify path is one grids.euclidean_dot sum. These tests pin
that, and pin that the reports it gives match the np.dot ones.
"""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polyspec.grids import DomainSpec
from polyspec.harness import RunConfig, run
from references import blas_reductions

ROOT = Path(__file__).resolve().parents[1]
# the BLAS reductions a source line may not name: np.dot, np.vdot, np.inner,
# ndarray.dot, and np.linalg.norm without an axis
BLAS_REDUCTION = re.compile(r"np\.(dot|vdot|inner)\(|\.dot\(|linalg\.norm\([^,)]*\)")
# observed values of identity rows may move at rounding level only
ROUNDING = 1e-13


def small_cases():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.SMALL_CASES


@pytest.fixture
def blas_calls(monkeypatch):
    """Records np.dot, np.vdot, np.inner and axis-free np.linalg.norm calls
    made directly from a polyspec module."""
    calls = []

    def record(owner, name, axis_free_only=False):
        original = getattr(owner, name)

        def recorder(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            axis = kwargs.get("axis", args[2] if len(args) > 2 else None)
            if caller.split(".")[0] == "polyspec" and not (axis_free_only and axis is not None):
                calls.append(f"{name} from {caller}")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorder)

    for name in ("dot", "vdot", "inner"):
        record(np, name)
    record(np.linalg, "norm", axis_free_only=True)
    return calls


@pytest.mark.parametrize("shape,points,l", [("box", (14, 14, 14), 1), ("interval", (999,), 2)],
                         ids=["split-box-14-l1", "rod-999-l2"])
def test_verify_makes_no_numpy_blas_call(blas_calls, block_count, shape, points, l):
    """No np.dot, np.vdot, np.inner or axis-free np.linalg.norm from polyspec.

    Only module functions can be patched: ndarray.dot and @ on two dense
    vectors reach the same BLAS ddot unseen here. The source scan below
    catches .dot( by name; @ between dense vectors it cannot tell from @ on
    a sparse matrix, so that stays a review rule.
    """
    spec = DomainSpec.with_points(shape, [1.0] * len(points), points, l=l)
    report = run(RunConfig(domain=spec, k=5))
    assert report.passed
    if shape == "box":
        assert len(block_count) == 4        # the cube split into its 4 classes
    assert blas_calls == []


def test_sources_name_no_blas_reduction():
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted((ROOT / "src" / "polyspec").glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if BLAS_REDUCTION.search(line)]
    assert hits == []


@pytest.mark.parametrize("case", small_cases(), ids=lambda case: case.name)
def test_reports_match_blas_reference(case):
    # spectrum, bound and oracle rows and the verdict are exact; identity rows
    # keep their flags, their observed values move at rounding level only
    # (their deviations are differences of nearly equal numbers, so not those)
    for seed in (0, 1, 2):
        config = RunConfig.from_dict(case.config(seed))
        body = run(config).body_dict()
        with blas_reductions():
            reference = run(config).body_dict()
        identity, reference_identity = body.pop("identity_rows"), reference.pop("identity_rows")
        assert body == reference
        assert [row["name"] for row in identity] == [row["name"] for row in reference_identity]
        for row, ref in zip(identity, reference_identity):
            assert row["passed"] == ref["passed"], row["name"]
            for key in ("observed", "reference"):
                assert math.isclose(row[key], ref[key], rel_tol=ROUNDING, abs_tol=1e-300), \
                    (row["name"], key, row[key], ref[key])


# the interpolation rows of a 12000-point rod, whose vectors are long enough
# for numpy's ddot to split the sum over its threads
ROD_ROWS = """
import json
from polyspec.grids import DomainSpec
from polyspec.harness import RunConfig, run
spec = DomainSpec.with_points("interval", [1.0], [12000], l=2)
report = run(RunConfig(domain=spec, k=2, checks=("interpolation",)))
print(json.dumps(report.identity_rows))
"""


def test_identity_rows_do_not_depend_on_blas_threads():
    # L amplifies the rounding of the normalization in <L u, u>, so np.dot,
    # whose order follows OpenBLAS's thread count, gave rows that changed with it
    rows = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", ROD_ROWS], env=env, capture_output=True,
                             text=True, check=True, timeout=300)
        rows.append(json.loads(out.stdout))
    assert rows[0] == rows[1]
