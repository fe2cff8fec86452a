"""The names the benchmark in perfbench/ wraps or calls still exist.

perfbench's tracer wraps engine functions by (owner, attribute) and times
``federation._Setup``, and its logreg workloads read a run's result; a
renamed hook or a dropped result field would otherwise show only when a
benchmark run fails.
"""

import math
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import TRACE_TARGETS, WORKLOADS  # noqa: E402

from cyber0 import federation  # noqa: E402


def test_every_trace_target_resolves():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
               for owner, attr, span in TRACE_TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_setup_builds_the_theory_workload_config():
    cfg = WORKLOADS["theory_quad"].config(ROOT, seed=0)
    setup = federation._Setup(cfg)
    assert setup.d == cfg.quad_dim


def test_logreg_workload_reads_the_run_result():
    # final_train_loss, final_test_acc and an integer logs[-1].wall_ms
    wl = WORKLOADS["mnist_logreg"]
    cfg = federation.ExperimentConfig(synth_samples=240, clients=4, k=4, steps=2)
    unit = wl.run_unit(cfg, lambda name: nullcontext())
    assert isinstance(unit.output.logs[-1].wall_ms, int)
    ref = wl.reference(cfg)
    assert all(math.isfinite(value) for value in ref.values())
    assert wl.check(cfg, unit, ref) == []
