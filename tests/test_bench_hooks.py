"""The names the benchmark in perfbench/ wraps or calls still exist.

perfbench's tracer wraps engine functions by (owner, attribute) and times
``federation._Setup``; a renamed hook would otherwise show only when a
traced benchmark run fails.
"""

import sys
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
