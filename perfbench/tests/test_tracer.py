"""Tests of the benchmark's span tracer: self-time arithmetic on hand-built
span trees, nesting checks, and wrapping and restoring of targets.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, TraceError, is_wrapped, self_times  # noqa: E402


def _tree(*spans):
    start, end, parent = (np.array(col, dtype=np.int64) for col in zip(*spans))
    return start, end, parent


def test_self_time_subtracts_direct_children_only():
    #   0 root [0, 100]
    #   1   a  [10, 40]
    #   2     leaf [15, 25]
    #   3   b  [50, 90]
    start, end, parent = _tree((0, 100, -1), (10, 40, 0), (15, 25, 1), (50, 90, 0))
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_self_time_of_separate_roots_and_empty_spans():
    start, end, parent = _tree((0, 5, -1), (5, 5, 0), (7, 19, -1))
    assert self_times(start, end, parent).tolist() == [5, 0, 12]


def test_child_outside_parent_is_rejected():
    start, end, parent = _tree((0, 10, -1), (5, 12, 0))
    with pytest.raises(TraceError, match="outside its parent"):
        self_times(start, end, parent)


def test_overlapping_children_are_rejected():
    start, end, parent = _tree((0, 10, -1), (0, 8, 0), (2, 10, 0))
    with pytest.raises(TraceError, match="negative"):
        self_times(start, end, parent)


def test_span_ending_before_start_is_rejected():
    start, end, parent = _tree((5, 4, -1))
    with pytest.raises(TraceError, match="ends before"):
        self_times(start, end, parent)


def _engine():
    mod = types.ModuleType("fake_engine")

    def leaf(x):
        return x + 1

    def step(x):
        return mod.leaf(mod.leaf(x))

    class Model:
        def eval(self, x):
            return mod.step(x)

    mod.leaf, mod.step, mod.Model = leaf, step, Model
    return mod


def test_wrappers_record_nested_spans_under_a_root_and_restore():
    mod = _engine()
    originals = (mod.leaf, mod.step, mod.Model.__dict__["eval"])
    tracer = Tracer([(mod, "leaf", "leaf"), (mod, "step", "step"), (mod.Model, "eval", "eval")])
    tracer.install()
    try:
        assert is_wrapped(mod, "leaf") and is_wrapped(mod.Model, "eval")
        assert mod.Model().eval(1) == 3  # outside a root: nothing recorded
        assert len(tracer.name) == 0
        tracer.run_id = 7
        with tracer.span("root"):
            assert mod.Model().eval(1) == 3
    finally:
        tracer.restore()
    assert (mod.leaf, mod.step, mod.Model.__dict__["eval"]) == originals
    assert not is_wrapped(mod, "leaf")

    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == ["root", "eval", "step", "leaf", "leaf"]
    assert spans["parent"].tolist() == [-1, 0, 1, 2, 2]
    assert set(spans["run"].tolist()) == {7}
    own = self_times(spans["start"], spans["end"], spans["parent"])
    dur = spans["end"] - spans["start"]
    assert np.all(own >= 0)
    assert own[2] == dur[2] - dur[3] - dur[4]


def test_missing_target_fails_before_anything_is_wrapped():
    mod = _engine()
    with pytest.raises(TraceError, match="fake_engine.renamed"):
        Tracer([(mod, "leaf", "leaf"), (mod, "renamed", "x")])
    assert not is_wrapped(mod, "leaf")


def test_wrapping_twice_is_rejected():
    mod = _engine()
    first = Tracer([(mod, "leaf", "leaf")])
    first.install()
    try:
        with pytest.raises(TraceError, match="already wrapped"):
            Tracer([(mod, "leaf", "leaf")]).install()
    finally:
        first.restore()
