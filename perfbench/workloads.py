"""The benchmark's workloads: configs from the bundled profiles, the timed
unit each run repeats, the correctness gate, and the trace targets.

A workload seed n selects entry n mod POOL of a fixed pool of (root_seed,
data_seed) pairs, so that every seed has reference values recorded from
the seed commit in reference.json (make_reference.py rebuilds them).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import calibrate
from cyber0 import cli, data, federation, losses, verify, zo
from cyber0.federation import ExperimentConfig

POOL = 16
# seeds 0-9 (pool entries 0-9) tuned the benchmark; this one (entry 15) is
# kept for confirming claims
HELD_OUT_SEED = 2015
REL_TOL = 1e-8
FLOOR_LIMIT = 1e-12

# synthetic stand-in for MNIST: 784 features, 10 classes, and enough rows
# that every client shard holds several batches (12 clients: 1000 rows,
# 40 non-IID clients: 300 rows, against batch 64)
_SYNTH = {"data": "synth", "synth_features": 784, "synth_classes": 10, "synth_samples": 12_000}

# (owner, attribute, span name): each name is wrapped in the namespace the
# engine looks it up in at call time. _map_clients is the one private name:
# the logreg kernel runs inside it until it moves into losses.
TRACE_TARGETS = [
    (federation, "make_direction", "seedstream.make_direction"),
    (federation, "direction_seed", "zo.direction_seed"),
    (zo, "direction_seed", "zo.direction_seed"),
    (federation, "apply_update", "zo.apply_update"),
    (federation, "_map_clients", "federation.client_eval"),
    (verify, "run_experiment", "federation.run_experiment"),
    (losses.LogisticRegressionModel, "loss_batch_multi", "losses.loss_batch_multi"),
    (losses.QuadraticModel, "loss_batch_multi", "losses.loss_batch_multi"),
    (losses.LogisticRegressionModel, "eval", "losses.eval"),
    (losses.QuadraticModel, "eval", "losses.eval"),
    (losses.LogisticRegressionModel, "accuracy", "losses.accuracy"),
    (federation, "robust_direction_aggregate", "robust.robust_direction_aggregate"),
    (federation, "byzantine_value", "adversary.byzantine_value"),
    (data.BatchCursor, "next_rows", "data.next_rows"),
    (federation, "synth_generate", "data.synth_generate"),
    (federation, "partition_iid", "data.partition"),
    (federation, "partition_noniid", "data.partition"),
]

# per-layer metric -> (span name, quantity); "ms" is self ms per round,
# "calls" is calls per round, "s" is self seconds per engine run
LAYER_UNITS = {"ms": "ms/round", "calls": "calls/round", "s": "s/run"}
LAYER_METRICS = {
    "seedstream.make_direction.ms": ("seedstream.make_direction", "ms"),
    "seedstream.make_direction.calls": ("seedstream.make_direction", "calls"),
    "zo.direction_seed.calls": ("zo.direction_seed", "calls"),
    "zo.direction_seed.ms": ("zo.direction_seed", "ms"),
    "zo.apply_update.ms": ("zo.apply_update", "ms"),
    "federation.client_eval.ms": ("federation.client_eval", "ms"),
    "federation.self.ms": ("federation.run_experiment", "ms"),
    "losses.loss_batch_multi.ms": ("losses.loss_batch_multi", "ms"),
    "losses.eval.ms": ("losses.eval", "ms"),
    "losses.accuracy.ms": ("losses.accuracy", "ms"),
    "robust.robust_direction_aggregate.ms": ("robust.robust_direction_aggregate", "ms"),
    "adversary.byzantine_value.ms": ("adversary.byzantine_value", "ms"),
    "adversary.byzantine_value.calls": ("adversary.byzantine_value", "calls"),
    "data.next_rows.ms": ("data.next_rows", "ms"),
    "data.synth_generate.s": ("data.synth_generate", "s"),
    "data.partition.s": ("data.partition", "s"),
    "verify.self.ms": ("verify.error_floor", "ms"),
}


@dataclass
class Unit:
    """One timed call and what the correctness gate needs from it."""

    rounds: int
    runs: int
    round_s: float
    setup_s: float
    output: object
    host: float = 1.0  # host factor sampled around the unit
    peak_mb: float = 0.0  # process peak resident memory after the unit

    @property
    def rounds_per_s(self) -> float:
        return self.rounds / self.round_s


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


class TheoryQuad:
    """verify.error_floor on quad_mu_floor.cfg over S root seeds."""

    name = "theory_quad"
    profile = "quad_mu_floor.cfg"
    seeds_per_unit = 1  # S: short units pair closely with their host samples
    check_step = 50
    setup_reps = 64

    def config(self, root: Path, seed: int) -> ExperimentConfig:
        base = cli.load_config(root / "profiles" / self.profile)
        return replace(base, root_seed=base.root_seed + 1000 * (seed % POOL))

    def host_factor(self) -> float:
        # the round is interpreter-bound, so its speed follows the host's
        # interpreter speed, which swings by up to 2x between runs
        return calibrate.host_factor()

    def mean_distance(self, cfg: ExperimentConfig) -> float:
        """Mean ||w - w*|| at check_step across the unit's seeds, recovered
        from the logged loss as error_floor does."""
        dists = []
        for j in range(self.seeds_per_unit):
            result = federation.run_experiment(
                replace(cfg, root_seed=cfg.root_seed + j, steps=self.check_step))
            dists.append(math.sqrt(2.0 * result.final_train_loss / cfg.quad_lambda))
        return sum(dists) / len(dists)

    def setup_seconds(self, cfg: ExperimentConfig) -> float:
        # the quadratic set-up (~0.05 ms) is far below the 1 ms resolution
        # of RoundLog.wall_ms, so the engine's set-up is timed directly
        build = federation._Setup
        times = []
        for _ in range(self.setup_reps):
            t0 = perf_counter()
            build(cfg)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def run_unit(self, cfg: ExperimentConfig, span) -> Unit:
        setup_s = self.setup_seconds(cfg)
        t0 = perf_counter()
        with span("verify.error_floor"):
            floor = verify.error_floor(cfg, self.seeds_per_unit)
        wall = perf_counter() - t0
        return Unit(self.seeds_per_unit * cfg.steps, self.seeds_per_unit, wall, setup_s, floor)

    def check(self, cfg: ExperimentConfig, unit: Unit, ref) -> list[str]:
        errors = []
        # the floor is float64 round-off near w* = 0: bound it, never pin it
        floor = unit.output
        if not (math.isfinite(floor) and 0.0 <= floor < FLOOR_LIMIT):
            errors.append(f"floor {floor!r} is not below {FLOOR_LIMIT}")
        got = self.mean_distance(cfg)
        if not _close(got, ref["mean_distance"]):
            errors.append(f"mean distance at step {self.check_step} is {got!r}, "
                          f"reference {ref['mean_distance']!r}")
        return errors

    def reference(self, cfg: ExperimentConfig) -> dict:
        return {"mean_distance": self.mean_distance(cfg)}


class Logreg:
    """federation.run_experiment on an MNIST-shaped profile with synthetic data."""

    def __init__(self, name: str, profile: str, steps: int):
        self.name = name
        self.profile = profile
        self.steps = steps

    def host_factor(self) -> float:
        # raw timings: these rounds swing far less with the host than any
        # calibration kernel tried (log-log slope 0.4 against a kernel mixing
        # BLAS and interpreter work), so scaling by one would add noise
        return 1.0

    def config(self, root: Path, seed: int) -> ExperimentConfig:
        base = cli.load_config(root / "profiles" / self.profile)
        idx = seed % POOL
        return replace(base, **_SYNTH, steps=self.steps,
                       root_seed=base.root_seed + 1000 * idx, data_seed=base.data_seed + idx)

    def run_unit(self, cfg: ExperimentConfig, span) -> Unit:
        t0 = perf_counter()
        with span("federation.run_experiment"):
            result = federation.run_experiment(cfg)
        wall = perf_counter() - t0
        # the engine's clock starts after set-up, so the rest is set-up
        round_s = result.logs[-1].wall_ms / 1000.0
        return Unit(cfg.steps, 1, round_s, wall - round_s, result)

    def check(self, cfg: ExperimentConfig, unit: Unit, ref) -> list[str]:
        logs = unit.output.logs
        errors = [f"non-finite train_loss at step {log.step}"
                  for log in logs if not math.isfinite(log.train_loss)]
        if logs[-1].step != cfg.steps:
            errors.append(f"last logged step is {logs[-1].step}, expected {cfg.steps}")
        for key in ("train_loss", "test_acc"):
            got = getattr(logs[-1], key)
            if not _close(got, ref[key]):
                errors.append(f"final {key} is {got!r}, reference {ref[key]!r}")
        return errors

    def reference(self, cfg: ExperimentConfig) -> dict:
        result = federation.run_experiment(cfg)
        return {"train_loss": result.final_train_loss, "test_acc": result.final_test_acc}


WORKLOADS = {
    w.name: w
    for w in (
        TheoryQuad(),
        Logreg("mnist_logreg", "mnist_iid_k64.cfg", steps=30),
        Logreg("byz_m40", "mnist_m40_fullknowledge.cfg", steps=25),
    )
}
