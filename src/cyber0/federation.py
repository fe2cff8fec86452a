"""Round engines: seed-replay zero-order training with E local epochs,
first-order baselines, the experiment config schema, and communication
accounting. Clients' batches come from ``data.ClientData``; a config
file's text format lives in ``cli``.

One round: honest clients compute E*k coefficients on seeded batches, the
adversary substitutes the Byzantine reports with oracle access to the
honest values, the federator trims per direction, and w replays the
aggregated coefficients along the directions regenerated from the seeds.
Everything is a pure function of the config: reruns produce byte-identical
logs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adversary import AttackKind, AttackSpec, adversary_seed, byzantine_value
from .core import project_ball
from .data import (MNIST_CLASSES, MNIST_FEATURES, ClientData, Dataset, load_mnist,
                   partition_iid, partition_noniid, synth_generate)
from .losses import LogisticRegressionModel, QuadraticModel
from .robust import coordwise_trimmed_mean, robust_direction_aggregate
from .seedstream import (
    WINDOW_VALUES,
    DirectionMode,
    SeedTuple,
    StreamKind,
    derive_seed,
    make_direction,
    sphere_direction,
)
from .zo import NonFiniteLossError, apply_update, direction_seed

_CHOICES = {
    "model": ("logreg", "quadratic"),
    "data": ("synth", "mnist"),
    "distribution": ("iid", "noniid"),
    "direction_mode": ("gaussian", "sphere"),
    "algorithm": ("cyber0", "fedavg", "coordwise_tm"),
    "attack": tuple(k.value for k in AttackKind),
    "init": ("zeros", "sphere"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, file-serializable description of one run (defaults: the MNIST
    logistic-regression reference setup: 12 clients, 3 Byzantine capacity,
    beta 0.25, learning rate 0.01, batch 64, 400 steps)."""

    model: str = "logreg"
    quad_lambda: float = 1.0
    quad_dim: int = 16
    data: str = "synth"
    mnist_dir: str = ""
    synth_samples: int = 2400
    synth_features: int = 20
    synth_classes: int = 4
    distribution: str = "iid"
    clients: int = 12
    alpha: float = 0.25
    beta: float = 0.25
    mu: float = 0.001
    mu_zero: bool = False
    k: int = 64
    eta: float = 0.01
    steps: int = 400
    local_epochs: int = 1
    batch_size: int = 64
    full_local_data: bool = False
    direction_mode: str = "gaussian"
    attack: str = "none"
    algorithm: str = "cyber0"
    root_seed: int = 1234
    data_seed: int = 99
    eval_every: int = 1
    init: str = "zeros"
    init_radius: float = 1.0
    project_radius: float = 0.0
    broadcast_model: bool = False

    def __post_init__(self) -> None:
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        # each message starts with the key it blames, so a config parse
        # error can point at that key's line
        for name in ("clients", "k", "steps", "local_epochs", "batch_size", "eval_every",
                     "quad_dim", "synth_samples", "synth_features"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.synth_classes < 2:
            raise ValueError(f"synth_classes must be >= 2, got {self.synth_classes}")
        for name in ("quad_lambda", "eta"):  # also rejects nan and inf
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        for name in ("init_radius", "project_radius"):  # project_radius 0: unconstrained
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if not 0.0 <= self.alpha < 0.5:
            raise ValueError("alpha must satisfy 0 <= alpha < 1/2")
        if not 0.0 <= self.beta < 0.5:
            raise ValueError("beta must satisfy 0 <= beta < 1/2")
        if self.clients - 2 * int(np.floor(self.beta * self.clients)) < 1:
            raise ValueError(f"beta = {self.beta!r} leaves no survivors among {self.clients} clients")
        if self.mu_zero and self.mu != 0.0:
            raise ValueError(f"mu_zero = true requires mu = 0, got mu = {self.mu!r}")
        if not self.mu_zero and not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu = {self.mu!r} requires 0 < mu < inf, or 0 with mu_zero = true")
        for name in ("root_seed", "data_seed"):
            if not 0 <= getattr(self, name) < 2**64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer")
        kind = AttackKind(self.attack)
        if self.algorithm != "cyber0":
            if kind.substitutes_coefficients:
                raise ValueError(f"attack {self.attack!r} targets coefficient reports; "
                                 f"{self.algorithm} baselines only support none/label_flip")
            if self.local_epochs != 1:
                raise ValueError("local_epochs > 1 is only defined for the cyber0 algorithm")


@dataclass
class RoundLog:
    step: int
    train_loss: float
    test_acc: float
    uplink_scalars: int
    downlink_scalars: int
    wall_ms: int


@dataclass
class RunResult:
    config: ExperimentConfig
    logs: list[RoundLog]
    final_w: np.ndarray

    @property
    def final_test_acc(self) -> float:
        return self.logs[-1].test_acc

    @property
    def final_train_loss(self) -> float:
        return self.logs[-1].train_loss


def comm_cost(config: ExperimentConfig, t: int) -> tuple[int, int]:
    """Cumulative per-client (uplink, downlink) scalar counts after t rounds.

    CyBeR-0 uplink is E*k per round, independent of d; the downlink counts
    the broadcast coefficients plus the one-time seed and initial model.
    First-order baselines move full d-vectors both ways.
    """
    if t <= 0:
        return 0, 0
    d = model_dimension(config)
    if config.algorithm == "cyber0":
        per_round = config.local_epochs * config.k
        down_per_round = d if config.broadcast_model else per_round
        return t * per_round, d + 1 + t * down_per_round
    return t * d, d + t * d


def model_dimension(config: ExperimentConfig) -> int:
    if config.model == "quadratic":
        return config.quad_dim
    if config.data == "mnist":
        return (MNIST_FEATURES + 1) * MNIST_CLASSES
    return (config.synth_features + 1) * config.synth_classes


class _Setup:
    """Everything a run needs, built deterministically from the config."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.attack = AttackSpec.build(AttackKind(config.attack), config.clients, config.alpha)
        self.byz = sorted(self.attack.byzantine_ids)
        self.honest = [i for i in range(config.clients) if i not in self.attack.byzantine_ids]

        self.data: ClientData | None = None
        self.test: Dataset | None = None  # both stay None for the data-free quadratic
        if config.model == "quadratic":
            self.model = QuadraticModel(config.quad_lambda, np.zeros(config.quad_dim))
        else:
            if config.data == "mnist":
                train, self.test = load_mnist(config.mnist_dir)
            else:
                train = synth_generate(
                    config.data_seed, config.synth_samples, config.synth_features,
                    config.synth_classes, split=0,
                )
                self.test = synth_generate(
                    config.data_seed, max(config.synth_samples // 4, config.synth_classes),
                    config.synth_features, config.synth_classes, split=1,
                )
            self.model = LogisticRegressionModel(train.features.shape[1], train.num_classes)
            part = (
                partition_iid(train, config.clients, config.data_seed)
                if config.distribution == "iid"
                else partition_noniid(train, config.clients, config.data_seed)
            )
            flipped = self.byz if self.attack.kind == AttackKind.LABEL_FLIPPING else ()
            self.data = ClientData(train, part.shards, config.batch_size, config.data_seed,
                                   config.full_local_data, flipped)

        self.d = self.model.dimension
        sphere = config.direction_mode == "sphere"
        self.direction_mode = DirectionMode.SPHERE if sphere else DirectionMode.GAUSSIAN
        # the coefficient's factor c: sphere directions need the dimension,
        # Gaussian ones do not
        self.scale = float(self.d) if sphere else 1.0
        self.w = self._initial_w()
        # indices of the clients that actually execute the protocol this run
        if self.attack.kind.substitutes_coefficients:
            self.computing = np.array(self.honest, dtype=np.intp)
        else:
            self.computing = np.arange(config.clients)

    def _initial_w(self) -> np.ndarray:
        if self.config.init == "zeros":
            return np.zeros(self.d)
        seed = derive_seed(SeedTuple(self.config.root_seed, 2, 0, 0, StreamKind.INIT))
        return self.config.init_radius * sphere_direction(seed, self.d)

    def gather(self, rows: slice):
        """``ClientData.gather`` of the computing clients ``rows``; the
        quadratic's one computing client gets no batch."""
        return (None, [1], [None]) if self.data is None else self.data.gather(self.computing[rows])

    def train_loss(self, w: np.ndarray, losses: dict) -> float:
        """Mean over the honest clients of their loss at w: ``losses`` holds
        those already computed, by client id, and any other is evaluated
        here without a batch (every client of the data-free quadratic)."""
        return float(np.mean([losses[i] if i in losses else self.model.eval(w, None)
                              for i in self.honest]))

    def test_acc(self, w: np.ndarray) -> float:
        if self.test is None:
            return float("nan")
        return self.model.accuracy(w, self.test.features, self.test.labels)


def _map_clients(setup: _Setup, groups: list[slice], ws: np.ndarray, layout, dirs: np.ndarray,
                 losses: dict | None, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with one epoch's (n, k) coefficient block of the first n
    computing clients, each at its row of ``ws``: one gather and one kernel
    call per group of rows, so one group's batch is alive at a time.
    ``losses``, in epoch 0 of a logged round, gets each honest client's
    loss at setup.w."""
    cfg, model = setup.config, setup.model
    for rows in groups:
        batch, counts, views = setup.gather(rows)
        if losses is not None and batch is not None:
            losses.update((i, model.eval(setup.w, view))
                          for i, view in zip(setup.computing[rows], views) if i in setup.honest)
        if cfg.mu_zero:
            out[rows] = [setup.scale * (dirs @ model.grad(w, v)) for w, v in zip(ws[rows], views)]
            continue
        plus, minus = model.loss_batch_multi(layout, batch, counts, ws[rows], cfg.mu)
        coeffs = np.subtract(plus, minus, out=out[rows])  # scale * (plus - minus) / (2 mu)
        coeffs *= setup.scale
        coeffs /= 2.0 * cfg.mu
    return out


def _substitute_byzantine(setup: _Setup, matrix: np.ndarray, step: int) -> None:
    """Overwrite every Byzantine row with the colluding row that one oracle
    call computes from the step's whole honest block (oracle ordering: all
    honest values are in first). Column e*k + r holds epoch e, direction r,
    and random_choice draws from that column's adversary seed (step, r, e)."""
    cfg = setup.config
    kind = setup.attack.kind
    if not kind.substitutes_coefficients or not setup.byz:
        return
    rc_seeds = None
    if kind == AttackKind.RANDOM_CHOICE:
        rc_seeds = adversary_seed(cfg.root_seed, step, np.arange(cfg.k),
                                  np.arange(cfg.local_epochs)[:, None]).reshape(-1)
    matrix[setup.byz] = byzantine_value(kind, matrix[setup.honest], cfg.beta, cfg.clients, rc_seeds)


def _check_finite(matrix: np.ndarray, step: int, clients: np.ndarray) -> None:
    """Raise NonFiniteLossError naming the step, direction and client of the
    first non-finite coefficient of the computing ``clients``' rows.

    Rows of clients that do not compute are still zeros here, so one
    isfinite over the whole matrix decides; the first bad entry is searched
    for only when that check fails."""
    if np.isfinite(matrix).all():
        return
    row, col = np.argwhere(~np.isfinite(matrix[clients]))[0]
    raise NonFiniteLossError(
        f"non-finite coefficient at step {step}, direction {col}, client {clients[row]}",
        step=step, direction=int(col), client=int(clients[row]),
    )


def _project(w: np.ndarray, radius: float, step: int) -> np.ndarray:
    """``project_ball`` of the step's updated w; a w that the update drove
    to inf or nan is a diverged run, not a bad input."""
    if not np.isfinite(w).all():
        raise NonFiniteLossError(f"non-finite parameters at step {step}", step=step)
    return project_ball(w, radius)


def _finish_round(setup, logs, t, tr_loss, started, do_log):
    if do_log:
        acc = setup.test_acc(setup.w)
        if not np.isfinite(tr_loss):
            raise NonFiniteLossError(f"non-finite train loss at step {t}", step=t)
        up, down = comm_cost(setup.config, t + 1)
        logs.append(RoundLog(
            step=t + 1,
            train_loss=tr_loss,
            test_acc=acc,
            uplink_scalars=up,
            downlink_scalars=down,
            wall_ms=int((time.monotonic() - started) * 1000),
        ))


def _should_log(config: ExperimentConfig, t: int) -> bool:
    return (t + 1) % config.eval_every == 0 or t == config.steps - 1


def run_cyber0(config: ExperimentConfig) -> RunResult:
    """Seed-replay zero-order training: each client runs E local epochs of
    k directions per step and uploads the E*k coefficients.

    Directions are generated a window of W rounds at a time into one
    (W, E, k, d) block allocated once per run, with one ``direction_seed``
    call over the window's (step, epoch, sample) grid and one
    ``make_direction`` call; W is the largest count of rounds whose
    directions fit ``WINDOW_VALUES`` doubles, at least one (256 theory
    rounds at d = 16 share a window, an MNIST-sized round has its own).
    The block feeds the mu = 0 projection and the replay. Each epoch's
    (k, d) slice is laid out by ``prepare_variants`` into one buffer per
    run, against which the clients are evaluated in row groups of
    ``data.GROUP_VALUES`` doubles: one gather and one X Z product per
    group, then each client's brackets at its own w (setup.w in epoch 0,
    its row of an (n, d) block of drifted copies after that). Both budgets
    set speed and memory, not the run (see GROUP_VALUES for one BLAS caveat)."""
    setup = _Setup(config)
    E, k, d = config.local_epochs, config.k, setup.d
    logs: list[RoundLog] = []
    started = time.monotonic()
    window = max(1, min(config.steps, WINDOW_VALUES // (E * k * d)))
    dirs = np.empty((window, E, k, d))
    layout = None
    # the quadratic is data-free: every client starts from the synchronized
    # w with no batch, so one client's coefficient row broadcasts to all
    groups = ([slice(0, 1)] if setup.data is None
              else setup.data.groups(setup.computing, k * setup.model.num_classes))
    n = groups[-1].stop
    # every client starts a round at setup.w, which is only ever updated in
    # place, so one read-only (n, d) view of it serves every round
    synced = np.broadcast_to(setup.w, (n, d))

    for t in range(config.steps):
        if t % window == 0:
            rounds = min(window, config.steps - t)
            seeds = direction_seed(config.root_seed, np.arange(t, t + rounds)[:, None, None],
                                   np.arange(k), np.arange(E)[:, None])
            make_direction(seeds.reshape(-1), d, setup.direction_mode,
                           out=dirs[:rounds].reshape(-1, d))
        step_dirs = dirs[t % window]
        do_log = _should_log(config, t)
        losses = {} if do_log else None
        coeffs = np.empty((n, E, k))
        ws = synced if E == 1 else synced.copy()  # local drift: a row per client
        for e in range(E):
            if e > 0:
                for j in range(n):
                    apply_update(ws[j], coeffs[j, e - 1], step_dirs[e - 1], config.eta, t)
            if not config.mu_zero:
                layout = setup.model.prepare_variants(step_dirs[e], layout)
            _map_clients(setup, groups, ws, layout, step_dirs[e], losses if e == 0 else None,
                         coeffs[:, e])
        tr_loss = setup.train_loss(setup.w, losses) if do_log else float("nan")

        matrix = np.zeros((config.clients, E * k))
        matrix[setup.computing] = coeffs.reshape(n, E * k)
        _check_finite(matrix, t, setup.computing)
        _substitute_byzantine(setup, matrix, t)
        agg = robust_direction_aggregate(matrix, config.beta)
        for e in range(E):
            apply_update(setup.w, agg[e * k : (e + 1) * k], step_dirs[e], config.eta, t)
        if config.project_radius > 0:
            setup.w[:] = _project(setup.w, config.project_radius, t)
        _finish_round(setup, logs, t, tr_loss, started, do_log)
    return RunResult(config, logs, setup.w)


def _run_first_order(config: ExperimentConfig) -> RunResult:
    """Clients upload full d-dimensional batch gradients; the federator
    averages them (fedavg) or takes their coordinate-wise trimmed mean."""
    setup = _Setup(config)
    logs: list[RoundLog] = []
    started = time.monotonic()
    beta = config.beta if config.algorithm == "coordwise_tm" else 0.0

    for t in range(config.steps):
        batches = dict(zip(setup.computing, setup.gather(slice(None))[2]))
        do_log = _should_log(config, t)
        tr_loss = float("nan")
        if do_log:
            tr_loss = setup.train_loss(setup.w, {i: setup.model.eval(setup.w, batches.get(i))
                                                 for i in setup.honest})
        grads = np.zeros((config.clients, setup.d))
        for i in setup.computing:
            grads[i] = setup.model.grad(setup.w, batches.get(i))
        if not np.all(np.isfinite(grads)):
            raise NonFiniteLossError(f"non-finite gradient at step {t}", step=t)
        agg = coordwise_trimmed_mean(grads, beta)
        setup.w += (-config.eta) * agg
        if config.project_radius > 0:
            setup.w = _project(setup.w, config.project_radius, t)
        _finish_round(setup, logs, t, tr_loss, started, do_log)
    return RunResult(config, logs, setup.w)


def run_experiment(config: ExperimentConfig) -> RunResult:
    if config.algorithm == "cyber0":
        return run_cyber0(config)
    return _run_first_order(config)
