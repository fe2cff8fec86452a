"""Round engines: seed-replay zero-order training with E local epochs,
first-order baselines, the experiment config schema, and communication
accounting. Clients' batches come from ``data.ClientData``; a config
file's text format lives in ``cli``.

One round: honest clients compute E*k coefficients on seeded batches, the
adversary substitutes the Byzantine reports with oracle access to the
honest values, the federator trims per direction, and every replica
replays the aggregated coefficients through the same seeds.
Everything is a pure function of the config: reruns produce byte-identical
logs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adversary import AttackKind, AttackSpec, adversary_seed, byzantine_value
from .core import project_ball
from .data import ClientData, Dataset, load_mnist, partition_iid, partition_noniid, synth_generate
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
    debug_replicas: bool = False

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
        return 785 * 10
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

    def batches_for_step(self) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """One step's batch of every computing client, indexed by client id
        (None for the others, and for every client of the quadratic)."""
        if self.data is None:
            return [None] * self.config.clients
        return self.data.batches(self.computing)

    def train_loss(self, w: np.ndarray, batches) -> float:
        losses = [self.model.eval(w, batches[i]) for i in self.honest]
        return float(np.mean(losses))

    def test_acc(self, w: np.ndarray) -> float:
        if self.test is None:
            return float("nan")
        return self.model.accuracy(w, self.test.features, self.test.labels)


def _map_clients(worker, clients: np.ndarray) -> np.ndarray:
    """Every client's work row, stacked in client order."""
    return np.array([worker(i) for i in clients])


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
    directions fit ``WINDOW_VALUES`` doubles (at least one round), so a
    theory round at d = 16 shares a window with 255 others while an
    MNIST-sized round has its own. Directions depend on the seeds alone,
    so the window changes speed and memory only, never the run. Each
    epoch's (k, d) slice is laid out once by ``prepare_variants`` into a
    per-run buffer. Every client evaluates its bracket losses against that
    shared layout at its own w: the synchronized w in epoch 0, its locally
    drifted copy after that. The same block feeds the mu = 0 projection and
    the replay."""
    setup = _Setup(config)
    E, k, d = config.local_epochs, config.k, setup.d
    scale, denom = setup.scale, 2.0 * config.mu
    replicas = _make_replicas(setup) if config.debug_replicas else None
    logs: list[RoundLog] = []
    started = time.monotonic()
    window = max(1, min(config.steps, WINDOW_VALUES // (E * k * d)))
    dirs = np.empty((window, E, k, d))
    layouts = [None] * E
    # the quadratic is data-free: every client starts from the synchronized
    # w with no batch, so one client's coefficient row broadcasts to all
    workers = setup.computing if setup.data is not None else setup.computing[:1]

    for t in range(config.steps):
        if t % window == 0:
            n = min(window, config.steps - t)
            seeds = direction_seed(config.root_seed, np.arange(t, t + n)[:, None, None],
                                   np.arange(k), np.arange(E)[:, None])
            make_direction(seeds.reshape(-1), d, setup.direction_mode, out=dirs[:n].reshape(-1, d))
        step_dirs = dirs[t % window]
        epoch_batches = [setup.batches_for_step() for _ in range(E)]
        do_log = _should_log(config, t)
        tr_loss = setup.train_loss(setup.w, epoch_batches[0]) if do_log else float("nan")
        if not config.mu_zero:
            for e in range(E):
                layouts[e] = setup.model.prepare_variants(step_dirs[e], layouts[e])

        def coefficients(w: np.ndarray, e: int, batch) -> np.ndarray:
            if config.mu_zero:
                return scale * (step_dirs[e] @ setup.model.grad(w, batch))
            plus, minus = setup.model.loss_batch_multi(layouts[e], batch, w, config.mu)
            plus -= minus  # scale * (plus - minus) / (2 mu), in place
            plus *= scale
            plus /= denom
            return plus

        def worker(i: int) -> np.ndarray:
            first = coefficients(setup.w, 0, epoch_batches[0][i])
            if E == 1:
                return first
            coeffs = np.empty((E, k))
            coeffs[0] = first
            local = setup.w.copy()  # local drift never touches the synchronized w
            for e in range(1, E):
                apply_update(local, coeffs[e - 1], step_dirs[e - 1], config.eta, t)
                coeffs[e] = coefficients(local, e, epoch_batches[e][i])
            return coeffs.reshape(-1)

        matrix = np.zeros((config.clients, E * k))
        matrix[setup.computing] = _map_clients(worker, workers)
        _check_finite(matrix, t, setup.computing)
        _substitute_byzantine(setup, matrix, t)
        agg = robust_direction_aggregate(matrix, config.beta)
        _replay(setup, setup.w, agg, step_dirs, t)
        if config.project_radius > 0:
            setup.w = _project(setup.w, config.project_radius, t)
        if replicas is not None:
            _advance_replicas(setup, replicas, agg, step_dirs, t)
        _finish_round(setup, logs, t, tr_loss, started, do_log)
    return RunResult(config, logs, setup.w)


def _make_replicas(setup: _Setup) -> dict[str, np.ndarray]:
    reps = {f"client{i}": setup.w.copy() for i in setup.honest}
    reps["federator"] = setup.w.copy()
    return reps


def _replay(setup: _Setup, w: np.ndarray, agg: np.ndarray, dirs, t: int) -> None:
    """Apply the step's E*k aggregated coefficients to w, epoch by epoch."""
    k = setup.config.k
    for e, dirs_e in enumerate(dirs):
        apply_update(w, agg[e * k : (e + 1) * k], dirs_e, setup.config.eta, t)


def _advance_replicas(setup, replicas: dict[str, np.ndarray], agg, dirs, t: int) -> None:
    """Debug mode: every replica replays the same updates; states must stay
    bit-identical to the canonical model."""
    cfg = setup.config
    for name, w in replicas.items():
        _replay(setup, w, agg, dirs, t)
        if cfg.project_radius > 0:
            replicas[name] = project_ball(w, cfg.project_radius)
    for name, w in replicas.items():
        if not np.array_equal(w, setup.w):
            raise AssertionError(f"replica {name} diverged from the canonical state at step {t}")


def _run_first_order(config: ExperimentConfig) -> RunResult:
    """Clients upload full d-dimensional batch gradients; the federator
    averages them (fedavg) or takes their coordinate-wise trimmed mean."""
    setup = _Setup(config)
    logs: list[RoundLog] = []
    started = time.monotonic()
    beta = config.beta if config.algorithm == "coordwise_tm" else 0.0

    for t in range(config.steps):
        batches = setup.batches_for_step()
        do_log = _should_log(config, t)
        tr_loss = setup.train_loss(setup.w, batches) if do_log else float("nan")

        def worker(i: int) -> np.ndarray:
            return setup.model.grad(setup.w, batches[i])

        grads = np.zeros((config.clients, setup.d))
        grads[setup.computing] = _map_clients(worker, setup.computing)
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
