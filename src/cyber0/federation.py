"""The round engine of seed-replay zero-order training with E local epochs
and of the first-order baselines, the experiment config schema,
communication accounting and the ball projection. Clients' batches come
from ``data.ClientData``; a config file's text format lives in ``cli``.

One round: honest clients compute E*k coefficients on seeded batches, the
adversary substitutes the Byzantine reports with oracle access to the
honest values, the federator trims per direction, and w replays the
aggregated coefficients along the directions regenerated from the seeds.
A first-order baseline runs the same round with E = 1 and no directions:
clients report d-vector gradients, trimmed per coordinate.
Clients 0..h-1 are honest and the Byzantine ones are the suffix h..m-1, so
the round's report matrix is filled and read by slices of two counts. The
data-free quadratic's one report row stands for every client and is the
round's aggregate as it is, under any attack: a colluding row is an order
statistic of copies of it, so it is that row, and the trimmed mean of m
copies of a finite row is that row. No matrix is built.
Everything is a pure function of the config: reruns produce byte-identical
logs.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .adversary import AttackKind, byzantine_value
from .data import ClientData, Dataset, load_mnist, partition_iid, partition_noniid, synth_generate
from .losses import LogisticRegressionModel, QuadraticModel
from .robust import coordwise_trimmed_mean as robust_direction_aggregate
from .seedstream import (
    WINDOW_VALUES,
    DirectionMode,
    StreamKind,
    derive_seed,
    derive_seeds,
    make_direction,
    sphere_direction,
)
from .zo import NonFiniteLossError, all_finite, apply_update, direction_seed

_CHOICES = {
    "model": ("logreg", "quadratic"),
    "data": ("synth", "mnist"),
    "distribution": ("iid", "noniid"),
    "direction_mode": ("gaussian", "sphere"),
    "algorithm": ("cyber0", "fedavg", "coordwise_tm"),
    "attack": tuple(k.value for k in AttackKind),
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
    k: int = 64
    eta: float = 0.01
    steps: int = 400
    local_epochs: int = 1
    batch_size: int = 64
    direction_mode: str = "gaussian"
    attack: str = "none"
    algorithm: str = "cyber0"
    root_seed: int = 1234
    data_seed: int = 99
    eval_every: int = 1
    init_radius: float = 0.0
    project_radius: float = 0.0

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
        # 0 is a mode of each: mu 0 projects the exact gradient, init_radius 0
        # starts at the origin, project_radius 0 leaves w unconstrained
        for name in ("mu", "init_radius", "project_radius"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if not 0.0 <= self.alpha < 0.5:
            raise ValueError("alpha must satisfy 0 <= alpha < 1/2")
        if not 0.0 <= self.beta < 0.5:
            raise ValueError("beta must satisfy 0 <= beta < 1/2")
        if self.clients - 2 * int(np.floor(self.beta * self.clients)) < 1:
            raise ValueError(f"beta = {self.beta!r} leaves no survivors among {self.clients} clients")
        # a config line ends at '#' and at a line break and is stripped, so
        # only a path without them reruns from the manifest's config lines
        path = self.mnist_dir
        if "#" in path or path != path.strip() or len(path.splitlines()) > 1:
            raise ValueError(f"mnist_dir must not hold '#', a line break or leading or "
                             f"trailing whitespace, got {path!r}")
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
    logs: list[RoundLog]
    final_w: np.ndarray

    @property
    def final_test_acc(self) -> float:
        return self.logs[-1].test_acc

    @property
    def final_train_loss(self) -> float:
        return self.logs[-1].train_loss


@dataclass(frozen=True)
class RoundRecord:
    """Round ``step`` as ``run_experiment``'s ``record`` sees it once w is
    updated: the computing clients' (n, E * width) ``reports`` before
    Byzantine substitution (n = 1 on the data-free quadratic) and the
    (E * width,) ``aggregate`` that w replayed or a baseline stepped by."""

    step: int
    reports: np.ndarray
    aggregate: np.ndarray


def comm_cost(config: ExperimentConfig, d: int, t: int) -> tuple[int, int]:
    """Cumulative per-client (uplink, downlink) scalar counts after t rounds
    of training a model of dimension d.

    CyBeR-0 moves E*k coefficients per round each way, independent of d;
    the downlink also counts the one-time seed and initial model.
    First-order baselines move full d-vectors both ways.
    """
    if t <= 0:
        return 0, 0
    if config.algorithm == "cyber0":
        per_round = config.local_epochs * config.k
        return t * per_round, d + 1 + t * per_round
    return t * d, d + t * d


class _Setup:
    """Everything a run needs, built deterministically from the config."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.attack = AttackKind(config.attack)
        # clients 0..honest-1 are honest and the last floor(alpha m) Byzantine;
        # 0..computing-1 compute: all m, or only the honest under a coefficient attack
        self.honest = config.clients - int(np.floor(config.alpha * config.clients))
        self.computing = self.honest if self.attack.substitutes_coefficients else config.clients

        self.data: ClientData | None = None
        self.test: Dataset | None = None  # both stay None for the data-free quadratic
        if config.model == "quadratic":
            self.model = QuadraticModel(config.quad_lambda, config.quad_dim)
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
            shards = (
                partition_iid(train, config.clients, config.data_seed)
                if config.distribution == "iid"
                else partition_noniid(train, config.clients, config.data_seed)
            )
            flipped = (range(self.honest, config.clients)
                       if self.attack == AttackKind.LABEL_FLIPPING else ())
            self.data = ClientData(train, shards, config.batch_size, config.data_seed,
                                   flipped)

        self.d = self.model.dimension
        sphere = config.direction_mode == "sphere"
        self.direction_mode = DirectionMode.SPHERE if sphere else DirectionMode.GAUSSIAN
        # the coefficient's factor c: sphere directions need the dimension,
        # Gaussian ones do not
        self.scale = float(self.d) if sphere else 1.0
        self.w = self._initial_w()

    def _initial_w(self) -> np.ndarray:
        if self.config.init_radius == 0:
            return np.zeros(self.d)
        seed = derive_seed(self.config.root_seed, 2, 0, 0, StreamKind.INIT)
        return self.config.init_radius * sphere_direction(seed, self.d)

    def gather(self, rows: slice):
        """``ClientData.gather`` of the computing clients ``rows``; the
        quadratic's one computing client gets no batch."""
        if self.data is None:
            return None, (1,), (None,)  # a constant: no allocation per round
        return self.data.gather(range(self.computing)[rows])

    def train_loss(self, w: np.ndarray, losses: dict) -> float:
        """Mean over the honest clients of their loss at w: ``losses`` holds
        them by client id, except on the data-free quadratic, whose one
        loss, evaluated here without a batch, is every honest client's and
        so their mean exactly (a mean of copies could round it)."""
        if self.data is None:
            return self.model.eval(w, None)
        return float(np.mean([losses[i] for i in range(self.honest)]))

    def test_acc(self, w: np.ndarray) -> float:
        if self.test is None:
            return float("nan")
        return self.model.accuracy(w, self.test.features, self.test.labels)


def _map_clients(setup: _Setup, groups: list[slice], ws: np.ndarray, layout,
                 dirs: np.ndarray | None, losses: dict | None, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with one epoch's report block of the first n computing
    clients, each at its row of ``ws``: (n, k) coefficients along ``dirs``,
    or with no directions (a first-order baseline) (n, d) gradients. One
    gather and one kernel call per group of rows, so one group's batch is
    alive at a time. ``losses``, in epoch 0 of a logged round, gets each
    honest client's loss at setup.w."""
    cfg, model = setup.config, setup.model
    for rows in groups:
        batch, counts, views = setup.gather(rows)
        if losses is not None and batch is not None:
            losses.update((i, model.eval(setup.w, view))
                          for i, view in enumerate(views, rows.start) if i < setup.honest)
        if dirs is None:
            out[rows] = [model.grad(w, v) for w, v in zip(ws[rows], views)]
        elif cfg.mu == 0:
            out[rows] = [setup.scale * np.einsum("kd,d->k", dirs, model.grad(w, v))
                         for w, v in zip(ws[rows], views)]
        else:
            diff = model.loss_batch_multi(layout, batch, counts, ws[rows])
            coeffs = np.multiply(diff, setup.scale, out=out[rows])  # scale * diff / (2 mu)
            coeffs /= 2.0 * cfg.mu
    return out


def _substitute_byzantine(setup: _Setup, matrix: np.ndarray, step: int) -> None:
    """Overwrite the Byzantine rows, which follow the honest ones, with the
    colluding row one oracle call computes from the step's whole honest block
    (oracle ordering: all honest values are in first). Column e*k + r holds
    epoch e, direction r; random_choice draws on its adversary seed (step, r, e)."""
    cfg, kind, h = setup.config, setup.attack, setup.honest
    if not kind.substitutes_coefficients or h == cfg.clients:
        return
    rc_seeds = None
    if kind == AttackKind.RANDOM_CHOICE:
        rc_seeds = derive_seeds(cfg.root_seed, step, np.arange(cfg.k),
                                np.arange(cfg.local_epochs)[:, None],
                                StreamKind.ADVERSARY).reshape(-1)
    matrix[h:] = byzantine_value(kind, matrix[:h], cfg.beta, cfg.clients, rc_seeds)


def _check_finite(block: np.ndarray, step: int, gradients: bool = False) -> None:
    """Raise NonFiniteLossError naming the step and the client (its row) of
    the first non-finite report entry in the computing clients' (n, E, width)
    ``block``, and its epoch and direction, or for ``gradients`` (a baseline's
    E = 1 block) its coordinate; searched for only when ``all_finite`` over
    the whole block fails."""
    if all_finite(block):
        return
    client, epoch, r = (int(i) for i in np.argwhere(~np.isfinite(block))[0])
    if gradients:
        raise NonFiniteLossError(
            f"non-finite gradient at step {step}, coordinate {r}, client {client}",
            step=step, coordinate=r, client=client)
    raise NonFiniteLossError(
        f"non-finite coefficient at step {step}, epoch {epoch}, direction {r}, client {client}",
        step=step, epoch=epoch, direction=r, client=client,
    )


def project_ball(w: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the L2 ball of the given radius.

    Returns ``w`` itself when it is already inside the ball, so projection
    is exactly idempotent. Training runs leave the parameter space
    unconstrained by default; this exists for theory-mode configurations.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not np.all(np.isfinite(w)):
        raise ValueError("project_ball: non-finite input vector")
    norm, peak = _norm(w), 1.0
    if norm == math.inf:  # w is finite, so only its squared norm overflowed
        peak = float(np.max(np.abs(w)))
        norm = _norm(w / peak)  # ||w|| / peak
    if norm * peak <= radius:
        return w
    out = (w if peak == 1.0 else w / peak) * (radius / norm)
    # rescaling can round the norm a hair above the radius; nudge until the
    # inside test holds so projection is exactly idempotent
    for _ in range(4):
        n = _norm(out)
        if n <= radius:
            return out
        out = out * (radius / n)
    return out * (1.0 - 4.0 * np.finfo(float).eps)


def _norm(w: np.ndarray) -> float:
    return math.sqrt(np.einsum("d,d->", w, w))  # numpy's own loop, not BLAS's


# a run's non-finite values end it through its own checks, which raise
# NonFiniteLossError, so numpy's warnings about them are noise: one errstate a run
@np.errstate(all="ignore")
def run_experiment(config: ExperimentConfig, *,
                   record: Callable[[RoundRecord], object] | None = None) -> RunResult:
    """The one round engine. CyBeR-0: each client runs E local epochs of k
    directions per step and uploads the E*k coefficients. A first-order
    baseline: each client uploads its d-dimensional batch gradient, the
    federator averages them (fedavg, beta = 0) or takes their
    coordinate-wise trimmed mean (coordwise_tm), and w steps by -eta times
    the aggregate.

    Directions are generated a window of W rounds at a time into one
    (W, E, k, d) block allocated once per run, with one ``direction_seed``
    call over the window's (step, epoch, sample) grid and one
    ``make_direction`` call; W is the largest count of rounds whose
    directions fit ``WINDOW_VALUES`` doubles, at least one (256 theory
    rounds at d = 16 share a window, an MNIST-sized round has its own).
    The block feeds the mu = 0 projection and the replay. For mu > 0, one
    ``prepare_variants`` call per window lays the whole block out as the
    steps mu z_r into one buffer per run, whose (round, epoch) slices the
    clients are evaluated against in row groups of ``data.GROUP_VALUES``
    doubles: one gather and one X Z product per group, then each client's
    differences at its own w (setup.w in epoch 0, its row of an (n, d)
    block of drifted copies after that). Both budgets set speed and memory,
    not the run. Where one report row stands for every client (the
    data-free quadratic), that row is the aggregate under every attack: the
    oracle's order statistics over copies of it return it, so the report
    matrix, the oracle and the trim are skipped, bit for bit. ``record``,
    if given, gets each round's ``RoundRecord``, whose arrays it may keep or
    overwrite: it cannot change the run."""
    setup = _Setup(config)
    zeroth = config.algorithm == "cyber0"
    E, k, d = config.local_epochs, config.k, setup.d
    width = k if zeroth else d  # a client's report columns per epoch
    beta = 0.0 if config.algorithm == "fedavg" else config.beta
    logs: list[RoundLog] = []
    started = time.monotonic()
    window = max(1, min(config.steps, WINDOW_VALUES // (E * k * d)))
    dirs = np.empty((window, E, k, d)) if zeroth else None
    layout = None  # mu > 0: dirs laid out by prepare_variants
    # the quadratic is data-free: every client starts from the synchronized
    # w with no batch, so one client's report row broadcasts to all
    groups = ([slice(0, 1)] if setup.data is None
              else setup.data.groups(range(setup.computing), k * setup.model.num_classes))
    n = groups[-1].stop
    # every client starts a round at setup.w, which is only ever updated in
    # place, so one read-only (n, d) view of it serves every round
    synced = np.broadcast_to(setup.w, (n, d))

    for t in range(config.steps):
        i = t % window
        if zeroth and i == 0:
            rounds = min(window, config.steps - t)
            seeds = direction_seed(config.root_seed, np.arange(t, t + rounds)[:, None, None],
                                   np.arange(k), np.arange(E)[:, None])
            make_direction(seeds.reshape(-1), d, setup.direction_mode,
                           out=dirs[:rounds].reshape(-1, d))
            if config.mu > 0:
                # the whole block, so the buffer keeps its shape: a short last
                # window's spare rows still hold the previous window's directions
                layout = setup.model.prepare_variants(dirs, config.mu, layout)
        step_dirs = dirs[i] if zeroth else [None]  # None: report gradients
        step_layout = [None] * E if layout is None else layout[i]
        do_log = (t + 1) % config.eval_every == 0 or t == config.steps - 1
        losses = {} if do_log else None
        coeffs = np.empty((n, E, width))
        ws = synced if E == 1 else synced.copy()  # local drift: a row per client
        for e in range(E):
            if e > 0:
                for j in range(n):
                    apply_update(ws[j], coeffs[j, e - 1], step_dirs[e - 1], config.eta, t)
            _map_clients(setup, groups, ws, step_layout[e], step_dirs[e],
                         losses if e == 0 else None, coeffs[:, e])
            # before the next epoch's drift replays this block; the earlier
            # epochs passed already, and keeping them in names the epoch
            _check_finite(coeffs[:, : e + 1], t, gradients=not zeroth)
        tr_loss = setup.train_loss(setup.w, losses) if do_log else float("nan")

        if n == 1:
            # one finite row that every honest client reports, and so every
            # Byzantine one too: the trimmed mean of m copies of it is that row
            agg = coeffs.reshape(E * width)
        else:
            matrix = np.empty((config.clients, E * width))  # clients' rows, then the adversary's
            matrix[:setup.computing] = coeffs.reshape(n, E * width)
            _substitute_byzantine(setup, matrix, t)
            agg = robust_direction_aggregate(matrix, beta)
        if zeroth:
            for e in range(E):
                apply_update(setup.w, agg[e * k : (e + 1) * k], step_dirs[e], config.eta, t)
        else:
            setup.w += (-config.eta) * agg
        if config.project_radius > 0:
            # a w that the update drove to inf or nan is a diverged run, not a bad input
            if not np.isfinite(setup.w).all():
                raise NonFiniteLossError(f"non-finite parameters at step {t}", step=t)
            setup.w[:] = project_ball(setup.w, config.project_radius)
        if record is not None:
            record(RoundRecord(t, coeffs.reshape(n, E * width), agg))
        if do_log:
            acc = setup.test_acc(setup.w)
            if not math.isfinite(tr_loss):
                raise NonFiniteLossError(f"non-finite train loss at step {t}", step=t)
            up, down = comm_cost(config, d, t + 1)
            logs.append(RoundLog(step=t + 1, train_loss=tr_loss, test_acc=acc,
                                 uplink_scalars=up, downlink_scalars=down,
                                 wall_ms=int((time.monotonic() - started) * 1000)))
    # the next round's reports catch a w that an update overflowed, and the
    # last round has none; one check per run, where no round pays for it
    if not np.isfinite(setup.w).all():
        last = config.steps - 1
        raise NonFiniteLossError(f"non-finite parameters at step {last}", step=last)
    return RunResult(logs, setup.w)
