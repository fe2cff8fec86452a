import warnings
from dataclasses import replace

import numpy as np
import pytest

from cyber0 import data as data_module
from cyber0 import federation
from cyber0.cli import csv_text, load_config, main
from cyber0.data import MNIST_CLASSES, MNIST_FEATURES, MNIST_FILES, BatchCursor, ClientData, Dataset
from cyber0.federation import ExperimentConfig, comm_cost, project_ball, run_experiment
from cyber0.losses import LogisticRegressionModel
from cyber0.seedstream import (
    RngStream,
    StreamKind,
    derive_seed,
    make_direction,
    sphere_direction,
)
from cyber0.zo import NonFiniteLossError, apply_update, direction_seed
from test_data import write_idx
from test_zo import zo_coefficient


SYNTH = dict(
    model="logreg", data="synth", synth_samples=1200, synth_features=16,
    synth_classes=4, distribution="iid", clients=6, alpha=0.0, beta=0.25,
    mu=1e-3, k=8, eta=0.05, steps=25, batch_size=32, attack="none",
    root_seed=42, data_seed=17, eval_every=5,
)

QUAD = dict(
    model="quadratic", quad_dim=12, quad_lambda=1.0, clients=4, alpha=0.0,
    beta=0.0, mu=0.0, k=6, eta=0.3, steps=20,
    direction_mode="sphere", attack="none", init_radius=1.0,
    root_seed=5, eval_every=1,
)


BYZ = {**SYNTH, "alpha": 1 / 3, "beta": 1 / 3}
NAN = float("nan")

# final (train_loss, test_acc, ||w||) per config: refactors of the round
# engines must reproduce these outputs, not merely similar ones
GOLDEN = [
    ("e1", SYNTH, (1.304872021422769, 87.0, 0.3881549867563766)),
    ("e3", {**SYNTH, "local_epochs": 3, "steps": 8},
     (1.324579769462808, 53.666666666666664, 0.3509503553901397)),
    ("mu_zero_e2", {**SYNTH, "mu": 0.0, "local_epochs": 2, "steps": 10},
     (1.3311752194576396, 49.333333333333336, 0.3030342301013686)),
    ("quad_mu_e2", {**QUAD, "mu": 1e-3, "local_epochs": 2, "steps": 10},
     (0.0002627932637543838, NAN, 0.01919240699343684)),
    ("full_knowledge_noniid", {**SYNTH, "distribution": "noniid", "clients": 8, "alpha": 0.25,
                               "attack": "full_knowledge"},
     (1.4771761986588123, 25.0, 0.7384268847392222)),
    ("random_choice_e2", {**BYZ, "attack": "random_choice", "local_epochs": 2, "steps": 10},
     (1.3323938020520554, 52.0, 0.31188666741761517)),
    ("label_flip", {**BYZ, "attack": "label_flip"},
     (1.3203462761854066, 75.0, 0.32625035927114887)),
    ("fedavg", {**SYNTH, "algorithm": "fedavg"},
     (1.3053490985043388, 96.33333333333334, 0.3263520501974187)),
    ("coordwise_tm_label_flip", {**BYZ, "algorithm": "coordwise_tm", "attack": "label_flip"},
     (1.3275571451490062, 71.66666666666667, 0.2564938027591135)),
    ("e2", {**SYNTH, "steps": 6, "local_epochs": 2},
     (1.3576314185715752, 62.33333333333333, 0.22145426557094947)),
    ("always_large_e2", {**BYZ, "attack": "always_large", "local_epochs": 2, "steps": 10},
     (1.333635434103309, 56.666666666666664, 0.30831384684465285)),
    ("sphere_logreg", {**SYNTH, "direction_mode": "sphere"},
     (1.3048061715413752, 82.33333333333334, 0.3881557475947562)),
    ("quad_projection", {**QUAD, "project_radius": 0.5, "steps": 10},
     (0.0022809247201371207, NAN, 0.0536821877526723)),
    # 40-row shards within the batch: each client reads its whole shard
    ("full_local_label_flip", {**BYZ, "attack": "label_flip", "batch_size": 64,
                               "synth_samples": 240, "steps": 10},
     (1.357930259324307, 35.0, 0.1826083128252486)),
    ("coordwise_tm_noniid_label_flip", {**BYZ, "algorithm": "coordwise_tm",
                                        "distribution": "noniid", "attack": "label_flip",
                                        "clients": 8, "alpha": 0.25, "beta": 0.25},
     (1.283802280733976, 50.0, 0.8124607243762099)),
    # the data-free quadratic: one view serves every first-order client, and
    # under a coefficient attack the one computing row is the aggregate
    ("fedavg_quad", {**QUAD, "algorithm": "fedavg"},
     (6.496740572356155e-07, NAN, 0.0007979226629761202)),
    ("quad_full_knowledge", {**QUAD, "attack": "full_knowledge", "alpha": 0.25, "beta": 0.25},
     (4.296440907187909e-05, NAN, 0.00887011793107587)),
]


# (id, config, rounds per window, whether the projection radius binds at
# the end) of the regeneration test: 7 steps at 3 rounds per window cross
# two window boundaries and end on a short window; None keeps the default
# budget, which gives each d = 7850 round a window of its own
REGENERATED = [
    ("synth_gaussian", {**SYNTH, "steps": 7}, 3, False),
    ("synth_sphere_e2_projected", {**SYNTH, "steps": 7, "direction_mode": "sphere",
                                   "local_epochs": 2, "project_radius": 0.05}, 3, True),
    ("full_knowledge_e2", {**BYZ, "attack": "full_knowledge", "local_epochs": 2, "steps": 7},
     3, False),
    ("quad_mu_zero", {**QUAD, "steps": 7}, 3, False),
    ("quad_mu_e2_projected", {**QUAD, "mu": 1e-3, "local_epochs": 2,
                              "project_radius": 0.5, "steps": 7}, 3, False),
    ("mnist_size", {**SYNTH, "synth_features": 784, "synth_classes": 10, "k": 64, "steps": 3},
     None, False),
]


def recorded(cfg):
    """The run of ``cfg`` and the ``RoundRecord`` of each of its rounds."""
    records = []
    return run_experiment(cfg, record=records.append), records


def logs_equal(a, b):
    return len(a) == len(b) and all(
        x.step == y.step
        and x.train_loss == y.train_loss
        and (x.test_acc == y.test_acc or (np.isnan(x.test_acc) and np.isnan(y.test_acc)))
        and x.uplink_scalars == y.uplink_scalars
        and x.downlink_scalars == y.downlink_scalars
        for x, y in zip(a, b)
    )


class TestDeterminism:
    def test_rerun_identical(self):
        for cfg in (ExperimentConfig(**SYNTH),
                    ExperimentConfig(**{**SYNTH, "local_epochs": 3, "steps": 8})):
            a = run_experiment(cfg)
            b = run_experiment(cfg)
            assert logs_equal(a.logs, b.logs)
            assert np.array_equal(a.final_w, b.final_w)

    @pytest.mark.parametrize("overrides,rounds,binds", [c[1:] for c in REGENERATED],
                             ids=[c[0] for c in REGENERATED])
    def test_final_w_regenerates_from_seeds(self, monkeypatch, overrides, rounds, binds):
        # the seed-replay contract: anyone holding the config and the
        # step's E*k aggregates rebuilds the engine's w bit for bit from
        # the documented identity alone, across window boundaries
        cfg = ExperimentConfig(**overrides)
        k, d = cfg.k, federation._Setup(cfg).d
        per_round = cfg.local_epochs * k * d
        if rounds is not None:
            monkeypatch.setattr(federation, "WINDOW_VALUES", rounds * per_round)
        assert max(1, federation.WINDOW_VALUES // per_round) < cfg.steps
        # each step's E*k aggregate as the engine broadcasts it
        res, records = recorded(cfg)
        assert [rec.step for rec in records] == list(range(cfg.steps))
        aggs = [rec.aggregate for rec in records]

        w = np.zeros(d)
        if cfg.init_radius > 0:
            init_seed = derive_seed(cfg.root_seed, 2, 0, 0, StreamKind.INIT)
            w = cfg.init_radius * sphere_direction(init_seed, d)
        for t, agg in enumerate(aggs):
            for e in range(cfg.local_epochs):
                for r in range(k):
                    seed = derive_seed(cfg.root_seed, t, r, e, StreamKind.DIRECTION)
                    z = (sphere_direction(seed, d) if cfg.direction_mode == "sphere"
                         else RngStream(seed).gaussians(d))
                    w += (-(cfg.eta * agg[e * k + r]) / k) * z
            if cfg.project_radius > 0:
                w = project_ball(w, cfg.project_radius)
        assert np.array_equal(res.final_w, w)
        if binds:
            assert np.linalg.norm(w) == pytest.approx(cfg.project_radius, rel=1e-12)

    @pytest.mark.parametrize("overrides", [
        {**BYZ, "attack": "full_knowledge", "local_epochs": 2, "steps": 7,
         "project_radius": 0.05},
        {**QUAD, "attack": "full_knowledge", "alpha": 0.25, "beta": 0.25, "steps": 7},
        {**SYNTH, "algorithm": "fedavg", "steps": 7},
    ], ids=["full_knowledge_e2_projected", "quad_full_knowledge", "fedavg"])
    def test_record_does_not_change_the_run(self, overrides):
        # the record observes: a run with one, even one that overwrites the
        # arrays it is handed, has the plain run's log bytes and final w
        cfg = ExperimentConfig(**overrides)
        plain = run_experiment(cfg)
        res, records = recorded(cfg)

        def scribble(rec):
            rec.reports.fill(np.nan)
            rec.aggregate.fill(np.nan)

        for run in (res, run_experiment(cfg, record=scribble)):
            assert csv_text(run.logs) == csv_text(plain.logs)
            assert run.final_w.tobytes() == plain.final_w.tobytes()
        if cfg.project_radius > 0:  # the ball binds
            assert np.linalg.norm(plain.final_w) == pytest.approx(cfg.project_radius)
        setup = federation._Setup(cfg)
        width = cfg.local_epochs * cfg.k if cfg.algorithm == "cyber0" else setup.d
        n = 1 if setup.data is None else setup.computing
        assert [rec.step for rec in records] == list(range(cfg.steps))
        for rec in records:
            assert rec.reports.shape == (n, width) and rec.aggregate.shape == (width,)


@pytest.mark.parametrize("overrides,expected", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_outputs_match_recorded_values(overrides, expected):
    res = run_experiment(ExperimentConfig(**overrides))
    got = (res.final_train_loss, res.final_test_acc, float(np.linalg.norm(res.final_w)))
    assert got == pytest.approx(expected, rel=1e-12, nan_ok=True)


class TestLocalEpochs:
    def test_uplink_counts_scale_with_epochs(self):
        cfg = ExperimentConfig(**{**SYNTH, "local_epochs": 3, "steps": 4, "eval_every": 1})
        res = run_experiment(cfg)
        assert res.logs[-1].uplink_scalars == 4 * 3 * cfg.k

    def test_fixed_work_budget_accuracy_stable(self):
        # E * T held fixed: final accuracies land close together
        base = {**SYNTH, "synth_samples": 1600, "steps": 40, "eval_every": 40, "k": 8}
        r1 = run_experiment(ExperimentConfig(**base))
        r5 = run_experiment(ExperimentConfig(**{**base, "steps": 8, "local_epochs": 5,
                                            "eval_every": 8}))
        assert abs(r1.final_test_acc - r5.final_test_acc) <= 3.0


class TestEnginePathsAgree:
    @pytest.mark.parametrize("local_epochs", [1, 2])
    def test_fast_path_matches_literal_zo_coefficient(self, local_epochs):
        # one round, no attack: the engine's coefficients vs the per-client
        # op, at the synchronized w in epoch 0 and at each client's drifted
        # w in later epochs
        cfg = ExperimentConfig(**{**SYNTH, "steps": 1, "clients": 3, "k": 4, "eval_every": 1,
                                  "local_epochs": local_epochs})
        (rec,) = recorded(cfg)[1]
        matrix = rec.reports
        setup = federation._Setup(cfg)
        epoch_batches = [setup.gather(slice(None))[2] for _ in range(cfg.local_epochs)]
        k, d, mode = cfg.k, setup.d, setup.direction_mode
        for i in range(cfg.clients):
            w = setup.w.copy()
            for e in range(cfg.local_epochs):
                fast = matrix[i, e * k : (e + 1) * k]
                dirs = make_direction(direction_seed(cfg.root_seed, 0, np.arange(k), e), d, mode)
                for r in range(k):
                    literal = zo_coefficient(setup.model, w, epoch_batches[e][i], dirs[r], cfg.mu,
                                             setup.scale)
                    assert fast[r] == pytest.approx(literal, rel=1e-9, abs=1e-12)
                apply_update(w, fast, dirs, cfg.eta, 0)

    @pytest.mark.parametrize("mu", [20.0, 100.0])
    def test_coefficients_past_exp_range_match_literal(self, monkeypatch, mu):
        # at this mu, |mu (X Z + b_z)| passes exp's range on 784 features:
        # the kernel redoes those clients with their stabilised brackets, so
        # the run finishes with every coefficient at the literal bracket's
        # value
        cfg = ExperimentConfig(**{**SYNTH, "synth_features": 784, "synth_classes": 10,
                                  "clients": 4, "alpha": 0.0, "k": 8, "steps": 3,
                                  "eta": 1e-4, "mu": mu})
        res, records = recorded(cfg)
        assert np.all(np.isfinite(res.final_w)) and len(records) == cfg.steps
        # each round's clients at the synchronized w, which the test replays
        # from the aggregates, on the batches a fresh setup's cursors read
        setup = federation._Setup(cfg)
        w = setup.w.copy()
        for rec in records:
            dirs = make_direction(direction_seed(cfg.root_seed, rec.step, np.arange(cfg.k), 0),
                                  setup.d, setup.direction_mode)
            for batch, row in zip(setup.gather(slice(None))[2], rec.reports, strict=True):
                literal = [zo_coefficient(setup.model, w.copy(), batch, z, mu, setup.scale)
                           for z in dirs]
                assert row == pytest.approx(literal, rel=1e-9)
            apply_update(w, rec.aggregate, dirs, cfg.eta, rec.step)
        assert np.array_equal(w, res.final_w)
        # the clients' brackets carry the run: without them its first
        # round's coefficients are not finite
        monkeypatch.setattr(LogisticRegressionModel, "_brackets",
                            lambda self, prepared, X, y, w: np.full(cfg.k, np.nan))
        with pytest.raises(NonFiniteLossError, match="at step 0, epoch 0"):
            run_experiment(cfg)

    def test_mu_zero_engine_matches_mu_positive_on_quadratic(self):
        # quadratic: the finite difference is exact, so the two modes coincide
        a = run_experiment(ExperimentConfig(**QUAD))
        b = run_experiment(ExperimentConfig(**{**QUAD, "mu": 1e-4}))
        for x, y in zip(a.logs, b.logs):
            assert x.train_loss == pytest.approx(y.train_loss, rel=1e-6, abs=1e-12)


class TestDirectionWindow:
    @pytest.mark.parametrize("local_epochs", [1, 3])
    @pytest.mark.parametrize("base", [QUAD, SYNTH], ids=["quad", "synth"])
    def test_output_does_not_depend_on_window(self, base, local_epochs, monkeypatch):
        # the default budget holds the whole run here; 3 rounds per window
        # leaves a short last window (10 steps), 1 round is a window per step
        cfg = ExperimentConfig(**{**base, "mu": 1e-3, "steps": 10,
                                  "eval_every": 3, "local_epochs": local_epochs})
        per_round = local_epochs * cfg.k * federation._Setup(cfg).d
        assert federation.WINDOW_VALUES // per_round >= cfg.steps

        def run(budget):
            monkeypatch.setattr(federation, "WINDOW_VALUES", budget)
            res = run_experiment(cfg)
            return res.final_w, csv_text(res.logs)

        default = run(federation.WINDOW_VALUES)
        for rounds in (1, 3):
            w, text = run(rounds * per_round)
            assert np.array_equal(w, default[0]) and text == default[1]


# configs whose clients the engine evaluates in row groups: E in {1, 3},
# k in {1, 8, 64}, unequal batches (non-IID shards of 15 and 30 rows against
# batch 32), whole 40-row shards against batch 64, computing Byzantine
# clients (label_flip), mu = 0
GROUP_CASES = {
    "iid_k8": {},
    "iid_e3_k1": {"local_epochs": 3, "k": 1},
    "iid_k64": {"k": 64},
    "noniid_small_shards_e3": {"distribution": "noniid", "synth_samples": 120,
                               "local_epochs": 3},
    "noniid_small_shards_k1": {"distribution": "noniid", "synth_samples": 120, "k": 1},
    "full_local_data_e3_k64": {"batch_size": 64, "synth_samples": 240,
                               "local_epochs": 3, "k": 64},
    "label_flip_e3": {"alpha": 1 / 3, "beta": 1 / 3, "attack": "label_flip",
                      "local_epochs": 3},
    "label_flip_noniid_k64": {"alpha": 1 / 3, "beta": 1 / 3, "attack": "label_flip",
                              "distribution": "noniid", "synth_samples": 120, "k": 64},
    "mu_zero_e3": {"mu": 0.0, "local_epochs": 3},
    "mu_zero_noniid_k1": {"mu": 0.0, "distribution": "noniid",
                          "synth_samples": 120, "k": 1},
    "fedavg": {"algorithm": "fedavg"},
    "coordwise_tm_label_flip_noniid": {"algorithm": "coordwise_tm", "alpha": 1 / 3,
                                       "beta": 1 / 3, "attack": "label_flip",
                                       "distribution": "noniid", "synth_samples": 120},
}


class TestClientGroups:
    @pytest.mark.parametrize("overrides", GROUP_CASES.values(), ids=GROUP_CASES.keys())
    def test_output_does_not_depend_on_group_budget(self, overrides, monkeypatch):
        # one client per group, groups of about two clients, the default,
        # and one group for every client: the same final w and log bytes
        cfg = ExperimentConfig(**{**SYNTH, "steps": 8, "eval_every": 2, **overrides})
        setup = federation._Setup(cfg)
        n, width = setup.computing, cfg.k * cfg.synth_classes
        pair = 2 * width * setup.data.cursors[0].batch_size
        runs, sizes = [], []
        for budget in (1, pair, data_module.GROUP_VALUES, 1 << 62):
            monkeypatch.setattr(data_module, "GROUP_VALUES", budget)
            sizes.append(len(setup.data.groups(range(n), width)))
            res = run_experiment(cfg)
            runs.append((res.final_w, csv_text(res.logs)))
        assert sizes[0] == n and 1 < sizes[1] < n and sizes[3] == 1
        for w, text in runs[1:]:
            assert np.array_equal(w, runs[0][0]) and text == runs[0][1]


class TestClientPermutation:
    def test_permuting_honest_clients_keeps_final_w(self, monkeypatch):
        # the honest clients move as whole units, each shard with its batch
        # cursor (whose shuffle seed carries the original id): every client
        # reports the same coefficients from another row of the report
        # matrix and, at 784 features, from another client group, and the
        # trim and the oracle do not see the order
        cfg = ExperimentConfig(**{**SYNTH, "synth_features": 784, "synth_classes": 10,
                                  "synth_samples": 2400, "clients": 10, "alpha": 0.2,
                                  "beta": 0.2, "attack": "full_knowledge", "local_epochs": 2,
                                  "k": 64, "batch_size": 64, "steps": 3, "eval_every": 3})
        setup = federation._Setup(cfg)
        h = setup.honest
        assert len(setup.data.groups(range(h), cfg.k * cfg.synth_classes)) >= 2
        base = run_experiment(cfg).final_w
        init = ClientData.__init__
        for order in (np.arange(h)[::-1], np.random.default_rng(3).permutation(h)):
            def permuted(self, *args, order=order):
                init(self, *args)
                moved = list(order) + list(range(h, len(self.cursors)))
                self.cursors = [self.cursors[i] for i in moved]

            monkeypatch.setattr(ClientData, "__init__", permuted)
            assert np.array_equal(run_experiment(cfg).final_w, base)

        def shards_only(self, *args):  # the cursors stay: not a symmetry
            init(self, *args)
            shards = [cursor.shard for cursor in self.cursors]
            for cursor, shard in zip(self.cursors, shards[:h][::-1] + shards[h:]):
                cursor.shard = shard
                cursor._perm = cursor._shuffle()

        monkeypatch.setattr(ClientData, "__init__", shards_only)
        assert not np.array_equal(run_experiment(cfg).final_w, base)


class TestClientBatches:
    def test_byzantine_batches_are_never_gathered(self, monkeypatch):
        # under a coefficient attack the Byzantine clients never compute, so
        # their cursors stay put and no rows of theirs are gathered, while
        # every honest client reads once per step and epoch
        cfg = ExperimentConfig(**{**BYZ, "attack": "full_knowledge", "steps": 4,
                                  "local_epochs": 2})
        cursors, gathers = set(), []
        next_rows, gather = BatchCursor.next_rows, ClientData.gather

        def spy_rows(self):
            cursors.add(self.client_id)
            return next_rows(self)

        def spy_gather(self, readers):
            out = gather(self, readers)
            gathers.append((list(readers), len(out[0][0])))
            return out

        monkeypatch.setattr(BatchCursor, "next_rows", spy_rows)
        monkeypatch.setattr(ClientData, "gather", spy_gather)
        run_experiment(cfg)
        setup = federation._Setup(cfg)
        honest, byz = range(setup.honest), range(setup.honest, cfg.clients)
        assert setup.computing == setup.honest and byz and cursors == set(honest)
        read = [i for readers, _ in gathers for i in readers]
        assert not set(read) & set(byz)
        assert all(rows == cfg.batch_size * len(readers) for readers, rows in gathers)
        assert sorted(read) == sorted(list(honest) * (cfg.steps * cfg.local_epochs))


class TestDataFreeQuadratic:
    def test_one_worker_serves_every_client(self, profile_dir):
        # every client starts from the synchronized w with no batch, so one
        # client's E epochs are computed once per round, not once per client
        cfg = replace(load_config(profile_dir / "quad_mu_floor.cfg"), local_epochs=2, steps=5)
        assert cfg.clients == 4
        records = recorded(cfg)[1]
        assert len(records) == cfg.steps
        assert all(rec.reports.shape == (1, cfg.local_epochs * cfg.k) for rec in records)

    @pytest.mark.parametrize("clients", [3, 4, 9])
    def test_logged_train_loss_is_the_one_loss(self, clients):
        # every honest client's loss is the one at w, so it is their mean
        # exactly; at this start a mean of 3 or of 9 copies of it rounds
        cfg = ExperimentConfig(**{**QUAD, "clients": clients, "init_radius": 0.7,
                                  "root_seed": 4, "steps": 1})
        setup = federation._Setup(cfg)
        assert run_experiment(cfg).logs[0].train_loss == setup.model.eval(setup.w)


class TestBaselines:
    def test_fedavg_m1_is_centralized_sgd(self):
        cfg = ExperimentConfig(**{**SYNTH, "clients": 1, "algorithm": "fedavg", "steps": 12})
        res = run_experiment(cfg)
        # manual trace with the same batch stream
        from cyber0.data import partition_iid, synth_generate

        train = synth_generate(cfg.data_seed, cfg.synth_samples, cfg.synth_features,
                               cfg.synth_classes, split=0)
        (shard,) = partition_iid(train, 1, cfg.data_seed)
        cur = BatchCursor(shard, cfg.batch_size, cfg.data_seed, 0)
        model = LogisticRegressionModel(cfg.synth_features, cfg.synth_classes)
        w = np.zeros(model.dimension)
        for _ in range(cfg.steps):
            rows = cur.next_rows()
            g = model.grad(w, (train.features[rows], train.labels[rows]))
            w += (-cfg.eta) * g
        assert np.array_equal(res.final_w, w)

    def test_coordwise_beta0_bit_identical_to_fedavg(self):
        a = run_experiment(ExperimentConfig(**{**SYNTH, "algorithm": "fedavg"}))
        b = run_experiment(ExperimentConfig(**{**SYNTH, "algorithm": "coordwise_tm",
                                                   "beta": 0.0}))
        assert logs_equal(a.logs, b.logs)
        assert np.array_equal(a.final_w, b.final_w)

    def test_first_order_rejects_coefficient_attacks(self):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "algorithm": "fedavg", "alpha": 0.25,
                                "attack": "full_knowledge"})

    def test_first_order_label_flip_allowed(self):
        cfg = ExperimentConfig(**{**SYNTH, "algorithm": "fedavg", "alpha": 1 / 3,
                                  "attack": "label_flip", "steps": 5})
        run_experiment(cfg)


class TestCommAccounting:
    def test_cyber0_uplink_is_ek_per_step(self):
        cfg = ExperimentConfig(**{**SYNTH, "k": 64, "steps": 400})
        d = federation._Setup(cfg).d
        up, down = comm_cost(cfg, d, 400)
        assert up == 25_600
        assert down == 400 * 64 + d + 1

    def test_fedavg_uplink_is_d_per_step(self):
        cfg = ExperimentConfig(model="logreg", data="mnist", algorithm="fedavg", steps=400)
        d = LogisticRegressionModel(MNIST_FEATURES, MNIST_CLASSES).dimension
        up, _ = comm_cost(cfg, d, 400)
        assert d == 7850 and up == 3_140_000

    def test_hundredfold_saving_ratio(self):
        zo_cfg = ExperimentConfig(model="logreg", data="mnist", k=64)
        fo_cfg = ExperimentConfig(model="logreg", data="mnist", algorithm="fedavg")
        up_zo, _ = comm_cost(zo_cfg, 7850, 400)
        up_fo, _ = comm_cost(fo_cfg, 7850, 400)
        assert up_fo / up_zo == pytest.approx(7850 / 64)

    def test_zero_rounds_zero_cost(self):
        assert comm_cost(ExperimentConfig(**SYNTH), 68, 0) == (0, 0)

    def test_logged_counters_match_comm_cost_and_are_monotone(self):
        cfg = ExperimentConfig(**{**SYNTH, "steps": 12, "eval_every": 3})
        res = run_experiment(cfg)
        prev_up = prev_down = -1
        for log in res.logs:
            assert (log.uplink_scalars, log.downlink_scalars) == comm_cost(cfg, len(res.final_w),
                                                                           log.step)
            assert log.uplink_scalars > prev_up and log.downlink_scalars > prev_down
            prev_up, prev_down = log.uplink_scalars, log.downlink_scalars

    def test_uplink_independent_of_dimension(self):
        cfg = ExperimentConfig(**SYNTH)
        assert comm_cost(cfg, 36, 7)[0] == comm_cost(cfg, 260, 7)[0]


class TestAttackPlumbing:
    def test_attack_inert_on_constant_columns(self):
        # identical client data -> identical honest coefficients per column ->
        # every attack leaves the aggregate unchanged, bit for bit, with and
        # without the smoothing and the local drift
        for mu, local_epochs in ((0.0, 1), (1e-3, 2)):
            base = {**QUAD, "clients": 8, "alpha": 0.25, "beta": 0.25, "steps": 8, "mu": mu,
                    "local_epochs": local_epochs}
            clean = run_experiment(ExperimentConfig(**base))
            for attack in ("full_knowledge", "always_small", "always_large", "random_choice",
                           "label_flip"):
                attacked = run_experiment(ExperimentConfig(**{**base, "attack": attack}))
                assert csv_text(attacked.logs) == csv_text(clean.logs)
                assert np.array_equal(clean.final_w, attacked.final_w)

    def test_full_knowledge_slows_convergence_on_synth(self):
        base = {**SYNTH, "clients": 9, "alpha": 1 / 3, "beta": 1 / 3, "steps": 40,
                "eval_every": 40}
        clean = run_experiment(ExperimentConfig(**base))
        fk = run_experiment(ExperimentConfig(**{**base, "attack": "full_knowledge"}))
        assert fk.final_train_loss > clean.final_train_loss

    def test_containment_under_huge_byzantine_values(self):
        # direct engine-level check: a run with full_knowledge cannot diverge
        cfg = ExperimentConfig(**{**SYNTH, "alpha": 1 / 3, "beta": 1 / 3,
                                  "attack": "full_knowledge", "steps": 15})
        res = run_experiment(cfg)
        assert np.all(np.isfinite(res.final_w))


class TestFailureModes:
    def test_nonfinite_abort_carries_context(self):
        # a divergent step size on the quadratic overflows quickly
        cfg = ExperimentConfig(**{**QUAD, "eta": 1e300, "steps": 50, "mu": 1e-3})
        with pytest.raises(NonFiniteLossError) as err:
            run_experiment(cfg)
        assert err.value.step >= 0

    @pytest.mark.parametrize("overrides", [
        {**QUAD, "quad_dim": 16, "mu": 1e-3, "k": 16, "eta": 1e308, "steps": 1},
        {"synth_samples": 400, "synth_features": 20, "synth_classes": 4, "clients": 4,
         "alpha": 0.0, "beta": 0.0, "k": 8, "eta": 1.7e308, "steps": 1},
    ], ids=["quadratic", "logreg"])
    def test_last_update_overflowing_w_aborts(self, overrides):
        # no round follows whose reports would see the non-finite w
        with pytest.raises(NonFiniteLossError,
                           match="^non-finite parameters at step 0$") as err:
            run_experiment(ExperimentConfig(**overrides))
        assert err.value.step == 0

    @pytest.mark.parametrize("mu", [1e-3, 0.0])
    def test_divergent_data_free_run_raises_without_a_warning(self, mu):
        # the overflowing brackets (mu > 0) and projections (mu = 0) are the
        # engine's to report, as NonFiniteLossError, not numpy's to warn of
        cfg = ExperimentConfig(**{**QUAD, "mu": mu, "eta": 1e300, "steps": 40})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLossError, match="^non-finite .* at step 1"):
                run_experiment(cfg)

    def test_check_finite_names_first_bad_entry(self):
        # row i of the computing block is client i. The first bad entry in
        # client order is the NaN of client 2 at direction 5, ahead of the
        # inf of client 3 at an earlier direction
        block = np.arange(40.0).reshape(5, 1, 8)
        clean = block.copy()
        federation._check_finite(clean, 7)
        assert np.array_equal(clean, block)
        block[2, 0, 5] = np.nan
        block[3, 0, 1] = np.inf
        with pytest.raises(NonFiniteLossError,
                           match="step 7, epoch 0, direction 5, client 2$") as err:
            federation._check_finite(block, 7)
        assert (err.value.step, err.value.direction, err.value.client) == (7, 5, 2)
        block[2, 0, 5] = -np.inf
        block[0, 0, 6] = np.nan
        with pytest.raises(NonFiniteLossError) as err:
            federation._check_finite(block, 0)
        assert (err.value.step, err.value.direction, err.value.client) == (0, 6, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("gradients", [False, True])
    def test_check_finite_names_one_bad_entry_among_overflowing_squares(self, bad, gradients):
        # the other entries' squares overflow, so the one reduction is
        # non-finite either way; the search still names the bad entry
        block = np.full((3, 1, 7), 1e200)
        block[1, 0, 4] = bad
        with pytest.raises(NonFiniteLossError) as err:
            federation._check_finite(block, 5, gradients=gradients)
        located = (err.value.step, err.value.epoch, err.value.direction, err.value.client,
                   err.value.coordinate)
        if gradients:
            assert located == (5, -1, -1, 1, 4)
            assert str(err.value) == "non-finite gradient at step 5, coordinate 4, client 1"
        else:
            assert located == (5, 0, 4, 1, -1)
            assert str(err.value) == ("non-finite coefficient at step 5, epoch 0, "
                                      "direction 4, client 1")

    def test_check_finite_passes_finite_blocks_whose_squares_overflow(self):
        # entries near 1e200 overflow their squares, near 1e154 only the sum;
        # E = 2 slices are strided. No floating-point warning either way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for big in (1e200, -1e154):
                block = np.full((4, 2, 16), big)
                federation._check_finite(block, 0)
                federation._check_finite(block[:, :1], 0)
                federation._check_finite(block[:, :, :1], 0, gradients=True)

    def test_check_finite_names_the_epoch(self):
        # the first bad coefficient of this E = 2 run is client 0's direction
        # 0 in epoch 1, which its flat report row holds in column k = 4:
        # epoch 0 brackets the finite w0, and the step of 1e308 overflows the
        # drifted w's squared norms. (A logreg run does not serve: its
        # gradient is bounded, so its epoch-1 coefficients stay finite.)
        cfg = ExperimentConfig(**{**QUAD, "mu": 1e-3, "k": 4,
                                  "local_epochs": 2, "eta": 1e308, "steps": 3})
        with pytest.raises(NonFiniteLossError, match="epoch 1, direction 0, client 0$") as err:
            run_experiment(cfg)
        assert (err.value.epoch, err.value.direction, err.value.client) == (1, 0, 0)

    def test_early_epoch_is_named_before_the_drift_replays_it(self):
        # a start 1e300 out overflows epoch 0's squared norms: at E = 2 its
        # block is reported before epoch 1's drift replays it, as at E = 1
        for epochs in (1, 2):
            cfg = ExperimentConfig(**{**QUAD, "quad_dim": 8, "mu": 1e-3, "k": 4, "steps": 3,
                                      "local_epochs": epochs, "init_radius": 1e300})
            with pytest.raises(NonFiniteLossError,
                               match="^non-finite coefficient at step 0, epoch 0, "
                                     "direction 0, client 0$") as err:
                run_experiment(cfg)
            assert (err.value.step, err.value.epoch, err.value.direction,
                    err.value.client) == (0, 0, 0, 0)

    def test_first_order_nonfinite_gradient_aborts(self):
        # no logged round before the end, so the overflowed gradient is
        # caught before any train loss is
        cfg = ExperimentConfig(**{**QUAD, "algorithm": "fedavg", "eta": 1e300, "steps": 50,
                                  "eval_every": 50})
        with pytest.raises(NonFiniteLossError, match="non-finite gradient at step") as err:
            run_experiment(cfg)
        # the data-free quadratic's one gradient row stands for every client
        assert (err.value.step, err.value.coordinate, err.value.client) == (2, 0, 0)
        assert str(err.value).endswith("step 2, coordinate 0, client 0")
        # the first bad entry in client order of an (n, 1, d) gradient block
        block = np.zeros((4, 1, 6))
        block[3, 0, 1] = np.nan
        block[2, 0, 4] = -np.inf
        with pytest.raises(NonFiniteLossError,
                           match="^non-finite gradient at step 9, coordinate 4, client 2$") as err:
            federation._check_finite(block, 9, gradients=True)
        assert (err.value.coordinate, err.value.client, err.value.direction) == (4, 2, -1)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "alpha": 0.5})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "beta": 0.6})
        for mu in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^mu must be finite and >= 0"):
                ExperimentConfig(**{**SYNTH, "mu": mu})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "eta": -1.0})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "attack": "bogus"})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "algorithm": "fedavg", "local_epochs": 2})


# quadratic runs of the power-of-two relation: sphere and Gaussian
# directions, mu = 0, E = 2, and a ball that binds from the first step
SCALED = {
    "sphere": {**QUAD, "mu": 1e-3},
    "gaussian": {**QUAD, "mu": 1e-3, "direction_mode": "gaussian"},
    "mu_zero": QUAD,
    "e2": {**QUAD, "mu": 1e-3, "local_epochs": 2, "steps": 10},
    "projected": {**QUAD, "mu": 1e-3, "project_radius": 0.5, "steps": 10},
}


class TestPowerOfTwoScaling:
    @pytest.mark.parametrize("overrides", SCALED.values(), ids=SCALED.keys())
    def test_lengths_times_two_to_the_j_scale_w_and_loss_exactly(self, overrides):
        # w* = 0: with the start, mu and the ball scaled by 2^j, every
        # bracket point scales by 2^j, every loss by 4^j and every
        # coefficient by 2^j, each exactly, so the run is the base run
        # scaled bit for bit
        base = run_experiment(ExperimentConfig(**overrides))
        radius = overrides.get("project_radius", 0.0)
        if radius:  # the ball binds: one unconstrained step leaves it
            free = ExperimentConfig(**{**overrides, "steps": 1, "project_radius": 0.0})
            assert np.linalg.norm(run_experiment(free).final_w) > radius
        for j in (1, 5, -7):
            s = 2.0 ** j
            res = run_experiment(ExperimentConfig(**{
                **overrides, "init_radius": s * overrides["init_radius"],
                "mu": s * overrides["mu"],
                "project_radius": s * overrides.get("project_radius", 0.0)}))
            assert np.array_equal(res.final_w, s * base.final_w)
            assert ([log.train_loss for log in res.logs]
                    == [s * s * log.train_loss for log in base.logs])


class TestEndToEndSynth:
    def test_cyber0_tracks_fedavg_on_separable_data(self):
        base = {**SYNTH, "synth_samples": 1600, "steps": 120, "k": 16,
                "eval_every": 120}
        zo = run_experiment(ExperimentConfig(**base))
        fo = run_experiment(ExperimentConfig(**{**base, "algorithm": "fedavg"}))
        assert fo.final_test_acc >= 95.0
        assert abs(zo.final_test_acc - fo.final_test_acc) <= 3.0

    def test_projection_keeps_iterates_inside_ball(self):
        cfg = ExperimentConfig(**{**QUAD, "project_radius": 0.5, "steps": 10})
        res = run_experiment(cfg)
        assert np.linalg.norm(res.final_w) <= 0.5 * (1 + 1e-12)


class TestMnistWiring:
    """The data=mnist path exercised against small hand-built IDX files;
    the real-dataset criteria live in test_acceptance.py."""

    @staticmethod
    def write_mnist(path, side=28, classes=10):
        """Random train (2000) and test (400) IDX files of side x side
        images, labels drawn from 0..classes-1."""
        path.mkdir(exist_ok=True)
        rng = np.random.default_rng(0)
        for n, split in ((2000, "train"), (400, "test")):
            pixels = rng.integers(0, 256, size=(n, side * side), dtype=np.uint8)
            ds = Dataset(pixels / 255.0, rng.integers(0, classes, size=n), num_classes=classes)
            images, labels = MNIST_FILES[split]
            write_idx(ds, path / images, path / labels, rows=side, cols=side)
        return path

    @pytest.fixture
    def fake_mnist_dir(self, tmp_path):
        return self.write_mnist(tmp_path)

    def test_mnist_config_runs_end_to_end(self, fake_mnist_dir):
        cfg = ExperimentConfig(
            model="logreg", data="mnist", mnist_dir=str(fake_mnist_dir),
            distribution="noniid", clients=40, alpha=0.125, beta=0.125,
            mu=1e-3, k=4, eta=0.01, steps=3, batch_size=64,
            attack="full_knowledge", eval_every=1,
        )
        res = run_experiment(cfg)
        assert len(res.final_w) == 7850
        assert res.logs[-1].uplink_scalars == 3 * 4
        assert np.isfinite(res.final_test_acc)

    def test_mnist_fedavg_wiring(self, fake_mnist_dir):
        cfg = ExperimentConfig(
            model="logreg", data="mnist", mnist_dir=str(fake_mnist_dir),
            algorithm="fedavg", clients=12, steps=2, batch_size=32, eval_every=1,
        )
        res = run_experiment(cfg)
        assert res.logs[-1].uplink_scalars == 2 * 7850

    def test_fewer_labels_keep_the_mnist_model(self, tmp_path):
        # labels 0..4 only: the model still has MNIST's 10 classes, so the
        # logged counts are those of the model that trained
        cfg = ExperimentConfig(
            model="logreg", data="mnist", mnist_dir=str(self.write_mnist(tmp_path, classes=5)),
            algorithm="fedavg", clients=12, steps=2, batch_size=32, eval_every=1,
        )
        res = run_experiment(cfg)
        assert len(res.final_w) == 7850
        assert ([(log.uplink_scalars, log.downlink_scalars) for log in res.logs]
                == [comm_cost(cfg, 7850, t) for t in (1, 2)])

    @pytest.mark.parametrize("side,classes,message", [(14, 10, "196 pixels"), (28, 11, "label 10")])
    def test_files_not_of_mnist_shape_exit_2(self, tmp_path, capsys, side, classes, message):
        mnist_dir = self.write_mnist(tmp_path / "mnist", side, classes)
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(f"data = mnist\nmnist_dir = {mnist_dir}\nsteps = 2\nk = 4\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and not (tmp_path / "o").exists()


def test_full_local_data_uses_whole_shard_every_step():
    # 40-row shards within the batch: every read is the whole shard, in order
    cfg = ExperimentConfig(**{**SYNTH, "batch_size": 64, "steps": 3,
                              "synth_samples": 120, "clients": 3})
    setup = federation._Setup(cfg)
    for _ in range(2):
        for i, (X, _) in enumerate(setup.gather(slice(None))[2]):
            assert np.array_equal(X, setup.data.features[setup.data.cursors[i].shard])
    run_experiment(cfg)  # engine runs end to end in this mode


@pytest.mark.slow
def test_full_knowledge_is_strongest_attack_on_hard_synth():
    # offline analog of the attack-ordering criterion: non-IID shards,
    # alpha = beta = 0.25, accuracy compared at a fixed early step
    base = ExperimentConfig(
        model="logreg", data="synth", synth_samples=6000, synth_features=24,
        synth_classes=10, distribution="noniid", clients=12, alpha=0.25,
        beta=0.25, mu=1e-3, k=32, eta=0.05, steps=40, batch_size=32,
        attack="none", root_seed=900, data_seed=77, eval_every=20,
    )
    from dataclasses import replace

    acc = {}
    for attack in ("full_knowledge", "always_small", "always_large",
                   "random_choice", "label_flip"):
        vals = []
        for j in range(3):
            res = run_experiment(replace(base, attack=attack, root_seed=900 + j))
            vals.append({l.step: l.test_acc for l in res.logs}[40])
        acc[attack] = float(np.mean(vals))
    for attack, mean_acc in acc.items():
        assert acc["full_knowledge"] <= mean_acc, acc
