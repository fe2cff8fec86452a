from dataclasses import replace

import numpy as np
import pytest

from cyber0 import data as data_module
from cyber0 import federation
from cyber0.cli import csv_lines, load_config, main
from cyber0.core import project_ball
from cyber0.data import MNIST_FILES, BatchCursor, ClientData, Dataset
from cyber0.federation import (
    ExperimentConfig,
    comm_cost,
    model_dimension,
    run_cyber0,
    run_experiment,
)
from cyber0.losses import LogisticRegressionModel, QuadraticModel
from cyber0.robust import robust_direction_aggregate
from cyber0.seedstream import (
    RngStream,
    SeedTuple,
    StreamKind,
    derive_seed,
    make_direction,
    sphere_direction,
)
from cyber0.zo import NonFiniteLossError, apply_update, direction_seed, zo_coefficient
from test_data import write_idx


SYNTH = dict(
    model="logreg", data="synth", synth_samples=1200, synth_features=16,
    synth_classes=4, distribution="iid", clients=6, alpha=0.0, beta=0.25,
    mu=1e-3, k=8, eta=0.05, steps=25, batch_size=32, attack="none",
    root_seed=42, data_seed=17, eval_every=5,
)

QUAD = dict(
    model="quadratic", quad_dim=12, quad_lambda=1.0, clients=4, alpha=0.0,
    beta=0.0, mu=0.0, mu_zero=True, k=6, eta=0.3, steps=20,
    direction_mode="sphere", attack="none", init="sphere", init_radius=1.0,
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
    ("mu_zero_e2", {**SYNTH, "mu": 0.0, "mu_zero": True, "local_epochs": 2, "steps": 10},
     (1.3311752194576396, 49.333333333333336, 0.3030342301013686)),
    ("quad_mu_e2", {**QUAD, "mu": 1e-3, "mu_zero": False, "local_epochs": 2, "steps": 10},
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
    ("full_local_label_flip", {**BYZ, "attack": "label_flip", "full_local_data": True,
                               "synth_samples": 240, "steps": 10},
     (1.357930259324307, 35.0, 0.1826083128252486)),
    ("coordwise_tm_noniid_label_flip", {**BYZ, "algorithm": "coordwise_tm",
                                        "distribution": "noniid", "attack": "label_flip",
                                        "clients": 8, "alpha": 0.25, "beta": 0.25},
     (1.283802280733976, 50.0, 0.8124607243762099)),
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
    ("quad_mu_e2_projected", {**QUAD, "mu": 1e-3, "mu_zero": False, "local_epochs": 2,
                              "project_radius": 0.5, "steps": 7}, 3, False),
    ("mnist_size", {**SYNTH, "synth_features": 784, "synth_classes": 10, "k": 64, "steps": 3},
     None, False),
]


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
            a = run_cyber0(cfg)
            b = run_cyber0(cfg)
            assert logs_equal(a.logs, b.logs)
            assert np.array_equal(a.final_w, b.final_w)

    @pytest.mark.parametrize("overrides,rounds,binds", [c[1:] for c in REGENERATED],
                             ids=[c[0] for c in REGENERATED])
    def test_final_w_regenerates_from_seeds(self, monkeypatch, overrides, rounds, binds):
        # the seed-replay contract: anyone holding the config and the
        # step's E*k aggregates rebuilds the engine's w bit for bit from
        # the documented identity alone, across window boundaries
        cfg = ExperimentConfig(**overrides)
        k, d = cfg.k, model_dimension(cfg)
        per_round = cfg.local_epochs * k * d
        if rounds is not None:
            monkeypatch.setattr(federation, "WINDOW_VALUES", rounds * per_round)
        assert max(1, federation.WINDOW_VALUES // per_round) < cfg.steps
        aggs = []

        def spy(matrix, beta):
            aggs.append(robust_direction_aggregate(matrix, beta))
            return aggs[-1].copy()

        monkeypatch.setattr(federation, "robust_direction_aggregate", spy)
        final_w = run_cyber0(cfg).final_w
        assert len(aggs) == cfg.steps

        w = np.zeros(d)
        if cfg.init == "sphere":
            init_seed = derive_seed(SeedTuple(cfg.root_seed, 2, 0, 0, StreamKind.INIT))
            w = cfg.init_radius * sphere_direction(init_seed, d)
        for t, agg in enumerate(aggs):
            for e in range(cfg.local_epochs):
                for r in range(k):
                    seed = direction_seed(cfg.root_seed, t, r, e)
                    z = (sphere_direction(seed, d) if cfg.direction_mode == "sphere"
                         else RngStream(seed).gaussians(d))
                    w += (-(cfg.eta * agg[e * k + r]) / k) * z
            if cfg.project_radius > 0:
                w = project_ball(w, cfg.project_radius)
        assert np.array_equal(final_w, w)
        if binds:
            assert np.linalg.norm(w) == pytest.approx(cfg.project_radius, rel=1e-12)


@pytest.mark.parametrize("overrides,expected", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_outputs_match_recorded_values(overrides, expected):
    res = run_experiment(ExperimentConfig(**overrides))
    got = (res.final_train_loss, res.final_test_acc, float(np.linalg.norm(res.final_w)))
    assert got == pytest.approx(expected, rel=1e-12, nan_ok=True)


class TestLocalEpochs:
    def test_uplink_counts_scale_with_epochs(self):
        cfg = ExperimentConfig(**{**SYNTH, "local_epochs": 3, "steps": 4, "eval_every": 1})
        res = run_cyber0(cfg)
        assert res.logs[-1].uplink_scalars == 4 * 3 * cfg.k

    def test_fixed_work_budget_accuracy_stable(self):
        # E * T held fixed: final accuracies land close together
        base = {**SYNTH, "synth_samples": 1600, "steps": 40, "eval_every": 40, "k": 8}
        r1 = run_cyber0(ExperimentConfig(**base))
        r5 = run_cyber0(ExperimentConfig(**{**base, "steps": 8, "local_epochs": 5,
                                            "eval_every": 8}))
        assert abs(r1.final_test_acc - r5.final_test_acc) <= 3.0


class TestEnginePathsAgree:
    @pytest.mark.parametrize("local_epochs", [1, 2])
    def test_fast_path_matches_literal_zo_coefficient(self, monkeypatch, local_epochs):
        # one round, no attack: the engine's coefficients vs the per-client
        # op, at the synchronized w in epoch 0 and at each client's drifted
        # w in later epochs
        cfg = ExperimentConfig(**{**SYNTH, "steps": 1, "clients": 3, "k": 4, "eval_every": 1,
                                  "local_epochs": local_epochs})
        seen = []

        def spy(matrix, beta):
            seen.append(matrix.copy())
            return robust_direction_aggregate(matrix, beta)

        monkeypatch.setattr(federation, "robust_direction_aggregate", spy)
        run_cyber0(cfg)
        (matrix,) = seen
        setup = federation._Setup(cfg)
        epoch_batches = [setup.gather(slice(None))[2] for _ in range(cfg.local_epochs)]
        k, d, mode = cfg.k, setup.d, setup.direction_mode
        for i in range(cfg.clients):
            w = setup.w.copy()
            for e in range(cfg.local_epochs):
                fast = matrix[i, e * k : (e + 1) * k]
                for r in range(k):
                    z = make_direction(direction_seed(cfg.root_seed, 0, r, e), d, mode)
                    literal = zo_coefficient(setup.model, w, epoch_batches[e][i], z, cfg.mu,
                                             setup.scale)
                    assert fast[r] == pytest.approx(literal, rel=1e-9, abs=1e-12)
                seeds = direction_seed(cfg.root_seed, 0, np.arange(k), e)
                apply_update(w, fast, make_direction(seeds, d, mode), cfg.eta, 0)

    def test_mu_zero_engine_matches_mu_positive_on_quadratic(self):
        # quadratic: the finite difference is exact, so the two modes coincide
        a = run_cyber0(ExperimentConfig(**QUAD))
        b = run_cyber0(ExperimentConfig(**{**QUAD, "mu": 1e-4, "mu_zero": False}))
        for x, y in zip(a.logs, b.logs):
            assert x.train_loss == pytest.approx(y.train_loss, rel=1e-6, abs=1e-12)


class TestDirectionWindow:
    @pytest.mark.parametrize("local_epochs", [1, 3])
    @pytest.mark.parametrize("base", [QUAD, SYNTH], ids=["quad", "synth"])
    def test_output_does_not_depend_on_window(self, base, local_epochs, monkeypatch):
        # the default budget holds the whole run here; 3 rounds per window
        # leaves a short last window (10 steps), 1 round is a window per step
        cfg = ExperimentConfig(**{**base, "mu": 1e-3, "mu_zero": False, "steps": 10,
                                  "eval_every": 3, "local_epochs": local_epochs})
        per_round = local_epochs * cfg.k * model_dimension(cfg)
        assert federation.WINDOW_VALUES // per_round >= cfg.steps

        def run(budget):
            monkeypatch.setattr(federation, "WINDOW_VALUES", budget)
            res = run_cyber0(cfg)
            return res.final_w, csv_lines(res.logs)

        default = run(federation.WINDOW_VALUES)
        for rounds in (1, 3):
            w, lines = run(rounds * per_round)
            assert np.array_equal(w, default[0]) and lines == default[1]


# configs whose clients the engine evaluates in row groups: E in {1, 3},
# k in {1, 8, 64}, unequal batches (non-IID shards of 15 and 30 rows against
# batch 32), whole shards, computing Byzantine clients (label_flip), mu = 0
GROUP_CASES = {
    "iid_k8": {},
    "iid_e3_k1": {"local_epochs": 3, "k": 1},
    "iid_k64": {"k": 64},
    "noniid_small_shards_e3": {"distribution": "noniid", "synth_samples": 120,
                               "local_epochs": 3},
    "noniid_small_shards_k1": {"distribution": "noniid", "synth_samples": 120, "k": 1},
    "full_local_data_e3_k64": {"full_local_data": True, "synth_samples": 240,
                               "local_epochs": 3, "k": 64},
    "label_flip_e3": {"alpha": 1 / 3, "beta": 1 / 3, "attack": "label_flip",
                      "local_epochs": 3},
    "label_flip_noniid_k64": {"alpha": 1 / 3, "beta": 1 / 3, "attack": "label_flip",
                              "distribution": "noniid", "synth_samples": 120, "k": 64},
    "mu_zero_e3": {"mu": 0.0, "mu_zero": True, "local_epochs": 3},
    "mu_zero_noniid_k1": {"mu": 0.0, "mu_zero": True, "distribution": "noniid",
                          "synth_samples": 120, "k": 1},
}


class TestClientGroups:
    @pytest.mark.parametrize("overrides", GROUP_CASES.values(), ids=GROUP_CASES.keys())
    def test_output_does_not_depend_on_group_budget(self, overrides, monkeypatch):
        # one client per group, groups of about two clients, the default,
        # and one group for every client: the same final w and log bytes
        cfg = ExperimentConfig(**{**SYNTH, "steps": 8, "eval_every": 2, **overrides})
        setup = federation._Setup(cfg)
        n, width = len(setup.computing), cfg.k * cfg.synth_classes
        pair = 2 * width * setup.data.rows_per_read(0)
        runs, sizes = [], []
        for budget in (1, pair, data_module.GROUP_VALUES, 1 << 62):
            monkeypatch.setattr(data_module, "GROUP_VALUES", budget)
            sizes.append(len(setup.data.groups(setup.computing, width)))
            res = run_cyber0(cfg)
            runs.append((res.final_w, csv_lines(res.logs)))
        assert sizes[0] == n and 1 < sizes[1] < n and sizes[3] == 1
        for w, lines in runs[1:]:
            assert np.array_equal(w, runs[0][0]) and lines == runs[0][1]


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
        run_cyber0(cfg)
        setup = federation._Setup(cfg)
        assert setup.byz and cursors == set(setup.honest)
        read = [i for readers, _ in gathers for i in readers]
        assert not set(read) & set(setup.byz)
        assert all(rows == cfg.batch_size * len(readers) for readers, rows in gathers)
        assert sorted(read) == sorted(setup.honest * (cfg.steps * cfg.local_epochs))


class TestDataFreeQuadratic:
    def test_one_worker_serves_every_client(self, profile_dir, monkeypatch):
        # every client starts from the synchronized w with no batch, so one
        # client's E epochs are computed once per round, not once per client
        cfg = replace(load_config(profile_dir / "quad_mu_floor.cfg"), local_epochs=2, steps=5)
        assert cfg.clients == 4
        calls = []
        kernel = QuadraticModel.loss_batch_multi

        def counting(self, *args):
            calls.append(1)
            return kernel(self, *args)

        monkeypatch.setattr(QuadraticModel, "loss_batch_multi", counting)
        run_cyber0(cfg)
        assert len(calls) == cfg.steps * cfg.local_epochs


class TestBaselines:
    def test_fedavg_m1_is_centralized_sgd(self):
        cfg = ExperimentConfig(**{**SYNTH, "clients": 1, "algorithm": "fedavg", "steps": 12})
        res = run_experiment(cfg)
        # manual trace with the same batch stream
        from cyber0.data import partition_iid, synth_generate

        train = synth_generate(cfg.data_seed, cfg.synth_samples, cfg.synth_features,
                               cfg.synth_classes, split=0)
        shard = partition_iid(train, 1, cfg.data_seed).shards[0]
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
        up, down = comm_cost(cfg, 400)
        assert up == 25_600
        assert down == 400 * 64 + model_dimension(cfg) + 1

    def test_fedavg_uplink_is_d_per_step(self):
        cfg = ExperimentConfig(model="logreg", data="mnist", algorithm="fedavg", steps=400)
        assert model_dimension(cfg) == 7850
        up, _ = comm_cost(cfg, 400)
        assert up == 3_140_000

    def test_hundredfold_saving_ratio(self):
        zo_cfg = ExperimentConfig(model="logreg", data="mnist", k=64)
        fo_cfg = ExperimentConfig(model="logreg", data="mnist", algorithm="fedavg")
        up_zo, _ = comm_cost(zo_cfg, 400)
        up_fo, _ = comm_cost(fo_cfg, 400)
        assert up_fo / up_zo == pytest.approx(7850 / 64)

    def test_zero_rounds_zero_cost(self):
        assert comm_cost(ExperimentConfig(**SYNTH), 0) == (0, 0)

    def test_broadcast_model_option(self):
        cfg = ExperimentConfig(**{**SYNTH, "broadcast_model": True})
        d = model_dimension(cfg)
        up, down = comm_cost(cfg, 10)
        assert up == 10 * cfg.k
        assert down == d + 1 + 10 * d

    def test_logged_counters_match_comm_cost_and_are_monotone(self):
        cfg = ExperimentConfig(**{**SYNTH, "steps": 12, "eval_every": 3})
        res = run_cyber0(cfg)
        prev_up = prev_down = -1
        for log in res.logs:
            assert (log.uplink_scalars, log.downlink_scalars) == comm_cost(cfg, log.step)
            assert log.uplink_scalars > prev_up and log.downlink_scalars > prev_down
            prev_up, prev_down = log.uplink_scalars, log.downlink_scalars

    def test_uplink_independent_of_dimension(self):
        small = ExperimentConfig(**{**SYNTH, "synth_features": 8})
        large = ExperimentConfig(**{**SYNTH, "synth_features": 64})
        assert comm_cost(small, 7)[0] == comm_cost(large, 7)[0]


class TestAttackPlumbing:
    def test_attack_inert_on_constant_columns(self):
        # identical client data -> identical honest coefficients per column ->
        # every attack leaves the aggregate unchanged
        base = {**QUAD, "clients": 8, "alpha": 0.25, "beta": 0.25, "steps": 8}
        clean = run_cyber0(ExperimentConfig(**base))
        for attack in ("full_knowledge", "always_small", "always_large", "random_choice"):
            attacked = run_cyber0(ExperimentConfig(**{**base, "attack": attack}))
            assert logs_equal(clean.logs, attacked.logs)
            assert np.array_equal(clean.final_w, attacked.final_w)

    def test_full_knowledge_slows_convergence_on_synth(self):
        base = {**SYNTH, "clients": 9, "alpha": 1 / 3, "beta": 1 / 3, "steps": 40,
                "eval_every": 40}
        clean = run_cyber0(ExperimentConfig(**base))
        fk = run_cyber0(ExperimentConfig(**{**base, "attack": "full_knowledge"}))
        assert fk.final_train_loss > clean.final_train_loss

    def test_containment_under_huge_byzantine_values(self):
        # direct engine-level check: a run with full_knowledge cannot diverge
        cfg = ExperimentConfig(**{**SYNTH, "alpha": 1 / 3, "beta": 1 / 3,
                                  "attack": "full_knowledge", "steps": 15})
        res = run_cyber0(cfg)
        assert np.all(np.isfinite(res.final_w))


class TestFailureModes:
    def test_nonfinite_abort_carries_context(self):
        # a divergent step size on the quadratic overflows quickly
        cfg = ExperimentConfig(**{**QUAD, "eta": 1e300, "steps": 50, "mu": 1e-3,
                                  "mu_zero": False})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLossError) as err:
                run_cyber0(cfg)
        assert err.value.step >= 0

    def test_check_finite_names_first_bad_entry(self):
        # computing clients 0, 2, 3, 4; client 1 does not compute and its row
        # stays zero. The first bad entry in client order is the NaN of
        # client 2 at direction 5, ahead of the inf at an earlier direction
        matrix = np.zeros((5, 8))
        matrix[[0, 2, 3, 4]] = np.arange(32.0).reshape(4, 8)
        clean = matrix.copy()
        federation._check_finite(clean, 7, np.array([0, 2, 3, 4]))
        assert np.array_equal(clean, matrix)
        matrix[2, 5] = np.nan
        matrix[3, 1] = np.inf
        with pytest.raises(NonFiniteLossError,
                           match="step 7, direction 5, client 2$") as err:
            federation._check_finite(matrix, 7, np.array([0, 2, 3, 4]))
        assert (err.value.step, err.value.direction, err.value.client) == (7, 5, 2)
        matrix[2, 5] = -np.inf
        matrix[0, 6] = np.nan
        with pytest.raises(NonFiniteLossError) as err:
            federation._check_finite(matrix, 0, np.array([0, 2, 3, 4]))
        assert (err.value.step, err.value.direction, err.value.client) == (0, 6, 0)

    def test_first_order_nonfinite_gradient_aborts(self):
        # no logged round before the end, so the overflowed gradient is
        # caught before any train loss is
        cfg = ExperimentConfig(**{**QUAD, "algorithm": "fedavg", "eta": 1e300, "steps": 50,
                                  "eval_every": 50})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLossError, match="non-finite gradient at step") as err:
                run_experiment(cfg)
        assert err.value.step >= 0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "alpha": 0.5})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "beta": 0.6})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "mu": 0.0})
        with pytest.raises(ValueError, match="mu_zero = true requires mu = 0"):
            ExperimentConfig(**{**SYNTH, "mu_zero": True})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "eta": -1.0})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "attack": "bogus"})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SYNTH, "algorithm": "fedavg", "local_epochs": 2})


class TestEndToEndSynth:
    def test_cyber0_tracks_fedavg_on_separable_data(self):
        base = {**SYNTH, "synth_samples": 1600, "steps": 120, "k": 16,
                "eval_every": 120}
        zo = run_cyber0(ExperimentConfig(**base))
        fo = run_experiment(ExperimentConfig(**{**base, "algorithm": "fedavg"}))
        assert fo.final_test_acc >= 95.0
        assert abs(zo.final_test_acc - fo.final_test_acc) <= 3.0

    def test_projection_keeps_iterates_inside_ball(self):
        cfg = ExperimentConfig(**{**QUAD, "project_radius": 0.5, "steps": 10})
        res = run_cyber0(cfg)
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
        assert model_dimension(cfg) == 7850
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
        assert len(res.final_w) == model_dimension(cfg)
        assert ([(log.uplink_scalars, log.downlink_scalars) for log in res.logs]
                == [comm_cost(cfg, t) for t in (1, 2)])

    @pytest.mark.parametrize("side,classes,message", [(14, 10, "196 pixels"), (28, 11, "label 10")])
    def test_files_not_of_mnist_shape_exit_2(self, tmp_path, capsys, side, classes, message):
        mnist_dir = self.write_mnist(tmp_path / "mnist", side, classes)
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(f"data = mnist\nmnist_dir = {mnist_dir}\nsteps = 2\nk = 4\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and not (tmp_path / "o").exists()


def test_full_local_data_uses_whole_shard_every_step():
    cfg = ExperimentConfig(**{**SYNTH, "full_local_data": True, "steps": 3,
                              "synth_samples": 120, "clients": 3})
    from cyber0.federation import _Setup

    setup = _Setup(cfg)
    first = setup.gather(slice(None))[2]
    second = setup.gather(slice(None))[2]
    for i in range(3):
        assert len(first[i][0]) == len(setup.data.shards[i])
        assert np.array_equal(first[i][0], second[i][0])
    run_cyber0(cfg)  # engine runs end to end in this mode


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
