"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line printed per criterion.

Criteria 1-6 make the calls that ``verify.lemma_suite`` and
``verify.theorem_suite`` make, so each asserts what ``cyber0 verify`` reports.

The three MNIST criteria run against the real IDX files and skip (loudly)
when the dataset is absent; everything else runs offline. Heavy cases are
marked ``slow`` so developers can deselect them with ``-m "not slow"``.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cyber0.cli import load_config, main
from cyber0.data import MNIST_CLASSES, MNIST_FEATURES
from cyber0.federation import (
    ExperimentConfig,
    comm_cost,
    run_experiment,
)
from cyber0.losses import LogisticRegressionModel
from cyber0.seedstream import RngStream
from cyber0.verify import (
    check_cross_bound,
    check_floor_mu_positive,
    check_isotropy,
    check_norm_factor,
    check_rate_mu0,
    check_smoothed_gap,
)
from test_robust import column_trimmed_mean


def report(name: str, passed: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {'PASS' if passed else 'FAIL'} {name}" + (f" [{detail}]" if detail else ""))


class TestLemmaCriteria:
    @pytest.mark.slow
    def test_criterion_1_isotropy(self):
        started = time.monotonic()
        res = check_isotropy()
        elapsed = time.monotonic() - started
        report("1 isotropy", res.passed and elapsed < 10.0,
               f"max dev {res.estimate:.2e}, {elapsed:.1f}s")
        assert res.passed and res.estimate - res.target < 0.002
        assert elapsed < 10.0

    @pytest.mark.slow
    def test_criterion_2_norm_factor(self):
        started = time.monotonic()
        low = check_norm_factor(k=1, rel_tol=0.03)
        high = check_norm_factor(k=512, rel_tol=0.02)
        elapsed = time.monotonic() - started
        report("2 norm-factor", low.passed and high.passed and elapsed < 30.0,
               f"k=1: {low.estimate:.4f} vs {low.target}; k=512: {high.estimate:.5f} vs "
               f"{high.target:.5f}; {elapsed:.1f}s")
        # the lemma's (d + k - 1) / k at d = 8, and the check's own target
        assert abs(low.estimate - 8.0) <= 0.03 * 8.0
        assert abs(high.estimate - 519 / 512) <= 0.02 * 519 / 512
        for res in (low, high):
            assert res.passed and abs(res.estimate - res.target) <= res.tolerance * res.target
        assert elapsed < 30.0

    @pytest.mark.slow
    def test_criterion_3_cross_bound(self):
        res = check_cross_bound()
        report("3 cross-bound", res.passed, res.detail)
        assert res.passed and res.estimate <= res.target * 0.9

    def test_criterion_4_smoothed_gap(self):
        res = check_smoothed_gap()
        report("4 smoothed-gap", res.passed,
               f"deviation {res.estimate:.2e} vs 5% of {res.target}")
        assert res.passed and res.estimate <= 0.05 * res.target


class TestTheoremCriteria:
    def test_criterion_5_contraction_rate(self):
        started = time.monotonic()
        res = check_rate_mu0()
        elapsed = time.monotonic() - started
        report("5 theorem-rate", res.passed and elapsed < 60.0,
               f"fitted {res.estimate:.4f} <= {res.target:.4f} + 0.02, {elapsed:.1f}s")
        assert res.passed and res.estimate <= res.target + 0.02
        assert elapsed < 60.0

    @pytest.mark.slow
    def test_criterion_6_floor_shrinks_with_mu(self):
        shrink, round_off = check_floor_mu_positive()
        report("6 theorem-floor", shrink.passed and round_off.passed,
               f"{shrink.detail}, ratio {shrink.estimate:.1f}")
        assert shrink.passed and shrink.estimate >= shrink.target == 5.0
        # central differences are exact on the quadratic: both floors are round-off
        assert round_off.passed and round_off.estimate < round_off.tolerance == 1e-12


@pytest.mark.mnist
class TestMnistCriteria:
    @pytest.mark.slow
    def test_criterion_7_no_attack_tracks_fedavg(self, profile_dir):
        started = time.monotonic()
        zo = run_experiment(load_config(profile_dir / "mnist_iid_k64.cfg"))
        t_zo = time.monotonic() - started
        started = time.monotonic()
        fo = run_experiment(load_config(profile_dir / "mnist_iid_fedavg.cfg"))
        t_fo = time.monotonic() - started
        gap = abs(zo.final_test_acc - fo.final_test_acc)
        ok = fo.final_test_acc >= 88.0 and gap <= 3.0 and max(t_zo, t_fo) < 600
        report("7 mnist-no-attack", ok,
               f"k64 {zo.final_test_acc:.2f} vs fedavg {fo.final_test_acc:.2f}, "
               f"{t_zo:.0f}s/{t_fo:.0f}s")
        assert fo.final_test_acc >= 88.0
        assert gap <= 3.0
        assert t_zo < 600 and t_fo < 600

    @pytest.mark.slow
    def test_criterion_8_full_knowledge_accuracy(self, profile_dir):
        base = load_config(profile_dir / "mnist_m40_fullknowledge.cfg")
        # reference accuracies for the 40-client full-knowledge benchmark
        targets = {0.125: (87.1, 3.0), 0.25: (80.8, 3.0), 0.375: (60.3, 6.0)}
        started = time.monotonic()
        outcomes = {}
        for alpha, (target, tol) in targets.items():
            accs = [
                run_experiment(
                    replace(base, alpha=alpha, beta=alpha, root_seed=base.root_seed + j)
                ).final_test_acc
                for j in range(3)
            ]
            outcomes[alpha] = (float(np.mean(accs)), target, tol)
        elapsed = time.monotonic() - started
        ok = all(abs(mean - target) <= tol for mean, target, tol in outcomes.values())
        detail = "; ".join(
            f"a={a}: {mean:.1f} vs {target}+-{tol}" for a, (mean, target, tol) in outcomes.items()
        )
        report("8 mnist-full-knowledge", ok and elapsed < 3600, f"{detail}; {elapsed:.0f}s")
        for mean, target, tol in outcomes.values():
            assert abs(mean - target) <= tol
        assert elapsed < 3600

    @pytest.mark.slow
    def test_criterion_9_full_knowledge_is_strongest_attack(self, profile_dir):
        base = load_config(profile_dir / "mnist_attacks.cfg")
        attacks = ("full_knowledge", "always_small", "always_large",
                   "random_choice", "label_flip")
        acc_at_100 = {}
        for attack in attacks:
            vals = []
            for j in range(3):
                res = run_experiment(
                    replace(base, attack=attack, root_seed=base.root_seed + j)
                )
                by_step = {log.step: log.test_acc for log in res.logs}
                vals.append(by_step[100])
            acc_at_100[attack] = float(np.mean(vals))
        fk = acc_at_100["full_knowledge"]
        ok = all(fk <= acc_at_100[a] for a in attacks)
        report("9 attack-ordering", ok,
               "; ".join(f"{a}={v:.1f}" for a, v in acc_at_100.items()))
        for attack in attacks:
            assert fk <= acc_at_100[attack]


class TestAccountingAndDeterminism:
    def test_criterion_10_communication_accounting(self):
        zo_cfg = ExperimentConfig(model="logreg", data="mnist", k=64)
        fo_cfg = ExperimentConfig(model="logreg", data="mnist", algorithm="fedavg")
        d = LogisticRegressionModel(MNIST_FEATURES, MNIST_CLASSES).dimension
        per_step_up = comm_cost(zo_cfg, d, 1)[0]
        ok = (
            per_step_up == zo_cfg.local_epochs * zo_cfg.k
            and comm_cost(fo_cfg, d, 1)[0] == 7850
            and comm_cost(zo_cfg, d, 400)[0] == 25_600
            and comm_cost(fo_cfg, d, 400)[0] == 3_140_000
        )
        report("10 comm-accounting", ok)
        assert per_step_up == zo_cfg.local_epochs * zo_cfg.k == 64
        assert comm_cost(fo_cfg, d, 1)[0] == d == 7850
        assert comm_cost(zo_cfg, d, 400)[0] == 25_600
        assert comm_cost(fo_cfg, d, 400)[0] == 3_140_000

    def test_criterion_11_byte_identical_logs(self, profile_dir, tmp_path):
        profile = profile_dir / "synth_demo.cfg"
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", str(profile), "--out", str(out)]) == 0
            outs.append((out / "log.csv").read_bytes())
        ok = outs[0] == outs[1]
        report("11 determinism", ok, f"{len(outs[0])} bytes, reruns")
        assert ok, "rerun changed log.csv"

    @pytest.mark.mnist
    @pytest.mark.slow
    def test_criterion_11_mnist_profile_determinism(self, profile_dir, tmp_path):
        base = load_config(profile_dir / "mnist_iid_k64.cfg")
        cfg = replace(base, steps=20, eval_every=10)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        same = np.array_equal(a.final_w, b.final_w)
        report("11b mnist-determinism", same)
        assert same


class TestPropertySuites:
    def test_criterion_12_replay_and_oracles(self):
        # replay inverse: regenerated deltas are bit-identical and the
        # add/subtract cycle restores every coordinate to within one ulp
        w0 = RngStream(8).gaussians(4096) * 0.3
        w = w0.copy()
        z = RngStream(99).gaussians(4096)
        w += 1e-3 * z
        w += -1e-3 * RngStream(99).gaussians(4096)  # regenerated
        limit = 2 * np.spacing(np.maximum(np.abs(w0), np.abs(1e-3 * z)))
        replay_ok = bool(np.all(np.abs(w - w0) <= limit))

        # trimmed mean vs brute-force sort oracle, 1e4 random multisets
        rng = np.random.default_rng(12)
        trim_ok = True
        for _ in range(10_000):
            m = int(rng.integers(1, 25))
            beta = float(rng.uniform(0, 0.5))
            x = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
            xs = sorted(x)
            g = int(np.floor(beta * m))
            kept = xs[g : m - g]
            oracle = kept[0] if kept[0] == kept[-1] else sum(kept) / len(kept)
            if column_trimmed_mean(x, beta) != oracle:
                trim_ok = False
                break

        # containment under 1e300-magnitude Byzantine values
        honest = rng.normal(size=9)
        spiked = np.concatenate([honest, np.full(3, 1e300)])
        v = column_trimmed_mean(spiked, 0.25)
        v2 = column_trimmed_mean(np.concatenate([honest, np.full(3, -1e300)]), 0.25)
        contain_ok = honest.min() <= v <= honest.max() and honest.min() <= v2 <= honest.max()

        # gradient / finite-difference agreement
        model = LogisticRegressionModel(input_dim=10, num_classes=4)
        X = rng.uniform(0, 1, size=(20, 10))
        y = rng.integers(0, 4, size=20)
        w = rng.normal(size=model.dimension) * 0.4
        g = model.grad(w, (X, y))
        h = 1e-5
        grad_ok = True
        for j in rng.choice(model.dimension, size=20, replace=False):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (model.eval(wp, (X, y)) - model.eval(wm, (X, y))) / (2 * h)
            if abs(g[j] - fd) > 1e-5 * max(abs(fd), 1e-4):
                grad_ok = False
                break

        ok = replay_ok and trim_ok and contain_ok and grad_ok
        report("12 property-suites", ok,
               f"replay={replay_ok} trim={trim_ok} contain={contain_ok} grad={grad_ok}")
        assert replay_ok and trim_ok and contain_ok and grad_ok
