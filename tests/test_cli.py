from pathlib import Path

import numpy as np
import pytest

from cyber0.cli import (
    CSV_HEADER,
    ConfigParseError,
    config_lines,
    load_config,
    main,
    parse_config_text,
)
from cyber0.federation import ExperimentConfig

PROFILE_DIR = Path(__file__).resolve().parent.parent / "profiles"

FAST_CFG = """\
# comment line
model = logreg
data = synth
synth_samples = 800
synth_features = 12
synth_classes = 3
clients = 4
beta = 0.25
mu = 0.001
k = 4            # inline comment
eta = 0.05
steps = 8
batch_size = 16
eval_every = 4
"""


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG)
    return p


class TestConfigParsing:
    def test_round_trip_values(self, fast_config):
        cfg = load_config(fast_config)
        assert cfg.k == 4 and cfg.steps == 8 and cfg.synth_classes == 3

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("steps = 5\nbogus_key = 1\n")
        assert err.value.line == 2

    def test_missing_equals_reports_position(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("steps 5\n")
        assert err.value.line == 1

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config_text("steps = 5\nsteps = 6\n")

    def test_value_error_reports_exact_key_line(self):
        # "mu" must not match the "mu_zero" line by prefix
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("k = 8\nmu_zero = false\nsteps = 5\nmu = abc\n")
        assert err.value.line == 4

    def test_cross_field_error_reports_its_key_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("steps = 5\nmu = 0.01\nk = 0\n")
        assert err.value.line == 3

    def test_mu_zero_mismatch_reports_mu_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("steps = 5\nk = 4\nmu_zero = false\nmu = 0\n")
        assert err.value.line == 4

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config_text("steps = five\n")

    @pytest.mark.parametrize("key,value", [
        ("quad_dim", "0"), ("eta", "nan"), ("mu", "nan"), ("quad_lambda", "nan"),
        ("quad_lambda", "inf"), ("quad_lambda", "0"), ("synth_classes", "1"),
        ("synth_samples", "0"), ("synth_features", "0"), ("init_radius", "nan"),
        ("init_radius", "inf"), ("project_radius", "nan"), ("project_radius", "-1"),
    ])
    def test_out_of_range_value_reports_its_key_line(self, key, value):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text(f"steps = 5\nmu_zero = false\n{key} = {value}\nk = 4\n")
        assert err.value.line == 3
        assert str(err.value).startswith(f"line 3, column 1: {key} ")

    def test_config_mapping_round_trip(self):
        # every field type: str, int (a full 64-bit seed), float, bool
        cfg = ExperimentConfig(model="quadratic", quad_dim=7, alpha=1 / 3, beta=1 / 3,
                               eta=0.1 + 0.2, full_local_data=True, root_seed=2**64 - 1)
        lines = config_lines(cfg)
        assert "full_local_data = true" in lines and "eta = 0.30000000000000004" in lines
        assert parse_config_text("\n".join(lines)) == cfg

    def test_bundled_profiles_parse(self):
        for profile in sorted(PROFILE_DIR.glob("*.cfg")):
            cfg = load_config(profile)
            assert isinstance(cfg, ExperimentConfig)


class TestRun:
    def test_run_writes_csv_and_manifest(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(fast_config), "--out", str(out)]) == 0
        text = (out / "log.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2  # eval_every=4, steps=8
        assert (out / "manifest").exists()
        assert "wrote" in capsys.readouterr().out

    def test_rerun_byte_identical(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(fast_config), "--out", str(out1)])
        main(["run", str(fast_config), "--out", str(out2)])
        assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()

    def test_manifest_reproduces_run(self, fast_config, tmp_path):
        out1 = tmp_path / "a"
        main(["run", str(fast_config), "--out", str(out1)])
        # the manifest is itself a parseable config file
        cfg = load_config(out1 / "manifest")
        assert cfg == load_config(fast_config)
        out2 = tmp_path / "b"
        main(["run", str(out1 / "manifest"), "--out", str(out2)])
        assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model = logreg\nsteps = soon\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 2

    def test_too_few_samples_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(FAST_CFG.replace("synth_samples = 800", "synth_samples = 10")
                       .replace("clients = 4", "clients = 12"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_missing_mnist_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(FAST_CFG.replace("data = synth", "data = mnist")
                       + f"mnist_dir = {tmp_path / 'missing'}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_directory_config_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# r\u00e9sum\u00e9\nsteps = 5\n".encode("latin-1"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_out_of_range_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text("model = quadratic\nquad_dim = 0\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: line 2, column 1: quad_dim must be >= 1, got 0\n"
        assert not (tmp_path / "o").exists()

    def test_divergent_run_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "model = quadratic\nquad_dim = 8\nclients = 2\nbeta = 0.0\n"
            "mu = 0.001\nk = 2\neta = 1e300\nsteps = 40\n"
            "direction_mode = sphere\ninit = sphere\n"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["", "algorithm = fedavg\nquad_lambda = 1e10\n"],
                             ids=["cyber0", "fedavg"])
    def test_divergent_projected_run_exit_3(self, tmp_path, capsys, engine):
        # the update overflows w, which must end the run as diverged, not
        # as a projection input error
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "model = quadratic\nquad_dim = 16\nclients = 4\nalpha = 0\nbeta = 0\n"
            "mu = 0\nmu_zero = true\nk = 4\neta = 1e308\nsteps = 5\n"
            "direction_mode = sphere\ninit = sphere\nproject_radius = 1.0\n" + engine
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: run diverged: non-finite parameters at step 0\n"
        assert not (tmp_path / "o").exists()

    def test_divergent_first_order_run_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "model = quadratic\nquad_dim = 8\nclients = 2\nbeta = 0.0\n"
            "algorithm = fedavg\neta = 1e300\nsteps = 40\neval_every = 40\n"
            "init = sphere\n"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "non-finite gradient" in err
        assert not (tmp_path / "o").exists()


class TestVerifyCommand:
    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err


class TestSweep:
    def test_sweep_emits_runs_and_summary(self, fast_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", str(fast_config), "--param", "k",
                     "--values", "1,2,4", "--out", str(out)])
        assert code == 0
        for v in ("1", "2", "4"):
            assert (out / f"k={v}" / "log.csv").exists()
            assert (out / f"k={v}" / "manifest").exists()
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[0].startswith("param,value,")
        assert len(summary) == 4
        assert summary[1].split(",")[:2] == ["k", "1"]

    def test_empty_values_exit_2(self, fast_config, tmp_path, capsys):
        assert main(["sweep", str(fast_config), "--param", "k",
                     "--values", " , ", "--out", str(tmp_path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_unknown_param_exit_2(self, fast_config, tmp_path):
        assert main(["sweep", str(fast_config), "--param", "wat",
                     "--values", "1", "--out", str(tmp_path)]) == 2

    def test_too_few_samples_exit_2(self, fast_config, tmp_path, capsys):
        assert main(["sweep", str(fast_config), "--param", "synth_samples",
                     "--values", "800,3", "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_mnist_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(FAST_CFG.replace("data = synth", "data = mnist")
                       + f"mnist_dir = {tmp_path / 'missing'}\n")
        assert main(["sweep", str(cfg), "--param", "k",
                     "--values", "4", "--out", str(tmp_path / "s")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("# r\u00e9sum\u00e9\nsteps = 5\n".encode("latin-1"))
        for config in (tmp_path, latin1):
            assert main(["sweep", str(config), "--param", "k",
                         "--values", "4", "--out", str(tmp_path / "s")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_bad_later_value_writes_nothing(self, fast_config, tmp_path, capsys):
        # a usage error in any value is reported before the first run
        out = tmp_path / "sweep"
        assert main(["sweep", str(fast_config), "--param", "steps",
                     "--values", "2,abc", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: steps=abc: steps: expected an integer, got 'abc'\n")
        assert not out.exists()

    def test_bad_value_exit_2(self, fast_config, tmp_path, capsys):
        assert main(["sweep", str(fast_config), "--param", "alpha",
                     "--values", "0.9", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: alpha=0.9: alpha must satisfy 0 <= alpha < 1/2\n")
        assert main(["sweep", str(fast_config), "--param", "k",
                     "--values", "2,0", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: k=0: k must be >= 1, got 0\n"
