import ctypes
import gzip
import io
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyber0 import verify
from cyber0.adversary import AttackKind
from cyber0.cli import (
    CSV_HEADER,
    ConfigParseError,
    config_lines,
    load_config,
    main,
    parse_config_text,
)
from cyber0.data import IMAGES_MAGIC, LABELS_MAGIC, MNIST_FILES
from cyber0.federation import ExperimentConfig
from cyber0.seedstream import _openblas

ROOT = Path(__file__).resolve().parent.parent
PROFILE_DIR = ROOT / "profiles"

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


def manifest_comments(out: Path) -> dict[str, str]:
    """The ``# name: value`` comment lines of the manifest in ``out``."""
    return dict(line[2:].split(": ", 1) for line in (out / "manifest").read_text().splitlines()
                if line.startswith("# ") and ": " in line)


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
        # "data" must not match the "data_seed" line by prefix
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("k = 8\ndata_seed = 5\nsteps = 5\ndata = abc\n")
        assert err.value.line == 4

    def test_cross_field_error_reports_its_key_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("steps = 5\nmu = 0.01\nk = 0\n")
        assert err.value.line == 3

    def test_negative_mu_reports_mu_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("steps = 5\nk = 4\nmu = -1\n")
        assert err.value.line == 3
        assert str(err.value) == "line 3, column 1: mu must be finite and >= 0, got -1.0"

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config_text("steps = five\n")

    @pytest.mark.parametrize("key,value", [
        ("quad_dim", "0"), ("eta", "nan"), ("mu", "nan"), ("mu", "-1"), ("quad_lambda", "nan"),
        ("quad_lambda", "inf"), ("quad_lambda", "0"), ("synth_classes", "1"),
        ("synth_samples", "0"), ("synth_features", "0"), ("init_radius", "nan"),
        ("init_radius", "inf"), ("project_radius", "nan"), ("project_radius", "-1"),
    ])
    def test_out_of_range_value_reports_its_key_line(self, key, value):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text(f"steps = 5\nclients = 4\n{key} = {value}\nk = 4\n")
        assert err.value.line == 3
        assert str(err.value).startswith(f"line 3, column 1: {key} ")

    @pytest.mark.parametrize("path", ["/data/a#b", "/data/a\nb", "/data/a\rb", "/data/a\u2028b",
                                      " /data/a", "/data/a\t"],
                             ids=["hash", "newline", "return", "line_separator", "leading_space",
                                  "trailing_tab"])
    def test_mnist_dir_a_config_line_cannot_carry_is_rejected(self, path):
        # config_lines would write it, and parse_config_text read back a
        # path cut at '#' or the line break, or stripped, or fail; the
        # message's first word is the key a parse error blames
        try:
            assert parse_config_text(f"mnist_dir = {path}\n").mnist_dir != path
        except ConfigParseError:
            pass
        with pytest.raises(ValueError, match="^mnist_dir must not hold"):
            ExperimentConfig(mnist_dir=path)

    @pytest.mark.parametrize("path", ["", "/data/a b", "/data/a\tb", "/data/a=b", "C:\\mnist"])
    def test_mnist_dir_round_trips_through_config_lines(self, path):
        cfg = ExperimentConfig(mnist_dir=path)
        assert parse_config_text("\n".join(config_lines(cfg))) == cfg

    def test_config_mapping_round_trip(self):
        # every field type: str, int (a full 64-bit seed), float
        cfg = ExperimentConfig(model="quadratic", quad_dim=7, alpha=1 / 3, beta=1 / 3,
                               eta=0.1 + 0.2, root_seed=2**64 - 1)
        lines = config_lines(cfg)
        assert "root_seed = 18446744073709551615" in lines and "eta = 0.30000000000000004" in lines
        assert parse_config_text("\n".join(lines)) == cfg

    def test_readme_config_table_names_every_field(self):
        # the keys in the first column of README's "Config format" table
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        table = text.split("## Config format", 1)[1].split("| key | default | meaning |", 1)[1]
        rows = table.split("\n\n", 1)[0].splitlines()[2:]
        keys = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
        assert keys == {f.name for f in fields(ExperimentConfig)}

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

    @staticmethod
    def run_child(config: Path, out: Path, **env: str) -> dict[str, str]:
        """The comment lines of the manifest of ``cyber0 run config`` run
        in a child process with ``env`` added to its environment."""
        env = {**os.environ, **env,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "cyber0.cli", "run", str(config),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        return manifest_comments(out)

    def test_manifest_records_the_blas_environment(self, fast_config, tmp_path):
        # a child run with one OpenBLAS thread records that count, and its
        # comment lines keep the manifest rerunnable to the same log
        out1 = tmp_path / "a"
        comments = self.run_child(fast_config, out1, OPENBLAS_NUM_THREADS="1")
        assert comments["numpy"] == np.__version__
        out2 = tmp_path / "b"
        assert main(["run", str(out1 / "manifest"), "--out", str(out2)]) == 0
        assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()
        if _openblas("scipy_openblas_get_config64_", ctypes.c_char_p) == "unknown":
            pytest.skip("this numpy does not expose its OpenBLAS; both lines read unknown")
        assert comments["openblas_threads"] == "1"
        assert comments["openblas_config"].startswith("OpenBLAS ")  # names the CPU kernel

    def test_manifest_records_numpy_cpu_dispatch(self, fast_config, tmp_path):
        # a child without numpy's AVX-512 loops (np.log rounds apart there)
        # records other dispatch targets than this process, and its
        # manifest reruns under the same restriction to the same log
        from numpy._core import _multiarray_umath as core
        if not core.__cpu_features__.get("X86_V4"):
            pytest.skip("this CPU has no X86_V4 (AVX-512) loops to switch off")
        main(["run", str(fast_config), "--out", str(tmp_path / "full")])
        full = manifest_comments(tmp_path / "full")["numpy_cpu_dispatch"]
        assert "X86_V4" in full.split()
        restricted = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        first = self.run_child(fast_config, tmp_path / "a", **restricted)
        again = self.run_child(tmp_path / "a" / "manifest", tmp_path / "b", **restricted)
        assert first["numpy_cpu_dispatch"] != full
        assert "X86_V4" not in first["numpy_cpu_dispatch"].split()
        assert again["numpy_cpu_dispatch"] == first["numpy_cpu_dispatch"]
        assert (tmp_path / "a" / "log.csv").read_bytes() == (tmp_path / "b" / "log.csv").read_bytes()

    @pytest.mark.parametrize("removed", ["broadcast_model = false", "mu_zero = false",
                                         "init = zeros", "debug_replicas = false",
                                         "full_local_data = false"],
                             ids=lambda line: line.split(" ")[0])
    def test_removed_key_exit_2_at_its_line(self, fast_config, tmp_path, capsys, removed):
        # a manifest written before the key was removed holds its line: exit 2
        # at that line, and the manifest without it reproduces the run
        out1 = tmp_path / "a"
        main(["run", str(fast_config), "--out", str(out1)])
        lines = (out1 / "manifest").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if not line.startswith("#") and line > removed)
        old = tmp_path / "old_manifest"
        old.write_text("\n".join([*lines[:at], removed, *lines[at:]]) + "\n")
        capsys.readouterr()
        assert main(["run", str(old), "--out", str(tmp_path / "b")]) == 2
        key = removed.split(" ")[0]
        assert f"line {at + 1}, column 1: unknown config key '{key}'" in capsys.readouterr().err
        old.write_text("\n".join(lines) + "\n")
        assert main(["run", str(old), "--out", str(tmp_path / "c")]) == 0
        assert (out1 / "log.csv").read_bytes() == (tmp_path / "c" / "log.csv").read_bytes()

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

    @pytest.mark.parametrize("broken", ["not_gzip", "truncated_gzip", "corrupt_gzip",
                                        "directory"])
    def test_unreadable_idx_exit_2(self, tmp_path, capsys, broken):
        # the train images, the first IDX file read, cannot be read or
        # decompressed: a set-up error naming the file, not a traceback
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        images = mnist / MNIST_FILES["train"][0]
        if broken == "directory":
            images.mkdir()
        else:
            packed = gzip.compress(struct.pack(">IIII", IMAGES_MAGIC, 1, 28, 28) + bytes(784))
            images = images.with_name(images.name + ".gz")
            images.write_bytes({"not_gzip": b"plain bytes", "truncated_gzip": packed[:-12],
                                "corrupt_gzip": packed[:10] + b"\xff" * 20}[broken])
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(FAST_CFG.replace("data = synth", "data = mnist") + f"mnist_dir = {mnist}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read IDX file {images}: ")
        assert len(err.strip().splitlines()) == 1

    def test_bad_magic_names_the_file(self, tmp_path, capsys):
        # the test images carry the labels' magic; train and test images
        # share a format, so only the path tells the two splits apart
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        for split, (images, labels) in MNIST_FILES.items():
            magic = LABELS_MAGIC if split == "test" else IMAGES_MAGIC
            (mnist / images).write_bytes(struct.pack(">IIII", magic, 1, 28, 28) + bytes(784))
            (mnist / labels).write_bytes(struct.pack(">II", LABELS_MAGIC, 1) + bytes(1))
        cfg = tmp_path / "mnist.cfg"
        cfg.write_text(FAST_CFG.replace("data = synth", "data = mnist") + f"mnist_dir = {mnist}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: IDX file {mnist / MNIST_FILES['test'][0]}: bad magic ")
        assert len(err.strip().splitlines()) == 1

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

    def test_empty_shard_exit_2(self, tmp_path, capsys):
        # non-IID labels leave client 20 no rows: the same one error line
        # whether the other shards are read in batches or whole
        for batch_size in (1, 64):
            cfg = tmp_path / f"empty_{batch_size}.cfg"
            cfg.write_text(
                "synth_samples = 20\nsynth_classes = 4\nclients = 40\ndistribution = noniid\n"
                f"batch_size = {batch_size}\nsteps = 5\neval_every = 5\nk = 4\nbeta = 0\n")
            assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == "error: client 20 received an empty shard\n"
            assert not (tmp_path / "o").exists()

    def test_divergent_run_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "model = quadratic\nquad_dim = 8\nclients = 2\nbeta = 0.0\n"
            "mu = 0.001\nk = 2\neta = 1e300\nsteps = 40\n"
            "direction_mode = sphere\ninit_radius = 1.0\n"
        )
        with warnings.catch_warnings():  # the run's one error line is all it reports
            warnings.simplefilter("error")
            code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == ("error: run diverged: non-finite coefficient at "
                                           "step 1, epoch 0, direction 0, client 0\n")

    @pytest.mark.parametrize("engine", ["", "algorithm = fedavg\nquad_lambda = 1e10\n"],
                             ids=["cyber0", "fedavg"])
    def test_divergent_projected_run_exit_3(self, tmp_path, capsys, engine):
        # the update overflows w, which must end the run as diverged, not
        # as a projection input error
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "model = quadratic\nquad_dim = 16\nclients = 4\nalpha = 0\nbeta = 0\n"
            "mu = 0\nk = 4\neta = 1e308\nsteps = 5\n"
            "direction_mode = sphere\ninit_radius = 1.0\nproject_radius = 1.0\n" + engine
        )
        code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: run diverged: non-finite parameters at step 0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        "model = quadratic\nquad_dim = 16\nmu = 0.001\nk = 16\neta = 1e308\n"
        "direction_mode = sphere\ninit_radius = 1.0\n",
        "synth_samples = 400\nsynth_features = 20\nsynth_classes = 4\nk = 8\neta = 1.7e308\n",
    ], ids=["quadratic", "logreg"])
    def test_last_update_overflowing_w_exit_3(self, tmp_path, capsys, text):
        # the overflow is in the last round's update, which no later round's
        # reports see
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("clients = 4\nalpha = 0\nbeta = 0\nsteps = 1\n" + text)
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
            "init_radius = 1.0\n"
        )
        code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "non-finite gradient" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_under_a_file_exit_2(self, fast_config, tmp_path, capsys, monkeypatch, out):
        # refused before the run starts, and nothing is created
        (tmp_path / "afile").write_text("keep\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("cyber0.cli.run_experiment", None)  # the run must not start
        assert main(["run", str(fast_config), "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write to {out}: afile is not a directory\n")
        assert (tmp_path / "afile").read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "fast.cfg"]

    def test_unwritable_log_exit_2(self, fast_config, tmp_path, capsys):
        # an OSError at write time, past the check: log.csv is a directory
        (tmp_path / "o" / "log.csv").mkdir(parents=True)
        assert main(["run", str(fast_config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {tmp_path / 'o'}: ")
        assert len(err.strip().splitlines()) == 1


# small config texts over every algorithm, attack and model: valid values
# per key, to which at most one break (a bad value or an unknown key) is
# added. steps, synth_samples and k stay small, so a run costs milliseconds
FUZZ_VALUES = {
    "model": st.sampled_from(["logreg", "quadratic"]),
    "algorithm": st.sampled_from(["cyber0", "fedavg", "coordwise_tm"]),
    "attack": st.sampled_from([kind.value for kind in AttackKind]),
    "distribution": st.sampled_from(["iid", "noniid"]),
    "direction_mode": st.sampled_from(["gaussian", "sphere"]),
    "init_radius": st.sampled_from([0.0, 1.0]),
    "clients": st.integers(1, 9),
    "alpha": st.sampled_from([0.0, 0.2, 0.34]),
    "beta": st.sampled_from([0.0, 0.25, 0.45]),
    "mu": st.sampled_from([0.0, 1e-3, 0.1]),
    "k": st.integers(1, 5),
    "eta": st.sampled_from([0.05, 1e300]),  # 1e300 diverges
    "steps": st.integers(1, 3),
    "local_epochs": st.integers(1, 2),
    "batch_size": st.integers(1, 64),  # shards hold 0 to 60 rows
    "eval_every": st.integers(1, 3),
    "synth_samples": st.integers(1, 60),
    "synth_features": st.integers(1, 6),
    "synth_classes": st.integers(2, 4),
    "quad_dim": st.integers(1, 6),
    "project_radius": st.sampled_from([0.0, 0.5]),
}
FUZZ_BREAKS = [("clients", 0), ("alpha", 0.5), ("beta", 0.5), ("mu", -1.0),
               ("init_radius", "inf"), ("synth_classes", 1), ("batch_size", 0), ("eta", "nan"),
               ("k", "two"), ("bogus", 1)]


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.fixed_dictionaries({}, optional=FUZZ_VALUES),
           st.lists(st.sampled_from(FUZZ_BREAKS), max_size=1))
    @example({"model": "quadratic", "init_radius": 1.0, "eta": 1e300}, [])  # diverges: exit 3
    @example({"model": "quadratic", "init_radius": 1.0, "eta": 1e300, "algorithm": "fedavg"}, [])
    # non-IID labels leave client 20 an empty shard, the others read whole: exit 2
    @example({"synth_samples": 20, "synth_classes": 4, "clients": 40, "distribution": "noniid",
              "batch_size": 64, "steps": 5, "eval_every": 5, "k": 4, "beta": 0.0}, [])
    def test_run_exits_cleanly(self, overrides, breaks):
        # run exits 0, 2 or 3, never raises, and a failure prints one error line
        cfg = {"steps": 3, "synth_samples": 60, "k": 5, **overrides}
        cfg.update(breaks)
        text = "".join(f"{key} = {v}\n" for key, v in cfg.items())
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            path.write_text(text)
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(["run", str(path), "--out", str(Path(tmp) / "o")])
        assert code in (0, 2, 3)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == (code != 0), err.getvalue()


class TestVerifyCommand:
    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("fails", [False, True])
    def test_exit_code_is_1_iff_a_check_fails(self, monkeypatch, capsys, fails):
        results = [verify.CheckResult("good", 0.5, 1.0, 0.1, True),
                   verify.CheckResult("bad", 2.0, 1.0, 0.1, not fails)]
        monkeypatch.setitem(verify.SUITES, "demo", lambda: results)
        assert main(["verify", "demo"]) == int(fails)
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("PASS  good:")
        assert out[1].startswith("FAIL  bad:" if fails else "PASS  bad:")
        assert out[2:] == [f"{1 if fails else 2}/2 checks passed"]


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

    def test_run_dirs_stay_under_out(self, fast_config, tmp_path, monkeypatch):
        # a value's path separators are percent-encoded, as is %, so every
        # run directory is one path component under --out; summary.csv keeps
        # the raw value (mnist_dir is unused with data = synth)
        monkeypatch.chdir(tmp_path)
        values = ["../../../escaped", "a%2Fb", "a/b"]
        assert main(["sweep", str(fast_config), "--param", "mnist_dir",
                     "--values", ",".join(values), "--out", "root/out"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.cfg", "root"]
        assert sorted(p.name for p in (tmp_path / "root").iterdir()) == ["out"]
        assert sorted(p.name for p in (tmp_path / "root" / "out").iterdir()) == [
            "mnist_dir=..%2F..%2F..%2Fescaped", "mnist_dir=a%252Fb", "mnist_dir=a%2Fb",
            "summary.csv"]
        summary = (tmp_path / "root" / "out" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in summary[1:]] == values

    @pytest.mark.parametrize("out,blocked", [("afile", "afile"), ("s", "s/k=2")])
    def test_out_under_a_file_exit_2(self, fast_config, tmp_path, capsys, monkeypatch,
                                     out, blocked):
        # --out or one run's directory is a file: refused before the first run
        (tmp_path / "afile").write_text("keep\n")
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "k=2").write_text("keep\n")
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", str(fast_config), "--param", "k",
                     "--values", "1,2", "--out", out]) == 2
        target = Path(out) / "k=1"
        assert capsys.readouterr().err == (
            f"error: cannot write to {target if out == 'afile' else Path(blocked)}: "
            f"{blocked} is not a directory\n")
        assert not (tmp_path / "s" / "k=1").exists()

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

    @pytest.mark.parametrize("again", [" 4", "04"])
    def test_repeated_value_writes_nothing(self, fast_config, tmp_path, capsys, again):
        # a repeated value repeats a run; spelled the same, it would
        # overwrite the first one's directory
        out = tmp_path / "sweep"
        assert main(["sweep", str(fast_config), "--param", "k",
                     "--values", f"4,2,{again}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: k={again.strip()}: value repeated\n"
        assert not out.exists()

    def test_bad_later_value_writes_nothing(self, fast_config, tmp_path, capsys):
        # a usage error in any value is reported before the first run
        out = tmp_path / "sweep"
        assert main(["sweep", str(fast_config), "--param", "steps",
                     "--values", "2,abc", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: steps=abc: steps: expected an integer, got 'abc'\n")
        assert not out.exists()

    def test_mnist_dir_with_a_hash_writes_nothing(self, fast_config, tmp_path, capsys):
        # its manifest would rerun another directory: refused before the first run
        out = tmp_path / "sweep"
        assert main(["sweep", str(fast_config), "--param", "mnist_dir",
                     "--values", "/data/a,/data/a#b", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: mnist_dir=/data/a#b: mnist_dir must not hold '#', a line break or "
            "leading or trailing whitespace, got '/data/a#b'\n")
        assert not out.exists()

    def test_bad_value_exit_2(self, fast_config, tmp_path, capsys):
        assert main(["sweep", str(fast_config), "--param", "alpha",
                     "--values", "0.9", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: alpha=0.9: alpha must satisfy 0 <= alpha < 1/2\n")
        assert main(["sweep", str(fast_config), "--param", "k",
                     "--values", "2,0", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: k=0: k must be >= 1, got 0\n"
