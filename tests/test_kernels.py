"""Bits that must not depend on the OpenBLAS CPU kernel.

numpy's OpenBLAS picks its kernels by CPU, and ``OPENBLAS_CORETYPE``
forces one for a process. ``run_on_kernel`` runs a test script as a child
process under a forced kernel; the script prints the OpenBLAS build it runs
as its first line. Sphere directions and the data-free quadratic runs take
no value from BLAS, so the child must print the same hashes as this
process. Its last lines say whether ``accuracy`` in row groups counts what
one whole product does, and whether a product keeps its bits and OpenBLAS
its thread count across ``seedstream._park_blas``, which every pooled
Gaussian draw runs first.

Run directly, this file prints those hashes after the build line.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyber0
from cyber0.cli import csv_text
from cyber0.data import GROUP_VALUES
from cyber0.federation import ExperimentConfig, run_experiment
from cyber0.losses import LogisticRegressionModel
from cyber0.seedstream import (DirectionMode, _openblas, _park_blas, make_direction,
                               sphere_direction)
from cyber0.zo import direction_seed
from test_federation import QUAD

# the dgemm kernels of the wheel's DYNAMIC_ARCH build, from AVX-512 down to SSE
CORES = ["SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Katmai"]


def print_openblas_config() -> None:
    """A child's first line: the OpenBLAS build it runs, kernel included."""
    print(_openblas("scipy_openblas_get_config64_", ctypes.c_char_p), flush=True)


def run_on_kernel(core: str, script: str) -> str:
    """The standard output after the first line of ``python script`` run
    under the OpenBLAS kernel ``core``, once the child exits 0. A kernel
    this CPU cannot run (the child dies by a signal) or that the build does
    not know (the first line names another) is skipped."""
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(cyber0.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, script], env=env, capture_output=True, text=True)
    if child.returncode < 0:
        pytest.skip(f"the {core} kernel died by signal {-child.returncode}")
    config, _, rest = child.stdout.partition("\n")
    if core not in config.split():
        pytest.skip(f"OpenBLAS runs another kernel than {core}: {child.stdout!r}")
    assert child.returncode == 0, child.stderr
    return rest


SEEDS = direction_seed(11, 4, np.arange(150))
DIMENSIONS = (1, 3, 16, 100, 383, 4097, 7850, 9000)

# short quadratic runs on sphere directions: the zero-order bracket
# losses, the L2 projection, and the exact-gradient projections at mu = 0
QUAD_RUNS = {
    "quad_mu": {**QUAD, "mu": 1e-3, "local_epochs": 2, "steps": 10},
    "quad_projected": {**QUAD, "mu": 1e-3, "project_radius": 0.5, "steps": 10},
    "quad_mu_zero": {**QUAD, "steps": 10},
}


def sha(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


def openblas_threads() -> str:
    return _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)


def park_keeps_product_and_threads() -> bool:
    """Whether a (384 x 784)(784 x 640) product is bitwise the same, and
    OpenBLAS's thread count the same, after ``_park_blas`` as before it."""
    rng = np.random.default_rng(5)
    x, z = rng.random((384, 784)), rng.random((784, 640))
    before, threads = (x @ z).tobytes(), openblas_threads()
    _park_blas()
    return (x @ z).tobytes() == before and openblas_threads() == threads


def whole_accuracy(model, w, X, y) -> float:
    """The accuracy of one product over every row of X."""
    W = w.reshape(model.input_dim + 1, model.num_classes)
    return 100.0 * float(np.mean(np.argmax(X @ W[:-1] + W[-1], axis=1) == y))


def grouped_accuracy_is_whole() -> bool:
    """Whether ``accuracy`` at MNIST's width, over three row groups and part
    of a fourth, equals the argmax count of one product over every row."""
    model = LogisticRegressionModel(input_dim=784, num_classes=10)
    rng = np.random.default_rng(9)
    n = 3 * (GROUP_VALUES // 784) + 5
    X, y = rng.random((n, 784)), rng.integers(0, 10, n)
    w = rng.standard_normal(model.dimension)
    return model.accuracy(w, X, y) == whole_accuracy(model, w, X, y)


def kernel_digests() -> list[str]:
    """``name hash`` lines of a sphere block of every d in DIMENSIONS, of
    ``sphere_direction``'s rows of the same seeds, and of each QUAD_RUNS
    run's final w and log.csv text, then whether grouped accuracy is the
    whole product's, and whether the park keeps a product's bits and the
    thread count."""
    lines = [
        "make_direction " + sha(*(make_direction(SEEDS, d, DirectionMode.SPHERE).tobytes()
                                  for d in DIMENSIONS)),
        "sphere_direction " + sha(*(sphere_direction(int(s), d).tobytes()
                                    for d in DIMENSIONS for s in SEEDS)),
    ]
    for name, overrides in QUAD_RUNS.items():
        result = run_experiment(ExperimentConfig(**overrides))
        lines.append(f"{name} {sha(result.final_w.tobytes(), csv_text(result.logs).encode())}")
    lines.append(f"grouped_accuracy_is_whole {grouped_accuracy_is_whole()}")
    lines.append(f"park_keeps_product_and_threads {park_keeps_product_and_threads()}")
    return lines


@pytest.fixture(scope="module")
def in_process() -> list[str]:
    return kernel_digests()


@pytest.mark.parametrize("core", CORES)
def test_sphere_directions_and_data_free_runs_on_every_kernel(core, in_process):
    assert in_process[-2:] == ["grouped_accuracy_is_whole True",
                               "park_keeps_product_and_threads True"]
    assert run_on_kernel(core, __file__).splitlines() == in_process


if __name__ == "__main__":
    print_openblas_config()
    print("\n".join(kernel_digests()), flush=True)
