"""Byzantine-resilient federated zero-order optimization, simulated
deterministically: clients upload k scalar finite-difference coefficients
along shared-seed directions, the federator trims per direction, and both
sides rebuild the update by replaying the seeds."""

__version__ = "0.1.0"

from .adversary import AttackKind
from .data import Dataset, load_idx, partition_iid, partition_noniid, synth_generate
from .federation import (
    ExperimentConfig,
    RoundLog,
    RunResult,
    comm_cost,
    project_ball,
    run_experiment,
)
from .losses import LogisticRegressionModel, QuadraticModel
from .robust import coordwise_trimmed_mean
from .seedstream import (
    DirectionMode,
    RngStream,
    StreamKind,
    derive_seed,
    make_direction,
    sphere_direction,
)
from .zo import NonFiniteLossError, apply_update, direction_seed
