#!/usr/bin/env python3
"""Print sha256 digests of the golden runs' outputs, for bit-identity checks.

For every ``GOLDEN`` config in tests/test_federation.py, plus
profiles/synth_demo.cfg and profiles/quad_mu_floor.cfg cut to 200 steps,
prints one line

    name sha256(final_w)[:16] sha256(log.csv bytes)[:16]

where the log bytes are ``cli.csv_text``, the text ``cyber0 run`` writes
to log.csv, then one line per check of ``cyber0 verify all``
(``verify.lemma_suite() + verify.theorem_suite()``)

    name repr(estimate)

then one line, ``stream-sequence sha256[:16]``, of the draws of
``stream_sequence``: odd-length requests interleaved on one ``RngStream``,
which leave and take its pending half-pair. Nothing else here takes one:
a run draws one request from each stream, and the checks draw only
even-length requests. The theorem checks pin each check's fixed budget: a
change to one moves its estimate. The check lines take about 3.5 s. A
change meant to keep outputs bit-identical prints the same lines before
and after; diff the two outputs.

Usage:
    python3 scripts/golden_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cyber0.cli import csv_text, load_config  # noqa: E402
from cyber0.federation import ExperimentConfig, run_experiment  # noqa: E402
from cyber0.seedstream import RngStream, sphere_rows  # noqa: E402
from cyber0.verify import lemma_suite, theorem_suite  # noqa: E402
from test_federation import GOLDEN  # noqa: E402

PROFILES = ("synth_demo.cfg", "quad_mu_floor.cfg")
PROFILE_STEPS = 200
SEQUENCE_SEED = 2024


def digest(config: ExperimentConfig) -> str:
    """``sha256(final_w)[:16] sha256(log.csv)[:16]`` of one run."""
    result = run_experiment(config)
    log_bytes = csv_text(result.logs).encode("utf-8")
    return " ".join(hashlib.sha256(b).hexdigest()[:16]
                    for b in (result.final_w.tobytes(), log_bytes))


def stream_sequence(stream: RngStream) -> list:
    """Interleaved odd-length draws from one stream: gaussians(3) leaves a
    half-pair pending, which the 21 Gaussians of three 7-wide sphere rows
    start with; words(5) leaves the position odd; gaussians(9) leaves
    another half-pair, which gaussians(2) starts with."""
    return [stream.gaussians(3), sphere_rows(stream, 3, 7), stream.words(5),
            stream.gaussians(9), stream.gaussians(2)]


def main() -> int:
    runs = [(name, ExperimentConfig(**overrides)) for name, overrides, _ in GOLDEN]
    runs += [(name, replace(load_config(ROOT / "profiles" / name), steps=PROFILE_STEPS))
             for name in PROFILES]
    for name, config in runs:
        print(name, digest(config), flush=True)
    for check in lemma_suite() + theorem_suite():
        print(check.name, repr(check.estimate), flush=True)
    draws = stream_sequence(RngStream(SEQUENCE_SEED))
    draws_bytes = b"".join(a.tobytes() for a in draws)
    print("stream-sequence", hashlib.sha256(draws_bytes).hexdigest()[:16], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
