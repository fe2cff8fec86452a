#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, with a claim and a no-regression
verdict per end-to-end metric.

Exports each revision with ``git archive`` into two sibling temporary
directories of equal path length, then runs ``perfbench/run.py --workload
NAME --seed SEED --seconds S --trace 0`` of each export N times, alternating
which side of a pair runs first, and reads each run's last JSON line. For
every end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the pairs the change won, and two verdicts:

- claim: met when the change wins at least 90% of the pairs, its median is
  better than the parent's by more than the parent's interquartile range,
  and its runs fail no more units than the parent's (a run that is not
  ``correct`` counts as one failed unit at least);
- no regression: "ok" when the change's median is not worse than the
  parent's by more than the metric's relative ``bound``, "REGRESSED" when it
  is, and "unresolved" when the parent's own interquartile range exceeds
  the bound relative to its median, so that the bound cannot be told apart,
  unless every run of the change reads better than every run of the parent.

A run that is not ``correct`` or has failed units is reported. Nothing is
written inside the checkout, and the temporary directories are removed.

Usage:
    python3 scripts/bench_pairs.py --parent REV [--change REV] --workload NAME \\
        --pairs N [--seconds S] [--seed 2015]

``--change`` defaults to HEAD. To measure uncommitted work, stage it and
pass ``--change "$(git stash create)"``, which names a commit of the index
and working tree without changing either.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            parent_failed: int = 0, change_failed: int = 0) -> dict:
    """Compare paired samples of one metric: ``parent[i]`` and ``change[i]``
    come from pair i. ``better`` is "higher" or "lower"; ``bound`` is the
    largest relative worsening of the median that is not a regression.
    ``*_failed`` count each side's failed units over all its runs; a change
    that fails more of them than the parent meets no claim."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change sample per pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    iqr = p_q3 - p_q1
    gain = sign * (c_med - p_med)  # > 0: the change is better
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr > bound * abs(p_med) and not all_better:
        regression = "unresolved"
    elif -gain > bound * abs(p_med):
        regression = "REGRESSED"
    else:
        regression = "ok"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "gain": gain,
        "rel_gain": gain / abs(p_med) if p_med else 0.0,
        "parent_iqr": iqr,
        "failed": (parent_failed, change_failed),
        # 90% of pairs, in integers
        "claim": 10 * wins >= 9 * len(parent) and gain > iqr and change_failed <= parent_failed,
        "regression": regression,
    }


def export(rev: str, into: Path) -> str:
    """Extract ``git archive`` of rev into ``into``; return the commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {tree.name} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(values: tuple[float, float, float]) -> str:
    q1, med, q3 = values
    return f"median {med:.6g}  quartiles {q1:.6g}..{q3:.6g}"


def report(metric: dict, v: dict) -> list[str]:
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    claim = "met" if v["claim"] else "not met"
    return [
        f"{name} [{metric['unit']}], {better} is better, bound {bound:.0%}",
        f"  parent  {_fmt(v['parent'])}",
        f"  change  {_fmt(v['change'])}  ({v['rel_gain']:+.2%} better)",
        f"  pairs won {v['wins']}/{v['pairs']}",
        f"  claim: {claim} (needs >= 90% of pairs won, a median gain "
        f"{v['gain']:.6g} above the parent IQR {v['parent_iqr']:.6g}, "
        "and no more failed units than the parent)",
        f"  failed units: parent {v['failed'][0]}, change {v['failed'][1]}",
        f"  no regression: {v['regression']}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent")
    parser.add_argument("--change", default="HEAD", help="revision of the change (HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=2015)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    if args.workload == "all":
        # perfbench/run.py prefixes each metric with its workload for "all"
        parser.error("--workload names one workload; run one command per workload")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        # equal path lengths, so neither side's paths cost more to handle
        trees = {"parent": base / "parent", "change": base / "change"}
        commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        print(f"parent {commits['parent']}  change {commits['change']}  "
              f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s per run",
              flush=True)
        samples = {side: {m["name"]: [] for m in metrics} for side in trees}
        faults = []
        failed = {side: 0 for side in trees}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            line = []
            for side in order:
                final = run_once(trees[side], args.workload, args.seed, args.seconds)
                if not final["correct"] or final["failed"]:
                    failed[side] += max(final["failed"], 1)
                    faults.append(f"pair {i + 1} {side}: correct={final['correct']}, "
                                  f"failed {final['failed']}/{final['attempted']}")
                for m in metrics:
                    samples[side][m["name"]].append(final["metrics"][m["name"]]["value"])
                line.append(f"{side} " + " ".join(
                    f"{m['name']}={samples[side][m['name']][-1]:.6g}" for m in metrics))
            print(f"pair {i + 1}: " + "; ".join(line), flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for m in metrics:
        v = verdict(samples["parent"][m["name"]], samples["change"][m["name"]],
                    m["better"], m["bound"], failed["parent"], failed["change"])
        print("\n".join(report(m, v)))
    print("runs not correct or with failed units: " + ("; ".join(faults) if faults else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
