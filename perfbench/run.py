"""Benchmark of the cyber0 round engine.

    python3 perfbench/run.py --workload theory_quad --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its ``src``.
Each run repeats the workload's unit (one public-API call on a fixed config)
until ``--seconds`` have passed, checks every unit against the seed-commit
reference values, and prints each metric by name and unit. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced pass with ``--trace 1``. ``--workload all``
runs every workload in this one process. Results and spans are written
under ``.perfbench/``. See perfbench/README.md.

Load model: closed loop, one experiment at a time, rounds strictly
sequential; clients run on one thread and OpenBLAS keeps its default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer, is_wrapped, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_UNITS = 3
THREADS_ENV = "CYBER0_THREADS"


def _import_engine():
    src = ROOT / "src"
    if not (src / "cyber0" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cyber0 sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import cyber0

    if src.resolve() not in Path(cyber0.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported cyber0 from {cyber0.__file__}, not from {src}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, threads_seen: str | None) -> dict:
    from workloads import HELD_OUT_SEED, POOL

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        THREADS_ENV: threads_seen,
        "seed": seed,
        "pool_index": seed % POOL,
        "held_out_seed": HELD_OUT_SEED,
        "commit": _git_commit(),
    }


def measure(wl, cfg, ref, seconds: float, tracer=None):
    """Repeat the workload's unit for ``seconds`` (at least MIN_UNITS times).

    Returns the passing units keyed by run id, and the attempted and failed
    counts; a unit that raises or fails its check is a failed operation.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    passed = {}
    attempted = failed = 0
    started = perf_counter()
    deadline = started + seconds
    # start another unit only if it should end nearer the deadline than
    # stopping now, so a run lasts ``seconds`` give or take half a unit
    while attempted < MIN_UNITS or (
            perf_counter() + (perf_counter() - started) / attempted / 2 < deadline):
        attempted += 1
        if tracer is not None:
            tracer.run_id = attempted
        try:
            before = wl.host_factor()
            unit = wl.run_unit(cfg, span)
            unit.host = (before + wl.host_factor()) / 2
            unit.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            errors = wl.check(cfg, unit, ref)
        except Exception:  # a unit that raises is counted, and the run goes on
            traceback.print_exc()
            failed += 1
            continue
        if errors:
            print(f"{wl.name}: unit {attempted} failed its check: " + "; ".join(errors),
                  file=sys.stderr)
            failed += 1
            continue
        passed[attempted] = unit
    return passed, attempted, failed


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def layer_metrics(tracer, units: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer medians over the traced units, their exact per-round call
    counts, and any count that differed between units."""
    from workloads import LAYER_METRICS

    spans = tracer.arrays()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    n_names = len(tracer.names)
    key = spans["run"] * n_names + spans["name"]
    size = (max(units) + 1) * n_names
    self_ns = np.bincount(key, weights=own, minlength=size).reshape(-1, n_names)
    calls = np.bincount(key, minlength=size).reshape(-1, n_names)

    values: dict[str, list[float]] = {metric: [] for metric in LAYER_METRICS}
    for run_id, unit in units.items():
        for metric, (span_name, qty) in LAYER_METRICS.items():
            col = tracer.names.index(span_name) if span_name in tracer.names else None
            ns = 0.0 if col is None else float(self_ns[run_id, col])
            count = 0 if col is None else int(calls[run_id, col])
            if qty == "ms":
                values[metric].append(ns / 1e6 / unit.rounds)
            elif qty == "s":
                values[metric].append(ns / 1e9 / unit.runs)
            else:
                values[metric].append(count / unit.rounds)

    errors = []
    counts = {}
    for metric, (_, qty) in LAYER_METRICS.items():
        if qty == "calls":
            seen = sorted(set(values[metric]))
            if len(seen) != 1:
                errors.append(f"{metric} differs between repeated units: {seen}")
            counts[metric] = seen[0]
    medians = {metric: statistics.median(v) for metric, v in values.items()}
    return medians, counts, errors


def run_workload(wl, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    from workloads import LAYER_METRICS, LAYER_UNITS, POOL, TRACE_TARGETS

    cfg = wl.config(ROOT, seed)
    ref = refs[wl.name][seed % POOL]
    if any(is_wrapped(owner, attr) for owner, attr, _ in TRACE_TARGETS):
        raise RuntimeError("a traced wrapper is still installed before an untraced pass")
    untraced, attempted, failed = measure(wl, cfg, ref, seconds / 2 if trace else seconds)
    if not untraced:
        raise SystemExit(f"perfbench: every {wl.name} unit failed")
    # timings at the reference host speed: each unit's figures scaled by
    # the host factor sampled around it (see calibrate.py)
    rps = [u.rounds_per_s * u.host for u in untraced.values()]
    result = {"attempted": attempted, "failed": failed, "errors": [], "counts": {}}
    if not trace:
        setup = [u.setup_s / u.host for u in untraced.values()]
        # the process peak after one whole unit: later units only add heap
        # fragmentation, which varies from run to run by up to 45 MB
        peak = [u.peak_mb for u in untraced.values()]
        result["metrics"] = {
            "rounds_per_s": {"value": statistics.median(rps), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak[0], "unit": "MB"},
        }
        result["samples"] = {
            "rounds_per_s": rps,
            "setup_s": setup,
            "raw_rounds_per_s": [u.rounds_per_s for u in untraced.values()],
            "raw_setup_s": [u.setup_s for u in untraced.values()],
            "host_factor": [u.host for u in untraced.values()],
            "peak_rss_mb": peak,
        }
        result["spread"] = {k: _spread(v) for k, v in result["samples"].items()}
        return result

    tracer = Tracer(TRACE_TARGETS)
    tracer.install()
    try:
        traced, t_attempted, t_failed = measure(wl, cfg, ref, seconds / 2, tracer)
    finally:
        tracer.restore()
    result["attempted"] += t_attempted
    result["failed"] += t_failed
    if not traced:
        raise SystemExit(f"perfbench: every traced {wl.name} unit failed")
    medians, counts, errors = layer_metrics(tracer, traced)
    traced_rps = statistics.median(u.rounds_per_s * u.host for u in traced.values())
    result["metrics"] = {m: {"value": v, "unit": LAYER_UNITS[LAYER_METRICS[m][1]]}
                         for m, v in medians.items()}
    result["metrics"]["trace.overhead_frac"] = {
        "value": 1.0 - traced_rps / statistics.median(rps), "unit": "fraction"}
    result["counts"] = counts
    result["errors"] = errors
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"spans-{wl.name}-seed{seed}.npz",
                        names=np.array(tracer.names), **tracer.arrays())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_engine()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    refs = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

    # the load model evaluates clients on one thread; record what was set
    threads_seen = os.environ.pop(THREADS_ENV, None)
    env = environment(args.seed, threads_seen)
    trace = bool(args.trace)
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, trace, refs)
               for name in names}

    OUT.mkdir(exist_ok=True)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, res in results.items():
        for err in res["errors"]:
            print(f"{name}: {err}", file=sys.stderr)
        final["correct"] &= res["failed"] == 0 and not res["errors"]
        final["attempted"] += res["attempted"]
        final["failed"] += res["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, m in res["metrics"].items():
            final["metrics"][prefix + metric] = m
            print(f"{name:13s} {metric:38s} {m['value']:.6g} {m['unit']}")
        for what, note in res.get("spread", {}).items():
            print(f"{name:13s} {'samples ' + what:38s} {note}")
        print(f"{name:13s} {'failed/attempted':38s} {res['failed']}/{res['attempted']}")
        record = {"workload": name, "trace": args.trace, "env": env, **res}
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
