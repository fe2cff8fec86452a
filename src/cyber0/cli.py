"""Command-line entry point: run experiments, verify the theory suites,
and sweep a parameter across values.

Config files are flat ``key = value`` lines with ``#`` comments; keys match
the ExperimentConfig field names exactly. Each run writes ``log.csv``
(frozen schema, byte-identical across reruns) and a ``manifest`` that
echoes the effective config, so the manifest itself re-parses as a config
file and reproduces the run.

Exit codes: 0 success, 1 verification failure, 2 usage/parse/set-up
error, 3 runtime divergence (non-finite values).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .federation import ExperimentConfig, RoundLog, run_experiment
from .seedstream import _openblas
from .verify import SUITES
from .zo import NonFiniteLossError

CSV_HEADER = "step,train_loss,test_acc,uplink_scalars,downlink_scalars,wall_ms"


class ConfigParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(key: str, text: str) -> object:
    """The value of config key ``key`` spelled as ``text``: an integer, a
    Python float literal, or a bare string."""
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ValueError(f"unknown config key {key!r}")
    if kind == "str":
        return text
    try:
        return int(text) if kind == "int" else float(text)
    except ValueError:
        raise ValueError(f"{key}: expected {'an integer' if kind == 'int' else 'a number'}, "
                         f"got {text!r}") from None


def config_lines(config: ExperimentConfig) -> list[str]:
    """Every field as a ``key = value`` line that ``_parse_value`` reads back
    exactly (a float prints as its repr), sorted by key."""
    return [f"{key} = {value}" for key, value in sorted(vars(config).items())]


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError("expected 'key = value'", lineno, len(line) - len(line.lstrip()) + 1)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigParseError("empty key", lineno)
        if key in lines:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        try:
            values[key] = _parse_value(key, value)
        except ValueError as exc:
            raise ConfigParseError(str(exc), lineno) from exc
        lines[key] = lineno
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        # every validation message starts with the key it blames; a key
        # left at its default has no line of its own
        blamed = str(exc).split(" ", 1)[0]
        raise ConfigParseError(str(exc), lines.get(blamed, 1)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def csv_text(logs: list[RoundLog]) -> str:
    """The exact text of ``log.csv``. wall_ms is written as 0: the log must
    be byte-identical across reruns; measured timing lives in the manifest
    comments."""
    rows = [f"{log.step},{log.train_loss!r},{log.test_acc!r},"
            f"{log.uplink_scalars},{log.downlink_scalars},0" for log in logs]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def write_manifest(config: ExperimentConfig, out_dir: Path, wall_seconds: float) -> None:
    """The config as ``key = value`` lines under comment lines that record
    the run's wall time and what its bits follow: numpy's CPU dispatch, and
    OpenBLAS's CPU kernel, which the config string names, and thread count."""
    core = sys.modules.get("numpy._core._multiarray_umath")  # absent before numpy 2
    cpu = [t for t in core.__cpu_dispatch__ if core.__cpu_features__.get(t)] if core else ["unknown"]
    lines = [
        f"# cyber0 run manifest (version {__version__})",
        f"# wall_seconds: {wall_seconds:.3f}",
        "# output: log.csv",
        f"# numpy: {np.__version__}",
        f"# numpy_cpu_dispatch: {' '.join(cpu) or 'none'}",
        f"# openblas_config: {_openblas('scipy_openblas_get_config64_', ctypes.c_char_p)}",
        f"# openblas_threads: {_openblas('scipy_openblas_get_num_threads64_', ctypes.c_int)}",
        *config_lines(config),
    ]
    (out_dir / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _execute_run(config: ExperimentConfig, out_dir: Path) -> int:
    started = time.monotonic()
    try:
        result = run_experiment(config)
    except NonFiniteLossError as exc:
        print(f"error: run diverged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        # set-up errors the config cannot catch on its own: missing data
        # files, fewer samples than clients
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "log.csv").write_text(csv_text(result.logs), encoding="utf-8")
        write_manifest(config, out_dir, time.monotonic() - started)
    except OSError as exc:  # what _out_dir_usable cannot see: permissions, a full disk
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 2
    last = result.logs[-1]
    print(f"wrote {out_dir / 'log.csv'}: {len(result.logs)} rows, "
          f"final step {last.step}, train_loss {last.train_loss:.6g}, "
          f"test_acc {last.test_acc:.4g}")
    return 0


def _read_config(path: str) -> ExperimentConfig | None:
    """``load_config``, or None after one ``error:`` line when the file is
    missing, unreadable, not UTF-8 text, or does not parse."""
    try:
        return load_config(path)
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
    except OSError as exc:  # a directory, no permission
        print(f"error: cannot read config file {path}: {exc.strerror}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text (byte {exc.start})", file=sys.stderr)
    except ConfigParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    return None


def _out_dir_usable(path: Path) -> bool:
    """Whether ``mkdir`` can make or reuse ``path`` as far as the file system
    shows without writing: the nearest of it and its parents that exists is
    a directory. Otherwise prints one ``error:`` line naming ``path``. A path
    that cannot be examined (no permission) counts as missing; the write
    reports it."""
    for existing in (path, *path.parents):
        if os.path.exists(existing):
            if os.path.isdir(existing):
                return True
            print(f"error: cannot write to {path}: {existing} is not a directory",
                  file=sys.stderr)
            return False
    return True


def _run_dir_name(param: str, value: str) -> str:
    """One sweep run's directory under ``--out``: ``param=value`` with ``%``
    and the path separators percent-encoded, so a value stays one path
    component and two values never share a directory."""
    for char in ("%", os.sep, os.altsep):
        if char:
            value = value.replace(char, f"%{ord(char):02X}")
    return f"{param}={value}"


def cmd_run(args: argparse.Namespace) -> int:
    config = _read_config(args.config)
    if config is None:
        return 2
    out_dir = Path(args.out)
    if not _out_dir_usable(out_dir):
        return 2
    return _execute_run(config, out_dir)


def cmd_verify(args: argparse.Namespace) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"error: unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return 2
    results = suite()
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _read_config(args.config)
    if base is None:
        return 2
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        print("error: empty sweep value list", file=sys.stderr)
        return 2
    if args.param not in _FIELD_TYPES:
        print(f"error: unknown sweep parameter {args.param!r}", file=sys.stderr)
        return 2
    # every value is checked before the first run, so a usage error leaves
    # no partial output behind
    configs = []
    for value in values:
        try:
            config = replace(base, **{args.param: _parse_value(args.param, value)})
        except ValueError as exc:
            print(f"error: {args.param}={value}: {exc}", file=sys.stderr)
            return 2
        if config in configs:  # the same run again; spelled the same, into the same directory
            print(f"error: {args.param}={value}: value repeated", file=sys.stderr)
            return 2
        configs.append(config)
    out_root = Path(args.out)
    sub_dirs = [out_root / _run_dir_name(args.param, value) for value in values]
    if not all(_out_dir_usable(sub_dir) for sub_dir in sub_dirs):
        return 2
    summary = ["param,value,final_step,final_train_loss,final_test_acc,"
               "uplink_scalars,downlink_scalars"]
    for value, config, sub_dir in zip(values, configs, sub_dirs):
        code = _execute_run(config, sub_dir)
        if code != 0:
            return code
        last_line = (sub_dir / "log.csv").read_text(encoding="utf-8").rstrip().splitlines()[-1]
        step, tr, acc, up, down, _ = last_line.split(",")
        summary.append(f"{args.param},{value},{step},{tr},{acc},{up},{down}")
    try:
        (out_root / "summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write to {out_root}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out_root / 'summary.csv'} ({len(values)} runs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyber0",
        description="Byzantine-resilient federated zero-order optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment from a config file")
    p_run.add_argument("config", help="flat key = value config file")
    p_run.add_argument("--out", required=True, help="output directory for log.csv and manifest")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the lemma/theorem verification checks")
    p_verify.add_argument("suite", help="lemmas, theorems, or all")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run one experiment per parameter value")
    p_sweep.add_argument("config", help="base config file")
    p_sweep.add_argument("--param", required=True, help="config key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated value list")
    p_sweep.add_argument("--out", default=".", help="output root directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
