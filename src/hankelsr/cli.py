"""Experiment harness: single runs, seeded sweeps, invariant checks, reports.

Subcommands
-----------
run     synthesize one instance, solve it, write a per-iteration trace file
        (CSV) plus a JSON sidecar with the full configuration and timing.
sweep   run a grid of (n, s, r) cells with several seeded trials per cell;
        write one row per trial (the fields of ``TrialRecord``) plus an
        aggregated success-rate table.
check   run the invariant suite at small sizes; nonzero exit on any failure.
report  compute and emit the instance-constants report as flat JSON.

Exit codes: 0 success, 1 usage/configuration error, 2 divergence, or a
rank-r truncation that found no residual certificate within its budget
(``RankTruncationError``: ``run`` and ``report`` then write no output, and
``sweep`` records the trial as failed instead), 3 check-suite failure.

Flags may also be supplied through ``--config FILE`` (JSON, keys mirroring
the long flag names with underscores); explicit flags override the file.
Each shared flag is one field of ``ExperimentConfig``, which declares its
default, the parser of its value and its help once.  Every command draws its
instances through ``ExperimentConfig.instance``, and writes CSV through
``_write_csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import TextIO

from . import __version__
from .checks import run_all
from .diagnostics import AssumptionReport, assumption_report
from .lowrank import RankTruncationError
from .model import synth_instance
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_CHECK_FAILED = 3

_MASK64 = (1 << 64) - 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def seed_derivation(master_seed: int, trial_index: int) -> int:
    """Derive the per-trial seed by two rounds of SplitMix64 mixing.

    Deterministic, and injective in the trial index for a fixed master seed
    (both rounds are bijections on 64-bit integers), so distinct trials never
    collide.  Regression vector: seed_derivation(0, 0) ==
    12035550249420947055.
    """
    return _splitmix64(_splitmix64(master_seed & _MASK64) + (trial_index & _MASK64))


def _typed(convert, *types):
    """The parser of a flag's command-line text or ``--config`` value: a value
    whose type is not one of ``types`` is refused, not coerced, so a JSON bool
    or float is no integer and a string is no switch."""
    def parse(value):
        if type(value) not in types:
            raise TypeError(f"expected {convert.__name__}")
        return convert(value)
    return parse


_integer = _typed(int, str, int)
_real = _typed(float, str, int, float)
_text = _typed(str, str)
_switch = _typed(bool, bool)


def _grid(value) -> tuple[int, ...]:
    """An integer, a JSON list of integers or a comma list of them."""
    if isinstance(value, str):
        return tuple(int(part) for part in value.split(",") if part != "")
    if isinstance(value, list):
        return tuple(_integer(v) for v in value)
    return (_integer(value),)


def _flag(default, parse, help: str, **argparse_kwargs):
    """A shared flag: its default, the parser of its command-line text or
    ``--config`` value, and its help; ``_switch`` flags take no value."""
    if parse is _switch:
        argparse_kwargs.update(action="store_const", const=True)
    return field(default=default,
                 metadata={"parse": parse, "argparse": {"help": help, **argparse_kwargs}})


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class ExperimentConfig:
    """Harness-level configuration for one command invocation.

    Each field is the shared flag ``--<name>``, underscores written as dashes.
    """

    n: tuple[int, ...] = _flag((256,), _grid, "signal length (comma list for sweep)")
    s: tuple[int, ...] = _flag((4,), _grid, "subspace dimension (comma list for sweep)")
    r: tuple[int, ...] = _flag((5,), _grid, "number of point sources (comma list for sweep)")
    seed: int = _flag(1, _integer, "master seed")
    trials: int = _flag(1, _integer, "trials per sweep cell")
    max_iters: int = _flag(SolverConfig.max_iters, _integer, "iteration cap of a solve")
    tol: float = _flag(SolverConfig.residual_tol, _real,
                       "relative residual stopping tolerance")
    step_size: float = _flag(SolverConfig.step_size, _real, "gradient step size")
    n1: int | None = _flag(None, _integer, "override the Hankel split")
    out: str | None = _flag(None, _text, "output path")
    success_tol: float = _flag(1e-4, _real,
                               "sweep success threshold on the final relative error")
    complex_subspace: bool = _flag(False, _switch, "draw complex Gaussian sensing "
                                   "vectors instead of real")
    with_report: bool = _flag(False, _switch,
                              "attach the instance-constants report to each sweep trial")

    def validate(self) -> None:
        for name, grid in (("n", self.n), ("s", self.s), ("r", self.r)):
            if not grid or any(v < 1 for v in grid):
                raise ValueError(f"--{name} values must be positive integers")
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        if not (math.isfinite(self.success_tol) and self.success_tol > 0):
            raise ValueError(f"--success-tol must be finite and positive, got {self.success_tol}")
        # building one checks --max-iters, --tol and --step-size up front
        self.solver_config(rank=1, seed=0)

    def single(self) -> tuple[int, int, int]:
        """The one ``(n, s, r)`` cell of a command that takes no grid."""
        for name in ("n", "s", "r"):
            if len(getattr(self, name)) != 1:
                raise ValueError(f"--{name} must be a single value for this command")
        return self.n[0], self.s[0], self.r[0]

    def instance(self, n: int, s: int, r: int, trial: int):
        """The trial's derived seed and ``synth_instance``'s five values,
        ``(derived, model, dims, B, X_true, y)``: the one recipe of every
        command's instances.  Raises ``ValueError`` on a rank ``solve`` would
        reject, before any output exists."""
        derived = seed_derivation(self.seed, trial)
        return (derived, *synth_instance(n, s, r, derived, self.n1,
                                         self.complex_subspace))

    def solver_config(self, rank: int, seed: int) -> SolverConfig:
        return SolverConfig(rank=rank, max_iters=self.max_iters,
                            residual_tol=self.tol, step_size=self.step_size, seed=seed)


@dataclass(frozen=True)
class TrialRecord:
    """One sweep trial: cell parameters, outcome, and an optional constants report."""

    n: int
    s: int
    r: int
    trial: int
    derived_seed: int
    rel_error: float | None
    iterations: int
    termination: str
    elapsed_ms: float
    success: bool
    report: AssumptionReport | None = None


_TRIAL_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "report")
_REPORT_COLUMNS = tuple(f.name for f in fields(AssumptionReport))
_SUMMARY_COLUMNS = ("n", "s", "r", "trials", "successes", "success_rate")


def _field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return '"' + value.replace('"', "'") + '"'
    if isinstance(value, float):
        return repr(float(value))
    return str(int(value))


def _write_csv(fh: TextIO, header, rows) -> None:
    """Write a header line and one line per row.  A field is empty for None,
    a float's repr, an integer (a bool as 0/1), or a string in double quotes
    with any ``"`` in it turned into ``'``, so that a termination is always
    one field whatever it says."""
    lines = [",".join(header)] + [",".join(map(_field, row)) for row in rows]
    fh.write("\n".join(lines) + "\n")


def write_trace(fh: TextIO, trace) -> None:
    """Write the per-iteration trace as CSV to an open text file.

    The rel_error columns appear iff the trace carries ground-truth errors.
    Wall-clock times stay out of the file, so identical seeds give
    byte-identical traces; the ``run`` sidecar carries them.
    """
    width = 4 if any(rec.rel_error is not None for rec in trace.records) else 2
    rows = [(rec.iteration, rec.residual, rec.rel_error,
             math.log10(rec.rel_error) if (rec.rel_error or 0) > 0 else -math.inf)[:width]
            for rec in trace.records]
    _write_csv(fh, ("iter", "residual", "rel_error", "log10_rel_error")[:width], rows)


@contextlib.contextmanager
def _output_files(*paths: str):
    """The files at ``paths``, opened for writing and removed again if the
    command fails before it finishes, so that a failed command leaves no
    empty output behind."""
    with contextlib.ExitStack() as stack:
        handles = []
        try:
            for path in paths:
                handles.append(stack.enter_context(open(path, "w")))
            yield handles
        except Exception:
            stack.close()
            for fh in handles:
                os.remove(fh.name)
            raise


def cmd_run(cfg: ExperimentConfig) -> int:
    n, s, r = cfg.single()
    derived, _, dims, B, X_true, y = cfg.instance(n, s, r, 0)
    out = cfg.out or "run_trace.csv"
    # Opened before the solve, so that an unwritable path fails first.
    with _output_files(out, out + ".meta.json") as (trace_fh, meta_fh):
        t0 = time.perf_counter()
        _, trace = solve(y, B, dims, cfg.solver_config(r, derived),
                         ground_truth=X_true)
        total_s = time.perf_counter() - t0
        write_trace(trace_fh, trace)
        # After a divergence solve returns its best iterate, not the last one
        # the trace records, so the final figures are the returned estimate's.
        iterations = trace.records[-1].iteration
        final = trace.records[trace.returned_iteration]
        json.dump({
            "command": "run",
            "version": __version__,
            "n": n, "s": s, "r": r,
            "seed": cfg.seed, "derived_seed": derived,
            "split": {"n1": dims.n1, "n2": dims.n2},
            "step_size": cfg.step_size, "max_iters": cfg.max_iters,
            "residual_tol": cfg.tol, "complex_subspace": cfg.complex_subspace,
            "termination": trace.termination,
            "iterations": iterations,
            "returned_iteration": trace.returned_iteration,
            "final_residual": final.residual,
            "final_rel_error": final.rel_error,
            "timing": {
                "total_s": total_s,
                "per_record_elapsed_s": [rec.elapsed_s for rec in trace.records],
            },
        }, meta_fh, indent=2)
        meta_fh.write("\n")
    print(f"run n={n} s={s} r={r} seed={cfg.seed}: "
          f"{trace.termination} after {iterations} iterations, "
          f"residual={final.residual:.3e}, rel_error={final.rel_error:.3e}, "
          f"trace={out}")
    return EXIT_DIVERGED if trace.termination.startswith("diverged") else EXIT_OK


def _run_trial(cfg: ExperimentConfig, n: int, s: int, r: int, trial: int) -> TrialRecord:
    t0 = time.perf_counter()
    rel_error, iterations, report = None, 0, None
    try:
        derived, mdl, dims, B, X_true, y = cfg.instance(n, s, r, trial)
        _, trace = solve(y, B, dims, cfg.solver_config(r, derived),
                         ground_truth=X_true)
        report = assumption_report(mdl, B, dims) if cfg.with_report else None
        # Read after the report, so that a failed report leaves no outcome.
        rel_error = trace.records[trace.returned_iteration].rel_error
        iterations, termination = trace.records[-1].iteration, trace.termination
    except ValueError as exc:
        termination = f"config_error: {exc}"
    except RankTruncationError as exc:
        termination = f"truncation_error: {exc}"
    return TrialRecord(
        n=n, s=s, r=r, trial=trial, derived_seed=seed_derivation(cfg.seed, trial),
        rel_error=rel_error, iterations=iterations, termination=termination,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        success=rel_error is not None and rel_error < cfg.success_tol, report=report)


def cmd_sweep(cfg: ExperimentConfig) -> int:
    out = cfg.out or "sweep_results.csv"
    summary_path = os.path.splitext(out)[0] + "_summary.csv"
    report_columns = _REPORT_COLUMNS if cfg.with_report else ()
    # Opened before any trial, so that an unwritable path fails first.
    with _output_files(out, summary_path) as (rows_fh, summary_fh):
        records = [_run_trial(cfg, n, s, r, trial) for n in cfg.n for s in cfg.s
                   for r in cfg.r for trial in range(cfg.trials)]
        _write_csv(rows_fh, _TRIAL_COLUMNS + report_columns, [
            [getattr(rec, name) for name in _TRIAL_COLUMNS]
            + [getattr(rec.report, name, None) for name in report_columns]
            for rec in records])
        summary = aggregate_sweep(records)
        _write_csv(summary_fh, _SUMMARY_COLUMNS, [cell.values() for cell in summary])
    print(f"sweep wrote {len(records)} trials to {out}")
    print("n    s    r    success_rate")
    for cell in summary:
        print(f"{cell['n']:<5}{cell['s']:<5}{cell['r']:<5}"
              f"{cell['successes']}/{cell['trials']} = {cell['success_rate']:.2f}")
    return EXIT_OK


def aggregate_sweep(records: list[TrialRecord]) -> list[dict]:
    """Success-rate table per (n, s, r) cell; a pure function of trial records."""
    def cell(rec):
        return rec.n, rec.s, rec.r

    summary = []
    for key, group in itertools.groupby(sorted(records, key=cell), key=cell):
        successes = [rec.success for rec in group]
        trials, wins = len(successes), sum(successes)
        summary.append(dict(zip(_SUMMARY_COLUMNS, (*key, trials, wins, wins / trials))))
    return summary


def cmd_check() -> int:
    results = run_all()
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    failed = sum(not res.passed for res in results)
    print(f"check: {len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_report(cfg: ExperimentConfig) -> int:
    n, s, r = cfg.single()
    derived, mdl, dims, B, _, _ = cfg.instance(n, s, r, 0)
    # Opened before the report, so that an unwritable path fails first.
    with _output_files(*filter(None, [cfg.out])) as handles:
        report = assumption_report(mdl, B, dims)
        payload = {"n": n, "s": s, "r": r, "seed": cfg.seed,
                   "derived_seed": derived, "n1": dims.n1, "n2": dims.n2,
                   **report.as_dict()}
        text = json.dumps(payload, indent=2)
        for fh in handles:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="hankelsr",
                     description="Blind super-resolution recovery harness")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="JSON file with keys mirroring the flags; flags override it")
    for flag in fields(ExperimentConfig):
        # None marks a flag not given, which leaves the file's value or the default.
        common.add_argument(_option(flag.name), dest=flag.name, default=None,
                            **flag.metadata["argparse"])

    sub.add_parser("run", parents=[common], help="solve one synthesized instance")
    sub.add_parser("sweep", parents=[common], help="Monte Carlo grid of instances")
    sub.add_parser("report", parents=[common], help="emit instance constants")
    sub.add_parser("check", help="run the invariant suite")
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """The defaults, overridden by the ``--config`` file, overridden by the flags."""
    flags = {flag.name: flag for flag in fields(ExperimentConfig)}
    given = {}
    if args.config:
        try:
            with open(args.config) as fh:
                given = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(given, dict):
            raise _UsageError(f"config file {args.config} must hold a JSON object")
        unknown = set(given) - set(flags)
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    # Every file value is parsed, then every flag, so a flag that overrides
    # a malformed file value does not hide it; a null keeps the default.
    for source in (given, {name: getattr(args, name) for name in flags}):
        for name, value in source.items():
            if value is None:
                continue
            try:
                values[name] = flags[name].metadata["parse"](value)
            except (TypeError, ValueError):
                raise _UsageError(f"invalid value {value!r} for {_option(name)}")
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check":
            return cmd_check()
        cfg = _merge_config(args)
        # argparse has rejected any other command
        return {"run": cmd_run, "sweep": cmd_sweep, "report": cmd_report}[args.command](cfg)
    except (_UsageError, ValueError, OSError, RankTruncationError) as exc:  # OSError: --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED if isinstance(exc, RankTruncationError) else EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
