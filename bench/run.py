"""Benchmark of the hankelsr solver: seeded trials, each solved to the solver's own stopping rule.

Run from the repository root, for example:

    python3 bench/run.py --workload fast_n256 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of a traced run.  ``--seconds`` sets how many trials a
run solves, from the time they took on the reference machine, so the same
arguments always solve the same instances.  bench/README.md describes the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS thread: on a small machine shared with other work a single thread
# keeps the timings steadier, and it fixes the order of floating-point
# reductions, hence the iteration counts.
BLAS_THREADS = 1
S, R = 4, 5
RESIDUAL_TOL = 1e-10
STEP_SIZE = 0.5  # the CLI's default step
ERROR_GATE = 1e-8
# Set-ups timed per run.  They are spread over the run, in batches before
# the first cell and after each cell, so that their median does not hang on
# the few seconds of one moment of a host whose speed drifts.
SETUP_SAMPLES = 10
# What a fresh interpreter imports to set up, as the benchmark itself does.
IMPORT_CODE = "import numpy, hankelsr.cli, hankelsr.diagnostics, hankelsr.solver"
# The warm-up instance is the same for every workload seed, so that set-up
# time does not vary with the seed's instances.
WARMUP_SEED, WARMUP_INDEX = 0, 1 << 40


@dataclass(frozen=True)
class Workload:
    n: int
    mode: str
    with_report: bool
    cell_trials: int  # trials per cell; a run solves whole cells
    cell_s: float     # seconds one cell took on the reference machine
    warmup_n: int     # size of the warm-up trial run during set-up


WORKLOADS = {
    "fast_n256": Workload(n=256, mode="fast", with_report=False, cell_trials=20, cell_s=3.3,
                          warmup_n=256),
    "fast_n65536": Workload(n=65536, mode="fast", with_report=False, cell_trials=1, cell_s=17.0,
                            warmup_n=256),
    "dense_report_n512": Workload(n=512, mode="dense", with_report=True, cell_trials=1,
                                  cell_s=7.0, warmup_n=96),
}


def cell_count(wl: Workload, seconds: float) -> int:
    """Cells a run of ``seconds`` solves: as many as fit in it on the reference machine.

    The count depends on the arguments alone, never on a clock, so the same
    seed and seconds always solve the same instances, and ``attempted``,
    ``failed`` and the iteration median repeat exactly between runs.
    """
    return max(1, math.floor(seconds / wl.cell_s))


@dataclass(frozen=True)
class Instance:
    index: int
    seed: int
    model: object
    dims: object
    B: object
    X_true: object
    y: object


@dataclass
class Trial:
    index: int
    seconds: float
    iterations: int | None
    failure: str | None = None  # why the trial failed the gate
    wrong: bool = False         # its output contradicts its own claim


class Api:
    """The public hankelsr modules the benchmark drives."""

    def __init__(self):
        import numpy
        from hankelsr import cli, diagnostics, solver
        self.np, self.cli, self.solver, self.diagnostics = numpy, cli, solver, diagnostics

    def instance(self, n: int, seed: int, index: int) -> Instance:
        derived = self.cli.seed_derivation(seed, index)
        model, dims, B, X_true, y = self.cli.synth_instance(n, S, R, derived)
        return Instance(index, derived, model, dims, B, X_true, y)

    def config(self, mode: str, seed: int):
        kwargs = dict(rank=R, residual_tol=RESIDUAL_TOL, step_size=STEP_SIZE,
                      mode=mode, seed=seed)
        # The fast path needs operator initialization: the dense default runs
        # a full SVD of the lifted matrix, which cannot run at n=65536.  It
        # is requested only while the field exists, since initialization is
        # planned to follow the mode.  The dense workload keeps the default,
        # as the CLI does.
        if mode == "fast" and "init_method" in {f.name for f in fields(self.solver.SolverConfig)}:
            kwargs["init_method"] = "operator"
        return self.solver.SolverConfig(**kwargs)


def _converged(termination) -> bool:
    """True for a "converged" termination, given as a string or as an enum member."""
    return str(getattr(termination, "name", termination)).lower() == "converged"


def _gate(api: Api, inst: Instance, X_hat, trace, report) -> tuple[str | None, bool]:
    """Why the trial failed (None if it passed), and whether its output is wrong.

    A trial whose solver reports that it did not converge has failed but has
    told the truth.  A "converged" estimate far from the ground truth, or a
    report with a non-finite field or kappa < 1, is a wrong output.
    """
    np = api.np
    if report is not None:
        values = report.as_dict()
        bad = sorted(k for k, v in values.items() if not math.isfinite(v))
        if bad:
            return f"report fields not finite: {bad}", True
        if not values["kappa"] >= 1.0:
            return f"report kappa {values['kappa']!r} < 1", True
    if not _converged(trace.termination):
        return f"termination {trace.termination!r}", False
    err = float(np.linalg.norm(X_hat - inst.X_true) / np.linalg.norm(inst.X_true))
    if not err <= ERROR_GATE:
        return f"converged with rel_error {err:.3e} > {ERROR_GATE:g}", True
    return None, False


def attempt(api: Api, wl: Workload, inst: Instance) -> Trial:
    """Solve one instance (and report on it), timed; the ground-truth check is untimed.

    A trial that raises is recorded as failed: a failure never ends the run.
    """
    config = api.config(wl.mode, inst.seed)
    start = time.perf_counter()
    try:
        X_hat, trace = api.solver.solve(inst.y, inst.B, inst.dims, config)
        report = (api.diagnostics.assumption_report(inst.model, inst.B, inst.dims)
                  if wl.with_report else None)
    except Exception:  # the run must go on; the failure is counted
        return Trial(inst.index, time.perf_counter() - start, None,
                     "raised " + traceback.format_exc())
    seconds = time.perf_counter() - start
    try:
        failure, wrong = _gate(api, inst, X_hat, trace, report)
        return Trial(inst.index, seconds, int(trace.iterations[-1]), failure, wrong)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return Trial(inst.index, seconds, None,
                     f"unreadable result: {type(exc).__name__}: {exc}", True)


def synth_cells(api: Api, wl: Workload, seed: int, first: list[Instance],
                count: int) -> list[list[Instance]]:
    """The first ``count`` cells of the seed's instances; ``first`` is cell 0."""
    cells = [first]
    for c in range(1, count):
        base = c * wl.cell_trials
        cells.append([api.instance(wl.n, seed, base + i) for i in range(wl.cell_trials)])
    return cells


def run_cells(api: Api, wl: Workload, cells: list[list[Instance]], tracer=None,
              after_cell=None) -> list[Trial]:
    """Closed loop over the cells: each trial starts when the previous one returns.

    ``after_cell`` is called after each cell, outside the timed trials.
    """
    trials: list[Trial] = []
    for cell in cells:
        for inst in cell:
            if tracer is not None:
                tracer.trial = inst.index
            trials.append(attempt(api, wl, inst))
        if after_cell is not None:
            after_cell()
    return trials


def _import_fresh() -> None:
    """Import the package in a fresh interpreter and wait for it to exit."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", IMPORT_CODE], env=dict(os.environ, PYTHONPATH=path),
                   check=True, timeout=120)


def set_up(api: Api, wl: Workload, seed: int, repeats: int) -> tuple[list[float], list[Instance]]:
    """Seconds of ``repeats`` set-ups, and the first cell.

    One set-up imports the package in a fresh interpreter, synthesizes the
    first cell and runs a warm-up trial.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _import_fresh()
        cell = [api.instance(wl.n, seed, i) for i in range(wl.cell_trials)]
        attempt(api, wl, api.instance(wl.warmup_n, WARMUP_SEED, WARMUP_INDEX))
        times.append(time.perf_counter() - start)
    return times, cell


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the package sources, which identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hankelsr").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(api: Api, seed: int) -> dict:
    blas = api.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": api.np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(trials: list[Trial], setup_s: float) -> dict[str, float]:
    iterations = [t.iterations for t in trials if t.iterations is not None]
    return {
        "setup_s": setup_s,
        "trial_s": statistics.median(t.seconds for t in trials),
        "trials_per_s": len(trials) / sum(t.seconds for t in trials),
        "iterations": float(statistics.median(iterations)) if iterations else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json names them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    return {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "hankelsr" / "__init__.py").is_file():
        print(f"error: no hankelsr sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    api = Api()
    import_s = time.perf_counter() - start
    if Path(api.cli.__file__).resolve().parent != SRC / "hankelsr":
        print(f"error: hankelsr imported from {api.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(api, args.seed)
    count = cell_count(wl, args.seconds)
    if args.trace:
        count = (count + 1) // 2
    repeats = math.ceil(SETUP_SAMPLES / (count + 1))
    setup_times, first_cell = set_up(api, wl, args.seed, repeats)
    cells = synth_cells(api, wl, args.seed, first_cell, count)

    OUT.mkdir(exist_ok=True)
    if args.trace:
        from tracing import Tracer

        # Untraced and traced passes over the same cells, half of a plain
        # run's; the traced pass must repeat the untraced iteration counts.
        plain = run_cells(api, wl, cells)
        tracer = Tracer()
        with tracer.installed():
            traced = run_cells(api, wl, cells, tracer)
        trials = plain + traced
        repeated = all(a.iterations == b.iterations for a, b in zip(plain, traced))
        metrics, notes = tracer.per_layer_metrics()
        metrics["trace.overhead_frac"] = (statistics.median(t.seconds for t in traced)
                                          / statistics.median(t.seconds for t in plain) - 1.0)
        notes["iterations_repeated"] = repeated
        tracer.dump(OUT / f"{args.workload}_seed{args.seed}_spans.json.gz")
    else:
        trials = run_cells(api, wl, cells, after_cell=lambda: setup_times.extend(
            set_up(api, wl, args.seed, repeats)[0]))
        metrics, notes, repeated = end_to_end(trials, statistics.median(setup_times)), {}, True
        notes["setup_times"] = setup_times

    failed = [t for t in trials if t.failure is not None]
    units = metric_units()
    result = {
        "correct": repeated and not any(t.wrong for t in trials),
        "attempted": len(trials),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "import_s": import_s, "notes": notes,
              "trials": [vars(t) for t in trials], **result}
    with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for t in failed:
        print(f"failed trial {t.index}{' (wrong output)' if t.wrong else ''}: {t.failure}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
