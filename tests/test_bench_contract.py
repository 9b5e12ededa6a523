"""The benchmark's contract with the package, checked without running the benchmark.

``bench/tracing.py`` wraps package functions by (module, name), and a name
that no longer resolves is skipped silently, so its metrics would read 0.
``bench/run.py`` drives the solver and the report through their public
signatures; each workload's warm-up trial must solve and pass its gate.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


run = _load("run")
tracing = _load("tracing")


@pytest.mark.parametrize("module,function", sorted(tracing.LAYER_SPANS))
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"hankelsr.{module}"), function, None))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_warmup_trial_passes_its_gate(name):
    api = run.Api()
    wl = run.WORKLOADS[name]
    trial = run.attempt(api, wl, api.instance(wl.warmup_n, run.WARMUP_SEED, run.WARMUP_INDEX))
    assert trial.failure is None and not trial.wrong, trial.failure
