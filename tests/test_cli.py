"""Harness tests: seed derivation, trace files, sweeps, checks, reports."""

import argparse
import csv
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hankelsr import checks, cli, hankel, lowrank, solver, sources
from hankelsr.cli import (EXIT_DIVERGED, EXIT_USAGE, ExperimentConfig, TrialRecord,
                          aggregate_sweep, main, seed_derivation, synth_instance,
                          write_trace)
from hankelsr.model import measure
from hankelsr.solver import (ConvergenceTrace, SolverConfig, TraceRecord, fiht,
                             relative_error, solve)


class TestSeedDerivation:
    def test_published_zero_vector(self):
        # the regression vector README publishes
        assert seed_derivation(0, 0) == 12035550249420947055

    def test_deterministic(self):
        assert seed_derivation(123, 45) == seed_derivation(123, 45)

    def test_distinct_indices_never_collide(self):
        for master in (0, 1, 987654321, 2**63):
            seen = {seed_derivation(master, i) for i in range(10_000)}
            assert len(seen) == 10_000

    def test_distinct_masters_differ(self):
        assert seed_derivation(0, 0) != seed_derivation(1, 0)


class TestTrialRecipe:
    def test_instance_is_synth_instance_at_the_derived_seed(self):
        derived, *got = ExperimentConfig(seed=3, complex_subspace=True).instance(48, 2, 2, 1)
        assert derived == seed_derivation(3, 1)
        want = synth_instance(48, 2, 2, derived, None, True)
        assert (got[1].n, got[1].s, got[1].n1) == (want[1].n, want[1].s, want[1].n1)
        for a, b in zip(got[2:], want[2:]):
            np.testing.assert_array_equal(a, b)

    def test_instance_applies_the_solver_rank_rule(self):
        # lifted shape (20, 6): the tangent space at rank 4 would need 8 columns
        with pytest.raises(ValueError, match=re.escape("rank 4 infeasible for lifted "
                                                       "shape (20, 6)")):
            ExperimentConfig().instance(10, 4, 4, 0)

    def test_single_checks_n_then_s_then_r(self):
        assert ExperimentConfig(n=(32,), s=(2,), r=(3,)).single() == (32, 2, 3)
        for grids, name in [(dict(n=(8, 16), s=(1, 2), r=(1, 2)), "n"),
                            (dict(s=(1, 2), r=(1, 2)), "s"), (dict(r=(1, 2)), "r")]:
            with pytest.raises(ValueError, match=f"^--{name} must be a single value"):
                ExperimentConfig(**grids).single()


def run_cli(*args):
    return main(list(args))


# A run that diverges: `--n 48 --s 4 --r 2 --seed 2 --step-size 40`.
DIVERGING = ["--n", "48", "--s", "4", "--r", "2", "--seed", "2", "--step-size", "40",
             "--max-iters", "100"]


@pytest.fixture
def fit_declined(monkeypatch):
    """solve's fit declines every instance, so a command runs FIHT, as on data the fit cannot solve."""
    def declined(*args):
        raise np.linalg.LinAlgError("the fit is declined")

    monkeypatch.setattr(sources, "greedy_start", declined)


def solve_diverging():
    """What fiht returns on the DIVERGING instance, plus that instance's B, y, truth."""
    derived = seed_derivation(2, 0)
    _, dims, B, X_true, y = synth_instance(48, 4, 2, derived)
    X_hat, trace = fiht(y, B, dims, SolverConfig(
        rank=2, max_iters=100, residual_tol=1e-10, step_size=40.0, seed=derived))
    return X_hat, trace, B, y, X_true


class TestRun:
    def test_trace_file_and_exit_code(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--n", "64", "--s", "2", "--r", "2", "--seed", "1",
                       "--max-iters", "80", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "iter,residual,rel_error,log10_rel_error"
        iters = [int(line.split(",")[0]) for line in lines[1:]]
        assert iters == list(range(len(iters)))
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["split"] == {"n1": 32, "n2": 33}
        assert meta["returned_iteration"] == meta["iterations"] == iters[-1]
        assert meta["timing"]["total_s"] > 0
        assert len(meta["timing"]["per_record_elapsed_s"]) == len(iters)

    def test_sidecar_names_the_method(self, tmp_path, monkeypatch):
        out = tmp_path / "trace.csv"
        meta = tmp_path / "trace.csv.meta.json"
        assert run_cli("run", "--n", "64", "--s", "2", "--r", "2", "--out", str(out)) == 0
        assert json.loads(meta.read_text())["method"] == "fit"
        # a repeated location makes the fit's Gram matrix singular: solve runs FIHT
        monkeypatch.setattr(sources, "greedy_start", lambda *args: [0.5, 0.5])
        assert run_cli("run", "--n", "64", "--s", "2", "--r", "2", "--out", str(out)) == 0
        assert json.loads(meta.read_text())["method"] == "fiht"

    def test_zero_iterations_boundary(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--n", "32", "--s", "2", "--r", "2",
                       "--max-iters", "0", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2  # header plus the initialization row
        assert lines[1].startswith("0,")

    def test_byte_identical_traces_dense(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--n", "48", "--s", "2", "--r", "2", "--seed", "7",
                "--max-iters", "60"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_complex_sensing_vectors(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--n", "64", "--s", "2", "--r", "2", "--seed", "1",
                       "--complex-subspace", "--out", str(out))
        assert code == 0
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["complex_subspace"] is True
        assert meta["termination"] == "converged" and meta["final_rel_error"] < 1e-6
        # the sensing vectors are complex, so the trace is not the real one's
        real = tmp_path / "real.csv"
        assert run_cli("run", "--n", "64", "--s", "2", "--r", "2", "--seed", "1",
                       "--out", str(real)) == 0
        assert out.read_bytes() != real.read_bytes()

    def test_divergence_exit_code(self, tmp_path, fit_declined):
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--n", "48", "--s", "4", "--r", "2", "--seed", "2",
                       "--step-size", "40", "--max-iters", "100",
                       "--out", str(out))
        assert code == 2
        assert out.exists()  # trace still written

    def test_divergence_reports_the_returned_estimate(self, tmp_path, capsys, fit_declined):
        out = tmp_path / "trace.csv"
        assert run_cli("run", *DIVERGING, "--out", str(out)) == 2
        X_hat, trace, B, y, X_true = solve_diverging()
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["final_rel_error"] == relative_error(X_hat, X_true)
        assert meta["final_residual"] == float(np.linalg.norm(measure(X_hat, B) - y))
        assert meta["iterations"] == trace.records[-1].iteration
        # the returned estimate is the initialization, and the sidecar says so
        assert meta["returned_iteration"] == trace.returned_iteration == 0
        assert meta["termination"] == trace.termination == (
            "diverged: residual grew past its running minimum at iteration 10")
        # the last trace row is the diverged iterate, far from the returned one
        last_err = float(out.read_text().strip().split("\n")[-1].split(",")[2])
        assert last_err > 1e3 * meta["final_rel_error"]
        assert f"rel_error={meta['final_rel_error']:.3e}" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert run_cli("run", "--n", "0") == 1
        assert run_cli("run", "--n", "banana") == 1
        assert run_cli("run", "--n", "16,32") == 1  # grids only for sweep

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 48, "s": 2, "r": 4, "max_iters": 40, "seed": 5}))
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--config", str(cfg), "--r", "2", "--out", str(out))
        assert code == 0
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["n"] == 48 and meta["r"] == 2 and meta["max_iters"] == 40

    def test_unreadable_or_non_object_config(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run_cli("run", "--config", str(missing)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {missing}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[48, 2, 2]")
        assert run_cli("run", "--config", str(cfg)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: config file {cfg} must hold a JSON object\n"

    def test_null_config_value_keeps_the_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 48, "max_iters": None, "tol": None}))
        merged = cli._merge_config(cli._build_parser().parse_args(["run", "--config", str(cfg)]))
        default = cli._merge_config(cli._build_parser().parse_args(["run"]))
        assert merged == dataclasses.replace(default, n=(48,))

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for key, value in [("rank", 2), ("mode", "fast")]:
            cfg.write_text(json.dumps({key: value}))
            assert run_cli("run", "--config", str(cfg)) == 1
            assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"

    @pytest.mark.parametrize("key,value", [
        ("with_report", "false"), ("complex_subspace", 1), ("seed", 1.9),
        ("seed", True), ("tol", False), ("n", [32.5]),
        ("n", [True]), ("max_iters", 40.0), ("out", 3)])
    def test_config_value_of_the_wrong_type(self, key, value, tmp_path, capsys,
                                            monkeypatch):
        # refused, not coerced: "false" would turn a switch on, 1.9 become 1;
        # and refused also where a flag overrides it
        def no_work(*args, **kwargs):
            raise AssertionError("work started despite a bad config value")

        monkeypatch.setattr(cli, "solve", no_work)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 32, "s": 2, "r": 2, key: value}))
        out = tmp_path / "out.csv"
        flag = "--" + key.replace("_", "-")
        good = {"seed": ["1"], "tol": ["1e-10"], "n": ["32"], "max_iters": ["40"],
                "out": [str(out)]}
        for command in ("run", "sweep"):
            for override in ([], [flag, *good.get(key, [])]):
                assert run_cli(command, "--config", str(cfg), "--out", str(out),
                               *override) == EXIT_USAGE
                assert capsys.readouterr().err == f"error: invalid value {value!r} for {flag}\n"
                assert not out.exists()

    def test_default_scale_run_error_is_affinely_decreasing(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--n", "256", "--s", "4", "--r", "5", "--seed", "1",
                       "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        log_err = np.array([float(r[3]) for r in rows if r[3] != "-inf"])
        # past the transient the log error falls at a steady slope
        tail = log_err[len(log_err) // 3:]
        t = np.arange(len(tail))
        slope = np.polyfit(t, tail, 1)[0]
        assert slope < -0.01
        assert tail[-1] < tail[0] - 2.0

    def test_rel_error_columns_require_ground_truth(self, tmp_path):
        trace = ConvergenceTrace(records=[TraceRecord(0, 1.0, None, 0.01),
                                          TraceRecord(1, 0.5, None, 0.02)],
                                 termination="max_iters")
        buf = io.StringIO()
        write_trace(buf, trace)
        assert buf.getvalue() == "iter,residual\n0,1.0\n1,0.5\n"

    def test_default_run_never_lifts(self, tmp_path, capsys, monkeypatch, fit_declined):
        # At s=4 the lift of an n=4096 signal has 0.27 GB of complex entries,
        # and 4.3 GB at n=16384: a run at default flags must not form it.
        def no_lift(*args):
            raise AssertionError("run materialized the lift")

        monkeypatch.setattr(hankel, "lift", no_lift)
        out = tmp_path / "trace.csv"
        assert run_cli("run", "--n", "4096", "--max-iters", "1", "--out", str(out)) == 0
        assert "max_iters after 1 iterations" in capsys.readouterr().out

    def test_run_defaults_are_the_solver_defaults(self):
        # max_iters, tol and step_size have one default, SolverConfig's
        cfg = cli._merge_config(cli._build_parser().parse_args(["run"]))
        assert cfg.solver_config(rank=5, seed=0) == SolverConfig(rank=5)


class TestRejectedInput:
    @pytest.mark.parametrize("flags", [
        ["--tol", "nan"], ["--success-tol", "nan"], ["--step-size", "nan"],
        ["--step-size", "inf"], ["--step-size", "-1"], ["--variant", "weighted"],
        ["--trials", "0"], ["--tol", "inf"], ["--success-tol", "inf"],
        ["--mode", "fast"]])
    def test_bad_flags_rejected_before_solving(self, flags, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("an instance was solved despite a bad flag")

        monkeypatch.setattr(cli, "solve", no_solve)
        for command in ("run", "sweep"):
            out = tmp_path / f"{command}.csv"
            code = run_cli(command, "--n", "32", "--s", "2", "--r", "2", *flags,
                           "--out", str(out))
            assert code == EXIT_USAGE
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "report"])
    def test_unwritable_out_is_a_usage_error(self, command, tmp_path, capsys, monkeypatch):
        # reported before any instance is solved or reported on
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was opened")

        monkeypatch.setattr(cli, "solve", no_work)
        monkeypatch.setattr(cli, "assumption_report", no_work)
        out = tmp_path / "missing" / "out.csv"
        code = run_cli(command, "--n", "32", "--s", "2", "--r", "2",
                       "--max-iters", "2", "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_sweep_unwritable_summary_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # the summary path is a directory: sweep fails before any trial and
        # removes the rows file it had already opened
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was opened")

        monkeypatch.setattr(cli, "solve", no_work)
        (tmp_path / "x_summary.csv").mkdir()
        code = run_cli("sweep", "--n", "32", "--s", "2", "--r", "2", "--trials", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["x_summary.csv"]

    def test_infeasible_rank_leaves_no_output(self, tmp_path, capsys):
        # lifted shape (20, 6): the tangent space at rank 4 would need 8 columns
        out = tmp_path / "x.csv"
        code = run_cli("run", "--n", "10", "--s", "4", "--r", "4", "--out", str(out))
        assert code == EXIT_USAGE
        assert "rank 4 infeasible for lifted shape (20, 6)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--n", "10", "--s", "4", "--r", "4"],
                                       ["--n", "8", "--s", "1", "--r", "4", "--n1", "1"]])
    def test_report_rejects_the_ranks_run_rejects(self, flags, tmp_path, capsys):
        # lifted shapes (20, 6) and (1, 8): rank 4 would need 8 columns and 8 rows
        errors = []
        for command in ("run", "report"):
            out = tmp_path / f"{command}.json"
            assert run_cli(command, *flags, "--out", str(out)) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: rank 4 infeasible") and "Traceback" not in err
            errors.append(err)
        assert errors[0] == errors[1]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "report", "sweep"])
    def test_rank_above_half_n_rejected_as_in_solve(self, command, tmp_path, capsys):
        # n=8 < 2r: the rank rule of solve (lifted shape (16, 5)) refuses the
        # rank before the model is drawn, so its message is solve's
        with pytest.raises(ValueError) as solved:
            solve(np.zeros(8), np.ones((4, 8)), hankel.choose_dims(8, 4), SolverConfig(rank=5))
        assert str(solved.value) == "rank 5 infeasible for lifted shape (16, 5): need 2*rank <= 5"
        out = tmp_path / "out.csv"
        code = run_cli(command, "--n", "8", "--s", "4", "--r", "5", "--out", str(out))
        if command == "sweep":
            assert code == 0
            row = out.read_text().strip().split("\n")[1]
            assert f'"config_error: {solved.value}"' in row
        else:
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {solved.value}\n"
            assert list(tmp_path.iterdir()) == []

    def test_readme_lists_every_shared_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.search(r"Shared flags: `([^`]*)`", readme).group(1)
        subparsers = next(action for action in cli._build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        options = {opt for action in subparsers.choices["run"]._actions
                   for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
        assert set(re.findall(r"--[a-z0-9-]+", listed)) == options


class TestUncertifiedTruncation:
    """A ``RankTruncationError`` of the initialization's operator SVD reaches
    no command as a traceback.

    The operator SVD's budget is cut to 10 basis columns (five blocks at
    r=2) and the certificate the initialization asks of it made unreachable,
    so it fails wherever the lifted matrix has more than 10 columns; at n=16
    its basis spans all 9 and is exact.  ``report`` certifies the lifted
    truth at the default tolerance first, which its exact rank 2 meets.
    ``solve``'s fit is declined, so that ``run`` and ``sweep`` reach the
    initialization.
    """

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch, fit_declined):
        monkeypatch.setattr(lowrank, "_MAX_COLUMNS", 10)
        monkeypatch.setattr(solver, "_INIT_CERTIFICATE_TOL", 1e-30)

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_error_exit_and_no_output(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = run_cli(command, "--n", "48", "--s", "2", "--r", "2", "--out", str(out))
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("error: no residual certificate within 10 Krylov basis columns")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_records_the_failed_trials_and_goes_on(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--n", "48,16", "--s", "2", "--r", "2", "--trials", "2",
                       "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["48", "48", "16", "16"]
        for row in rows[:2]:
            assert row[5] == "" and row[6] == "0" and row[-1] == "0"
            assert row[7].startswith('"truncation_error: no residual certificate')
        assert all(row[7] == '"converged"' and row[-1] == "1" for row in rows[2:])


class TestSweep:
    def test_grid_with_infeasible_cell(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--n", "32,48", "--s", "2", "--r", "2,20",
                       "--seed", "3", "--trials", "2", "--max-iters", "60",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 8  # header + 2 cells x 2 ranks x 2 trials
        bad_rows = [l for l in lines[1:] if l.split(",")[2] == "20"]
        assert all("config_error" in l for l in bad_rows)
        assert all(l.strip().endswith(",1") for l in lines[1:]
                   if l.split(",")[2] == "2")  # feasible cells succeed
        summary = (tmp_path / "sweep_summary.csv").read_text().strip().split("\n")
        assert summary[0] == "n,s,r,trials,successes,success_rate"
        rates = {tuple(row.split(",")[:3]): float(row.split(",")[-1])
                 for row in summary[1:]}
        assert rates[("32", "2", "2")] == 1.0
        assert rates[("32", "2", "20")] == 0.0

    def test_rows_parse_as_csv(self, tmp_path):
        # the r=20 termination holds a comma, so it must stay one quoted field
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--n", "32", "--s", "2", "--r", "2,20", "--trials", "1",
                       "--out", str(out)) == 0
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
        assert rows[1][header.index("termination")] == (
            "config_error: rank 20 infeasible for lifted shape (32, 17): need 2*rank <= 17")

    def test_infeasible_rank_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--n", "10", "--s", "4", "--r", "4",
                       "--out", str(out)) == 0
        row = out.read_text().strip().split("\n")[1]
        assert row.startswith(f"10,4,4,0,{seed_derivation(1, 0)},,0,"
                              '"config_error: rank 4 infeasible for lifted shape (20, 6)')
        assert row.endswith(",0")

    def test_failed_report_leaves_no_outcome(self, tmp_path, monkeypatch):
        # the solve succeeds, the report raises: the row records neither
        def failing_report(*args, **kwargs):
            raise ValueError("report failed")

        monkeypatch.setattr(cli, "assumption_report", failing_report)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--n", "32", "--s", "2", "--r", "2", "--seed", "2",
                       "--trials", "1", "--max-iters", "40",
                       "--with-report", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            header, row = list(csv.reader(fh))
        fields = dict(zip(header, row))
        assert fields["rel_error"] == "" and fields["iterations"] == "0"
        assert fields["termination"] == "config_error: report failed"
        assert fields["success"] == "0" and fields["kappa"] == ""

    def test_summary_path_beside_a_dotted_directory(self, tmp_path, monkeypatch):
        # the summary's name drops the extension of --out, not of its directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.b").mkdir()
        assert run_cli("sweep", "--n", "32", "--s", "2", "--r", "2", "--max-iters", "5",
                       "--out", "a.b/sweep") == 0
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert written == ["a.b", "a.b/sweep", "a.b/sweep_summary.csv"]

    def test_diverged_trial_reports_the_returned_estimate(self, tmp_path, fit_declined):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", *DIVERGING, "--trials", "1", "--out", str(out)) == 0
        X_hat, _, _, _, X_true = solve_diverging()
        row = out.read_text().strip().split("\n")[1]
        assert row.split(",")[5] == repr(relative_error(X_hat, X_true))
        assert "diverged" in row and row.endswith(",0")

    def test_aggregate_is_pure_function_of_records(self):
        def rec(n, trial, success):
            return TrialRecord(n=n, s=1, r=1, trial=trial, derived_seed=0,
                               rel_error=None, iterations=0, termination="x",
                               elapsed_ms=0.0, success=success)
        records = [rec(8, 0, True), rec(8, 1, False), rec(16, 0, True)]
        agg = aggregate_sweep(records)
        assert agg == aggregate_sweep(list(records))
        assert agg[0]["success_rate"] == 0.5
        assert agg[1]["success_rate"] == 1.0

    def test_with_report_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--n", "32", "--s", "2", "--r", "2", "--seed", "2",
                       "--trials", "1", "--max-iters", "40",
                       "--with-report", "--out", str(out))
        assert code == 0
        header, row = out.read_text().strip().split("\n")
        assert header.endswith("mu0,mu1,kappa,sigma_r,rip_norm_estimate,"
                               "init_spectral_distance")
        assert float(row.split(",")[-4]) >= 1.0  # kappa

    def test_single_trial_reduces_to_run(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--n", "48", "--s", "2", "--r", "2", "--seed", "1",
                       "--trials", "1", "--max-iters", "80",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        # same derived seed as a run with the same master seed
        assert lines[1].split(",")[4] == str(seed_derivation(1, 0))

    def test_success_rate_non_decreasing_in_length(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--n", "64,128,256", "--s", "2", "--r", "2",
                       "--seed", "11", "--trials", "5", "--max-iters", "200",
                       "--out", str(out))
        assert code == 0
        summary = (tmp_path / "sweep_summary.csv").read_text().strip().split("\n")[1:]
        rates = [float(row.split(",")[-1]) for row in summary]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 1.0


class TestCheck:
    def test_fresh_build_passes(self, capsys):
        assert run_cli("check") == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out

    def test_injected_weights_fault_fails_only_weights(self, capsys, monkeypatch):
        # the suite discriminates: a wrong oracle count fails one property
        count = checks.brute_force_weights

        def miscounted(n, n1):
            w = count(n, n1)
            w[n // 2] += 1
            return w

        monkeypatch.setattr(checks, "brute_force_weights", miscounted)
        assert run_cli("check") == 3
        out = capsys.readouterr().out
        failed = [l for l in out.splitlines() if l.startswith("[FAIL]")]
        assert len(failed) == 1 and "weights_closed_form" in failed[0]


class TestReport:
    def test_emits_flat_document(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("report", "--n", "48", "--s", "2", "--r", "2", "--seed", "4",
                       "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("mu0", "mu1", "kappa", "sigma_r", "rip_norm_estimate",
                    "init_spectral_distance", "n1", "n2"):
            assert key in payload
        assert payload["kappa"] >= 1.0
