import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from expertq import analysis, cli, model, sched, sim
from expertq.model import load_instance


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout, then stderr


def invoke(argv: list[str]) -> Result:
    """Run ``cli.run(argv)`` with stdout and stderr captured. A usage
    error's ``SystemExit`` becomes the exit code; any other exception
    propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue(), out.getvalue() + err.getvalue())


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def single_expert_doc(lam=0.5, p=(0.5, 0.5), times=(1, 2)):
    return {
        "topics": len(p),
        "lambda": lam,
        "pmf": [list(p)],
        "experts": [{"id": 0, "T": list(times)}],
    }


def specialist_doc(lam=0.6, n=3):
    return {
        "topics": n,
        "lambda": lam,
        "pmf": [[1.0 / n] * n for _ in range(n)],
        "experts": [
            {"id": i, "T": [1 if x == i else None for x in range(n)]}
            for i in range(n)
        ],
    }


def generalist_doc(lam=0.25, n=3):
    return {
        "topics": n,
        "lambda": lam,
        "pmf": [[1.0 / n] * n for _ in range(n)],
        "experts": [{"id": i, "T": [float(n)] * n} for i in range(n)],
    }


class TestCapacityCommand:
    def test_single_mode(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"instance": single_expert_doc(), "mode": "single"},
        )
        result = invoke(["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "capacity.json").read_text())
        assert payload["lambda_star"] == pytest.approx(2 / 3, abs=1e-12)

    def test_multi_dual_on_specialists(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"instance": specialist_doc(), "mode": "multi-dual"},
        )
        result = invoke(["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "capacity.json").read_text())
        assert payload["lambda_star"] == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(payload["certificate"]["s"], np.eye(3), atol=1e-9)

    @pytest.mark.parametrize("mode", ["multi-primal", "multi-dual"])
    def test_unanswerable_mass_exits_2(self, tmp_path, mode):
        doc = specialist_doc()
        doc["experts"][2]["T"] = [None, None, None]
        cfg = write_json(tmp_path / "cfg.json", {"instance": doc, "mode": mode})
        result = invoke(["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "topics [2] carry mass but no expert can answer them" in result.output
        assert not (tmp_path / "out" / "capacity.json").exists()

    def test_zero_budget_loss_matches_single_exactly(self, tmp_path):
        single_cfg = write_json(
            tmp_path / "single.json",
            {"instance": single_expert_doc(), "mode": "single"},
        )
        loss_cfg = write_json(
            tmp_path / "loss.json",
            {"instance": single_expert_doc(), "mode": "loss", "epsilon": 0.0},
        )
        invoke(["capacity", single_cfg, "--out", str(tmp_path / "a")])
        invoke(["capacity", loss_cfg, "--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "capacity.json").read_text())
        b = json.loads((tmp_path / "b" / "capacity.json").read_text())
        assert a["lambda_star"] == b["lambda_star"]

    def test_malformed_json_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out_dir = tmp_path / "out"
        result = invoke(["capacity", str(bad), "--out", str(out_dir)])
        assert result.exit_code == 2
        assert not (out_dir / "capacity.json").exists()

    def test_invalid_instance_exits_2(self, tmp_path):
        doc = single_expert_doc()
        doc["pmf"] = [[0.5, 0.4]]
        cfg = write_json(tmp_path / "cfg.json", {"instance": doc, "mode": "single"})
        result = invoke(["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_overwrite_needs_force(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"instance": single_expert_doc(), "mode": "single"},
        )
        out = str(tmp_path / "out")
        assert invoke(["capacity", cfg, "--out", out]).exit_code == 0
        assert invoke(["capacity", cfg, "--out", out]).exit_code == 2
        assert (
            invoke(["capacity", cfg, "--out", out, "--force"]).exit_code
            == 0
        )


NAN = float("nan")


def nan_cases():
    """(command, config, message) for each validator NaN used to get past."""
    specialists = specialist_doc()
    specialists["pmf"] = [[NAN, 0.5, 0.5]] * 3
    pair = specialist_doc(n=2)
    return {
        "pmf-single": (
            "capacity",
            {"instance": single_expert_doc(p=(NAN, 1.0)), "mode": "single"},
            "mass must be finite",
        ),
        "pmf-multi-dual": (
            "capacity",
            {"instance": specialists, "mode": "multi-dual"},
            "mass must be finite",
        ),
        "mean-time": (
            "capacity",
            {"instance": single_expert_doc(times=(NAN, 2)), "mode": "single"},
            "got nan",
        ),
        "loss-epsilon": (
            "capacity",
            {"instance": single_expert_doc(), "mode": "loss", "epsilon": NAN},
            "non-negative",
        ),
        "loss-mu": (
            "simulate",
            {
                "instance": single_expert_doc(),
                "scheduler": {"kind": "loss", "mu": [NAN, 1.0]},
                "horizon": 10,
            },
            "config field 'scheduler.mu': expected a non-empty list of numbers in [0, 1]",
        ),
        "routing-s": (
            "simulate",
            {
                "instance": pair,
                "scheduler": {"kind": "routing", "s": [[NAN, 1.0], [NAN, 0.0]]},
                "horizon": 10,
            },
            "non-finite",
        ),
    }


@pytest.mark.parametrize("case", sorted(nan_cases()))
def test_nan_input_exits_2(tmp_path, case):
    command, config, message = nan_cases()[case]
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    result = invoke([command, cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


# Written beside every malformed case's config: an instance with lambda 1.5.
INVALID_INSTANCE_FILE = "invalid_instance.json"


def malformed_cases():
    """(command, config, field) for each wrongly typed value that used to
    crash, or to run silently as a different value."""
    simulate = {
        "instance": single_expert_doc(),
        "scheduler": {"kind": "work_conserving"},
        "horizon": 100,
        "seed": 1,
    }
    sweep = {**simulate, "lambdas": [0.3], "seeds": [0]}
    verify = {"instance": generalist_doc()}
    single_verify = {**verify, "instance": single_expert_doc()}
    bad_id = single_expert_doc()
    bad_id["experts"][0]["id"] = True
    bad_lambda = {**single_expert_doc(), "lambda": False}
    bad_times = single_expert_doc(times=(1, True))
    string_numbers = single_expert_doc(p=(0.5, "0.5"), times=(1, "2"))
    bad_s = [["1", 0, 0], [0, True, 0], [0, 0, 1]]
    ragged_s = [[1, 0, 0], [0, 1], [0, 0, 1]]
    ragged_pmf = {**single_expert_doc(), "pmf": [[0.5, 0.5], [1.0]]}
    routing = {**simulate, "instance": specialist_doc()}
    routing_verify = {**verify, "instance": specialist_doc()}
    return {
        "capacity-times-true": (
            "capacity",
            {"instance": bad_times, "mode": "single"},
            "experts[0].T",
        ),
        "capacity-pmf-string": (
            "capacity",
            {"instance": string_numbers, "mode": "single"},
            "pmf",
        ),
        "capacity-experts-number": (
            "capacity",
            {"instance": {**single_expert_doc(), "experts": 3}, "mode": "single"},
            "experts",
        ),
        "simulate-loss-mu-true": (
            "simulate",
            {**simulate, "scheduler": {"kind": "loss", "mu": [True, "0.5"]}},
            "scheduler.mu",
        ),
        # The run used only mu and dropped the given budget.
        "simulate-loss-mu-and-epsilon": (
            "simulate",
            {**simulate, "scheduler": {"kind": "loss", "mu": [0.0, 0.0], "epsilon": 0.0}},
            "scheduler.epsilon",
        ),
        "simulate-loss-mu-null": (
            "simulate",
            {**simulate, "scheduler": {"kind": "loss", "mu": None, "epsilon": 0.1}},
            "scheduler.mu",
        ),
        "simulate-routing-s-mixed": (
            "simulate",
            {**routing, "scheduler": {"kind": "routing", "s": bad_s}},
            "scheduler.s",
        ),
        "simulate-routing-s-null": (
            "simulate",
            {**routing, "scheduler": {"kind": "routing", "s": None}},
            "scheduler.s",
        ),
        "verify-routing-s-mixed": (
            "verify",
            {**routing_verify, "routing_check": {"s": bad_s}},
            "routing_check.s",
        ),
        "verify-routing-s-null": (
            "verify",
            {**routing_verify, "routing_check": {"s": None}},
            "routing_check.s",
        ),
        "simulate-routing-s-ragged": (
            "simulate",
            {**routing, "scheduler": {"kind": "routing", "s": ragged_s}},
            "scheduler.s",
        ),
        "verify-routing-s-ragged": (
            "verify",
            {**routing_verify, "routing_check": {"s": ragged_s}},
            "routing_check.s",
        ),
        "capacity-pmf-ragged": (
            "capacity",
            {"instance": ragged_pmf, "mode": "single"},
            "pmf",
        ),
        "simulate-horizon-null": ("simulate", {**simulate, "horizon": None}, "horizon"),
        "simulate-horizon-true": ("simulate", {**simulate, "horizon": True}, "horizon"),
        "simulate-horizon-fraction": ("simulate", {**simulate, "horizon": 2.5}, "horizon"),
        "simulate-scheduler-string": ("simulate", {**simulate, "scheduler": "wc"}, "scheduler"),
        "simulate-seed-string": ("simulate", {**simulate, "seed": "abc"}, "seed"),
        "simulate-seed-fraction": ("simulate", {**simulate, "seed": 1.9}, "seed"),
        "simulate-sample-interval-fraction": (
            "simulate",
            {**simulate, "sample_interval": 2.5},
            "sample_interval",
        ),
        "simulate-expert-id-true": (
            "simulate",
            {**simulate, "instance": bad_id},
            "experts[0].id",
        ),
        "simulate-lambda-false": ("simulate", {**simulate, "instance": bad_lambda}, "lambda"),
        "simulate-instance-number": ("simulate", {**simulate, "instance": 5}, "instance"),
        "sweep-seeds-number": ("sweep", {**sweep, "seeds": 5}, "seeds"),
        "sweep-lambdas-null": ("sweep", {**sweep, "lambdas": None}, "lambdas"),
        # The retired drift block used to set verify's one-expert run.
        "verify-drift-block": (
            "verify",
            {**single_verify, "drift": {"horizon": 10}},
            "drift",
        ),
        "verify-misestimation-unknown-key": (
            "verify",
            {**single_verify, "misestimation": {"horizon": 2000, "seed": [1]}},
            "misestimation.seed",
        ),
        "verify-routing-check-unknown-key": (
            "verify",
            {**routing_verify, "routing_check": {"horizon": 100, "S": bad_s}},
            "routing_check.S",
        ),
        "verify-misestimation-seed-fraction": (
            "verify",
            {**single_verify, "misestimation": {"seeds": [1.7]}},
            "misestimation.seeds",
        ),
        "simulate-tie-break-number": (
            "simulate",
            {**simulate, "scheduler": {"kind": "work_conserving", "tie_break": 5}},
            "scheduler.tie_break",
        ),
        "simulate-selection-null": (
            "simulate",
            {**simulate, "scheduler": {"kind": "baseline", "selection": None}},
            "scheduler.selection",
        ),
        "simulate-routing-ignored-keys": (
            "simulate",
            {
                **routing,
                "scheduler": {
                    "kind": "routing",
                    "tie_break": "longest-queue",
                    "epsilon": 0.3,
                    "mu": [0.5, 0.5, 0.5],
                },
            },
            "scheduler.tie_break",
        ),
        "capacity-multi-dual-epsilon": (
            "capacity",
            {"instance": specialist_doc(), "mode": "multi-dual", "epsilon": 0.5},
            "epsilon",
        ),
        "capacity-single-epsilon": (
            "capacity",
            {"instance": single_expert_doc(), "mode": "single", "epsilon": 0.5},
            "epsilon",
        ),
        "simulate-routing-ignored-mu": (
            "simulate",
            {**routing, "scheduler": {"kind": "routing", "mu": [1.0, 1.0, 1.0]}},
            "scheduler.mu",
        ),
        "simulate-routing-ignored-epsilon": (
            "simulate",
            {**routing, "scheduler": {"kind": "routing", "epsilon": 0.1}},
            "scheduler.epsilon",
        ),
        "simulate-work-conserving-ignored-selection": (
            "simulate",
            {
                **simulate,
                "scheduler": {"kind": "work_conserving", "selection": "topic_uniform"},
            },
            "scheduler.selection",
        ),
        "simulate-work-conserving-ignored-mu": (
            "simulate",
            {**simulate, "scheduler": {"kind": "work_conserving", "mu": [1.0, 0.5]}},
            "scheduler.mu",
        ),
        "simulate-loss-ignored-s": (
            "simulate",
            {**simulate, "scheduler": {"kind": "loss", "epsilon": 0.1, "s": [[1.0, 1.0]]}},
            "scheduler.s",
        ),
        "simulate-loss-ignored-selection": (
            "simulate",
            {
                **simulate,
                "scheduler": {"kind": "loss", "mu": [1, 1], "selection": "topic_uniform"},
            },
            "scheduler.selection",
        ),
        "simulate-baseline-ignored-tie-break": (
            "simulate",
            {**routing, "scheduler": {"kind": "baseline", "tie_break": "arbitrary"}},
            "scheduler.tie_break",
        ),
        "simulate-baseline-ignored-s": (
            "simulate",
            {**routing, "scheduler": {"kind": "baseline", "s": np.eye(3).tolist()}},
            "scheduler.s",
        ),
        "simulate-unknown-scheduler-key": (
            "simulate",
            {**simulate, "scheduler": {"kind": "work_conserving", "seed": 3}},
            "scheduler.seed",
        ),
        "sweep-work-conserving-ignored-epsilon": (
            "sweep",
            {**sweep, "scheduler": {"kind": "work_conserving", "epsilon": 0.1}},
            "scheduler.epsilon",
        ),
        "capacity-epsilon-null": (
            "capacity",
            {"instance": single_expert_doc(), "mode": "loss", "epsilon": None},
            "epsilon",
        ),
        # An empty list used to run on no evidence: a sweep with no cells,
        # or a verify that passed without a check.
        "sweep-lambdas-empty": ("sweep", {**sweep, "lambdas": []}, "lambdas"),
        "sweep-seeds-empty": ("sweep", {**sweep, "seeds": []}, "seeds"),
        "verify-misestimation-seeds-empty": (
            "verify",
            {**single_verify, "misestimation": {"seeds": []}},
            "misestimation.seeds",
        ),
        # Out of range: the instance, the sort check or the loss budget named no field.
        "sweep-lambdas-over-1": ("sweep", {**sweep, "lambdas": [0.5, 1.2]}, "lambdas"),
        "sweep-lambdas-unsorted": ("sweep", {**sweep, "lambdas": [0.5, 0.3]}, "lambdas"),
        "capacity-loss-epsilon-negative": (
            "capacity",
            {"instance": single_expert_doc(), "mode": "loss", "epsilon": -1},
            "epsilon",
        ),
        "simulate-loss-epsilon-negative": (
            "simulate",
            {**simulate, "scheduler": {"kind": "loss", "epsilon": -1}},
            "scheduler.epsilon",
        ),
        "simulate-loss-epsilon-nan": (
            "simulate",
            {**simulate, "scheduler": {"kind": "loss", "epsilon": math.nan}},
            "scheduler.epsilon",
        ),
        # Out of range: numpy's seed error named no field.
        "simulate-seed-negative": ("simulate", {**simulate, "seed": -1}, "seed"),
        "sweep-seeds-negative": ("sweep", {**sweep, "seeds": [0, 1, -1]}, "seeds"),
        "verify-seed-negative": ("verify", {**verify, "seed": -3}, "seed"),
        "verify-misestimation-seeds-negative": (
            "verify",
            {**single_verify, "misestimation": {"seeds": [1, -2]}},
            "misestimation.seeds",
        ),
        # Exits no other case reaches.
        "config-root-not-an-object": ("capacity", [single_expert_doc()], "instance"),
        "config-without-instance": ("capacity", {"mode": "single"}, "instance"),
        "config-instance-path-missing": (
            "capacity",
            {"instance_path": "missing.json", "mode": "single"},
            "instance_path",
        ),
        "config-instance-path-invalid": (
            "capacity",
            {"instance_path": INVALID_INSTANCE_FILE, "mode": "single"},
            "instance_path",
        ),
        "capacity-unknown-mode": (
            "capacity",
            {"instance": single_expert_doc(), "mode": "dual"},
            "mode",
        ),
        "capacity-single-on-several-experts": (
            "capacity",
            {"instance": generalist_doc(), "mode": "single"},
            "mode",
        ),
        "simulate-unknown-scheduler-kind": (
            "simulate",
            {**simulate, "scheduler": {"kind": "fifo"}},
            "scheduler.kind",
        ),
        # A NaN threshold used to call every cell inconclusive.
        **{
            f"sweep-slope-threshold-{value}": (
                "sweep",
                {**sweep, "slope_threshold": value},
                "slope_threshold",
            )
            for value in (math.nan, math.inf, -math.inf, 0.0, -0.01)
        },
    }


@pytest.mark.parametrize("case", sorted(malformed_cases()))
def test_malformed_value_exits_2_without_traceback(tmp_path, case):
    command, config, field = malformed_cases()[case]
    write_json(tmp_path / INVALID_INSTANCE_FILE, single_expert_doc(lam=1.5))
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    result = invoke([command, cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "config error:" in result.output
    assert f"field {field!r}" in result.output
    assert not out.exists()


def test_invalid_instance_file_is_named_with_its_violation(tmp_path):
    instance = write_json(tmp_path / INVALID_INSTANCE_FILE, single_expert_doc(lam=1.5))
    cfg = write_json(tmp_path / "cfg.json", {"instance_path": instance, "mode": "single"})
    result = invoke(["capacity", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert result.stderr == (
        f"config error: config field 'instance_path': cannot load {instance}: "
        "invalid instance: arrivals.lambda: must lie in [0, 1), got 1.5\n"
    )


def rejected_before_running_cases():
    """(command, config) for each bad value that used to be rejected only
    after some cells or a routing LP had run."""
    sweep = {
        "instance": single_expert_doc(),
        "scheduler": {"kind": "work_conserving"},
        "lambdas": [0.3, 0.4, 0.5],
        "seeds": [1, 2],
        "horizon": 200,
    }
    verify = {"instance": single_expert_doc()}
    # A routing scheduler without 's' solves the LP when it is built.
    routing = {**sweep, "instance": specialist_doc(), "scheduler": {"kind": "routing"}}
    return {
        "simulate-routing-horizon-0": ("simulate", {**routing, "horizon": 0}),
        "simulate-routing-seed-negative": ("simulate", {**routing, "seed": -1}),
        "simulate-routing-sample-interval-0": ("simulate", {**routing, "sample_interval": 0}),
        "sweep-routing-horizon-0": ("sweep", {**routing, "horizon": 0}),
        "sweep-routing-lambdas-empty": ("sweep", {**routing, "lambdas": []}),
        "sweep-routing-lambdas-unsorted": ("sweep", {**routing, "lambdas": [0.5, 0.3]}),
        "sweep-routing-seeds-negative": ("sweep", {**routing, "seeds": [-1]}),
        "sweep-routing-slope-threshold-nan": ("sweep", {**routing, "slope_threshold": math.nan}),
        "sweep-last-load-1.2": ("sweep", {**sweep, "lambdas": [0.3, 0.4, 1.2]}),
        "sweep-horizon-0": ("sweep", {**sweep, "horizon": 0}),
        "sweep-sample-interval-0": ("sweep", {**sweep, "sample_interval": 0}),
        "sweep-slope-threshold-nan": ("sweep", {**sweep, "slope_threshold": math.nan}),
        "verify-drift-block": ("verify", {**verify, "drift": {"horizon": 1_000}}),
        "verify-drift-lambda": ("verify", {**verify, "drift": {"lambda": 0.25}}),
        "verify-routing-check-horizon-0-one-expert": (
            "verify",
            {**verify, "routing_check": {"horizon": 0}},
        ),
        "verify-misestimation-horizon-past-the-cap": (
            "verify",
            {**verify, "misestimation": {"horizon": 500_000_000}},
        ),
        "verify-misestimation-gamma-string": (
            "verify",
            {**verify, "misestimation": {"gamma": "x"}},
        ),
        "sweep-seeds-negative": ("sweep", {**sweep, "seeds": [1, 2, -1]}),
        "verify-misestimation-seeds-negative": (
            "verify",
            {**verify, "misestimation": {"seeds": [1, -2]}},
        ),
        "verify-misestimation-gamma-1.5": (
            "verify",
            {**verify, "misestimation": {"gamma": 1.5}},
        ),
        "verify-misestimation-horizon-0": (
            "verify",
            {**verify, "misestimation": {"horizon": 0}},
        ),
        "verify-routing-check-horizon-0": (
            "verify",
            {**verify, "instance": generalist_doc(), "routing_check": {"horizon": 0}},
        ),
    }


@pytest.mark.parametrize("case", sorted(rejected_before_running_cases()))
def test_rejected_before_any_simulation_or_solve(tmp_path, monkeypatch, case):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the bad value was rejected")

    for name in ("run", "multi_capacity_dual"):
        monkeypatch.setattr(analysis, name, forbidden)
    # sched binds the LP solver when it is imported, so its name is patched too.
    monkeypatch.setattr(sched, "multi_capacity_dual", forbidden)
    command, config = rejected_before_running_cases()[case]
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    result = invoke([command, cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "config error:" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, stderr",
    [
        (
            "sweep",
            {"seeds": [0, 1, -1]},
            "config field 'seeds': expected a non-empty list of non-negative integers, "
            "got [0, 1, -1]",
        ),
        (
            "sweep",
            {"horizon": 0},
            "config field 'horizon': expected a positive integer, got 0",
        ),
        (
            "simulate",
            {"sample_interval": -3},
            "config field 'sample_interval': expected a positive integer, got -3",
        ),
        (
            "verify",
            {"routing_check": {"horizon": 0}},
            "config field 'routing_check.horizon': expected a positive integer, got 0",
        ),
        (
            "verify",
            {"misestimation": {"horizon": 0}},
            "config field 'misestimation.horizon': expected a positive integer, got 0",
        ),
        (
            "verify",
            {"misestimation": {"gamma": 1.5}},
            "config field 'misestimation.gamma': expected a number in (0, 1], got 1.5",
        ),
        (
            "verify",
            {"instance": generalist_doc(), "routing_check": {"horizon": 0}},
            "config field 'routing_check.horizon': expected a positive integer, got 0",
        ),
        (
            "verify",
            {"drift": {"lambda": 0.25}},
            "config field 'drift': verify reads 'routing_check' instead",
        ),
        (
            "sweep",
            {"lambdas": [0.5, 1.2]},
            "config field 'lambdas': expected a non-empty ascending list of numbers in [0, 1), "
            "got [0.5, 1.2]",
        ),
        (
            "sweep",
            {"lambdas": [0.5, 0.3]},
            "config field 'lambdas': expected a non-empty ascending list of numbers in [0, 1), "
            "got [0.5, 0.3]",
        ),
        (
            "simulate",
            {"scheduler": {"kind": "loss", "epsilon": -1}},
            "config field 'scheduler.epsilon': expected a finite non-negative number, got -1",
        ),
        (
            "capacity",
            {"mode": "loss", "epsilon": math.inf},
            "config field 'epsilon': expected a finite non-negative number, got Infinity",
        ),
        (
            "simulate",
            {"scheduler": {"kind": "loss", "epsilon": math.inf}},
            "config field 'scheduler.epsilon': expected a finite non-negative number, "
            "got Infinity",
        ),
        (
            "simulate",
            {"scheduler": {"kind": "loss", "mu": [1.5, 0.5]}},
            "config field 'scheduler.mu': expected a non-empty list of numbers in [0, 1], "
            "got [1.5, 0.5]",
        ),
        (
            "simulate",
            {"scheduler": {"kind": "loss", "mu": [1.0]}},
            "config field 'scheduler.mu': admission policy covers 1 topics, instance has 2",
        ),
        (
            "simulate",
            {"scheduler": {"kind": "loss", "mu": [0.0, 0.0], "epsilon": 0.0}},
            "config field 'scheduler.epsilon': kind 'loss' takes 'mu' or 'epsilon', not both",
        ),
        (
            "simulate",
            {"scheduler": {"kind": "work_conserving", "tie_break": "nope"}},
            "config field 'scheduler.tie_break': unknown tie break 'nope'; "
            "expected one of ('arbitrary', 'uniform_random', 'longest_queue')",
        ),
        (
            "simulate",
            {"scheduler": {"kind": "baseline", "selection": "nope"}},
            "config field 'scheduler.selection': unknown selection mode 'nope'; "
            "expected one of ('request_weighted', 'topic_uniform')",
        ),
    ],
    ids=[
        "seeds",
        "horizon",
        "sample-interval",
        "routing-check-horizon-one-expert",
        "misestimation-horizon",
        "misestimation-gamma",
        "routing-check-horizon",
        "drift-block",
        "lambdas",
        "lambdas-unsorted",
        "scheduler-epsilon",
        "capacity-epsilon-infinite",
        "scheduler-epsilon-infinite",
        "scheduler-mu-range",
        "scheduler-mu-length",
        "scheduler-mu-and-epsilon",
        "scheduler-tie-break",
        "scheduler-selection",
    ],
)
def test_out_of_range_value_is_named_with_its_range(tmp_path, command, extra, stderr):
    config = {
        "instance": single_expert_doc(),
        "scheduler": {"kind": "work_conserving"},
        "lambdas": [0.3],
        "seeds": [1],
        "horizon": 200,
        **extra,
    }
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    result = invoke([command, cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"config error: {stderr}\n"
    assert not out.exists()


def verify_tables():
    """The field table each verify block's reader hands ``config_block``."""
    tables, read = {}, model.config_block

    def spy(doc, path, fields, owner=None):
        tables[path] = fields
        return read(doc, path, fields, owner)

    class Read(Exception):
        """Raised at the first solve, once every block has been read."""

    def solved(*args):
        raise Read

    with mock.patch.object(analysis, "config_block", spy), mock.patch.object(
        analysis, "multi_capacity_dual", solved
    ), suppress(Read):
        analysis.verify(model.instance_from_dict(single_expert_doc()), {}, 0)
    return tables


def block_table_cases():
    """(command, config, block, owner, table) per config block and scheduler
    kind, each table the one its reader reads that block by."""
    simulate = {"instance": single_expert_doc(), "horizon": 100}
    cases = {
        f"scheduler-{kind}": (
            "simulate",
            {**simulate, "scheduler": {"kind": kind}},
            "scheduler",
            f"kind {kind!r}",
            {"kind": ("string",), **fields},
        )
        for kind, fields in sched.SCHEDULER_FIELDS.items()
    }
    tables = verify_tables()
    for block in ("routing_check", "misestimation"):
        instance = single_expert_doc()
        cases[block] = ("verify", {"instance": instance}, block, repr(block), tables[block])
    return cases


@pytest.mark.parametrize("case", sorted(block_table_cases()))
def test_each_block_is_refused_and_read_by_its_table(tmp_path, case):
    command, config, block, owner, table = block_table_cases()[case]

    def refusal(extra: dict) -> str:
        doc = {**config, block: {**config.get(block, {}), **extra}}
        out = tmp_path / "out"
        result = invoke([command, write_json(tmp_path / "cfg.json", doc), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert not out.exists()
        return result.stderr

    assert refusal({"nope": 1}) == (
        f"config error: config field '{block}.nope': {owner} takes only {tuple(table)}\n"
    )
    for key in table:
        stderr = refusal({key: True})
        assert stderr.startswith(f"config error: config field '{block}.{key}': expected "), key


def test_a_block_is_read_whole_before_the_next(tmp_path):
    # routing_check is checked and read before misestimation, so its bad
    # value is the fault reported, not the later block's unknown key.
    config = {
        "instance": single_expert_doc(),
        "routing_check": {"horizon": 0},
        "misestimation": {"seed": [1]},
    }
    out = tmp_path / "out"
    result = invoke(["verify", write_json(tmp_path / "cfg.json", config), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr == (
        "config error: config field 'routing_check.horizon': expected a positive integer, got 0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_sample_count_past_the_cap_exits_2(tmp_path, monkeypatch, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the sample count was refused")

    for module in (analysis, sim):
        monkeypatch.setattr(module, "run", forbidden)
    config = {
        "instance": single_expert_doc(),
        "scheduler": {"kind": "work_conserving"},
        "lambdas": [0.3],
        "seeds": [1],
        "horizon": sim.MAX_SAMPLES - 1,  # horizon // 1 + 2 samples: one past the cap
        "sample_interval": 1,
    }
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    result = invoke([command, cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr == (
        f"config error: horizon {sim.MAX_SAMPLES - 1} at sample_interval 1 keeps "
        f"{sim.MAX_SAMPLES + 1} samples, over the cap of {sim.MAX_SAMPLES}; "
        "raise sample_interval\n"
    )
    assert not out.exists()


def test_misestimation_horizon_past_the_cap_exits_2_before_any_run(tmp_path, monkeypatch):
    # Misestimation runs sample every 100 slots: 419,430,299 is the longest
    # horizon whose samples fit the cap.
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the misestimation horizon was refused")

    for module in (analysis, sim):
        monkeypatch.setattr(module, "run", forbidden)
    (path,) = [p for p in CONFIGS if p.name == "verify_single.json"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["instance_path"] = str(path.parent / doc["instance_path"])
    doc.update({"routing_check": {"horizon": 1000}, "misestimation": {"horizon": 500_000_000}})
    cfg = write_json(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    result = invoke(["verify", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr == (
        "config error: config field 'misestimation.horizon': "
        "expected at most 419430299, got 500000000\n"
    )
    assert analysis.MISESTIMATION_MAX_HORIZON // 100 + 2 == sim.MAX_SAMPLES
    assert not out.exists()


@pytest.mark.parametrize(
    "instance", [single_expert_doc(), generalist_doc()], ids=["single", "routing"]
)
def test_verify_refuses_the_drift_block(tmp_path, monkeypatch, instance):
    # One path reads routing_check and misestimation for any expert count;
    # the retired drift block exits 2 naming its replacement.
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the retired block was refused")

    for name in ("run", "multi_capacity_dual"):
        monkeypatch.setattr(analysis, name, forbidden)
    config = {
        "instance": instance,
        "routing_check": {"horizon": 1_000},
        "misestimation": {"gamma": 0.5},
        "drift": {"horizon": 1_000},
    }
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    result = invoke(["verify", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    stderr = "config error: config field 'drift': verify reads 'routing_check' instead\n"
    assert result.stderr == stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify"])
def test_negative_seed_override_is_refused(tmp_path, monkeypatch, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the bad seed was refused")

    for name in ("run", "multi_capacity_dual"):
        monkeypatch.setattr(analysis, name, forbidden)
    monkeypatch.setattr(sim, "run", forbidden)
    config = {
        "instance": single_expert_doc(),
        "scheduler": {"kind": "work_conserving"},
        "lambdas": [0.3],
        "seeds": [1],
        "horizon": 200,
    }
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    result = invoke([command, cfg, "--out", str(out), "--seed-override", "-1"])
    assert result.exit_code == 2, result.output
    assert "argument --seed-override: -1 is negative" in result.stderr
    assert not out.exists()


def test_capacity_takes_no_seed_override(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"instance": single_expert_doc()})
    out = tmp_path / "out"
    result = invoke(["capacity", cfg, "--out", str(out), "--seed-override", "1"])
    assert result.exit_code == 2, result.output
    assert "unrecognized arguments: --seed-override 1" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["capacity", "simulate", "sweep", "verify"])
@pytest.mark.parametrize("case", ["file", "below-file", "dangling-link"])
def test_out_naming_a_file_is_refused_before_the_config_is_read(
    tmp_path, monkeypatch, command, case
):
    def forbidden(*args, **kwargs):
        raise AssertionError("read the config before --out was refused")

    monkeypatch.setattr(cli, "_read_config", forbidden)
    afile, link = tmp_path / "afile", tmp_path / "link"
    afile.write_text("kept")
    link.symlink_to(tmp_path / "nowhere")
    refused, out = {
        "file": (afile, afile),
        "below-file": (afile, afile / "sub"),
        "dangling-link": (link, link),
    }[case]
    result = invoke([command, "cfg.json", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr.endswith(f"expertq: error: argument --out: {refused} is not a directory\n")
    assert "Traceback" not in result.output
    assert afile.read_text() == "kept"
    assert not link.exists()


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_existing_output_is_refused_before_any_simulation(tmp_path, monkeypatch, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the existing output was refused")

    monkeypatch.setattr(analysis, "run", forbidden)
    config = {
        "instance": single_expert_doc(),
        "scheduler": {"kind": "work_conserving"},
        "lambdas": [0.3],
        "seeds": [1],
        "horizon": 200,
    }
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    out.mkdir()
    (out / ("sweep.csv" if command == "sweep" else "verify.json")).write_text("kept")
    result = invoke([command, cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "pass --force to overwrite" in result.output
    assert [p.read_text() for p in out.iterdir()] == ["kept"]


def test_integral_float_horizon_writes_the_same_bytes(tmp_path):
    base = {
        "instance": single_expert_doc(),
        "scheduler": {"kind": "work_conserving"},
        "seed": 4,
    }
    outputs = []
    for horizon in (2000, 2000.0):
        out = tmp_path / repr(horizon)
        cfg = write_json(tmp_path / f"{horizon!r}.json", {**base, "horizon": horizon})
        result = invoke(["simulate", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append([(out / name).read_bytes() for name in ("trace.csv", "summary.json")])
    assert outputs[0] == outputs[1]


def test_unexpected_error_keeps_its_traceback(tmp_path, monkeypatch):
    def broken(inst, cfg, seed):
        raise RuntimeError("not a config problem")

    monkeypatch.setattr(cli.analysis, "verify", broken)
    cfg = write_json(tmp_path / "cfg.json", {"instance": generalist_doc()})
    with pytest.raises(RuntimeError, match="not a config problem"):
        invoke(["verify", cfg, "--out", str(tmp_path / "out")])


def test_help_names_every_command_and_a_missing_command_exits_2():
    result = invoke(["--help"])
    assert result.exit_code == 0, result.output
    # Each command in order, with its body's docstring, however argparse wraps it.
    text = " ".join(result.stdout.split())
    lines = [
        "capacity Compute the configured capacity value and certificate.",
        "simulate Run one seeded simulation; write trace.csv and summary.json.",
        "sweep Sweep a load grid; write sweep.csv and bracket.json.",
        "verify Cross-check analytic values against simulation; exit 1 on failure.",
    ]
    at = [text.find(line) for line in lines]
    assert -1 not in at and at == sorted(at), result.stdout
    assert invoke([]).exit_code == 2
    assert invoke(["route"]).exit_code == 2


@pytest.mark.parametrize("mode, code", [("single", 0), ("dual", 2)])
def test_click_style_entry_exits_with_the_code_of_run(tmp_path, mode, code):
    """``main.main`` is the entry the benchmark launcher calls."""
    cfg = write_json(tmp_path / "cfg.json", {"instance": single_expert_doc(), "mode": mode})
    args = ["capacity", cfg, "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as info:
        cli.main.main(args=args, prog_name="expertq", standalone_mode=False)
    assert info.value.code == code


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**blas_threads: str) -> dict:
    """The environment of a child interpreter that imports this ``expertq``,
    with no BLAS thread variable but those in ``blas_threads``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**env, **blas_threads, "PYTHONPATH": pythonpath}


def child_stdout(code: str, *argv: str, env: dict | None = None) -> str:
    """The standard output, stripped, of ``python -c code *argv``, which must exit 0."""
    child = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env or child_env(),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_import_defaults_openblas_to_one_thread():
    code = "import os, expertq; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert child_stdout(code) == "1"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_import_starts_no_blas_thread_pool():
    """numpy's OpenBLAS starts a thread pool when it loads, and scipy's own
    OpenBLAS another; with one BLAS thread neither starts."""
    code = (
        "import re\n"
        "def threads():\n"
        "    return re.search(r'Threads:\\s+(\\d+)', open('/proc/self/status').read())[1]\n"
        "import expertq; print(threads())\n"
        "import scipy.optimize; print(threads())\n"
    )
    assert child_stdout(code).split() == ["1", "1"]


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_a_blas_thread_count_the_caller_set_is_kept(var):
    code = "import json, os, sys, expertq; print(json.dumps([*map(os.environ.get, sys.argv[1:])]))"
    out = child_stdout(code, *BLAS_THREAD_VARS, env=child_env(**{var: "2"}))
    assert json.loads(out) == ["2" if k == var else None for k in BLAS_THREAD_VARS]


def test_import_after_numpy_leaves_the_environment_alone():
    """Once numpy has loaded OpenBLAS a thread count no longer takes effect,
    and a host program's environment is not expertq's to change."""
    code = "import os, numpy; env = {**os.environ}; import expertq; print({**os.environ} == env)"
    assert child_stdout(code) == "True"


def test_import_leaves_out_the_process_pool_and_scipy_sparse():
    """Loading the CLI imports neither the process pool (no command uses
    it) nor scipy.sparse (only an LP does)."""
    code = (
        "import sys, expertq.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing', "
        "'scipy.sparse') if m in sys.modules])"
    )
    assert child_stdout(code) == "[]"


def test_sweep_imports_no_scipy(tmp_path):
    """A sweep solves no LP, so it loads no scipy module at any point."""
    (path,) = [p for p in CONFIGS if p.name == "sweep_single.json"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc = shortened({**doc, "instance_path": str(path.parent / doc["instance_path"])})
    cfg = write_json(tmp_path / "cfg.json", doc)
    code = (
        "import sys; from expertq import cli; code = cli.run(sys.argv[1:]); "
        "print(code, [m for m in sys.modules if m.partition('.')[0] == 'scipy'])"
    )
    out = child_stdout(code, "sweep", cfg, "--out", str(tmp_path / "out"))
    assert out.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_cli_runs_with_click_unimportable(tmp_path):
    """Loading the CLI imports no click module, and a command runs with
    click blocked."""
    cfg = write_json(tmp_path / "cfg.json", {"instance": single_expert_doc(), "mode": "single"})
    code = (
        "import sys; from expertq import cli; "
        "print([m for m in sys.modules if m.partition('.')[0] == 'click']); "
        "sys.modules['click'] = None; "
        "sys.exit(cli.run(sys.argv[1:]))"
    )
    out = child_stdout(code, "capacity", cfg, "--out", str(tmp_path / "out"))
    assert out.splitlines()[0] == "[]"
    assert (tmp_path / "out" / "capacity.json").exists()


class TestSimulateCommand:
    def simulate_cfg(self, horizon=2000, seed=9, scheduler=None, doc=None):
        return {
            "instance": doc or single_expert_doc(),
            "scheduler": scheduler or {"kind": "work_conserving"},
            "horizon": horizon,
            "seed": seed,
            "sample_interval": 100,
        }

    def test_repeat_seed_identical_csv(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", self.simulate_cfg())
        first = invoke(["simulate", cfg, "--out", str(tmp_path / "a")])
        second = invoke(["simulate", cfg, "--out", str(tmp_path / "b")])
        assert first.exit_code == 0 and second.exit_code == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (
            tmp_path / "b" / "trace.csv"
        ).read_bytes()

    def test_zero_load_all_zero_series(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json", self.simulate_cfg(doc=single_expert_doc(lam=0.0))
        )
        result = invoke(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        with open(tmp_path / "out" / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["total_queue"] == "0" for row in rows)

    def test_loss_run_respects_budget(self, tmp_path):
        doc = single_expert_doc(lam=0.95, p=(0.5, 0.5), times=(None, 2))
        cfg = write_json(
            tmp_path / "cfg.json",
            self.simulate_cfg(
                horizon=50_000, scheduler={"kind": "loss", "epsilon": 0.5}, doc=doc
            ),
        )
        result = invoke(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["loss_rate"][0] <= 0.5 * 0.95 + 0.01
        assert summary["verdict"] == "stable"

    def test_loss_without_certificate_exits_3(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json", self.simulate_cfg(scheduler={"kind": "loss"})
        )
        result = invoke(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_routing_without_computable_matrix_exits_3(self, tmp_path):
        doc = {
            "topics": 2,
            "lambda": 0.5,
            "pmf": [[0.5, 0.5]] * 2,
            "experts": [
                {"id": 0, "T": [1, None]},
                {"id": 1, "T": [1, None]},
            ],
        }
        cfg = write_json(
            tmp_path / "cfg.json", self.simulate_cfg(scheduler={"kind": "routing"}, doc=doc)
        )
        result = invoke(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_zero_horizon_creates_no_output_directory(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", self.simulate_cfg(horizon=0))
        result = invoke(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr == (
            "config error: config field 'horizon': expected a positive integer, got 0\n"
        )
        assert not (tmp_path / "out").exists()

    def test_seed_override(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", self.simulate_cfg(seed=1))
        result = invoke(
            ["simulate", cfg, "--out", str(tmp_path / "out"), "--seed-override", "77"],
        )
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 77


class TestSweepCommand:
    def test_single_point_grid_is_valid(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": single_expert_doc(),
                "scheduler": {"kind": "work_conserving"},
                "lambdas": [0.3],
                "horizon": 5000,
                "seeds": [0],
            },
        )
        result = invoke(["sweep", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        with open(tmp_path / "out" / "sweep.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["lambda", "seed", "verdict", "slope", "final_quarter_mean"]
        assert len(rows) == 1
        bracket = json.loads((tmp_path / "out" / "bracket.json").read_text())
        assert bracket["analytic_lambda_star"] == pytest.approx(2 / 3, abs=1e-12)

    def test_idempotent_with_force_and_fixed_seed(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": single_expert_doc(),
                "scheduler": {"kind": "work_conserving"},
                "lambdas": [0.3, 0.8],
                "horizon": 5000,
                "seeds": [1, 2],
            },
        )
        out = str(tmp_path / "out")
        assert invoke(["sweep", cfg, "--out", out]).exit_code == 0
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert (
            invoke(["sweep", cfg, "--out", out, "--force"]).exit_code == 0
        )
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first

    def test_two_sided_bracket(self, tmp_path):
        lam_star = 2 / 3
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": single_expert_doc(),
                "scheduler": {"kind": "work_conserving", "tie_break": "longest-queue"},
                "lambdas": [0.5, 0.8],
                "horizon": 30_000,
                "seeds": [0, 1],
            },
        )
        result = invoke(["sweep", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        bracket = json.loads((tmp_path / "out" / "bracket.json").read_text())
        assert bracket["lambda_lo"] == 0.5
        assert bracket["lambda_hi"] == 0.8
        assert bracket["lambda_lo"] <= lam_star <= bracket["lambda_hi"]

    def test_seed_override_numbers_the_seeds_from_it(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": single_expert_doc(),
                "scheduler": {"kind": "work_conserving"},
                "lambdas": [0.3],
                "horizon": 1000,
                "seeds": [0, 1, 2],
            },
        )
        out = tmp_path / "out"
        result = invoke(["sweep", cfg, "--out", str(out), "--seed-override", "5"])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "bracket.json").read_text())["seeds"] == [5, 6, 7]
        with open(out / "sweep.csv") as fh:
            assert [row["seed"] for row in csv.DictReader(fh)] == ["5", "6", "7"]


class TestVerifyCommand:
    def test_specialist_instance_passes(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": specialist_doc(),
                "routing_check": {"horizon": 20_000},
                "seed": 5,
            },
        )
        result = invoke(["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "duality_gap" in names and "routing_frequencies" in names

    def test_single_expert_checks_pass(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": single_expert_doc(lam=0.25, p=(1.0,), times=(2,)),
                "routing_check": {"horizon": 40_000},
                "misestimation": {"gamma": 0.5, "horizon": 30_000},
                "seed": 2,
            },
        )
        result = invoke(["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert {"drift", "service_success", "misestimation_stability"} <= names

    def test_drift_run_with_no_busy_slots_fails_its_row(self, tmp_path):
        # One slot gives fewer than two busy slots: the drift row judged
        # nothing, so it fails and verify.json is still written.
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": single_expert_doc(),
                "routing_check": {"horizon": 1},
                "misestimation": {"horizon": 1_000},
                "seed": 7,
            },
        )
        result = invoke(["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 1, result.output
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["drift"] == {
            "name": "drift",
            "passed": False,
            "measured_worst_excess": None,
        }
        assert by_name["service_success"]["passed"] is False
        assert by_name["misestimation_stability"]["passed"] is True
        assert "FAIL drift\n" in result.stdout

    def test_corrupted_routing_matrix_fails_with_report(self, tmp_path):
        # suboptimal matrix: every topic to expert 0; columns are still
        # valid distributions so the failure comes from the load check
        bad_s = [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": generalist_doc(),
                "routing_check": {"s": bad_s, "horizon": 10_000},
                "seed": 3,
            },
        )
        result = invoke(["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_passed"] is False
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["routing_certificate_load"]["passed"] is False
        # measured values are still reported on failure
        assert "measured" in by_name["routing_certificate_load"]

    def test_six_experts_pass(self, tmp_path):
        # More experts than any grid oracle could scan; the duality
        # certificate has no such limit.
        times = [
            [1, 2, None, 4],
            [None, 1, 3, 2],
            [2, None, 1, None],
            [3, 3, 3, 3],
            [None, 4, 2, 1],
            [1.5, None, None, 2],
        ]
        doc = {
            "topics": 4,
            "lambda": 0.3,
            "pmf": [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], [0.25] * 4] * 2,
            "experts": [{"id": i, "T": row} for i, row in enumerate(times)],
        }
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": doc,
                # The retired grid and geometric-check knobs are ignored
                # like any unknown key.
                "resolution": 0.004,
                "geometric": {"trials": 20_000},
                "routing_check": {"horizon": 5_000},
                "seed": 1,
            },
        )
        result = invoke(["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_passed"] is True
        gap = {c["name"]: c for c in report["checks"]}["duality_gap"]
        assert gap["measured"] <= gap["tolerance"] < 1e-6

    @pytest.mark.parametrize(
        "geometric", [{"trials": 1_000_000}, {"q_values": []}, 5], ids=["trials", "empty", "number"]
    )
    def test_geometric_block_is_ignored(self, tmp_path, geometric):
        # Configs written for the retired geometric side check still run;
        # service is checked on the routing run instead.
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": specialist_doc(),
                "geometric": geometric,
                "routing_check": {"horizon": 2_000},
                "seed": 5,
            },
        )
        result = invoke(["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        names = [c["name"] for c in report["checks"]]
        assert "service_success" in names
        assert not [name for name in names if name.startswith("geometric")]


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
SHORT = {"horizon": 200}


def shortened(doc):
    """``doc`` with every horizon cut to ``SHORT``."""
    if isinstance(doc, dict):
        return {k: SHORT[k] if k in SHORT else shortened(v) for k, v in doc.items()}
    return [shortened(v) for v in doc] if isinstance(doc, list) else doc


def number_leaves(doc, path=()):
    """The path of every number or null leaf of a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for k, v in items for leaf in number_leaves(v, (*path, k))]
    is_number = isinstance(doc, (int, float)) and not isinstance(doc, bool)
    return [path] if doc is None or is_number else []


def mistyped_shipped_configs():
    """(command, config) with one number or null leaf of a shipped command
    config, its instance inlined, replaced by ``true`` or ``"1"``."""
    cases = {}
    for path in CONFIGS:
        command = path.stem.split("_")[0]
        if command == "instance":
            continue
        cfg = json.loads(path.read_text(encoding="utf-8"))
        instance = (path.parent / cfg.pop("instance_path")).read_text(encoding="utf-8")
        cfg = shortened({**cfg, "instance": json.loads(instance)})
        for leaf in number_leaves(cfg):
            for value in (True, "1"):
                bad = json.loads(json.dumps(cfg))
                parent = bad
                for key in leaf[:-1]:
                    parent = parent[key]
                parent[leaf[-1]] = value
                name = ".".join(str(k) for k in leaf)
                cases[f"{path.stem}:{name}={json.dumps(value)}"] = (command, bad)
    return cases


class TestShippedConfigs:
    def test_configs_are_shipped(self):
        assert len(CONFIGS) >= 6

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_config_parses_and_builds(self, path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "topics" in doc:  # an instance document that configs point at
            load_instance(path)  # raises if the instance is invalid
            return
        cfg, inst = cli._read_config(str(path))
        assert cfg == doc
        if "scheduler" in doc:
            scheduler = sched.build_scheduler(inst, doc["scheduler"])
            assert scheduler.kind == doc["scheduler"]["kind"]

    def shipped_run_checks(self, tmp_path, monkeypatch, name):
        """How often the instance check runs in the shipped command config
        ``name``, shortened, and that config's document."""
        calls = []
        check = model._validate_instance

        def counted(inst):
            calls.append(inst)
            return check(inst)

        monkeypatch.setattr(model, "_validate_instance", counted)
        (path,) = [p for p in CONFIGS if p.name == name]
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc = shortened({**doc, "instance_path": str(path.parent / doc["instance_path"])})
        cfg = write_json(tmp_path / "cfg.json", doc)
        command = name.split("_")[0]
        result = invoke([command, cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        return len(calls), doc

    def test_simulate_checks_its_instance_once(self, tmp_path, monkeypatch):
        checks, _ = self.shipped_run_checks(tmp_path, monkeypatch, "simulate_routing.json")
        assert checks == 1

    def test_sweep_checks_one_instance_per_load(self, tmp_path, monkeypatch):
        checks, doc = self.shipped_run_checks(tmp_path, monkeypatch, "sweep_single.json")
        assert len(doc["seeds"]) > 1
        assert checks == 1 + len(doc["lambdas"])

    @pytest.mark.parametrize("case", sorted(mistyped_shipped_configs()))
    def test_mistyped_number_exits_2_without_output(self, tmp_path, case):
        command, config = mistyped_shipped_configs()[case]
        cfg = write_json(tmp_path / "cfg.json", config)
        out = tmp_path / "out"
        result = invoke([command, cfg, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error:" in result.output
        assert not out.exists()

    def test_capacity_multi_primal_on_shipped_specialists(self, tmp_path):
        (path,) = [p for p in CONFIGS if p.name == "instance_specialists.json"]
        cfg = write_json(
            tmp_path / "cfg.json", {"instance_path": str(path), "mode": "multi-primal"}
        )
        result = invoke(["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "capacity.json").read_text())
        assert payload["mode"] == "multi-primal"
        assert payload["lambda_star"] == pytest.approx(3.0, rel=1e-12)
        alpha = np.array(payload["certificate"]["alpha"])
        assert alpha.shape == (3,) and alpha.min() >= 0.0
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_capacity_multi_dual_runs(self, tmp_path):
        (path,) = [p for p in CONFIGS if p.name == "capacity_multi_dual.json"]
        result = invoke(["capacity", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "capacity.json").read_text())
        assert payload["mode"] == "multi-dual"
        assert payload["lambda_star"] == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(payload["certificate"]["s"], np.eye(3), atol=1e-9)
