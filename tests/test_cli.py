import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from expertq import cli
from expertq.cli import main
from expertq.model import load_instance, validate_instance


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


@pytest.fixture
def runner():
    return CliRunner()


class TestCapacityCommand:
    def test_single_mode(self, tmp_path, runner):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"instance": single_expert_doc(), "mode": "single"},
        )
        result = runner.invoke(main, ["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "capacity.json").read_text())
        assert payload["lambda_star"] == pytest.approx(2 / 3, abs=1e-12)

    def test_multi_dual_on_specialists(self, tmp_path, runner):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"instance": specialist_doc(), "mode": "multi-dual"},
        )
        result = runner.invoke(main, ["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "capacity.json").read_text())
        assert payload["lambda_star"] == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(payload["certificate"]["s"], np.eye(3), atol=1e-9)

    @pytest.mark.parametrize("mode", ["multi-primal", "multi-dual"])
    def test_unanswerable_mass_exits_2(self, tmp_path, runner, mode):
        doc = specialist_doc()
        doc["experts"][2]["T"] = [None, None, None]
        cfg = write_json(tmp_path / "cfg.json", {"instance": doc, "mode": mode})
        result = runner.invoke(main, ["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "topics [2] carry mass but no expert can answer them" in result.output
        assert not (tmp_path / "out" / "capacity.json").exists()

    def test_zero_budget_loss_matches_single_exactly(self, tmp_path, runner):
        single_cfg = write_json(
            tmp_path / "single.json",
            {"instance": single_expert_doc(), "mode": "single"},
        )
        loss_cfg = write_json(
            tmp_path / "loss.json",
            {"instance": single_expert_doc(), "mode": "loss", "epsilon": 0.0},
        )
        runner.invoke(main, ["capacity", single_cfg, "--out", str(tmp_path / "a")])
        runner.invoke(main, ["capacity", loss_cfg, "--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "capacity.json").read_text())
        b = json.loads((tmp_path / "b" / "capacity.json").read_text())
        assert a["lambda_star"] == b["lambda_star"]

    def test_malformed_json_exits_2_without_output(self, tmp_path, runner):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["capacity", str(bad), "--out", str(out_dir)])
        assert result.exit_code == 2
        assert not (out_dir / "capacity.json").exists()

    def test_invalid_instance_exits_2(self, tmp_path, runner):
        doc = single_expert_doc()
        doc["pmf"] = [[0.5, 0.4]]
        cfg = write_json(tmp_path / "cfg.json", {"instance": doc, "mode": "single"})
        result = runner.invoke(main, ["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_overwrite_needs_force(self, tmp_path, runner):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"instance": single_expert_doc(), "mode": "single"},
        )
        out = str(tmp_path / "out")
        assert runner.invoke(main, ["capacity", cfg, "--out", out]).exit_code == 0
        assert runner.invoke(main, ["capacity", cfg, "--out", out]).exit_code == 2
        assert (
            runner.invoke(main, ["capacity", cfg, "--out", out, "--force"]).exit_code
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
            "finite",
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
def test_nan_input_exits_2(tmp_path, runner, case):
    command, config, message = nan_cases()[case]
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists() or not any(out.iterdir())


class TestSimulateCommand:
    def simulate_cfg(self, horizon=2000, seed=9, scheduler=None, doc=None):
        return {
            "instance": doc or single_expert_doc(),
            "scheduler": scheduler or {"kind": "work_conserving"},
            "horizon": horizon,
            "seed": seed,
            "sample_interval": 100,
        }

    def test_repeat_seed_identical_csv(self, tmp_path, runner):
        cfg = write_json(tmp_path / "cfg.json", self.simulate_cfg())
        first = runner.invoke(main, ["simulate", cfg, "--out", str(tmp_path / "a")])
        second = runner.invoke(main, ["simulate", cfg, "--out", str(tmp_path / "b")])
        assert first.exit_code == 0 and second.exit_code == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (
            tmp_path / "b" / "trace.csv"
        ).read_bytes()

    def test_zero_load_all_zero_series(self, tmp_path, runner):
        cfg = write_json(
            tmp_path / "cfg.json", self.simulate_cfg(doc=single_expert_doc(lam=0.0))
        )
        result = runner.invoke(main, ["simulate", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        with open(tmp_path / "out" / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["total_queue"] == "0" for row in rows)

    def test_loss_run_respects_budget(self, tmp_path, runner):
        doc = single_expert_doc(lam=0.95, p=(0.5, 0.5), times=(None, 2))
        cfg = write_json(
            tmp_path / "cfg.json",
            self.simulate_cfg(
                horizon=50_000, scheduler={"kind": "loss", "epsilon": 0.5}, doc=doc
            ),
        )
        result = runner.invoke(main, ["simulate", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["loss_rate"][0] <= 0.5 * 0.95 + 0.01
        assert summary["verdict"] == "stable"

    def test_loss_without_certificate_exits_3(self, tmp_path, runner):
        cfg = write_json(
            tmp_path / "cfg.json", self.simulate_cfg(scheduler={"kind": "loss"})
        )
        result = runner.invoke(main, ["simulate", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_routing_without_computable_matrix_exits_3(self, tmp_path, runner):
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
        result = runner.invoke(main, ["simulate", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_seed_override(self, tmp_path, runner):
        cfg = write_json(tmp_path / "cfg.json", self.simulate_cfg(seed=1))
        result = runner.invoke(
            main,
            ["simulate", cfg, "--out", str(tmp_path / "out"), "--seed-override", "77"],
        )
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 77


class TestSweepCommand:
    def test_single_point_grid_is_valid(self, tmp_path, runner):
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
        result = runner.invoke(main, ["sweep", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        with open(tmp_path / "out" / "sweep.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["lambda", "seed", "verdict", "slope", "final_quarter_mean"]
        assert len(rows) == 1
        bracket = json.loads((tmp_path / "out" / "bracket.json").read_text())
        assert bracket["analytic_lambda_star"] == pytest.approx(2 / 3, abs=1e-12)

    def test_idempotent_with_force_and_fixed_seed(self, tmp_path, runner):
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
        assert runner.invoke(main, ["sweep", cfg, "--out", out]).exit_code == 0
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert (
            runner.invoke(main, ["sweep", cfg, "--out", out, "--force"]).exit_code == 0
        )
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first

    def test_two_sided_bracket(self, tmp_path, runner):
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
        result = runner.invoke(main, ["sweep", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        bracket = json.loads((tmp_path / "out" / "bracket.json").read_text())
        assert bracket["lambda_lo"] == 0.5
        assert bracket["lambda_hi"] == 0.8
        assert bracket["lambda_lo"] <= lam_star <= bracket["lambda_hi"]

    def test_zero_workers_is_a_config_error(self, tmp_path, runner):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": single_expert_doc(),
                "scheduler": {"kind": "work_conserving"},
                "lambdas": [0.3],
                "horizon": 100,
                "seeds": [0],
                "workers": 0,
            },
        )
        result = runner.invoke(main, ["sweep", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "workers" in result.output


class TestVerifyCommand:
    def test_specialist_instance_passes(self, tmp_path, runner):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": specialist_doc(),
                "geometric": {"trials": 100_000},
                "routing_check": {"horizon": 20_000},
                "seed": 5,
            },
        )
        result = runner.invoke(main, ["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "duality_gap" in names and "routing_frequencies" in names

    def test_single_expert_checks_pass(self, tmp_path, runner):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": single_expert_doc(lam=0.5, p=(1.0,), times=(2,)),
                "geometric": {"trials": 100_000},
                "drift": {"lambda": 0.25, "horizon": 40_000},
                "misestimation": {"gamma": 0.5, "horizon": 30_000},
                "seed": 2,
            },
        )
        result = runner.invoke(main, ["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert "drift" in names and "misestimation_stability" in names

    def test_corrupted_routing_matrix_fails_with_report(self, tmp_path, runner):
        # suboptimal matrix: every topic to expert 0; columns are still
        # valid distributions so the failure comes from the load check
        bad_s = [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": generalist_doc(),
                "geometric": {"trials": 50_000},
                "routing_check": {"s": bad_s, "horizon": 10_000},
                "seed": 3,
            },
        )
        result = runner.invoke(main, ["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_passed"] is False
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["routing_certificate_load"]["passed"] is False
        # measured values are still reported on failure
        assert "measured" in by_name["routing_certificate_load"]

    def test_six_experts_pass(self, tmp_path, runner):
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
                # The retired grid knob is ignored like any unknown key.
                "resolution": 0.004,
                "geometric": {"trials": 20_000},
                "routing_check": {"horizon": 5_000},
                "seed": 1,
            },
        )
        result = runner.invoke(main, ["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["all_passed"] is True
        gap = {c["name"]: c for c in report["checks"]}["duality_gap"]
        assert gap["measured"] <= gap["tolerance"] < 1e-6

    @pytest.mark.parametrize("trials", [0, -5])
    def test_nonpositive_trials_exit_2(self, tmp_path, runner, trials):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "instance": generalist_doc(),
                "geometric": {"trials": trials},
            },
        )
        result = runner.invoke(main, ["verify", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "trials must be at least 1" in result.output
        assert not (tmp_path / "out" / "verify.json").exists()


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


class TestShippedConfigs:
    def test_configs_are_shipped(self):
        assert len(CONFIGS) >= 6

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_config_parses_and_builds(self, path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "topics" in doc:  # an instance document that configs point at
            assert validate_instance(load_instance(path)) == []
            return
        inst = cli._instance_from_config(doc, str(path))
        if "scheduler" in doc:
            scheduler = cli._build_scheduler(inst, doc["scheduler"])
            assert scheduler.kind == doc["scheduler"]["kind"]

    def test_capacity_multi_primal_on_shipped_specialists(self, tmp_path, runner):
        (path,) = [p for p in CONFIGS if p.name == "instance_specialists.json"]
        cfg = write_json(
            tmp_path / "cfg.json", {"instance_path": str(path), "mode": "multi-primal"}
        )
        result = runner.invoke(main, ["capacity", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out" / "capacity.json").read_text())
        assert payload["mode"] == "multi-primal"
        assert payload["lambda_star"] == pytest.approx(3.0, rel=1e-12)
        alpha = np.array(payload["certificate"]["alpha"])
        assert alpha.shape == (3,) and alpha.min() >= 0.0
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_capacity_multi_dual_runs(self, tmp_path, runner):
        (path,) = [p for p in CONFIGS if p.name == "capacity_multi_dual.json"]
        result = runner.invoke(main, ["capacity", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "capacity.json").read_text())
        assert payload["mode"] == "multi-dual"
        assert payload["lambda_star"] == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(payload["certificate"]["s"], np.eye(3), atol=1e-9)
