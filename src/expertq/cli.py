"""Command-line entry point.

Four subcommands, each driven by a single JSON config file:

* ``capacity``  -- analytic capacity of an instance, written as JSON.
* ``simulate``  -- one seeded run, written as a trace CSV plus summary JSON.
* ``sweep``     -- stability verdicts over a load grid, CSV plus bracket JSON.
* ``verify``    -- cross-checks between the analytic and simulated routes.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 required
certificate missing and not computable. Existing output files are never
overwritten without --force.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import analysis, capacity, model, sched, sim

class ConfigError(Exception):
    pass


class CertificateError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _instance_from_config(cfg: dict, config_path: str) -> model.Instance:
    if "instance" in cfg:
        try:
            inst = model.instance_from_dict(cfg["instance"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif "instance_path" in cfg:
        path = Path(config_path).parent / cfg["instance_path"]
        try:
            inst = model.load_instance(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load instance {path}: {exc}") from exc
    else:
        raise ConfigError("config needs an 'instance' or 'instance_path' field")
    problems = model.validate_instance(inst)
    if problems:
        raise ConfigError("invalid instance: " + "; ".join(problems))
    return inst


def _prepare_output(out_dir: str, name: str, force: bool) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    if target.exists() and not force:
        raise ConfigError(f"{target} exists; pass --force to overwrite")
    return target


def _num(value):
    v = float(value)
    return v if math.isfinite(v) else None


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return _num(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(payload), fh, indent=2)
        fh.write("\n")


def _build_scheduler(inst: model.Instance, cfg: dict) -> sched.Scheduler:
    """Construct the configured scheduler, computing missing certificates."""
    kind = cfg.get("kind")
    if kind is None:
        raise ConfigError("scheduler config needs a 'kind'")
    try:
        if kind == "work_conserving":
            return sched.work_conserving_single(
                inst, tie_break=cfg.get("tie_break", "arbitrary")
            )
        if kind == "loss":
            if "mu" in cfg:
                policy = capacity.LossPolicy(
                    mu=np.asarray(cfg["mu"], dtype=np.float64),
                    epsilon=float(cfg.get("epsilon", 0.0)),
                )
            elif "epsilon" in cfg:
                result = capacity.loss_capacity(
                    inst.arrivals.pmf[0],
                    inst.experts[0].success_prob,
                    float(cfg["epsilon"]),
                )
                policy = result.certificate
            else:
                raise CertificateError(
                    "loss scheduler needs 'mu' or an 'epsilon' to compute it from"
                )
            return sched.offline_loss_scheduler(
                inst, policy, tie_break=cfg.get("tie_break", "arbitrary")
            )
        if kind == "routing":
            if "s" in cfg:
                policy = capacity.RoutingPolicy(s=np.asarray(cfg["s"], dtype=np.float64))
            else:
                try:
                    policy = capacity.multi_capacity_dual(
                        model.merged_pmf(inst), list(inst.experts)
                    ).certificate
                except ValueError as exc:
                    raise CertificateError(
                        f"cannot compute a routing matrix: {exc}"
                    ) from exc
            return sched.offline_routing_scheduler(
                inst, policy, selection=cfg.get("selection", "request_weighted")
            )
        if kind == "baseline":
            return sched.mismatch_baseline(
                inst, selection=cfg.get("selection", "request_weighted")
            )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad scheduler config: {exc}") from exc
    raise ConfigError(f"unknown scheduler kind {kind!r}")


def _capacity(inst: model.Instance, cfg: dict, mode: str) -> tuple[dict | None, float]:
    """The certificate and capacity that ``expertq capacity`` reports."""
    if mode in ("single", "loss"):
        if inst.n_experts != 1:
            raise ConfigError(f"mode {mode!r} needs a single-expert instance")
        p, q = inst.arrivals.pmf[0], inst.experts[0].success_prob
        if mode == "single":
            return None, capacity.single_capacity(p, q).lambda_star
        result = capacity.loss_capacity(p, q, float(_require(cfg, "epsilon")))
        cert = result.certificate
        return {"mu": cert.mu, "epsilon": cert.epsilon}, result.lambda_star
    if mode not in ("multi-primal", "multi-dual"):
        raise ConfigError(f"unknown capacity mode {mode!r}")
    # System-level capacity: the merged topic mass is normalized back to a
    # distribution over topics.
    p_system = model.merged_pmf(inst) / inst.n_experts
    experts = list(inst.experts)
    result = capacity.multi_capacity_dual(p_system, experts)
    cert = result.certificate
    if mode == "multi-dual":
        return {"s": cert.s, "dual_mu": cert.dual_mu}, result.lambda_star
    # The max-min side of the duality, at the LP's own weights.
    load = capacity.max_min_load(p_system, experts, cert.alpha)
    return {"alpha": cert.alpha}, math.inf if load == 0.0 else 1.0 / load


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}")
    return cfg[key]


def _run_guarded(fn) -> None:
    try:
        fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except CertificateError as exc:
        click.echo(f"missing certificate: {exc}", err=True)
        sys.exit(3)


@click.group()
def main() -> None:
    """Capacity analysis and simulation for expert request queues."""


@main.command("capacity")
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True, default=False)
def cmd_capacity(config_path: str, out_dir: str, force: bool) -> None:
    """Compute the configured capacity value and certificate."""

    def go() -> None:
        cfg = _load_config(config_path)
        inst = _instance_from_config(cfg, config_path)
        mode = _require(cfg, "mode")
        try:
            certificate, lambda_star = _capacity(inst, cfg, mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        payload: dict = {"mode": mode}
        if certificate is not None:
            payload["certificate"] = certificate
        payload["lambda_star"] = lambda_star
        target = _prepare_output(out_dir, "capacity.json", force)
        _write_json(target, payload)
        click.echo(f"wrote {target}")

    _run_guarded(go)


@main.command("simulate")
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True, default=False)
@click.option("--seed-override", type=int, default=None)
def cmd_simulate(config_path, out_dir, force, seed_override) -> None:
    """Run one seeded simulation; write trace.csv and summary.json."""

    def go() -> None:
        cfg = _load_config(config_path)
        inst = _instance_from_config(cfg, config_path)
        scheduler = _build_scheduler(inst, _require(cfg, "scheduler"))
        seed = int(cfg.get("seed", 0)) if seed_override is None else seed_override
        try:
            config = sim.SimConfig(
                instance=inst,
                scheduler=scheduler,
                horizon=int(_require(cfg, "horizon")),
                seed=seed,
                sample_interval=int(cfg.get("sample_interval", 100)),
            )
            trace_target = _prepare_output(out_dir, "trace.csv", force)
            summary_target = _prepare_output(out_dir, "summary.json", force)
            stats = sim.run(config)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        verdict = analysis.classify_stability(stats, inst.arrivals.lam)
        summary = stats.summary()
        summary.update(
            {
                "seed": seed,
                "scheduler": scheduler.kind,
                "lambda": inst.arrivals.lam,
                "verdict": verdict.verdict,
                "growth_slope": verdict.growth_slope,
            }
        )
        sim.write_trace_csv(stats, trace_target)
        _write_json(summary_target, summary)
        click.echo(f"wrote {trace_target} and {summary_target}")

    _run_guarded(go)


@main.command("sweep")
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True, default=False)
@click.option("--seed-override", type=int, default=None)
def cmd_sweep(config_path, out_dir, force, seed_override) -> None:
    """Sweep a load grid; write sweep.csv and bracket.json."""

    def go() -> None:
        cfg = _load_config(config_path)
        inst = _instance_from_config(cfg, config_path)
        scheduler = _build_scheduler(inst, _require(cfg, "scheduler"))
        seeds = [int(s) for s in _require(cfg, "seeds")]
        if seed_override is not None:
            seeds = [seed_override + k for k in range(len(seeds))]
        try:
            sweep_target = _prepare_output(out_dir, "sweep.csv", force)
            bracket_target = _prepare_output(out_dir, "bracket.json", force)
            result = analysis.capacity_boundary_sweep(
                inst,
                scheduler,
                lambdas=[float(v) for v in _require(cfg, "lambdas")],
                horizon=int(_require(cfg, "horizon")),
                seeds=seeds,
                slope_threshold=cfg.get("slope_threshold"),
                sample_interval=int(cfg.get("sample_interval", 100)),
                workers=int(cfg.get("workers", 1)),
            )
            boundary = analysis.analytic_boundary(inst, scheduler)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        with open(sweep_target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "seed", "verdict", "slope", "final_quarter_mean"])
            for cell in result.cells:
                writer.writerow(
                    [
                        repr(cell.lam),
                        cell.seed,
                        cell.verdict,
                        repr(cell.growth_slope),
                        repr(cell.final_quarter_mean),
                    ]
                )
        _write_json(
            bracket_target,
            {
                "lambda_lo": result.lambda_lo,
                "lambda_hi": result.lambda_hi,
                "analytic_lambda_star": boundary,
                "lambdas": list(result.lambdas),
                "seeds": list(result.seeds),
            },
        )
        click.echo(f"wrote {sweep_target} and {bracket_target}")

    _run_guarded(go)


@main.command("verify")
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True, default=False)
@click.option("--seed-override", type=int, default=None)
def cmd_verify(config_path, out_dir, force, seed_override) -> None:
    """Cross-check analytic values against simulation; exit 1 on failure."""
    outcome = {"failed": False}

    def go() -> None:
        cfg = _load_config(config_path)
        inst = _instance_from_config(cfg, config_path)
        seed = int(cfg.get("seed", 0)) if seed_override is None else seed_override
        target = _prepare_output(out_dir, "verify.json", force)
        try:
            checks = analysis.verify(inst, cfg, seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        all_passed = all(c["passed"] for c in checks)
        _write_json(target, {"all_passed": all_passed, "checks": checks})
        for c in checks:
            click.echo(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
        click.echo(f"wrote {target}")
        outcome["failed"] = not all_passed

    _run_guarded(go)
    if outcome["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
