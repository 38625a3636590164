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
from .model import config_field


class CertificateError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    return doc


def _instance_from_config(cfg: dict, config_path: str) -> model.Instance:
    if "instance" in cfg:
        inst = model.instance_from_dict(config_field(cfg, "instance", "object"))
    elif "instance_path" in cfg:
        path = Path(config_path).parent / config_field(cfg, "instance_path", "string")
        try:
            inst = model.load_instance(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load instance {path}: {exc}") from exc
    else:
        raise ValueError("config needs an 'instance' or 'instance_path' field")
    problems = model.validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    return inst


def _prepare_output(out_dir: str, name: str, force: bool) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    if target.exists() and not force:
        raise ValueError(f"{target} exists; pass --force to overwrite")
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
    """Construct the config's ``scheduler`` object, computing missing
    certificates."""
    root = {"scheduler": cfg}  # so that errors name 'scheduler.<field>'
    kind = config_field(root, "scheduler.kind", "string")
    tie_break = config_field(root, "scheduler.tie_break", "string", "arbitrary")
    selection = config_field(root, "scheduler.selection", "string", "request_weighted")
    epsilon = config_field(root, "scheduler.epsilon", "number", None)
    mu = config_field(root, "scheduler.mu", "numbers", None)
    s = config_field(root, "scheduler.s", "rows", None)
    try:
        if kind == "work_conserving":
            return sched.work_conserving_single(inst, tie_break=tie_break)
        if kind == "loss":
            if mu is not None:
                policy = capacity.LossPolicy(mu, 0.0 if epsilon is None else epsilon)
            elif epsilon is not None:
                p, q = inst.arrivals.pmf[0], inst.experts[0].success_prob
                policy = capacity.loss_capacity(p, q, epsilon).certificate
            else:
                raise CertificateError(
                    "loss scheduler needs 'mu' or an 'epsilon' to compute it from"
                )
            return sched.offline_loss_scheduler(inst, policy, tie_break=tie_break)
        if kind == "routing":
            if s is not None:
                policy = capacity.RoutingPolicy(s=s)
            else:
                try:
                    policy = capacity.multi_capacity_dual(
                        model.merged_pmf(inst), list(inst.experts)
                    ).certificate
                except ValueError as exc:
                    raise CertificateError(
                        f"cannot compute a routing matrix: {exc}"
                    ) from exc
            return sched.offline_routing_scheduler(inst, policy, selection=selection)
        if kind == "baseline":
            return sched.mismatch_baseline(inst, selection=selection)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad scheduler config: {exc}") from exc
    raise ValueError(f"unknown scheduler kind {kind!r}")


def _capacity(inst: model.Instance, cfg: dict, mode: str) -> tuple[dict | None, float]:
    """The certificate and capacity that ``expertq capacity`` reports."""
    if mode in ("single", "loss"):
        if inst.n_experts != 1:
            raise ValueError(f"mode {mode!r} needs a single-expert instance")
        p, q = inst.arrivals.pmf[0], inst.experts[0].success_prob
        if mode == "single":
            return None, capacity.single_capacity(p, q).lambda_star
        result = capacity.loss_capacity(p, q, config_field(cfg, "epsilon", "number"))
        cert = result.certificate
        return {"mu": cert.mu, "epsilon": cert.epsilon}, result.lambda_star
    if mode not in ("multi-primal", "multi-dual"):
        raise ValueError(f"unknown capacity mode {mode!r}")
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
    return {"alpha": cert.alpha}, capacity.capacity_of(load)


class _Main(click.Group):
    """Maps every command's errors to the exit codes. Malformed input raises
    ``ValueError`` or ``TypeError``; anything else is a bug and keeps its
    traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, TypeError) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except CertificateError as exc:
            click.echo(f"missing certificate: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main() -> None:
    """Capacity analysis and simulation for expert request queues."""


@main.command("capacity")
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True, default=False)
def cmd_capacity(config_path: str, out_dir: str, force: bool) -> None:
    """Compute the configured capacity value and certificate."""
    cfg = _load_config(config_path)
    inst = _instance_from_config(cfg, config_path)
    mode = config_field(cfg, "mode", "string")
    certificate, lambda_star = _capacity(inst, cfg, mode)
    payload: dict = {"mode": mode}
    if certificate is not None:
        payload["certificate"] = certificate
    payload["lambda_star"] = lambda_star
    target = _prepare_output(out_dir, "capacity.json", force)
    _write_json(target, payload)
    click.echo(f"wrote {target}")


@main.command("simulate")
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True, default=False)
@click.option("--seed-override", type=int, default=None)
def cmd_simulate(config_path, out_dir, force, seed_override) -> None:
    """Run one seeded simulation; write trace.csv and summary.json."""
    cfg = _load_config(config_path)
    inst = _instance_from_config(cfg, config_path)
    scheduler = _build_scheduler(inst, config_field(cfg, "scheduler", "object"))
    seed = config_field(cfg, "seed", "integer", 0)
    seed = seed if seed_override is None else seed_override
    config = sim.SimConfig(
        instance=inst,
        scheduler=scheduler,
        horizon=config_field(cfg, "horizon", "integer"),
        seed=seed,
        sample_interval=config_field(cfg, "sample_interval", "integer", 100),
    )
    trace_target = _prepare_output(out_dir, "trace.csv", force)
    summary_target = _prepare_output(out_dir, "summary.json", force)
    stats = sim.run(config)
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


@main.command("sweep")
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True, default=False)
@click.option("--seed-override", type=int, default=None)
def cmd_sweep(config_path, out_dir, force, seed_override) -> None:
    """Sweep a load grid; write sweep.csv and bracket.json."""
    cfg = _load_config(config_path)
    inst = _instance_from_config(cfg, config_path)
    scheduler = _build_scheduler(inst, config_field(cfg, "scheduler", "object"))
    seeds = config_field(cfg, "seeds", "integers")
    if seed_override is not None:
        seeds = [seed_override + k for k in range(len(seeds))]
    sweep_target = _prepare_output(out_dir, "sweep.csv", force)
    bracket_target = _prepare_output(out_dir, "bracket.json", force)
    result = analysis.capacity_boundary_sweep(
        inst,
        scheduler,
        lambdas=config_field(cfg, "lambdas", "numbers"),
        horizon=config_field(cfg, "horizon", "integer"),
        seeds=seeds,
        slope_threshold=config_field(cfg, "slope_threshold", "number", None),
        sample_interval=config_field(cfg, "sample_interval", "integer", 100),
        workers=config_field(cfg, "workers", "integer", 1),
    )
    boundary = analysis.analytic_boundary(inst, scheduler)

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


@main.command("verify")
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True, default=False)
@click.option("--seed-override", type=int, default=None)
def cmd_verify(config_path, out_dir, force, seed_override) -> None:
    """Cross-check analytic values against simulation; exit 1 on failure."""
    cfg = _load_config(config_path)
    inst = _instance_from_config(cfg, config_path)
    seed = config_field(cfg, "seed", "integer", 0)
    seed = seed if seed_override is None else seed_override
    target = _prepare_output(out_dir, "verify.json", force)
    checks = analysis.verify(inst, cfg, seed)
    all_passed = all(c["passed"] for c in checks)
    _write_json(target, {"all_passed": all_passed, "checks": checks})
    for c in checks:
        click.echo(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
    click.echo(f"wrote {target}")
    if not all_passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
