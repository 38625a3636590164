"""Run the benchmark on every workload over several seeds and summarize.

    python3 benchmarks/suite.py --seeds 1 2 3 [--trace] [--record COMMIT]

Every workload of ``BENCHMARK.json`` runs once per seed, for its
``run_seconds``; each run is ``run.py``'s ``Bench``, exactly as
``run.py --trace 0`` makes it. For every end-to-end metric, gated or
printed, the summary gives the median over seeds and the quartile spread
(q3 - q1) / median; a gated metric whose spread is above a third of its
``BENCHMARK.json`` bound is flagged. The calibration loop timed before
every launch is summarized beside them, as context only. With
``--trace``, one traced run per workload follows and its full report is
printed. ``--record`` appends
the summary to ``benchmarks/trajectory.json`` as an entry for the given
commit, with no performance claim. Exit status 1 means a flagged spread
or a failed launch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> tuple[float, float]:
    """Median and quartile spread (q3 - q1) / median."""
    q1, med, q3 = run.quartiles(values)
    return med, (q3 - q1) / med


def summarize(workload: str, seeds: list[int], seconds: int, bounds: dict) -> tuple[dict, bool]:
    benches = []
    for seed in seeds:
        bench = run.Bench(workload, seed, seconds, trace=False)
        bench.run()
        benches.append(bench)
    attempted = sum(len(b.launches) for b in benches)
    failed = sum(b.failed for b in benches)
    print(f"{workload}: {len(benches)} runs, {attempted} launches, "
          f"failed_ratio {failed / attempted:.4g} ({failed} of {attempted})")
    summary = {
        "attempted": attempted,
        "failed": failed,
        "digests": {str(s): b.reference_digest for s, b in zip(seeds, benches)},
        "metrics": {},
    }
    steady = failed == 0
    for name, unit in {**run.END_TO_END, **run.END_TO_END_PRINTED}.items():
        values = [b.value(name) for b in benches]
        med, rel = spread(values)
        bound = bounds.get(name)
        note = "printed, not gated" if bound is None else f"bound {bound:.0%}"
        if bound is not None and rel >= bound / 3:
            note += "  <-- spread above bound/3"
            steady = False
        print(f"  {name:18s} median {med:12.6g} {unit:8s} spread {rel:7.2%}  "
              f"n={len(values)}  {note}")
        summary["metrics"][name] = {"median": med, "spread": rel, "unit": unit, "values": values}
    calibration = [t for b in benches for t in b.calibration]
    q1, med, q3 = run.quartiles(calibration)
    print(f"  {'calibration_loop_s':18s} median {med:12.6g} {'s':8s} [q1 {q1:.6g}, q3 {q3:.6g}]  "
          f"n={len(calibration)}  context only")
    summary["calibration_loop_s"] = {"median": med, "q1": q1, "q3": q3, "n": len(calibration)}
    return summary, steady


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", metavar="COMMIT")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    entry = {"commit": args.record, "claim": None, "run_seconds": seconds,
             "seeds": args.seeds, "workloads": {}}
    all_steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        summary, steady = summarize(workload, args.seeds, seconds, bounds)
        all_steady = all_steady and steady
        if args.trace:
            traced = run.Bench(workload, args.seeds[0], seconds, trace=True)
            result = traced.run()
            traced.report()
            all_steady = all_steady and result["correct"]
            summary["per_layer_seed"] = args.seeds[0]
            summary["per_layer"] = {name: traced.value(name) for name in traced.summary}
        entry["workloads"][workload] = summary
    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
