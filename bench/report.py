"""Run the benchmark over several workloads and seeds and print every metric.

Usage, from the root of a checkout:

    python3 bench/report.py                      # listed workloads, seed 1, plus a traced run
    python3 bench/report.py --seeds 1 2 3 4 5 --no-trace --workloads recovery defect-rational
    python3 bench/report.py --out bench/baseline.json

Each run is a separate ``bench/run.py`` process, one after another.  For
every workload the table gives each end-to-end metric by name and unit as
the median over the seeds, with the quartile spread (Q3 - Q1) / median
when there are at least two seeds, the p90 sample count and failed_frac.
The traced run, made with the first seed, adds the per-layer metrics that
are nonzero, the tracing overhead and, for ``recovery``, the time of
criterion 2's inputs against their acceptance budget.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the first two are the ones BENCHMARK.json lists
WORKLOADS = ("bh-battery", "cli-suites", "recovery", "defect-rational")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list) -> "float | None":
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list) -> dict:
    names = list(runs[0]["result"]["metrics"])
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": statistics.median(values),
                     "spread": spread(values), "values": values}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    out["failed_frac"] = {"unit": "ratio", "median": failed / attempted,
                          "spread": None, "values": [failed, attempted]}
    return out


def print_workload(workload: str, summary: dict, runs: list) -> None:
    samples = [r["info"]["check_ms.samples"] for r in runs]
    print(f"\n== {workload}  ({len(runs)} run(s); p90 over {min(samples)}-"
          f"{max(samples)} checks per run)")
    for name, s in summary.items():
        sp = "" if s["spread"] is None else f"   spread {s['spread']:.3f}"
        print(f"  {name:<16} {s['median']:>14.6g} {s['unit']:<6}{sp}")
    for r in runs:
        for failure in r["info"]["failures"]:
            print(f"  FAILED: {failure}")


def print_traced(workload: str, traced: dict) -> None:
    metrics = traced["result"]["metrics"]
    print(f"-- {workload} traced run (seed {traced['info']['machine']['seed']})")
    for name, m in metrics.items():
        if m["value"]:
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    coverage = metrics["trace.span_coverage"]["value"]
    if coverage < 0.95:
        print(f"  WARNING: top-level spans cover only {coverage:.1%} of check time")
    crit = traced["info"]["criterion2_s"]
    if crit is not None:
        print(f"  criterion 2 inputs take {crit:.2f} s of the "
              f"{traced['info']['criterion2_budget_s']:.0f} s acceptance budget")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS[:2]), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", default=None, help="also write every result to this JSON file")
    args = parser.parse_args(argv)

    record = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        summary = summarize(runs)
        print_workload(workload, summary, runs)
        entry = {"machine": runs[0]["info"]["machine"], "summary": summary,
                 "check_ms.samples": [r["info"]["check_ms.samples"] for r in runs]}
        if not args.no_trace:
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            print_traced(workload, traced)
            entry["traced"] = {name: m["value"]
                               for name, m in traced["result"]["metrics"].items()}
        record["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
