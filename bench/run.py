"""symtoep benchmark: time to a verdict over batteries of exact checks.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bh-battery --seed 1 --seconds 50 --trace 0

The library is imported from the checkout's ``src`` directory.  Each run
builds its inputs from ``--seed`` and then runs whole passes over the
workload's checks until the next pass would overrun ``--seconds``.  Every
check's result is compared with its known mathematical answer; a wrong
verdict or an exception counts as failed instead of stopping the run.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, measured with tracing off.  With ``--trace 1`` the run spends
half its time untraced and half traced and reports the per-layer metrics
(spans, work counts, micro-benchmarks and the tracing overhead); the full
span table goes to standard error.  The line before the last one records
the machine facts, the seed and the failure details.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUP_REPEATS = 7
MIN_CHECKS = 100  # so that at least ten samples lie beyond the reported p90
CRITERION2_BUDGET_S = 10.0

# One thread per workload process: no BLAS pool under the numpy float lane
# and no assembly thread pool (SYMTOEP_THREADS unset).
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_environment() -> "str | None":
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    return os.environ.pop("SYMTOEP_THREADS", None)


def _import_library():
    """Import symtoep from this checkout's src, or exit non-zero without a result."""
    if not (SRC / "symtoep" / "__init__.py").is_file():
        sys.exit(f"benchmark: {SRC / 'symtoep'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import symtoep

    if Path(symtoep.__file__).resolve().parent != (SRC / "symtoep").resolve():
        sys.exit(f"benchmark: imported symtoep from {symtoep.__file__}, not {SRC}")
    return symtoep


def _build(workload: str, seed: int, tmp: Path):
    """Import the library and generate the workload's inputs (the set-up)."""
    _import_library()
    import workloads

    tmp.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, str(tmp))


def _remove_tmp(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        TMP.rmdir()
    except OSError:  # another run still has files there
        pass


def _setup_probe(workload: str, seed: int) -> None:
    """Child mode: time one cold set-up and print it."""
    tmp = TMP / f"setup-{os.getpid()}"
    try:
        start = perf_counter()
        _build(workload, seed, tmp)
        print(json.dumps({"setup_s": perf_counter() - start}))
    finally:
        _remove_tmp(tmp)


def _setup_seconds(workload: str, seed: int) -> float:
    """Median of fresh-process set-ups: import symtoep and generate inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


class Measurement:
    """Per-check latencies and verdicts over whole passes of a workload."""

    def __init__(self):
        self.samples: list = []
        self.failures: list = []
        self.pass_walls: list = []
        self.tag_seconds: dict = {}  # tag -> list of per-pass sums

    @property
    def passes(self) -> int:
        return len(self.pass_walls)

    @property
    def checks_per_s(self) -> float:
        """Checks per pass over the median pass time: a burst of host load
        that slows one pass does not move it."""
        return len(self.samples) / self.passes / statistics.median(self.pass_walls)


def _verdict(check, result, error):
    if error is not None:
        return f"{type(error).__name__}: {error}"
    try:
        return check.verify(result)
    except Exception as exc:  # a malformed result is a failed check, not a crash
        return f"oracle raised {type(exc).__name__}: {exc}"


def measure(checks, seconds: float, run_check=None, min_checks: int = 0) -> Measurement:
    """Whole passes over the checks until the next pass would overrun
    ``seconds`` and at least ``min_checks`` checks have run."""
    m = Measurement()
    while True:
        gc.collect()
        start = perf_counter()
        tag_sums: dict = {}
        for check in checks:
            t0 = perf_counter()
            result, error = None, None
            try:
                result = check.call() if run_check is None else run_check(check.call)
            except Exception as exc:  # counted into failed, the run goes on
                error = exc
            elapsed = perf_counter() - t0
            m.samples.append(elapsed)
            if check.tag:
                tag_sums[check.tag] = tag_sums.get(check.tag, 0.0) + elapsed
            reason = _verdict(check, result, error)
            if reason is not None:
                m.failures.append(f"{check.name}: {reason}")
        m.pass_walls.append(perf_counter() - start)
        for tag, total in tag_sums.items():
            m.tag_seconds.setdefault(tag, []).append(total)
        wall = sum(m.pass_walls)
        if wall + wall / m.passes > seconds and len(m.samples) >= min_checks:
            return m


def _quantile_ms(samples: list, q: int) -> float:
    """q-th decile of the samples in milliseconds (q=5 is the median)."""
    return statistics.quantiles(samples, n=10)[q - 1] * 1e3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _machine(seed: int, threads_env) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "SYMTOEP_THREADS": "unset" if threads_env is None else f"unset (was {threads_env!r})",
        "blas_threads": 1,
    }


def _metric_dict(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def run(args) -> int:
    threads_env = _pin_environment()
    tmp = TMP / f"run-{os.getpid()}"
    try:
        checks = _build(args.workload, args.seed, tmp)
        setup_s = None
        if args.trace:
            import micro
            import tracing

            micro_metrics = micro.run(args.seed)
            plain = measure(checks, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(checks, args.seconds / 2, tracer.run_check)
            finally:
                tracer.uninstall()
            runs = (plain, traced)
            metrics = tracer.metrics()
            metrics.update(micro_metrics)
            metrics["trace.checks_per_s_untraced"] = (plain.checks_per_s, "1/s")
            metrics["trace.checks_per_s_traced"] = (traced.checks_per_s, "1/s")
            metrics["trace.overhead_ratio"] = (
                plain.checks_per_s / traced.checks_per_s, "ratio")
            print(json.dumps(tracer.dump(), sort_keys=True), file=sys.stderr)
        else:
            setup_s = _setup_seconds(args.workload, args.seed)
            m = measure(checks, args.seconds, min_checks=MIN_CHECKS)
            runs = (m,)
            metrics = {
                "checks_per_s": (m.checks_per_s, "1/s"),
                "check_ms.p50": (_quantile_ms(m.samples, 5), "ms"),
                "check_ms.p90": (_quantile_ms(m.samples, 9), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
            }
    finally:
        _remove_tmp(tmp)

    attempted = sum(len(r.samples) for r in runs)
    failures = [f for r in runs for f in r.failures]
    criterion2 = runs[0].tag_seconds.get("criterion2")
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": _machine(args.seed, threads_env),
        "checks_per_pass": len(checks),
        "passes": [r.passes for r in runs],
        "check_ms.samples": attempted,
        "failed_frac": len(failures) / attempted,
        "setup_s": setup_s,
        # untraced seconds per pass of criterion 2's inputs, against its budget
        "criterion2_s": statistics.median(criterion2) if criterion2 else None,
        "criterion2_budget_s": CRITERION2_BUDGET_S,
        "failures": failures[:20],
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": _metric_dict(metrics),
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bh-battery", "recovery", "defect-rational", "cli-suites"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in a fresh process and exit")
    args = parser.parse_args(argv)
    if args.setup_probe:
        _pin_environment()
        _setup_probe(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
