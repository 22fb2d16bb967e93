"""Benchmark entry point: runs one workload in this process and prints its
metrics as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload mil_small --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones, measured without
tracing; with ``--trace 1`` the per-layer ones, from a run whose layer
boundaries are wrapped by ``tracer.py`` plus tracemalloc probes.  The
program is imported from ``src/`` of the checkout this file sits in; BLAS
and OpenMP are held to one thread.  ``--tiny`` shrinks every input so that
all code paths run in seconds (used by ``test_perfbench.py``).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: before numpy or moediff loads

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MEXD_SEED", None)  # the CLI would let it override the seed

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = ""
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"machine": platform.machine(), "cpu": cpu, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["mil_small", "wsi_large", "cli_files"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, one round")
    return p.parse_args(argv)


def run(args) -> dict:
    """Set up, run rounds for ``args.seconds``, check; returns the result."""
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer) if tracer else None
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    sizes = workloads.TINY if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir, tracer)
    problems: list[str] = []
    try:
        wl.setup()
        setup_s = time.perf_counter() - T0
        walls, phase_seconds, outs = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            phases = workloads.Phases(tracer)
            t = time.perf_counter()
            try:
                out = wl.round(phases, first=not outs)
            except Exception:  # noqa: BLE001 - a failed round is counted and reported
                problems.append(traceback.format_exc(limit=3))
                out = None
            wall = time.perf_counter() - t
            attempted += len(wl.PHASES)
            failed += len(wl.PHASES) - phases.done
            if out is not None:
                walls.append(wall)
                phase_seconds.append(phases.seconds)
                outs.append(out)
            if args.tiny or time.perf_counter() - start + wall > args.seconds:
                break
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if restore:
            restore()
        if outs:
            if any(o["digest"] != outs[0]["digest"] for o in outs):
                problems.append("outputs differ between identical rounds")
            try:
                wl.check(outs[-1])
            except Exception as exc:  # noqa: BLE001 - any error in a check is a failed check
                problems.append(f"check failed: {type(exc).__name__}: {exc}")
        else:
            problems.append("no round completed")
        if args.trace:
            metrics = tracing.layer_metrics(tracer)
            metrics["trace.wall_s"] = statistics.fmean(walls) if walls else 0.0
            if outs:
                metrics.update(wl.probe())
            print("# layers " + json.dumps(tracer.layer_table(len(walls))))
        else:
            metrics = {"setup_s": setup_s, "peak_rss_mib": peak_rss}
            if outs:
                # Rounds repeat identical work, so a rate over all of them is
                # the work of one round over its mean phase time.
                metrics["wall_s"] = statistics.fmean(walls)
                metrics.update(wl.rates({k: statistics.fmean(p[k] for p in phase_seconds)
                                         for k in wl.PHASES}))
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics, "problems": problems,
                "rounds": {"wall_s": walls, "rates": [wl.rates(p) for p in phase_seconds]}}
    finally:
        if restore:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "moediff" / "__init__.py").is_file():
        print(f"error: no moediff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import moediff
    if Path(moediff.__file__).resolve().parent != (SRC / "moediff").resolve():
        print(f"error: moediff imported from {moediff.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = run(args)
    for problem in result.pop("problems"):
        print(problem, file=sys.stderr)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    print("# env " + json.dumps(environment()))
    print("# rounds " + json.dumps(result.pop("rounds")))
    metrics = result["metrics"]
    if not result["correct"]:  # a run without a completed round lacks the rates
        metrics = {**dict.fromkeys(units, 0.0), **metrics}
    result["metrics"] = {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}
    print(json.dumps(result))
    return 0


def metric_units(kind: str) -> dict:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
