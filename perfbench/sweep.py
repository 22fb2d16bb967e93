"""Repeat the benchmark over seeds and summarise its spread.

    python3 perfbench/sweep.py --seeds 1-10                  # every workload, untraced
    python3 perfbench/sweep.py --seeds 1 --trace             # per-layer table

Each run is its own ``run.py`` process of ``run_seconds`` (BENCHMARK.json),
one after another, cycling through every workload for each seed.  For
every end-to-end metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound; ``**`` marks a spread above a
third of the bound.  Raw results, with the environment line of every
run, go to ``perfbench/results/<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: bool) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    extra = {line.split(" ", 2)[1]: line.split(" ", 2)[2] for line in lines[:-1]
             if line.startswith("# ")}
    return {"workload": workload, "seed": seed, "elapsed_s": time.perf_counter() - start,
            "result": json.loads(lines[-1]), "env": json.loads(extra.get("env", "{}")),
            "layers": json.loads(extra.get("layers", "{}")),
            "rounds": json.loads(extra.get("rounds", "{}")), "stderr": proc.stderr}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarise(runs: list[dict]) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    lines = ["| workload | metric | median | q1 | q3 | spread | bound |", "|---" * 7 + "|"]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        for name, entry in mine[0]["metrics"].items():
            med, q1, q3, sp = spread([m["metrics"][name]["value"] for m in mine])
            bound = bounds.get(name)
            flag = "" if bound is None or sp <= bound / 3 else " **"
            lines.append(f"| {workload} | {name} ({entry['unit']}) | {med:.4g} | {q1:.4g} | "
                         f"{q3:.4g} | {sp:.3f}{flag} | {bound if bound is not None else ''} |")
        failed = sorted({(m["failed"], m["attempted"]) for m in mine})
        correct = all(m["correct"] for m in mine)
        lines.append(f"| {workload} | correct={correct} failed/attempted={failed} | | | | | |")
    return lines


def layer_table(runs: list[dict]) -> list[str]:
    lines = ["| workload | span | calls/round | incl s/round | self s/round |", "|---" * 5 + "|"]
    for r in runs:
        for name, row in r["layers"].items():
            lines.append(f"| {r['workload']} | {name} | {row['calls']:.0f} | "
                         f"{row['incl_s']:.4f} | {row['self_s']:.4f} |")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="a seed or an inclusive range, e.g. 1-10")
    p.add_argument("--trace", action="store_true", help="per-layer runs instead")
    args = p.parse_args(argv)
    runs = []
    for seed in seeds(args.seeds):  # workloads interleaved, so drift of the machine hits each alike
        for workload in (w["name"] for w in SPEC["workloads"]):
            run = run_once(workload, seed, args.trace)
            runs.append(run)
            m = run["result"]
            print(f"{workload} seed {seed}: {run['elapsed_s']:.1f}s correct={m['correct']} "
                  f"failed={m['failed']}/{m['attempted']}", file=sys.stderr, flush=True)
    out = HERE / "results" / f"{time.strftime('%Y%m%d-%H%M%S')}{'-trace' if args.trace else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    print("\n".join(summarise(runs)))
    if args.trace:
        print()
        print("\n".join(layer_table(runs)))
    print(f"\nraw results: {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
