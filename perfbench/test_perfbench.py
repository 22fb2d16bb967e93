"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

Every workload runs end to end at ``--tiny`` size, traced and untraced, and
each kind of output check is shown to reject a corrupted output.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from moediff import autodiff as ad  # noqa: E402
from moediff.moe import aggregate_detailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", 3, "--seconds", 0,
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in kind]
    for m in kind:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and np.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0
    assert not (HERE / "_work").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "results"))
    proc = run_bench(tmp_path, "--workload", "mil_small", "--seed", 1, "--seconds", 1,
                     "--trace", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- each check rejects a corrupted output ----------------------------------------------


@pytest.fixture(scope="module")
def mil(tmp_path_factory):
    wl = workloads.MilSmall(5, workloads.TINY, tmp_path_factory.mktemp("mil"))
    wl.setup()
    out = wl.round(workloads.Phases(), first=True)
    wl.check(out)
    return wl, out


def test_flipped_prediction_fails(mil):
    wl, out = mil
    rec = out["records"][0]
    original = rec.point_prediction
    rec.point_prediction = (original + 1) % 3
    try:
        with pytest.raises(checks.CheckFailed, match="point prediction"):
            wl.check(out)
    finally:
        rec.point_prediction = original


def test_perturbed_sample_fails(mil):
    wl, out = mil
    rec = out["records"][0]
    original = rec.samples
    rec.samples = original.copy()
    rec.samples[7, 1] += 1e-3
    try:
        with pytest.raises(checks.CheckFailed, match="reverse loop|p-value"):
            wl.check(out)
        rec.p_value = checks.ttest_p(rec.samples)  # keep the record self-consistent
        rec.certain = rec.p_value < workloads.UNCERTAINTY_ALPHA
        with pytest.raises(checks.CheckFailed, match="reverse loop|PAvPU|accuracy"):
            wl.check(out)
    finally:
        rec.samples = original
        rec.p_value = checks.ttest_p(original)
        rec.certain = rec.p_value < workloads.UNCERTAINTY_ALPHA


def test_edited_crc_byte_fails(tmp_path):
    wl = workloads.CliFiles(5, replace(workloads.TINY, predict_bags=1), tmp_path)
    wl.setup()
    out = wl.round(workloads.Phases(), first=True)
    wl.check(out)
    path = wl.round_dir / "data" / "test" / "bags" / "test00001.mexb"
    raw = bytearray(path.read_bytes())
    raw[-2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(Exception, match="(?i)crc|checksum"):
        wl.check(out)


def test_wrong_retained_count_fails(tmp_path):
    wl = workloads.WsiLarge(5, replace(workloads.TINY, wsi_infer=(40,)), tmp_path)
    wl.setup()
    bag = wl.test[0]
    with ad.no_grad():
        output, probs = aggregate_detailed(wl.model, bag, wl.config.ratios)
    checks.check_routing(output, probs, wl.config.ratios, bag.bag_id)
    output.sparse_bag.source_indices.pop()
    with pytest.raises(checks.CheckFailed, match="retained"):
        checks.check_routing(output, probs, wl.config.ratios, bag.bag_id)


def test_adapter_reference_catches_a_changed_weight(tmp_path):
    wl = workloads.WsiLarge(5, replace(workloads.TINY, wsi_infer=(40,)), tmp_path)
    wl.setup()
    bag = wl.test[0]
    with ad.no_grad():
        got = wl.model.adapter_in(ad.Tensor(bag.instances)).numpy()
    checks.check_adapt(got, checks.reference_adapt(wl.model.adapter_in, bag.instances))
    wl.model.adapter_in.mixer.kernel.data[1, 0] += 1e-3
    with pytest.raises(checks.CheckFailed, match="float64 forward"):
        checks.check_adapt(got, checks.reference_adapt(wl.model.adapter_in, bag.instances))
