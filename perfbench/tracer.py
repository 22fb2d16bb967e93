"""In-memory span tracer that wraps moediff's public functions and methods
from outside the package.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span (or -1) and ``info`` a small dict of counts taken at the
boundary.  A span's self time is its duration minus the durations of its
direct children.  Nothing in ``src/`` is modified on disk; ``install``
rebinds names in the already imported ``moediff`` modules and returns a
function that restores them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from moediff import adapter, autodiff, diffusion, io_formats, metrics, moe, nn
from moediff import synthetic, training
from moediff.moe import select_routed

from workloads import WSI_INFER_N, WSI_TRAIN_N

evaluate = importlib.import_module("moediff.evaluate")  # the package re-exports a function of that name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **info):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, info]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, args, kwargs, before=None, after=None):
        info = before(*args, **kwargs) if before else {}
        with self.span(name, **info) as record:
            result = fn(*args, **kwargs)
        if after:
            record[4].update(after(result, *args, **kwargs))
        return result

    # -- summaries ----------------------------------------------------------

    def ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def select(self, name: str, under: str | None = None, **match) -> list[int]:
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != name or any(s[4].get(k) != v for k, v in match.items()):
                continue
            if under is not None and under not in self.ancestors(i):
                continue
            out.append(i)
        return out

    def mean_ms(self, indices, self_time: list[float] | None = None) -> float:
        if not indices:
            return 0.0
        if self_time is not None:
            return 1e3 * sum(self_time[i] for i in indices) / len(indices)
        return 1e3 * sum(self.spans[i][2] - self.spans[i][1] for i in indices) / len(indices)

    def layer_table(self, rounds: int) -> dict:
        """Per span name: calls, inclusive and self seconds, each per round.
        Attention spans are split by mode and by row count, rounded up to a
        power of two."""
        own = self.self_times()
        table: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            key = s[0]
            if key == "nn.attention":
                key = f"{key}.{s[4]['mode']} n<={1 << (s[4]['n'] - 1).bit_length()}"
            row = table.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += own[i]
        r = max(rounds, 1)
        return {k: {"calls": v[0] / r, "incl_s": v[1] / r, "self_s": v[2] / r}
                for k, v in sorted(table.items())}


# -- installation -------------------------------------------------------------


HERE = Path(__file__).resolve().parent


def _traced_module(name: str, mod) -> bool:
    if name == "moediff" or name.startswith("moediff."):
        return True
    path = getattr(mod, "__file__", None)
    return path is not None and Path(path).resolve().parent == HERE


def _rebind(original, replacement) -> list:
    """Point every name bound to ``original`` in moediff's modules and in
    this benchmark's modules at ``replacement``; returns the (module, name)
    pairs changed."""
    changed = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not _traced_module(mod_name, mod):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


def _attention_mode(self, x, key_mask=None):
    if autodiff.grad_enabled():
        return {"mode": "train", "n": x.shape[0]}
    chunked = x.shape[0] > 2048 and key_mask is None
    return {"mode": "infer.chunked" if chunked else "infer.dense", "n": x.shape[0]}


def _aggregate_counts(result, model, bag, ratios, **_):
    output, probs_list = result
    routed = sum(select_routed(p.numpy(), r).size for r, p in enumerate(probs_list))
    return {"routed": routed, "retained": len(output.sparse_bag.source_indices),
            "sparse_rows": output.sparse_bag.size}


def _grad_mode(*_, **__):
    return {"grad": autodiff.grad_enabled()}


def _bag_bytes(bag) -> int:
    return 18 + 4 * bag.instances.size


FUNCTIONS = [
    (training, "train_stage1", "training.stage1", None, None),
    (training, "train_stage2", "training.stage2", None, None),
    (autodiff, "clip_grad_norm", "autodiff.clip", None, None),
    (adapter, "adapt", "adapter.adapt", None, None),
    (adapter, "adapt_with_class_token", "adapter.class_token", None, None),
    (moe, "aggregate_detailed", "moe.aggregate", _grad_mode, _aggregate_counts),
    (moe, "moe_loss", "moe.loss", None, None),
    (moe, "router_supervision_loss", "moe.loss", None, None),
    (moe, "score_table", "moe.score_table", None, None),
    (diffusion, "encode_condition", "diffusion.encode_condition", None, None),
    (diffusion, "predict_noise", "diffusion.predict_noise", None, None),
    (diffusion, "predict_noise_batch", "diffusion.predict_noise_batch", None, None),
    (diffusion, "sample", "diffusion.sample", None, None),
    (metrics, "ttest_certainty", "metrics.ttest", None, None),
    (metrics, "full_report", "metrics.report", None, None),
    (evaluate, "evaluate", "evaluate", None, None),
    (io_formats, "read_bag", "io_formats.read_bag", None,
     lambda bag, *a, **k: {"bytes": _bag_bytes(bag)}),
    (io_formats, "write_bag", "io_formats.write_bag",
     lambda path, bag: {"bytes": _bag_bytes(bag)}, None),
    (io_formats, "save_checkpoint", "io_formats.save_checkpoint", None, None),
    (io_formats, "load_checkpoint", "io_formats.load_checkpoint", None, None),
    (synthetic, "generate_bag", "synthetic.generate", None, None),
]

METHODS = [
    (autodiff.Tensor, "backward", "autodiff.backward", None),
    (training.Adam, "step", "training.optimizer_step", None),
    (training.RAdam, "step", "training.optimizer_step", None),
    (nn.MultiHeadSelfAttention, "__call__", "nn.attention", _attention_mode),
]


def install(tracer: Tracer):
    """Wrap the layer boundaries listed above; returns an undo function."""
    undo = []
    for module, attr, name, before, after in FUNCTIONS:
        original = getattr(module, attr)

        def wrapper(*args, _fn=original, _name=name, _before=before, _after=after, **kwargs):
            return tracer.call(_name, _fn, args, kwargs, _before, _after)

        functools.update_wrapper(wrapper, original)
        undo.extend((mod, a, original) for mod, a in _rebind(original, wrapper))
    for cls, attr, name, before in METHODS:
        original = cls.__dict__[attr]

        def method(*args, _fn=original, _name=name, _before=before, **kwargs):
            return tracer.call(_name, _fn, args, kwargs, _before)

        functools.update_wrapper(method, original)
        setattr(cls, attr, method)
        undo.append((cls, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# -- per-layer metrics ----------------------------------------------------------

CLI_COMMANDS = ("gen", "train-moe", "train-diff", "eval", "export-scores", "predict")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric the traced spans give; layers a workload does
    not reach read 0."""
    t = tracer
    own = t.self_times()
    out: dict[str, float] = {}
    for stage in ("stage1", "stage2"):
        out[f"autodiff.backward_ms.{stage}"] = t.mean_ms(
            t.select("autodiff.backward", under=f"training.{stage}"))
        out[f"training.optimizer_step_ms.{stage}"] = t.mean_ms(
            t.select("training.optimizer_step", under=f"training.{stage}"))
    out["autodiff.clip_ms"] = t.mean_ms(t.select("autodiff.clip"))
    # Attention at the wsi_large bag sizes only: the prior adapter's smaller
    # calls on the retained rows would dilute them.
    out[f"nn.attention_ms.train.n{WSI_TRAIN_N}"] = t.mean_ms(
        t.select("nn.attention", mode="train", n=WSI_TRAIN_N))
    for n in WSI_INFER_N:
        out[f"nn.attention_ms.infer.n{n}"] = t.mean_ms(
            t.select("nn.attention", under="evaluate", n=n))
    out["adapter.adapt_ms"] = t.mean_ms(t.select("adapter.adapt"))
    out["adapter.class_token_ms"] = t.mean_ms(t.select("adapter.class_token"))
    out["moe.aggregate_self_ms"] = t.mean_ms(t.select("moe.aggregate"), self_time=own)
    steps = t.select("moe.aggregate", under="training.stage1", grad=True)
    loss_spans = t.select("moe.loss", under="training.stage1")
    out["moe.loss_ms"] = (1e3 * sum(t.spans[i][2] - t.spans[i][1] for i in loss_spans)
                          / len(steps)) if steps else 0.0
    for key in ("routed", "retained", "sparse_rows"):
        out[f"moe.{key}"] = (float(np.mean([t.spans[i][4][key] for i in steps]))
                             if steps else 0.0)
    for name in ("encode_condition", "predict_noise", "sample", "predict_noise_batch"):
        out[f"diffusion.{name}_ms"] = t.mean_ms(t.select(f"diffusion.{name}"))
    samples = t.select("diffusion.sample")
    out["diffusion.reverse_steps"] = (
        len(t.select("diffusion.predict_noise_batch", under="diffusion.sample")) / len(samples)
        if samples else 0.0)
    out["metrics.ttest_ms"] = t.mean_ms(t.select("metrics.ttest"))
    out["metrics.report_ms"] = t.mean_ms(t.select("metrics.report"))
    out["evaluate.aggregate_ms"] = t.mean_ms(t.select("moe.aggregate", under="evaluate"))
    for op in ("read_bag", "write_bag"):
        idx = t.select(f"io_formats.{op}")
        secs = sum(t.spans[i][2] - t.spans[i][1] for i in idx)
        mib = sum(t.spans[i][4]["bytes"] for i in idx) / 2**20
        out[f"io_formats.{op}_mib_per_s"] = mib / secs if secs > 0 else 0.0
    for op in ("save_checkpoint", "load_checkpoint"):
        out[f"io_formats.{op}_ms"] = t.mean_ms(t.select(f"io_formats.{op}"))
    out["moe.score_table_ms"] = t.mean_ms(t.select("moe.score_table"))
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd.replace('-', '_')}_s"] = t.mean_ms(t.select(f"cli.{cmd}")) / 1e3
    out["synthetic.generate_ms"] = t.mean_ms(t.select("synthetic.generate"))
    for key, value in out.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {key} is not finite")
    return out
