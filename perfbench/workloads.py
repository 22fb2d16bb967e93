"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (untimed except
as set-up), then repeats identical rounds of timed phases.  A phase is one
operation: it either completes or counts as failed.  Outputs of every round
must be bit-identical to the first round's; the last round's outputs go
through ``checks``.

mil_small  the acceptance data shape (3 classes, 64-dim, 12-24 instances,
           10% positives, separation 8) through stage 1, stage 2 and
           ``evaluate`` with the paper sampler (T = 200, 100 chains).
wsi_large  slide-scale bags: a few stage-1 steps and a short stage 2 on
           1024-instance bags, then no-grad evaluation of one bag at the
           2048-instance dense limit and one above it (chunked attention),
           from a seeded parameter set with non-zero residual branches.
cli_files  the ``moediff`` commands in-process on files: gen, train-moe,
           train-diff, eval, export-scores and predict.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import shutil
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from moediff import autodiff as ad
from moediff import cli as moediff_cli
from moediff import diffusion
from moediff.adapter import adapt
from moediff.core import derive_seed
from moediff.diffusion import default_schedule, posterior_coefficients
from moediff.evaluate import evaluate
from moediff.io_formats import (RunConfig, apply_params, export_params, load_bags,
                                load_checkpoint, read_bag, save_checkpoint)
from moediff.moe import MoEAggregator, aggregate, aggregate_detailed
from moediff.synthetic import SynthSpec, generate_bag, generate_dataset
from moediff.training import TrainConfig, train_stage1, train_stage2

import checks

ACCURACY_FLOOR = 0.5     # 3 classes: chance is 1/3; seeds 1-10 gave 0.73-0.97
UNCERTAINTY_ALPHA = 0.05
STAGE1_LR = 1e-2         # reaches the accuracy floor within one round's 8 epochs
DENSE_LIMIT = 2048       # nn.MultiHeadSelfAttention switches to chunks above this
# wsi_large bag sizes; the per-layer attention and memory metrics are keyed on them.
WSI_TRAIN_N = 1024
WSI_INFER_N = (DENSE_LIMIT, 3072)
# wsi_large runs one fixed model on seeded bags: routed and retained counts,
# and so the prior adapter's attention size, then vary little between seeds.
WSI_PARAMS_SEED = 0xB16


@dataclass(frozen=True)
class Sizes:
    train_per_class: int = 12
    test_per_class: int = 10
    stage1_epochs: int = 8
    stage2_epochs: int = 30
    timesteps: int = 200
    n_samples: int = 100
    wsi_train: tuple = (WSI_TRAIN_N,) * 3
    wsi_infer: tuple = WSI_INFER_N
    wsi_stage2_epochs: int = 20
    predict_bags: int = 3
    accuracy_floor: float | None = ACCURACY_FLOOR


FULL = Sizes()
TINY = Sizes(train_per_class=2, test_per_class=2, stage1_epochs=2, stage2_epochs=2,
             timesteps=20, n_samples=10, wsi_train=(48, 64), wsi_infer=(40, DENSE_LIMIT + 1),
             wsi_stage2_epochs=2, predict_bags=1, accuracy_floor=None)


class RoundFailed(RuntimeError):
    pass


class Phases:
    """Times the phases of one round; a phase that raises fails the round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self.done = 0

    @contextlib.contextmanager
    def __call__(self, name: str):
        span = self.tracer.span(f"phase.{name}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            yield
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
        self.done += 1


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def capture_init(cls, store: list):
    """Record the parameters of every ``cls`` instance right after __init__."""
    original = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        store.append(export_params(self))

    cls.__init__ = init
    try:
        yield
    finally:
        cls.__init__ = original


def seeded_params(model, seed: int) -> dict[str, np.ndarray]:
    """A parameter set in which every residual branch is non-zero: weights
    ~ N(0, 1/fan_in), vectors perturbed around their initial values."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, value in sorted(export_params(model).items()):
        if value.ndim == 2:
            out[name] = rng.normal(0.0, 1.0 / np.sqrt(value.shape[0]), value.shape)
        else:
            out[name] = value + rng.normal(0.0, 0.05, value.shape)
        out[name] = out[name].astype(np.float32)
    return out


def memory_probe(fn) -> float:
    """tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def graph_nodes(loss) -> int:
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def probe_layers(model_factory, train_bag, infer_bags, config: TrainConfig, ratios) -> dict:
    """Traced-run probes: the stage-1 graph size, and peak memory of one
    stage-1 step and of no-grad aggregation, each at the wsi_large bag
    sizes (a size no bag has reads 0)."""
    nodes = []
    original = ad.Tensor.backward

    def counting_backward(self, *args, **kwargs):
        nodes.append(graph_nodes(self))
        return original(self, *args, **kwargs)

    cfg = copy.deepcopy(config)
    cfg.stage1.epochs = 1
    model = model_factory()
    ad.Tensor.backward = counting_backward
    try:
        step = memory_probe(lambda: train_stage1([train_bag], cfg, model=model,
                                                 num_classes=model.num_classes))
    finally:
        ad.Tensor.backward = original
    out = {"autodiff.graph_nodes": float(nodes[0]),
           f"mem.stage1_step_peak_mib.n{WSI_TRAIN_N}":
               step if train_bag.size == WSI_TRAIN_N else 0.0}
    for n in WSI_INFER_N:
        bags = [b for b in infer_bags if b.size == n]
        peak = 0.0
        if bags:
            with ad.no_grad():
                peak = memory_probe(lambda: aggregate(model, bags[0], ratios))
        out[f"mem.infer_peak_mib.n{n}"] = peak
    return out


def train_config(seed: int, sizes: Sizes) -> TrainConfig:
    config = TrainConfig(seed=seed)
    config.stage1.epochs = sizes.stage1_epochs
    config.stage1.lr0 = STAGE1_LR
    config.stage2.epochs = sizes.stage2_epochs
    config.diffusion.timesteps = sizes.timesteps
    config.diffusion.n_samples = sizes.n_samples
    return config


class Workload:
    """``setup`` of an API workload builds ``train``, ``test``, ``config``,
    ``model`` and its starting parameters ``init``; every round trains
    from ``init``."""

    PHASES = ("stage1", "stage2", "eval")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, tracer=None):
        self.seed, self.sizes, self.workdir, self.tracer = seed, sizes, Path(workdir), tracer

    def rates(self, seconds: dict) -> dict:
        c = self.config
        return {"stage1_bag_steps_per_s": len(self.train) * c.stage1.epochs / seconds["stage1"],
                "stage2_steps_per_s": len(self.train) * c.stage2.epochs / seconds["stage2"],
                "eval_bags_per_s": len(self.test) / seconds["eval"]}

    def probe(self) -> dict:
        def factory():
            m = copy.deepcopy(self.model)
            apply_params(m, self.init)
            return m
        return probe_layers(factory, max(self.train, key=lambda b: b.size), self.test,
                            self.config, self.config.ratios)


# -- mil_small --------------------------------------------------------------------


class MilSmall(Workload):
    def setup(self) -> None:
        s = self.sizes
        self.spec = SynthSpec(seed=self.seed)
        _, self.train = generate_dataset(self.spec, s.train_per_class)
        _, self.test = generate_dataset(self.spec, s.test_per_class, seed_offset=10**6,
                                        id_prefix="test")
        self.config = train_config(self.seed, s)
        self.sched = default_schedule(s.timesteps, self.config.diffusion.beta_min)
        self.model = MoEAggregator(self.spec.num_classes, self.spec.embedding_dim,
                                   np.random.default_rng(derive_seed(self.seed, 0x57A6E1)))
        self.init = export_params(self.model)
        self.denoiser_inits: list = []

    def round(self, phase: Phases, first: bool) -> dict:
        apply_params(self.model, self.init)
        c = self.config
        with phase("stage1"):
            moe, log1 = train_stage1(self.train, c, model=self.model,
                                     num_classes=self.spec.num_classes)
        hook = capture_init(diffusion.Denoiser, self.denoiser_inits) if first \
            else contextlib.nullcontext()
        with phase("stage2"), hook:
            den, log2 = train_stage2(self.train, moe, c)
        with phase("eval"):
            report, records = evaluate(moe, den, self.sched, self.test, c.ratios,
                                       n_samples=c.diffusion.n_samples, seed=self.seed,
                                       alpha=UNCERTAINTY_ALPHA)
        return {"moe": moe, "den": den, "log1": log1, "log2": log2, "report": report,
                "records": records,
                "digest": digest(*[r.samples for r in records],
                                 *export_params(moe).values(), *export_params(den).values())}

    def check(self, out: dict) -> None:
        s = self.sizes
        floor = s.accuracy_floor
        checks.check_records(out["report"], out["records"], [b.label for b in self.test],
                             UNCERTAINTY_ALPHA, floor)
        checks.check_gamma_sums(self.sched, posterior_coefficients)
        bag, rec = self.test[0], out["records"][0]
        with ad.no_grad():
            agg = aggregate(out["moe"], bag, self.config.ratios)
        ref = checks.reference_sample(self.sched.beta, out["den"], agg.insights, agg.prior,
                                      s.n_samples, derive_seed(self.seed, 0))
        checks.check_samples(rec.samples, ref)
        if floor is not None:
            checks.check_training(out["log1"], self.init, export_params(out["moe"]), "stage 1")
            checks.check_training(out["log2"], self.denoiser_inits[0],
                                  export_params(out["den"]), "stage 2")


# -- wsi_large ----------------------------------------------------------------------


class WsiLarge(Workload):
    def _bags(self, sizes, labels, offset):
        bags = []
        for i, (n, label) in enumerate(zip(sizes, labels)):
            spec = SynthSpec(instances_min=n, instances_max=n, positive_fraction=0.02,
                             seed=self.seed)
            bags.append(generate_bag(spec, label, derive_seed(self.seed, offset + i),
                                     bag_id=f"wsi{offset + i:05d}"))
        return bags

    def setup(self) -> None:
        s = self.sizes
        self.train = self._bags(s.wsi_train, [0, 1, 2], 0)
        self.test = self._bags(s.wsi_infer, [1, 2], 100)
        self.config = train_config(self.seed, s)
        self.config.stage1.epochs = 1
        self.config.stage2.epochs = s.wsi_stage2_epochs
        self.sched = default_schedule(s.timesteps, self.config.diffusion.beta_min)
        self.model = MoEAggregator(3, 64, np.random.default_rng(0))
        self.init = seeded_params(self.model, WSI_PARAMS_SEED)
        apply_params(self.model, self.init)

    def round(self, phase: Phases, first: bool) -> dict:
        apply_params(self.model, self.init)
        c = self.config
        with phase("stage1"):
            moe, log1 = train_stage1(self.train, c, model=self.model, num_classes=3)
        with phase("stage2"):
            den, log2 = train_stage2(self.train, moe, c)
        with phase("eval"):
            report, records = evaluate(moe, den, self.sched, self.test, c.ratios,
                                       n_samples=c.diffusion.n_samples, seed=self.seed,
                                       alpha=UNCERTAINTY_ALPHA)
        return {"moe": moe, "report": report, "records": records,
                "digest": digest(*[r.samples for r in records], *export_params(moe).values())}

    def check(self, out: dict) -> None:
        moe = out["moe"]
        checks.check_records(out["report"], out["records"], [b.label for b in self.test],
                             UNCERTAINTY_ALPHA, None)
        for bag in self.test:
            with ad.no_grad():
                got = adapt(moe.adapter_in, bag.instances).numpy()
                output, probs = aggregate_detailed(moe, bag, self.config.ratios)
            checks.check_adapt(got, checks.reference_adapt(moe.adapter_in, bag.instances))
            checks.check_routing(output, probs, self.config.ratios, bag.bag_id)


# -- cli_files ----------------------------------------------------------------------


class CliFiles(Workload):
    PHASES = ("gen", "stage1", "stage2", "eval", "export_scores", "predict")

    def setup(self) -> None:
        s = self.sizes
        self.doc = {
            "seed": self.seed,
            "data": {"train_bags_per_class": s.train_per_class,
                     "test_bags_per_class": s.test_per_class},
            "stage1": {"epochs": s.stage1_epochs, "lr0": STAGE1_LR},
            "stage2": {"epochs": s.stage2_epochs},
            "diffusion": {"timesteps": s.timesteps, "n_samples": s.n_samples},
            "uncertainty": {"alpha": UNCERTAINTY_ALPHA},
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = self.workdir / "config.json"
        self.cfg_path.write_text(json.dumps(self.doc))
        self.run_config = RunConfig.load(self.cfg_path)
        self.round_dir = self.workdir / "round"

    def cli(self, *argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = moediff_cli.cli([str(a) for a in argv])
        if code != 0:
            raise RoundFailed(f"moediff {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def round(self, phase: Phases, first: bool) -> dict:
        d = self.round_dir
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        cfg, data = self.cfg_path, d / "data"
        with phase("gen"):
            self.cli("gen", "--spec", cfg, "--out", data)
        with phase("stage1"):
            self.cli("train-moe", "--config", cfg, "--data", data, "--out", d / "moe.mexc")
        with phase("stage2"):
            self.cli("train-diff", "--config", cfg, "--data", data, "--moe", d / "moe.mexc",
                     "--out", d / "full.mexc")
        with phase("eval"):
            self.cli("eval", "--config", cfg, "--data", data, "--ckpt", d / "full.mexc",
                     "--report", d / "report.txt")
        with phase("export_scores"):
            self.cli("export-scores", "--ckpt", d / "full.mexc", "--data", data,
                     "--out", d / "scores.csv")
        predictions = []
        with phase("predict"):
            for i in range(self.sizes.predict_bags):
                predictions.append(self.cli(
                    "predict", "--ckpt", d / "full.mexc",
                    "--bag", data / "test" / "bags" / f"test{i:05d}.mexb",
                    "--samples", self.sizes.n_samples, "--seed", i))
        files = [d / "moe.mexc", d / "full.mexc", d / "report.txt.json", d / "scores.csv"]
        return {"predictions": predictions,
                "digest": digest(*[p.read_bytes() for p in files],
                                 "".join(predictions).encode())}

    def rates(self, seconds: dict) -> dict:
        s = self.sizes
        n_train = 3 * s.train_per_class
        return {"stage1_bag_steps_per_s": n_train * s.stage1_epochs / seconds["stage1"],
                "stage2_steps_per_s": n_train * s.stage2_epochs / seconds["stage2"],
                "eval_bags_per_s": 3 * s.test_per_class / seconds["eval"]}

    def generated(self):
        spec = self.run_config.synth_spec()
        data = self.run_config.raw["data"]
        _, train = generate_dataset(spec, data["train_bags_per_class"])
        _, test = generate_dataset(spec, data["test_bags_per_class"],
                                   seed_offset=moediff_cli.TEST_SEED_OFFSET, id_prefix="test")
        return train, test

    def check(self, out: dict) -> None:
        d = self.round_dir
        train, test = self.generated()
        for split, bags in (("train", train), ("test", test)):
            for gen in bags:
                path = d / "data" / split / "bags" / f"{gen.bag_id}.mexb"
                checks.check_bag_file(path, gen, read_bag)
            _, read = load_bags(d / "data" / split / "manifest.json")
            checks.require([(b.bag_id, b.label) for b in read] == [(b.bag_id, b.label) for b in bags],
                           f"{split} manifest lists other bags or labels")
        for name in ("moe.mexc", "full.mexc"):
            manifest, params = load_checkpoint(d / name)
            copy_path = d / f"resaved-{name}"
            save_checkpoint(copy_path, params, stage=manifest["stage"],
                            config_hash=manifest["config_hash"], epoch=manifest["epoch"],
                            seed=manifest["seed"], extra=manifest["extra"])
            checks.require(copy_path.read_bytes() == (d / name).read_bytes(),
                           f"{name}: load-then-save is not byte-identical")
        checks.check_scores_csv(d / "scores.csv", {b.bag_id: b.size for b in test},
                                self.run_config.synth_spec().num_classes,
                                self.run_config.ratios())
        report = json.loads((d / "report.txt.json").read_text())["metrics"]
        if self.sizes.accuracy_floor is not None:
            checks.require(report["accuracy"] >= self.sizes.accuracy_floor,
                           f"report accuracy {report['accuracy']:.3f} below the floor")
        for i, line in enumerate(out["predictions"]):
            fields = dict(kv.split("=", 1) for kv in line.split())
            checks.require(fields["bag_id"] == f"test{i:05d}"
                           and 0 <= int(fields["label"]) < 3
                           and 0.0 <= float(fields["p_value"]) <= 1.0
                           and fields["certain"] in ("true", "false"),
                           f"unexpected predict output {line!r}")

    def probe(self) -> dict:
        train, test = self.generated()
        config = self.run_config.train_config()
        manifest, params = load_checkpoint(self.round_dir / "moe.mexc")

        def factory():
            m = MoEAggregator(3, 64, np.random.default_rng(0))
            apply_params(m, params)
            return m
        return probe_layers(factory, max(train, key=lambda b: b.size), test, config,
                            self.run_config.ratios())


WORKLOADS = {"mil_small": MilSmall, "wsi_large": WsiLarge, "cli_files": CliFiles}
