"""Command-line surface for the pipeline.

Subcommands: ``gen`` (synthetic dataset), ``train-moe`` (stage 1),
``train-diff`` (stage 2), ``eval`` (metric report incl. PAvPU),
``predict`` (single bag), ``export-scores`` (per-instance router scores),
``sweep-alpha`` (sampling-ratio grid).

``eval`` and ``predict`` sample with the checkpoint's schedule, ratios,
sample count (``predict --samples`` overrides it), stride, alpha and
``use_prior``; from ``--config``, ``eval`` takes only the seed and stamp.

Every run embeds a reproducibility stamp (config hash, seed, artifact
version) in its outputs.  Failures print one machine-parseable line to
stderr (``error: <kind>: <detail>``) and remove partially written
outputs.  The MEXD_SEED environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diffusion import Denoiser, default_schedule
from .evaluate import evaluate, predict_bag
from .io_formats import (RunConfig, apply_params, export_params, load_bags,
                         load_checkpoint, read_bag, save_checkpoint, write_dataset,
                         write_report)
from .metrics import qq_export
from .moe import MoEAggregator, SamplingRatios, score_table
from .synthetic import generate_dataset
from .training import DiffusionConfig, train_stage1, train_stage2

TEST_SEED_OFFSET = 1_000_000


class OutputGuard:
    """Context manager over declared output paths: when its body raises, it
    removes the ones this run created."""

    def __init__(self, paths):
        self.paths = [Path(p) for p in paths]
        self.preexisting = {p for p in self.paths if p.exists()}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for p in self.paths:
                if p not in self.preexisting and p.is_file():
                    p.unlink()


def _load_config(path: str | None) -> RunConfig:
    return RunConfig.load(path) if path else RunConfig.from_dict({})


def _load_models(path, stage2: bool = True) -> tuple[dict, MoEAggregator, Denoiser | None]:
    """Rebuild a checkpoint's models from its ``extra``.  With ``stage2``
    the checkpoint must be a stage-2 one and its denoiser comes back too;
    without, only the aggregator is read, from either stage."""
    manifest, params = load_checkpoint(path)
    if stage2 and manifest["stage"] != "stage2":
        raise ValueError(f"{path} is a {manifest['stage']} checkpoint, expected stage2")
    extra = manifest["extra"]
    model = extra["model"]

    def part(prefix: str) -> dict:
        return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}

    moe = MoEAggregator(num_classes=extra["num_classes"], dim=extra["embedding_dim"],
                        rng=np.random.default_rng(0), heads=model["heads"],
                        ff_multiple=model["ff_multiple"])
    apply_params(moe, part("moe.") if manifest["stage"] == "stage2" else params)
    if not stage2:
        return manifest, moe, None
    den = Denoiser(num_classes=extra["num_classes"], dim=extra["embedding_dim"],
                   rng=np.random.default_rng(0), hidden=model["denoiser_hidden"],
                   time_dim=model["time_embed_dim"])
    apply_params(den, part("denoiser."))
    return manifest, moe, den


def _sampler(diffusion: DiffusionConfig, ratios: SamplingRatios, alpha: float) -> dict:
    """The sampler arguments of ``evaluate`` and ``predict_bag``: all but
    the models, the bags and the seed."""
    return {"sched": default_schedule(diffusion.timesteps, diffusion.beta_min),
            "ratios": ratios, "n_samples": diffusion.n_samples, "stride": diffusion.stride,
            "alpha": alpha, "use_prior": diffusion.use_prior}


def cmd_gen(args) -> int:
    config = _load_config(args.spec)
    out = Path(args.out)
    spec = config.synth_spec()
    train_manifest, train_bags = generate_dataset(
        spec, config.raw["data"]["train_bags_per_class"])
    test_manifest, test_bags = generate_dataset(
        spec, config.raw["data"]["test_bags_per_class"],
        seed_offset=TEST_SEED_OFFSET, id_prefix="test")
    with OutputGuard([out / split / name
                      for split, manifest in (("train", train_manifest), ("test", test_manifest))
                      for name in ["manifest.json", *(e.path for e in manifest.entries)]]):
        write_dataset(out / "train", train_manifest, train_bags, stamp=config.stamp())
        write_dataset(out / "test", test_manifest, test_bags, stamp=config.stamp())
    print(f"wrote {len(train_bags)} train / {len(test_bags)} test bags under {out}")
    return 0


def cmd_train_moe(args) -> int:
    config = _load_config(args.config)
    with OutputGuard([args.out]):
        _, train_bags = load_bags(Path(args.data) / "train" / "manifest.json")
        test_manifest = Path(args.data) / "test" / "manifest.json"
        eval_bags = load_bags(test_manifest)[1] if test_manifest.exists() else None
        tc = config.train_config()
        model, log = train_stage1(train_bags, tc, eval_bags=eval_bags,
                                  num_classes=config.raw["synth"]["num_classes"])
        save_checkpoint(args.out, export_params(model), stage="stage1",
                        config_hash=config.config_hash(), epoch=tc.stage1.epochs,
                        seed=config.seed, extra=config.model_extra())
        final = log[-1]
        acc = f" acc={final['acc']:.4f}" if "acc" in final else ""
        print(f"stage1 done: loss={final['loss']:.6f}{acc} -> {args.out}")
    return 0


def cmd_train_diff(args) -> int:
    config = _load_config(args.config)
    with OutputGuard([args.out]):
        _, moe, _ = _load_models(args.moe, stage2=False)
        _, train_bags = load_bags(Path(args.data) / "train" / "manifest.json")
        tc = config.train_config()
        denoiser, log = train_stage2(train_bags, moe, tc)
        params = {f"moe.{k}": v for k, v in export_params(moe).items()}
        params.update({f"denoiser.{k}": v for k, v in export_params(denoiser).items()})
        save_checkpoint(args.out, params, stage="stage2",
                        config_hash=config.config_hash(), epoch=tc.stage2.epochs,
                        seed=config.seed, extra=config.model_extra())
        print(f"stage2 done: loss={log[-1]['loss']:.6f} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    with OutputGuard([args.report, str(args.report) + ".json"]):
        manifest, moe, denoiser = _load_models(args.ckpt)
        extra = manifest["extra"]
        _, test_bags = load_bags(Path(args.data) / "test" / "manifest.json")
        report, records = evaluate(
            moe, denoiser, bags=test_bags, seed=config.seed,
            **_sampler(DiffusionConfig(**extra["diffusion"]), SamplingRatios(**extra["ratios"]),
                       extra["uncertainty"]["alpha"]))
        write_report(args.report, report, stamp=config.stamp(),
                     extra={"bags": len(records), "checkpoint": str(args.ckpt)})
        if args.qq:
            tables = qq_export(records)
            with open(args.qq, "w") as fh:
                fh.write(f"# config_hash={config.config_hash()} seed={config.seed}\n")
                fh.write("bag_id\ttheoretical\tempirical\n")
                for bag_id, table in tables.items():
                    if isinstance(table, str):
                        fh.write(f"{bag_id}\t{table}\t{table}\n")
                    else:
                        for theo, emp in table:
                            fh.write(f"{bag_id}\t{theo:.6f}\t{emp:.6f}\n")
        print(f"f1={report.f1_macro:.4f} acc={report.accuracy:.4f} "
              f"auc={report.auc_macro:.4f} pavpu={report.pavpu:.4f}")
    return 0


def cmd_predict(args) -> int:
    manifest, moe, denoiser = _load_models(args.ckpt)
    extra = manifest["extra"]
    bag = read_bag(args.bag)
    sampler = _sampler(DiffusionConfig(**extra["diffusion"]), SamplingRatios(**extra["ratios"]),
                       extra["uncertainty"]["alpha"])
    sampler["n_samples"] = args.samples
    record = predict_bag(moe, denoiser, bag=bag, seed=args.seed, **sampler)
    print(f"bag_id={bag.bag_id} label={record.point_prediction} "
          f"p_value={record.p_value:.6g} certain={str(record.certain).lower()}")
    return 0


def cmd_export_scores(args) -> int:
    with OutputGuard([args.out]):
        manifest, moe, _ = _load_models(args.ckpt, stage2=False)
        ratios = SamplingRatios(**manifest["extra"]["ratios"])
        _, bags = load_bags(Path(args.data) / "test" / "manifest.json")
        with open(args.out, "w", newline="") as fh:
            fh.write(f"# config_hash={manifest['config_hash']} seed={manifest['seed']} "
                     f"artifact_version={__version__}\n")
            writer = csv.DictWriter(fh, fieldnames=[
                "bag_id", "instance_index", "expert_index", "score", "routed", "retained"])
            writer.writeheader()
            for bag in bags:
                for row in score_table(moe, bag, ratios):
                    writer.writerow(row)
    print(f"wrote router scores -> {args.out}")
    return 0


def cmd_sweep_alpha(args) -> int:
    config = _load_config(args.config)
    with OutputGuard([args.out]):
        left, _, right = args.grid.partition("x")
        alpha0_values = [float(v) for v in left.split(",") if v]
        alpha1_values = [float(v) for v in right.split(",") if v]
        if not alpha0_values or not alpha1_values:
            raise ValueError(f"cannot parse ratio grid {args.grid!r}")
        _, train_bags = load_bags(Path(args.data) / "train" / "manifest.json")
        _, test_bags = load_bags(Path(args.data) / "test" / "manifest.json")
        rows = []
        for alpha0 in alpha0_values:
            for alpha1 in alpha1_values:
                tc = config.train_config()
                tc.ratios = SamplingRatios(alpha0=alpha0, alpha1=alpha1)
                moe, _ = train_stage1(train_bags, tc,
                                      num_classes=config.raw["synth"]["num_classes"])
                denoiser, _ = train_stage2(train_bags, moe, tc)
                report, _ = evaluate(moe, denoiser, bags=test_bags, seed=config.seed,
                                     **_sampler(tc.diffusion, tc.ratios,
                                                config.raw["uncertainty"]["alpha"]))
                rows.append((alpha0, alpha1, report.f1_macro, report.accuracy,
                             report.auc_macro, report.pavpu))
                print(f"alpha0={alpha0} alpha1={alpha1} acc={report.accuracy:.4f}")
        with open(args.out, "w") as fh:
            fh.write(f"# config_hash={config.config_hash()} seed={config.seed} "
                     f"artifact_version={__version__}\n")
            fh.write("alpha0\talpha1\tf1_macro\taccuracy\tauc_macro\tpavpu\n")
            for row in rows:
                fh.write("\t".join(f"{v:.6g}" for v in row) + "\n")
    print(f"wrote sweep table -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moediff", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic train/test dataset")
    p.add_argument("--spec", help="run-config JSON (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-moe", help="stage 1: train the expert aggregator")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_train_moe)

    p = sub.add_parser("train-diff", help="stage 2: train the diffusion denoiser")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--moe", required=True, help="stage-1 checkpoint")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_train_diff)

    p = sub.add_parser("eval", help="evaluate a stage-2 checkpoint on the test split")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--ckpt", required=True, help="stage-2 checkpoint")
    p.add_argument("--report", required=True, help="report output path")
    p.add_argument("--qq", help="optional path for the per-bag quantile table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict one bag file")
    p.add_argument("--ckpt", required=True, help="stage-2 checkpoint")
    p.add_argument("--bag", required=True, help="bag file")
    p.add_argument("--samples", type=int, default=100, help="posterior sample count")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("export-scores", help="per-instance router scores as CSV")
    p.add_argument("--ckpt", required=True, help="stage-1 or stage-2 checkpoint")
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_export_scores)

    p = sub.add_parser("sweep-alpha", help="train/evaluate over a sampling-ratio grid")
    p.add_argument("--grid", required=True,
                   help="alpha0 values, then 'x', then alpha1 values, e.g. 0.1,0.25x0.5,0.75")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--out", required=True, help="TSV output path")
    p.set_defaults(func=cmd_sweep_alpha)

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
