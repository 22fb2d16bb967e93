"""Command-line surface for the pipeline.

Subcommands: ``gen`` (synthetic dataset), ``train-moe`` (stage 1),
``train-diff`` (stage 2), ``eval`` (metric report incl. PAvPU),
``predict`` (single bag), ``export-scores`` (per-instance router scores),
``sweep-alpha`` (sampling-ratio grid).

Every run embeds a reproducibility stamp (config hash, seed, artifact
version) in its outputs.  Failures print one machine-parseable line to
stderr (``error: <kind>: <detail>``) and remove partially written
outputs.  The MEXD_SEED environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import derive_seed
from .diffusion import Denoiser, default_schedule
from .evaluate import evaluate, predict_bag
from .io_formats import (RunConfig, apply_params, export_params, load_bags,
                         load_checkpoint, read_bag, save_checkpoint, write_dataset,
                         write_report)
from .metrics import qq_export
from .moe import MoEAggregator, SamplingRatios, score_table
from .synthetic import generate_dataset
from .training import train_stage1, train_stage2

TEST_SEED_OFFSET = 1_000_000


class OutputGuard:
    """Tracks declared output paths and removes the ones this run created
    if the command fails."""

    def __init__(self, paths):
        self.paths = [Path(p) for p in paths]
        self.preexisting = {p for p in self.paths if p.exists()}

    def cleanup(self):
        for p in self.paths:
            if p not in self.preexisting and p.exists():
                if p.is_file():
                    p.unlink()


def _load_config(path: str | None) -> RunConfig:
    return RunConfig.load(path) if path else RunConfig.from_dict({})


def _build_moe(extra: dict) -> MoEAggregator:
    return MoEAggregator(
        num_classes=extra["num_classes"],
        dim=extra["embedding_dim"],
        rng=np.random.default_rng(0),
        heads=extra["model"]["heads"],
        ff_multiple=extra["model"]["ff_multiple"],
    )


def _build_denoiser(extra: dict) -> Denoiser:
    return Denoiser(
        num_classes=extra["num_classes"],
        dim=extra["embedding_dim"],
        rng=np.random.default_rng(0),
        hidden=extra["model"]["denoiser_hidden"],
        time_dim=extra["model"]["time_embed_dim"],
    )


def _load_stage2_models(ckpt_path) -> tuple[dict, MoEAggregator, Denoiser]:
    manifest, params = load_checkpoint(ckpt_path)
    if manifest["stage"] != "stage2":
        raise ValueError(f"{ckpt_path} is a {manifest['stage']} checkpoint, expected stage2")
    extra = manifest["extra"]
    moe = _build_moe(extra)
    den = _build_denoiser(extra)
    apply_params(moe, {k[len("moe."):]: v for k, v in params.items() if k.startswith("moe.")})
    apply_params(den, {k[len("denoiser."):]: v for k, v in params.items()
                       if k.startswith("denoiser.")})
    return manifest, moe, den


def _load_moe_any(ckpt_path) -> tuple[dict, MoEAggregator]:
    manifest, params = load_checkpoint(ckpt_path)
    extra = manifest["extra"]
    moe = _build_moe(extra)
    if manifest["stage"] == "stage2":
        params = {k[len("moe."):]: v for k, v in params.items() if k.startswith("moe.")}
    apply_params(moe, params)
    return manifest, moe


def cmd_gen(args) -> int:
    config = _load_config(args.spec)
    out = Path(args.out)
    spec = config.synth_spec()
    train_manifest, train_bags = generate_dataset(
        spec, config.raw["data"]["train_bags_per_class"])
    test_manifest, test_bags = generate_dataset(
        spec, config.raw["data"]["test_bags_per_class"],
        seed_offset=TEST_SEED_OFFSET, id_prefix="test")
    guard = OutputGuard([out / split / name
                         for split, manifest in (("train", train_manifest), ("test", test_manifest))
                         for name in ["manifest.json", *(e.path for e in manifest.entries)]])
    try:
        write_dataset(out / "train", train_manifest, train_bags, stamp=config.stamp())
        write_dataset(out / "test", test_manifest, test_bags, stamp=config.stamp())
    except BaseException:
        guard.cleanup()
        raise
    print(f"wrote {len(train_bags)} train / {len(test_bags)} test bags under {out}")
    return 0


def cmd_train_moe(args) -> int:
    config = _load_config(args.config)
    guard = OutputGuard([args.out])
    try:
        _, train_bags = load_bags(Path(args.data) / "train" / "manifest.json")
        eval_bags = None
        test_manifest = Path(args.data) / "test" / "manifest.json"
        if test_manifest.exists():
            _, eval_bags = load_bags(test_manifest)
        tc = config.train_config()
        model, log = train_stage1(train_bags, tc, eval_bags=eval_bags,
                                  num_classes=config.raw["synth"]["num_classes"])
        save_checkpoint(args.out, export_params(model), stage="stage1",
                        config_hash=config.config_hash(), epoch=tc.stage1.epochs,
                        seed=config.seed, extra=config.model_extra())
        final = log[-1]
        acc = f" acc={final['acc']:.4f}" if "acc" in final else ""
        print(f"stage1 done: loss={final['loss']:.6f}{acc} -> {args.out}")
    except BaseException:
        guard.cleanup()
        raise
    return 0


def cmd_train_diff(args) -> int:
    config = _load_config(args.config)
    guard = OutputGuard([args.out])
    try:
        _, moe = _load_moe_any(args.moe)
        _, train_bags = load_bags(Path(args.data) / "train" / "manifest.json")
        tc = config.train_config()
        denoiser, log = train_stage2(train_bags, moe, tc)
        params = {f"moe.{k}": v for k, v in export_params(moe).items()}
        params.update({f"denoiser.{k}": v for k, v in export_params(denoiser).items()})
        save_checkpoint(args.out, params, stage="stage2",
                        config_hash=config.config_hash(), epoch=tc.stage2.epochs,
                        seed=config.seed, extra=config.model_extra())
        print(f"stage2 done: loss={log[-1]['loss']:.6f} -> {args.out}")
    except BaseException:
        guard.cleanup()
        raise
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    guard = OutputGuard([args.report, str(args.report) + ".json"])
    try:
        manifest, moe, denoiser = _load_stage2_models(args.ckpt)
        extra = manifest["extra"]
        _, test_bags = load_bags(Path(args.data) / "test" / "manifest.json")
        diff = extra["diffusion"]
        sched = default_schedule(diff["timesteps"], diff["beta_min"])
        report, records = evaluate(
            moe, denoiser, sched, test_bags, SamplingRatios(**extra["ratios"]),
            n_samples=diff["n_samples"], stride=diff["stride"], seed=config.seed,
            alpha=extra["uncertainty"]["alpha"], use_prior=diff["use_prior"])
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
    except BaseException:
        guard.cleanup()
        raise
    return 0


def cmd_predict(args) -> int:
    manifest, moe, denoiser = _load_stage2_models(args.ckpt)
    extra = manifest["extra"]
    bag = read_bag(args.bag)
    diff = extra["diffusion"]
    sched = default_schedule(diff["timesteps"], diff["beta_min"])
    record = predict_bag(moe, denoiser, sched, bag, SamplingRatios(**extra["ratios"]),
                         n_samples=args.samples, stride=diff["stride"], seed=args.seed,
                         alpha=extra["uncertainty"]["alpha"], use_prior=diff["use_prior"])
    print(f"bag_id={bag.bag_id} label={record.point_prediction} "
          f"p_value={record.p_value:.6g} certain={str(record.certain).lower()}")
    return 0


def cmd_export_scores(args) -> int:
    guard = OutputGuard([args.out])
    try:
        manifest, moe = _load_moe_any(args.ckpt)
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
    except BaseException:
        guard.cleanup()
        raise
    print(f"wrote router scores -> {args.out}")
    return 0


def cmd_sweep_alpha(args) -> int:
    config = _load_config(args.config)
    guard = OutputGuard([args.out])
    try:
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
                sched = default_schedule(tc.diffusion.timesteps, tc.diffusion.beta_min)
                report, _ = evaluate(moe, denoiser, sched, test_bags, tc.ratios,
                                     n_samples=tc.diffusion.n_samples,
                                     stride=tc.diffusion.stride, seed=config.seed,
                                     alpha=config.raw["uncertainty"]["alpha"])
                rows.append((alpha0, alpha1, report.f1_macro, report.accuracy,
                             report.auc_macro, report.pavpu))
                print(f"alpha0={alpha0} alpha1={alpha1} acc={report.accuracy:.4f}")
        with open(args.out, "w") as fh:
            fh.write(f"# config_hash={config.config_hash()} seed={config.seed} "
                     f"artifact_version={__version__}\n")
            fh.write("alpha0\talpha1\tf1_macro\taccuracy\tauc_macro\tpavpu\n")
            for row in rows:
                fh.write("\t".join(f"{v:.6g}" for v in row) + "\n")
    except BaseException:
        guard.cleanup()
        raise
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
