"""End-of-pipeline evaluation: posterior sampling, records, reports."""

from __future__ import annotations

from . import autodiff as ad
from .core import Bag, derive_seed
from .diffusion import Denoiser, NoiseSchedule, sample
from .metrics import (MetricReport, PredictionRecord, aggregate_samples, full_report,
                      ttest_certainty)
from .moe import MoEAggregator, SamplingRatios, aggregate


def predict_bag(moe_model: MoEAggregator, denoiser: Denoiser, sched: NoiseSchedule,
                bag: Bag, ratios: SamplingRatios, n_samples: int = 100, stride: int = 1,
                seed: int = 0, alpha: float = 0.05, use_prior: bool = True,
                ) -> PredictionRecord:
    """Posterior samples and the derived judgment for one bag."""
    with ad.no_grad():
        out = aggregate(moe_model, bag, ratios)
    draws = sample(sched, denoiser, out.insights, out.prior, stride=stride,
                   n_samples=n_samples, seed=seed, use_prior=use_prior)
    _, point = aggregate_samples(draws)
    certain, p_value = ttest_certainty(draws, alpha=alpha)
    return PredictionRecord(bag_id=bag.bag_id, samples=draws, point_prediction=point,
                            true_label=bag.label, certain=certain, p_value=p_value)


def evaluate(moe_model: MoEAggregator, denoiser: Denoiser, sched: NoiseSchedule,
             bags: list[Bag], ratios: SamplingRatios, n_samples: int = 100,
             stride: int = 1, seed: int = 0, alpha: float = 0.05,
             use_prior: bool = True) -> tuple[MetricReport, list[PredictionRecord]]:
    """Full metric report (including PAvPU) and per-bag records; each bag's
    sampling seed derives from ``seed`` and its position in the list."""
    records = [predict_bag(moe_model, denoiser, sched, bag, ratios, n_samples=n_samples,
                           stride=stride, seed=derive_seed(seed, i), alpha=alpha,
                           use_prior=use_prior)
               for i, bag in enumerate(bags)]
    return full_report(records, num_classes=moe_model.num_classes), records
