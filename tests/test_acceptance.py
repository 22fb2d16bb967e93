"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The expensive artifacts (the full synthetic benchmark run and the ablation
grid) are module-scoped fixtures shared across criteria.
"""

import contextlib
import time

import numpy as np
import pytest

from moediff import autodiff as ad
from moediff.autodiff import Tensor, collect_params
from moediff.baselines import baseline_accuracy, fit_baseline
from moediff.core import derive_seed, one_hot
from moediff.diffusion import (Denoiser, default_schedule, encode_condition,
                               forward_sample, make_schedule, noise_loss,
                               posterior_coefficients, predict_noise, reconstruct_f0,
                               reverse_step, sample)
from moediff.evaluate import evaluate
from moediff.io_formats import (load_checkpoint, read_bag, save_checkpoint, write_bag)
from moediff.metrics import (PredictionRecord, accuracy, aggregate_samples, pavpu,
                             qq_table, ttest_certainty)
from moediff.moe import (MoEAggregator, SamplingRatios, accept_side, aggregate,
                         moe_loss, router_probs, select_routed, topk_filter)
from moediff.nn import Linear
from moediff.synthetic import SynthSpec, generate_bag, generate_dataset
from moediff.training import TrainConfig, train_stage1, train_stage2

from gradcheck import check_grads


@contextlib.contextmanager
def criterion(name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[{name}] FAIL  ({time.time() - start:.1f}s)")
        raise
    print(f"[{name}] PASS  ({time.time() - start:.1f}s)")


BENCHMARK_SEED = 2024
ABLATION_SEEDS = (101, 102, 103)


def benchmark_spec() -> SynthSpec:
    # K = 2 positive subtypes, separation 8x noise, 10% positive instances
    return SynthSpec(num_classes=3, embedding_dim=64, instances_min=12,
                     instances_max=24, positive_fraction=0.1, cluster_separation=8.0,
                     noise_std=1.0, seed=BENCHMARK_SEED, rotate=True)


def exact_test_split(spec: SynthSpec, total: int = 100):
    """Held-out bags: as balanced as the total allows (34/33/33)."""
    per_class = [total // spec.num_classes] * spec.num_classes
    for i in range(total - sum(per_class)):
        per_class[i] += 1
    bags = []
    index = 0
    for label, count in enumerate(per_class):
        for _ in range(count):
            bags.append(generate_bag(spec, label, derive_seed(spec.seed, 10**6 + index),
                                     bag_id=f"test{index:05d}"))
            index += 1
    return bags


@pytest.fixture(scope="module")
def benchmark_run():
    """Full pipeline at the paper-default configuration on the synthetic
    benchmark: 300 train bags, 100 test bags, two training stages,
    posterior sampling, and the pooling controls."""
    spec = benchmark_spec()
    _, train_bags = generate_dataset(spec, 100)
    test_bags = exact_test_split(spec, 100)
    config = TrainConfig(seed=BENCHMARK_SEED)  # stage1: 100 ep radam 2e-4 wd 1e-5
    start = time.time()                        # stage2: 200 ep adam 1e-3, T=200
    moe, log1 = train_stage1(train_bags, config)
    denoiser, log2 = train_stage2(train_bags, moe, config)
    sched = default_schedule(config.diffusion.timesteps, config.diffusion.beta_min)
    report, records = evaluate(moe, denoiser, sched, test_bags, config.ratios,
                               n_samples=config.diffusion.n_samples,
                               stride=config.diffusion.stride, seed=BENCHMARK_SEED)
    baselines = {mode: baseline_accuracy(
        fit_baseline(mode, train_bags, 3, seed=BENCHMARK_SEED, epochs=100), test_bags)
        for mode in ("mean", "max", "attention")}
    elapsed = time.time() - start
    return dict(spec=spec, config=config, moe=moe, denoiser=denoiser, sched=sched,
                train_bags=train_bags, test_bags=test_bags, report=report,
                records=records, baselines=baselines, elapsed=elapsed,
                logs=(log1, log2))


def ablation_config(seed: int, ratios: SamplingRatios) -> TrainConfig:
    config = TrainConfig(seed=seed)
    config.stage1.epochs = 40
    config.stage2.epochs = 60
    config.ratios = ratios
    config.diffusion.n_samples = 25  # accuracy trend needs no deep posterior
    return config


@pytest.fixture(scope="module")
def ablation_runs():
    """Paired reduced-scale runs for the trend criteria: per seed, stage 1
    at the default and at the starved negative ratio, stage 2 with and
    without the prior conditioning."""
    spec = benchmark_spec()
    results = {"prior_on": [], "prior_off": [], "alpha_best": [], "alpha_low": []}
    for seed in ABLATION_SEEDS:
        local_spec = SynthSpec(**{**spec.__dict__, "seed": seed})
        _, train_bags = generate_dataset(local_spec, 40)
        test_bags = exact_test_split(local_spec, 45)

        def run_stage2_and_eval(config, moe, use_prior):
            config.diffusion.use_prior = use_prior
            denoiser, _ = train_stage2(train_bags, moe, config)
            sched = default_schedule(config.diffusion.timesteps, config.diffusion.beta_min)
            report, _ = evaluate(moe, denoiser, sched, test_bags, config.ratios,
                                 n_samples=config.diffusion.n_samples, seed=seed,
                                 use_prior=use_prior)
            return report.accuracy

        best = ablation_config(seed, SamplingRatios(alpha0=0.25, alpha1=0.5))
        moe_best, _ = train_stage1(train_bags, best)
        results["prior_on"].append(run_stage2_and_eval(best, moe_best, True))
        results["prior_off"].append(run_stage2_and_eval(best, moe_best, False))
        results["alpha_best"].append(results["prior_on"][-1])

        low = ablation_config(seed, SamplingRatios(alpha0=0.1, alpha1=0.5))
        moe_low, _ = train_stage1(train_bags, low)
        results["alpha_low"].append(run_stage2_and_eval(low, moe_low, True))
    return results


# -- criterion: diffusion math suite ------------------------------------------


def test_diffusion_math_suite():
    with criterion("diffusion-math"):
        start = time.time()
        sched = default_schedule(200)
        rng = np.random.default_rng(0)

        # affine identity at 1e-10 for every step
        for t in range(1, 201):
            c = posterior_coefficients(sched, t)
            assert abs(c.gamma0 + c.gamma1 + c.gamma2 - 1.0) <= 1e-10

        # reconstruct(forward) identity at 1e-5
        for t in (1, 7, 50, 140, 200):
            f0 = rng.standard_normal(3)
            rho = rng.standard_normal(3)
            eps = rng.standard_normal(3)
            state = forward_sample(sched, f0, rho, t, eps)
            assert np.allclose(reconstruct_f0(sched, state, eps, rho, t), f0, atol=1e-5)

        # zero-prior reduction equals the standard posterior coefficients exactly
        for t in range(1, 201):
            c = posterior_coefficients(sched, t)
            abar_t, abar_p = sched.alpha_bar[t], sched.alpha_bar[t - 1]
            beta_t, alpha_t = sched.beta[t - 1], sched.alpha[t - 1]
            assert c.gamma0 == pytest.approx(beta_t * np.sqrt(abar_p) / (1 - abar_t), rel=1e-12)
            assert c.gamma1 == pytest.approx((1 - abar_p) * np.sqrt(alpha_t) / (1 - abar_t), rel=1e-12)

        # kernel composition vs closed-form marginal, 1e5 draws, 3 SE
        steep = make_schedule(10, 0.3, 0.9)
        t, n = 6, 100_000
        mc = np.random.default_rng(101)
        f0 = np.array([1.0, 0.0, 0.0])
        rho = np.array([0.2, 0.3, 0.5])
        states = np.tile(f0, (n, 1))
        for k in range(1, t + 1):
            root = np.sqrt(steep.alpha[k - 1])
            states = root * states + (1 - root) * rho \
                + np.sqrt(steep.beta[k - 1]) * mc.standard_normal((n, 3))
        abar = steep.alpha_bar[t]
        mean = np.sqrt(abar) * f0 + (1 - np.sqrt(abar)) * rho
        var = 1 - abar
        assert np.all(np.abs(states.mean(axis=0) - mean) <= 3 * np.sqrt(var / n))
        assert np.all(np.abs(states.var(axis=0) - var) <= 3 * var * np.sqrt(2 / (n - 1)))

        # posterior moments against the Gaussian-Bayes oracle, 3 SE
        t = 7
        eps = mc.standard_normal((n, 3))
        states_t = forward_sample(steep, f0, rho, t, eps)
        c = posterior_coefficients(steep, t)
        z = mc.standard_normal((n, 3))
        prev = reverse_step(c, f0, states_t, rho, z)
        abar_p = steep.alpha_bar[t - 1]
        mean_p = np.sqrt(abar_p) * f0 + (1 - np.sqrt(abar_p)) * rho
        var_p = 1 - abar_p
        assert np.all(np.abs(prev.mean(axis=0) - mean_p) <= 3 * np.sqrt(var_p / n))
        assert np.all(np.abs(prev.var(axis=0) - var_p) <= 3 * var_p * np.sqrt(2 / (n - 1)))

        assert time.time() - start <= 120, "diffusion math suite exceeded 2 minutes"


# -- criterion: gradient suite ---------------------------------------------------


def test_gradient_suite():
    with criterion("gradients"):
        start = time.time()

        # joint aggregator loss through adapters, routers, expert heads,
        # prior head and class embedding; 6-instance bag, float64
        model = MoEAggregator(3, 8, np.random.default_rng(11), dtype=np.float64)
        perturb = np.random.default_rng(12)
        for _, p in collect_params(model):
            p.data = p.data + 0.1 * perturb.standard_normal(p.data.shape)
        from moediff.core import Bag
        bag = Bag(instances=np.random.default_rng(13).standard_normal((6, 8)),
                  label=1, bag_id="grad")
        ratios = SamplingRatios(alpha0=0.5, alpha1=0.5)
        target = one_hot(1, 3, dtype=np.float64)

        def stage1_loss():
            return moe_loss(target, aggregate(model, bag, ratios))

        check_grads(stage1_loss, collect_params(model), h=1e-6, tol=1e-3)

        # noise-estimation loss through the denoiser and condition encoder
        den = Denoiser(3, 8, np.random.default_rng(14), hidden=16, time_dim=8,
                       dtype=np.float64)
        den.mlp_out.weight.data = 0.1 * np.random.default_rng(15).standard_normal(
            den.mlp_out.weight.shape)
        rng = np.random.default_rng(16)
        w_in = rng.standard_normal(8)
        state = rng.standard_normal(3)
        rho = rng.standard_normal(3)
        eps = rng.standard_normal(3)

        def stage2_loss():
            cond = encode_condition(den, Tensor(w_in))
            return noise_loss(eps, predict_noise(den, cond, state, rho, 5))

        check_grads(stage2_loss, collect_params(den), h=1e-6, tol=1e-3)

        assert time.time() - start <= 120, "gradient suite exceeded 2 minutes"


# -- criterion: routing suite -----------------------------------------------------


def test_routing_suite(benchmark_run):
    with criterion("routing"):
        rng = np.random.default_rng(21)

        # route equivalence with a brute-force argmax filter
        for _ in range(500):
            n = int(rng.integers(1, 25))
            x = rng.standard_normal((n, 8))
            router = Linear(8, 2, rng, dtype=np.float64)
            router.bias.data = rng.standard_normal(2)
            r = int(rng.integers(0, 3))
            routed_probs = router_probs(router, Tensor(x)).numpy()
            idx = select_routed(routed_probs, r)
            scores = routed_probs[idx, accept_side(r)]
            logits = x @ router.weight.data + router.bias.data
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            side = accept_side(r)
            brute = [i for i in range(n) if (1 if probs[i, 1] >= probs[i, 0] else 0) == side]
            assert idx.tolist() == brute
            assert np.allclose(scores, probs[brute, side], atol=1e-12)

        # top-k equivalence with a full-sort oracle on 1000 random score sets
        for _ in range(1000):
            n = int(rng.integers(0, 50))
            scores = np.round(rng.random(n), 2)
            alpha = float(rng.uniform(0.05, 1.0))
            kept = topk_filter(scores, alpha)
            if n == 0:
                assert kept.size == 0
                continue
            k = max(1, int(np.ceil(alpha * n)))
            oracle = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
            assert sorted(kept.tolist()) == sorted(oracle)

        # sparsity after stage-1 convergence at (0.25, 0.5)
        moe = benchmark_run["moe"]
        ratios = benchmark_run["config"].ratios
        assert (ratios.alpha0, ratios.alpha1) == (0.25, 0.5)
        below_half = []
        with ad.no_grad():
            for bag in benchmark_run["test_bags"]:
                out = aggregate(moe, bag, ratios)
                below_half.append(out.sparse_bag.size < bag.size / 2)
        fraction = float(np.mean(below_half))
        print(f"  sparse on {fraction:.0%} of bags")
        assert fraction >= 0.90


# -- criterion: synthetic end-to-end ------------------------------------------------


def test_synthetic_end_to_end(benchmark_run):
    with criterion("end-to-end"):
        report = benchmark_run["report"]
        baselines = benchmark_run["baselines"]
        print(f"  pipeline acc {report.accuracy:.4f}; baselines {baselines}")
        assert benchmark_run["elapsed"] <= 20 * 60, "benchmark exceeded 20 minutes"
        assert report.accuracy >= 0.95
        assert report.accuracy - baselines["mean"] >= 0.03
        assert report.accuracy - baselines["max"] >= 0.03


# -- criterion: ablation trends -------------------------------------------------------


def test_ablation_trends(ablation_runs):
    with criterion("ablation-trends"):
        prior_on = float(np.mean(ablation_runs["prior_on"]))
        prior_off = float(np.mean(ablation_runs["prior_off"]))
        alpha_best = float(np.mean(ablation_runs["alpha_best"]))
        alpha_low = float(np.mean(ablation_runs["alpha_low"]))
        print(f"  prior on/off: {prior_on:.4f}/{prior_off:.4f}; "
              f"alpha 0.25/0.10: {alpha_best:.4f}/{alpha_low:.4f}")
        assert prior_on >= prior_off
        assert alpha_best >= alpha_low


# -- criterion: uncertainty suite -------------------------------------------------------


def test_uncertainty_suite():
    with criterion("uncertainty"):
        # t-test calibration at alpha = 0.05 over 1e4 null replications
        rng = np.random.default_rng(31)
        rejections = 0
        reps = 10_000
        for _ in range(reps):
            d = rng.standard_normal(100)
            certain, _ = ttest_certainty(np.column_stack([d, np.zeros(100)]), alpha=0.05)
            rejections += int(certain)
        rate = rejections / reps
        print(f"  null rejection rate {rate:.4f}")
        assert abs(rate - 0.05) <= 0.01

        # PAvPU equals the counting definition on hand-constructed records
        def rec(pred_scores, true, certain):
            samples = np.tile(np.asarray(pred_scores, dtype=float), (4, 1))
            _, point = aggregate_samples(samples)
            return PredictionRecord("r", samples, point, true, certain, 0.01)

        records = [rec([0.9, 0.1], 0, True), rec([0.1, 0.9], 1, True),
                   rec([0.9, 0.1], 1, False), rec([0.9, 0.1], 1, True)]
        assert pavpu(records) == pytest.approx(0.75)

        # PAvPU = ACC when every record is certain
        rng = np.random.default_rng(32)
        certain_records = []
        for i in range(60):
            true = int(rng.integers(0, 2))
            scores = [0.8, 0.2] if rng.random() < 0.75 else [0.2, 0.8]
            certain_records.append(rec(scores, true, True))
        assert pavpu(certain_records) == pytest.approx(accuracy(certain_records))

        # quantile table against the normal-envelope oracle
        rng = np.random.default_rng(33)
        inside = 0
        for _ in range(200):
            d = rng.standard_normal(100)
            table = qq_table(np.column_stack([d, np.zeros(100)]))
            theo, emp = table[:, 0], table[:, 1]
            central = (theo >= np.quantile(theo, 0.05)) & (theo <= np.quantile(theo, 0.95))
            inside += float(np.abs(emp - theo)[central].max()) <= 0.35
        assert inside / 200 >= 0.90


# -- criterion: determinism and I/O -----------------------------------------------------


def test_determinism_and_io(tmp_path):
    with criterion("determinism-io"):
        spec = SynthSpec(num_classes=2, embedding_dim=16, instances_min=6,
                         instances_max=10, positive_fraction=0.2, seed=41)
        _, bags = generate_dataset(spec, 4)
        config = TrainConfig(seed=77)
        config.stage1.epochs = 5
        config.stage2.epochs = 5
        config.diffusion.timesteps = 10
        config.diffusion.beta_min = 0.05

        moe_a, log1_a = train_stage1(bags, config)
        moe_b, log1_b = train_stage1(bags, config)
        den_a, log2_a = train_stage2(bags, moe_a, config)
        den_b, log2_b = train_stage2(bags, moe_b, config)
        for ra, rb in zip(log1_a + log2_a, log1_b + log2_b):
            assert abs(ra["loss"] - rb["loss"]) <= 1e-6

        sched = default_schedule(10, 0.05)
        with ad.no_grad():
            out = aggregate(moe_a, bags[0], config.ratios)
        draws_a = sample(sched, den_a, out.insights, out.prior, n_samples=20, seed=5)
        draws_b = sample(sched, den_b, out.insights, out.prior, n_samples=20, seed=5)
        assert draws_a.tobytes() == draws_b.tobytes()

        # bag and checkpoint round-trips, CRC enforced
        bag_path = tmp_path / "bag.mexb"
        write_bag(bag_path, bags[0])
        back = read_bag(bag_path, label=bags[0].label)
        assert back.instances.tobytes() == bags[0].instances.tobytes()

        from moediff.io_formats import export_params
        ckpt = tmp_path / "model.mexc"
        save_checkpoint(ckpt, export_params(moe_a), stage="stage1", config_hash="h",
                        epoch=5, seed=77)
        manifest, params = load_checkpoint(ckpt)
        ckpt2 = tmp_path / "model2.mexc"
        save_checkpoint(ckpt2, params, stage=manifest["stage"],
                        config_hash=manifest["config_hash"], epoch=manifest["epoch"],
                        seed=manifest["seed"], extra=manifest["extra"])
        assert ckpt.read_bytes() == ckpt2.read_bytes()
