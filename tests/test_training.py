import hashlib
import math

import numpy as np
import pytest

from moediff import autodiff as ad
from moediff.autodiff import collect_params
from moediff.core import ConfigError, one_hot
from moediff.diffusion import default_schedule, sample
from moediff.moe import aggregate
from moediff.synthetic import SynthSpec, generate_dataset
from moediff.training import (Adam, RAdam, TrainConfig, TrainingDiverged, cosine_lr,
                              draw_timestep, prior_accuracy, train_stage1, train_stage2)


def small_setup(bags_per_class=5, seed=3, **spec_overrides):
    spec_args = dict(num_classes=3, embedding_dim=16, instances_min=6, instances_max=10,
                     positive_fraction=0.2, cluster_separation=8.0, noise_std=1.0,
                     seed=seed)
    spec_args.update(spec_overrides)
    spec = SynthSpec(**spec_args)
    _, bags = generate_dataset(spec, bags_per_class)
    return spec, bags


def quick_config(seed=9, s1_epochs=4, s2_epochs=4) -> TrainConfig:
    config = TrainConfig(seed=seed)
    config.stage1.epochs = s1_epochs
    config.stage2.epochs = s2_epochs
    config.diffusion.timesteps = 20
    config.diffusion.beta_min = 0.01
    return config


def params_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in collect_params(model):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


# -- schedule ----------------------------------------------------------------


def test_cosine_lr_values():
    assert cosine_lr(0, 100, 1e-3) == pytest.approx(1e-3)
    assert cosine_lr(100, 100, 1e-3) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(50, 100, 1e-3) == pytest.approx(5e-4)


def test_cosine_lr_rejects_bad_steps():
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 1e-3)
    with pytest.raises(ConfigError):
        cosine_lr(11, 10, 1e-3)


def test_logged_lr_matches_closed_form():
    _, bags = small_setup()
    config = quick_config(s1_epochs=5)
    _, log = train_stage1(bags, config)
    for row in log:
        assert row["lr"] == pytest.approx(
            cosine_lr(row["epoch"], config.stage1.epochs, config.stage1.lr0))


# -- optimizers ---------------------------------------------------------------


def test_adam_converges_on_quadratic():
    x = ad.parameter(np.array([5.0, -3.0]))
    opt = Adam([x], lr=0.1)
    for _ in range(200):
        x.grad = None
        loss = (x * x).sum()
        loss.backward()
        opt.step()
    assert np.abs(x.data).max() < 1e-2


def test_radam_converges_on_quadratic():
    x = ad.parameter(np.array([5.0, -3.0]))
    opt = RAdam([x], lr=0.1)
    for _ in range(400):
        x.grad = None
        loss = (x * x).sum()
        loss.backward()
        opt.step()
    assert np.abs(x.data).max() < 1e-2


def test_radam_early_steps_are_unrectified():
    # for the first few steps the variance term is not rectifiable and the
    # update is plain bias-corrected momentum times lr
    x = ad.parameter(np.array([1.0]))
    opt = RAdam([x], lr=0.01)
    x.grad = np.array([2.0])
    opt.step()
    # first step: m_hat = g, update = lr * g
    assert x.data[0] == pytest.approx(1.0 - 0.01 * 2.0)


@pytest.mark.parametrize("cls", [Adam, RAdam])
def test_optimizer_step_matches_closed_form(cls):
    # eight steps cover RAdam's unrectified (t <= 4) and rectified updates
    rng = np.random.default_rng(4)
    x = ad.parameter(rng.standard_normal(5), dtype=np.float32)
    opt = cls([x], lr=0.01, weight_decay=0.1)
    ref = x.data.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    b1, b2 = 0.9, 0.999
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    for t in range(1, 9):
        g = rng.standard_normal(5).astype(np.float32)
        x.grad = g
        opt.step()
        g = g + 0.1 * ref
        m = m * b1 + (1 - b1) * g
        v = v * b2 + (1 - b2) * (g * g)
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        rho_t = rho_inf - 2.0 * t * b2 ** t / c2
        if cls is RAdam and rho_t <= 4.0:
            ref = ref - (0.01 / c1) * m
        else:
            lr = 0.01
            if cls is RAdam:
                lr *= math.sqrt(((rho_t - 4) * (rho_t - 2) * rho_inf)
                                / ((rho_inf - 4) * (rho_inf - 2) * rho_t))
            ref = ref - (lr / c1) * m / (np.sqrt(v / c2) + 1e-8)
        assert np.array_equal(x.data, ref), t


def test_weight_decay_pulls_toward_zero():
    x = ad.parameter(np.array([1.0]))
    opt = Adam([x], lr=0.01, weight_decay=0.5)
    for _ in range(50):
        x.grad = np.zeros(1)
        opt.step()
    assert abs(x.data[0]) < 1.0


# -- timestep draws -----------------------------------------------------------


def test_timesteps_uniform_chi_square():
    rng = np.random.default_rng(0)
    timesteps = 20
    draws = np.array([draw_timestep(rng, timesteps) for _ in range(100_000)])
    assert draws.min() >= 1 and draws.max() <= timesteps
    counts = np.bincount(draws, minlength=timesteps + 1)[1:]
    expected = len(draws) / timesteps
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi-square with 19 dof: 1% critical value
    from scipy import stats
    assert chi2 <= stats.chi2.ppf(0.99, timesteps - 1)


# -- stage 1 -------------------------------------------------------------------


def test_stage1_determinism_identical_seeds():
    _, bags = small_setup()
    config = quick_config(seed=21)
    model_a, log_a = train_stage1(bags, config)
    model_b, log_b = train_stage1(bags, config)
    assert abs(log_a[-1]["loss"] - log_b[-1]["loss"]) <= 1e-6
    assert params_digest(model_a) == params_digest(model_b)


def test_stage1_different_seed_diverges():
    _, bags = small_setup()
    model_a, _ = train_stage1(bags, quick_config(seed=21))
    model_b, _ = train_stage1(bags, quick_config(seed=22))
    assert params_digest(model_a) != params_digest(model_b)


def test_stage1_loss_trend_downward():
    _, bags = small_setup(bags_per_class=8)
    config = quick_config(s1_epochs=12)
    _, log = train_stage1(bags, config)
    first = np.mean([row["loss"] for row in log[:3]])
    last = np.mean([row["loss"] for row in log[-3:]])
    assert last <= first


def test_stage1_reaches_high_prior_accuracy_on_separable_data():
    # wide separation (10x noise): held-out prior accuracy over 0.95
    spec, train_bags = small_setup(bags_per_class=25, cluster_separation=10.0,
                                   embedding_dim=32, seed=6)
    _, eval_bags = generate_dataset(spec, 10, seed_offset=10**6, id_prefix="ev")
    config = TrainConfig(seed=17)
    config.stage1.epochs = 50
    config.stage1.lr0 = 3e-4
    model, log = train_stage1(train_bags, config, eval_bags=eval_bags)
    assert log[-1]["acc"] >= 0.95
    assert prior_accuracy(model, eval_bags, config.ratios) == log[-1]["acc"]


def test_stage1_rejects_empty_dataset():
    with pytest.raises(ConfigError):
        train_stage1([], quick_config())


def test_stage1_inside_no_grad_raises_instead_of_not_training():
    _, bags = small_setup()
    with ad.no_grad():
        with pytest.raises(RuntimeError, match="no parameter a gradient"):
            train_stage1(bags, quick_config())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stage1_diverges_with_absurd_lr():
    _, bags = small_setup()
    config = quick_config(seed=5, s1_epochs=30)
    config.stage1.lr0 = 1e9
    config.grad_clip = 0.0  # disable the safety clip to let it blow up
    with pytest.raises(TrainingDiverged) as info:
        train_stage1(bags, config)
    assert math.isfinite(info.value.lr)
    assert info.value.stage == "stage1"


# -- stage 2 --------------------------------------------------------------------


def test_stage2_freezes_stage1_parameters():
    _, bags = small_setup()
    config = quick_config()
    model, _ = train_stage1(bags, config)
    digest_before = params_digest(model)
    train_stage2(bags, model, config)
    assert params_digest(model) == digest_before


def test_stage2_determinism():
    _, bags = small_setup()
    config = quick_config(seed=31)
    model, _ = train_stage1(bags, config)
    den_a, log_a = train_stage2(bags, model, config)
    den_b, log_b = train_stage2(bags, model, config)
    assert abs(log_a[-1]["loss"] - log_b[-1]["loss"]) <= 1e-6
    assert params_digest(den_a) == params_digest(den_b)


def test_stage2_overfits_single_bag_and_recovers_label():
    # one-bag smoke test: the noise of a single bag is a deterministic
    # function of (state, timestep), so the denoiser can drive the loss to
    # ~0 and reverse sampling recovers the label on at least 99/100 chains.
    # The per-step loss is a single-draw estimate, so "final loss" is the
    # mean over the last 200 steps.
    spec, bags = small_setup(bags_per_class=1, seed=8)
    bag = [b for b in bags if b.label == 1][0]
    config = quick_config(seed=41, s2_epochs=20_000)
    config.stage1.epochs = 12
    config.stage2.lr0 = 5e-4
    config.diffusion.timesteps = 5
    config.diffusion.beta_min = 0.1
    config.model.denoiser_hidden = 256
    model, _ = train_stage1(bags, config)
    denoiser, log = train_stage2([bag], model, config)
    final_loss = np.mean([row["loss"] for row in log[-200:]])
    assert final_loss <= 1e-3
    sched = default_schedule(config.diffusion.timesteps, config.diffusion.beta_min)
    with ad.no_grad():
        out = aggregate(model, bag, config.ratios)
    draws = sample(sched, denoiser, out.insights, out.prior, n_samples=100, seed=3)
    hits = (draws.argmax(axis=1) == bag.label).mean()
    assert hits >= 0.99
