"""Diffusion math: schedules, forward/backward identities, posterior
coefficients against a completion-of-squares oracle, Monte-Carlo moment
checks, sampling, and denoiser gradients."""

import numpy as np
import pytest

from moediff import autodiff as ad
from moediff.autodiff import Tensor, collect_params
from moediff.core import ConfigError, DomainError
from moediff.diffusion import (Denoiser, NoiseSchedule, condition_input, default_schedule,
                               encode_condition, forward_sample,
                               make_schedule, noise_loss, posterior_coefficients,
                               posterior_coefficients_between, predict_noise,
                               predict_noise_batch, reconstruct_f0, reverse_step, sample,
                               solve_beta_max, visited_steps)
from moediff.moe import ExpertInsight

from gradcheck import check_grads

STEEP = dict(timesteps=10, beta_min=0.3, beta_max=0.9)  # abar_10 = 2.33e-5, valid


def steep_schedule() -> NoiseSchedule:
    return make_schedule(**STEEP)


# -- gaussian-posterior oracle -------------------------------------------------


def posterior_oracle(sched: NoiseSchedule, t: int, s: int, f0, rho, state_t):
    """Completion of squares on the explicit Gaussian system.

    Likelihood: state_t | state_s ~ N(sqrt(a_eff) state_s + (1-sqrt(a_eff)) rho, b_eff I)
    Prior:      state_s ~ N(sqrt(abar_s) f0 + (1-sqrt(abar_s)) rho, (1-abar_s) I)
    Returns the conditional mean and variance of state_s given state_t.
    """
    abar_t, abar_s = sched.alpha_bar[t], sched.alpha_bar[s]
    a_eff = abar_t / abar_s
    b_eff = 1.0 - a_eff
    prior_mean = np.sqrt(abar_s) * f0 + (1.0 - np.sqrt(abar_s)) * rho
    prior_var = 1.0 - abar_s
    if prior_var == 0.0:
        return prior_mean, 0.0
    precision = a_eff / b_eff + 1.0 / prior_var
    var = 1.0 / precision
    mean = var * (np.sqrt(a_eff) * (state_t - (1.0 - np.sqrt(a_eff)) * rho) / b_eff
                  + prior_mean / prior_var)
    return mean, var


# -- schedules -------------------------------------------------------------------


def test_schedule_fields_and_monotonicity():
    sched = steep_schedule()
    assert sched.timesteps == 10
    assert np.all(sched.beta > 0) and np.all(sched.beta < 1)
    assert np.all(np.diff(sched.beta) >= 0)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert sched.alpha_bar[0] == 1.0
    assert sched.alpha_bar[-1] == pytest.approx(2.328458e-05, rel=1e-5)


def test_schedule_endpoint_violation_is_config_error():
    # direct-product oracle: abar_200 = 6.122e-3 for (1e-4, 0.05), which
    # leaves 1 - sqrt(abar) = 0.9218 < 0.99
    with pytest.raises(ConfigError, match="endpoint"):
        make_schedule(200, 1e-4, 0.05)
    sched = make_schedule(200, 1e-4, 0.09)  # abar_200 = 9.198e-5: fine
    assert sched.alpha_bar[-1] == pytest.approx(9.198307e-05, rel=1e-5)


def test_single_step_schedule_is_exempt():
    sched = make_schedule(1, 0.5, 0.5)
    assert sched.alpha_bar[1] == pytest.approx(0.5)


def test_schedule_rejects_bad_beta():
    with pytest.raises(ConfigError):
        make_schedule(10, 1e-4, 1.0)
    with pytest.raises(ConfigError):
        make_schedule(10, 0.2, 0.1)
    with pytest.raises(ConfigError):
        make_schedule(0, 0.1, 0.2)


def test_default_schedule_auto_solves_endpoint():
    sched = default_schedule(200)
    assert sched.alpha_bar[-1] <= 1.0001e-4
    assert 1.0 - np.sqrt(sched.alpha_bar[-1]) >= 0.99
    assert solve_beta_max(200) == pytest.approx(0.0892148, rel=1e-4)


# -- forward process -------------------------------------------------------------


def test_forward_at_step_zero_returns_label():
    sched = steep_schedule()
    f0 = np.array([1.0, 0.0, 0.0])
    rho = np.array([0.2, 0.5, 0.3])
    assert np.allclose(forward_sample(sched, f0, rho, 0, np.zeros(3)), f0)


def test_forward_rejects_out_of_range_step():
    sched = steep_schedule()
    with pytest.raises(DomainError):
        forward_sample(sched, np.zeros(3), np.zeros(3), 11, np.zeros(3))


def test_forward_endpoint_is_prior_centred_unit_noise():
    # at t = T the marginal is within 1% of Normal(prior, I)
    sched = steep_schedule()
    rng = np.random.default_rng(0)
    f0 = np.array([0.0, 1.0, 0.0])
    rho = np.array([0.1, 0.7, 0.2])
    draws = np.array([forward_sample(sched, f0, rho, 10, rng.standard_normal(3))
                      for _ in range(20_000)])
    assert np.allclose(draws.mean(axis=0), rho, atol=0.03)
    assert np.allclose(draws.var(axis=0), 1.0, atol=0.03)


def test_kernel_composition_matches_marginal_monte_carlo():
    # compose the one-step kernel t times; the result must match the
    # closed-form marginal in mean and variance within 3 standard errors
    sched = steep_schedule()
    t = 6
    n = 100_000
    rng = np.random.default_rng(101)
    f0 = np.array([1.0, 0.0, 0.0])
    rho = np.array([0.2, 0.3, 0.5])
    states = np.tile(f0, (n, 1))
    for k in range(1, t + 1):
        root = np.sqrt(sched.alpha[k - 1])
        states = root * states + (1 - root) * rho \
            + np.sqrt(sched.beta[k - 1]) * rng.standard_normal((n, 3))
    abar = sched.alpha_bar[t]
    expected_mean = np.sqrt(abar) * f0 + (1 - np.sqrt(abar)) * rho
    expected_var = 1 - abar
    se_mean = np.sqrt(expected_var / n)
    se_var = expected_var * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(states.mean(axis=0) - expected_mean) <= 3 * se_mean)
    assert np.all(np.abs(states.var(axis=0) - expected_var) <= 3 * se_var)


# -- posterior coefficients -------------------------------------------------------


def test_boundary_step_collapses_to_estimate():
    sched = steep_schedule()
    c = posterior_coefficients(sched, 1)
    assert c.gamma0 == pytest.approx(1.0, abs=1e-12)
    assert c.gamma1 == pytest.approx(0.0, abs=1e-12)
    assert c.gamma2 == pytest.approx(0.0, abs=1e-12)
    assert c.beta_hat == pytest.approx(0.0, abs=1e-12)
    assert c.gamma3 == 0.0


def test_affine_identity_all_steps():
    sched = default_schedule(200)
    for t in range(1, 201):
        c = posterior_coefficients(sched, t)
        assert abs(c.gamma0 + c.gamma1 + c.gamma2 - 1.0) <= 1e-10


def test_zero_prior_reduces_to_standard_ddpm_posterior():
    # with the prior at zero, gamma0/gamma1 are exactly the textbook DDPM
    # posterior mean coefficients for every t
    sched = default_schedule(200)
    for t in range(1, 201):
        c = posterior_coefficients(sched, t)
        abar_t, abar_p = sched.alpha_bar[t], sched.alpha_bar[t - 1]
        beta_t = sched.beta[t - 1]
        alpha_t = sched.alpha[t - 1]
        ddpm_g0 = beta_t * np.sqrt(abar_p) / (1 - abar_t)
        ddpm_g1 = (1 - abar_p) * np.sqrt(alpha_t) / (1 - abar_t)
        ddpm_var = beta_t * (1 - abar_p) / (1 - abar_t)
        assert c.gamma0 == pytest.approx(ddpm_g0, rel=1e-12)
        assert c.gamma1 == pytest.approx(ddpm_g1, rel=1e-12)
        assert c.beta_hat == pytest.approx(ddpm_var, rel=1e-12, abs=1e-15)


def test_coefficients_match_completion_of_squares_oracle():
    sched = default_schedule(200)
    rng = np.random.default_rng(2)
    for trial in range(100):
        t = int(rng.integers(1, 201))
        f0 = rng.standard_normal(3)
        rho = rng.standard_normal(3)
        state_t = rng.standard_normal(3)
        c = posterior_coefficients(sched, t)
        mean = c.gamma0 * f0 + c.gamma1 * state_t + c.gamma2 * rho
        oracle_mean, oracle_var = posterior_oracle(sched, t, t - 1, f0, rho, state_t)
        assert np.allclose(mean, oracle_mean, atol=1e-10)
        assert c.beta_hat == pytest.approx(oracle_var, abs=1e-10)


def test_strided_coefficients_match_oracle_between_endpoints():
    sched = default_schedule(200)
    rng = np.random.default_rng(3)
    for t, s in [(200, 190), (57, 42), (10, 0), (2, 0), (199, 1)]:
        f0 = rng.standard_normal(3)
        rho = rng.standard_normal(3)
        state_t = rng.standard_normal(3)
        c = posterior_coefficients_between(sched, t, s)
        assert abs(c.gamma0 + c.gamma1 + c.gamma2 - 1.0) <= 1e-10
        mean = c.gamma0 * f0 + c.gamma1 * state_t + c.gamma2 * rho
        oracle_mean, oracle_var = posterior_oracle(sched, t, s, f0, rho, state_t)
        assert np.allclose(mean, oracle_mean, atol=1e-10)
        assert c.beta_hat == pytest.approx(oracle_var, abs=1e-10)


# -- reconstruction ---------------------------------------------------------------


def test_reconstruct_inverts_forward_exactly():
    sched = steep_schedule()
    rng = np.random.default_rng(4)
    for t in range(1, 11):
        f0 = rng.standard_normal(3)
        rho = rng.standard_normal(3)
        eps = rng.standard_normal(3)
        state = forward_sample(sched, f0, rho, t, eps)
        back = reconstruct_f0(sched, state, eps, rho, t)
        assert np.allclose(back, f0, atol=1e-5)


def test_reconstruct_fixed_point():
    sched = steep_schedule()
    f0 = np.array([0.0, 1.0, 0.0])
    for t in (1, 5, 10):
        state = forward_sample(sched, f0, f0, t, np.zeros(3))
        assert np.allclose(reconstruct_f0(sched, state, np.zeros(3), f0, t), f0, atol=1e-12)


def test_reconstruct_matches_symbolic_inversion():
    sched = steep_schedule()
    rng = np.random.default_rng(5)
    for trial in range(50):
        t = int(rng.integers(1, 11))
        state = rng.standard_normal(3)
        eps_hat = rng.standard_normal(3)
        rho = rng.standard_normal(3)
        abar = sched.alpha_bar[t]
        symbolic = (state - (1 - np.sqrt(abar)) * rho
                    - np.sqrt(1 - abar) * eps_hat) / np.sqrt(abar)
        assert np.allclose(reconstruct_f0(sched, state, eps_hat, rho, t), symbolic,
                           atol=1e-12)


# -- reverse step -----------------------------------------------------------------


def test_reverse_step_at_boundary_returns_estimate():
    sched = steep_schedule()
    c = posterior_coefficients(sched, 1)
    f0_hat = np.array([0.9, 0.05, 0.05])
    out = reverse_step(c, f0_hat, np.ones(3), np.zeros(3), np.ones(3))
    assert np.array_equal(out, c.gamma0 * f0_hat)
    assert np.allclose(out, f0_hat, atol=1e-12)


def test_reverse_step_affine_identity_on_equal_inputs():
    sched = steep_schedule()
    v = np.array([0.3, -0.2, 0.8])
    z = np.array([1.0, -1.0, 0.5])
    for t in (2, 5, 10):
        c = posterior_coefficients(sched, t)
        out = reverse_step(c, v, v, v, z)
        assert np.allclose(out, v + c.gamma3 * z, atol=1e-12)


def test_reverse_step_moments_match_posterior():
    sched = steep_schedule()
    t = 5
    rng = np.random.default_rng(6)
    f0 = np.array([1.0, 0.0, 0.0])
    rho = np.array([0.2, 0.3, 0.5])
    state_t = np.array([0.4, -0.1, 0.6])
    c = posterior_coefficients(sched, t)
    n = 100_000
    z = rng.standard_normal((n, 3))
    draws = reverse_step(c, f0, state_t, rho, z)
    expected_mean, expected_var = posterior_oracle(sched, t, t - 1, f0, rho, state_t)
    se_mean = np.sqrt(expected_var / n)
    se_var = expected_var * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(draws.mean(axis=0) - expected_mean) <= 3 * se_mean)
    assert np.all(np.abs(draws.var(axis=0) - expected_var) <= 3 * se_var)


def test_reverse_marginal_consistency_monte_carlo():
    # law of total probability: pushing marginal(t) draws through the
    # posterior (with the true clean vector) recovers marginal(t-1)
    sched = steep_schedule()
    t = 7
    n = 100_000
    rng = np.random.default_rng(7)
    f0 = np.array([0.0, 1.0, 0.0])
    rho = np.array([0.5, 0.2, 0.3])
    eps = rng.standard_normal((n, 3))
    states_t = forward_sample(sched, f0, rho, t, eps)
    c = posterior_coefficients(sched, t)
    z = rng.standard_normal((n, 3))
    states_prev = reverse_step(c, f0, states_t, rho, z)
    abar_p = sched.alpha_bar[t - 1]
    expected_mean = np.sqrt(abar_p) * f0 + (1 - np.sqrt(abar_p)) * rho
    expected_var = 1 - abar_p
    se_mean = np.sqrt(expected_var / n)
    se_var = expected_var * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(states_prev.mean(axis=0) - expected_mean) <= 3 * se_mean)
    assert np.all(np.abs(states_prev.var(axis=0) - expected_var) <= 3 * se_var)


# -- conditioning and the denoiser -------------------------------------------------


def insights_from(latents, confidences):
    return [ExpertInsight(latent=np.asarray(l, dtype=np.float64), confidence=float(c),
                          expert_index=i, prediction=np.zeros(3))
            for i, (l, c) in enumerate(zip(latents, confidences))]


def make_denoiser(num_classes=3, dim=8, seed=0, dtype=np.float64, hidden=16, time_dim=8):
    return Denoiser(num_classes, dim, np.random.default_rng(seed), hidden=hidden,
                    time_dim=time_dim, dtype=dtype)


def fused_condition(insights, den):
    return encode_condition(den, Tensor(condition_input(insights, dtype=den.dtype)))


def test_encoded_condition_selects_single_expert():
    den = make_denoiser()
    rng = np.random.default_rng(8)
    e0, e1 = rng.standard_normal(8), rng.standard_normal(8)
    fused = fused_condition(insights_from([e0, e1], [1.0, 0.0]), den)
    direct = encode_condition(den, Tensor(e0))
    assert np.allclose(fused.numpy(), direct.numpy(), atol=1e-12)


def test_encoded_condition_all_zero_confidence():
    den = make_denoiser()
    rng = np.random.default_rng(9)
    latents = [rng.standard_normal(8) for _ in range(3)]
    fused = fused_condition(insights_from(latents, [0.0, 0.0, 0.0]), den)
    direct = encode_condition(den, Tensor(np.zeros(8)))
    assert np.allclose(fused.numpy(), direct.numpy(), atol=1e-12)


def test_condition_input_matches_weighted_sum_oracle():
    rng = np.random.default_rng(10)
    latents = [rng.standard_normal(8) for _ in range(4)]
    confs = rng.uniform(0, 1, 4)
    got = condition_input(insights_from(latents, confs), dtype=np.float64)
    oracle = sum(c * l for c, l in zip(confs, latents))
    assert np.allclose(got, oracle, atol=1e-6)


@pytest.mark.parametrize("num_classes", [2, 3, 6])
def test_predict_noise_output_width(num_classes):
    den = make_denoiser(num_classes=num_classes)
    cond = encode_condition(den, Tensor(np.zeros(8)))
    out = predict_noise(den, cond, np.zeros(num_classes), np.zeros(num_classes), 3)
    assert out.shape == (num_classes,)
    assert np.isfinite(out.numpy()).all()


def test_predict_noise_zero_final_layer_gives_zero():
    den = make_denoiser()
    cond = encode_condition(den, Tensor(np.random.default_rng(11).standard_normal(8)))
    out = predict_noise(den, cond, np.ones(3), np.ones(3), 5)
    assert np.allclose(out.numpy(), 0.0)


def test_predict_noise_rejects_bad_width():
    den = make_denoiser()
    cond = encode_condition(den, Tensor(np.zeros(8)))
    with pytest.raises(ValueError):
        predict_noise(den, cond, np.zeros(4), np.zeros(3), 1)


def test_predict_noise_batch_matches_graph_path():
    den = make_denoiser()
    # move the zero-initialized output layer off zero
    rng = np.random.default_rng(12)
    den.mlp_out.weight.data = rng.standard_normal(den.mlp_out.weight.shape) * 0.1
    states = rng.standard_normal((5, 3))
    rho = rng.standard_normal(3)
    w = rng.standard_normal(8)
    with ad.no_grad():
        cond = encode_condition(den, Tensor(w))
        single = np.stack([
            predict_noise(den, cond, states[i], rho, 4).numpy() for i in range(5)])
    batch = predict_noise_batch(den, cond.numpy(), states, rho, 4)
    assert np.allclose(single, batch, atol=1e-10)


def test_noise_regression_gradients_match_finite_differences():
    # stage-2 loss through the denoiser MLP and the condition encoder
    den = make_denoiser(seed=13)
    rng = np.random.default_rng(14)
    den.mlp_out.weight.data = rng.standard_normal(den.mlp_out.weight.shape) * 0.1
    w = rng.standard_normal(8)
    state = rng.standard_normal(3)
    rho = rng.standard_normal(3)
    eps = rng.standard_normal(3)

    def loss():
        cond = encode_condition(den, Tensor(w))
        eps_hat = predict_noise(den, cond, state, rho, 6)
        return noise_loss(eps, eps_hat)

    check_grads(loss, collect_params(den), h=1e-6, tol=1e-3)


# -- losses and sampling -------------------------------------------------------------


def test_noise_loss_values():
    assert noise_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert noise_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 1.0
    rng = np.random.default_rng(15)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    assert noise_loss(a, b) == pytest.approx(sum((x - y) ** 2 for x, y in zip(a, b)))


def test_noise_loss_length_mismatch():
    with pytest.raises(ValueError):
        noise_loss(np.zeros(3), np.zeros(4))


def test_visited_steps():
    assert visited_steps(10, 1) == [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
    assert visited_steps(10, 3) == [10, 7, 4, 1]
    assert visited_steps(200, 10)[-1] == 1
    with pytest.raises(ConfigError):
        visited_steps(10, 0)


def test_sample_shape_and_determinism():
    sched = steep_schedule()
    den = make_denoiser(dtype=np.float32)
    insights = insights_from([np.zeros(8)] * 3, [0.3, 0.3, 0.4])
    rho = np.array([0.2, 0.5, 0.3])
    a = sample(sched, den, insights, rho, n_samples=100, seed=42)
    b = sample(sched, den, insights, rho, n_samples=100, seed=42)
    c = sample(sched, den, insights, rho, n_samples=100, seed=43)
    assert a.shape == (100, 3)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_sample_without_prior_replaces_prior_with_zero():
    sched = steep_schedule()
    den = make_denoiser(dtype=np.float32)
    insights = insights_from([np.zeros(8)] * 3, [0.0, 0.0, 0.0])
    disabled = sample(sched, den, insights, np.array([10.0, 10.0, 10.0]),
                      n_samples=20, seed=5, use_prior=False)
    zeroed = sample(sched, den, insights, np.zeros(3), n_samples=20, seed=5)
    assert disabled.tobytes() == zeroed.tobytes()
