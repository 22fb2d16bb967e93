"""Conditional diffusion classifier over class vectors.

The forward process noises a one-hot label toward a Gaussian centred on
the aggregator's prior prediction rather than on zero: at step t the
marginal is

    state_t ~ Normal(sqrt(abar_t) * label + (1 - sqrt(abar_t)) * prior,
                     (1 - abar_t) * I),

so the endpoint of the forward process is (prior, I).  Reversal uses the
exact Gaussian posterior of that system: each step is the affine
combination

    state_{t-1} = g0 * label_estimate + g1 * state_t + g2 * prior + g3 * z

whose coefficients satisfy g0 + g1 + g2 = 1 for every t and reduce to the
standard DDPM posterior when the prior is the zero vector.  A small MLP
conditioned on the fused expert insights, the prior, and a sinusoidal
timestep embedding predicts the injected noise; inverting the forward
formula with that estimate gives the label estimate used by the step.

All schedule quantities are computed in float64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import ConfigError, DomainError
from .nn import DEFAULT_DTYPE, Linear, sinusoidal_time_embedding

logger = logging.getLogger(__name__)

ENDPOINT_ABAR_MAX = 1e-4  # so that 1 - sqrt(abar_T) >= 0.99


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise variances and their cumulative products.

    ``alpha_bar`` has length T + 1 with ``alpha_bar[0] = 1`` by convention,
    so ``alpha_bar[t]`` is the cumulative product through step t.
    """

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    @property
    def timesteps(self) -> int:
        return len(self.beta)

    def check_step(self, t: int) -> None:
        if not 1 <= t <= self.timesteps:
            raise DomainError(f"step {t} outside [1, {self.timesteps}]")


@dataclass(frozen=True)
class PosteriorCoeffs:
    """Affine weights of one reverse step plus the posterior noise scale."""

    gamma0: float
    gamma1: float
    gamma2: float
    gamma3: float
    beta_hat: float


def make_schedule(timesteps: int, beta_min: float, beta_max: float) -> NoiseSchedule:
    """Linear variance schedule from beta_min to beta_max over T steps.

    Raises a ConfigError when the endpoint condition fails, i.e. when the
    cumulative product at T is not small enough for the forward process to
    actually reach its prior-centred endpoint.
    """
    if timesteps < 1:
        raise ConfigError("timesteps must be >= 1")
    if not 0.0 < beta_min <= beta_max < 1.0:
        raise ConfigError(f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    beta = np.linspace(beta_min, beta_max, timesteps, dtype=np.float64)
    alpha = 1.0 - beta
    alpha_bar = np.concatenate([[1.0], np.cumprod(alpha)])
    if timesteps > 1 and alpha_bar[-1] > ENDPOINT_ABAR_MAX:
        raise ConfigError(
            f"endpoint condition violated: cumulative product {alpha_bar[-1]:.3e} > "
            f"{ENDPOINT_ABAR_MAX:.0e}; increase timesteps or beta_max")
    for arr in (beta, alpha, alpha_bar):
        arr.setflags(write=False)
    return NoiseSchedule(beta=beta, alpha=alpha, alpha_bar=alpha_bar)


def solve_beta_max(timesteps: int, beta_min: float = 1e-4,
                   target: float = ENDPOINT_ABAR_MAX) -> float:
    """Smallest beta_max for which the endpoint condition holds.

    Bisection on the final cumulative product; used to build default
    schedules where only T and beta_min are configured.
    """
    def abar_final(beta_max: float) -> float:
        beta = np.linspace(beta_min, beta_max, timesteps, dtype=np.float64)
        return float(np.exp(np.log1p(-beta).sum()))

    lo, hi = beta_min, 0.999
    if abar_final(hi) > target:
        raise ConfigError(f"{timesteps} steps cannot reach the endpoint condition")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abar_final(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def default_schedule(timesteps: int = 200, beta_min: float = 1e-4) -> NoiseSchedule:
    """Linear schedule with beta_max auto-solved for the endpoint condition."""
    if timesteps == 1:
        return make_schedule(1, 0.5, 0.5)
    return make_schedule(timesteps, beta_min, solve_beta_max(timesteps, beta_min))


def forward_sample(sched: NoiseSchedule, label_vec: np.ndarray, prior: np.ndarray,
                   t: int, eps: np.ndarray) -> np.ndarray:
    """Closed-form draw of the noised state at step t given the noise eps.

    t = 0 is allowed (cumulative product 1) and returns the label vector.
    """
    if not 0 <= t <= sched.timesteps:
        raise DomainError(f"step {t} outside [0, {sched.timesteps}]")
    abar = sched.alpha_bar[t]
    root = np.sqrt(abar)
    return root * np.asarray(label_vec) + (1.0 - root) * np.asarray(prior) \
        + np.sqrt(1.0 - abar) * np.asarray(eps)


def posterior_coefficients_between(sched: NoiseSchedule, t: int, s: int) -> PosteriorCoeffs:
    """Reverse-step coefficients from step t down to step s < t.

    With s = t - 1 this is the single-step posterior; for larger gaps the
    skipped steps collapse into one effective step with variance
    ``1 - abar_t / abar_s``, which is how strided sampling works.
    """
    sched.check_step(t)
    if not 0 <= s < t:
        raise DomainError(f"target step {s} must satisfy 0 <= s < {t}")
    abar_t = sched.alpha_bar[t]
    abar_s = sched.alpha_bar[s]
    alpha_eff = abar_t / abar_s
    beta_eff = 1.0 - alpha_eff
    denom = 1.0 - abar_t
    gamma0 = beta_eff * np.sqrt(abar_s) / denom
    gamma1 = (1.0 - abar_s) * np.sqrt(alpha_eff) / denom
    gamma2 = 1.0 + (np.sqrt(abar_t) - 1.0) * (np.sqrt(alpha_eff) + np.sqrt(abar_s)) / denom
    beta_hat = beta_eff * (1.0 - abar_s) / denom
    return PosteriorCoeffs(gamma0=float(gamma0), gamma1=float(gamma1), gamma2=float(gamma2),
                           gamma3=float(np.sqrt(beta_hat)), beta_hat=float(beta_hat))


def posterior_coefficients(sched: NoiseSchedule, t: int) -> PosteriorCoeffs:
    """Coefficients of the exact posterior for one reverse step at t."""
    return posterior_coefficients_between(sched, t, t - 1)


def reconstruct_f0(sched: NoiseSchedule, state_t: np.ndarray, eps_hat: np.ndarray,
                   prior: np.ndarray, t: int) -> np.ndarray:
    """Invert the forward formula: estimate the clean label vector.

    Exact inverse of ``forward_sample`` when given the true noise.  Near
    t = T the division by sqrt(abar_t) amplifies estimation error, which
    is logged once per call site rather than raised.
    """
    sched.check_step(t)
    abar = sched.alpha_bar[t]
    root = np.sqrt(abar)
    if root < 1e-3:
        logger.debug("reconstructing at t=%d amplifies noise by %.1e", t, 1.0 / root)
    return (np.asarray(state_t) - (1.0 - root) * np.asarray(prior)
            - np.sqrt(1.0 - abar) * np.asarray(eps_hat)) / root


def reverse_step(coeffs: PosteriorCoeffs, f0_hat: np.ndarray, state_t: np.ndarray,
                 prior: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One reverse transition: affine combination plus scaled fresh noise."""
    return (coeffs.gamma0 * np.asarray(f0_hat) + coeffs.gamma1 * np.asarray(state_t)
            + coeffs.gamma2 * np.asarray(prior) + coeffs.gamma3 * np.asarray(z))


def noise_loss(eps: np.ndarray, eps_hat) -> "Tensor | float":
    """Squared Euclidean distance between true and estimated noise."""
    if isinstance(eps_hat, Tensor):
        diff = eps_hat - np.asarray(eps)
        return (diff * diff).sum()
    a, b = np.asarray(eps), np.asarray(eps_hat)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(((a - b) ** 2).sum())


class Denoiser:
    """Noise-prediction network plus the expert-insight condition encoder.

    The condition encoder is three linear layers squeezing the
    confidence-weighted expert latent into the conditioning vector; the
    noise network is a three-layer MLP on (condition, state, prior,
    timestep embedding).  The final projection starts at zero so the
    initial noise estimate is zero.
    """

    def __init__(self, num_classes: int, dim: int, rng: np.random.Generator,
                 hidden: int = 128, time_dim: int = 64, dtype=DEFAULT_DTYPE):
        self.num_classes = num_classes
        self.dim = dim
        self.time_dim = time_dim
        self.dtype = dtype
        self.encoder = [Linear(dim, dim, rng, dtype=dtype) for _ in range(3)]
        in_dim = dim + 2 * num_classes + time_dim
        self.mlp_in = Linear(in_dim, hidden, rng, dtype=dtype)
        self.mlp_mid = Linear(hidden, hidden, rng, dtype=dtype)
        self.mlp_out = Linear(hidden, num_classes, rng, zero=True, dtype=dtype)


def condition_input(insights, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """The confidence-weighted sum of expert latents (the encoder's input).

    Empty experts carry zero latent and zero confidence, so they simply do
    not contribute.
    """
    total = None
    for ins in insights:
        term = ins.confidence * np.asarray(ins.latent, dtype=np.float64)
        total = term if total is None else total + term
    return total.astype(dtype)


def encode_condition(denoiser: Denoiser, weighted: Tensor) -> Tensor:
    h = weighted.reshape(1, -1)
    h = ad.relu(denoiser.encoder[0](h))
    h = ad.relu(denoiser.encoder[1](h))
    return denoiser.encoder[2](h)[0]


def predict_noise(denoiser: Denoiser, condition: Tensor, state_t, prior, t: int) -> Tensor:
    """Estimate the noise inside a state at step t."""
    state = state_t if isinstance(state_t, Tensor) else Tensor(np.asarray(state_t, dtype=denoiser.dtype))
    rho = prior if isinstance(prior, Tensor) else Tensor(np.asarray(prior, dtype=denoiser.dtype))
    if state.shape[-1] != denoiser.num_classes or rho.shape[-1] != denoiser.num_classes:
        raise ValueError("state/prior width does not match the class count")
    temb = Tensor(sinusoidal_time_embedding(t, denoiser.time_dim, dtype=denoiser.dtype))
    features = ad.concat([
        condition.reshape(1, -1), state.reshape(1, -1), rho.reshape(1, -1), temb.reshape(1, -1)
    ], axis=1)
    h = ad.relu(denoiser.mlp_in(features))
    h = ad.relu(denoiser.mlp_mid(h))
    return denoiser.mlp_out(h)[0]


def predict_noise_batch(denoiser: Denoiser, condition: np.ndarray, states: np.ndarray,
                        prior: np.ndarray, t: int) -> np.ndarray:
    """Plain-numpy noise prediction for a batch of states (sampling path)."""
    n = states.shape[0]
    temb = sinusoidal_time_embedding(t, denoiser.time_dim, dtype=denoiser.dtype)
    feats = np.concatenate([
        np.broadcast_to(condition, (n, denoiser.dim)),
        states.astype(denoiser.dtype),
        np.broadcast_to(np.asarray(prior, dtype=denoiser.dtype), (n, denoiser.num_classes)),
        np.broadcast_to(temb, (n, denoiser.time_dim)),
    ], axis=1)
    h = np.maximum(feats @ denoiser.mlp_in.weight.data + denoiser.mlp_in.bias.data, 0.0)
    h = np.maximum(h @ denoiser.mlp_mid.weight.data + denoiser.mlp_mid.bias.data, 0.0)
    return h @ denoiser.mlp_out.weight.data + denoiser.mlp_out.bias.data


def visited_steps(timesteps: int, stride: int) -> list[int]:
    """Descending step sequence for strided sampling; always ends at 1."""
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    steps = list(range(timesteps, 1, -stride))
    steps.append(1)
    return steps


def sample(sched: NoiseSchedule, denoiser: Denoiser, insights, prior: np.ndarray,
           stride: int = 1, n_samples: int = 100, seed: int = 0,
           use_prior: bool = True) -> np.ndarray:
    """Generate reconstructed class vectors by reverse denoising.

    Each of the ``n_samples`` chains starts from an independent draw of
    Normal(prior, I) and runs the visited steps down to zero.  Returns an
    (n_samples, num_classes) array; chains are vectorized, and a fixed
    seed makes the output bit-reproducible.

    With ``use_prior=False`` the prior is replaced by the zero vector
    everywhere (ablation control).
    """
    rng = np.random.default_rng(seed)
    rho = np.asarray(prior, dtype=np.float64)
    if not use_prior:
        rho = np.zeros_like(rho)
    k = rho.shape[0]
    with ad.no_grad():
        cond = encode_condition(denoiser, Tensor(condition_input(insights, dtype=denoiser.dtype))).numpy()
    states = rho + rng.standard_normal((n_samples, k))
    steps = visited_steps(sched.timesteps, stride)
    for i, t in enumerate(steps):
        target = steps[i + 1] if i + 1 < len(steps) else 0
        coeffs = posterior_coefficients_between(sched, t, target)
        eps_hat = predict_noise_batch(denoiser, cond, states, rho, t).astype(np.float64)
        f0_hat = reconstruct_f0(sched, states, eps_hat, rho, t)
        z = rng.standard_normal((n_samples, k)) if coeffs.gamma3 > 0 else np.zeros((n_samples, k))
        states = reverse_step(coeffs, f0_hat, states, rho, z)
    return states
