"""Two-stage optimization.

Stage 1 trains the aggregator (adapters, routers, expert heads, prior
head, class token) with the joint expert/prior loss under RAdam.  Stage 2
freezes all of that, caches each bag's expert condition and prior, and
trains only the denoiser (condition encoder + noise MLP) on the
noise-estimation loss under Adam.

Both stages, and the pooling baselines, run the one loop in ``_fit``:
each supplies only its per-item loss.  The loop decays the learning rate
with a cosine over epochs, averages gradients over each batch, clips them
at a global norm, steps the optimizer, and stops with ``TrainingDiverged``
on a non-finite loss or gradient norm.

Determinism: all randomness (shuffling, timestep draws, noise draws)
comes from generators derived from the config seed, so identical configs
give bit-identical trajectories on one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, clip_grad_norm, collect_params, global_grad_norm, zero_grads
from .core import Bag, ConfigError, derive_seed, one_hot
from .diffusion import (Denoiser, default_schedule, encode_condition, forward_sample,
                        condition_input, noise_loss, predict_noise)
from .moe import (MoEAggregator, SamplingRatios, aggregate, aggregate_detailed, moe_loss,
                  router_supervision_loss)
from .nn import DEFAULT_DTYPE


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the last learning rate and gradient norm."""

    def __init__(self, stage: str, epoch: int, lr: float, grad_norm: float):
        super().__init__(
            f"non-finite loss in {stage} at epoch {epoch} (lr={lr:.3e}, grad_norm={grad_norm:.3e})")
        self.stage = stage
        self.epoch = epoch
        self.lr = lr
        self.grad_norm = grad_norm


@dataclass
class StageConfig:
    epochs: int
    optimizer: str
    lr0: float
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.optimizer not in ("adam", "radam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")


@dataclass
class DiffusionConfig:
    timesteps: int = 200
    beta_min: float = 1e-4
    stride: int = 1
    n_samples: int = 100
    use_prior: bool = True

    def __post_init__(self):
        if self.timesteps < 1 or self.stride < 1 or self.n_samples < 1:
            raise ConfigError("timesteps, stride and n_samples must be >= 1")
        if not 0 < self.beta_min < 1:
            raise ConfigError("beta_min must be in (0, 1)")


@dataclass
class ModelConfig:
    heads: int = 4
    ff_multiple: int = 2
    denoiser_hidden: int = 128
    time_embed_dim: int = 64


@dataclass
class TrainConfig:
    stage1: StageConfig = field(default_factory=lambda: StageConfig(
        epochs=100, optimizer="radam", lr0=2e-4, weight_decay=1e-5))
    stage2: StageConfig = field(default_factory=lambda: StageConfig(
        epochs=200, optimizer="adam", lr0=1e-3))
    batch_size: int = 1
    grad_clip: float = 5.0
    seed: int = 0
    ratios: SamplingRatios = field(default_factory=SamplingRatios)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    eval_every: int = 10
    # Stage-1 regularizers.  key_dropout hides instances from
    # cross-attention per step, forcing expert losses to depend on routed
    # instances rather than on label signal mixed into every row.
    # router_supervision weights the instance-level routing term derived
    # from the single-subtype bag assumption; 0 disables it.
    # routing_noise is the std of Gaussian exploration noise on router
    # logits (training only): boundary instances keep flipping in and out
    # of subsets, so the prior head trains against borderline routing
    # instead of only razor-sharp selections.
    key_dropout: float = 0.25
    router_supervision: float = 1.0
    routing_noise: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.key_dropout < 1.0:
            raise ConfigError("key_dropout must be in [0, 1)")
        if self.router_supervision < 0.0:
            raise ConfigError("router_supervision must be >= 0")
        if self.routing_noise < 0.0:
            raise ConfigError("routing_noise must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Cosine decay from lr0 at step 0 to 0 at step == total_steps."""
    if total_steps <= 0:
        raise ConfigError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


class Adam:
    """Adaptive-moment optimizer with the conventional defaults."""

    def __init__(self, params, lr: float, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        self._update(self.lr / c1, 1.0 - self.beta2 ** self.t)

    def _update(self, step_size: float, c2: float | None) -> None:
        """Update the moments of every parameter that has a gradient, then
        move it by ``step_size * m / (sqrt(v / c2) + eps)``, or by
        ``step_size * m`` when ``c2`` is None."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            if c2 is None:
                p.data -= step_size * m
            else:
                p.data -= step_size * m / (np.sqrt(v / c2) + self.eps)


class RAdam(Adam):
    """Rectified adaptive-moment optimizer.

    Falls back to an unadapted momentum update while the variance estimate
    is not yet rectifiable (early steps), per the original formulation.
    """

    def step(self) -> None:
        self.t += 1
        beta2_t = self.beta2 ** self.t
        c1 = 1.0 - self.beta1 ** self.t
        rho_inf = 2.0 / (1.0 - self.beta2) - 1.0
        rho_t = rho_inf - 2.0 * self.t * beta2_t / (1.0 - beta2_t)
        if rho_t > 4.0:
            rect = math.sqrt(((rho_t - 4) * (rho_t - 2) * rho_inf)
                             / ((rho_inf - 4) * (rho_inf - 2) * rho_t))
            self._update(self.lr * rect / c1, 1.0 - beta2_t)
        else:
            self._update(self.lr / c1, None)


def make_optimizer(stage: StageConfig, params) -> Adam:
    cls = RAdam if stage.optimizer == "radam" else Adam
    return cls(params, lr=stage.lr0, weight_decay=stage.weight_decay)


def prior_accuracy(model: MoEAggregator, bags: list[Bag], ratios: SamplingRatios) -> float:
    """Fraction of bags whose prior-prediction argmax matches the label."""
    hits = 0
    with ad.no_grad():
        for bag in bags:
            out = aggregate(model, bag, ratios)
            hits += int(np.argmax(out.prior) == bag.label)
    return hits / len(bags)


def draw_timestep(rng: np.random.Generator, timesteps: int) -> int:
    """Uniform draw over the integer steps [1, timesteps]."""
    return int(rng.integers(1, timesteps + 1))


def _fit(stage: str, optimizer: Adam, item_loss: Callable[[int], Tensor], n_items: int,
         epochs: int, lr0: float, batch_size: int, grad_clip: float,
         shuffle_rng: np.random.Generator) -> Iterator[dict]:
    """The training loop shared by both stages and the baselines.

    Each epoch visits the items ``0..n_items-1`` in a fresh shuffled
    order, backpropagates ``item_loss(index)`` for each, and steps the
    optimizer on the gradients averaged over every ``batch_size`` items
    (the last batch of an epoch may be shorter), clipped to a global norm
    of ``grad_clip``.  The learning rate follows ``cosine_lr`` over
    epochs.  Yields one log row per epoch, which the caller may extend
    before the next epoch starts.
    """
    params = optimizer.params
    for epoch in range(epochs):
        lr = cosine_lr(epoch, epochs, lr0)
        optimizer.lr = lr
        order = shuffle_rng.permutation(n_items)
        epoch_loss = 0.0
        pending = 0
        zero_grads(params)
        for j, index in enumerate(order):
            loss = item_loss(index)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(stage, epoch, lr, global_grad_norm(params))
            epoch_loss += value
            loss.backward()
            pending += 1
            if pending == batch_size or j == n_items - 1:
                if not any(p.grad is not None for p in params):
                    raise RuntimeError(
                        f"{stage}: backward() gave no parameter a gradient; graph recording "
                        f"is off (is training running inside autodiff.no_grad()?)")
                if pending > 1:
                    for p in params:
                        if p.grad is not None:
                            p.grad = p.grad / pending
                grad_norm = clip_grad_norm(params, grad_clip)
                if not math.isfinite(grad_norm):
                    raise TrainingDiverged(stage, epoch, lr, grad_norm)
                optimizer.step()
                zero_grads(params)
                pending = 0
        yield {"stage": stage, "epoch": epoch, "loss": epoch_loss / n_items, "lr": lr}


def train_stage1(bags: list[Bag], config: TrainConfig, eval_bags: list[Bag] | None = None,
                 model: MoEAggregator | None = None, dtype=DEFAULT_DTYPE,
                 num_classes: int | None = None) -> tuple[MoEAggregator, list[dict]]:
    """Train the aggregator; returns the model and the per-epoch log.

    Log rows carry the stage, epoch, mean per-bag loss, the learning rate
    used for that epoch, and (on evaluation epochs) held-out accuracy of
    the prior prediction's argmax.
    """
    if not bags:
        raise ConfigError("empty training set")
    if num_classes is None:
        num_classes = max(b.label for b in bags) + 1
    dim = bags[0].dim
    if any(b.dim != dim for b in bags):
        raise ConfigError("inconsistent embedding width in training set")
    if model is None:
        rng = np.random.default_rng(derive_seed(config.seed, 0x57A6E1))
        model = MoEAggregator(num_classes, dim, rng, heads=config.model.heads,
                              ff_multiple=config.model.ff_multiple, dtype=dtype)
    optimizer = make_optimizer(config.stage1, [p for _, p in collect_params(model)])
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, 0x5F1))
    dropout_rng = np.random.default_rng(derive_seed(config.seed, 0xD0))
    noise_rng = np.random.default_rng(derive_seed(config.seed, 0xA01))
    routing_noise = (noise_rng, config.routing_noise) if config.routing_noise > 0.0 else None

    def bag_loss(index: int) -> Tensor:
        bag = bags[index]
        key_mask = None
        if config.key_dropout > 0.0:
            key_mask = dropout_rng.random(bag.size) < config.key_dropout
        out, probs_list = aggregate_detailed(model, bag, config.ratios, key_mask=key_mask,
                                             routing_noise=routing_noise)
        if not np.isfinite(out.prior).all():
            return Tensor(np.array(np.nan))  # moe_loss rejects it; _fit raises TrainingDiverged
        loss = moe_loss(one_hot(bag.label, num_classes), out)
        if config.router_supervision > 0.0:
            extra = router_supervision_loss(bag.label, probs_list)
            if extra is not None:
                loss = loss + config.router_supervision * extra
        return loss

    s1 = config.stage1
    log: list[dict] = []
    for row in _fit("stage1", optimizer, bag_loss, len(bags), s1.epochs, s1.lr0,
                    config.batch_size, config.grad_clip, shuffle_rng):
        if eval_bags and (row["epoch"] % config.eval_every == config.eval_every - 1
                          or row["epoch"] == s1.epochs - 1):
            row["acc"] = prior_accuracy(model, eval_bags, config.ratios)
        log.append(row)
    return model, log


def train_stage2(bags: list[Bag], moe_model: MoEAggregator, config: TrainConfig,
                 dtype=DEFAULT_DTYPE) -> tuple[Denoiser, list[dict]]:
    """Train the denoiser against the frozen aggregator.

    The aggregator runs once per bag up front (it is frozen, so its
    outputs are constants): each bag contributes its condition input, its
    prior, and its one-hot label.  Every optimization step then draws a
    uniform timestep and fresh noise, forms the noised state in closed
    form, and regresses the predicted noise onto the true noise.
    """
    if not bags:
        raise ConfigError("empty training set")
    num_classes = moe_model.num_classes
    sched = default_schedule(config.diffusion.timesteps, config.diffusion.beta_min)
    cached = []
    with ad.no_grad():
        for bag in bags:
            out = aggregate(moe_model, bag, config.ratios)
            rho = out.prior.astype(np.float64)
            if not config.diffusion.use_prior:
                rho = np.zeros_like(rho)
            cached.append({
                "condition_input": condition_input(out.insights, dtype=dtype),
                "prior": rho,
                "label_vec": one_hot(bag.label, num_classes, dtype=np.float64),
            })
    rng = np.random.default_rng(derive_seed(config.seed, 0xD1FF))
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, 0x5F2))
    denoiser = Denoiser(num_classes, moe_model.dim,
                        np.random.default_rng(derive_seed(config.seed, 0xDE401)),
                        hidden=config.model.denoiser_hidden,
                        time_dim=config.model.time_embed_dim, dtype=dtype)
    optimizer = make_optimizer(config.stage2, [p for _, p in collect_params(denoiser)])

    def step_loss(index: int) -> Tensor:
        entry = cached[index]
        t = draw_timestep(rng, sched.timesteps)
        eps = rng.standard_normal(num_classes)
        state_t = forward_sample(sched, entry["label_vec"], entry["prior"], t, eps)
        cond = encode_condition(denoiser, Tensor(entry["condition_input"]))
        eps_hat = predict_noise(denoiser, cond, state_t.astype(dtype),
                                entry["prior"].astype(dtype), t)
        return noise_loss(eps, eps_hat)

    s2 = config.stage2
    log = list(_fit("stage2", optimizer, step_loss, len(cached), s2.epochs, s2.lr0,
                    config.batch_size, config.grad_clip, shuffle_rng))
    return denoiser, log
