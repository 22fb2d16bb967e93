"""Control aggregators: mean pooling, max pooling, gated attention pooling.

Each baseline reduces a bag to a single vector, classifies it with a
linear softmax head, and trains end to end with Adam on cross-entropy,
through the same training loop as the two stages (``training._fit``).
They exist as reference points for the synthetic benchmark, not as tuned
competitors.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, collect_params
from .core import Bag, ConfigError, derive_seed, one_hot
from .moe import cross_entropy
from .nn import DEFAULT_DTYPE, Linear
from .training import Adam, _fit


class PoolingClassifier:
    """Linear softmax head on a fixed pooling of the instance matrix."""

    def __init__(self, mode: str, num_classes: int, dim: int, rng: np.random.Generator,
                 dtype=DEFAULT_DTYPE):
        if mode not in ("mean", "max"):
            raise ConfigError(f"unknown pooling mode {mode!r}")
        self.mode = mode
        self.num_classes = num_classes
        self.dtype = dtype
        self.head = Linear(dim, num_classes, rng, scale=0.02, dtype=dtype)

    def pooled(self, bag: Bag) -> np.ndarray:
        x = bag.instances.astype(self.dtype)
        return x.mean(axis=0) if self.mode == "mean" else x.max(axis=0)

    def probabilities(self, bag: Bag) -> Tensor:
        pooled = Tensor(self.pooled(bag).reshape(1, -1))
        return ad.softmax(self.head(pooled), axis=-1)[0]

    def predict(self, bag: Bag) -> int:
        with ad.no_grad():
            return int(np.argmax(self.probabilities(bag).numpy()))


class AttentionPoolingClassifier:
    """Single-head gated attention pooling with a linear softmax head."""

    def __init__(self, num_classes: int, dim: int, rng: np.random.Generator,
                 attn_dim: int = 64, dtype=DEFAULT_DTYPE):
        self.num_classes = num_classes
        self.dtype = dtype
        self.proj = Linear(dim, attn_dim, rng, dtype=dtype)
        self.gate = Linear(dim, attn_dim, rng, dtype=dtype)
        self.score = Linear(attn_dim, 1, rng, dtype=dtype)
        self.head = Linear(dim, num_classes, rng, scale=0.02, dtype=dtype)

    def probabilities(self, bag: Bag) -> Tensor:
        x = Tensor(bag.instances.astype(self.dtype))
        gated = ad.tanh(self.proj(x)) * ad.softmax(self.gate(x), axis=-1)
        weights = ad.softmax(self.score(gated).reshape(1, -1), axis=-1)
        pooled = weights @ x
        return ad.softmax(self.head(pooled), axis=-1)[0]

    def predict(self, bag: Bag) -> int:
        with ad.no_grad():
            return int(np.argmax(self.probabilities(bag).numpy()))


def train_baseline(model, bags: list[Bag], epochs: int = 100, lr0: float = 1e-2,
                   seed: int = 0, batch_size: int = 8, grad_clip: float = 5.0) -> list[dict]:
    """Cross-entropy training shared by all baselines; returns the per-epoch log."""
    optimizer = Adam([p for _, p in collect_params(model)], lr=lr0)

    def bag_loss(index: int) -> Tensor:
        bag = bags[index]
        return cross_entropy(one_hot(bag.label, model.num_classes), model.probabilities(bag))

    return list(_fit("baseline", optimizer, bag_loss, len(bags), epochs, lr0, batch_size,
                     grad_clip, np.random.default_rng(derive_seed(seed, 0xBA5E))))


def baseline_accuracy(model, bags: list[Bag]) -> float:
    return float(np.mean([model.predict(bag) == bag.label for bag in bags]))


def fit_baseline(mode: str, train_bags: list[Bag], num_classes: int, seed: int = 0,
                 epochs: int = 100, lr0: float = 1e-2):
    """Construct and train one of the named baselines ('mean', 'max',
    'attention')."""
    dim = train_bags[0].dim
    rng = np.random.default_rng(derive_seed(seed, 0xBA5E11))
    if mode == "attention":
        model = AttentionPoolingClassifier(num_classes, dim, rng)
    else:
        model = PoolingClassifier(mode, num_classes, dim, rng)
    train_baseline(model, train_bags, epochs=epochs, lr0=lr0, seed=seed)
    return model
