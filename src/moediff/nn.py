"""Neural building blocks used by the aggregator and the denoiser.

Everything is built on :mod:`moediff.autodiff` tensors.  Modules are plain
classes holding parameter tensors; ``autodiff.collect_params`` discovers
them by attribute walk, which is what the optimizers and the checkpoint
format rely on.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, parameter

DEFAULT_DTYPE = np.float32


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 scale: float | None = None, zero: bool = False, dtype=DEFAULT_DTYPE):
        if zero:
            w = np.zeros((in_dim, out_dim))
        else:
            s = scale if scale is not None else 1.0 / np.sqrt(in_dim)
            w = rng.normal(0.0, s, size=(in_dim, out_dim))
        self.weight = parameter(w, dtype=dtype)
        self.bias = parameter(np.zeros(out_dim), dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class LayerNorm:
    def __init__(self, dim: int, dtype=DEFAULT_DTYPE):
        self.gain = parameter(np.ones(dim), dtype=dtype)
        self.bias = parameter(np.zeros(dim), dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class MultiHeadSelfAttention:
    """Exact multi-head self-attention over a set of row vectors.

    One path for training and inference: ``autodiff.attention`` runs it
    block-wise, in memory linear in the number of rows.  The output
    projection starts at zero so that a residual block built on this
    layer is the identity at initialization.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        if dim % heads != 0:
            raise ValueError(f"feature width {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.query = Linear(dim, dim, rng, dtype=dtype)
        self.key = Linear(dim, dim, rng, dtype=dtype)
        self.value = Linear(dim, dim, rng, dtype=dtype)
        self.out = Linear(dim, dim, rng, zero=True, dtype=dtype)

    def __call__(self, x: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        """key_mask marks rows to hide from attention (their own content
        still flows through the residual path); used for training-time
        key dropout, never during evaluation."""
        if key_mask is not None and (key_mask.all() or not key_mask.any()):
            # Hiding every key leaves nothing to attend to (all logits -inf).
            key_mask = None
        mixed = ad.attention(self.query(x), self.key(x), self.value(x), self.heads, key_mask)
        return self.out(mixed)


class FeedForward:
    """Two-layer MLP sublayer; second projection starts at zero."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        self.up = Linear(dim, hidden, rng, dtype=dtype)
        self.down = Linear(hidden, dim, rng, zero=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(ad.gelu(self.up(x)))


class EncoderBlock:
    """Pre-norm transformer encoder block (attention + feed-forward),
    identity at initialization by zero-initialized residual projections."""

    def __init__(self, dim: int, heads: int, ff_hidden: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        self.norm_attn = LayerNorm(dim, dtype=dtype)
        self.attn = MultiHeadSelfAttention(dim, heads, rng, dtype=dtype)
        self.norm_ff = LayerNorm(dim, dtype=dtype)
        self.ff = FeedForward(dim, ff_hidden, rng, dtype=dtype)

    def __call__(self, x: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        x = x + self.attn(self.norm_attn(x), key_mask=key_mask)
        return x + self.ff(self.norm_ff(x))


class LocalMixer:
    """Depthwise local mixing of width 3 along the row sequence.

    Stand-in for a positional/convolutional block: each output row blends a
    row with its immediate neighbours using per-channel weights.  Sequence
    ends are zero-padded.  The kernel starts at zero, so the residual form
    is the identity at initialization.
    """

    def __init__(self, dim: int, dtype=DEFAULT_DTYPE):
        self.kernel = parameter(np.zeros((3, dim)), dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        zero_row = Tensor(np.zeros((1, x.shape[1]), dtype=x.dtype))
        prev = ad.concat([zero_row, x[: n - 1]], axis=0) if n > 1 else zero_row
        nxt = ad.concat([x[1:], zero_row], axis=0) if n > 1 else zero_row
        mixed = prev * self.kernel[0] + x * self.kernel[1] + nxt * self.kernel[2]
        return x + mixed


def sinusoidal_time_embedding(t: int, dim: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Fixed sine/cosine encoding of an integer timestep."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = t * freqs
    emb = np.concatenate([np.sin(angles), np.cos(angles)])
    if dim % 2:
        emb = np.concatenate([emb, np.zeros(1)])
    return emb.astype(dtype)
