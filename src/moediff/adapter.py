"""Instance-feature adapter: global mixing across the instances of a bag.

Two exact multi-head self-attention encoder blocks around a depthwise
local-mixing block map an (n, dim) instance matrix to an (n, dim) matrix
in which every output row can depend on every input row.  Attention runs
block-wise in bounded memory (``autodiff.attention``), so a bag of
thousands of instances trains in memory linear in its size.  All residual
branches start at zero, so a freshly initialized adapter is the identity;
training moves it away from that point without an unstable warm-up.

A second entry point prepends a class-token row and returns its
transformed value, which is how the prior-prediction head summarizes a
sparse bag.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import DEFAULT_DTYPE, EncoderBlock, LocalMixer


class Adapter:
    """(n, dim) -> (n, dim) set encoder; identity at initialization."""

    def __init__(self, dim: int, rng: np.random.Generator, heads: int = 4,
                 ff_multiple: int = 2, dtype=DEFAULT_DTYPE):
        self.dim = dim
        self.block_in = EncoderBlock(dim, heads, ff_multiple * dim, rng, dtype=dtype)
        self.mixer = LocalMixer(dim, dtype=dtype)
        self.block_out = EncoderBlock(dim, heads, ff_multiple * dim, rng, dtype=dtype)

    def __call__(self, x: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        x = self.block_in(x, key_mask=key_mask)
        x = self.mixer(x)
        return self.block_out(x, key_mask=key_mask)


def adapt(adapter: Adapter, instances, key_mask: np.ndarray | None = None) -> Tensor:
    """Transform a bag's instance matrix, preserving its shape.

    ``key_mask`` hides the marked rows from cross-instance attention
    (training-time regularization); evaluation always passes None.
    """
    x = instances if isinstance(instances, Tensor) else Tensor(np.asarray(instances))
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a non-empty (n, dim) matrix, got shape {x.shape}")
    if x.shape[1] != adapter.dim:
        raise ValueError(f"feature width {x.shape[1]} does not match adapter width {adapter.dim}")
    return adapter(x, key_mask=key_mask)


def adapt_with_class_token(adapter: Adapter, sparse_instances, class_embedding) -> Tensor:
    """Run the adapter on [class token; instances] and return the token row.

    ``sparse_instances`` may have zero rows, in which case the token is
    transformed alone.
    """
    token = class_embedding if isinstance(class_embedding, Tensor) else Tensor(np.asarray(class_embedding))
    token2d = token.reshape(1, adapter.dim)
    rows = sparse_instances if isinstance(sparse_instances, Tensor) else Tensor(np.asarray(sparse_instances))
    if rows.shape[0] > 0:
        if rows.shape[1] != adapter.dim:
            raise ValueError(f"feature width {rows.shape[1]} does not match adapter width {adapter.dim}")
        seq = ad.concat([token2d, rows], axis=0)
    else:
        seq = token2d
    out = adapter(seq)
    return out[0]
