import tracemalloc

import numpy as np
import pytest

from moediff import autodiff as ad
from moediff.adapter import Adapter, adapt, adapt_with_class_token
from moediff.autodiff import Tensor, collect_params, parameter
from moediff.nn import MultiHeadSelfAttention

from gradcheck import check_grads


def make_adapter(dim=8, heads=4, seed=0, dtype=np.float64, perturb=0.0) -> Adapter:
    rng = np.random.default_rng(seed)
    adapter = Adapter(dim, rng, heads=heads, dtype=dtype)
    if perturb:
        prng = np.random.default_rng(seed + 1)
        for _, p in collect_params(adapter):
            p.data = (p.data + perturb * prng.standard_normal(p.data.shape)).astype(dtype)
    return adapter


@pytest.mark.parametrize("n", [1, 7, 513])
def test_shape_preserved(n):
    adapter = make_adapter(dim=8, perturb=0.05)
    x = np.random.default_rng(n).standard_normal((n, 8))
    with ad.no_grad():
        out = adapt(adapter, x)
    assert out.shape == (n, 8)
    assert np.isfinite(out.numpy()).all()


def test_width_mismatch_raises():
    adapter = make_adapter(dim=8)
    with pytest.raises(ValueError):
        adapt(adapter, np.zeros((3, 9)))


def test_identity_at_initialization():
    # all residual branches start at zero, so a fresh adapter is the identity
    adapter = make_adapter(dim=8, seed=3)
    x = np.random.default_rng(0).standard_normal((6, 8))
    with ad.no_grad():
        out = adapt(adapter, x).numpy()
    assert np.allclose(out, x, atol=1e-12)


def test_class_token_identity_at_initialization():
    adapter = make_adapter(dim=8, seed=4)
    token = np.random.default_rng(1).standard_normal(8)
    row = np.random.default_rng(2).standard_normal((1, 8))
    with ad.no_grad():
        out = adapt_with_class_token(adapter, row, token).numpy()
    assert np.allclose(out, token, atol=1e-12)
    assert out.shape == (8,)


@pytest.mark.parametrize("m", [1, 5, 40])
def test_class_token_output_width(m):
    adapter = make_adapter(dim=8, perturb=0.05)
    rows = np.random.default_rng(m).standard_normal((m, 8))
    with ad.no_grad():
        out = adapt_with_class_token(adapter, rows, np.zeros(8))
    assert out.shape == (8,)


def test_permutation_equivariance_without_mixer():
    # pure attention is permutation-equivariant; the local mixer is the
    # only order-sensitive part, so with it disabled a permutation of the
    # input rows permutes the output rows identically.
    adapter = make_adapter(dim=8, seed=5, perturb=0.1)
    x = np.random.default_rng(8).standard_normal((9, 8))
    perm = np.random.default_rng(9).permutation(9)
    with ad.no_grad():
        base = adapter.block_out(adapter.block_in(Tensor(x))).numpy()
        permuted = adapter.block_out(adapter.block_in(Tensor(x[perm]))).numpy()
    assert np.allclose(permuted[np.argsort(perm)], base, atol=1e-5)


def test_mixer_breaks_permutation_equivariance():
    adapter = make_adapter(dim=8, seed=5, perturb=0.1)
    adapter.mixer.kernel.data = np.random.default_rng(10).standard_normal((3, 8)) * 0.3
    x = np.random.default_rng(8).standard_normal((9, 8))
    perm = np.roll(np.arange(9), 4)
    with ad.no_grad():
        base = adapt(adapter, x).numpy()
        permuted = adapt(adapter, x[perm]).numpy()
    assert not np.allclose(permuted[np.argsort(perm)], base, atol=1e-5)


def test_gradients_match_finite_differences():
    # 64-bit, 5x8 input, every adapter parameter, 1e-3 relative
    adapter = make_adapter(dim=8, seed=6, perturb=0.08)
    adapter.mixer.kernel.data = 0.05 * np.random.default_rng(11).standard_normal((3, 8))
    x = np.random.default_rng(12).standard_normal((5, 8))
    target = np.random.default_rng(13).standard_normal((5, 8))

    def loss():
        out = adapt(adapter, Tensor(x))
        diff = out - Tensor(target)
        return (diff * diff).sum()

    check_grads(loss, collect_params(adapter), h=1e-6, tol=1e-3)


def test_class_token_depends_on_instances_after_training_step():
    # finite-difference probe: after the parameters move off the identity
    # point, the transformed token must respond to changes in any instance row
    adapter = make_adapter(dim=8, seed=7, perturb=0.05)
    rows = np.random.default_rng(14).standard_normal((4, 8))
    token = np.random.default_rng(15).standard_normal(8)

    def token_sum(r):
        with ad.no_grad():
            return float(adapt_with_class_token(adapter, r, token).sum().item())

    h = 1e-5
    for i in range(4):
        bumped = rows.copy()
        bumped[i, 0] += h
        lowered = rows.copy()
        lowered[i, 0] -= h
        derivative = (token_sum(bumped) - token_sum(lowered)) / (2 * h)
        assert abs(derivative) > 1e-8


def test_large_bag_finite_chunked_attention():
    # 10^4 instances: attention runs in query blocks and never holds the
    # (heads, n, n) logits
    adapter = make_adapter(dim=8, seed=8, perturb=0.05, dtype=np.float32)
    x = np.random.default_rng(16).standard_normal((10_000, 8)).astype(np.float32)
    with ad.no_grad():
        out = adapt(adapter, x).numpy()
    assert out.shape == (10_000, 8)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("n", [7, 2100])
def test_float32_adapter_output_is_float32(n):
    # one attention path in both modes: recording on at n = 7, and no_grad
    # at n = 2100, which runs several query blocks
    adapter = make_adapter(dim=8, seed=9, perturb=0.05, dtype=np.float32)
    x = np.random.default_rng(n).standard_normal((n, 8)).astype(np.float32)
    if n > 2048:
        with ad.no_grad():
            out = adapt(adapter, x)
    else:
        out = adapt(adapter, x)
    assert out.dtype == np.float32


@pytest.mark.parametrize("n", [1, 7, 513, 4096])
def test_float32_adapter_against_float64_twin(n):
    # same parameters in both precisions
    twin = make_adapter(dim=16, seed=10, perturb=0.1)
    adapter = make_adapter(dim=16, seed=10, dtype=np.float32)
    for (_, p32), (_, p64) in zip(collect_params(adapter), collect_params(twin)):
        p32.data = p64.data.astype(np.float32)
    x = np.random.default_rng(n).standard_normal((n, 16))
    weights = np.random.default_rng(n + 1).standard_normal((n, 16))
    runs = []
    for model, dtype in ((twin, np.float64), (adapter, np.float32)):
        out = adapt(model, x.astype(dtype))
        (out * weights.astype(dtype)).sum().backward()
        runs.append((out.numpy(), [p.grad for _, p in collect_params(model)]))
    (y64, g64), (y32, g32) = runs
    assert y32.dtype == np.float32
    assert np.abs(y32 - y64).max() <= 1e-6 * np.abs(y64).max()
    largest = max(np.abs(g).max() for g in g64)
    for a, b in zip(g32, g64):
        scale = np.abs(b).max()
        if scale < 1e-9 * largest:  # the key bias: softmax ignores a shift of every key
            scale = largest
        assert np.abs(a - b).max() <= 1e-5 * scale


def test_attention_peak_memory_at_4096_rows():
    # n = 4096 in float32: one (4, n, n) array alone would take 256 MiB
    rng = np.random.default_rng(22)
    attn = MultiHeadSelfAttention(16, 4, rng, dtype=np.float32)
    for _, p in collect_params(attn):  # the output projection starts at zero
        p.data = (p.data + 0.3 * rng.standard_normal(p.data.shape)).astype(np.float32)
    x = parameter(rng.standard_normal((4096, 16)), dtype=np.float32)
    mask = rng.random(4096) < 0.1
    tracemalloc.start()
    try:
        out = attn(x, key_mask=mask)
        out.sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad.dtype == np.float32 and np.isfinite(x.grad).all()
    assert np.abs(x.grad).max() > 0
    assert peak < 128 * 2**20


def test_float32_key_mask_against_unmasked_attention():
    rng = np.random.default_rng(21)
    attn = MultiHeadSelfAttention(8, 2, rng, dtype=np.float32)
    for _, p in collect_params(attn):  # the output projection starts at zero
        p.data = (p.data + 0.3 * rng.standard_normal(p.data.shape)).astype(np.float32)
    x = rng.standard_normal((6, 8)).astype(np.float32)
    unmasked = attn(Tensor(x)).numpy()
    # a mask hiding every key leaves nothing to hide from: no mask
    all_masked = attn(Tensor(x), key_mask=np.ones(6, dtype=bool)).numpy()
    np.testing.assert_allclose(all_masked, unmasked, atol=1e-6)
    # one hidden key: every other row attends as if that key were not in the bag
    mask = np.zeros(6, dtype=bool)
    mask[2] = True
    one_masked = attn(Tensor(x), key_mask=mask).numpy()
    assert one_masked.dtype == np.float32
    keep = np.flatnonzero(~mask)
    np.testing.assert_allclose(one_masked[keep], attn(Tensor(x[keep])).numpy(), atol=1e-5)
    assert np.abs(one_masked - unmasked).max() > 1e-3
