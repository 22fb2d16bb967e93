"""Engine-level checks: every op's gradient agrees with finite differences."""

import threading

import numpy as np
import pytest

from moediff import autodiff as ad
from moediff.autodiff import Tensor, parameter

from gradcheck import check_grads

RNG = np.random.default_rng(7)


def randn(*shape):
    return RNG.standard_normal(shape)


def test_add_mul_broadcast_grads():
    a = parameter(randn(3, 4))
    b = parameter(randn(4))
    c = parameter(randn(3, 1))

    def loss():
        return ((a * b + c) * (a + 2.0)).sum()

    check_grads(loss, [("a", a), ("b", b), ("c", c)], tol=1e-6)


def test_div_sub_grads():
    a = parameter(randn(5) + 3.0)
    b = parameter(randn(5) + 3.0)

    def loss():
        return ((a - b) / b).sum()

    check_grads(loss, [("a", a), ("b", b)], tol=1e-6)


def test_matmul_grads():
    a = parameter(randn(3, 4))
    b = parameter(randn(4, 2))

    def loss():
        y = a @ b
        return (y * y).sum()

    check_grads(loss, [("a", a), ("b", b)], tol=1e-6)


def test_batched_matmul_grads():
    a = parameter(randn(2, 3, 4))
    b = parameter(randn(2, 4, 3))

    def loss():
        y = a @ b
        return (y * y).sum()

    check_grads(loss, [("a", a), ("b", b)], tol=1e-6)


def test_unary_grads():
    x = parameter(randn(6) * 0.5 + 1.5)

    def loss():
        return (ad.log(x) + ad.tanh(x) + ad.gelu(x)).sum()

    check_grads(loss, [("x", x)], tol=1e-6)


def test_relu_and_clamp_grads_off_kink():
    x = parameter(np.array([-2.0, -0.5, 0.3, 1.7]))

    def loss():
        return (ad.relu(x) + ad.clamp_min(x, -1.0)).sum()

    check_grads(loss, [("x", x)], tol=1e-6)


def test_softmax_grads():
    x = parameter(randn(4, 5))

    def loss():
        s = ad.softmax(x, axis=-1)
        return (s * s).sum()

    check_grads(loss, [("x", x)], tol=1e-6)


def test_layer_norm_grads():
    x = parameter(randn(3, 8))
    gain = parameter(randn(8) * 0.1 + 1.0)
    bias = parameter(randn(8) * 0.1)

    def loss():
        y = ad.layer_norm(x, gain, bias)
        return (y * y).sum()

    check_grads(loss, [("x", x), ("gain", gain), ("bias", bias)], tol=1e-5)


def test_reductions_and_shapes_grads():
    x = parameter(randn(4, 6))

    def loss():
        a = x.mean(axis=0).sum()
        b = x.sum(axis=1).mean()
        c = x.reshape(2, 12).sum()
        return a + b + c

    check_grads(loss, [("x", x)], tol=1e-6)


def test_take_slice_and_fancy_grads():
    x = parameter(randn(6, 3))
    idx = np.array([0, 2, 2, 5])  # repeats must accumulate

    def loss():
        sliced = x[1:4]
        gathered = ad.take_rows(x, idx)
        pair = x[(np.array([0, 3]), np.array([1, 2]))]
        return (sliced * sliced).sum() + (gathered * gathered).sum() + pair.sum()

    check_grads(loss, [("x", x)], tol=1e-6)


def test_concat_grads():
    a = parameter(randn(2, 3))
    b = parameter(randn(4, 3))

    def loss():
        y = ad.concat([a, b], axis=0)
        return (y * y).sum()

    check_grads(loss, [("a", a), ("b", b)], tol=1e-6)


def test_grad_accumulates_on_reuse():
    x = parameter(np.array([2.0]))
    y = x * x + x * 3.0
    y.backward()
    assert np.allclose(x.grad, [7.0])


def test_no_grad_builds_no_graph():
    x = parameter(randn(3))
    with ad.no_grad():
        y = (x * 2.0).sum()
    assert y._parents == ()
    y.backward()
    assert x.grad is None


def test_no_grad_exits_out_of_order_restore_recording():
    outer, inner = ad.no_grad(), ad.no_grad()
    outer.__enter__()
    inner.__enter__()
    outer.__exit__(None, None, None)
    assert not ad.grad_enabled()  # one context is still open
    inner.__exit__(None, None, None)
    assert ad.grad_enabled()
    x = parameter(randn(3))
    (x * 2.0).sum().backward()
    assert x.grad is not None


def test_no_grad_in_another_thread_does_not_stop_recording_here():
    entered, release = threading.Event(), threading.Event()

    def evaluate():
        with ad.no_grad():
            entered.set()
            release.wait(timeout=10)

    worker = threading.Thread(target=evaluate)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        assert ad.grad_enabled()
        x = parameter(randn(3))
        y = (x * 2.0).sum()
        assert y._parents != ()
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()


def test_backward_requires_scalar_without_seed():
    x = parameter(randn(3))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_dtype_preserved_float32_and_float64():
    # constants (Python and NumPy scalars, ndarrays) take the tensor's dtype
    for dtype in (np.float32, np.float64):
        x = parameter(randn(4, 4).astype(dtype), dtype=dtype)
        y = ad.softmax(x @ x, axis=-1)
        assert y.dtype == dtype
        for out in (x * 2.0, -x, 2.0 - x, x / 2, x @ randn(4, 3), x + np.float64(1.0),
                    np.float64(3.0) * x, randn(4, 4) - x, x * (1.0 / np.sqrt(4))):
            assert out.dtype == dtype
        (-(x * 2.0) / 3 + randn(4, 4)).sum().backward()
        assert x.grad.dtype == dtype


def test_constant_operands_get_no_gradient():
    # backward computes nothing for an operand that is neither a parameter
    # nor the output of a recorded op
    x = parameter(randn(3, 3))
    g = np.ones((3, 3))
    for out, constant in ((x * 2.0, 1), (x + randn(3, 3), 1), (ad.matmul(randn(3, 3), x), 0),
                          (2.0 - x, 0), (x / 4.0, 1)):
        grads = out._backward(g)
        assert grads[constant] is None
        assert grads[1 - constant] is not None



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ndarray_matmul_defers_to_tensor(dtype):
    a = randn(2, 3).astype(dtype)
    w = randn(3, 4)
    x, y = parameter(w, dtype=dtype), parameter(w, dtype=dtype)
    reflected, direct = a @ x, ad.matmul(a, y)
    assert isinstance(reflected, Tensor) and reflected.data.dtype == dtype
    np.testing.assert_array_equal(reflected.data, direct.data)
    reflected.sum().backward()
    direct.sum().backward()
    assert x.grad.dtype == dtype
    np.testing.assert_array_equal(x.grad, y.grad)

def _dense_attention(q, k, v, heads, key_mask):
    n, dim = q.shape
    d = dim // heads
    out = np.empty_like(q)
    for h in range(heads):
        cols = slice(h * d, (h + 1) * d)
        s = q[:, cols] @ k[:, cols].T / np.sqrt(d)
        s[:, key_mask] = -np.inf
        w = np.exp(s - s.max(axis=1, keepdims=True))
        out[:, cols] = w / w.sum(axis=1, keepdims=True) @ v[:, cols]
    return out


def test_attention_grads_across_blocks(monkeypatch):
    # 2 heads x 7 keys = 14 logits per query row, so a 42-element block
    # holds 3 rows: blocks of 3, 3 and 1 rows
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK", 42)
    q, k, v = (parameter(randn(7, 4)) for _ in range(3))
    mask = np.array([False, True, False, False, True, False, False])
    weights = randn(7, 4)
    out = ad.attention(q, k, v, 2, mask)
    np.testing.assert_allclose(out.numpy(), _dense_attention(q.data, k.data, v.data, 2, mask),
                               rtol=0, atol=1e-12)

    def loss():
        return (ad.attention(q, k, v, 2, mask) * weights).sum()

    check_grads(loss, [("q", q), ("k", k), ("v", v)], tol=1e-6)
    assert np.abs(k.grad[mask]).max() == 0 and np.abs(v.grad[mask]).max() == 0


def test_collect_params_walks_nested_objects():
    class Inner:
        def __init__(self):
            self.w = parameter(randn(2, 2))

    class Outer:
        def __init__(self):
            self.blocks = [Inner(), Inner()]
            self.b = parameter(randn(2))
            self.constant = Tensor(randn(2))  # not a parameter

    outer = Outer()
    names = [n for n, _ in ad.collect_params(outer)]
    assert names == ["b", "blocks.0.w", "blocks.1.w"]


def test_clip_grad_norm_scales_to_bound():
    x = parameter(np.ones(4))
    ((x * x).sum() * 100.0).backward()
    norm = ad.clip_grad_norm([x], 1.0)
    assert norm == pytest.approx(np.linalg.norm(np.full(4, 200.0)))
    assert np.linalg.norm(x.grad) == pytest.approx(1.0, rel=1e-6)
