"""Output checks for the benchmark workloads.

Every check compares the program's output with a computation written here
from the published formulas (float64 forwards, the reverse-diffusion loop,
the bag-file layout, the top-k rule) or with a property the output must
have.  Each raises ``CheckFailed`` with the first difference it finds.
"""

from __future__ import annotations

import csv
import math
import struct
import zlib
from pathlib import Path

import numpy as np
from scipy import stats

SAMPLE_ATOL = 1e-4      # float32 program vs float64 loop; measured <= 5e-6
ADAPT_RTOL = 1e-5       # float32 adapter vs float64 forward, relative to max |y|; measured <= 3e-7
SIMPLEX_ATOL = 1e-5


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- float64 reference forwards -------------------------------------------------


def _f64(t) -> np.ndarray:
    return np.asarray(t.data, dtype=np.float64)


def _linear(layer, x):
    return x @ _f64(layer.weight) + _f64(layer.bias)


def _layer_norm(norm, x, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + eps) * _f64(norm.gain) + _f64(norm.bias)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))


def _attention(attn, x, chunk=512):
    n = x.shape[0]
    h, d = attn.heads, attn.head_dim
    q = _linear(attn.query, x).reshape(n, h, d).transpose(1, 0, 2)
    k = _linear(attn.key, x).reshape(n, h, d).transpose(1, 2, 0)
    v = _linear(attn.value, x).reshape(n, h, d).transpose(1, 0, 2)
    mixed = np.empty((n, h * d))
    for lo in range(0, n, chunk):
        logits = q[:, lo:lo + chunk] @ k / math.sqrt(d)
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        mixed[lo:lo + chunk] = (w @ v).transpose(1, 0, 2).reshape(-1, h * d)
    return _linear(attn.out, mixed)


def _block(block, x):
    x = x + _attention(block.attn, _layer_norm(block.norm_attn, x))
    return x + _linear(block.ff.down, _gelu(_linear(block.ff.up, _layer_norm(block.norm_ff, x))))


def reference_adapt(adapter, instances) -> np.ndarray:
    """Adapter forward in float64: block, depthwise width-3 mixer, block."""
    x = _block(adapter.block_in, np.asarray(instances, dtype=np.float64))
    kern = _f64(adapter.mixer.kernel)
    pad = np.zeros((1, x.shape[1]))
    prev = np.concatenate([pad, x[:-1]])
    nxt = np.concatenate([x[1:], pad])
    x = x + prev * kern[0] + x * kern[1] + nxt * kern[2]
    return _block(adapter.block_out, x)


def check_adapt(program_out: np.ndarray, reference: np.ndarray) -> float:
    """Relative max error of the adapter output; raises above ADAPT_RTOL."""
    require(program_out.shape == reference.shape,
            f"adapt shape {program_out.shape} != {reference.shape}")
    err = float(np.abs(program_out - reference).max() / np.abs(reference).max())
    require(err <= ADAPT_RTOL, f"adapt differs from the float64 forward by {err:.3e} (relative)")
    return err


# -- diffusion ------------------------------------------------------------------


def _posterior(beta: np.ndarray, t: int):
    abar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    a_t, a_s = abar[t], abar[t - 1]
    alpha = 1.0 - beta[t - 1]
    g0 = beta[t - 1] * math.sqrt(a_s) / (1.0 - a_t)
    g1 = (1.0 - a_s) * math.sqrt(alpha) / (1.0 - a_t)
    g2 = 1.0 + (math.sqrt(a_t) - 1.0) * (math.sqrt(alpha) + math.sqrt(a_s)) / (1.0 - a_t)
    beta_hat = beta[t - 1] * (1.0 - a_s) / (1.0 - a_t)
    return a_t, g0, g1, g2, beta_hat


def check_gamma_sums(sched, coefficients) -> None:
    """g0 + g1 + g2 = 1 for the program's coefficients at every step, and
    they equal the closed form from the schedule's betas."""
    beta = np.asarray(sched.beta, dtype=np.float64)
    for t in range(1, len(beta) + 1):
        c = coefficients(sched, t)
        total = c.gamma0 + c.gamma1 + c.gamma2
        require(abs(total - 1.0) <= 1e-9, f"gamma0+gamma1+gamma2 = {total!r} at t={t}")
        _, g0, g1, g2, beta_hat = _posterior(beta, t)
        got = np.array([c.gamma0, c.gamma1, c.gamma2, c.beta_hat])
        require(np.allclose(got, [g0, g1, g2, beta_hat], rtol=1e-9, atol=1e-12),
                f"posterior coefficients differ from the closed form at t={t}")


def _time_embedding(t: int, dim: int) -> np.ndarray:
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    emb = np.concatenate([np.sin(t * freqs), np.cos(t * freqs)])
    return np.concatenate([emb, np.zeros(dim % 2)])


def reference_sample(beta, denoiser, insights, prior, n_samples: int, seed: int) -> np.ndarray:
    """Reverse diffusion from Normal(prior, I) in float64, stride 1, drawing
    noise in the program's documented order (no draw on the final step)."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=np.float64)
    rho = np.asarray(prior, dtype=np.float64)
    k = rho.shape[0]
    h = sum(ins.confidence * np.asarray(ins.latent, dtype=np.float64) for ins in insights)
    h = np.maximum(_linear(denoiser.encoder[0], h), 0.0)
    h = np.maximum(_linear(denoiser.encoder[1], h), 0.0)
    cond = _linear(denoiser.encoder[2], h)
    states = rho + rng.standard_normal((n_samples, k))
    for t in range(len(beta), 0, -1):
        a_t, g0, g1, g2, beta_hat = _posterior(beta, t)
        feats = np.concatenate([np.broadcast_to(cond, (n_samples, cond.size)), states,
                                np.broadcast_to(rho, (n_samples, k)),
                                np.broadcast_to(_time_embedding(t, denoiser.time_dim),
                                                (n_samples, denoiser.time_dim))], axis=1)
        hid = np.maximum(_linear(denoiser.mlp_in, feats), 0.0)
        hid = np.maximum(_linear(denoiser.mlp_mid, hid), 0.0)
        eps_hat = _linear(denoiser.mlp_out, hid)
        f0 = (states - (1.0 - math.sqrt(a_t)) * rho - math.sqrt(1.0 - a_t) * eps_hat) / math.sqrt(a_t)
        z = rng.standard_normal((n_samples, k)) if beta_hat > 0 else np.zeros((n_samples, k))
        states = g0 * f0 + g1 * states + g2 * rho + math.sqrt(beta_hat) * z
    return states


def check_samples(program: np.ndarray, reference: np.ndarray) -> float:
    require(program.shape == reference.shape, f"sample shape {program.shape} != {reference.shape}")
    err = float(np.abs(program - reference).max())
    require(err <= SAMPLE_ATOL, f"sample() differs from the float64 reverse loop by {err:.3e}")
    return err


# -- evaluation records -----------------------------------------------------------


def ttest_p(samples: np.ndarray) -> float:
    s = np.asarray(samples, dtype=np.float64)
    mean = s.mean(axis=0)
    c1, c2 = np.argsort(-mean, kind="stable")[:2]
    return float(stats.ttest_1samp(s[:, c1] - s[:, c2], 0.0).pvalue)


def check_records(report, records, labels, alpha: float, floor: float | None) -> float:
    """Point predictions, p-values, accuracy and PAvPU recomputed from the
    raw samples; returns the recomputed accuracy."""
    require(len(records) == len(labels), "record count differs from the bag count")
    hits = good = 0
    for rec, label in zip(records, labels):
        s = np.asarray(rec.samples, dtype=np.float64)
        require(np.isfinite(s).all(), f"{rec.bag_id}: non-finite samples")
        point = int(np.argmax(s.mean(axis=0)))
        require(point == rec.point_prediction,
                f"{rec.bag_id}: point prediction {rec.point_prediction} != argmax of the mean {point}")
        p = ttest_p(s)
        require(math.isclose(p, rec.p_value, rel_tol=1e-8, abs_tol=1e-12),
                f"{rec.bag_id}: p-value {rec.p_value!r} != ttest_1samp {p!r}")
        require(rec.certain == (p < alpha), f"{rec.bag_id}: certainty flag disagrees with p")
        accurate = point == label
        hits += accurate
        good += accurate == (p < alpha)
    acc, pav = hits / len(records), good / len(records)
    require(math.isclose(acc, report.accuracy, abs_tol=1e-12),
            f"report accuracy {report.accuracy!r} != recomputed {acc!r}")
    require(math.isclose(pav, report.pavpu, abs_tol=1e-12),
            f"report PAvPU {report.pavpu!r} != recomputed {pav!r}")
    if floor is not None:
        require(acc >= floor, f"held-out accuracy {acc:.3f} below the floor {floor}")
    return acc


def check_training(log: list[dict], before: dict, after: dict, stage: str) -> None:
    """The epoch loss falls and every trainable parameter moved."""
    require(log[-1]["loss"] < log[0]["loss"],
            f"{stage} loss did not fall: {log[0]['loss']:.4f} -> {log[-1]['loss']:.4f}")
    still = [k for k in before if np.array_equal(before[k], after[k])]
    require(not still, f"{stage}: parameters did not move: {still[:4]}")


# -- routing ----------------------------------------------------------------------


def check_topk(routed_scores: dict[int, float], retained: set[int], alpha: float,
               where: str) -> None:
    """``retained`` is the top max(1, ceil(alpha * routed)) of the routed
    instances by score (nothing when none is routed)."""
    n = len(routed_scores)
    want = max(1, math.ceil(alpha * n)) if n else 0
    require(len(retained) == want, f"{where}: retained {len(retained)} of {n} routed, want {want}")
    require(retained <= set(routed_scores), f"{where}: retained an instance that was not routed")
    if retained and len(retained) < n:
        low = min(routed_scores[i] for i in retained)
        high = max(s for i, s in routed_scores.items() if i not in retained)
        require(low >= high, f"{where}: dropped score {high!r} above kept score {low!r}")


def check_routing(output, probs_list, ratios, where: str) -> None:
    """Each expert's retained subset follows the top-k rule over the
    instances its router sends to the expert's side; the prior is a
    probability vector."""
    for r, probs_t in enumerate(probs_list):
        probs = probs_t.numpy()
        side = 0 if r == 0 else 1
        on_side = (probs[:, 1] >= probs[:, 0]) == bool(side)
        routed = {int(i): float(probs[i, side]) for i in np.flatnonzero(on_side)}
        kept = {s.instance_index for s in output.sparse_bag.source_indices if s.expert_index == r}
        check_topk(routed, kept, ratios.for_expert(r), f"{where} expert {r}")
    check_simplex(output.prior, where)


def check_simplex(p, where: str) -> None:
    p = np.asarray(p, dtype=np.float64)
    require(np.isfinite(p).all() and (p >= -SIMPLEX_ATOL).all()
            and abs(p.sum() - 1.0) <= SIMPLEX_ATOL, f"{where}: prior {p} is off the simplex")


# -- files --------------------------------------------------------------------------


def parse_bag_file(path) -> tuple[int, int, bytes]:
    """(n, dim, payload) of a .mexb file; its length and CRC-32 must match."""
    raw = Path(path).read_bytes()
    require(raw[:4] == b"MEXB", f"{path}: bad magic")
    version, n, dim = struct.unpack("<HII", raw[4:14])
    require(version == 1, f"{path}: version {version}")
    require(len(raw) == 14 + 4 * n * dim + 4, f"{path}: length {len(raw)} for n={n} dim={dim}")
    payload = raw[14:14 + 4 * n * dim]
    (crc,) = struct.unpack("<I", raw[-4:])
    require(crc == zlib.crc32(payload), f"{path}: stored CRC {crc:#010x} != zlib.crc32 of payload")
    return n, dim, payload


def check_bag_file(path, generated, read_bag) -> None:
    """The file holds exactly the generated bag, and ``read_bag`` returns it."""
    n, dim, payload = parse_bag_file(path)
    expect = np.ascontiguousarray(generated.instances, dtype="<f4")
    require((n, dim) == expect.shape, f"{path}: shape {(n, dim)} != {expect.shape}")
    require(payload == expect.tobytes(), f"{path}: payload differs from the generated bag")
    require(np.asarray(read_bag(path).instances, dtype="<f4").tobytes() == payload,
            f"{path}: read_bag does not return the stored payload")


def check_scores_csv(path, sizes: dict[str, int], num_classes: int, ratios) -> int:
    """Row count is sum(n_i) * K and every (bag, expert) group obeys the
    top-k rule; returns the row count."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    want = sum(sizes.values()) * num_classes
    require(len(rows) == want, f"{path}: {len(rows)} rows, want {want}")
    groups: dict[tuple, dict] = {}
    for row in rows:
        g = groups.setdefault((row["bag_id"], int(row["expert_index"])), {"routed": {}, "kept": set()})
        i = int(row["instance_index"])
        if row["routed"] == "True":
            g["routed"][i] = float(row["score"])
        if row["retained"] == "True":
            g["kept"].add(i)
    require(len(groups) == len(sizes) * num_classes, f"{path}: missing (bag, expert) groups")
    for (bag_id, r), g in groups.items():
        check_topk(g["routed"], g["kept"], ratios.for_expert(r), f"{path} {bag_id} expert {r}")
    return len(rows)
