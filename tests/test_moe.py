import numpy as np
import pytest

from moediff import autodiff as ad
from moediff.autodiff import Tensor, collect_params
from moediff.core import Bag, ValidationError, one_hot, validate_probability
from moediff.adapter import adapt
from moediff.moe import (MoEAggregator, MoEOutput, SamplingRatios, accept_side, aggregate,
                         aggregate_detailed, cross_entropy, expert_summarize, moe_loss,
                         prior_predict, router_probs, router_supervision_loss,
                         score_table, select_routed, topk_filter)
from moediff.nn import Linear

from gradcheck import check_grads


def constant_router(dim, probs, dtype=np.float64) -> Linear:
    """Router emitting the same two-way probabilities for every instance."""
    router = Linear(dim, 2, np.random.default_rng(0), zero=True, dtype=dtype)
    router.bias.data = np.log(np.asarray(probs, dtype=dtype))
    return router


def make_model(num_classes=3, dim=8, seed=0, dtype=np.float64, perturb=0.0) -> MoEAggregator:
    model = MoEAggregator(num_classes, dim, np.random.default_rng(seed), dtype=dtype)
    if perturb:
        rng = np.random.default_rng(seed + 100)
        for _, p in collect_params(model):
            p.data = (p.data + perturb * rng.standard_normal(p.data.shape)).astype(dtype)
    return model


def make_bag(n=10, dim=8, seed=0, label=1) -> Bag:
    rng = np.random.default_rng(seed)
    return Bag(instances=rng.standard_normal((n, dim)).astype(np.float32),
               label=label, bag_id=f"t{seed}")


# -- routing -----------------------------------------------------------------


def test_route_constant_router_selects_all_for_negative_expert():
    x = np.random.default_rng(1).standard_normal((7, 8))
    probs = router_probs(constant_router(8, [0.9, 0.1]), Tensor(x)).numpy()
    idx = select_routed(probs, 0)
    scores = probs[idx, accept_side(0)]
    assert idx.tolist() == list(range(7))
    assert np.allclose(scores, 0.9)


def test_route_constant_router_empty_for_positive_expert():
    x = np.random.default_rng(1).standard_normal((7, 8))
    probs = router_probs(constant_router(8, [0.9, 0.1]), Tensor(x)).numpy()
    idx = select_routed(probs, 1)
    scores = probs[idx, accept_side(1)]
    assert idx.size == 0 and scores.size == 0


def test_route_tie_resolves_to_positive_side():
    x = np.zeros((3, 8))
    probs = router_probs(constant_router(8, [0.5, 0.5]), Tensor(x)).numpy()
    idx0 = select_routed(probs, 0)
    idx1 = select_routed(probs, 1)
    assert idx0.size == 0
    assert idx1.tolist() == [0, 1, 2]


def test_route_matches_brute_force_on_random_routers():
    rng = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(1, 30))
        x = rng.standard_normal((n, 8))
        router = Linear(8, 2, rng, dtype=np.float64)
        router.bias.data = rng.standard_normal(2)
        r = int(rng.integers(0, 3))
        probs = router_probs(router, Tensor(x)).numpy()
        idx = select_routed(probs, r)
        scores = probs[idx, accept_side(r)]
        # brute force: recompute softmax per instance, filter by argmax
        logits = x @ router.weight.data + router.bias.data
        expected_idx = []
        expected_scores = []
        side = accept_side(r)
        for i in range(n):
            e = np.exp(logits[i] - logits[i].max())
            p = e / e.sum()
            arg = 1 if p[1] >= p[0] else 0
            if arg == side:
                expected_idx.append(i)
                expected_scores.append(p[side])
        assert idx.tolist() == expected_idx
        assert np.allclose(scores, expected_scores, atol=1e-12)


def test_topk_examples():
    scores = np.array([0.9, 0.6, 0.8, 0.7])
    kept = topk_filter(scores, 0.5)
    assert kept.tolist() == [0, 2]
    assert topk_filter(scores, 1.0).tolist() == [0, 1, 2, 3]
    assert topk_filter(np.array([]), 0.5).size == 0
    # at least one instance survives a non-empty subset
    assert topk_filter(np.array([0.1, 0.2, 0.3]), 0.01).tolist() == [2]


def test_topk_stable_tie_break():
    scores = np.array([0.5, 0.9, 0.5, 0.9])
    assert topk_filter(scores, 0.5).tolist() == [1, 3]
    assert topk_filter(scores, 0.75).tolist() == [0, 1, 3]


def test_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(3)
    for trial in range(1000):
        n = int(rng.integers(0, 40))
        scores = np.round(rng.random(n), 2)  # coarse values force ties
        alpha = float(rng.uniform(0.05, 1.0))
        kept = topk_filter(scores, alpha)
        if n == 0:
            assert kept.size == 0
            continue
        k = max(1, int(np.ceil(alpha * n)))
        # oracle: sort (descending score, ascending index), take first k
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        assert sorted(kept.tolist()) == sorted(order[:k])
        assert kept.size == k


# -- expert summaries ----------------------------------------------------------


def test_summary_single_row_is_that_row():
    head = Linear(8, 3, np.random.default_rng(4), dtype=np.float64)
    row = np.random.default_rng(5).standard_normal((1, 8))
    latent, pred, conf = expert_summarize(row, head, expert_index=1,
                                          scores=np.array([0.73]))
    assert np.allclose(latent.numpy(), row[0], atol=1e-12)
    validate_probability(pred.numpy())


def test_summary_identical_rows_equal_that_row():
    head = Linear(8, 3, np.random.default_rng(4), dtype=np.float64)
    row = np.random.default_rng(6).standard_normal(8)
    rows = np.tile(row, (5, 1))
    scores = np.random.default_rng(7).uniform(0.5, 1.0, 5)
    latent, _, _ = expert_summarize(rows, head, 2, scores=scores)
    assert np.allclose(latent.numpy(), row, atol=1e-12)
    # plain-mean oracle agrees
    assert np.allclose(latent.numpy(), rows.mean(axis=0), atol=1e-12)


def test_summary_plain_mean_without_scores():
    head = Linear(8, 3, np.random.default_rng(4), dtype=np.float64)
    rows = np.random.default_rng(8).standard_normal((6, 8))
    latent, _, _ = expert_summarize(rows, head, 0)
    assert np.allclose(latent.numpy(), rows.mean(axis=0), atol=1e-12)


def test_confidence_is_own_class_probability():
    # force the prediction to a known vector via a zero head with bias
    head = Linear(8, 2, np.random.default_rng(0), zero=True, dtype=np.float64)
    head.bias.data = np.log(np.array([0.2, 0.8]))
    rows = np.random.default_rng(9).standard_normal((3, 8))
    _, pred, conf = expert_summarize(rows, head, expert_index=1)
    assert np.allclose(pred.numpy(), [0.2, 0.8], atol=1e-12)
    assert conf.item() == pytest.approx(0.8, abs=1e-12)


def test_empty_expert_rule():
    head = Linear(8, 3, np.random.default_rng(4), dtype=np.float64)
    latent, pred, conf = expert_summarize(np.zeros((0, 8)), head, 1)
    assert np.allclose(latent.numpy(), 0.0)
    assert np.allclose(pred.numpy(), 1.0 / 3)
    assert conf.item() == 0.0


# -- prior prediction ----------------------------------------------------------


def test_prior_is_probability_vector():
    model = make_model(perturb=0.05)
    rows = np.random.default_rng(10).standard_normal((4, 8))
    out = prior_predict(model.adapter_prior, model.prior_head, rows, model.class_embedding)
    validate_probability(out.numpy())


def test_prior_uniform_with_zero_head():
    model = make_model()
    model.prior_head.weight.data = np.zeros_like(model.prior_head.weight.data)
    model.prior_head.bias.data = np.zeros_like(model.prior_head.bias.data)
    rows = np.random.default_rng(11).standard_normal((4, 8))
    out = prior_predict(model.adapter_prior, model.prior_head, rows, model.class_embedding)
    assert np.allclose(out.numpy(), 1.0 / 3, atol=1e-12)


def test_prior_empty_sparse_bag_falls_back_to_token(caplog):
    model = make_model(perturb=0.05)
    import logging
    with caplog.at_level(logging.WARNING, logger="moediff.moe"):
        out = prior_predict(model.adapter_prior, model.prior_head,
                            np.zeros((0, 8)), model.class_embedding)
    validate_probability(out.numpy())
    assert any("empty sparse bag" in r.message for r in caplog.records)


# -- aggregate ------------------------------------------------------------------


def test_aggregate_sparse_size_bound():
    model = make_model(perturb=0.1)
    ratios = SamplingRatios(alpha0=0.25, alpha1=0.5)
    bag = make_bag(n=17)
    out = aggregate(model, bag, ratios)
    bound = int(np.ceil(0.25 * 17)) + 2 * int(np.ceil(0.5 * 17))
    assert out.sparse_bag.size <= bound
    assert len(out.insights) == 3
    validate_probability(out.prior)


def test_aggregate_union_can_exceed_bag_size():
    # every expert accepts everything: subsets each equal the bag, union
    # with multiplicity is three bags' worth
    model = make_model()
    model.routers[0] = constant_router(8, [0.99, 0.01])
    model.routers[1] = constant_router(8, [0.01, 0.99])
    model.routers[2] = constant_router(8, [0.01, 0.99])
    bag = make_bag(n=6)
    out = aggregate(model, bag, SamplingRatios(alpha0=1.0, alpha1=1.0))
    assert out.sparse_bag.size == 18 > bag.size
    per_expert = np.bincount([s.expert_index for s in out.sparse_bag.source_indices])
    assert per_expert.tolist() == [6, 6, 6]


def test_aggregate_full_ratio_constant_scores_mean_equals_global_mean():
    # constant-score routers + alpha = 1: the score-weighted pooling
    # degenerates to the plain mean of all adapted instances
    model = make_model(perturb=0.05)
    model.routers[0] = constant_router(8, [0.97, 0.03])
    model.routers[1] = constant_router(8, [0.03, 0.97])
    model.routers[2] = constant_router(8, [0.03, 0.97])
    bag = make_bag(n=9)
    out = aggregate(model, bag, SamplingRatios(alpha0=1.0, alpha1=1.0))
    with ad.no_grad():
        from moediff.adapter import adapt
        adapted = adapt(model.adapter_in, bag.instances.astype(np.float64)).numpy()
    for insight in out.insights:
        assert np.allclose(insight.latent, adapted.mean(axis=0), atol=1e-9)


def test_aggregate_deterministic():
    model = make_model(perturb=0.1)
    bag = make_bag(n=12, seed=21)
    ratios = SamplingRatios()
    a = aggregate(model, bag, ratios)
    b = aggregate(model, bag, ratios)
    assert np.array_equal(a.prior, b.prior)
    assert np.array_equal(a.sparse_bag.instances, b.sparse_bag.instances)
    assert [s.instance_index for s in a.sparse_bag.source_indices] == \
           [s.instance_index for s in b.sparse_bag.source_indices]
    assert all(np.array_equal(x.latent, y.latent) for x, y in zip(a.insights, b.insights))


# -- loss ------------------------------------------------------------------------


def test_moe_loss_positive_bag_has_three_terms():
    # K=1: label-1 bag adds the positive expert term; label-0 does not
    model = make_model(num_classes=2, perturb=0.1)
    ratios = SamplingRatios()
    bag1 = make_bag(n=8, seed=31, label=1)
    out1 = aggregate(model, bag1, ratios)
    expected = (cross_entropy(one_hot(1, 2), out1.prior_t).item()
                + cross_entropy(one_hot(0, 2), out1.expert_predictions_t[0]).item()
                + cross_entropy(one_hot(1, 2), out1.expert_predictions_t[1]).item())
    assert moe_loss(one_hot(1, 2), out1).item() == pytest.approx(expected, rel=1e-9)


def test_moe_loss_negative_bag_drops_positive_terms():
    model = make_model(num_classes=2, perturb=0.1)
    ratios = SamplingRatios()
    bag0 = make_bag(n=8, seed=32, label=0)
    out0 = aggregate(model, bag0, ratios)
    expected = (cross_entropy(one_hot(0, 2), out0.prior_t).item()
                + cross_entropy(one_hot(0, 2), out0.expert_predictions_t[0]).item())
    assert moe_loss(one_hot(0, 2), out0).item() == pytest.approx(expected, rel=1e-9)


def test_negative_expert_term_always_present():
    # the expert-0 term changes the loss for every label
    model = make_model(num_classes=3, perturb=0.1)
    bag = make_bag(n=8, seed=33, label=2)
    out = aggregate(model, bag, SamplingRatios())
    base = moe_loss(one_hot(2, 3), out).item()
    # replace expert-0 prediction with a perfect one: loss must drop by
    # exactly the old expert-0 cross-entropy
    perfect = Tensor(np.array([1.0, 0.0, 0.0]))
    patched = MoEOutput(insights=out.insights, sparse_bag=out.sparse_bag,
                        prior_t=out.prior_t,
                        expert_predictions_t=[perfect] + out.expert_predictions_t[1:])
    drop = base - moe_loss(one_hot(2, 3), patched).item()
    assert drop == pytest.approx(
        cross_entropy(one_hot(0, 3), out.expert_predictions_t[0]).item(), rel=1e-6)


def test_moe_loss_perfect_predictions_near_zero():
    one_hot0 = Tensor(np.array([1.0, 0.0]))
    one_hot1 = Tensor(np.array([0.0, 1.0]))
    out = MoEOutput(insights=[], sparse_bag=None, prior_t=one_hot1,
                    expert_predictions_t=[one_hot0, one_hot1])
    assert moe_loss(one_hot(1, 2), out).item() <= 1e-6


def test_moe_loss_rejects_non_probability_predictions():
    bad = Tensor(np.array([0.5, 0.6]))
    ok = Tensor(np.array([0.5, 0.5]))
    out = MoEOutput(insights=[], sparse_bag=None, prior_t=bad,
                    expert_predictions_t=[ok, ok])
    with pytest.raises(ValidationError):
        moe_loss(one_hot(1, 2), out)


def test_moe_loss_gradients_match_finite_differences():
    # 64-bit, 6-instance bag, through routers, expert heads, adapters,
    # prior head and class embedding
    model = make_model(num_classes=3, dim=8, seed=40, perturb=0.1)
    bag = make_bag(n=6, seed=41, label=1)
    ratios = SamplingRatios(alpha0=0.5, alpha1=0.5)
    target = one_hot(1, 3, dtype=np.float64)

    def loss():
        return moe_loss(target, aggregate(model, bag, ratios))

    named = collect_params(model)
    errors = check_grads(loss, named, h=1e-6, tol=1e-3)
    # the bag's own expert router must receive a real (nonzero) gradient
    router_param_names = [n for n in errors if n.startswith("routers.1.")]
    assert router_param_names
    grads = dict(zip([n for n, _ in named],
                     [p.grad for _, p in named]))


def test_router_gradient_is_nonzero_through_score_weighting():
    model = make_model(num_classes=2, dim=8, seed=42, perturb=0.1)
    bag = make_bag(n=6, seed=43, label=1)
    out = aggregate(model, bag, SamplingRatios(alpha0=0.5, alpha1=0.5))
    loss = moe_loss(one_hot(1, 2), out)
    loss.backward()
    grad_norm = float(np.linalg.norm(model.routers[1].weight.grad))
    assert grad_norm > 1e-8


# -- score export ----------------------------------------------------------------


def test_score_table_covers_every_instance_expert_pair():
    model = make_model(perturb=0.1)
    bag = make_bag(n=5, seed=50)
    rows = score_table(model, bag, SamplingRatios())
    assert len(rows) == 5 * 3
    retained = [r for r in rows if r["retained"]]
    assert retained, "top-k must retain something"
    assert all(0.0 <= r["score"] <= 1.0 for r in rows)
    assert all(r["routed"] or not r["retained"] for r in rows)


# -- precision -------------------------------------------------------------------


def test_float32_stage1_graph_and_gradients_stay_float32():
    # the stage-1 loss with key dropout, routing noise and router supervision
    model = make_model(dim=16, seed=5, dtype=np.float32, perturb=0.1)
    bag = make_bag(n=24, dim=16, seed=6, label=1)
    key_mask = np.random.default_rng(7).random(bag.size) < 0.25
    out, probs_list = aggregate_detailed(model, bag, SamplingRatios(), key_mask=key_mask,
                                         routing_noise=(np.random.default_rng(8), 0.5))
    loss = moe_loss(one_hot(1, 3), out) + 0.5 * router_supervision_loss(1, probs_list)
    dtypes, seen, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            dtypes.add(node.dtype)
            stack.extend(node._parents)
    assert dtypes == {np.dtype(np.float32)}
    loss.backward()
    grads = [p.grad for _, p in collect_params(model) if p.grad is not None]
    assert grads and all(g.dtype == np.float32 for g in grads)


def test_float32_aggregator_matches_float64_twin():
    model = make_model(dim=16, seed=11, dtype=np.float32, perturb=0.1)
    twin = make_model(dim=16, seed=11)
    for (_, p32), (_, p64) in zip(collect_params(model), collect_params(twin)):
        p64.data = p32.data.astype(np.float64)
    bag = make_bag(n=64, dim=16, seed=12)
    with ad.no_grad():
        y32 = adapt(model.adapter_in, bag.instances).numpy()
        y64 = adapt(twin.adapter_in, bag.instances.astype(np.float64)).numpy()
    assert y32.dtype == np.float32
    assert np.abs(y32 - y64).max() <= 1e-5 * np.abs(y64).max()

    def flags(m):
        return [(r["instance_index"], r["expert_index"], r["routed"], r["retained"])
                for r in score_table(m, bag, SamplingRatios())]

    assert flags(model) == flags(twin)
