"""Dynamic mixture-of-experts aggregator over bag instances.

One expert per class: expert 0 collects instances that look negative,
experts 1..K collect instances that look like their positive subtype.
Each expert owns a two-way router (linear + softmax); an instance enters
expert r's subset when the router's argmax lands on the expert's accept
side (side 0 for the negative expert, side 1 for positive experts; an
exact tie counts as side 1).  Within a subset only the top ``ceil(alpha *
n_routed)`` instances by router score survive, which is where the
sparsification comes from.

Each expert then pools its retained rows into a class-centric latent and
scores it with its own (K+1)-way classifier; the classifier's probability
at the expert's own index is the expert's confidence.  Pooling weights
rows by their router scores (normalized), so the routers receive
gradients from the expert losses; the hard subset selection itself is
non-differentiable and gradients do not flow through it.  With equal
scores the pooled latent is exactly the plain row mean.

The union of the retained subsets (with multiplicity, in expert order) is
the sparse bag.  A learnable class token is prepended to it and run
through a second adapter; a linear softmax head on the transformed token
yields the aggregator's own class prediction, which later conditions the
diffusion classifier.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .adapter import Adapter, adapt, adapt_with_class_token
from .autodiff import Tensor, parameter
from .core import Bag, ConfigError, ValidationError, one_hot, validate_probability
from .nn import DEFAULT_DTYPE, Linear

logger = logging.getLogger(__name__)

LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class SamplingRatios:
    """Retention ratios: alpha0 for the negative expert, alpha1 for all
    positive experts."""

    alpha0: float = 0.25
    alpha1: float = 0.5

    def __post_init__(self):
        for name, a in (("alpha0", self.alpha0), ("alpha1", self.alpha1)):
            if not 0.0 < a <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {a}")

    def for_expert(self, expert_index: int) -> float:
        return self.alpha0 if expert_index == 0 else self.alpha1


@dataclass(frozen=True)
class ExpertInsight:
    """An expert's pooled latent and its confidence in its own class."""

    latent: np.ndarray
    confidence: float
    expert_index: int
    prediction: np.ndarray


@dataclass(frozen=True)
class SourceIndex:
    expert_index: int
    instance_index: int
    score: float


@dataclass
class SparseBag:
    """Top-k retained transformed instances with provenance.

    An instance retained by several experts appears once per expert; the
    union is taken with multiplicity.
    """

    instances: np.ndarray
    source_indices: list[SourceIndex]

    @property
    def size(self) -> int:
        return self.instances.shape[0]


@dataclass
class MoEOutput:
    """Everything the aggregator produces for one bag.

    Tensor fields keep the autodiff graph alive for the stage-1 loss; the
    ndarray properties are detached views for downstream consumers.
    """

    insights: list[ExpertInsight]
    sparse_bag: SparseBag
    prior_t: Tensor
    expert_predictions_t: list[Tensor] = field(repr=False)

    @property
    def prior(self) -> np.ndarray:
        return self.prior_t.numpy()

    @property
    def expert_predictions(self) -> list[np.ndarray]:
        return [t.numpy() for t in self.expert_predictions_t]


class MoEAggregator:
    """Parameter bundle for the full aggregator."""

    def __init__(self, num_classes: int, dim: int, rng: np.random.Generator,
                 heads: int = 4, ff_multiple: int = 2, dtype=DEFAULT_DTYPE):
        if num_classes < 2:
            raise ConfigError("need at least 2 classes (one positive subtype)")
        self.num_classes = num_classes
        self.dim = dim
        self.dtype = dtype
        self.adapter_in = Adapter(dim, rng, heads=heads, ff_multiple=ff_multiple, dtype=dtype)
        self.adapter_prior = Adapter(dim, rng, heads=heads, ff_multiple=ff_multiple, dtype=dtype)
        self.routers = [self._init_router(r, rng, dtype) for r in range(num_classes)]
        self.expert_heads = [Linear(dim, num_classes, rng, scale=0.02, dtype=dtype)
                             for _ in range(num_classes)]
        self.prior_head = Linear(dim, num_classes, rng, scale=0.02, dtype=dtype)
        self.class_embedding = parameter(rng.normal(0.0, 0.02, size=dim), dtype=dtype)

    def _init_router(self, expert_index: int, rng: np.random.Generator, dtype) -> Linear:
        router = Linear(self.dim, 2, rng, scale=0.5 / np.sqrt(self.dim), dtype=dtype)
        # The negative expert starts with a wide accept margin: its subset
        # must never empty out (an empty subset receives no gradient and
        # cannot recover).  Positive experts start at the decision
        # boundary, where the expert losses separate their own class
        # quickly in both directions.
        if expert_index == 0:
            bias = np.array([2.0, -2.0])
        else:
            bias = np.zeros(2)
        router.bias.data = bias.astype(dtype)
        return router


def accept_side(expert_index: int) -> int:
    """Which softmax side routes an instance into this expert's subset."""
    return 0 if expert_index == 0 else 1


def router_probs(router: Linear, adapted: Tensor,
                 routing_noise: tuple[np.random.Generator, float] | None = None) -> Tensor:
    """Two-way routing probabilities for every instance row.

    ``routing_noise`` is an (rng, std) pair adding Gaussian noise to the
    router logits (see ``aggregate_detailed``).
    """
    logits = router(adapted)
    if routing_noise is not None:
        rng, std = routing_noise
        logits = logits + std * rng.standard_normal(logits.shape)
    return ad.softmax(logits, axis=-1)


def select_routed(probs: np.ndarray, expert_index: int) -> np.ndarray:
    """Indices of instances whose routing argmax lands on the expert's side.

    An exact tie between the two probabilities counts as side 1.
    """
    argmax = (probs[:, 1] >= probs[:, 0]).astype(np.intp)
    return np.flatnonzero(argmax == accept_side(expert_index))


def topk_filter(subset_scores: np.ndarray, alpha: float) -> np.ndarray:
    """Positions of the top ``ceil(alpha * n)`` scores, at least one for a
    non-empty subset; ties keep the lower position."""
    scores = np.asarray(subset_scores)
    n = scores.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    k = max(1, int(np.ceil(alpha * n)))
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])


def expert_summarize(retained, head: Linear, expert_index: int, scores=None):
    """Pool retained rows and score them with the expert's classifier.

    Returns (latent, prediction, confidence) as graph tensors.  With
    ``scores`` given, pooling is the score-weighted row mean (this is the
    path through which routers learn); otherwise the plain row mean.  An
    empty subset yields a zero latent, a uniform prediction and zero
    confidence, all constants.
    """
    num_classes = head.bias.shape[0]
    dtype = head.bias.dtype
    if not isinstance(retained, Tensor):
        retained = Tensor(np.asarray(retained))
    if retained.shape[0] == 0:
        latent = Tensor(np.zeros(head.weight.shape[0], dtype=dtype))
        prediction = Tensor(np.full(num_classes, 1.0 / num_classes, dtype=dtype))
        confidence = Tensor(np.zeros((), dtype=dtype))
        return latent, prediction, confidence
    if scores is None:
        latent = retained.mean(axis=0)
    else:
        if not isinstance(scores, Tensor):
            scores = Tensor(np.asarray(scores))
        weights = scores.reshape(-1, 1)
        latent = (weights * retained).sum(axis=0) / scores.sum()
    prediction = ad.softmax(latent.reshape(1, -1) @ head.weight + head.bias, axis=-1)[0]
    confidence = prediction[expert_index]
    return latent, prediction, confidence


def prior_predict(adapter_prior: Adapter, prior_head: Linear, sparse_rows, class_embedding) -> Tensor:
    """Class probabilities from the sparse bag plus the class token.

    An empty sparse bag falls back to the class token alone.
    """
    rows = sparse_rows if isinstance(sparse_rows, Tensor) else Tensor(np.asarray(sparse_rows))
    if rows.shape[0] == 0:
        logger.warning("empty sparse bag: prior prediction falls back to the class token alone")
    token = adapt_with_class_token(adapter_prior, rows, class_embedding)
    return ad.softmax(token.reshape(1, -1) @ prior_head.weight + prior_head.bias, axis=-1)[0]


def _route_bag(model: MoEAggregator, bag: Bag, ratios: SamplingRatios,
               key_mask: np.ndarray | None = None,
               routing_noise: tuple[np.random.Generator, float] | None = None,
               ) -> tuple[Tensor, list[tuple[Tensor, np.ndarray, np.ndarray]]]:
    """Adapt a bag's instances and route them through every expert.

    Returns the adapted rows and, per expert, its routing probability
    tensor, the indices routed into its subset, and the indices that
    survive the top-k filter.
    """
    x = Tensor(np.ascontiguousarray(bag.instances, dtype=model.dtype))
    adapted = adapt(model.adapter_in, x, key_mask=key_mask)
    routes = []
    for r, router in enumerate(model.routers):
        probs_t = router_probs(router, adapted, routing_noise)
        probs = probs_t.numpy()
        routed = select_routed(probs, r)
        kept = routed[topk_filter(probs[routed, accept_side(r)], ratios.for_expert(r))]
        routes.append((probs_t, routed, kept))
    return adapted, routes


def aggregate_detailed(model: MoEAggregator, bag: Bag, ratios: SamplingRatios,
                       key_mask: np.ndarray | None = None,
                       routing_noise: tuple[np.random.Generator, float] | None = None,
                       ) -> tuple[MoEOutput, list[Tensor]]:
    """As ``aggregate``, also returning the per-expert routing probability
    tensors (used by the stage-1 router supervision).

    ``routing_noise`` is an (rng, std) pair adding Gaussian noise to the
    router logits, the training-time exploration of the sparse-gating
    tradition: instances near a router's decision boundary flip in and
    out of subsets, so downstream consumers keep seeing borderline
    selections instead of only the razor-sharp ones.  Evaluation never
    passes it.
    """
    adapted, routes = _route_bag(model, bag, ratios, key_mask, routing_noise)
    insights: list[ExpertInsight] = []
    predictions_t: list[Tensor] = []
    sources: list[SourceIndex] = []
    for r, (probs_t, _, kept) in enumerate(routes):
        side = accept_side(r)
        if kept.size:
            retained_t = ad.take_rows(adapted, kept)
            scores_t = probs_t[(kept, np.full(kept.size, side, dtype=np.intp))]
            latent_t, pred_t, conf_t = expert_summarize(
                retained_t, model.expert_heads[r], r, scores=scores_t)
        else:
            latent_t, pred_t, conf_t = expert_summarize(
                np.zeros((0, model.dim), dtype=model.dtype), model.expert_heads[r], r)
        insights.append(ExpertInsight(
            latent=latent_t.numpy(),
            confidence=float(conf_t.numpy()),
            expert_index=r,
            prediction=pred_t.numpy(),
        ))
        predictions_t.append(pred_t)
        probs = probs_t.numpy()
        sources.extend(SourceIndex(r, int(i), float(probs[i, side])) for i in kept)

    union = np.concatenate([kept for _, _, kept in routes])
    sparse_rows_t = ad.take_rows(adapted, union) if union.size else Tensor(
        np.zeros((0, model.dim), dtype=model.dtype))
    prior_t = prior_predict(model.adapter_prior, model.prior_head, sparse_rows_t,
                            model.class_embedding)
    sparse_bag = SparseBag(instances=sparse_rows_t.numpy(), source_indices=sources)
    output = MoEOutput(insights=insights, sparse_bag=sparse_bag, prior_t=prior_t,
                       expert_predictions_t=predictions_t)
    return output, [probs_t for probs_t, _, _ in routes]


def aggregate(model: MoEAggregator, bag: Bag, ratios: SamplingRatios,
              key_mask: np.ndarray | None = None) -> MoEOutput:
    """Run the full aggregator on one bag.

    Pure given (model, bag, ratios): the same inputs produce the same
    output, and evaluation under ``autodiff.no_grad`` is safe to run for
    different bags in parallel.  ``key_mask`` is a stage-1 training
    regularizer (see ``adapt``); evaluation leaves it None.
    """
    output, _ = aggregate_detailed(model, bag, ratios, key_mask=key_mask)
    return output


def router_supervision_loss(label: int, probs_list: list[Tensor]) -> Tensor | None:
    """Instance-level router supervision implied by the two bag axioms.

    Single subtype per bag: every instance of a class-c bag is a certain
    non-member of every other positive class, so each positive expert
    r != c is pushed to route none of them (and on an all-negative bag
    the negative expert is pushed to route everything).

    At least one member: a class-c bag (c >= 1) contains at least one
    class-c instance, so expert c's router must accept its best
    candidate: the instance with the highest accept probability is pushed
    toward acceptance (a witness term; the choice of witness is
    stop-gradient, like the top-k selection).  Without the witness an
    expert whose router drifts to reject-everything has an empty subset
    and no recovery gradient.
    """
    terms = []
    for r, probs_t in enumerate(probs_list):
        if r == 0 and label != 0:
            continue
        if r == label:
            if label >= 1:
                witness = int(np.argmax(probs_t.numpy()[:, 1]))
                terms.append(-ad.log(ad.clamp_min(probs_t[witness, 1], LOG_CLAMP)))
            continue
        # reject side for positive experts doubles as the accept side for
        # the negative expert: column 0 either way
        terms.append(-ad.log(ad.clamp_min(probs_t[:, 0], LOG_CLAMP)).mean())
    if not terms:
        return None
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def cross_entropy(target: np.ndarray, predicted: Tensor) -> Tensor:
    """Cross-entropy with the predicted log clamped at 1e-12."""
    return -(np.asarray(target) * ad.log(ad.clamp_min(predicted, LOG_CLAMP))).sum()


def moe_loss(label_one_hot: np.ndarray, output: MoEOutput) -> Tensor:
    """Joint aggregator loss for one bag.

    Cross-entropy on the prior prediction, an unconditional term holding
    the negative expert to class 0, and one term holding the bag's own
    positive expert to its class (positive experts of other classes are
    not penalized on this bag).
    """
    f0 = np.asarray(label_one_hot)
    num_classes = f0.shape[0]
    if len(output.expert_predictions_t) != num_classes:
        raise ValidationError("expert count does not match label width")
    validate_probability(output.prior)
    for pred in output.expert_predictions:
        validate_probability(pred)
    label = int(np.argmax(f0))
    loss = cross_entropy(f0, output.prior_t)
    loss = loss + cross_entropy(one_hot(0, num_classes), output.expert_predictions_t[0])
    if label >= 1:
        loss = loss + cross_entropy(one_hot(label, num_classes), output.expert_predictions_t[label])
    return loss


def score_table(model: MoEAggregator, bag: Bag, ratios: SamplingRatios) -> list[dict]:
    """Per-instance router scores for every expert, with routing flags.

    One row per (instance, expert): the accept-side probability, whether
    the instance was routed into the subset, and whether it survived the
    top-k filter.  This is the exportable data behind score-overlay plots.
    """
    with ad.no_grad():
        _, routes = _route_bag(model, bag, ratios)
    rows: list[dict] = []
    for r, (probs_t, routed, kept) in enumerate(routes):
        scores = probs_t.numpy()[:, accept_side(r)]
        routed_set, kept_set = set(routed.tolist()), set(kept.tolist())
        rows.extend({
            "bag_id": bag.bag_id,
            "instance_index": i,
            "expert_index": r,
            "score": float(scores[i]),
            "routed": i in routed_set,
            "retained": i in kept_set,
        } for i in range(bag.size))
    return rows
