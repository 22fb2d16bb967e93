"""Classification metrics, posterior-sample aggregation and the
hypothesis-testing uncertainty layer.

A prediction for a bag is a set of posterior sample vectors from the
diffusion classifier.  The point prediction is the argmax of the sample
mean.  Certainty comes from a paired t-test: per sample, take the
difference between the probabilities of the top two classes (top-2 by the
sample mean); test whether that difference has zero mean.  Rejecting at
the configured level means the model is certain of the prediction.
Sample vectors can leave [0, 1] (diffusion outputs are not renormalized);
the test uses the raw values.

PAvPU summarizes certainty quality: the fraction of bags that are either
accurate-and-certain or inaccurate-and-uncertain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri, stdtr

from .core import DomainError, ValidationError

DEGENERATE_VAR = 1e-12
DEGENERATE_MEAN = 1e-9


@dataclass
class PredictionRecord:
    """Posterior samples and derived judgments for one bag."""

    bag_id: str
    samples: np.ndarray
    point_prediction: int
    true_label: int
    certain: bool
    p_value: float

    @property
    def accurate(self) -> bool:
        return self.point_prediction == self.true_label


@dataclass
class MetricReport:
    f1_macro: float
    accuracy: float
    auc_macro: float
    pavpu: float | None = None
    per_class: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {"f1_macro": self.f1_macro, "accuracy": self.accuracy,
               "auc_macro": self.auc_macro, "pavpu": self.pavpu}
        out["per_class"] = self.per_class
        return out


def aggregate_samples(samples: np.ndarray) -> tuple[np.ndarray, int]:
    """Arithmetic mean of posterior samples and its argmax (lowest index
    wins a tie)."""
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] < 1:
        raise ValidationError("need a non-empty (n_samples, n_classes) array")
    mean = s.mean(axis=0)
    return mean, int(np.argmax(mean))


def top_two_classes(mean_vector: np.ndarray) -> tuple[int, int]:
    """Indices of the two largest entries (ties resolved by lower index)."""
    order = np.argsort(-np.asarray(mean_vector), kind="stable")
    return int(order[0]), int(order[1])


def ttest_certainty(samples: np.ndarray, alpha: float = 0.05) -> tuple[bool, float]:
    """Paired t-test on the top-2 class probability difference.

    Equivalent one-sample form: d_i is the difference, per posterior
    sample, between the probabilities of the two leading classes; the test
    asks whether mean(d) = 0.  Two-sided, so the result does not depend on
    which of the two classes is called first.  When the differences are
    (numerically) constant the t statistic is undefined and the rule
    degenerates to comparing |mean(d)| against zero.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] < 2:
        raise DomainError("need at least 2 posterior samples for a t-test")
    mean_vec = s.mean(axis=0)
    c1, c2 = top_two_classes(mean_vec)
    d = s[:, c1] - s[:, c2]
    n = d.shape[0]
    var = float(d.var(ddof=1))
    mean = float(d.mean())
    if var < DEGENERATE_VAR:
        certain = abs(mean) > DEGENERATE_MEAN
        return certain, 0.0 if certain else 1.0
    t_stat = mean / np.sqrt(var / n)
    p_value = 2.0 * float(stdtr(n - 1, -abs(t_stat)))  # two-sided Student-t tail
    return p_value < alpha, p_value


def pavpu(records: list[PredictionRecord]) -> float:
    """(accurate & certain + inaccurate & uncertain) / all."""
    if not records:
        raise ValidationError("no prediction records")
    good = sum(1 for r in records
               if (r.accurate and r.certain) or (not r.accurate and not r.certain))
    return good / len(records)


def accuracy(records: list[PredictionRecord]) -> float:
    if not records:
        raise ValidationError("no prediction records")
    return sum(1 for r in records if r.accurate) / len(records)


def midrank(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their rank range."""
    v = np.asarray(values)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc_binary(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-based one-vs-rest AUC with midrank tie handling."""
    pos = np.asarray(positives, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DomainError("AUC needs both positive and negative items")
    ranks = midrank(np.asarray(scores, dtype=np.float64))
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def classification_metrics(records: list[PredictionRecord], num_classes: int | None = None,
                           ) -> MetricReport:
    """Macro F1, accuracy, and macro one-vs-rest AUC over the records.

    AUC scores each class by the mean posterior sample vector; classes
    with no positives or no negatives in the truth are left out of the
    macro AUC.  F1 is macro-averaged over all class ids.
    """
    if not records:
        raise ValidationError("no prediction records")
    truth = np.array([r.true_label for r in records])
    pred = np.array([r.point_prediction for r in records])
    scores = np.stack([np.asarray(r.samples, dtype=np.float64).mean(axis=0) for r in records])
    if num_classes is None:
        num_classes = scores.shape[1]
    if len(np.unique(truth)) < 2:
        raise DomainError("AUC undefined with a single class in the truth set")

    per_class = []
    f1s = []
    aucs = []
    for k in range(num_classes):
        tp = int(((pred == k) & (truth == k)).sum())
        fp = int(((pred == k) & (truth != k)).sum())
        fn = int(((pred != k) & (truth == k)).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1s.append(f1)
        row = {"class": k, "precision": precision, "recall": recall, "f1": f1,
               "support": int((truth == k).sum())}
        is_pos = truth == k
        if 0 < is_pos.sum() < len(truth):
            row["auc"] = auc_binary(scores[:, k], is_pos)
            aucs.append(row["auc"])
        per_class.append(row)
    return MetricReport(
        f1_macro=float(np.mean(f1s)),
        accuracy=float((pred == truth).mean()),
        auc_macro=float(np.mean(aucs)),
        per_class=per_class,
    )


def full_report(records: list[PredictionRecord], num_classes: int | None = None) -> MetricReport:
    """Classification metrics plus PAvPU."""
    report = classification_metrics(records, num_classes=num_classes)
    report.pavpu = pavpu(records)
    return report


def qq_table(samples: np.ndarray) -> np.ndarray | None:
    """Normal quantile pairs for the top-2 probability differences.

    Returns an (n, 2) array of (theoretical quantile, standardized
    empirical quantile) rows using the (i - 0.5)/n plotting positions, or
    ``None`` when the differences are numerically constant (degenerate).
    """
    s = np.asarray(samples, dtype=np.float64)
    n = s.shape[0]
    if n < 10:
        raise DomainError("need at least 10 samples for a quantile table")
    c1, c2 = top_two_classes(s.mean(axis=0))
    d = s[:, c1] - s[:, c2]
    sd = d.std(ddof=1)
    if sd * sd < DEGENERATE_VAR:
        return None
    standardized = np.sort((d - d.mean()) / sd)
    theoretical = ndtri((np.arange(1, n + 1) - 0.5) / n)  # standard normal quantiles
    return np.column_stack([theoretical, standardized])


def qq_export(records: list[PredictionRecord]) -> dict[str, np.ndarray | str]:
    """Per-bag quantile tables; degenerate bags are flagged instead."""
    out: dict[str, np.ndarray | str] = {}
    for r in records:
        table = qq_table(r.samples)
        out[r.bag_id] = table if table is not None else "degenerate"
    return out
