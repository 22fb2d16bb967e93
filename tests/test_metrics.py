import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import moediff
from moediff.core import DomainError, ValidationError
from moediff.metrics import (MetricReport, PredictionRecord, accuracy, aggregate_samples,
                             auc_binary, classification_metrics, full_report, midrank,
                             pavpu, qq_export, qq_table, top_two_classes, ttest_certainty)


def record(bag_id, mean_scores, true_label, certain=True, p_value=0.0, n_samples=1):
    samples = np.tile(np.asarray(mean_scores, dtype=np.float64), (n_samples, 1))
    _, point = aggregate_samples(samples)
    return PredictionRecord(bag_id=bag_id, samples=samples, point_prediction=point,
                            true_label=true_label, certain=certain, p_value=p_value)


# -- sample aggregation ---------------------------------------------------------


def test_single_sample_is_its_own_mean():
    mean, point = aggregate_samples(np.array([[0.1, 0.9]]))
    assert np.allclose(mean, [0.1, 0.9])
    assert point == 1


def test_tie_break_takes_lower_index():
    mean, point = aggregate_samples(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(mean, [0.5, 0.5])
    assert point == 0


def test_mean_matches_summation_oracle():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((100, 4))
    mean, _ = aggregate_samples(samples)
    oracle = sum(samples[i] for i in range(100)) / 100.0
    assert np.allclose(mean, oracle, atol=1e-6)


def test_empty_samples_rejected():
    with pytest.raises(ValidationError):
        aggregate_samples(np.zeros((0, 3)))


# -- classification metrics ------------------------------------------------------


def test_all_correct_gives_perfect_f1_and_acc():
    records = [record(f"b{i}", np.eye(3)[i % 3], i % 3) for i in range(9)]
    report = classification_metrics(records)
    assert report.f1_macro == 1.0
    assert report.accuracy == 1.0


def test_perfectly_ranked_binary_auc_is_one():
    records = [record("p1", [0.1, 0.9], 1), record("p2", [0.2, 0.8], 1),
               record("n1", [0.6, 0.4], 0), record("n2", [0.7, 0.3], 0)]
    report = classification_metrics(records)
    assert report.auc_macro == 1.0


def test_hand_dataset_auc_eight_ninths():
    # positives score .9,.8,.4; negatives .7,.3,.2; concordant pairs 8 of 9
    positives = [0.9, 0.8, 0.4]
    negatives = [0.7, 0.3, 0.2]
    records = [record(f"p{i}", [1 - s, s], 1) for i, s in enumerate(positives)]
    records += [record(f"n{i}", [1 - s, s], 0) for i, s in enumerate(negatives)]
    report = classification_metrics(records)
    assert report.auc_macro == pytest.approx(8.0 / 9.0)


def test_single_class_truth_rejected():
    records = [record("a", [0.9, 0.1], 0), record("b", [0.8, 0.2], 0)]
    with pytest.raises(DomainError):
        classification_metrics(records)


def test_auc_matches_pair_counting_oracle():
    # exhaustive Mann-Whitney enumeration on datasets of up to 20 items,
    # coarse scores so ties occur
    rng = np.random.default_rng(1)
    for trial in range(300):
        n = int(rng.integers(3, 21))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)
        implementation = auc_binary(scores, labels == 1)
        num = 0.0
        den = 0
        for i in np.flatnonzero(labels == 1):
            for j in np.flatnonzero(labels == 0):
                den += 1
                if scores[i] > scores[j]:
                    num += 1.0
                elif scores[i] == scores[j]:
                    num += 0.5
        assert implementation == pytest.approx(num / den, abs=1e-12)


def test_midrank_handles_ties():
    assert midrank(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == [3.5, 1.0, 3.5, 2.0]


def test_f1_macro_counts_all_classes():
    # class 2 never predicted nor true: contributes f1 = 0 to the macro
    records = [record("a", [0.9, 0.1, 0.0], 0), record("b", [0.1, 0.9, 0.0], 1),
               record("c", [0.8, 0.2, 0.0], 0), record("d", [0.2, 0.8, 0.0], 1)]
    report = classification_metrics(records, num_classes=3)
    assert report.f1_macro == pytest.approx(2.0 / 3.0)
    assert report.accuracy == 1.0


# -- t-test certainty ---------------------------------------------------------------


def test_identical_samples_with_gap_certain_by_degenerate_rule():
    samples = np.tile([0.8, 0.2], (50, 1))
    certain, p = ttest_certainty(samples)
    assert certain and p == 0.0


def test_identical_samples_without_gap_uncertain():
    samples = np.tile([0.5, 0.5], (50, 1))
    certain, p = ttest_certainty(samples)
    assert not certain and p == 1.0


def test_strong_separation_tiny_p_value():
    rng = np.random.default_rng(2)
    d = rng.normal(0.5, 0.1, 100)
    samples = np.column_stack([0.5 + d / 2, 0.5 - d / 2])
    certain, p = ttest_certainty(samples)
    assert certain
    assert p < 1e-10


def test_needs_two_samples():
    with pytest.raises(DomainError):
        ttest_certainty(np.array([[1.0, 0.0]]))


def test_two_sided_invariance_to_class_order():
    rng = np.random.default_rng(3)
    base = rng.normal(0.1, 1.0, 60)
    fwd = np.column_stack([base, np.zeros(60)])
    rev = np.column_stack([np.zeros(60), base])
    _, p_fwd = ttest_certainty(fwd)
    _, p_rev = ttest_certainty(rev)
    assert p_fwd == pytest.approx(p_rev, rel=1e-12)


def test_p_value_matches_scipy_reference():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = rng.normal(0.05, 1.0, 40)
        samples = np.column_stack([d, np.zeros(40)])
        _, p = ttest_certainty(samples)
        # reference: one-sample two-sided t-test on the differences
        ref = stats.ttest_1samp(d if d.mean() >= 0 else -d, 0.0)
        assert p == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_null_calibration_five_percent():
    # under the null the test must reject ~5% of the time at alpha 0.05
    rng = np.random.default_rng(5)
    rejections = 0
    reps = 10_000
    for _ in range(reps):
        d = rng.standard_normal(100)
        samples = np.column_stack([d, np.zeros(100)])
        certain, _ = ttest_certainty(samples, alpha=0.05)
        rejections += int(certain)
    rate = rejections / reps
    assert abs(rate - 0.05) <= 0.01


# -- pavpu ----------------------------------------------------------------------------


def test_pavpu_all_accurate_certain():
    records = [record(f"b{i}", [0.9, 0.1], 0) for i in range(4)]
    assert pavpu(records) == 1.0


def test_pavpu_counting_definition():
    records = [
        record("ac1", [0.9, 0.1], 0, certain=True),   # accurate & certain
        record("ac2", [0.1, 0.9], 1, certain=True),   # accurate & certain
        record("iu", [0.9, 0.1], 1, certain=False),   # inaccurate & uncertain
        record("ic", [0.9, 0.1], 1, certain=True),    # inaccurate & certain
    ]
    assert pavpu(records) == pytest.approx(0.75)


def test_pavpu_equals_accuracy_when_all_certain():
    rng = np.random.default_rng(6)
    records = []
    for i in range(40):
        true = int(rng.integers(0, 2))
        predicted_scores = [0.9, 0.1] if rng.random() < 0.7 else [0.1, 0.9]
        records.append(record(f"b{i}", predicted_scores, true, certain=True))
    assert pavpu(records) == pytest.approx(accuracy(records))


def test_pavpu_empty_rejected():
    with pytest.raises(ValidationError):
        pavpu([])


# -- quantile tables -------------------------------------------------------------------


def central_max_deviation(table: np.ndarray) -> float:
    theo, emp = table[:, 0], table[:, 1]
    lo, hi = np.quantile(theo, 0.05), np.quantile(theo, 0.95)
    central = (theo >= lo) & (theo <= hi)
    return float(np.abs(emp - theo)[central].max())


def test_qq_rows_equal_sample_count():
    d = np.random.default_rng(7).standard_normal(64)
    table = qq_table(np.column_stack([d, np.zeros(64)]))
    assert table.shape == (64, 2)


def test_qq_requires_ten_samples():
    with pytest.raises(DomainError):
        qq_table(np.zeros((9, 2)))


def test_qq_degenerate_flag_for_constant_differences():
    samples = np.tile([0.7, 0.3], (20, 1))
    assert qq_table(samples) is None
    records = [PredictionRecord("deg", samples, 0, 0, True, 0.0)]
    assert qq_export(records)["deg"] == "degenerate"


def test_qq_normal_data_hugging_the_line_fixed_seed():
    # a representative draw: central-90% deviations inside a narrow band
    d = np.random.default_rng(4).standard_normal(100)
    table = qq_table(np.column_stack([d, np.zeros(100)]))
    assert central_max_deviation(table) <= 0.15


def test_qq_envelope_monte_carlo_oracle():
    # envelope oracle: for exactly normal differences, the central-90%
    # max deviation stays below 0.35 in the overwhelming majority of
    # replications (0.15 is a lucky draw, not the typical radius)
    rng = np.random.default_rng(8)
    inside = 0
    reps = 200
    for _ in range(reps):
        d = rng.standard_normal(100)
        table = qq_table(np.column_stack([d, np.zeros(100)]))
        inside += central_max_deviation(table) <= 0.35
    assert inside / reps >= 0.90


def test_qq_detects_non_normal_differences():
    # heavy-tailed data must leave the envelope far more often than normal
    rng = np.random.default_rng(9)
    inside = 0
    reps = 200
    for _ in range(reps):
        d = rng.standard_t(df=1.5, size=100)
        table = qq_table(np.column_stack([d, np.zeros(100)]))
        inside += central_max_deviation(table) <= 0.35
    assert inside / reps <= 0.50


# -- report assembly --------------------------------------------------------------------


def test_full_report_ranges():
    rng = np.random.default_rng(10)
    records = []
    for i in range(30):
        true = int(rng.integers(0, 3))
        mean_scores = np.full(3, 0.1)
        mean_scores[true if rng.random() < 0.8 else (true + 1) % 3] = 0.8
        records.append(record(f"b{i}", mean_scores, true, certain=bool(rng.random() < 0.9)))
    report = full_report(records, num_classes=3)
    for value in (report.f1_macro, report.accuracy, report.auc_macro, report.pavpu):
        assert 0.0 <= value <= 1.0
    assert isinstance(report.to_dict()["per_class"], list)


def test_import_does_not_load_scipy_stats():
    code = "import sys, moediff; assert 'scipy.stats' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(Path(moediff.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
