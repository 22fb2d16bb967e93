import numpy as np
import pytest

from moediff.core import (Bag, DatasetManifest, DomainError, ManifestEntry,
                          ValidationError, derive_seed, one_hot, splitmix64,
                          validate_probability)


def test_one_hot_basics():
    assert one_hot(2, 3).tolist() == [0.0, 0.0, 1.0]
    assert one_hot(0, 2).tolist() == [1.0, 0.0]


def test_one_hot_out_of_range():
    with pytest.raises(DomainError):
        one_hot(5, 3)
    with pytest.raises(DomainError):
        one_hot(-1, 3)


def test_one_hot_round_trip_all():
    for n in range(1, 7):
        for k in range(n):
            v = one_hot(k, n)
            assert int(np.argmax(v)) == k
            assert np.array_equal(one_hot(int(np.argmax(v)), n), v)


def test_validate_probability_accepts_simplex_points():
    for v in ([0.3, 0.7], [1.0, 0.0], [0.25, 0.25, 0.5]):
        arr = np.array(v)
        assert validate_probability(arr) is arr


def test_validate_probability_rejects_bad_sum():
    with pytest.raises(ValidationError, match="sum"):
        validate_probability(np.array([0.5, 0.6]))


def test_validate_probability_reports_offending_index():
    with pytest.raises(ValidationError, match="index 1"):
        validate_probability(np.array([0.5, -0.2, 0.7]))
    with pytest.raises(ValidationError, match="index 0"):
        validate_probability(np.array([1.4, -0.4]))


def test_bag_invariants():
    with pytest.raises(ValidationError):
        Bag(instances=np.zeros((0, 4)), label=0, bag_id="empty")
    with pytest.raises(ValidationError):
        Bag(instances=np.array([[1.0, np.nan]]), label=0, bag_id="nan")
    with pytest.raises(DomainError):
        Bag(instances=np.ones((2, 3)), label=-1, bag_id="neg")
    bag = Bag(instances=np.ones((2, 3)), label=1, bag_id="ok")
    assert bag.size == 2 and bag.dim == 3
    with pytest.raises(ValueError):
        bag.instances[0, 0] = 5.0  # immutable after construction


def test_bag_copies_and_leaves_caller_array_writable():
    x = np.zeros((2, 2), np.float32)
    bag = Bag(x, 0, "u")
    x[0, 0] = 2
    assert bag.instances[0, 0] == 0
    assert not bag.instances.flags.writeable


def test_manifest_rejects_duplicates_and_bad_labels():
    entries = [ManifestEntry("a", "a.mexb", 0), ManifestEntry("a", "b.mexb", 1)]
    with pytest.raises(ValidationError):
        DatasetManifest(entries=entries, class_count=2, embedding_dim=4)
    with pytest.raises(DomainError):
        DatasetManifest(entries=[ManifestEntry("a", "a.mexb", 7)],
                        class_count=2, embedding_dim=4)


def test_splitmix64_is_stable_and_spreads():
    assert splitmix64(0) == splitmix64(0)
    values = {splitmix64(i) for i in range(1000)}
    assert len(values) == 1000
    assert derive_seed(1, 2) != derive_seed(2, 1)
