"""Shared domain types, label encoding and validation.

Class vectors (one-hot labels, probability outputs, diffusion states) are
plain float ndarrays of length ``num_classes``; the helpers here validate
the probability-simplex invariant where a caller requires it.  Labels are
dense integers ``0..K`` with ``0`` reserved for the negative class.

Float convention: 32-bit for model computation, 64-bit wherever a test
oracle needs tight tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROB_ATOL = 1e-6


class DomainError(ValueError):
    """A value outside its documented domain (bad label, bad range)."""


class ValidationError(ValueError):
    """A structural invariant was violated."""


class ConfigError(ValueError):
    """An invalid or inconsistent configuration."""


@dataclass(frozen=True)
class Bag:
    """A set of instance embeddings sharing one label.

    Attributes
    ----------
    instances : ndarray of shape (n, dim)
        Instance embeddings; all entries finite.
    label : int
        Class id in ``[0, K]``; 0 is the negative class.
    bag_id : str
        Opaque identifier, unique within a dataset.
    """

    instances: np.ndarray
    label: int
    bag_id: str

    def __post_init__(self):
        # A read-only copy: the bag cannot change, and the caller's array
        # stays writable.
        inst = np.array(self.instances)
        if inst.ndim != 2 or inst.shape[0] < 1:
            raise ValidationError(f"bag {self.bag_id!r}: instances must be a non-empty 2-D matrix")
        if not np.isfinite(inst).all():
            raise ValidationError(f"bag {self.bag_id!r}: non-finite instance values")
        if self.label < 0:
            raise DomainError(f"bag {self.bag_id!r}: negative label {self.label}")
        inst.setflags(write=False)
        object.__setattr__(self, "instances", inst)

    @property
    def size(self) -> int:
        return self.instances.shape[0]

    @property
    def dim(self) -> int:
        return self.instances.shape[1]


@dataclass(frozen=True)
class ManifestEntry:
    bag_id: str
    path: str
    label: int


@dataclass
class DatasetManifest:
    """Catalog of bag files plus dataset-level dimensions."""

    entries: list[ManifestEntry]
    class_count: int
    embedding_dim: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [e.bag_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate bag_id in manifest")
        for e in self.entries:
            if Path(e.path).is_absolute() or ".." in Path(e.path).parts:
                raise ValidationError(f"manifest entry {e.bag_id!r}: path {e.path!r} "
                                      "leaves the dataset directory")
            if not 0 <= e.label < self.class_count:
                raise DomainError(f"manifest entry {e.bag_id!r}: label {e.label} out of range")

    def check_files(self, root: Path) -> None:
        for e in self.entries:
            if not (Path(root) / e.path).exists():
                raise ValidationError(f"manifest references missing file: {e.path}")


def one_hot(label: int, num_classes: int, dtype=np.float32) -> np.ndarray:
    """Encode a class id as a one-hot vector of length num_classes."""
    if not 0 <= int(label) < num_classes:
        raise DomainError(f"label {label} out of range for {num_classes} classes")
    v = np.zeros(num_classes, dtype=dtype)
    v[int(label)] = 1.0
    return v


def validate_probability(vector: np.ndarray, atol: float = PROB_ATOL) -> np.ndarray:
    """Return the vector unchanged if it lies on the probability simplex.

    Raises
    ------
    ValidationError
        With the offending index when an entry leaves [0, 1], or with the
        actual sum when it differs from 1 by more than ``atol``.
    """
    v = np.asarray(vector)
    if v.ndim != 1:
        raise ValidationError(f"expected 1-D class vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValidationError(f"non-finite entry at index {bad}")
    low = v < -atol
    high = v > 1.0 + atol
    if low.any() or high.any():
        bad = int(np.flatnonzero(low | high)[0])
        raise ValidationError(f"entry {v[bad]:.6g} at index {bad} outside [0, 1]")
    total = float(v.sum())
    if abs(total - 1.0) > atol:
        raise ValidationError(f"entries sum to {total:.8g}, expected 1")
    return vector


def splitmix64(seed: int) -> int:
    """One step of the splitmix64 sequence; used to derive per-bag seeds."""
    z = (int(seed) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-item seed from a dataset seed and an item index."""
    return splitmix64((int(base_seed) << 1) ^ splitmix64(index))
