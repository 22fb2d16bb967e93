"""File formats: bag files, checkpoint archives, dataset manifests,
run configuration, and metric reports.

Bag file layout (little-endian):

    magic   4 bytes  b"MEXB"
    version u16      format version (currently 1)
    n       u32      instance count
    dim     u32      embedding width
    payload n*dim    float32, row-major
    crc32   u32      CRC-32 of the payload bytes

A bag file is exactly 18 + 4*n*dim bytes long; a shorter or longer file
is rejected.

Checkpoint layout (little-endian):

    magic        4 bytes  b"MEXC"
    version      u16
    manifest_len u32
    manifest     JSON (canonical: sorted keys, no spaces)
    payload      concatenated float32 parameter blocks
    crc32        u32      CRC-32 of the payload bytes

The checkpoint manifest records stage, config hash, epoch, seed, and the
parameter catalog (name, shape, byte offset), plus a free-form "extra"
object with whatever the caller needs to rebuild the model.  Because the
JSON is canonical and parameters are stored sorted by name, loading and
re-saving a checkpoint is byte-identical.  The CRC does not cover the
manifest; the loader instead requires the catalog's blocks to tile the
payload exactly, in catalog order, under unique names, and every value to
be finite.

Run configurations are JSON objects merged over a defaults table built
from the library dataclasses (``TrainConfig``, ``SynthSpec``).  Each
override must have its default's type (an int is accepted for a float).
One default differs from the library: the run seed is 1, while
``TrainConfig`` and ``SynthSpec`` default to seed 0.  The ``MEXD_SEED``
environment variable overrides the seed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .core import (Bag, ConfigError, DatasetManifest, DomainError, ManifestEntry,
                   ValidationError)
from .moe import SamplingRatios
from .synthetic import SynthSpec
from .training import TrainConfig

logger = logging.getLogger(__name__)

BAG_MAGIC = b"MEXB"
CKPT_MAGIC = b"MEXC"
FORMAT_VERSION = 1
SEED_ENV_VAR = "MEXD_SEED"


class BadMagicError(ValidationError):
    """The file does not start with the expected magic bytes."""


class TruncatedFileError(ValidationError):
    """The file ends before its declared payload does."""


class TrailingBytesError(ValidationError):
    """The file continues past its declared end."""


class CrcMismatchError(ValidationError):
    """The payload checksum does not match the stored CRC-32."""


# -- bag files -----------------------------------------------------------


def write_bag(path, bag: Bag) -> None:
    payload = np.ascontiguousarray(bag.instances, dtype="<f4").tobytes()
    n, dim = bag.instances.shape
    with open(path, "wb") as fh:
        fh.write(BAG_MAGIC)
        fh.write(struct.pack("<HII", FORMAT_VERSION, n, dim))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def read_bag(path, label: int = 0, bag_id: str | None = None) -> Bag:
    """Read a bag file; label and bag_id come from the caller (usually the
    dataset manifest), not from the file."""
    raw = Path(path).read_bytes()
    if len(raw) < 14 or raw[:4] != BAG_MAGIC:
        raise BadMagicError(f"{path}: not a bag file")
    version, n, dim = struct.unpack("<HII", raw[4:14])
    if version != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported bag format version {version}")
    body_len = 4 * n * dim
    if len(raw) < 18 + body_len:
        raise TruncatedFileError(f"{path}: expected {18 + body_len} bytes, found {len(raw)}")
    if len(raw) > 18 + body_len:
        raise TrailingBytesError(f"{path}: expected {18 + body_len} bytes, found {len(raw)}")
    payload = memoryview(raw)[14:14 + body_len]
    (crc,) = struct.unpack("<I", raw[14 + body_len:])
    if zlib.crc32(payload) != crc:
        raise CrcMismatchError(f"{path}: payload checksum mismatch")
    # Bag() copies the read-only view, so the payload is copied once.
    instances = np.frombuffer(payload, dtype="<f4").reshape(n, dim)
    return Bag(instances=instances, label=label,
               bag_id=bag_id if bag_id is not None else Path(path).stem)


# -- dataset manifests -----------------------------------------------------


def save_manifest(path, manifest: DatasetManifest, stamp: dict | None = None) -> None:
    doc = {
        "format": "moediff-dataset",
        "version": FORMAT_VERSION,
        "class_count": manifest.class_count,
        "embedding_dim": manifest.embedding_dim,
        "entries": [{"bag_id": e.bag_id, "path": e.path, "label": e.label}
                    for e in manifest.entries],
        "meta": manifest.meta,
        "stamp": stamp or {},
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _field(path, doc: dict, key: str, kind: type):
    value = doc.get(key)
    if type(value) is not kind:  # exactly: neither True nor "3" is an int
        raise ValidationError(f"{path}: {key!r} must be {kind.__name__}, got {value!r}")
    return value


def load_manifest(path, check_files: bool = True) -> DatasetManifest:
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: unreadable manifest ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != "moediff-dataset":
        raise ValidationError(f"{path}: not a dataset manifest")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError(f"{path}: 'entries' must be a list of objects")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValidationError(f"{path}: 'meta' must be an object, got {meta!r}")
    try:
        manifest = DatasetManifest(
            entries=[ManifestEntry(bag_id=_field(path, e, "bag_id", str),
                                   path=_field(path, e, "path", str),
                                   label=_field(path, e, "label", int)) for e in entries],
            class_count=_field(path, doc, "class_count", int),
            embedding_dim=_field(path, doc, "embedding_dim", int),
            meta=meta,
        )
    except DomainError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if check_files:
        manifest.check_files(Path(path).parent)
    return manifest


def load_bags(manifest_path) -> tuple[DatasetManifest, list[Bag]]:
    manifest = load_manifest(manifest_path)
    root = Path(manifest_path).parent
    bags = [read_bag(root / e.path, label=e.label, bag_id=e.bag_id)
            for e in manifest.entries]
    for e, bag in zip(manifest.entries, bags):
        if bag.dim != manifest.embedding_dim:
            raise ValidationError(f"{root / e.path}: {bag.dim}-wide instances, manifest "
                                  f"declares embedding_dim {manifest.embedding_dim}")
    return manifest, bags


def write_dataset(out_dir, manifest: DatasetManifest, bags: list[Bag],
                  stamp: dict | None = None) -> Path:
    out = Path(out_dir)
    (out / "bags").mkdir(parents=True, exist_ok=True)
    by_id = {e.bag_id: e for e in manifest.entries}
    for bag in bags:
        write_bag(out / by_id[bag.bag_id].path, bag)
    manifest_path = out / "manifest.json"
    save_manifest(manifest_path, manifest, stamp=stamp)
    return manifest_path


# -- checkpoints -----------------------------------------------------------


def save_checkpoint(path, params: dict[str, np.ndarray], stage: str, config_hash: str,
                    epoch: int, seed: int, extra: dict | None = None) -> None:
    names = sorted(params)
    blocks = []
    catalog = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        blocks.append(arr.tobytes())
        catalog.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    payload = b"".join(blocks)
    manifest = {
        "stage": stage,
        "config_hash": config_hash,
        "epoch": epoch,
        "seed": seed,
        "params": catalog,
        "extra": extra or {},
        "artifact_version": __version__,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<HI", FORMAT_VERSION, len(manifest_bytes)))
        fh.write(manifest_bytes)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_checkpoint(path, expect_config_hash: str | None = None,
                    ) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint; raises ``ValidationError`` unless the payload
    passes its CRC, the catalog's blocks tile it exactly (in catalog order,
    under unique names) and every value is finite."""
    raw = Path(path).read_bytes()
    if len(raw) < 10 or raw[:4] != CKPT_MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file")
    version, manifest_len = struct.unpack("<HI", raw[4:10])
    if version != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {version}")
    if len(raw) < 10 + manifest_len + 4:
        raise TruncatedFileError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[10:10 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: unreadable manifest ({exc})") from exc
    payload = raw[10 + manifest_len:-4]
    (crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != crc:
        raise CrcMismatchError(f"{path}: payload checksum mismatch")
    catalog = manifest.get("params") if isinstance(manifest, dict) else None
    if not isinstance(catalog, list):
        raise ValidationError(f"{path}: manifest has no parameter catalog")
    params: dict[str, np.ndarray] = {}
    end = 0
    for entry in catalog:
        try:
            name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"{path}: malformed catalog entry {entry!r}") from exc
        if not isinstance(name, str) or not all(
                type(v) is int and v >= 0 for v in (offset, *shape)):
            raise ValidationError(f"{path}: malformed catalog entry {entry!r}")
        if name in params:
            raise ValidationError(f"{path}: parameter {name} listed twice")
        if offset != end:
            raise ValidationError(f"{path}: parameter {name} at byte {offset}, "
                                  f"expected {end} (catalog gap or overlap)")
        size = math.prod(shape)
        end = offset + 4 * size
        if end > len(payload):
            raise TruncatedFileError(f"{path}: parameter {name} truncated")
        arr = np.frombuffer(payload, dtype="<f4", count=size, offset=offset)
        if not np.isfinite(arr).all():
            raise ValidationError(f"{path}: parameter {name} has non-finite values")
        params[name] = arr.reshape(shape).copy()
    if end != len(payload):
        raise ValidationError(f"{path}: catalog covers {end} of {len(payload)} payload bytes")
    if expect_config_hash is not None and manifest["config_hash"] != expect_config_hash:
        logger.warning("checkpoint %s was written under config %s, resuming under %s",
                       path, manifest["config_hash"], expect_config_hash)
    return manifest, params


def apply_params(model, params: dict[str, np.ndarray]) -> None:
    """Load a parameter dict (by name) into a model's tensors."""
    from .autodiff import collect_params
    own = dict(collect_params(model))
    missing = sorted(set(own) - set(params))
    surplus = sorted(set(params) - set(own))
    if missing or surplus:
        raise ValidationError(f"parameter catalog mismatch: missing {missing[:3]}, surplus {surplus[:3]}")
    for name, tensor in own.items():
        arr = params[name]
        if tuple(arr.shape) != tuple(tensor.data.shape):
            raise ValidationError(f"parameter {name}: shape {arr.shape} != {tensor.data.shape}")
        tensor.data = arr.astype(tensor.data.dtype)


def export_params(model) -> dict[str, np.ndarray]:
    from .autodiff import collect_params
    return {name: np.array(t.data) for name, t in collect_params(model)}


# -- run configuration ------------------------------------------------------


_DEFAULT_CONFIG = {
    **asdict(TrainConfig()),
    "seed": 1,
    "synth": {k: v for k, v in asdict(SynthSpec()).items() if k != "seed"},
    "data": {"train_bags_per_class": 100, "test_bags_per_class": 34},
    "uncertainty": {"alpha": 0.05},
}


def _type_matches(value, default) -> bool:
    """Whether an override has its default's type; an int may stand for a
    float, and bool never stands for a number."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _merge_checked(defaults: dict, overrides: dict, path: str = "") -> dict:
    merged = {}
    for key, default in defaults.items():
        if key in overrides:
            value = overrides[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config key {path}{key} must be a section")
                merged[key] = _merge_checked(default, value, f"{path}{key}.")
            else:
                if not _type_matches(value, default):
                    raise ConfigError(f"config key {path}{key}: expected {type(default).__name__}, "
                                      f"got {type(value).__name__}")
                merged[key] = value
        else:
            merged[key] = dict(default) if isinstance(default, dict) else default
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(path + k for k in unknown)}")
    return merged


@dataclass
class RunConfig:
    """Fully resolved configuration for a pipeline run."""

    raw: dict

    @classmethod
    def from_dict(cls, overrides: dict | None = None) -> "RunConfig":
        raw = _merge_checked(_DEFAULT_CONFIG, overrides or {})
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                raw["seed"] = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
        config = cls(raw=raw)
        config.train_config()  # range checks
        config.synth_spec()
        if not 0 < raw["uncertainty"]["alpha"] < 1:
            raise ConfigError("uncertainty.alpha must be in (0, 1)")
        if raw["data"]["train_bags_per_class"] < 1 or raw["data"]["test_bags_per_class"] < 1:
            raise ConfigError("bags_per_class values must be >= 1")
        return config

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(doc)

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def stamp(self) -> dict:
        return {"config_hash": self.config_hash(), "seed": self.seed,
                "artifact_version": __version__}

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(seed=self.raw["seed"], **self.raw["synth"])

    def ratios(self) -> SamplingRatios:
        return SamplingRatios(**self.raw["ratios"])

    def train_config(self) -> TrainConfig:
        """``TrainConfig`` with each dataclass-typed field built from its section."""
        types = get_type_hints(TrainConfig)
        return TrainConfig(**{
            f.name: types[f.name](**self.raw[f.name]) if is_dataclass(types[f.name])
            else self.raw[f.name] for f in fields(TrainConfig)})

    def model_extra(self) -> dict:
        """Model-rebuild information stored in checkpoint manifests."""
        return {
            "num_classes": self.raw["synth"]["num_classes"],
            "embedding_dim": self.raw["synth"]["embedding_dim"],
            "model": dict(self.raw["model"]),
            "ratios": dict(self.raw["ratios"]),
            "diffusion": dict(self.raw["diffusion"]),
            "uncertainty": dict(self.raw["uncertainty"]),
        }


# -- reports -----------------------------------------------------------------


def write_report(path, report, stamp: dict, extra: dict | None = None) -> None:
    """Text report plus a machine-readable JSON twin at <path>.json."""
    lines = ["# evaluation report"]
    for key, value in stamp.items():
        lines.append(f"{key}: {value}")
    if extra:
        for key, value in extra.items():
            lines.append(f"{key}: {value}")
    lines.append("")
    lines.append(f"f1_macro: {report.f1_macro:.6f}")
    lines.append(f"accuracy: {report.accuracy:.6f}")
    lines.append(f"auc_macro: {report.auc_macro:.6f}")
    if report.pavpu is not None:
        lines.append(f"pavpu: {report.pavpu:.6f}")
    lines.append("")
    lines.append("class\tprecision\trecall\tf1\tauc\tsupport")
    for row in report.per_class:
        auc = f"{row['auc']:.6f}" if "auc" in row else "n/a"
        lines.append(f"{row['class']}\t{row['precision']:.6f}\t{row['recall']:.6f}"
                     f"\t{row['f1']:.6f}\t{auc}\t{row['support']}")
    Path(path).write_text("\n".join(lines) + "\n")
    doc = {"stamp": stamp, "extra": extra or {}, "metrics": report.to_dict()}
    Path(str(path) + ".json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
