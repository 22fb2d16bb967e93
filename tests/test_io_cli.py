import json
import logging
import os
import struct
from dataclasses import asdict

import numpy as np
import pytest

from moediff.cli import cli
from moediff.core import Bag, ConfigError, ValidationError
from moediff.io_formats import (BadMagicError, CrcMismatchError, RunConfig,
                                TrailingBytesError, TruncatedFileError, apply_params, export_params,
                                load_bags, load_checkpoint, load_manifest, read_bag,
                                save_checkpoint, save_manifest, write_bag,
                                write_dataset)
from moediff.synthetic import SynthSpec, generate_dataset
from moediff.training import TrainConfig


def make_bag(n=5, dim=7, seed=0, label=2) -> Bag:
    rng = np.random.default_rng(seed)
    return Bag(instances=rng.standard_normal((n, dim)).astype(np.float32),
               label=label, bag_id="iobag")


# -- bag files ---------------------------------------------------------------


def test_bag_round_trip_bit_identical(tmp_path):
    bag = make_bag()
    path = tmp_path / "bag.mexb"
    write_bag(path, bag)
    back = read_bag(path, label=bag.label, bag_id=bag.bag_id)
    assert back.instances.tobytes() == bag.instances.tobytes()
    assert back.label == bag.label and back.bag_id == bag.bag_id


def test_bag_flipped_payload_byte_is_crc_error(tmp_path):
    path = tmp_path / "bag.mexb"
    write_bag(path, make_bag())
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF  # inside the payload
    path.write_bytes(bytes(raw))
    with pytest.raises(CrcMismatchError):
        read_bag(path)


def test_bag_bad_magic(tmp_path):
    path = tmp_path / "bag.mexb"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        read_bag(path)


def test_bag_truncation(tmp_path):
    path = tmp_path / "bag.mexb"
    write_bag(path, make_bag())
    raw = path.read_bytes()
    path.write_bytes(raw[:-6])
    with pytest.raises(TruncatedFileError):
        read_bag(path)


def test_bag_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "bag.mexb"
    write_bag(path, make_bag(n=3, dim=4))
    path.write_bytes(path.read_bytes() + b"\x00" * 7)
    with pytest.raises(TrailingBytesError):
        read_bag(path)
    assert issubclass(TrailingBytesError, ValidationError)


def test_zero_instance_file_fails_bag_validation(tmp_path):
    import struct
    import zlib
    path = tmp_path / "empty.mexb"
    payload = b""
    with open(path, "wb") as fh:
        fh.write(b"MEXB")
        fh.write(struct.pack("<HII", 1, 0, 7))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(ValidationError):
        read_bag(path)


# -- manifests ------------------------------------------------------------------


def test_dataset_write_and_load(tmp_path):
    spec = SynthSpec(num_classes=2, embedding_dim=8, instances_min=3, instances_max=5,
                     positive_fraction=0.5, seed=4)
    manifest, bags = generate_dataset(spec, 3)
    manifest_path = write_dataset(tmp_path / "ds", manifest, bags, stamp={"seed": 4})
    loaded_manifest, loaded_bags = load_bags(manifest_path)
    assert [e.bag_id for e in loaded_manifest.entries] == [e.bag_id for e in manifest.entries]
    for orig, back in zip(bags, loaded_bags):
        assert back.instances.tobytes() == orig.instances.tobytes()
        assert back.label == orig.label


def test_manifest_missing_file_detected(tmp_path):
    spec = SynthSpec(num_classes=2, embedding_dim=8, instances_min=3, instances_max=5,
                     positive_fraction=0.5, seed=4)
    manifest, bags = generate_dataset(spec, 2)
    manifest_path = write_dataset(tmp_path / "ds", manifest, bags)
    (tmp_path / "ds" / manifest.entries[0].path).unlink()
    with pytest.raises(ValidationError, match="missing file"):
        load_manifest(manifest_path)


def _two_split_dataset(tmp_path):
    """A train and a test split laid out as ``moediff gen`` writes them;
    returns the test manifest path and the first training bag's id."""
    spec = SynthSpec(num_classes=2, embedding_dim=8, instances_min=3, instances_max=5,
                     positive_fraction=0.5, seed=4)
    train, train_bags = generate_dataset(spec, 2)
    test, test_bags = generate_dataset(spec, 1, seed_offset=1000, id_prefix="test")
    write_dataset(tmp_path / "ds" / "train", train, train_bags)
    return write_dataset(tmp_path / "ds" / "test", test, test_bags), train.entries[0].bag_id


def _edit_manifest(path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("absolute", [False, True])
def test_manifest_entry_outside_dataset_is_rejected(tmp_path, absolute):
    manifest_path, train_id = _two_split_dataset(tmp_path)
    other = tmp_path / "ds" / "train" / "bags" / f"{train_id}.mexb"
    path = str(other) if absolute else f"../train/bags/{train_id}.mexb"
    _edit_manifest(manifest_path, lambda doc: doc["entries"][0].update(path=path))
    with pytest.raises(ValidationError, match="leaves the dataset directory"):
        load_bags(manifest_path)


def test_manifest_wrong_embedding_dim_is_rejected(tmp_path):
    manifest_path, _ = _two_split_dataset(tmp_path)
    _edit_manifest(manifest_path, lambda doc: doc.update(embedding_dim=5))
    with pytest.raises(ValidationError, match="embedding_dim 5"):
        load_bags(manifest_path)


@pytest.mark.parametrize("label", ["1", 1.0, True])
def test_manifest_label_must_be_an_int(tmp_path, label):
    manifest_path, _ = _two_split_dataset(tmp_path)
    _edit_manifest(manifest_path, lambda doc: doc["entries"][0].update(label=label))
    with pytest.raises(ValidationError, match="'label' must be int"):
        load_manifest(manifest_path)


def test_manifest_class_count_must_be_an_int(tmp_path):
    manifest_path, _ = _two_split_dataset(tmp_path)
    _edit_manifest(manifest_path, lambda doc: doc.update(class_count="3"))
    with pytest.raises(ValidationError, match="'class_count' must be int"):
        load_manifest(manifest_path)


def test_manifest_bad_json_is_validation_error(tmp_path):
    manifest_path, _ = _two_split_dataset(tmp_path)
    manifest_path.write_text(manifest_path.read_text()[:-3])
    with pytest.raises(ValidationError, match="unreadable manifest"):
        load_manifest(manifest_path)


def test_manifest_missing_entries_is_validation_error(tmp_path):
    manifest_path, _ = _two_split_dataset(tmp_path)
    _edit_manifest(manifest_path, lambda doc: doc.pop("entries"))
    with pytest.raises(ValidationError, match="'entries' must be a list"):
        load_manifest(manifest_path)


def test_manifest_entries_not_a_list_is_validation_error(tmp_path):
    manifest_path, _ = _two_split_dataset(tmp_path)
    _edit_manifest(manifest_path, lambda doc: doc.update(entries=3))
    with pytest.raises(ValidationError, match="'entries' must be a list"):
        load_manifest(manifest_path)


# -- checkpoints --------------------------------------------------------------------


def test_checkpoint_load_then_save_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    params = {"a.weight": rng.standard_normal((3, 4)).astype(np.float32),
              "b.bias": rng.standard_normal(5).astype(np.float32)}
    p1 = tmp_path / "one.mexc"
    save_checkpoint(p1, params, stage="stage1", config_hash="abc123", epoch=7, seed=42)
    manifest, loaded = load_checkpoint(p1)
    p2 = tmp_path / "two.mexc"
    save_checkpoint(p2, loaded, stage=manifest["stage"], config_hash=manifest["config_hash"],
                    epoch=manifest["epoch"], seed=manifest["seed"], extra=manifest["extra"])
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_crc_enforced(tmp_path):
    path = tmp_path / "c.mexc"
    save_checkpoint(path, {"w": np.ones(4, dtype=np.float32)}, stage="stage1",
                    config_hash="x", epoch=1, seed=0)
    raw = bytearray(path.read_bytes())
    raw[-6] ^= 0x01  # corrupt payload near the end
    path.write_bytes(bytes(raw))
    with pytest.raises(CrcMismatchError):
        load_checkpoint(path)


def _two_param_checkpoint(path, b=(5.0, 6.0, 7.0, 8.0)) -> bytes:
    save_checkpoint(path, {"a": np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32),
                           "b": np.array(b, dtype=np.float32)},
                    stage="stage1", config_hash="x", epoch=1, seed=0)
    return path.read_bytes()


def _with_manifest(raw: bytes, edit) -> bytes:
    """Replace the manifest with edit(manifest bytes), fixing its length."""
    (length,) = struct.unpack("<I", raw[6:10])
    manifest = edit(raw[10:10 + length])
    return raw[:6] + struct.pack("<I", len(manifest)) + manifest + raw[10 + length:]


def _catalog_edit(change):
    def edit(manifest: bytes) -> bytes:
        doc = json.loads(manifest)
        change(doc["params"])
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return edit


def test_checkpoint_edited_offset_is_rejected(tmp_path):
    # the CRC covers only the payload: this edit once loaded b from a's bytes
    path = tmp_path / "c.mexc"
    raw = _two_param_checkpoint(path)
    assert raw.count(b'"offset":16') == 1
    path.write_bytes(raw.replace(b'"offset":16', b'"offset":0 '))
    with pytest.raises(ValidationError, match="overlap"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    _catalog_edit(lambda cat: cat.append(dict(cat[1]))),                  # b listed twice
    _catalog_edit(lambda cat: cat[1].update(name="a")),                    # a named twice
    _catalog_edit(lambda cat: cat.pop()),                                  # payload left over
    _catalog_edit(lambda cat: cat[1].update(shape=[3])),                   # gap at the end
    _catalog_edit(lambda cat: cat.reverse()),                              # out of order
    _catalog_edit(lambda cat: cat[0].update(shape=[2], offset=0)),         # gap in the middle
    _catalog_edit(lambda cat: cat[1].update(shape=[-4])),                  # negative size
    _catalog_edit(lambda cat: cat[1].update(offset="16")),                 # wrong type
    _catalog_edit(lambda cat: cat[1].pop("shape")),                        # missing field
    lambda manifest: manifest.replace(b"stage1", b"stage\xff"),           # bad UTF-8
    lambda manifest: manifest[:-1],                                        # bad JSON
    lambda manifest: b"[]",                                                # no catalog
], ids=["duplicate-entry", "duplicate-name", "short-catalog", "short-shape", "reordered",
        "gap", "negative", "offset-type", "no-shape", "utf8", "json", "not-object"])
def test_checkpoint_bad_catalog_is_validation_error(tmp_path, edit):
    path = tmp_path / "c.mexc"
    path.write_bytes(_with_manifest(_two_param_checkpoint(path), edit))
    with pytest.raises(ValidationError):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_parameter_is_rejected(tmp_path, bad):
    path = tmp_path / "c.mexc"
    _two_param_checkpoint(path, b=(5.0, bad, 7.0, 8.0))
    with pytest.raises(ValidationError, match="non-finite"):
        load_checkpoint(path)


def test_checkpoint_config_hash_mismatch_warns(tmp_path, caplog):
    path = tmp_path / "c.mexc"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)}, stage="stage1",
                    config_hash="old", epoch=1, seed=0)
    with caplog.at_level(logging.WARNING, logger="moediff.io_formats"):
        load_checkpoint(path, expect_config_hash="new")
    assert any("config" in r.message for r in caplog.records)


def test_apply_params_round_trip():
    from moediff.moe import MoEAggregator
    model = MoEAggregator(2, 8, np.random.default_rng(3))
    exported = export_params(model)
    other = MoEAggregator(2, 8, np.random.default_rng(99))
    apply_params(other, exported)
    assert export_params(other)["class_embedding"].tobytes() == \
        exported["class_embedding"].tobytes()


def test_apply_params_rejects_catalog_mismatch():
    from moediff.moe import MoEAggregator
    model = MoEAggregator(2, 8, np.random.default_rng(3))
    exported = export_params(model)
    exported.pop("class_embedding")
    with pytest.raises(ValidationError):
        apply_params(MoEAggregator(2, 8, np.random.default_rng(0)), exported)


# -- run config ------------------------------------------------------------------------


def test_config_defaults_are_paper_settings():
    config = RunConfig.from_dict({})
    tc = config.train_config()
    assert tc.stage1.epochs == 100 and tc.stage1.optimizer == "radam"
    assert tc.stage1.lr0 == pytest.approx(2e-4)
    assert tc.stage1.weight_decay == pytest.approx(1e-5)
    assert tc.stage2.epochs == 200 and tc.stage2.optimizer == "adam"
    assert tc.stage2.lr0 == pytest.approx(1e-3)
    assert tc.ratios.alpha0 == 0.25 and tc.ratios.alpha1 == 0.5
    assert tc.diffusion.timesteps == 200 and tc.diffusion.n_samples == 100


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_dict({"turbo": True})
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_dict({"stage1": {"warmup": 5}})


def test_config_range_checks():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"stage1": {"epochs": 0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"ratios": {"alpha0": 1.5}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"uncertainty": {"alpha": 2.0}})


@pytest.mark.parametrize("bad", ["100", 2.5, True])
def test_config_rejects_override_of_wrong_type(bad):
    with pytest.raises(ConfigError, match=r"stage1\.epochs"):
        RunConfig.from_dict({"stage1": {"epochs": bad}})


def test_config_accepts_int_for_float():
    config = RunConfig.from_dict({"grad_clip": 3, "stage1": {"lr0": 1}})
    assert config.train_config().grad_clip == 3
    with pytest.raises(ConfigError, match="stage1.optimizer"):
        RunConfig.from_dict({"stage1": {"optimizer": 1}})


def test_config_defaults_follow_the_dataclasses():
    raw = RunConfig.from_dict({}).raw
    assert raw["seed"] == 1  # the CLI default; the library default is 0
    tc = TrainConfig()
    assert raw["stage1"] == asdict(tc.stage1) and raw["model"] == asdict(tc.model)
    assert raw["synth"]["embedding_dim"] == SynthSpec().embedding_dim


def test_config_seed_env_override(monkeypatch):
    monkeypatch.setenv("MEXD_SEED", "777")
    config = RunConfig.from_dict({"seed": 1})
    assert config.seed == 777
    monkeypatch.setenv("MEXD_SEED", "not-a-number")
    with pytest.raises(ConfigError):
        RunConfig.from_dict({})


def test_config_hash_stable_and_sensitive():
    a = RunConfig.from_dict({})
    b = RunConfig.from_dict({})
    c = RunConfig.from_dict({"seed": 2})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


# -- CLI ----------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_config_file(tmp_path_factory):
    # a deliberately tiny pipeline so the CLI flow runs in seconds
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(json.dumps({
        "seed": 3,
        "synth": {"num_classes": 2, "embedding_dim": 16, "instances_min": 6,
                  "instances_max": 10, "positive_fraction": 0.2,
                  "cluster_separation": 8.0, "noise_std": 1.0, "rotate": True},
        "data": {"train_bags_per_class": 8, "test_bags_per_class": 4},
        "model": {"heads": 4, "ff_multiple": 2, "denoiser_hidden": 32,
                  "time_embed_dim": 16},
        "stage1": {"epochs": 8, "optimizer": "radam", "lr0": 2e-4, "weight_decay": 1e-5},
        "stage2": {"epochs": 30, "optimizer": "adam", "lr0": 1e-3, "weight_decay": 0.0},
        "diffusion": {"timesteps": 10, "beta_min": 0.05, "stride": 1, "n_samples": 20,
                      "use_prior": True},
    }))
    return path


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory, small_config_file):
    work = tmp_path_factory.mktemp("cli")
    data = work / "data"
    assert cli(["gen", "--spec", str(small_config_file), "--out", str(data)]) == 0
    return work, data, small_config_file


def test_cli_full_pipeline(cli_workspace):
    work, data, cfg = cli_workspace
    moe_ckpt = work / "moe.mexc"
    full_ckpt = work / "full.mexc"
    report = work / "report.txt"
    assert cli(["train-moe", "--config", str(cfg), "--data", str(data),
                "--out", str(moe_ckpt)]) == 0
    assert cli(["train-diff", "--config", str(cfg), "--data", str(data),
                "--moe", str(moe_ckpt), "--out", str(full_ckpt)]) == 0
    assert cli(["eval", "--config", str(cfg), "--data", str(data),
                "--ckpt", str(full_ckpt), "--report", str(report)]) == 0
    text = report.read_text()
    for key in ("f1_macro", "accuracy", "auc_macro", "pavpu", "config_hash", "seed"):
        assert key in text
    doc = json.loads((work / "report.txt.json").read_text())
    assert set(doc["metrics"]) >= {"f1_macro", "accuracy", "auc_macro", "pavpu"}


def test_cli_eval_matches_library_metrics(cli_workspace):
    # no CLI-only math: the reported numbers equal a direct library call
    work, data, cfg = cli_workspace
    doc = json.loads((work / "report.txt.json").read_text())

    from moediff.cli import _load_stage2_models
    from moediff.evaluate import evaluate
    from moediff.diffusion import default_schedule
    from moediff.moe import SamplingRatios

    config = RunConfig.load(cfg)
    manifest, moe, den = _load_stage2_models(work / "full.mexc")
    extra = manifest["extra"]
    _, test_bags = load_bags(data / "test" / "manifest.json")
    sched = default_schedule(extra["diffusion"]["timesteps"], extra["diffusion"]["beta_min"])
    report, _ = evaluate(moe, den, sched, test_bags, SamplingRatios(**extra["ratios"]),
                         n_samples=extra["diffusion"]["n_samples"],
                         stride=extra["diffusion"]["stride"], seed=config.seed,
                         alpha=extra["uncertainty"]["alpha"])
    assert doc["metrics"]["accuracy"] == pytest.approx(report.accuracy)
    assert doc["metrics"]["f1_macro"] == pytest.approx(report.f1_macro)
    assert doc["metrics"]["auc_macro"] == pytest.approx(report.auc_macro)
    assert doc["metrics"]["pavpu"] == pytest.approx(report.pavpu)


def test_cli_predict_on_training_bag(cli_workspace):
    work, data, cfg = cli_workspace
    _, bags = load_bags(data / "train" / "manifest.json")
    target = bags[0]
    bag_path = data / "train" / "bags" / f"{target.bag_id}.mexb"
    assert cli(["predict", "--ckpt", str(work / "full.mexc"), "--bag", str(bag_path),
                "--samples", "20"]) == 0


def test_cli_export_scores(cli_workspace):
    work, data, cfg = cli_workspace
    out = work / "scores.csv"
    assert cli(["export-scores", "--ckpt", str(work / "full.mexc"),
                "--data", str(data), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and "config_hash=" in lines[0]
    header = lines[1].split(",")
    assert header == ["bag_id", "instance_index", "expert_index", "score", "routed",
                      "retained"]
    _, test_bags = load_bags(data / "test" / "manifest.json")
    expected_rows = sum(b.size * 2 for b in test_bags)  # num_classes = 2
    assert len(lines) - 2 == expected_rows


def test_cli_sweep_alpha(cli_workspace, tmp_path):
    work, data, cfg = cli_workspace
    out = tmp_path / "sweep.tsv"
    assert cli(["sweep-alpha", "--grid", "0.25x0.5,0.75", "--config", str(cfg),
                "--data", str(data), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split("\t") == ["alpha0", "alpha1", "f1_macro", "accuracy",
                                    "auc_macro", "pavpu"]
    assert len(lines) == 4  # comment + header + 2 grid cells


def test_cli_unknown_flag_exits_2(capsys):
    assert cli(["gen", "--nope", "x"]) == 2
    assert "usage" in capsys.readouterr().err


def test_cli_unknown_command_exits_2():
    assert cli(["frobnicate"]) == 2


def test_cli_failure_is_one_line_and_cleans_outputs(tmp_path, capsys):
    out = tmp_path / "ckpt.mexc"
    code = cli(["train-moe", "--data", str(tmp_path / "missing"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert not out.exists()


def test_cli_gen_failure_removes_the_bag_files_it_wrote(tmp_path, small_config_file,
                                                       monkeypatch):
    # fail inside the second write_dataset, after one test bag is written
    from moediff import io_formats
    cfg = json.loads(small_config_file.read_text())
    train_bags = cfg["synth"]["num_classes"] * cfg["data"]["train_bags_per_class"]
    real_write_bag, calls = io_formats.write_bag, []

    def failing_write_bag(path, bag):
        calls.append(path)
        if len(calls) == train_bags + 2:
            raise OSError("disk full")
        real_write_bag(path, bag)

    monkeypatch.setattr(io_formats, "write_bag", failing_write_bag)
    out = tmp_path / "data"
    assert cli(["gen", "--spec", str(small_config_file), "--out", str(out)]) == 1
    assert len(calls) == train_bags + 2
    assert not [p for p in out.rglob("*") if p.is_file()]


def test_cli_gen_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"unknown_key\": 1}")
    assert cli(["gen", "--spec", str(bad), "--out", str(tmp_path / "d")]) == 1
    assert "error: ConfigError" in capsys.readouterr().err


def test_reproducibility_stamp_present(cli_workspace):
    work, data, cfg = cli_workspace
    manifest = json.loads((data / "train" / "manifest.json").read_text())
    assert {"config_hash", "seed", "artifact_version"} <= set(manifest["stamp"])
    ckpt_manifest, _ = load_checkpoint(work / "full.mexc")
    assert ckpt_manifest["config_hash"] == RunConfig.load(cfg).config_hash()
    assert "artifact_version" in ckpt_manifest
