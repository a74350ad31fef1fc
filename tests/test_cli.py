import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import pickle
import re
import shutil
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driverid import config, ingest
from driverid.cli import main
from driverid.config import ConfigError, RunConfig, read_manifest, read_run_config, write_manifest
from driverid.models import MODEL_KINDS, load_model, save_model
from driverid.models.io import FORMAT_VERSION
from driverid.models.registry import REGISTRY
from driverid.preprocess import CLEAN_FORMAT, CleaningConfig, clean, read_clean, read_sidecar
from driverid.synth import generate_trip
from conftest import HEADER_VALUES, edit_doc, edit_saved, header_places

RUN_CONFIG = """
[run]
seed = 11
model = knn

[segmentation]
window_minutes = 4
overlap = 0.5
train_fraction = 0.7

[cleaning]
denoise_window = 5

[model.knn]
k = 3

[grid]
window_minutes = 3,4
overlaps = 0,0.5
features = mean+variance
models = knn
repetitions = 1
"""


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(
        ["synth", "--drivers", "4", "--hours", "0.8", "--seed", "21", "--out", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(RUN_CONFIG)
    return path


class TestSynthCommand:
    def test_writes_logs_truth_and_manifest(self, corpus_dir):
        csvs = sorted(corpus_dir.glob("driver*.csv"))
        truths = sorted(corpus_dir.glob("*.truth.json"))
        assert len(csvs) == 4
        assert len(truths) == 4
        manifest = read_manifest(corpus_dir / "manifest.csv")
        assert len(manifest.entries) == 4

    def test_single_driver_is_usage_error(self, tmp_path):
        assert main(["synth", "--drivers", "1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--rate", "0", "--rate must be finite and positive"),
            ("--rate", "-1", "--rate must be finite and positive"),
            ("--rate", "nan", "--rate must be finite and positive"),
            ("--rate", "inf", "--rate must be finite and positive"),
            ("--hours", "0.01", "--hours must be finite and cover at least one minute"),
            ("--hours", "nan", "--hours must be finite and cover at least one minute"),
            # finite settings whose sample count overflows to infinity
            ("--rate", "1e308", "--hours 0.05 at --rate 1e+308 gives a non-finite sample count"),
            ("--hours", "1e308", "--hours 1e+308 at --rate 2.0 gives a non-finite sample count"),
            # finite sample counts above the largest array size (np.intp's maximum)
            ("--rate", "1e300", "--hours 0.05 at --rate 1e+300 gives more samples than an array can hold"),
            ("--rate", "1e17", "--hours 0.05 at --rate 1e+17 gives more samples than an array can hold"),
        ],
    )
    def test_bad_rate_or_duration_is_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out"
        assert main(["synth", "--hours", "0.05", flag, value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_same_seed_byte_identical(self, tmp_path, workers):
        """In one process or two workers, a seed gives the bytes it gave when
        `synth` wrote each log whole from the main process."""
        digests = {
            "driver01.csv": "e5163f6a37365cae65ec58a1ad96125480965e585ab506309c127651fcd53aa0",
            "driver01.truth.json": "ff3055cdb641fe0a9d23add7a7589e882d1962a9332a2e577198f62987e74f2a",
            "driver02.csv": "234d7ec63eb1cbd32975b8a08856418e316785f36c7ba8758ca58744f24b952e",
            "driver02.truth.json": "0cfa47ca59685a8c5a6bd212c184e3a11510db968c60bcc6e3427701e0ec3842",
            "manifest.csv": "7069a6e625d2e8d95af7b621f9df0866da45b48ecaa7d73b29b5c080e5722e04",
        }
        for n in (1, 2):
            workers(n)
            out = tmp_path / f"workers{n}"
            assert main(
                ["synth", "--drivers", "2", "--hours", "0.05", "--seed", "5", "--out", str(out)]
            ) == 0
            assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()} == digests


class TestCleanCommand:
    def test_writes_cleaned_logs_with_sidecars(self, corpus_dir, config_path, tmp_path):
        out = tmp_path / "cleaned"
        code = main(
            ["clean", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            *(f"driver0{i}.clean.{ext}" for i in range(1, 5) for ext in ("json", "npz")), "manifest.csv"
        ]
        with np.load(out / "driver01.clean.npz", allow_pickle=False) as arrays:
            assert sorted(arrays.files) == ["data", "t"]
            n = arrays["t"].shape[0]
            assert arrays["t"].dtype == arrays["data"].dtype == np.float64
            assert arrays["data"].shape == (n, 6)
        sidecar = json.loads((out / "driver01.clean.json").read_text())
        assert sidecar["format"] == CLEAN_FORMAT
        assert sidecar["cleaning"] == read_run_config(config_path).pipeline_record()["cleaning"]
        assert sidecar["provenance"] == ["denoise", "reorient", "fill_gaps", "remove_stops"]
        assert "stop_intervals" in sidecar


    @pytest.mark.usefixtures("one_worker")
    def test_two_trips_of_one_driver_keep_their_names(self, corpus_dir, config_path, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        for name in ("monday.csv", "tuesday.csv"):
            shutil.copy(corpus_dir / "driver01.csv", logs / name)
        manifest = tmp_path / "manifest.csv"
        write_manifest(
            [(logs / "monday.csv", "driver01", 2.0), (logs / "tuesday.csv", "driver01", 2.0),
             (corpus_dir / "driver02.csv", "driver02", 2.0)],
            manifest,
        )
        out = tmp_path / "cleaned"
        assert main(["clean", "--manifest", str(manifest), "--config", str(config_path), "--out", str(out)]) == 0
        cleaned = read_manifest(out / "manifest.csv")
        assert [(p.name, d) for p, d, _ in cleaned.entries] == [
            ("monday.clean.npz", "driver01"), ("tuesday.clean.npz", "driver01"), ("driver02.clean.npz", "driver02"),
        ]
        assert main(["train", "--manifest", str(out / "manifest.csv"), "--config", str(config_path),
                     "--out", str(tmp_path / "model")]) == 0

    @pytest.mark.usefixtures("one_worker")
    def test_two_logs_of_one_name_exit_2_before_any_log_is_read(
        self, corpus_dir, config_path, tmp_path, monkeypatch, capsys
    ):
        reads = []
        monkeypatch.setattr(ingest, "read_log", lambda *args: reads.append(args))
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            shutil.copy(corpus_dir / "driver01.csv", tmp_path / sub / "trip.csv")
        manifest = tmp_path / "manifest.csv"
        write_manifest([(tmp_path / "a" / "trip.csv", "driver01", 2.0), (tmp_path / "b" / "trip.csv", "driver02", 2.0)], manifest)
        out = tmp_path / "cleaned"
        assert main(["clean", "--manifest", str(manifest), "--config", str(config_path), "--out", str(out)]) == 2
        assert reads == []
        assert not out.exists()
        assert "manifest has 2 logs that `clean` would write as trip.clean.npz" in capsys.readouterr().err


class TestTrainCommand:
    def test_train_writes_model_and_report(self, corpus_dir, config_path, tmp_path):
        out = tmp_path / "model"
        code = main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
        assert (out / "model.json").exists()
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["classes"]) == 4
        assert report["seed"] == 11
        assert report["config_snapshot"]["model"]["kind"] == "knn"
        for driver, counts in report["window_counts"].items():
            assert counts["train"] > 0
        record = json.loads((out / "model.json").read_text())["pipeline"]
        assert record == {k: report["config_snapshot"][k] for k in ("cleaning", "segmentation", "features")}

    def test_missing_log_fails_without_outputs(self, tmp_path, config_path):
        manifest = tmp_path / "manifest.csv"
        write_manifest([("nope.csv", "ghost", 2.0)], manifest)
        out = tmp_path / "model"
        code = main(
            ["train", "--manifest", str(manifest), "--config", str(config_path),
             "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()


class TestEvaluateCommand:
    def test_evaluate_after_train(self, corpus_dir, config_path, tmp_path):
        model_dir = tmp_path / "model"
        assert main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(model_dir)]
        ) == 0
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--model", str(model_dir / "model.json"),
             "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_test_windows"] > 0
        assert 0.0 <= report["accuracy"] <= 1.0
        assert (out / "report.csv").read_text().startswith("true\\predicted,")

    def test_mismatched_feature_config_is_schema_error(
        self, corpus_dir, config_path, tmp_path
    ):
        model_dir = tmp_path / "model"
        assert main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(model_dir)]
        ) == 0
        bad_cfg = tmp_path / "bad.ini"
        bad_cfg.write_text(RUN_CONFIG + "\n[features]\nfamilies = mean\n")
        code = main(
            ["evaluate", "--model", str(model_dir / "model.json"),
             "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(bad_cfg), "--out", str(tmp_path / "eval")]
        )
        assert code == 2

    def test_other_feature_settings_fail_loudly(self, corpus_dir, config_path, tmp_path, capsys):
        # same dimension, other features: this once scored 0.25 instead of 0.58, exit code 0
        model_dir = tmp_path / "model"
        assert main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(model_dir)]
        ) == 0
        bad_cfg = tmp_path / "bad.ini"
        bad_cfg.write_text(
            RUN_CONFIG + "\n[features]\ntrim_keep_fraction = 0.5\ndifference_uses_sum = true\n"
        )
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--model", str(model_dir / "model.json"),
             "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(bad_cfg), "--out", str(out)]
        )
        assert code == 2
        assert "features.trim_keep_fraction" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.usefixtures("one_worker")
    def test_driver_the_model_was_not_trained_on_exits_2_before_any_log_is_read(
        self, corpus_dir, config_path, tmp_path, monkeypatch, capsys
    ):
        entries = read_manifest(corpus_dir / "manifest.csv").entries
        write_manifest(entries[:2], tmp_path / "two.csv")
        write_manifest(entries[:3], tmp_path / "three.csv")
        model_file = tmp_path / "model" / "model.json"
        assert main(
            ["train", "--manifest", str(tmp_path / "two.csv"),
             "--config", str(config_path), "--out", str(model_file.parent)]
        ) == 0
        reads = []
        monkeypatch.setattr(ingest, "read_log", lambda *args: reads.append(args))
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--model", str(model_file), "--manifest", str(tmp_path / "three.csv"),
             "--config", str(config_path), "--out", str(out)]
        )
        assert code == 2
        assert reads == []
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"manifest drivers ['{entries[2][1]}'] are not among the classes {model_file} was trained on" in err

    def test_model_without_pipeline_record_rejected(self, corpus_dir, config_path, tmp_path):
        model_dir = tmp_path / "model"
        assert main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(model_dir)]
        ) == 0
        model = load_model(model_dir / "model.json")
        model.pipeline = None  # as saved through the library API
        save_model(model, model_dir / "model.json")
        assert json.loads((model_dir / "model.json").read_text())["pipeline"] is None
        code = main(
            ["evaluate", "--model", str(model_dir / "model.json"),
             "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(tmp_path / "eval")]
        )
        assert code == 2


def _version_1(doc):
    doc["format_version"] = 1


def _one_feature_more(doc):
    doc["n_features"] += 1


def _classes_reversed(doc):
    doc["class_list"].reverse()


def _class_duplicated(doc):
    doc["class_list"][1] = doc["class_list"][0]


def _version_as_float(doc):
    doc["format_version"] = float(doc["format_version"])


def _fractional_feature_count(doc):
    doc["n_features"] += 0.9


def _set(key, value):
    def damage(doc):
        doc[key] = value
    damage.__name__ = f"{key}_{value!r}"
    return damage


@pytest.fixture(scope="module")
def trained_model(corpus_dir, tmp_path_factory):
    """The directory where `train` wrote a knn model's model.json and model.npz."""
    model_dir = tmp_path_factory.mktemp("model")
    config_file = model_dir / "run.ini"
    config_file.write_text(RUN_CONFIG)
    assert main(
        ["train", "--manifest", str(corpus_dir / "manifest.csv"),
         "--config", str(config_file), "--out", str(model_dir)]
    ) == 0
    return model_dir


@pytest.fixture(scope="module")
def kind_models(corpus_dir, tmp_path_factory):
    """kind -> the directory where `train` wrote a small model of that kind,
    with the run config it used, from the corpus cleaned once into a manifest
    beside them (`cleaned.csv`)."""
    root = tmp_path_factory.mktemp("kinds")
    text = (  # 12 feature columns, so schema labels are not most of a header's fields
        RUN_CONFIG + "[features]\nfamilies = mean+variance\n"
        "[model.rforest]\nn_trees = 3\n[model.mlp]\nhidden_layers = 4\nmax_epochs = 2\n"
    )
    (root / "run.ini").write_text(text)
    common = ["--config", str(root / "run.ini")]
    assert main(["clean", "--manifest", str(corpus_dir / "manifest.csv"), *common, "--out", str(root / "clean")]) == 0
    shutil.move(root / "clean" / "manifest.csv", root / "clean" / "cleaned.csv")
    models = {}
    for kind in MODEL_KINDS:
        models[kind] = root / kind
        models[kind].mkdir()
        (models[kind] / "run.ini").write_text(text.replace("model = knn", f"model = {kind}"))
        assert main(
            ["train", "--manifest", str(root / "clean" / "cleaned.csv"),
             "--config", str(models[kind] / "run.ini"), "--out", str(models[kind])]
        ) == 0
    return models


def copy_model(model_dir: Path, dest: Path) -> Path:
    """MODEL_DIR's model.json and model.npz copied into DEST; the copy's header."""
    for name in ("model.json", "model.npz"):
        shutil.copy(model_dir / name, dest / name)
    return dest / "model.json"


def _rewrite_members(name, edit):
    """Damage: model.npz rewritten with EDIT done to its arrays, by name."""
    def damage(npz):
        with np.load(npz, allow_pickle=True) as archive:
            arrays = {key: archive[key] for key in archive.files}
        edit(arrays)
        np.savez(npz, **arrays)
    damage.__name__ = name
    return damage


def _pickled_member(npz):
    """Damage: one member of model.npz a pickle in place of its .npy."""
    with np.load(npz) as archive:
        arrays = {key: archive[key] for key in archive.files}
    with zipfile.ZipFile(npz, "w") as archive:
        for key, value in arrays.items():
            archive.writestr(f"{key}.npy", pickle.dumps(value) if key == "params.train_y" else _npy_bytes_of(value))


def _npy_bytes_of(value):
    sink = io.BytesIO()
    np.save(sink, value)
    return sink.getvalue()


def _another_models_arrays(npz):
    """Damage: model.npz replaced by the archive of a model with other rows."""
    model = load_model(npz.with_suffix(".json"))
    model.params.train_x = model.params.train_x + 1.0
    (npz.parent / "other").mkdir()
    save_model(model, npz.parent / "other" / "model.json")
    shutil.copy(npz.parent / "other" / "model.npz", npz)


class TestRejectedModelFile:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.usefixtures("one_worker")
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_header_field_edit_exits_0_or_2(self, kind_models, kind, data):
        header = json.loads((kind_models[kind] / "model.json").read_text())
        place = data.draw(st.sampled_from(sorted(header_places(header), key=str)), label="field")
        value = data.draw(st.sampled_from(HEADER_VALUES), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            model_file = copy_model(kind_models[kind], Path(tmp))
            edit_saved(model_file, {place: value})
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(
                    ["evaluate", "--model", str(model_file),
                     "--manifest", str(kind_models[kind].parent / "clean" / "cleaned.csv"),
                     "--config", str(kind_models[kind] / "run.ini"), "--out", str(Path(tmp) / "eval")]
                )
            assert code in (0, 2), stderr.getvalue()
            assert (Path(tmp) / "eval").exists() == (code == 0)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (_version_1, "version 1, .*retrain"),
            (None, "could not parse"),   # truncated
            (_one_feature_more, "schema mismatch"),
            (_classes_reversed, "class_list must be sorted and distinct"),
            (_class_duplicated, "class_list must be sorted and distinct"),
            (_set("format_version", 2), "version 2, .*retrain"),
            (_version_as_float, r"format_version: expected an integer, got 3\.0"),
            (_fractional_feature_count, r"n_features: expected an integer, got \d+\.9"),
            ("[]", "not a JSON object"),   # the whole file
            # a field of another JSON type
            (_set("class_list", None), "class_list must be a list of strings, got None"),
            (_set("standardizer", "x"), "standardizer must be null or an object, got 'x'"),
            (_set("schema_labels", 1.5), "schema_labels must be null or a list of strings, got 1.5"),
        ],
    )
    def test_exits_2_before_writing_anything(
        self, corpus_dir, config_path, trained_model, tmp_path, capsys, damage, message
    ):
        model_file = copy_model(trained_model, tmp_path)
        text = model_file.read_text()
        if damage is None:
            model_file.write_text(text[: len(text) // 2])
        elif isinstance(damage, str):
            model_file.write_text(damage)
        else:
            doc = json.loads(text)
            assert doc["format_version"] == FORMAT_VERSION
            damage(doc)
            model_file.write_text(json.dumps(doc))
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--model", str(model_file),
             "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(model_file) in err
        assert re.search(message, err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, pin, message",
        [
            (lambda npz: npz.unlink(), False, "model.npz: .*No such file"),
            (_another_models_arrays, False, "model.npz: sha256 differs from the header's arrays_sha256"),
            (lambda npz: npz.write_bytes(npz.read_bytes()[:-100]), False, "model.npz: sha256 differs"),  # truncated
            (_rewrite_members("extra_member", lambda a: a.update(extra=np.zeros(1))), True,
             r"model.npz: expected arrays \[.*\], got \[.*'extra'"),
            (_rewrite_members("missing_member", lambda a: a.pop("params.train_y")), True,
             r"model.npz: expected arrays \[.*'params.train_y'.*\], got \[(?!.*train_y)"),
            (_rewrite_members("object_member", lambda a: a.update({"params.train_y": a["params.train_y"].astype(object)})),
             True, "model.npz: Object arrays cannot be loaded"),
            (_pickled_member, True, "model.npz: array params.train_y must be float64 or int64, got bytes"),
            (_rewrite_members("big_endian", lambda a: a.update({"params.train_x": a["params.train_x"].astype(">f8")})),
             True, "model.npz: array params.train_x must be float64 or int64, got >f8"),
            (lambda npz: npz.write_bytes(_npy_bytes(None)), True, "model.npz: not an .npz archive"),
        ],
        ids=["missing", "another_models", "truncated", "extra_member", "missing_member", "object_member",
             "pickled_member", "big_endian", "npy_in_place_of_zip"],
    )
    def test_archive_fault_exits_2(self, corpus_dir, config_path, trained_model, tmp_path, capsys, damage, pin, message):
        model_file = copy_model(trained_model, tmp_path)
        damage(model_file.with_suffix(".npz"))
        if pin:  # the header's digest made the damaged archive's, so the damage reaches the reader's checks
            doc = json.loads(model_file.read_text())
            with open(model_file.with_suffix(".npz"), "rb") as fh:
                doc["arrays_sha256"] = hashlib.file_digest(fh, "sha256").hexdigest()
            model_file.write_text(json.dumps(doc))
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--model", str(model_file), "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(model_file) in err
        assert re.search(message, err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("hidden_layers", 5, "config.hidden_layers: expected a list, got 5"),
            ("activation", "tanh", "config.activation 'relu' differs from activation 'tanh'"),
        ],
    )
    def test_bad_stored_mlp_value_exits_2(self, corpus_dir, tmp_path, capsys, key, value, message):
        config = tmp_path / "run.ini"
        config.write_text(
            RUN_CONFIG.replace("model = knn", "model = mlp") + "\n[model.mlp]\nhidden_layers = 4\nmax_epochs = 2\n"
        )
        manifest = str(corpus_dir / "manifest.csv")
        assert main(["train", "--manifest", manifest, "--config", str(config), "--out", str(tmp_path)]) == 0
        model_file = tmp_path / "model.json"
        doc = json.loads(model_file.read_text())
        (doc["params"]["config"] if key == "hidden_layers" else doc["params"])[key] = value
        model_file.write_text(json.dumps(doc))
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--model", str(model_file), "--manifest", manifest,
             "--config", str(config), "--out", str(out)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTrainDeterminism:
    def test_same_seed_byte_identical_model_and_reports(
        self, corpus_dir, config_path, tmp_path
    ):
        outputs = []
        for name in ("one", "two"):
            model_dir = tmp_path / name
            assert main(
                ["train", "--manifest", str(corpus_dir / "manifest.csv"),
                 "--config", str(config_path), "--out", str(model_dir)]
            ) == 0
            eval_dir = tmp_path / f"eval_{name}"
            assert main(
                ["evaluate", "--model", str(model_dir / "model.json"),
                 "--manifest", str(corpus_dir / "manifest.csv"),
                 "--config", str(config_path), "--out", str(eval_dir)]
            ) == 0
            outputs.append(
                (
                    (model_dir / "model.json").read_bytes(),
                    (model_dir / "train_report.json").read_bytes(),
                    (eval_dir / "report.json").read_bytes(),
                    (eval_dir / "report.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]


class TestGridCommand:
    def test_grid_writes_reports(self, corpus_dir, config_path, tmp_path):
        out = tmp_path / "grid"
        code = main(
            ["grid", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "grid_report.json").read_text())
        assert doc["complete"] is True
        assert len(doc["rows"]) == 4  # 2 windows x 2 overlaps x 1 subset x 1 model
        csv_lines = (out / "grid_report.csv").read_text().splitlines()
        assert csv_lines[0] == "window_minutes,overlap,features,model,mean_accuracy,std,error"
        assert len(csv_lines) == 5


    @pytest.mark.usefixtures("one_worker")
    def test_report_records_the_run_settings(self, corpus_dir, tmp_path):
        # a 60-minute window does not fit the 0.8 h trips: every cell fails alike, so the rows match
        base = (
            "[run]\nmodel = knn\n"
            "[grid]\nwindow_minutes = 60\noverlaps = 0.5\nfeatures = mean\nmodels = knn,mlp\nrepetitions = 1\n"
        )
        variants = {
            "base": "", "mlp": "[model.mlp]\nlearning_rate = 0.01\n", "cleaning": "[cleaning]\ndenoise_window = 7\n"
        }
        reports = {}
        for name, text in variants.items():
            path = tmp_path / f"{name}.ini"
            path.write_text(base + text)
            out = tmp_path / name
            assert main(
                ["grid", "--manifest", str(corpus_dir / "manifest.csv"), "--config", str(path), "--out", str(out)]
            ) == 0
            reports[name] = (out / "grid_report.json").read_bytes()
        assert len(set(reports.values())) == 3
        docs = {name: json.loads(report) for name, report in reports.items()}
        assert docs["base"]["rows"] == docs["mlp"]["rows"] == docs["cleaning"]["rows"]
        assert all(row["error"] for row in docs["base"]["rows"])
        snapshot = read_run_config(tmp_path / "base.ini").snapshot()
        assert docs["base"]["config_snapshot"] == json.loads(json.dumps(snapshot))
        assert docs["cleaning"]["config_snapshot"]["cleaning"]["denoise_window"] == 7
        defaults = {kind: dict(REGISTRY[kind].defaults) for kind in ("knn", "mlp")}
        assert docs["base"]["model_params"] == json.loads(json.dumps(defaults))
        assert docs["mlp"]["model_params"]["mlp"] == {**docs["base"]["model_params"]["mlp"], "learning_rate": 0.01}

    @pytest.mark.usefixtures("one_worker")
    def test_grid_trains_each_kind_with_its_section(self, corpus_dir, tmp_path, monkeypatch):
        import driverid.evaluation as evaluation

        seen = []
        real = evaluation.train_model

        def spy(kind, train, params=None, seed=0, standardizer=None):
            seen.append((kind, params))
            return real(kind, train, params, seed=seed, standardizer=standardizer)

        monkeypatch.setattr(evaluation, "train_model", spy)
        path = tmp_path / "grid.ini"
        path.write_text(
            "[run]\nmodel = mlp\n[model.knn]\nk = 1\n"
            "[grid]\nwindow_minutes = 4\noverlaps = 0.5\nfeatures = mean\nmodels = knn\nrepetitions = 1\n"
        )
        code = main(
            ["grid", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(path), "--out", str(tmp_path / "grid")]
        )
        assert code == 0
        assert seen == [("knn", {"k": 1})]

    def test_knn_row_equals_train_then_evaluate(self, corpus_dir, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nmodel = knn\n[segmentation]\nwindow_minutes = 4\noverlap = 0.5\n"
            "[features]\nfamilies = histogram+correlation\n[model.knn]\nk = 3\n"
            "[grid]\nwindow_minutes = 4\noverlaps = 0.5\nfeatures = histogram+correlation\n"
            "models = knn\nrepetitions = 1\n"
        )
        common = ["--manifest", str(corpus_dir / "manifest.csv"), "--config", str(path)]
        assert main(["train", *common, "--out", str(tmp_path / "model")]) == 0
        assert main(
            ["evaluate", *common, "--model", str(tmp_path / "model" / "model.json"),
             "--out", str(tmp_path / "eval")]
        ) == 0
        assert main(["grid", *common, "--out", str(tmp_path / "grid")]) == 0
        [row] = json.loads((tmp_path / "grid" / "grid_report.json").read_text())["rows"]
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert row["mean_accuracy"] == report["accuracy"]

    def test_reports_identical_at_one_and_two_workers(self, corpus_dir, tmp_path, workers):
        path = tmp_path / "grid.ini"
        path.write_text(  # a 60-minute window does not fit the 0.8 h trips
            "[model.rforest]\nn_trees = 3\n"
            "[grid]\nwindow_minutes = 3,60\noverlaps = 0.5\nfeatures = mean,histogram\n"
            "models = knn,rforest\nrepetitions = 2\n"
        )
        reports = []
        for n in (1, 2):
            workers(n)
            out = tmp_path / f"grid{n}"
            assert main(
                ["grid", "--manifest", str(corpus_dir / "manifest.csv"),
                 "--config", str(path), "--out", str(out)]
            ) == 0
            reports.append([(out / name).read_bytes() for name in ("grid_report.csv", "grid_report.json")])
        assert reports[0] == reports[1]
        rows = json.loads(reports[0][1])["rows"]
        assert len(rows) == 8
        assert sum(row["error"] is None for row in rows) == 4
        assert {row["window_minutes"] for row in rows if row["error"]} == {60.0}

    def test_interrupt_writes_partial_report_and_stops_workers(
        self, corpus_dir, config_path, tmp_path, monkeypatch, workers, capsys
    ):
        import driverid.evaluation as evaluation

        workers(2)
        real = evaluation.iter_grid
        children = []

        def interrupted_after_first_row(*args, **kwargs):
            rows = real(*args, **kwargs)
            yield next(rows)
            children.extend(multiprocessing.active_children())
            raise KeyboardInterrupt

        monkeypatch.setattr(evaluation, "iter_grid", interrupted_after_first_row)
        out = tmp_path / "grid"
        code = main(
            ["grid", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(out)]
        )
        assert code == 1
        assert "interrupted" in capsys.readouterr().err
        doc = json.loads((out / "grid_report.json").read_text())
        assert doc["complete"] is False
        assert [(row["window_minutes"], row["overlap"]) for row in doc["rows"]] == [(3.0, 0.0)]
        assert len(children) == 2  # the sweep was running in workers
        assert multiprocessing.active_children() == []


class TestWorkerCount:
    def manifest_plus(self, corpus_dir, tmp_path, name, text=None):
        """The corpus manifest plus one more log, NAME; written only if TEXT is given."""
        entries = list(read_manifest(corpus_dir / "manifest.csv").entries)
        if text is not None:
            (tmp_path / name).write_text(text)
        entries.append((tmp_path / name, "extra", 2.0))
        write_manifest(entries, tmp_path / "manifest.csv")
        return str(tmp_path / "manifest.csv")

    @pytest.mark.parametrize("command", ["clean", "train", "grid"])
    def test_missing_log_named_before_any_worker_starts(
        self, corpus_dir, config_path, tmp_path, workers, capsys, command
    ):
        workers(2)
        manifest = self.manifest_plus(corpus_dir, tmp_path, "nope.csv")
        out = tmp_path / "out"
        code = main([command, "--manifest", manifest, "--config", str(config_path), "--out", str(out)])
        assert code == 1
        assert f"error: manifest log not found: {tmp_path / 'nope.csv'}" in capsys.readouterr().err
        assert not out.exists()

    def test_worker_error_keeps_its_type_and_message(self, corpus_dir, config_path, tmp_path, workers, capsys):
        workers(2)
        manifest = self.manifest_plus(corpus_dir, tmp_path, "bad.csv", "time,ax\n0,1\n")
        code = main(["train", "--manifest", manifest, "--config", str(config_path), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "error: malformed header" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_clean_train_evaluate_identical_at_one_and_two_workers(
        self, corpus_dir, config_path, tmp_path, workers
    ):
        common = ["--manifest", str(corpus_dir / "manifest.csv"), "--config", str(config_path)]
        artifacts = []
        for n in (1, 2):
            workers(n)
            out = tmp_path / f"w{n}"
            assert main(["clean", *common, "--out", str(out / "clean")]) == 0
            assert main(["train", *common, "--out", str(out / "model")]) == 0
            assert main(
                ["evaluate", *common, "--model", str(out / "model" / "model.json"),
                 "--out", str(out / "eval")]
            ) == 0
            # the same model and reports again, from the cleaned trips read back
            cleaned = ["--manifest", str(out / "clean" / "manifest.csv"), "--config", str(config_path)]
            assert main(["train", *cleaned, "--out", str(out / "model_c")]) == 0
            assert main(
                ["evaluate", *cleaned, "--model", str(out / "model_c" / "model.json"),
                 "--out", str(out / "eval_c")]
            ) == 0
            made = [
                ("model", "model.json"), ("model", "train_report.json"),
                ("eval", "report.json"), ("eval", "report.csv"),
            ]
            for folder, name in made:
                assert (out / f"{folder}_c" / name).read_bytes() == (out / folder / name).read_bytes()
            files = sorted(out.glob("clean/*")) + [out / folder / name for folder, name in made]
            artifacts.append({f.relative_to(out): f.read_bytes() for f in files})
        assert len(artifacts[0]) == 4 * 2 + 1 + 4  # arrays, sidecars, manifest; model, reports
        assert artifacts[0] == artifacts[1]


@pytest.fixture(scope="module")
def cleaned_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cleaned")
    assert main(["clean", "--manifest", str(corpus_dir / "manifest.csv"), "--out", str(out)]) == 0
    return out


def _rewrite_npz(name, **arrays):
    """Damage: driver01's arrays replaced by ARRAYS, each a function of the originals."""
    def damage(root, entries):
        path = root / "driver01.clean.npz"
        with np.load(path) as npz:
            old = {key: npz[key] for key in npz.files}
        np.savez(path, **{key: make(old) for key, make in arrays.items()})
        return path
    damage.__name__ = name
    return damage


def _edit_sidecar(name, edit, culprit="driver01.clean.json"):
    """Damage: driver01's sidecar changed by EDIT; the message names CULPRIT."""
    def damage(root, entries):
        path = root / "driver01.clean.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return root / culprit
    damage.__name__ = name
    return damage


def _edit_entry(name, driver_id=None, rate=None):
    """Damage: the manifest's driver01 entry given another driver or rate."""
    def damage(root, entries):
        path, old_driver, old_rate = entries[0]
        entries[0] = (path, driver_id or old_driver, rate or old_rate)
        return root / "driver01.clean.json"
    damage.__name__ = name
    return damage


def _replace_npz(name, make):
    """Damage: driver01's archive replaced by the bytes MAKE gives for its old bytes."""
    def damage(root, entries):
        path = root / "driver01.clean.npz"
        path.write_bytes(make(path.read_bytes()))
        return path
    damage.__name__ = name
    return damage


def _npy_bytes(old):
    return _npy_bytes_of(np.zeros(3))


def _old_clean_csv(root, entries):
    """Damage: driver01 as the CSV log an older `clean` wrote, beside its sidecar."""
    path = root / "driver01.clean.csv"
    (root / "driver01.clean.npz").rename(path)
    entries[0] = (path, *entries[0][1:])
    return path


_no_format = _edit_sidecar("no_format", lambda doc: doc.pop("format"))
CLEANED_DAMAGE = [
    (_rewrite_npz("missing_array", t=lambda a: a["t"]), r"expected arrays \['data', 't'\], got \['t'\]"),
    (_rewrite_npz("extra_array", t=lambda a: a["t"], data=lambda a: a["data"], x=lambda a: a["t"]),
     r"expected arrays \['data', 't'\], got \['data', 't', 'x'\]"),
    (_rewrite_npz("object_array", t=lambda a: a["t"].astype(object), data=lambda a: a["data"]),
     "Object arrays cannot be loaded"),
    (_rewrite_npz("float32_data", t=lambda a: a["t"], data=lambda a: a["data"].astype(np.float32)),
     "array data must be float64, got float32"),
    (_rewrite_npz("big_endian_t", t=lambda a: a["t"].astype(">f8"), data=lambda a: a["data"]),
     "array t must be float64, got >f8"),
    (_rewrite_npz("five_channels", t=lambda a: a["t"], data=lambda a: a["data"][:, :5]),
     r"expected t \(n,\) and data \(n, 6\)"),
    (_rewrite_npz("t_as_matrix", t=lambda a: a["t"][:, None], data=lambda a: a["data"]),
     r"expected t \(n,\) and data \(n, 6\)"),
    (_rewrite_npz("decreasing_t", t=lambda a: a["t"][::-1].copy(), data=lambda a: a["data"]),
     "strictly increasing"),
    (_rewrite_npz("nan_data", t=lambda a: a["t"], data=lambda a: np.where(a["data"] > 0, np.nan, a["data"])),
     "array data holds a NaN or infinite value"),
    (_replace_npz("truncated", lambda old: old[: len(old) // 2]), "not an .npz archive"),
    (_replace_npz("text", lambda old: b"t,ax,ay,az,gx,gy,gz\n"), "not an .npz archive"),
    (_replace_npz("single_npy", _npy_bytes), "not an .npz archive"),
    (_replace_npz("bad_crc", lambda old: old[: len(old) // 2] + bytes([old[len(old) // 2] ^ 1]) + old[len(old) // 2 + 1 :]),
     "unreadable .npz archive: Bad CRC-32"),
    (_no_format, "sidecar format None, expected 1"),
    (_edit_sidecar("format_2", lambda doc: doc.update(format=2)), "sidecar format 2, expected 1"),
    (_edit_sidecar("format_true", lambda doc: doc.update(format=True)), "sidecar format True, expected 1"),
    (_edit_sidecar("other_cleaning", lambda doc: doc["cleaning"].update(stop_threshold=0.25)),
     r"cleaning.stop_threshold = 0.5, but \S+ records 0.25"),
    (_edit_sidecar("no_cleaning", lambda doc: doc.pop("cleaning")), "sidecar has no cleaning settings"),
    (_edit_sidecar("stops_not_pairs", lambda doc: doc.update(stop_intervals=[[1.0]])),
     r"stop_intervals must be a list of \[start_t, end_t\] number pairs"),
    (_edit_sidecar("gap_as_text", lambda doc: doc.update(removed_gap_seconds="0")),
     "removed_gap_seconds must be a number"),
    (_edit_sidecar("gap_beyond_float", lambda doc: doc.update(removed_gap_seconds=10**400)),
     "removed_gap_seconds must be a number"),
    (_edit_sidecar("stop_holds_a_sample", lambda doc: doc.update(stop_intervals=[[0.0, 1e9]]), "driver01.clean.npz"),
     "a recorded stop interval holds a sample"),
    (_edit_entry("other_rate", rate=4.0), r"trip.nominal_rate_hz = 4.0, but \S+ records 2.0"),
    (_edit_entry("other_driver", driver_id="someone"), r"trip.driver_id = 'someone', but \S+ records 'driver01'"),
    (_old_clean_csv, "was written by an older `driverid clean`"),
]


class TestCleanedManifest:
    """`clean` output listed as input: read back when it fits the run, else exit 2 naming the file."""

    def damaged_manifest(self, cleaned_dir, tmp_path, damage):
        """A copy of the cleaned corpus with DAMAGE done to it; (manifest, the file at fault)."""
        root = tmp_path / "cleaned"
        shutil.copytree(cleaned_dir, root)
        entries = list(read_manifest(root / "manifest.csv").entries)
        culprit = damage(root, entries)
        write_manifest(entries, root / "manifest.csv")
        return str(root / "manifest.csv"), culprit

    @pytest.mark.parametrize("damage, message", CLEANED_DAMAGE, ids=[d.__name__ for d, _ in CLEANED_DAMAGE])
    def test_damaged_trip_exits_2_naming_the_file(
        self, cleaned_dir, config_path, tmp_path, workers, capsys, damage, message
    ):
        workers(2)
        manifest, culprit = self.damaged_manifest(cleaned_dir, tmp_path, damage)
        out = tmp_path / "out"
        code = main(["train", "--manifest", manifest, "--config", str(config_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(culprit) in err
        assert re.search(message, err)
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["clean", "train", "evaluate", "grid"])
    @pytest.mark.parametrize("damage", [_old_clean_csv, _no_format], ids=["old_csv", "no_format"])
    def test_sidecar_refused_before_any_worker_starts(
        self, cleaned_dir, config_path, trained_model, tmp_path, monkeypatch, workers, capsys,
        command, damage,
    ):
        import driverid.cli as cli

        workers(2)
        maps = []
        monkeypatch.setattr(cli, "ordered_map", lambda fn, items: maps.append(fn) or iter(()))
        manifest, culprit = self.damaged_manifest(cleaned_dir, tmp_path, damage)
        model_file = copy_model(trained_model, tmp_path)
        extra = ["--model", str(model_file)] if command == "evaluate" else []
        out = tmp_path / "out"
        code = main([command, "--manifest", manifest, "--config", str(config_path), "--out", str(out), *extra])
        assert code == 2
        assert str(culprit) in capsys.readouterr().err
        assert maps == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("short, damaged, code", [(2, 5, 1), (5, 2, 2)])
    def test_the_first_failing_entry_decides(
        self, cleaned_dir, config_path, trained_model, tmp_path, workers, capsys, command, short, damaged, code
    ):
        """Manifest entry SHORT is too short to split (exit 1) and entry DAMAGED
        a truncated archive (exit 2), among four that are sound."""
        workers(2)
        root = tmp_path / "cleaned"
        shutil.copytree(cleaned_dir, root)
        with np.load(root / "driver02.clean.npz") as npz:
            np.savez(root / "short.clean.npz", t=npz["t"][:50], data=npz["data"][:50])
        shutil.copy(root / "driver02.clean.json", root / "short.clean.json")
        (root / "damaged.clean.npz").write_bytes((root / "driver03.clean.npz").read_bytes()[:1000])
        shutil.copy(root / "driver03.clean.json", root / "damaged.clean.json")
        sound = iter(read_manifest(root / "manifest.csv").entries)
        faulty = {short: (root / "short.clean.npz", "driver02", 2.0), damaged: (root / "damaged.clean.npz", "driver03", 2.0)}
        write_manifest([faulty.get(i) or next(sound) for i in range(1, 7)], root / "manifest.csv")
        model = ["--model", str(copy_model(trained_model, tmp_path))] if command == "evaluate" else []
        argv = [command, "--manifest", str(root / "manifest.csv"), "--config", str(config_path), *model]
        assert main([*argv, "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code == 1:
            assert "insufficient data for split: trip 'driver02' has 50 samples" in err
        else:
            assert f"{root / 'damaged.clean.npz'}: not an .npz archive" in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.usefixtures("one_worker")
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_any_sidecar_field_edit_exits_0_or_2(self, kind_models, command, data):
        clean = kind_models["knn"].parent / "clean"
        doc = json.loads((clean / "driver01.clean.json").read_text())
        place = data.draw(st.sampled_from(sorted(header_places(doc), key=str)), label="field")
        value = data.draw(st.sampled_from([*HEADER_VALUES, math.nan, 10**400]), label="value")
        edit_doc(doc, place, value)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "clean"
            shutil.copytree(clean, root)
            (root / "driver01.clean.json").write_text(json.dumps(doc))
            model = ["--model", str(kind_models["knn"] / "model.json")] if command == "evaluate" else []
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(
                    [command, "--manifest", str(root / "cleaned.csv"), "--config", str(kind_models["knn"] / "run.ini"),
                     "--out", str(Path(tmp) / "out"), *model]
                )
        assert code in (0, 2), stderr.getvalue()

    def test_a_cleaned_trip_is_named_clean_with_a_sidecar(self, cleaned_dir, tmp_path):
        from driverid.cli import _log_tasks

        for name in ("driver01.csv", "driver01.clean.csv"):
            (tmp_path / name).write_text("t,ax,ay,az,gx,gy,gz\n")
        shutil.copy(cleaned_dir / "driver01.clean.json", tmp_path)
        raw = config.Manifest(entries=((tmp_path / "driver01.csv", "driver01", 2.0),))
        assert [task[3] for task in _log_tasks(raw, RunConfig())] == [None]  # a raw log beside a sidecar
        old = config.Manifest(entries=((tmp_path / "driver01.clean.csv", "driver01", 2.0),))
        with pytest.raises(ConfigError, match="older `driverid clean`"):
            _log_tasks(old, RunConfig())
        (tmp_path / "driver01.clean.json").unlink()
        assert [task[3] for task in _log_tasks(old, RunConfig())] == [None]  # no sidecar: a raw log
        shutil.copy(cleaned_dir / "driver01.clean.npz", tmp_path)
        arrays = config.Manifest(entries=((tmp_path / "driver01.clean.npz", "driver01", 2.0),))
        with pytest.raises(ConfigError, match="driver01.clean.json: cannot read sidecar"):
            _log_tasks(arrays, RunConfig())  # an .npz needs its sidecar

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        seconds=st.sampled_from([120.0, 300.0]),
        denoise_window=st.sampled_from([1, 3, 5, 9]),
        stop_threshold=st.floats(0.05, 2.0),
        min_stop_seconds=st.floats(1.0, 20.0),
        max_gap_fill=st.floats(0.25, 6.0),
        reorient=st.booleans(),
        stop_aggregate=st.sampled_from(["magnitude", "sum"]),
    )
    def test_read_back_equals_the_cleaned_trip(self, seed, seconds, **settings_):
        """_clean_to_disk then read_clean gives clean(trip): samples, breaks and cleaning record."""
        from conftest import stoppy_profile

        from driverid.cli import _clean_to_disk

        cleaning = CleaningConfig(**settings_)
        trip, _ = generate_trip(
            stoppy_profile(seed, stops_per_hour=60.0), seconds, 2.0, driver_id="d",
            missing_rate_per_hour=60.0, missing_duration_range=(0.5, 8.0),
        )
        try:
            expected = clean(trip, cleaning)
        except ValueError:
            assume(False)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            ingest.write_log(trip, out / "d.csv")
            name, _, _ = _clean_to_disk(RunConfig(cleaning=cleaning), out, (out / "d.csv", "d", 2.0, None))
            back = read_clean(out / name, read_sidecar((out / name).with_suffix(".json")))
        assert back == expected  # samples, driver, rate and break_after
        assert back.stop_intervals == expected.stop_intervals
        assert back.removed_gap_seconds == expected.removed_gap_seconds
        assert back.provenance == expected.provenance


class TestNoTestDataInTraining:
    def test_training_path_never_sees_test_vectors(
        self, corpus_dir, config_path, tmp_path, monkeypatch
    ):
        import driverid.pipeline as pipeline

        seen_partitions = []
        real_fit = pipeline.fit_standardizer

        def spying_fit(blocks):
            for block in blocks:
                seen_partitions.extend([block.partition] * len(block))
            return real_fit(blocks)

        trained_row_counts = []
        real_train = pipeline.train_model

        def spying_train(kind, train, params=None, seed=0, standardizer=None):
            trained_row_counts.append(len(train))
            return real_train(kind, train, params, seed=seed, standardizer=standardizer)

        monkeypatch.setattr(pipeline, "fit_standardizer", spying_fit)
        import driverid.cli as cli

        monkeypatch.setattr(cli, "train_model", spying_train)
        assert main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(config_path), "--out", str(tmp_path / "m")]
        ) == 0
        assert seen_partitions and set(seen_partitions) == {"train"}
        # the trained dataset is exactly the standardizer's training rows
        assert trained_row_counts == [len(seen_partitions)]


# Every INI key set to a value other than its default:
# (section, key, INI text, parsed attribute, parsed value, snapshot path, snapshot value).
# [run] model is set per model kind, since only that kind's [model.<kind>] is read.
NON_DEFAULT_SETTINGS = [
    ("run", "seed", "9", "master_seed", 9, "seed", 9),
    ("cleaning", "denoise_window", "7", "cleaning.denoise_window", 7, "cleaning.denoise_window", 7),
    ("cleaning", "stop_threshold", "0.25", "cleaning.stop_threshold", 0.25, "cleaning.stop_threshold", 0.25),
    ("cleaning", "min_stop_seconds", "4", "cleaning.min_stop_seconds", 4.0, "cleaning.min_stop_seconds", 4.0),
    ("cleaning", "max_gap_fill", "3.5", "cleaning.max_gap_fill", 3.5, "cleaning.max_gap_fill", 3.5),
    ("cleaning", "reorient", "off", "cleaning.reorient", False, "cleaning.reorient", False),
    ("cleaning", "stop_aggregate", "sum", "cleaning.stop_aggregate", "sum", "cleaning.stop_aggregate", "sum"),
    ("segmentation", "window_minutes", "7.5", "segmentation.window_minutes", 7.5,
     "segmentation.window_minutes", 7.5),
    ("segmentation", "overlap", "0.5", "segmentation.overlap_fraction", 0.5, "segmentation.overlap_fraction", 0.5),
    ("segmentation", "train_fraction", "0.6", "segmentation.train_fraction", 0.6,
     "segmentation.train_fraction", 0.6),
    ("features", "families", "correlation+mean", "features.families", ("mean", "correlation"),
     "features.families", "mean+correlation"),
    ("features", "histogram_bins", "20", "features.histogram_bins", 20, "features.histogram_bins", 20),
    ("features", "trim_keep_fraction", "0.9", "features.trim_keep_fraction", 0.9,
     "features.trim_keep_fraction", 0.9),
    ("features", "difference_uses_sum", "yes", "features.difference_uses_sum", True,
     "features.difference_uses_sum", True),
    ("grid", "window_minutes", "5, 10", "grid.window_minutes_list", (5.0, 10.0), "grid.window_minutes", [5.0, 10.0]),
    ("grid", "overlaps", "0.5", "grid.overlap_list", (0.5,), "grid.overlaps", [0.5]),
    ("grid", "features", "mean+variance, all", "grid.feature_subset_list", ("mean+variance", "all"),
     "grid.features", ["mean+variance", "all"]),
    ("grid", "models", "knn,mlp", "grid.model_list", ("knn", "mlp"), "grid.models", ["knn", "mlp"]),
    ("grid", "repetitions", "2", "grid.repetitions", 2, "grid.repetitions", 2),
]
NON_DEFAULT_MODEL_PARAMS = {
    "knn": [("k", "3", 3, 3)],
    "dtree": [("max_depth", "4", 4, 4), ("min_leaf", "2", 2, 2)],
    "rforest": [("n_trees", "7", 7, 7), ("max_depth", "5", 5, 5), ("features_per_split", "3", 3, 3)],
    "mlp": [
        ("hidden_layers", "16, 8", (16, 8), [16, 8]),
        ("activation", "tanh", "tanh", "tanh"),
        ("learning_rate", "0.01", 0.01, 0.01),
        ("batch_size", "16", 16, 16),
        ("max_epochs", "50", 50, 50),
        ("early_stop_patience", "5", 5, 5),
        ("validation_fraction", "0.2", 0.2, 0.2),
    ],
}


def _dotted(root, path, get=getattr):
    for part in path.split("."):
        root = get(root, part)
    return root


class TestConfigRoundTrip:
    def test_settings_cover_every_key(self):
        covered = {(section, key) for section, key, *_ in NON_DEFAULT_SETTINGS}
        covered |= {("run", "model")}
        for kind, params in NON_DEFAULT_MODEL_PARAMS.items():
            covered |= {(f"model.{kind}", key) for key, *_ in params}
        assert covered == {(section, key) for section, keys in config._SCHEMA.items() for key in keys}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_key_parsed_and_snapshotted(self, tmp_path, kind):
        sections = {"run": [f"model = {kind}"]}
        for section, key, text, *_ in NON_DEFAULT_SETTINGS:
            sections.setdefault(section, []).append(f"{key} = {text}")
        sections[f"model.{kind}"] = [f"{key} = {text}" for key, text, *_ in NON_DEFAULT_MODEL_PARAMS[kind]]
        path = tmp_path / "all.ini"
        path.write_text("".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items()))

        cfg = read_run_config(path)
        snapshot = json.loads(json.dumps(cfg.snapshot()))
        default = RunConfig()
        for _, _, _, attribute, value, entry, recorded in NON_DEFAULT_SETTINGS:
            assert _dotted(cfg, attribute) == value != _dotted(default, attribute), attribute
            assert _dotted(snapshot, entry, dict.__getitem__) == recorded, entry
        assert cfg.model_kind == snapshot["model"]["kind"] == kind
        defaults = REGISTRY[kind].defaults
        for key, _, value, recorded in NON_DEFAULT_MODEL_PARAMS[kind]:
            assert cfg.model_params[kind][key] == value != defaults[key], key
            assert snapshot["model"]["params"][key] == recorded, key
        assert cfg.pipeline_record() == {s: cfg.snapshot()[s] for s in ("cleaning", "segmentation", "features")}

    def test_empty_file_snapshot_equals_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = read_run_config(path)
        assert json.dumps(cfg.snapshot(), indent=1) == json.dumps(RunConfig().snapshot(), indent=1)
        assert cfg.pipeline_record() == RunConfig().pipeline_record()


SCHEMA_KEYS = sorted((section, key) for section, keys in config._SCHEMA.items() for key in keys)


class TestConfigParsing:
    @settings(max_examples=600, deadline=None)
    @given(
        setting=st.sampled_from(SCHEMA_KEYS),
        value=st.sampled_from(["nan", "inf", "-inf", "1e400", "1e308", "-1", "0", "0.5", "true"]),
    )
    def test_any_value_of_any_key_is_refused_or_snapshots_as_strict_json(self, setting, value):
        section, key = setting
        text = f"[{section}]\n{key} = {value}\n"
        if section.startswith("model."):  # the snapshot records the run kind's params
            text = f"[run]\nmodel = {section.removeprefix('model.')}\n" + text
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            try:
                cfg = read_run_config(path)
            except ConfigError:
                return
        json.dumps(cfg.snapshot(), allow_nan=False)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[cleaning]\ndenose_window = 5\n")
        with pytest.raises(ConfigError, match="unknown keys"):
            read_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[cleanning]\ndenoise_window = 5\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            read_run_config(path)

    def test_defaults_when_sections_missing(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text("[run]\nseed = 3\n")
        cfg = read_run_config(path)
        assert cfg.master_seed == 3
        assert cfg.cleaning.denoise_window == 5
        assert cfg.segmentation.train_fraction == 0.7
        assert cfg.features.histogram_bins == 100

    def test_invalid_value_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        for text, message in [
            ("[segmentation]\noverlap = 1.5\n", "overlap_fraction"),
            ("[grid]\noverlaps = 0.5,1.0\n", "overlap_fraction"),
            ("[grid]\nwindow_minutes = 0\n", "window_minutes"),
        ]:
            path.write_text(text)
            with pytest.raises(ConfigError, match=message):
                read_run_config(path)

    def test_unknown_grid_model_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nmodels = knn,svm\n")
        with pytest.raises(ConfigError, match="svm"):
            read_run_config(path)

    def test_every_model_section_parsed(self, corpus_dir, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nmodel = knn\n[model.knn]\nk = 3\n[model.dtree]\nmax_depth = junk\n")
        with pytest.raises(ConfigError, match=r"\[model.dtree\] max_depth"):
            read_run_config(path)
        code = main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "grid"])
    @pytest.mark.parametrize(
        "kind, key, value, message",
        [
            ("knn", "k", "0", "k must be >= 1"),
            ("dtree", "min_leaf", "0", "min_leaf must be >= 1"),
            ("dtree", "max_depth", "-3", "max_depth must be >= 1"),
            ("rforest", "n_trees", "0", "n_trees must be >= 1"),
            ("rforest", "max_depth", "0", "max_depth must be >= 1"),
            ("rforest", "features_per_split", "-7", "features_per_split must be >= 1"),
            ("mlp", "activation", "junk", "activation must be one of"),
        ],
    )
    @pytest.mark.usefixtures("one_worker")
    def test_out_of_range_model_param_fails_before_any_log_is_read(
        self, corpus_dir, tmp_path, monkeypatch, capsys, command, kind, key, value, message
    ):
        reads = []
        monkeypatch.setattr(ingest, "read_log", lambda *args: reads.append(args))
        path = tmp_path / "bad.ini"
        path.write_text(f"[run]\nmodel = knn\n[model.{kind}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"\[model.{kind}\] {message}"):
            read_run_config(path)
        code = main(
            [command, "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert reads == []
        assert not (tmp_path / "out").exists()
        assert f"[model.{kind}] {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("train", "segmentation", "window_minutes", "nan"),
            ("train", "segmentation", "window_minutes", "inf"),
            ("train", "cleaning", "stop_threshold", "nan"),
            ("train", "cleaning", "max_gap_fill", "nan"),
            ("train", "cleaning", "min_stop_seconds", "inf"),
            ("grid", "grid", "window_minutes", "5, nan"),
            ("train", "model.mlp", "learning_rate", "nan"),
            ("train", "model.mlp", "learning_rate", "inf"),
            ("train", "model.mlp", "learning_rate", "1e400"),
        ],
    )
    @pytest.mark.usefixtures("one_worker")
    def test_non_finite_value_fails_before_any_log_is_read(
        self, corpus_dir, tmp_path, monkeypatch, capsys, command, section, key, value
    ):
        reads = []
        monkeypatch.setattr(ingest, "read_log", lambda *args: reads.append(args))
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        message = f"{key} must be finite and positive"
        with pytest.raises(ConfigError, match=message):
            read_run_config(path)
        code = main(
            [command, "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert reads == []
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, value, rate, message",
        [
            ("train", "segmentation", "0.001", 2.0, " = 0.001 gives a window of 0 samples at 2.0 Hz"),
            ("train", "segmentation", "1e-300", 2.0, " = 1e-300 gives a window of 0 samples at 2.0 Hz"),
            ("evaluate", "segmentation", "0.001", 2.0, " = 0.001 gives a window of 0 samples at 2.0 Hz"),
            ("grid", "grid", "4, 0.001", 2.0, " = 0.001 gives a window of 0 samples at 2.0 Hz"),
            # finite settings whose sample count overflows to infinity
            ("train", "segmentation", "1e308", 2.0, ": a 1e+308-minute window at 2.0 Hz has a non-finite"),
            ("evaluate", "segmentation", "1e308", 2.0, ": a 1e+308-minute window at 2.0 Hz has a non-finite"),
            ("grid", "grid", "5, 1e308", 2.0, ": a 1e+308-minute window at 2.0 Hz has a non-finite"),
            ("train", "segmentation", "15", 1e308, ": a 15.0-minute window at 1e+308 Hz has a non-finite"),
        ],
    )
    @pytest.mark.usefixtures("one_worker")
    def test_window_of_under_two_samples_fails_before_any_log_is_read(
        self, corpus_dir, tmp_path, monkeypatch, capsys, command, section, value, rate, message
    ):
        reads = []
        monkeypatch.setattr(ingest, "read_log", lambda *args: reads.append(args))
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\nwindow_minutes = {value}\n")
        read_run_config(path)  # a positive window is a valid setting; only the manifest's rate rules it out
        manifest = tmp_path / "manifest.csv"  # the corpus's logs, listed at `rate`
        logs = sorted(corpus_dir.glob("driver*.csv"))
        write_manifest([(str(log), log.stem, rate) for log in logs], manifest)
        model = ["--model", str(tmp_path / "model.json")] if command == "evaluate" else []
        code = main(
            [command, "--manifest", str(manifest),
             "--config", str(path), "--out", str(tmp_path / "out"), *model]
        )
        assert code == 2
        assert reads == []
        assert not (tmp_path / "out").exists()
        assert f"[{section}] window_minutes{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[DEFAULT]\nsede = 3\n", "[DEFAULT]\nseed = 3\n[run]\nmodel = knn\n"])
    def test_default_section_keys_rejected(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            read_run_config(path)

    def test_exit_code_two_for_bad_config(self, corpus_dir, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[cleaning]\nmystery = 1\n")
        code = main(
            ["train", "--manifest", str(corpus_dir / "manifest.csv"),
             "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert code == 2


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest([("a.csv", "d1", 2.0), ("b.csv", "d2", 4.0)], path)
        manifest = read_manifest(path)
        assert [e[1] for e in manifest.entries] == ["d1", "d2"]
        assert manifest.entries[1][2] == 4.0

    def test_duplicate_paths_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest([("a.csv", "d1", 2.0), ("a.csv", "d2", 2.0)], path)
        with pytest.raises(ConfigError, match="distinct"):
            read_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("file,driver,rate\na.csv,d,2\n")
        with pytest.raises(ConfigError, match="header"):
            read_manifest(path)

    @pytest.mark.parametrize("rate", ["0", "-2", "nan", "inf", "-inf"])
    def test_rate_not_finite_and_positive_rejected_before_any_log_is_read(
        self, corpus_dir, tmp_path, monkeypatch, config_path, rate
    ):
        reads = []
        monkeypatch.setattr(ingest, "read_log", lambda *args: reads.append(args))
        path = tmp_path / "m.csv"
        log = corpus_dir / "driver01.csv"
        path.write_text(f"path,driver_id,rate_hz\n{log},d1,{rate}\n{log.with_name('driver02.csv')},d2,2\n")
        with pytest.raises(ConfigError, match="rate_hz must be finite and positive"):
            read_manifest(path)
        out = tmp_path / "out"
        code = main(["train", "--manifest", str(path), "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert reads == []
        assert not out.exists()
