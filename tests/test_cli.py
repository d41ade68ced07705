import csv
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from germeval_mtl import cli
from germeval_mtl import data as dt
from germeval_mtl import model as md
from germeval_mtl import tokenizer as tok
from germeval_mtl import train as tr

TINY_CONFIG = """
# desk-scale smoke settings
learning_rate = 2e-3
num_epochs = 1
batch_size = 8
eval_every_batches = 4
environment = mtl
seeds = 1,2
split_seed = 5
d_model = 32
n_layers = 1
n_heads = 2
d_ff = 64
max_seq_len = 24
dropout = 0.1
max_len = 24
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    examples = dt.synth_generate(60, seed=31, spec=dt.SynthSpec(correlation=0.5))
    data_path = root / "data.csv"
    dt.write_dataset(data_path, examples)
    config_path = root / "config.txt"
    config_path.write_text(TINY_CONFIG, encoding="utf-8")
    vocab_path = root / "vocab.txt"
    rc = cli.main(["build-vocab", "--data", str(data_path), "--out", str(vocab_path), "--max-size", "300"])
    assert rc == 0
    return root, data_path, config_path, vocab_path


def test_build_vocab_deterministic_file(workspace, tmp_path):
    root, data_path, _, vocab_path = workspace
    again = tmp_path / "vocab2.txt"
    rc = cli.main(["build-vocab", "--data", str(data_path), "--out", str(again), "--max-size", "300"])
    assert rc == 0
    assert again.read_bytes() == vocab_path.read_bytes()


def test_build_vocab_respects_max_size(workspace, tmp_path):
    _, data_path, _, _ = workspace
    out = tmp_path / "small.txt"
    assert cli.main(["build-vocab", "--data", str(data_path), "--out", str(out), "--max-size", "100"]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) <= 100


def test_build_vocab_coverage_on_synthetic_corpus(workspace, capsys):
    _, data_path, _, _ = workspace
    out = Path(str(data_path)).parent / "coverage-vocab.txt"
    cli.main(["build-vocab", "--data", str(data_path), "--out", str(out), "--max-size", "300"])
    coverage = float(capsys.readouterr().out.split("coverage: ")[1].split()[0])
    assert coverage >= 0.9


def test_config_file_parsing_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense_key = 3\n", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.parse_config_file(bad)
    bad.write_text("learning_rate 3\n", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config_file(bad)
    bad.write_text("num_epochs = many\n", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="num_epochs"):
        cli.parse_config_file(bad)


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli.main(["train", "--data", "x.csv", "--vocab", "v.txt"]) == 1  # missing --out
    capsys.readouterr()


def test_missing_data_exits_2(workspace, tmp_path):
    root, _, config_path, vocab_path = workspace
    rc = cli.main([
        "train", "--config", str(config_path), "--data", str(tmp_path / "nope.csv"),
        "--vocab", str(vocab_path), "--out", str(tmp_path / "run"),
    ])
    assert rc == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a blow-up prints one line, no warnings
def test_numeric_blowup_exits_3(workspace, tmp_path, capsys):
    root, data_path, config_path, vocab_path = workspace
    rc = cli.main([
        "train", "--config", str(config_path), "--lr", "1e160", "--seeds", "1",
        "--data", str(data_path), "--vocab", str(vocab_path),
        "--out", str(tmp_path / "blowup"),
    ])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_invalid_config_value_exits_before_training(workspace, tmp_path, capsys):
    root, data_path, config_path, vocab_path = workspace
    out = tmp_path / "run"
    rc = cli.main([
        "train", "--config", str(config_path), "--set", "batch_size=0",
        "--data", str(data_path), "--vocab", str(vocab_path), "--out", str(out),
    ])
    assert rc == 1
    assert not out.exists()
    capsys.readouterr()


@pytest.fixture(scope="module")
def trained_run(workspace):
    root, data_path, config_path, vocab_path = workspace
    out = root / "run-mtl"
    rc = cli.main([
        "train", "--config", str(config_path), "--data", str(data_path),
        "--vocab", str(vocab_path), "--out", str(out),
    ])
    assert rc == 0
    return out


def test_train_writes_manifest_and_artifacts(trained_run):
    manifest = json.loads((trained_run / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["environment"] == "MTL"
    assert manifest["seeds"] == [1, 2]
    assert len(manifest["checkpoints"]) == 2
    assert manifest["config_hash"]
    assert manifest["config"]["learning_rate"] == 2e-3
    for name in manifest["checkpoints"].values():
        assert (trained_run / name).exists()
    for name in manifest["prediction_files"]:
        assert (trained_run / name).exists()
        sidecar = json.loads((trained_run / (name + ".meta.json")).read_text(encoding="utf-8"))
        assert sidecar["config_hash"] == manifest["config_hash"]
    history = next(iter(manifest["eval_history"].values()))
    assert history["history"], "eval history must not be empty"


def test_train_reruns_byte_identical(workspace, trained_run, tmp_path):
    root, data_path, config_path, vocab_path = workspace
    rerun = tmp_path / "run-again"
    rc = cli.main([
        "train", "--config", str(config_path), "--data", str(data_path),
        "--vocab", str(vocab_path), "--out", str(rerun),
    ])
    assert rc == 0
    for name in ["preds-seed1.csv", "preds-seed2.csv", "preds-ensemble.csv"]:
        assert (rerun / name).read_bytes() == (trained_run / name).read_bytes()


def test_stl_training_writes_task_checkpoints(workspace, tmp_path):
    root, data_path, config_path, vocab_path = workspace
    out = tmp_path / "run-stl"
    rc = cli.main([
        "train", "--config", str(config_path), "--env", "stl", "--seeds", "1",
        "--data", str(data_path), "--vocab", str(vocab_path), "--out", str(out),
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["environment"] == "STL"
    assert sorted(manifest["checkpoints"]) == [
        "1/engaging", "1/fact_claiming", "1/toxic",
    ]


def test_lm_flag_reaches_manifest(workspace, tmp_path):
    root, data_path, config_path, vocab_path = workspace
    out = tmp_path / "run-lm"
    rc = cli.main([
        "train", "--config", str(config_path), "--lm", "--seeds", "1",
        "--set", "num_epochs=1", "--data", str(data_path),
        "--vocab", str(vocab_path), "--out", str(out),
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["environment"] == "LM+MTL"


def test_predict_round_trip_and_determinism(workspace, trained_run, tmp_path):
    root, data_path, _, vocab_path = workspace
    ckpt = trained_run / "ckpt-seed1.npz"
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    for out in (out1, out2):
        rc = cli.main([
            "predict", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
            "--data", str(data_path), "--out", str(out), "--max-len", "24",
        ])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    ids, preds = dt.load_predictions(out1)
    assert len(ids) == 60
    assert sorted(preds) == sorted(dt.TASKS)


def test_predict_refuses_foreign_vocab(workspace, trained_run, tmp_path, capsys):
    root, data_path, _, _ = workspace
    other_vocab = tmp_path / "other-vocab.txt"
    examples = dt.synth_generate(30, seed=77)
    other_data = tmp_path / "other.csv"
    dt.write_dataset(other_data, examples)
    assert cli.main(["build-vocab", "--data", str(other_data), "--out", str(other_vocab), "--max-size", "120"]) == 0
    rc = cli.main([
        "predict", "--checkpoint", str(trained_run / "ckpt-seed1.npz"),
        "--vocab", str(other_vocab), "--data", str(data_path),
        "--out", str(tmp_path / "refused.csv"), "--max-len", "24",
    ])
    assert rc == 1
    assert "refusing" in capsys.readouterr().err


def test_predict_rejects_overlapping_checkpoints(workspace, trained_run, tmp_path, capsys):
    root, data_path, _, vocab_path = workspace
    rc = cli.main([
        "predict", "--checkpoint", str(trained_run / "ckpt-seed1.npz"),
        "--checkpoint", str(trained_run / "ckpt-seed2.npz"),
        "--vocab", str(vocab_path), "--data", str(data_path),
        "--out", str(tmp_path / "nope.csv"), "--max-len", "24",
    ])
    assert rc == 1
    assert "overlapping" in capsys.readouterr().err


def test_evaluate_perfect_predictions(workspace, trained_run, tmp_path, capsys):
    gold = trained_run / "val-gold.csv"
    rc = cli.main([
        "evaluate", "--gold", str(gold), "--pred", str(gold),
        "--out", str(tmp_path / "metrics.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "F1=1.0000" in out
    rows = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "system,task,averaging,precision,recall,f1"
    assert len(rows) == 1 + 3
    assert all(",macro," in row for row in rows[1:])


def test_evaluate_multiple_seeds_adds_ensemble_row(workspace, trained_run, tmp_path, capsys):
    gold = trained_run / "val-gold.csv"
    rc = cli.main([
        "evaluate", "--gold", str(gold),
        "--pred", str(trained_run / "preds-seed1.csv"),
        "--pred", str(trained_run / "preds-seed2.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ensemble" in out


def test_evaluate_reports_missing_ids(workspace, trained_run, tmp_path, capsys):
    gold = trained_run / "val-gold.csv"
    ids, preds = dt.load_predictions(trained_run / "preds-ensemble.csv")
    short = tmp_path / "short.csv"
    dt.write_predictions(short, ids[:-2], {t: v[:-2] for t, v in preds.items()})
    rc = cli.main(["evaluate", "--gold", str(gold), "--pred", str(short)])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def test_report_builds_grid(workspace, trained_run, tmp_path, capsys):
    root, data_path, config_path, vocab_path = workspace
    stl_run = root / "run-stl-report"
    rc = cli.main([
        "train", "--config", str(config_path), "--env", "stl", "--seeds", "1",
        "--data", str(data_path), "--vocab", str(vocab_path), "--out", str(stl_run),
    ])
    assert rc == 0
    rc = cli.main([
        "report", "--runs", str(trained_run), str(stl_run),
        "--out", str(tmp_path / "grid"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MTL" in out and "STL" in out
    assert (tmp_path / "grid.txt").exists() and (tmp_path / "grid.csv").exists()
    csv_lines = (tmp_path / "grid.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "model,environment,task,averaging,precision,recall,f1,best"
    assert len(csv_lines) == 1 + 2 * 3


def test_pretrain_lm_standalone(workspace, tmp_path, capsys):
    root, data_path, config_path, vocab_path = workspace
    ckpt = tmp_path / "lm.npz"
    rc = cli.main([
        "pretrain-lm", "--config", str(config_path), "--data", str(data_path),
        "--vocab", str(vocab_path), "--out", str(ckpt), "--seed", "3",
    ])
    assert rc == 0
    from germeval_mtl import model as md

    params, meta = md.load_checkpoint(ckpt)
    assert meta["stage"] == "lm"
    assert meta["seed"] == 3
    assert params.has_mlm_head
    assert "top-1 accuracy" in capsys.readouterr().out
    out = tmp_path / "lm-preds.csv"
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                   "--data", str(data_path), "--out", str(out)])
    _one_line_error(capsys, rc, 2, "masked-LM stage checkpoint")
    assert not out.exists()


def test_pretrain_lm_seed_is_the_hashed_seeds_setting(workspace, tmp_path):
    _, data_path, config_path, vocab_path = workspace
    metas = []
    for flag in ("--seed", "--seeds"):  # --seed abbreviates --seeds
        ckpt = tmp_path / f"lm{flag}.npz"
        rc = cli.main(["pretrain-lm", "--config", str(config_path), "--data", str(data_path),
                       "--vocab", str(vocab_path), "--out", str(ckpt), flag, "3"])
        assert rc == 0
        metas.append(md.load_checkpoint(ckpt)[1])
    assert metas[0]["seed"] == metas[1]["seed"] == 3
    assert metas[0]["config_hash"] == metas[1]["config_hash"]


def test_activations_that_cannot_be_allocated_exit_1(workspace, tmp_path, capsys, monkeypatch):
    _, data_path, config_path, vocab_path = workspace

    def out_of_memory(*args, **kwargs):  # NumPy's message for a (8, 2, 20000, 20000) attention mask
        raise MemoryError("Unable to allocate 47.7 GiB for an array with shape (8, 2, 20000, 20000)"
                          " and data type float64")

    monkeypatch.setattr(tr, "run_experiment", out_of_memory)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(config_path), "--data", str(data_path),
                   "--vocab", str(vocab_path), "--out", str(out)])
    _one_line_error(capsys, rc, 1, "config error: the settings need more memory than can be allocated: "
                                   "Unable to allocate 47.7 GiB")
    assert not out.exists()


def test_predict_max_len_defaults_to_checkpoint(workspace, trained_run, tmp_path, capsys):
    root, data_path, _, vocab_path = workspace
    base = ["predict", "--checkpoint", str(trained_run / "ckpt-seed1.npz"), "--vocab", str(vocab_path),
            "--data", str(data_path)]
    explicit, default = tmp_path / "explicit.csv", tmp_path / "default.csv"
    assert cli.main([*base, "--out", str(explicit), "--max-len", "24"]) == 0
    assert cli.main([*base, "--out", str(default)]) == 0  # checkpoint max_seq_len is 24
    assert default.read_bytes() == explicit.read_bytes()
    capsys.readouterr()
    assert cli.main([*base, "--out", str(tmp_path / "long.csv"), "--max-len", "25"]) == 1
    err = capsys.readouterr().err
    assert "max-len" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "long.csv").exists()


def test_predict_bad_checkpoint_exits_2(workspace, trained_run, tmp_path, capsys):
    root, data_path, _, vocab_path = workspace
    with np.load(trained_run / "ckpt-seed1.npz") as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta["format_version"] = 99
    arrays["__meta__"] = np.asarray(json.dumps(meta))
    future = tmp_path / "future.npz"
    np.savez(future, **arrays)
    truncated = tmp_path / "truncated.npz"
    blob = (trained_run / "ckpt-seed1.npz").read_bytes()
    truncated.write_bytes(blob[: len(blob) // 2])
    plain = tmp_path / "plain.npy"
    np.save(plain, np.zeros(3))
    for ckpt, reason in ((future, "unsupported checkpoint format 99"), (truncated, "unreadable"),
                         (plain, "not an .npz archive")):
        capsys.readouterr()
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                       "--data", str(data_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert reason in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("damage", {
    "unknown-config-key": lambda meta: meta["config"].update(n_experts=2) or meta,
    "string-n-layers": lambda meta: meta["config"].update(n_layers="2") or meta,
    "null-config": lambda meta: meta.update(config=None) or meta,
    "list-metadata": lambda meta: [meta],
    "huge-max-seq-len": lambda meta: meta["config"].update(max_seq_len=10**13) or meta,  # no arena allocated
}.items(), ids=lambda item: item[0])
def test_predict_malformed_checkpoint_metadata_exits_2(workspace, trained_run, tmp_path, capsys, damage):
    _, data_path, _, vocab_path = workspace
    with np.load(trained_run / "ckpt-seed1.npz") as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    arrays["__meta__"] = np.asarray(json.dumps(damage[1](json.loads(str(arrays["__meta__"])))))
    ckpt, out = tmp_path / "damaged.npz", tmp_path / "preds.csv"
    np.savez(ckpt, **arrays)
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                   "--data", str(data_path), "--out", str(out)])
    _one_line_error(capsys, rc, 2, f"data error: {ckpt}")
    assert not out.exists()


def test_predict_non_finite_checkpoint_exits_2(workspace, trained_run, tmp_path, capsys):
    _, data_path, _, vocab_path = workspace
    with np.load(trained_run / "ckpt-seed1.npz") as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    arrays["param/head.toxic.W"][1, 0] = np.nan
    ckpt, out = tmp_path / "nan.npz", tmp_path / "preds.csv"
    np.savez(ckpt, **arrays)
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                   "--data", str(data_path), "--out", str(out)])
    _one_line_error(capsys, rc, 2, "'head.toxic.W' holds non-finite values")
    assert not out.exists()


def test_predict_refuses_a_checkpoint_claiming_more_layers_than_it_stores(workspace, trained_run, tmp_path,
                                                                           capsys, monkeypatch):
    _, data_path, _, vocab_path = workspace
    with np.load(trained_run / "ckpt-seed1.npz") as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    meta = json.loads(str(arrays["__meta__"]))
    stored_layers, meta["config"]["n_layers"] = meta["config"]["n_layers"], 10**13
    arrays["__meta__"] = np.asarray(json.dumps(meta))
    ckpt, out = tmp_path / "deep.npz", tmp_path / "preds.csv"
    np.savez(ckpt, **arrays)
    layout = md._layout

    def bounded_layout(config, *rest):  # listing 10**13 layers would never finish
        assert config.n_layers <= stored_layers, f"_layout asked for {config.n_layers} layers"
        return layout(config, *rest)

    monkeypatch.setattr(md, "_layout", bounded_layout)
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                   "--data", str(data_path), "--out", str(out)])
    _one_line_error(capsys, rc, 2, f"stores {len(arrays) - 1} parameter arrays, its config implies 160000000000010")
    assert not out.exists()


@pytest.mark.parametrize("case", ["latin1-build-vocab", "latin1-predict", "huge-field-build-vocab", "latin1-config"])
def test_undecodable_or_oversized_input_exits_with_one_line(workspace, trained_run, tmp_path, capsys, case):
    _, data_path, config_path, vocab_path = workspace
    latin, huge, latin_config = tmp_path / "latin1.csv", tmp_path / "huge.csv", tmp_path / "latin1.txt"
    dt.write_dataset(latin, [dt.Example("c1", "café", 0, 1, 0)])
    latin.write_bytes(latin.read_text(encoding="utf-8").encode("latin-1"))
    dt.write_dataset(huge, [dt.Example("c1", "x" * 200_000, 0, 1, 0)])  # over csv's default field limit
    latin_config.write_bytes((config_path.read_text(encoding="utf-8") + "# café\n").encode("latin-1"))
    out = tmp_path / "out"
    argv, code, needle = {
        "latin1-build-vocab": (["build-vocab", "--data", str(latin)], 2, f"data error: {latin}: 'utf-8' codec"),
        "latin1-predict": (["predict", "--checkpoint", str(trained_run / "ckpt-seed1.npz"), "--vocab",
                            str(vocab_path), "--data", str(latin)], 2, f"data error: {latin}: 'utf-8' codec"),
        "huge-field-build-vocab": (["build-vocab", "--data", str(huge)], 2,
                                   f"data error: {huge}: field larger than field limit"),
        "latin1-config": (["train", "--config", str(latin_config), "--data", str(data_path), "--vocab",
                           str(vocab_path)], 1, f"config error: {latin_config}: not UTF-8 text"),
    }[case]
    _one_line_error(capsys, cli.main([*argv, "--out", str(out)]), code, needle)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "train --set max_seq_len=10000000000000 --set max_len=0",
    "pretrain-lm --set d_model=4000000000000 --set n_heads=1",
    "train --set n_layers=10000000000000",
])
def test_a_model_no_machine_can_hold_exits_1_before_reading_data(workspace, tmp_path, capsys, monkeypatch, argv):
    _, data_path, config_path, vocab_path = workspace
    monkeypatch.setattr(dt, "load_dataset", lambda path: pytest.fail(f"read {path}"))
    command, *extra = argv.split()
    out = tmp_path / ("lm.npz" if command == "pretrain-lm" else "run")
    rc = cli.main([command, "--config", str(config_path), *extra, "--data", str(data_path),
                   "--vocab", str(vocab_path), "--out", str(out)])
    _one_line_error(capsys, rc, 1, "parameters, which cannot be allocated")
    assert not out.exists()


@pytest.mark.parametrize("twice", [
    ["preds-seed1.csv"] * 3,
    ["preds-seed1.csv", "preds-seed2.csv", "./preds-seed1.csv"],
], ids=["same-string", "same-file"])
def test_evaluate_refuses_a_pred_file_given_twice(trained_run, tmp_path, capsys, monkeypatch, twice):
    monkeypatch.chdir(trained_run)
    monkeypatch.setattr(dt, "load_predictions", lambda path: pytest.fail(f"read {path}"))
    out = tmp_path / "metrics.csv"
    argv = ["evaluate", "--gold", "val-gold.csv", *(arg for p in twice for arg in ("--pred", p)), "--out", str(out)]
    _one_line_error(capsys, cli.main(argv), 1, f"--pred {twice[-1]} is given more than once")
    assert not out.exists()


def test_evaluate_rejects_duplicate_ids(workspace, trained_run, tmp_path, capsys):
    gold = trained_run / "val-gold.csv"
    ids, preds = dt.load_predictions(gold)
    duplicated = tmp_path / "duplicated.csv"
    dt.write_predictions(duplicated, [*ids, ids[0]], {t: np.append(v, 1 - v[0]) for t, v in preds.items()})
    rc = cli.main(["evaluate", "--gold", str(gold), "--pred", str(duplicated)])
    assert rc == 2
    assert "duplicate comment_id" in capsys.readouterr().err


def _one_line_error(capsys, rc, expected_rc, needle):
    err = capsys.readouterr().err
    assert rc == expected_rc, err
    assert needle in err and len(err.strip().splitlines()) == 1, err


def test_build_vocab_max_size_at_special_tokens_exits_1(workspace, tmp_path, capsys):
    _, data_path, _, _ = workspace
    rc = cli.main(["build-vocab", "--data", str(data_path), "--out", str(tmp_path / "v.txt"), "--max-size", "5"])
    _one_line_error(capsys, rc, 1, "--max-size must exceed the 5 special tokens")


def test_train_with_an_empty_split_side_exits_2(workspace, tmp_path, capsys):
    _, _, config_path, vocab_path = workspace
    two_rows = tmp_path / "two.csv"
    dt.write_dataset(two_rows, dt.synth_generate(2, seed=1))  # round(0.8 * 2) leaves validation empty
    rc = cli.main(["train", "--config", str(config_path), "--data", str(two_rows),
                   "--vocab", str(vocab_path), "--out", str(tmp_path / "run")])
    _one_line_error(capsys, rc, 2, "validation side")


def test_train_with_duplicate_ids_exits_2(workspace, tmp_path, capsys):
    _, _, config_path, vocab_path = workspace
    examples = dt.synth_generate(20, seed=2)
    repeated = tmp_path / "repeated.csv"
    dt.write_dataset(repeated, examples + examples[:3])
    rc = cli.main(["train", "--config", str(config_path), "--data", str(repeated),
                   "--vocab", str(vocab_path), "--out", str(tmp_path / "run")])
    _one_line_error(capsys, rc, 2, "line 22: duplicate comment_id 'synth-00000' (first on line 2)")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("batch_size", ["0", "-1"])
def test_predict_nonpositive_batch_size_exits_1(workspace, trained_run, tmp_path, capsys, batch_size):
    _, data_path, _, vocab_path = workspace
    out = tmp_path / "p.csv"
    rc = cli.main(["predict", "--checkpoint", str(trained_run / "ckpt-seed1.npz"), "--vocab", str(vocab_path),
                   "--data", str(data_path), "--out", str(out), "--batch-size", batch_size])
    _one_line_error(capsys, rc, 1, "--batch-size must be at least 1")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "train --set vocab_size=3",
    "train --set n_heads=0",
    "train --set d_model=0",
    "train --set d_ff=-1",
    "train --set n_layers=-1",
    "train --set warmup_ratio=nan",
    "train --set warmup_ratio=2",
    "train --set learning_rate=nan",
    "train --lr inf",
    "train --set max_grad_norm=nan",
    "train --set adam_beta1=1.5",
    "train --set adam_beta2=1",
    "train --seeds -1",
    "train --seeds 1,1",
    "train --split-seed -1",
    "train --max-len 2",
    "train --max-len=-1",
    "train --max-len 25",
    "train --epochs 1.5",
    "pretrain-lm --max-len 2",
    "pretrain-lm --seed=-1",
])
def test_out_of_range_setting_exits_1(workspace, tmp_path, capsys, argv):
    _, data_path, config_path, vocab_path = workspace
    command, *extra = argv.split()
    out_dir = tmp_path / "run"
    out = out_dir / "lm.npz" if command == "pretrain-lm" else out_dir
    rc = cli.main([command, "--config", str(config_path), *extra, "--data", str(data_path),
                   "--vocab", str(vocab_path), "--out", str(out)])
    _one_line_error(capsys, rc, 1, "config error")
    assert not out_dir.exists()


def test_evaluate_without_a_shared_task_exits_2(trained_run, tmp_path, capsys):
    ids, gold = dt.load_predictions(trained_run / "val-gold.csv")
    gold_path, pred_path, out = tmp_path / "gold.csv", tmp_path / "pred.csv", tmp_path / "eval.csv"
    dt.write_predictions(gold_path, ids, {"toxic": gold["toxic"]})
    dt.write_predictions(pred_path, ids, {"engaging": gold["engaging"]})
    rc = cli.main(["evaluate", "--gold", str(gold_path), "--pred", str(pred_path), "--out", str(out)])
    _one_line_error(capsys, rc, 2, "no task column in common")
    assert not out.exists()


def _drop_engaging(path):
    ids, preds = dt.load_predictions(path)
    dt.write_predictions(path, ids, {t: v for t, v in preds.items() if t != "engaging"})


@pytest.mark.parametrize("damage", {
    "empty-manifest": lambda run: (run / "manifest.json").write_text("{}", encoding="utf-8"),
    "manifest-not-json": lambda run: (run / "manifest.json").write_text("{not json", encoding="utf-8"),
    "environment-not-a-string": lambda run: (run / "manifest.json").write_text('{"environment": 5}', encoding="utf-8"),
    "gold-lacks-task": lambda run: _drop_engaging(run / "val-gold.csv"),
    "preds-lack-task": lambda run: _drop_engaging(run / "preds-ensemble.csv"),
}.items(), ids=lambda item: item[0])
def test_report_on_a_damaged_run_exits_2(trained_run, tmp_path, capsys, damage):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    damage[1](run)
    rc = cli.main(["report", "--runs", str(run), "--out", str(tmp_path / "grid")])
    _one_line_error(capsys, rc, 2, str(run))
    assert not (tmp_path / "grid.txt").exists()


def test_build_vocab_on_blank_texts_exits_2(tmp_path, capsys):
    blank = tmp_path / "blank.csv"
    blank.write_text("comment_id,comment_text,Sub1_Toxic,Sub2_Engaging,Sub3_FactClaiming\n"
                     "a, ,0,0,0\nb,,1,0,0\n", encoding="utf-8")
    rc = cli.main(["build-vocab", "--data", str(blank), "--out", str(tmp_path / "v.txt")])
    _one_line_error(capsys, rc, 2, "no words to build a vocabulary from")
    assert not (tmp_path / "v.txt").exists()


def test_metric_csvs_escape_names(workspace, trained_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    manifest["model_name"] = "bert, large"
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    shutil.copy(run / "preds-seed1.csv", tmp_path / "seed,1.csv")
    assert cli.main(["report", "--runs", str(run), "--out", str(tmp_path / "grid")]) == 0
    assert cli.main(["evaluate", "--gold", str(run / "val-gold.csv"), "--pred", str(tmp_path / "seed,1.csv"),
                     "--out", str(tmp_path / "eval.csv")]) == 0
    capsys.readouterr()
    for path, name in ((tmp_path / "grid.csv", "bert, large"), (tmp_path / "eval.csv", "seed,1")):
        header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
        assert rows and all(len(row) == len(header) and row[0] == name for row in rows)


def test_readme_config_block_lists_every_settable_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration", 1)[1].split("```", 2)[1]
    pairs = [pair for line in block.splitlines() for pair in re.findall(r"(\w+) = (\S+)", line.split("#")[0])]
    assert sorted(key for key, _ in pairs) == sorted(cli._DEFAULTS)
    for key, raw in pairs:
        assert cli._coerce(key, raw) == cli._DEFAULTS[key], key


def test_report_on_two_runs_of_one_cell_exits_2(workspace, trained_run, tmp_path, capsys):
    root, data_path, config_path, vocab_path = workspace
    other = tmp_path / "run-mtl-lr"
    rc = cli.main([
        "train", "--config", str(config_path), "--lr", "1e-3", "--seeds", "1",
        "--data", str(data_path), "--vocab", str(vocab_path), "--out", str(other),
    ])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["report", "--runs", str(trained_run), str(other), "--out", str(tmp_path / "grid")])
    _one_line_error(capsys, rc, 2, f"{trained_run} and {other}")
    assert not (tmp_path / "grid.txt").exists()


def _unusable_path_argv(case, workspace, trained_run, tmp_path):
    _, data_path, config_path, vocab_path = workspace
    a_file, a_dir = tmp_path / "a-file", tmp_path / "a-dir"
    a_file.write_text("not a directory\n", encoding="utf-8")
    a_dir.mkdir()
    train = ["train", "--config", str(config_path), "--vocab", str(vocab_path)]
    gold, preds = trained_run / "val-gold.csv", trained_run / "preds-ensemble.csv"
    return {
        "train-out-file": train + ["--data", str(data_path), "--out", str(a_file)],
        "train-data-dir": train + ["--data", str(a_dir), "--out", str(tmp_path / "run")],
        "build-vocab-out-dir": ["build-vocab", "--data", str(data_path), "--out", str(a_dir), "--max-size", "60"],
        "build-vocab-data-dir": ["build-vocab", "--data", str(a_dir), "--out", str(tmp_path / "v.txt")],
        "predict-out-dir": ["predict", "--checkpoint", str(trained_run / "ckpt-seed1.npz"), "--vocab", str(vocab_path),
                            "--data", str(data_path), "--out", str(a_dir)],
        "evaluate-out-dir": ["evaluate", "--gold", str(gold), "--pred", str(preds), "--out", str(a_dir)],
        "report-out-dot": ["report", "--runs", str(trained_run), "--out", "."],
    }[case]


@pytest.mark.parametrize("case", ["train-out-file", "train-data-dir", "build-vocab-out-dir",
                                  "build-vocab-data-dir", "predict-out-dir", "evaluate-out-dir", "report-out-dot"])
def test_unusable_path_exits_2(workspace, trained_run, tmp_path, capsys, case):
    rc = cli.main(_unusable_path_argv(case, workspace, trained_run, tmp_path))
    _one_line_error(capsys, rc, 2, "data error: ")  # one line: no traceback reached stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["build-vocab", "pretrain-lm", "predict", "evaluate", "train", "report"])
def test_unusable_out_is_refused_before_any_work(workspace, trained_run, tmp_path, capsys, monkeypatch, command):
    _, data_path, config_path, vocab_path = workspace
    for module, name in ((tok, "build_vocab"), (tr, "lm_finetune"), (tr, "run_experiment"), (tr, "predict_dataset"),
                         (dt, "load_predictions")):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran before --out was checked")

        monkeypatch.setattr(module, name, refuse)
    a_dir, a_file = tmp_path / "a-dir", tmp_path / "a-file"
    a_dir.mkdir()
    a_file.write_text("not a directory\n", encoding="utf-8")
    config = ["--config", str(config_path), "--vocab", str(vocab_path), "--data", str(data_path)]
    argv = {
        "build-vocab": ["build-vocab", "--data", str(data_path), "--out", str(a_dir)],
        "pretrain-lm": ["pretrain-lm", *config, "--out", str(a_dir)],
        "predict": ["predict", "--checkpoint", str(trained_run / "ckpt-seed1.npz"), "--vocab", str(vocab_path),
                    "--data", str(data_path), "--out", str(a_dir)],
        "evaluate": ["evaluate", "--gold", str(trained_run / "val-gold.csv"),
                     "--pred", str(trained_run / "preds-ensemble.csv"), "--out", str(a_dir)],
        "train": ["train", *config, "--out", str(a_file / "run")],
        "report": ["report", "--runs", str(trained_run), "--out", str(a_file / "grid")],
    }[command]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    assert captured.err.startswith("data error: ") and len(captured.err.strip().splitlines()) == 1, captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a blow-up prints one line, no warnings
def test_numeric_failure_leaves_no_out_directory(workspace, tmp_path, capsys):
    _, data_path, config_path, vocab_path = workspace
    out = tmp_path / "run"
    rc = cli.main([
        "train", "--config", str(config_path), "--seeds", "1",
        "--set", "learning_rate=1e300", "--set", "max_grad_norm=1e300",
        "--data", str(data_path), "--vocab", str(vocab_path), "--out", str(out),
    ])
    _one_line_error(capsys, rc, 3, "numeric failure")
    assert not out.exists()
