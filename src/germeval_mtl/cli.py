"""Command-line surface: build-vocab, pretrain-lm, train, predict, evaluate, report.

Every command resolves its settings from an optional key=value config file
plus flag overrides, validates them before doing any work, and stamps a
hash of the resolved configuration into everything it writes. Exit codes:
0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import sys
import zipfile
from pathlib import Path

import numpy as np

from germeval_mtl import data as dt
from germeval_mtl import metrics as mx
from germeval_mtl import model as md
from germeval_mtl import tokenizer as tok
from germeval_mtl import train as tr
from germeval_mtl.data import DataError
from germeval_mtl.train import NumericError

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class ConfigError(Exception):
    """Bad usage, unknown keys, unparsable values, or inconsistent settings."""


# Every settable key and its default; a value is parsed by its default's type.
# vocab_size is not settable: the vocabulary file fixes it.
_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(tr.TrainConfig)}
_ENCODER_DEFAULTS = {f.name: f.default for f in dataclasses.fields(md.EncoderConfig) if f.name != "vocab_size"}
_EXTRA_DEFAULTS = {"averaging": "macro", "model_name": "scratch", "max_len": 0}  # max_len 0 = max_seq_len
_DEFAULTS = {**_TRAIN_DEFAULTS, **_ENCODER_DEFAULTS, **_EXTRA_DEFAULTS}


def _coerce(key: str, raw: str):
    """Parse a config value by the type of the key's default."""
    kind = type(_DEFAULTS[key])
    try:
        if kind is tuple:
            return tuple(int(part) for part in raw.replace(",", " ").split())
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return raw.strip() if kind is str else kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={raw!r} as {kind.__name__}") from exc


def _parse_pair(text: str, where: str) -> tuple[str, object]:
    """Split `key = value` on the first '=', reject unknown keys, coerce the value."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key = value, got {text!r}")
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in _DEFAULTS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    return key, _coerce(key, raw)


def parse_config_file(path: str | Path) -> dict:
    """Read `key = value` lines; # starts a comment; unknown keys rejected."""
    values = {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for line_num, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = _parse_pair(line, f"{path}:{line_num}")
            values[key] = value
    return values


def resolve_config(args) -> dict:
    """Config file values, overridden by --set pairs and dedicated flags.

    Every dedicated flag's dest is its config key.
    """
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    values.update(_parse_pair(pair, "--set") for pair in getattr(args, "set", None) or [])
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            values[key] = _coerce(key, value) if isinstance(value, str) else value
    return values


def _encoded_length(value: int | None, limit: int, name: str, limit_name: str) -> int:
    """The encoded sequence length: ``value``, or ``limit`` when it is None; it must be in [3, limit]."""
    length = limit if value is None else value
    if not 3 <= length <= limit:
        raise ConfigError(f"{name} must be in [3, {limit}] ({limit_name}), got {length}")
    return length


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def file_hash(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sidecar(path: Path, cfg_hash: str) -> None:
    _write_json(Path(str(path) + ".meta.json"), {"config_hash": cfg_hash})


def _output_path(path: str | Path, directory: bool = False) -> Path:
    """``--out`` as a Path, refused before any work if it cannot be written as a file (or ``directory``)."""
    out = Path(path)
    if out.exists() and out.is_dir() != directory:
        raise DataError(f"--out {out} {'is not' if directory else 'is'} a directory")
    ancestor = next(parent for parent in out.parents if parent.exists())
    if not ancestor.is_dir():
        raise DataError(f"--out {out}: {ancestor} is not a directory")
    return out


# -- commands -------------------------------------------------------------------


def cmd_build_vocab(args) -> int:
    out = _output_path(args.out)
    if args.max_size <= len(tok.SPECIAL_TOKENS):
        raise ConfigError(f"--max-size must exceed the {len(tok.SPECIAL_TOKENS)} special tokens, got {args.max_size}")
    corpus = [ex.text for ex in dt.load_dataset(args.data)]
    if not any(tok.pre_tokenize(text) for text in corpus):
        raise DataError(f"{args.data}: no words to build a vocabulary from")
    vocab = tok.build_vocab(corpus, max_size=args.max_size, min_freq=args.min_freq)
    out.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(out)
    pieces = 0
    unknown = 0
    for text in corpus:
        for piece in vocab.tokenize(text):
            pieces += 1
            unknown += piece == tok.UNK
    coverage = 1.0 - unknown / pieces if pieces else 0.0
    print(f"vocab written to {out}")
    print(f"vocab size: {len(vocab)}")
    print(f"corpus subword coverage: {coverage:.4f} ({pieces - unknown}/{pieces} pieces)")
    return EXIT_OK


def _load_vocab(path: str) -> tok.Vocab:
    if not Path(path).exists():
        raise DataError(f"vocab file not found: {path}")
    try:
        return tok.Vocab.load(path)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _prepare(args):
    """Resolve, validate and hash the settings of a training command."""
    values = {**_DEFAULTS, **resolve_config(args)}
    if values["averaging"] not in mx.AVERAGING_MODES:
        raise ConfigError(f"averaging must be one of {', '.join(mx.AVERAGING_MODES)}, got {values['averaging']!r}")
    vocab = _load_vocab(args.vocab)
    try:
        train_cfg = tr.TrainConfig(**{k: values[k] for k in _TRAIN_DEFAULTS})
        enc_cfg = md.EncoderConfig(vocab_size=len(vocab), **{k: values[k] for k in _ENCODER_DEFAULTS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    elements = md.layout_size(enc_cfg, dt.TASKS, True)[1]  # the largest model a training command builds
    try:
        np.zeros(elements)  # lazily mapped: a size that fits costs nothing
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"the settings imply a model of {elements} parameters,"
                          f" which cannot be allocated: {exc}") from exc
    resolved = {**dataclasses.asdict(train_cfg), **dataclasses.asdict(enc_cfg),
                **{k: values[k] for k in _EXTRA_DEFAULTS}}
    resolved["max_len"] = _encoded_length(values["max_len"] or None, enc_cfg.max_seq_len, "max_len", "max_seq_len")
    return train_cfg, enc_cfg, vocab, resolved, config_hash(resolved)


def cmd_pretrain_lm(args) -> int:
    out = _output_path(args.out)
    train_cfg, enc_cfg, vocab, resolved, cfg_hash = _prepare(args)
    examples = dt.load_dataset(args.data)
    corpus = [ex.text for ex in examples]
    if not corpus:
        raise DataError(f"{args.data}: no rows to pretrain on")
    seed = train_cfg.seeds[0]
    params = md.init_model(enc_cfg, md.MTL, with_mlm_head=True, seed=seed)
    tr.lm_finetune(params, corpus, vocab, train_cfg, seed, resolved["max_len"])
    out.parent.mkdir(parents=True, exist_ok=True)
    md.save_checkpoint(params, out, extra_meta={
        "stage": "lm",
        "seed": seed,
        "config_hash": cfg_hash,
        "vocab_hash": file_hash(args.vocab),
    })
    accuracy = tr.mlm_top1_accuracy(params, corpus, vocab, resolved["max_len"], seed=seed)
    print(f"LM checkpoint written to {out}")
    print(f"masked-token top-1 accuracy on the corpus: {accuracy:.4f}")
    return EXIT_OK


def cmd_train(args) -> int:
    out_dir = _output_path(args.out, directory=True)
    train_cfg, enc_cfg, vocab, resolved, cfg_hash = _prepare(args)
    examples = dt.load_dataset(args.data)
    split_ratio = 0.8
    if not all(dt.split(examples, split_ratio, train_cfg.split_seed)):
        raise DataError(f"{args.data}: {len(examples)} examples leave the train or validation side"
                        f" of the {split_ratio} split empty")
    vocab_hash = file_hash(args.vocab)

    result = tr.run_experiment(train_cfg, examples, vocab, enc_cfg, max_len=resolved["max_len"],
                               split_ratio=split_ratio)
    out_dir.mkdir(parents=True, exist_ok=True)

    checkpoints = {}
    for seed in result.seeds:
        for key, params in result.models[seed].items():
            name = f"ckpt-seed{seed}.npz" if key == "mtl" else f"ckpt-seed{seed}-{key}.npz"
            md.save_checkpoint(params, out_dir / name, extra_meta={
                "stage": "classifier",
                "seed": seed,
                "config_hash": cfg_hash,
                "vocab_hash": vocab_hash,
                "environment_label": result.environment,
            })
            checkpoints[f"{seed}/{key}"] = name

    predictions = {f"preds-seed{seed}.csv": {t: result.per_seed_preds[t][pos] for t in dt.TASKS}
                   for pos, seed in enumerate(result.seeds)}
    predictions["preds-ensemble.csv"] = result.ensemble_preds
    for name, labels in {**predictions, "val-gold.csv": result.val_gold}.items():
        dt.write_predictions(out_dir / name, result.val_ids, labels)
        _sidecar(out_dir / name, cfg_hash)
    metrics = result.metrics(resolved["averaging"])

    manifest = {
        "format_version": 1,
        "model_name": resolved["model_name"],
        "environment": result.environment,
        "config_hash": cfg_hash,
        "config": resolved,
        "vocab_hash": vocab_hash,
        "seeds": list(result.seeds),
        "checkpoints": checkpoints,
        "prediction_files": list(predictions),
        "eval_history_f1_averaging": "macro",
        "eval_history": {
            f"{seed}/{key}": {
                "history": [[step, loss, f1s] for step, loss, f1s in record.eval_history],
                "stopped_early": record.stopped_early,
                "best_checkpoint_step": record.best_checkpoint_step,
            }
            for seed, by_key in result.records.items()
            for key, record in by_key.items()
        },
        "ensemble_val_metrics": {task: dataclasses.asdict(metric) for task, metric in metrics.items()},
    }
    _write_json(out_dir / "manifest.json", manifest)
    print(f"experiment {result.environment} complete: {len(checkpoints)} checkpoints in {out_dir}")
    for task, metric in metrics.items():
        print(f"  val {task}: P={metric.precision:.4f} R={metric.recall:.4f} F1={metric.f1:.4f}"
              f" ({metric.averaging})")
    return EXIT_OK


def cmd_predict(args) -> int:
    out = _output_path(args.out)
    if args.batch_size < 1:
        raise ConfigError(f"--batch-size must be at least 1, got {args.batch_size}")
    vocab = _load_vocab(args.vocab)
    vocab_hash = file_hash(args.vocab)
    models = []
    for ckpt in args.checkpoint:
        if not Path(ckpt).exists():
            raise DataError(f"checkpoint not found: {ckpt}")
        try:
            params, meta = md.load_checkpoint(ckpt)
        except (ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise DataError(f"{ckpt}: unreadable checkpoint: {exc}") from exc
        if meta.get("stage") == "lm":
            raise DataError(f"{ckpt} is a masked-LM stage checkpoint from pretrain-lm; its heads are untrained")
        stored = meta.get("vocab_hash")
        if stored is not None and stored != vocab_hash:
            raise ConfigError(
                f"refusing to predict: checkpoint {ckpt} was trained with a different "
                f"vocabulary (stored hash {stored[:12]}..., provided {vocab_hash[:12]}...)"
            )
        if params.config.vocab_size != len(vocab):
            raise ConfigError(
                f"refusing to predict: checkpoint {ckpt} expects vocab size "
                f"{params.config.vocab_size}, file has {len(vocab)}"
            )
        models.append((params, meta))

    covered = [t for p, _ in models for t in p.head_tasks]
    if len(covered) != len(set(covered)):
        raise ConfigError("checkpoints cover overlapping tasks; pass one MTL or up to three distinct STL checkpoints")
    max_len = _encoded_length(args.max_len, min(p.config.max_seq_len for p, _ in models),
                              "--max-len", "the smallest checkpoint max_seq_len")

    ids, texts = dt.load_texts(args.data)
    if not texts:
        raise DataError(f"{args.data}: no rows to predict")
    ds = dt.EncodedDataset(*md.stack_batch([tok.encode(vocab, text, max_len) for text in texts]),
                           labels={}, example_ids=ids)
    preds: dict = {}
    for params, _ in models:
        preds.update(tr.predict_dataset(params, ds, args.batch_size))
    out.parent.mkdir(parents=True, exist_ok=True)
    dt.write_predictions(out, ids, preds)
    hashes = sorted({meta.get("config_hash", "unknown") for _, meta in models})
    _sidecar(out, ",".join(hashes))
    print(f"{len(ids)} predictions for tasks {sorted(preds)} written to {out}")
    return EXIT_OK


def _align_predictions(gold_ids, pred_ids, preds):
    known = set(pred_ids)
    missing = [i for i in gold_ids if i not in known]
    if missing:
        shown = ", ".join(missing[:10])
        raise DataError(f"predictions are missing {len(missing)} gold ids: {shown}")
    index = {ex_id: pos for pos, ex_id in enumerate(pred_ids)}
    order = [index[i] for i in gold_ids]
    return {t: np.asarray(v)[order] for t, v in preds.items()}


def cmd_evaluate(args) -> int:
    for i, path in enumerate(args.pred):  # a file given twice would vote twice in the ensemble
        if Path(path).resolve() in {Path(p).resolve() for p in args.pred[:i]}:
            raise ConfigError(f"--pred {path} is given more than once")
    out = _output_path(args.out) if args.out else None
    # gold may be labels-only (comment_id + label columns) or a full dataset file
    gold_ids, gold_labels = dt.load_predictions(args.gold)
    systems = {}
    for path in args.pred:
        pred_ids, preds = dt.load_predictions(path)
        if not set(preds) & set(gold_labels):
            raise DataError(f"{path}: no task column in common with {args.gold}")
        name = Path(path).stem
        if name in systems:
            name = str(path)
        systems[name] = _align_predictions(gold_ids, pred_ids, preds)

    per_system_metrics = {
        name: {t: mx.score(labels, gold_labels[t], args.averaging) for t, labels in preds.items() if t in gold_labels}
        for name, preds in systems.items()
    }
    if len(systems) > 1:
        shared = [t for t in dt.TASKS if t in gold_labels and all(t in preds for preds in systems.values())]
        ensemble = {t: tr.ensemble_predict(np.stack([preds[t] for preds in systems.values()])) for t in shared}
        per_system_metrics["ensemble"] = {t: mx.score(ensemble[t], gold_labels[t], args.averaging) for t in shared}

    print(f"averaging mode: {args.averaging}")
    rows = []
    for name, by_task in per_system_metrics.items():
        for task, metric in by_task.items():
            rows.append([name, task, metric.averaging,
                         f"{metric.precision:.6f}", f"{metric.recall:.6f}", f"{metric.f1:.6f}"])
            print(f"{name:24s} {task:14s} P={metric.precision:.4f} R={metric.recall:.4f} F1={metric.f1:.4f}")
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["system", "task", "averaging", "precision", "recall", "f1"])
            writer.writerows(rows)
        print(f"metrics written to {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    outs = []
    if args.out is not None:
        if not Path(args.out).name:
            raise DataError(f"--out {args.out!r} has no file name to give the .txt and .csv suffixes")
        outs = [_output_path(Path(args.out).with_suffix(suffix)) for suffix in (".txt", ".csv")]
    grid, source = {}, {}
    for run_dir in args.runs:
        run = Path(run_dir)
        manifest_path = run / "manifest.json"
        if not manifest_path.exists():
            raise DataError(f"no manifest.json in {run}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            key = (manifest.get("model_name", "scratch"), manifest["environment"])
        except (ValueError, AttributeError, KeyError) as exc:  # not JSON, not an object, no environment
            raise DataError(f"{run}: unreadable manifest.json: {exc!r}") from exc
        if not all(isinstance(part, str) for part in key):
            raise DataError(f"{run}: manifest.json model_name and environment must be strings, got {key!r}")
        if key in source:
            raise DataError(f"{source[key]} and {run} are both model {key[0]!r} in environment {key[1]!r}")
        source[key] = run
        gold_ids, gold = dt.load_predictions(run / "val-gold.csv")
        pred_ids, preds = dt.load_predictions(run / "preds-ensemble.csv")
        missing = [t for t in dt.TASKS if t not in gold or t not in preds]
        if missing:
            raise DataError(f"{run}: val-gold.csv or preds-ensemble.csv lacks the tasks {missing}")
        aligned = _align_predictions(gold_ids, pred_ids, preds)
        grid[key] = {t: mx.score(aligned[t], gold[t], args.averaging) for t in dt.TASKS}
    table = mx.results_table(grid)
    print(f"averaging mode: {args.averaging}")
    print(table.text, end="")
    if outs:
        txt_out, csv_out = outs
        txt_out.parent.mkdir(parents=True, exist_ok=True)
        txt_out.write_text(table.text, encoding="utf-8")
        csv_out.write_text(table.csv, encoding="utf-8")
        print(f"report written to {txt_out} and {csv_out}")
    return EXIT_OK


# -- argument parsing -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise ConfigError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--env", dest="environment", choices=(md.STL, md.MTL), help="training environment")
    lm = p.add_mutually_exclusive_group()
    lm.add_argument("--lm", dest="lm_stage", action="store_true", default=None,
                    help="run the masked-LM stage before classification")
    lm.add_argument("--no-lm", dest="lm_stage", action="store_false", default=None)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--lr", dest="learning_rate", help="peak learning rate")
    p.add_argument("--epochs", dest="num_epochs", help="training epochs")
    p.add_argument("--batch-size", dest="batch_size")
    p.add_argument("--split-seed", dest="split_seed")
    p.add_argument("--max-len", dest="max_len", help="encoded sequence length (0: max_seq_len)")
    p.add_argument("--averaging", choices=mx.AVERAGING_MODES)
    p.add_argument("--model-name", dest="model_name", help="row label in reports")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="germeval-mtl",
                     description="Desk-scale single-task and multitask comment classification")
    parser.add_argument("--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="train a WordPiece vocabulary from a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-size", dest="max_size", type=int, default=8000)
    p.add_argument("--min-freq", dest="min_freq", type=int, default=1)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("pretrain-lm", help="masked-LM fine-tuning, standalone")
    _add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.set_defaults(func=cmd_pretrain_lm)

    p = sub.add_parser("train", help="run the configured experiment over all seeds")
    _add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label a file with trained checkpoints")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="model checkpoint (repeat for several STL models)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True, help="file with comment_id and comment_text")
    p.add_argument("--out", required=True)
    p.add_argument("--max-len", dest="max_len", type=int,
                   help="encoded sequence length (default: the smallest checkpoint max_seq_len)")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score prediction files against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", action="append", required=True,
                   help="prediction file (repeat for a seed ensemble)")
    p.add_argument("--averaging", choices=mx.AVERAGING_MODES, default="macro")
    p.add_argument("--out", help="write system,task,P,R,F1 rows here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="combine train runs into the results grid")
    p.add_argument("--runs", nargs="+", required=True, help="train output directories")
    p.add_argument("--averaging", choices=mx.AVERAGING_MODES, default="macro")
    p.add_argument("--out", help="basename for .txt and .csv report files")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "verbose", False):
            logging.basicConfig(level=logging.INFO)
        with np.errstate(all="ignore"):  # a blow-up ends in the one NumericError line, not warnings first
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # the arena fits, but a batch's activations do not
        print(f"config error: the settings need more memory than can be allocated: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
