"""The functions the benchmark wraps, the counters kept at those
boundaries, and the per-layer metrics built from a traced run."""

from __future__ import annotations

import statistics

import numpy as np

from germeval_mtl import autodiff as ad
from germeval_mtl import cli
from germeval_mtl import data as dt
from germeval_mtl import metrics as mx
from germeval_mtl import model as md
from germeval_mtl import objectives as obj
from germeval_mtl import tokenizer as tok
from germeval_mtl import train as tr
from spans import Target, Tracer

MODULES = {"autodiff": ad, "model": md, "objectives": obj, "train": tr, "tokenizer": tok,
           "data": dt, "metrics": mx, "cli": cli}

FUNCTIONS = {
    "autodiff": ("backward", "matmul", "add", "mul", "layer_norm", "gelu", "softmax_rows", "dropout",
                 "embedding_lookup", "cross_entropy", "transpose", "reshape", "narrow"),
    "model": ("encoder_forward", "stl_forward", "mtl_forward", "mlm_forward", "classify", "init_model",
              "save_checkpoint", "load_checkpoint"),
    "objectives": ("task_loss", "loss_bundle", "mlm_loss"),
    "train": ("run_experiment", "train_one", "lm_finetune", "adam_step", "evaluate_model", "predict_dataset",
              "ensemble_predict"),
    "tokenizer": ("build_vocab", "encode", "mask_for_mlm", "tokenize_word"),
    "data": ("encode_examples", "split", "load_dataset", "load_texts", "write_predictions"),
    "metrics": ("score",),
    "cli": ("cmd_build_vocab", "cmd_predict"),
}
ALL_NAMES = [f"{module}.{fn}" for module, fns in FUNCTIONS.items() for fn in fns]

# Stage-level calls: wrapped in untimed-overhead runs too (a few spans per
# optimizer step), and reported with inclusive time in traced runs.
STAGE_NAMES = ["train.train_one", "train.lm_finetune", "train.adam_step", "train.predict_dataset",
               "cli.cmd_build_vocab", "cli.cmd_predict"]
TOTAL_NAMES = ["train.run_experiment", "train.train_one", "train.lm_finetune", "train.evaluate_model",
               "train.predict_dataset", "tokenizer.build_vocab", "cli.cmd_build_vocab", "cli.cmd_predict"]

RATIOS = {  # metric -> (numerator counter, denominator counter)
    "model.real_token_ratio": ("model.real_positions", "model.positions"),
    "objectives.mlm_scored_ratio": ("objectives.mlm_scored", "objectives.mlm_projected"),
    "train.eval_encoder_passes_per_example": ("train.eval_encoder_rows", "train.eval_examples"),
    "tokenizer.tokenize_word.unique_ratio": ("tokenizer.tokenize_word.distinct", "tokenizer.tokenize_word.calls"),
}
COUNTS = ["train.adam_step.param_elems", "train.train_one.steps", "train.lm_finetune.steps",
          "tokenizer.build_vocab.merges"]


# -- probes: counters taken where the work happens ---------------------------------


def _encoder_forward(tracer: Tracer, args, result) -> None:
    mask = np.asarray(args[2])
    tracer.counts["model.real_positions"] += int(np.count_nonzero(mask))
    tracer.counts["model.positions"] += mask.size
    if tracer.open["train.evaluate_model"]:
        tracer.counts["train.eval_encoder_rows"] += mask.shape[0]


def _evaluate_model(tracer: Tracer, args, result) -> None:
    tracer.counts["train.eval_examples"] += len(args[1])


def _predict_dataset(tracer: Tracer, args, result) -> None:
    tracer.counts["train.predict_dataset.examples"] += len(args[1])


def _mlm_loss(tracer: Tracer, args, result) -> None:
    logits, labels = args[0], np.asarray(args[1])
    tracer.counts["objectives.mlm_scored"] += int(np.count_nonzero(labels != tok.IGNORE_INDEX))
    tracer.counts["objectives.mlm_projected"] += logits.shape[0] * logits.shape[1]


def _adam_step(tracer: Tracer, args, result) -> None:
    tracer.counts["train.adam_step.param_elems"] += sum(t.data.size for t in args[0].values())
    stage = "train.lm_finetune" if tracer.open["train.lm_finetune"] else "train.train_one"
    tracer.counts[f"{stage}.steps"] += 1


def _build_vocab(tracer: Tracer, args, result) -> None:
    added = [t for t in result.id_to_token[len(tok.SPECIAL_TOKENS):] if len(t.removeprefix("##")) > 1]
    tracer.counts["tokenizer.build_vocab.merges"] += len(added)


def _tokenize_word(tracer: Tracer, args, result) -> None:
    tracer.counts["tokenizer.tokenize_word.calls"] += 1
    tracer.seen["tokenizer.tokenize_word.distinct"].add(args[1])


PROBES = {
    "model.encoder_forward": _encoder_forward,
    "train.evaluate_model": _evaluate_model,
    "train.predict_dataset": _predict_dataset,
    "objectives.mlm_loss": _mlm_loss,
    "train.adam_step": _adam_step,
    "tokenizer.build_vocab": _build_vocab,
    "tokenizer.tokenize_word": _tokenize_word,
}


def targets(names: list[str]) -> list[Target]:
    out = []
    for name in names:
        module, fn = name.split(".")
        owner = tok.Vocab if name == "tokenizer.tokenize_word" else MODULES[module]
        out.append(Target(owner, fn, name, PROBES.get(name)))
    return out


# -- metrics -------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metric_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in ALL_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in TOTAL_NAMES:
        units[f"{name}.total_s"] = "s"
    units["autodiff.graph_nodes"] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    for name in COUNTS:
        units[name] = "count"
    units["tokenizer.unk_rate"] = "ratio"
    units["tokenizer.truncation_rate"] = "ratio"
    for name in ("bench.unwrapped.self_s", "bench.traced_wall_s", "bench.untraced_wall_s",
                 "bench.trace_overhead_s"):
        units[name] = "s"
    units["bench.self_sum_error"] = "ratio"
    return units


def workload_shape(vocab: tok.Vocab, texts: list[str], max_len: int) -> dict:
    """UNK rate over subword pieces and the share of texts cut at ``max_len``."""
    pieces = unknown = truncated = 0
    for text in texts:
        parts = vocab.tokenize(text)
        pieces += len(parts)
        unknown += parts.count(tok.UNK)
        truncated += len(parts) > max_len - 2
    return {"tokenizer.unk_rate": _ratio(unknown, pieces), "tokenizer.truncation_rate": _ratio(truncated, len(texts))}


def per_layer_metrics(traced: list, plain: list, graph_nodes: list, shape: dict) -> dict:
    """Means over the traced repetitions; counts repeat exactly between them."""
    n = len(traced)

    def mean(get) -> float:
        return sum(get(s) for s in traced) / n

    values = {}
    for name in ALL_NAMES:
        values[f"{name}.calls"] = mean(lambda s: s.calls[name])
        values[f"{name}.self_s"] = mean(lambda s: s.self_ns[name]) / 1e9
    for name in TOTAL_NAMES:
        values[f"{name}.total_s"] = mean(lambda s: s.total_ns[name]) / 1e9
    values["autodiff.graph_nodes"] = statistics.median(graph_nodes)
    for name, (num, den) in RATIOS.items():
        values[name] = _ratio(mean(lambda s: s.counts[num]), mean(lambda s: s.counts[den]))
    for name in COUNTS:
        values[name] = mean(lambda s: s.counts[name])
    values.update(shape)
    traced_wall = mean(lambda s: s.wall_ns) / 1e9
    untraced_wall = sum(s.wall_ns for s in plain) / len(plain) / 1e9
    values["bench.unwrapped.self_s"] = mean(lambda s: s.self_ns[Tracer.ROOT]) / 1e9
    values["bench.traced_wall_s"] = traced_wall
    values["bench.untraced_wall_s"] = untraced_wall
    values["bench.trace_overhead_s"] = traced_wall - untraced_wall
    self_sum = sum(values[f"{name}.self_s"] for name in ALL_NAMES) + values["bench.unwrapped.self_s"]
    values["bench.self_sum_error"] = abs(self_sum - traced_wall) / traced_wall
    units = metric_units()
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def stage_rates(plain: list) -> dict:
    """Optimizer steps/s per stage and build-vocab seconds, medians over untraced repetitions.

    Printed with every run; they are not in the JSON result because they
    do not apply to every workload.
    """
    out = {}
    for metric, stage in (("train_steps_per_s", "train.train_one"), ("lm_steps_per_s", "train.lm_finetune")):
        rates = [s.counts[f"{stage}.steps"] / (s.total_ns[stage] / 1e9) for s in plain if s.total_ns[stage]]
        if rates:
            out[metric] = {"value": statistics.median(rates), "unit": "1/s"}
    builds = [s.total_ns["cli.cmd_build_vocab"] / 1e9 for s in plain if s.total_ns["cli.cmd_build_vocab"]]
    if builds:
        out["build_vocab_s"] = {"value": statistics.median(builds), "unit": "s"}
    return out
