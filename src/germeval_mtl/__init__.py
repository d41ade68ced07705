"""Desk-scale single-task and multitask transformer classifiers.

Implements the full pipeline for the three GermEval-2021 comment tasks
(toxic, engaging, fact-claiming): a NumPy autodiff engine, a WordPiece
tokenizer, a transformer encoder with single-task or shared multitask
heads, masked-language-model pretraining, seeded training with early
stopping, majority-vote seed ensembling, and precision/recall/F1 scoring.
"""

from germeval_mtl.autodiff import GradCheckReport, Tensor, finite_diff_grad, grad_check
from germeval_mtl.data import Example, SynthSpec, load_dataset, split, summarize, synth_generate
from germeval_mtl.metrics import ConfusionCounts, TaskMetrics, confusion, prf1, results_table
from germeval_mtl.model import EncoderConfig, ModelParams, init_model, load_checkpoint, save_checkpoint
from germeval_mtl.objectives import LossBundle, loss_bundle, mlm_loss, task_loss
from germeval_mtl.tokenizer import EncodedInput, Vocab, build_vocab, encode, mask_for_mlm
from germeval_mtl.train import (
    RunRecord,
    TrainConfig,
    ensemble_predict,
    lm_finetune,
    run_experiment,
    train_one,
)

__all__ = [
    "ConfusionCounts",
    "EncodedInput",
    "EncoderConfig",
    "Example",
    "GradCheckReport",
    "LossBundle",
    "ModelParams",
    "RunRecord",
    "SynthSpec",
    "TaskMetrics",
    "Tensor",
    "TrainConfig",
    "Vocab",
    "build_vocab",
    "confusion",
    "encode",
    "ensemble_predict",
    "finite_diff_grad",
    "grad_check",
    "init_model",
    "lm_finetune",
    "load_checkpoint",
    "load_dataset",
    "loss_bundle",
    "mask_for_mlm",
    "mlm_loss",
    "prf1",
    "results_table",
    "run_experiment",
    "save_checkpoint",
    "split",
    "summarize",
    "synth_generate",
    "task_loss",
    "train_one",
]

__version__ = "0.1.0"
