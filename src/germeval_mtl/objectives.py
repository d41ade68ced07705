"""Task losses, their equal-weight mean over a model's heads, and the masked-LM loss."""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from germeval_mtl import autodiff as ad
from germeval_mtl.tokenizer import IGNORE_INDEX

logger = logging.getLogger(__name__)


@dataclass
class LossBundle:
    """Each head's task loss and their equal-weight mean, on one graph."""

    per_task: dict[str, ad.Tensor]
    mean: ad.Tensor


def task_loss(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean binary cross-entropy for one task, from (B, 2) head logits.

    Probabilities are refused: the fused log-softmax in ``cross_entropy``
    needs the pre-softmax scores to stay numerically stable.
    """
    if logits.op == "softmax_rows":
        raise ValueError("task_loss takes head logits, got softmax probabilities")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValueError("task labels must be 0/1")
    return ad.cross_entropy(logits, labels)


def loss_bundle(outputs: dict, labels: dict) -> LossBundle:
    """The classification objective over any non-empty dict of head logits.

    ``per_task`` holds each head's ``task_loss`` in the order of
    ``outputs``. ``mean`` is that loss itself for one head; for more it is
    their left-fold sum in that order divided by the head count, so every
    task weighs the same.
    """
    per_task = {task: task_loss(logits, labels[task]) for task, logits in outputs.items()}
    total = functools.reduce(ad.add, per_task.values())
    return LossBundle(per_task, total / len(per_task) if len(per_task) > 1 else total)


def mlm_loss(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean cross-entropy over the positions selected for masking.

    ``labels`` holds original token ids at selected positions and
    IGNORE_INDEX elsewhere; only those rows of the logits are scored. The
    labels may be wider than the logits, (B, L) against (B, w, V) from an
    encoder that trimmed trailing padding, as long as no trimmed column is
    selected. A batch with nothing selected yields a constant 0 loss (and
    a warning) instead of an error, so tiny corpora cannot derail the LM
    stage.
    """
    if logits.ndim != 3:
        raise ValueError(f"mlm logits must be (batch, seq, vocab), got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    batch, seq, vocab = logits.shape
    if labels.size % batch or labels.size < batch * seq:
        raise ValueError(f"got {labels.size} labels for {batch * seq} positions")
    labels = labels.reshape(batch, -1)
    if (labels[:, seq:] != IGNORE_INDEX).any():
        raise ValueError(f"a label is selected past the {seq} encoded columns of the logits")
    labels = labels[:, :seq].ravel()
    rows = np.flatnonzero(labels != IGNORE_INDEX)
    if rows.size == 0:
        logger.warning("masked-LM batch has no selected positions; loss is 0")
        return ad.Tensor(0.0)
    return ad.cross_entropy(ad.reshape(logits, (batch * seq, vocab))[rows], labels[rows])
