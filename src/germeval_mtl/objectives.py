"""Task losses, the equal-weight multitask loss, and the masked-LM loss."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from germeval_mtl import autodiff as ad
from germeval_mtl.tokenizer import IGNORE_INDEX

logger = logging.getLogger(__name__)

_BUNDLE_FIELDS = {"toxic": "l_toxic", "engaging": "l_engage", "fact_claiming": "l_fact"}


@dataclass
class LossBundle:
    """The three task losses and their arithmetic mean, on one graph."""

    l_toxic: ad.Tensor
    l_engage: ad.Tensor
    l_fact: ad.Tensor
    l_multi: ad.Tensor

    def task(self, task: str) -> ad.Tensor:
        return getattr(self, _BUNDLE_FIELDS[task])


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


def multi_loss(l_toxic: ad.Tensor, l_engage: ad.Tensor, l_fact: ad.Tensor) -> ad.Tensor:
    """Exact arithmetic mean of the three task losses (equal importance)."""
    for term in (l_toxic, l_engage, l_fact):
        if term.data.size != 1:
            raise ValueError("multi_loss expects scalar task losses")
    return ad.add(ad.add(l_toxic, l_engage), l_fact) / 3


def loss_bundle(outputs: dict, labels: dict) -> LossBundle:
    """Per-task losses plus their mean, built on the shared forward graph."""
    losses = {task: task_loss(outputs[task], labels[task]) for task in _BUNDLE_FIELDS}
    return LossBundle(
        l_toxic=losses["toxic"],
        l_engage=losses["engaging"],
        l_fact=losses["fact_claiming"],
        l_multi=multi_loss(losses["toxic"], losses["engaging"], losses["fact_claiming"]),
    )


def mlm_loss(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean cross-entropy over the positions selected for masking.

    ``labels`` holds original token ids at selected positions and
    IGNORE_INDEX elsewhere; only those rows of the logits are scored. A
    batch with nothing selected yields a constant 0 loss (and a warning)
    instead of an error, so tiny corpora cannot derail the LM stage.
    """
    if logits.ndim != 3:
        raise ValueError(f"mlm logits must be (batch, seq, vocab), got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    batch, seq, vocab = logits.shape
    if labels.size != batch * seq:
        raise ValueError(f"got {labels.size} labels for {batch * seq} positions")
    rows = np.flatnonzero(labels != IGNORE_INDEX)
    if rows.size == 0:
        logger.warning("masked-LM batch has no selected positions; loss is 0")
        return ad.Tensor(0.0)
    return ad.cross_entropy(ad.reshape(logits, (batch * seq, vocab))[rows], labels[rows])
