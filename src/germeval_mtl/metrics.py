"""Per-task precision/recall/F1 and the model-by-environment results grid."""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

ENVIRONMENT_ORDER = ("STL", "LM+STL", "MTL", "LM+MTL")
AVERAGING_MODES = ("macro", "positive_class")


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class TaskMetrics:
    precision: float
    recall: float
    f1: float
    averaging: str  # "positive_class" or "macro"


def confusion(preds, gold) -> ConfusionCounts:
    preds = np.asarray(preds, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if preds.shape != gold.shape or preds.ndim != 1 or preds.size == 0:
        raise ValueError(f"prediction/gold length mismatch: {preds.shape} vs {gold.shape}")
    for name, arr in (("predictions", preds), ("gold", gold)):
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{name} must be 0/1")
    return ConfusionCounts(
        tp=int(((preds == 1) & (gold == 1)).sum()),
        fp=int(((preds == 1) & (gold == 0)).sum()),
        fn=int(((preds == 0) & (gold == 1)).sum()),
        tn=int(((preds == 0) & (gold == 0)).sum()),
    )


def _ratio(num: int, denom: int, what: str) -> float:
    if denom == 0:
        logger.debug("%s undefined (0/0); reporting 0 by convention", what)
        return 0.0
    return num / denom


def _single_class(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = _ratio(tp, tp + fp, "precision")
    r = _ratio(tp, tp + fn, "recall")
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def prf1(c: ConfusionCounts, averaging: str = "macro") -> TaskMetrics:
    """Precision/recall/F1 from counts.

    ``positive_class`` scores class 1 alone; ``macro`` scores each class as
    the positive one and averages. Zero denominators yield 0, never raise.
    """
    if c.total <= 0:
        raise ValueError("empty confusion counts")
    if averaging == "positive_class":
        p, r, f1 = _single_class(c.tp, c.fp, c.fn)
    elif averaging == "macro":
        p1, r1, f11 = _single_class(c.tp, c.fp, c.fn)
        p0, r0, f10 = _single_class(c.tn, c.fn, c.fp)
        p, r, f1 = (p1 + p0) / 2, (r1 + r0) / 2, (f11 + f10) / 2
    else:
        raise ValueError(f"unknown averaging mode {averaging!r}")
    return TaskMetrics(precision=p, recall=r, f1=f1, averaging=averaging)


def score(preds, gold, averaging: str = "macro") -> TaskMetrics:
    return prf1(confusion(preds, gold), averaging)


@dataclass
class ResultTable:
    text: str  # aligned, human-readable
    csv: str  # model,environment,task,precision,recall,f1
    best: dict  # task -> set of (model, environment) with the top F1


def _ordered_rows(metrics: dict) -> list:
    models = list(dict.fromkeys(model for model, _ in metrics))
    seen = [env for _, env in metrics]
    envs = list(dict.fromkeys([e for e in ENVIRONMENT_ORDER if e in seen] + seen))
    rows = []
    for model in models:
        for env in envs:
            if (model, env) in metrics:
                rows.append((model, env))
    return rows


def results_table(metrics: dict) -> ResultTable:
    """Render {(model, environment): {task: TaskMetrics}} as a results grid.

    One row per model/environment pair, P/R/F1 columns per task; the best
    F1 per task is starred. Environments follow the STL, LM+STL, MTL,
    LM+MTL order when present.
    """
    if not metrics:
        raise ValueError("no metrics to tabulate")
    rows = _ordered_rows(metrics)
    tasks = list(next(iter(metrics.values())))

    best: dict = {}
    for task in tasks:
        top = max(metrics[key][task].f1 for key in rows)
        best[task] = {key for key in rows if metrics[key][task].f1 == top}

    header = ["model", "environment"]
    for task in tasks:
        header += [f"{task}:P", f"{task}:R", f"{task}:F1"]
    table_rows = [header]
    for key in rows:
        model, env = key
        cells = [model, env]
        for task in tasks:
            m = metrics[key][task]
            flag = "*" if key in best[task] else ""
            cells += [f"{m.precision:.4f}", f"{m.recall:.4f}", f"{m.f1:.4f}{flag}"]
        table_rows.append(cells)
    widths = [max(len(row[i]) for row in table_rows) for i in range(len(header))]
    lines = []
    for row in table_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    lines.insert(1, "-" * len(lines[0]))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "environment", "task", "averaging", "precision", "recall", "f1", "best"])
    for key in rows:
        model, env = key
        for task in tasks:
            m = metrics[key][task]
            writer.writerow([model, env, task, m.averaging,
                             f"{m.precision:.6f}", f"{m.recall:.6f}", f"{m.f1:.6f}", int(key in best[task])])

    return ResultTable(text="\n".join(lines) + "\n", csv=buf.getvalue(), best=best)
