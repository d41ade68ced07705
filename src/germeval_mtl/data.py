"""Dataset ingestion, splitting, distribution audits, and synthetic corpora.

The on-disk format is delimited text with one comment per row and three
binary label columns (toxic, engaging, fact-claiming). Column names and
the delimiter are declarative so the loader tolerates whatever header the
official release uses.
"""

from __future__ import annotations

import csv
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from germeval_mtl import tokenizer as tok

TASKS = ("toxic", "engaging", "fact_claiming")


class DataError(Exception):
    """Raised for unreadable, malformed, or mislabeled dataset files."""


@dataclass
class Example:
    id: str
    text: str
    toxic: int
    engaging: int
    fact_claiming: int

    def label(self, task: str) -> int:
        return getattr(self, task)

    def label_triple(self) -> tuple[int, int, int]:
        return (self.toxic, self.engaging, self.fact_claiming)


@dataclass
class FormatSpec:
    delimiter: str = ","
    id_column: str = "comment_id"
    text_column: str = "comment_text"
    label_columns: dict = field(
        default_factory=lambda: {
            "toxic": "Sub1_Toxic",
            "engaging": "Sub2_Engaging",
            "fact_claiming": "Sub3_FactClaiming",
        }
    )


@dataclass
class DatasetSummary:
    """Counts of examples per (toxic, engaging, fact_claiming) triple."""

    total: int
    counts: dict

    def count(self, toxic: int, engaging: int, fact_claiming: int) -> int:
        return self.counts.get((toxic, engaging, fact_claiming), 0)


def _parse_binary(value: str, column: str, line_num: int) -> int:
    value = value.strip()
    if value not in ("0", "1"):
        raise DataError(f"line {line_num}: column {column!r} has non-binary label {value!r}")
    return int(value)


def load_dataset(path: str | Path, format_spec: FormatSpec | None = None) -> list[Example]:
    """Read one Example per row, preserving text verbatim (after NFC)."""
    spec = format_spec or FormatSpec()
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    examples = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, delimiter=spec.delimiter)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a header row")
        needed = [spec.id_column, spec.text_column, *spec.label_columns.values()]
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: header is missing columns {missing}")
        for row in reader:
            line = reader.line_num
            if None in row or any(row[c] is None for c in needed):
                raise DataError(f"line {line}: malformed row (field count mismatch)")
            labels = {
                task: _parse_binary(row[column], column, line)
                for task, column in spec.label_columns.items()
            }
            examples.append(
                Example(
                    id=row[spec.id_column].strip(),
                    text=unicodedata.normalize("NFC", row[spec.text_column]),
                    **labels,
                )
            )
    return examples


def load_texts(path: str | Path, format_spec: FormatSpec | None = None) -> tuple[list[str], list[str]]:
    """Read (ids, texts) from a file that may or may not carry labels."""
    spec = format_spec or FormatSpec()
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    ids, texts = [], []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, delimiter=spec.delimiter)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a header row")
        for column in (spec.id_column, spec.text_column):
            if column not in reader.fieldnames:
                raise DataError(f"{path}: header is missing column {column!r}")
        for row in reader:
            if row[spec.id_column] is None or row[spec.text_column] is None:
                raise DataError(f"line {reader.line_num}: malformed row (field count mismatch)")
            ids.append(row[spec.id_column].strip())
            texts.append(unicodedata.normalize("NFC", row[spec.text_column]))
    return ids, texts


def write_dataset(path: str | Path, examples: list[Example], format_spec: FormatSpec | None = None) -> None:
    spec = format_spec or FormatSpec()
    columns = [spec.id_column, spec.text_column, *spec.label_columns.values()]
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=spec.delimiter)
        writer.writerow(columns)
        for ex in examples:
            writer.writerow([ex.id, ex.text, *(ex.label(t) for t in spec.label_columns)])


def write_predictions(path: str | Path, ids: list[str], preds: dict) -> None:
    """Emit `comment_id` plus one 0/1 column per predicted task."""
    tasks = [t for t in TASKS if t in preds]
    spec = FormatSpec()
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["comment_id", *(spec.label_columns[t] for t in tasks)])
        for i, ex_id in enumerate(ids):
            writer.writerow([ex_id, *(int(preds[t][i]) for t in tasks)])


def load_predictions(path: str | Path) -> tuple[list[str], dict]:
    """Inverse of write_predictions; returns (ids, task -> 0/1 array).

    Duplicate ids are rejected: aligning them to gold labels is ambiguous.
    """
    task_of = {c: t for t, c in FormatSpec().label_columns.items()}
    path = Path(path)
    if not path.exists():
        raise DataError(f"predictions file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "comment_id" not in reader.fieldnames:
            raise DataError(f"{path}: expected a header starting with comment_id")
        columns = {task_of[c]: c for c in reader.fieldnames if c in task_of}
        if not columns:
            raise DataError(f"{path}: no recognized label columns in header")
        ids, preds, first_line = [], {t: [] for t in columns}, {}
        for row in reader:
            line = reader.line_num
            if row["comment_id"] is None or any(row[c] is None for c in columns.values()):
                raise DataError(f"{path}: line {line}: malformed row (field count mismatch)")
            ex_id = row["comment_id"].strip()
            if ex_id in first_line:
                raise DataError(f"{path}: line {line}: duplicate comment_id {ex_id!r}"
                                f" (first on line {first_line[ex_id]})")
            first_line[ex_id] = line
            ids.append(ex_id)
            for task, column in columns.items():
                preds[task].append(_parse_binary(row[column], column, line))
    return ids, {t: np.asarray(v, dtype=np.int64) for t, v in preds.items()}


def summarize(examples: list[Example]) -> DatasetSummary:
    counts: dict = {}
    for ex in examples:
        key = ex.label_triple()
        counts[key] = counts.get(key, 0) + 1
    return DatasetSummary(total=len(examples), counts=counts)


def split(examples: list[Example], ratio: float, seed: int) -> tuple[list[Example], list[Example]]:
    """Seeded shuffle, then prefix split at round(ratio * n)."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    perm = np.random.default_rng(seed).permutation(len(examples))
    cut = int(round(ratio * len(examples)))
    train = [examples[i] for i in perm[:cut]]
    val = [examples[i] for i in perm[cut:]]
    return train, val


# -- synthetic desk-scale corpora ---------------------------------------------

_SYLLABLES = ("ba", "de", "ki", "lo", "mu", "na", "po", "ri", "su", "ta")


@dataclass
class SynthSpec:
    """Controls for the planted-marker generator.

    ``correlation`` is the target pairwise agreement between any two label
    columns (1.0 makes them identical, 0.5 independent). ``noise`` flips
    each label after its marker was planted, decoupling label from marker.
    """

    correlation: float = 1.0
    noise: float = 0.0
    markers: dict = field(
        default_factory=lambda: {
            "toxic": "TOXMARK",
            "engaging": "ENGMARK",
            "fact_claiming": "FACTMARK",
        }
    )
    filler_words: int = 40
    min_tokens: int = 6
    max_tokens: int = 12


def _filler_vocabulary(count: int) -> list[str]:
    if not 1 <= count <= len(_SYLLABLES) ** 2:
        raise ValueError(f"filler_words must be in [1, {len(_SYLLABLES) ** 2}]")
    words = []
    for i in range(count):
        first, second = divmod(i, len(_SYLLABLES))
        words.append(_SYLLABLES[first] + _SYLLABLES[second])
    return words


def synth_generate(n: int, seed: int, spec: SynthSpec | None = None) -> list[Example]:
    """Generate labeled comments whose labels follow planted marker tokens."""
    spec = spec or SynthSpec()
    if n < 1:
        raise ValueError("need at least one example")
    if not 0.5 <= spec.correlation <= 1.0:
        raise ValueError("correlation is a pairwise agreement target in [0.5, 1]")
    # Pairwise agreement of two labels derived from a shared bit flipped
    # independently with probability q is q^2 + (1-q)^2; invert for q.
    q = 0.5 * (1.0 - np.sqrt(2.0 * spec.correlation - 1.0))
    rng = np.random.default_rng(seed)
    fillers = _filler_vocabulary(spec.filler_words)
    examples = []
    for i in range(n):
        shared = rng.random() < 0.5
        labels = {task: int(shared ^ (rng.random() < q)) for task in TASKS}
        length = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        tokens = [fillers[int(k)] for k in rng.integers(0, len(fillers), size=length)]
        for task in TASKS:
            if labels[task]:
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), spec.markers[task])
        for task in TASKS:
            if spec.noise > 0 and rng.random() < spec.noise:
                labels[task] ^= 1
        examples.append(Example(id=f"synth-{i:05d}", text=" ".join(tokens), **labels))
    return examples


def gold_labels(examples: list[Example]) -> dict:
    return {t: np.asarray([ex.label(t) for ex in examples], dtype=np.int64) for t in TASKS}


# -- bridging to the trainer ---------------------------------------------------


@dataclass
class EncodedDataset:
    """Dense id/mask matrices plus per-task label vectors."""

    ids: np.ndarray
    attention_mask: np.ndarray
    labels: dict
    example_ids: list

    def __len__(self) -> int:
        return self.ids.shape[0]


def encode_examples(vocab: tok.Vocab, examples: list[Example], max_len: int) -> EncodedDataset:
    encoded = [tok.encode(vocab, ex.text, max_len) for ex in examples]
    return EncodedDataset(
        ids=np.asarray([e.ids for e in encoded], dtype=np.int64),
        attention_mask=np.asarray([e.attention_mask for e in encoded], dtype=np.float64),
        labels=gold_labels(examples),
        example_ids=[ex.id for ex in examples],
    )
