"""Dataset ingestion, splitting, distribution audits, and synthetic corpora.

The on-disk format is the GermEval-2021 release's: comma-separated text
with the header ``comment_id,comment_text,Sub1_Toxic,Sub2_Engaging,
Sub3_FactClaiming``, one comment per row, and three binary label columns
(toxic, engaging, fact-claiming).
"""

from __future__ import annotations

import csv
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from germeval_mtl import tokenizer as tok

TASKS = ("toxic", "engaging", "fact_claiming")
ID_COLUMN = "comment_id"
TEXT_COLUMN = "comment_text"
LABEL_COLUMNS = {"toxic": "Sub1_Toxic", "engaging": "Sub2_Engaging", "fact_claiming": "Sub3_FactClaiming"}


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
class DatasetSummary:
    """Counts of examples per (toxic, engaging, fact_claiming) triple."""

    total: int
    counts: dict

    def count(self, toxic: int, engaging: int, fact_claiming: int) -> int:
        return self.counts.get((toxic, engaging, fact_claiming), 0)


def _csv_rows(path: Path, handle):
    """(line number, row) of each record; text that is not UTF-8 and a field
    over ``csv``'s size limit become a DataError naming ``path``."""
    reader = csv.reader(handle)
    try:
        for row in reader:
            yield reader.line_num, row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read(path: str | Path, text: bool, labels: bool | None) -> tuple[list, list, dict]:
    """The one reader behind every loader: (ids, texts, task -> 0/1 labels).

    A header is required and names the id, text and label columns at most
    once each; every row has exactly its field count; ids are stripped and
    unique. ``labels`` True requires every label column, None takes the
    label columns the header has (at least one), False reads none.
    ``texts`` stays empty unless ``text``. Blank lines are skipped.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: file not found")
    with path.open(newline="", encoding="utf-8") as handle:
        rows = _csv_rows(path, handle)
        header = next(rows, (0, None))[1]
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        col = {name: i for i, name in enumerate(header)}
        for name in (ID_COLUMN, TEXT_COLUMN, *LABEL_COLUMNS.values()):
            if header.count(name) > 1:
                raise DataError(f"{path}: header names column {name!r} more than once")
        task_of = {c: t for t, c in LABEL_COLUMNS.items()}
        if labels is None:  # header order, as the file was written
            wanted = {task_of[c]: c for c in col if c in task_of}
        else:
            wanted = LABEL_COLUMNS if labels else {}
        needed = [ID_COLUMN, *([TEXT_COLUMN] if text else []), *wanted.values()]
        missing = [c for c in needed if c not in col]
        if missing:
            raise DataError(f"{path}: header is missing columns {missing}")
        if labels is None and not wanted:
            raise DataError(f"{path}: header has none of the label columns {list(task_of)}")
        ids, texts, values, first_line = [], [], {t: [] for t in wanted}, {}
        for line, row in rows:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: line {line}: expected {len(header)} fields, got {len(row)}")
            ex_id = row[col[ID_COLUMN]].strip()
            if ex_id in first_line:
                raise DataError(f"{path}: line {line}: duplicate {ID_COLUMN} {ex_id!r}"
                                f" (first on line {first_line[ex_id]})")
            first_line[ex_id] = line
            ids.append(ex_id)
            if text:
                texts.append(unicodedata.normalize("NFC", row[col[TEXT_COLUMN]]))
            for task, column in wanted.items():
                value = row[col[column]].strip()
                if value not in ("0", "1"):
                    raise DataError(f"{path}: line {line}: column {column!r} has non-binary label {value!r}")
                values[task].append(int(value))
    return ids, texts, values


def load_dataset(path: str | Path) -> list[Example]:
    """Read one Example per row, preserving text verbatim (after NFC)."""
    ids, texts, labels = _read(path, text=True, labels=True)
    return [Example(ex_id, text, **{t: v[n] for t, v in labels.items()})
            for n, (ex_id, text) in enumerate(zip(ids, texts))]


def load_texts(path: str | Path) -> tuple[list[str], list[str]]:
    """Read (ids, texts) from a file that may or may not carry labels."""
    ids, texts, _ = _read(path, text=True, labels=False)
    return ids, texts


def write_dataset(path: str | Path, examples: list[Example]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([ID_COLUMN, TEXT_COLUMN, *LABEL_COLUMNS.values()])
        for ex in examples:
            writer.writerow([ex.id, ex.text, *(ex.label(t) for t in LABEL_COLUMNS)])


def write_predictions(path: str | Path, ids: list[str], preds: dict) -> None:
    """Emit `comment_id` plus one 0/1 column per predicted task."""
    tasks = [t for t in TASKS if t in preds]
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([ID_COLUMN, *(LABEL_COLUMNS[t] for t in tasks)])
        for i, ex_id in enumerate(ids):
            writer.writerow([ex_id, *(int(preds[t][i]) for t in tasks)])


def load_predictions(path: str | Path) -> tuple[list[str], dict]:
    """Inverse of write_predictions; returns (ids, task -> 0/1 array).

    Takes whichever label columns the header has. Duplicate ids are
    rejected: aligning them to gold labels is ambiguous.
    """
    ids, _, labels = _read(path, text=False, labels=None)
    return ids, {t: np.asarray(v, dtype=np.int64) for t, v in labels.items()}


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
_FILLERS = [a + b for a in _SYLLABLES[:4] for b in _SYLLABLES]
MARKERS = {"toxic": "TOXMARK", "engaging": "ENGMARK", "fact_claiming": "FACTMARK"}


@dataclass
class SynthSpec:
    """Controls for the planted-marker generator.

    ``correlation`` is the target pairwise agreement between any two label
    columns (1.0 makes them identical, 0.5 independent). ``noise`` flips
    each label after its marker was planted, decoupling label from marker.
    """

    correlation: float = 1.0
    noise: float = 0.0
    min_tokens: int = 6
    max_tokens: int = 12


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
    examples = []
    for i in range(n):
        shared = rng.random() < 0.5
        labels = {task: int(shared ^ (rng.random() < q)) for task in TASKS}
        length = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        tokens = [_FILLERS[int(k)] for k in rng.integers(0, len(_FILLERS), size=length)]
        for task in TASKS:
            if labels[task]:
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), MARKERS[task])
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
