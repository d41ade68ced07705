"""WordPiece-style subword tokenizer trained on the task corpus.

No pretrained vocabulary is involved: the vocabulary is learned from
whatever corpus it is given, which keeps the pipeline self-contained while
preserving the usual CLS/SEP/PAD/MASK mechanics the encoder and the
masked-LM objective expect.
"""

from __future__ import annotations

import heapq
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)

IGNORE_INDEX = -100  # label value for positions the MLM loss skips

_WORD_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def pre_tokenize(text: str) -> list[str]:
    """NFC-normalize and split into words and single punctuation marks."""
    return _WORD_RE.findall(unicodedata.normalize("NFC", text))


class Vocab:
    """Immutable token inventory with the five special tokens at ids 0-4."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:5]) != SPECIAL_TOKENS:
            raise ValueError(f"vocab must start with {SPECIAL_TOKENS}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocab contains duplicate tokens")
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.id_to_token == other.id_to_token

    def tokenize_word(self, word: str) -> list[str]:
        """Greedy longest-match segmentation; [UNK] if any part is unknown."""
        pieces = []
        start = 0
        while start < len(word):
            end = len(word)
            piece = None
            while start < end:
                candidate = word[start:end]
                if start > 0:
                    candidate = "##" + candidate
                if candidate in self.token_to_id:
                    piece = candidate
                    break
                end -= 1
            if piece is None:
                return [UNK]
            pieces.append(piece)
            start = end
        return pieces

    def tokenize(self, text: str) -> list[str]:
        pieces = []
        for word in pre_tokenize(text):
            pieces.extend(self.tokenize_word(word))
        return pieces

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.id_to_token) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(tokens)


@dataclass
class EncodedInput:
    """Fixed-length id sequence: [CLS] content [SEP] padding."""

    ids: list[int]
    attention_mask: list[int]


def build_vocab(corpus: list[str], max_size: int = 8000, min_freq: int = 1) -> Vocab:
    """Train a WordPiece vocabulary on ``corpus``.

    Characters seed the inventory (continuations carry the ``##`` prefix),
    then adjacent-pair merges are applied greedily by the WordPiece score
    pair_freq / (left_freq * right_freq) until ``max_size`` is reached.
    Words rarer than ``min_freq`` contribute characters but are never
    merged into whole-word entries. Ties break lexicographically, so the
    result is a pure function of (corpus, max_size, min_freq).

    Unit and pair counts are taken once and then kept up to date: a merge
    rewrites only the words its pair occurs in, moves their counts from the
    old split to the new one, and pushes a fresh score for each pair whose
    count changed or that contains a unit whose count changed. A heap entry
    is used only while its pair exists and rescores to the same float, and
    the heap is rebuilt from the live pairs once it holds twice as many
    entries. The vocabulary is the one a full recount before every merge
    gives.
    """
    if max_size <= 5:
        raise ValueError("max_size must exceed the 5 special tokens")
    if min_freq < 1:
        raise ValueError("min_freq must be at least 1")
    word_freqs = Counter()
    for text in corpus:
        word_freqs.update(pre_tokenize(text))
    if not word_freqs:
        raise ValueError("cannot build a vocabulary from an empty corpus")

    # Alphabet from every word; merges only over words meeting min_freq.
    alphabet_freqs = Counter()
    for word, freq in word_freqs.items():
        for pos, char in enumerate(word):
            alphabet_freqs[char if pos == 0 else "##" + char] += freq
    alphabet = sorted(alphabet_freqs, key=lambda t: (-alphabet_freqs[t], t))

    tokens = list(SPECIAL_TOKENS) + alphabet[: max_size - 5]

    splits = [(freq, [c if i == 0 else "##" + c for i, c in enumerate(word)])
              for word, freq in word_freqs.items() if freq >= min_freq]
    units, pairs = {}, {}  # plain dicts: Counter's __missing__ costs a Python call per new key
    where = {}  # pair -> indices of the words that held it; an entry may be stale, so each is checked
    with_unit = {}  # unit -> the live pairs that contain it
    heap = []  # (-score, pair): the highest score first, its ties broken lexicographically
    rewritten = [(idx, [], parts) for idx, (_, parts) in enumerate(splits)]  # at first every word is new
    while True:
        # Move each rewritten word's counts from its old split to its new one.
        unit_delta, pair_delta = {}, {}
        for idx, before, after in rewritten:
            freq = splits[idx][0]
            for sign, seq in ((-freq, before), (freq, after)):
                for part in seq:
                    unit_delta[part] = unit_delta.get(part, 0) + sign
                for pair in zip(seq, seq[1:]):
                    pair_delta[pair] = pair_delta.get(pair, 0) + sign
            for pair in zip(after, after[1:]):
                where.setdefault(pair, set()).add(idx)
        # A score moves with its pair's count and with either unit's count.
        rescore = set()
        for pair, delta in pair_delta.items():
            if not delta:
                continue
            n = pairs.get(pair, 0) + delta
            if n:
                if pair not in pairs:
                    with_unit.setdefault(pair[0], set()).add(pair)
                    with_unit.setdefault(pair[1], set()).add(pair)
                pairs[pair] = n
                rescore.add(pair)
            else:
                del pairs[pair]
                where.pop(pair, None)
                with_unit[pair[0]].discard(pair)
                with_unit[pair[1]].discard(pair)
        for unit, delta in unit_delta.items():
            if delta:
                units[unit] = units.get(unit, 0) + delta
                rescore.update(with_unit.get(unit, ()))
        for a, b in rescore:
            heapq.heappush(heap, (-pairs[a, b] / (units[a] * units[b]), (a, b)))
        if len(heap) > 2 * len(pairs):  # stale entries would otherwise pile up
            heap = [(-n / (units[a] * units[b]), (a, b)) for (a, b), n in pairs.items()]
            heapq.heapify(heap)

        if len(tokens) >= max_size or not pairs:
            break
        while True:  # an entry is live while its pair exists and rescoring gives the same float
            key, (left, right) = heapq.heappop(heap)
            n = pairs.get((left, right))
            if n and key == -n / (units[left] * units[right]):
                break
        merged = left + right[2:] if right.startswith("##") else left + right
        tokens.append(merged)
        rewritten = []
        for idx in where.pop((left, right)):
            parts = splits[idx][1]
            before = parts[:]
            i = 0
            while i < len(parts) - 1:
                if parts[i] == left and parts[i + 1] == right:
                    parts[i:i + 2] = [merged]
                i += 1
            if len(parts) < len(before):
                rewritten.append((idx, before, parts))

    return Vocab(tokens)


def encode(vocab: Vocab, text: str, max_len: int = 120) -> EncodedInput:
    """[CLS] + subword ids + [SEP], truncated to ``max_len``, PAD-filled."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3 (CLS + token + SEP)")
    piece_ids = [vocab.token_to_id.get(p, UNK_ID) for p in vocab.tokenize(text)]
    piece_ids = piece_ids[: max_len - 2]
    ids = [CLS_ID] + piece_ids + [SEP_ID]
    mask = [1] * len(ids)
    pad = max_len - len(ids)
    return EncodedInput(ids + [PAD_ID] * pad, mask + [0] * pad)


def decode(vocab: Vocab, ids: list[int]) -> list[str]:
    """Recover the subword pieces, dropping structural specials."""
    return [vocab.id_to_token[i] for i in ids if i == UNK_ID or i >= len(SPECIAL_TOKENS)]


def mask_for_mlm(
    vocab: Vocab,
    encoded: EncodedInput,
    rng_seed: int,
    mask_prob: float = 0.15,
) -> tuple[EncodedInput, list[int]]:
    """Corrupt token positions for masked-language-model training.

    Each non-special position is selected independently with ``mask_prob``.
    Selected positions become [MASK] 80% of the time, a random non-special
    vocab id 10%, and stay unchanged 10%; labels carry the original id at
    selected positions and IGNORE_INDEX everywhere else.
    """
    if not 0.0 < mask_prob < 1.0:
        raise ValueError("mask_prob must lie strictly between 0 and 1")
    rng = np.random.default_rng(rng_seed)
    n_special = len(SPECIAL_TOKENS)
    ids = list(encoded.ids)
    labels = [IGNORE_INDEX] * len(ids)
    select = rng.random(len(ids)) < mask_prob
    for pos, original in enumerate(ids):
        if original < n_special or not select[pos]:
            continue
        labels[pos] = original
        roll = rng.random()
        if roll < 0.8:
            ids[pos] = MASK_ID
        elif roll < 0.9 and len(vocab) > n_special:
            ids[pos] = int(rng.integers(n_special, len(vocab)))
        # else: keep the original token
    return EncodedInput(ids, list(encoded.attention_mask)), labels
