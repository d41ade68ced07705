"""The WordPiece trainer as it stood before the one-pass merge loop.

Kept verbatim as the oracle for ``tokenizer.build_vocab``: the property test
in ``test_wordpiece_oracle.py`` asserts both give the same ``id_to_token``.
"""

from __future__ import annotations

from collections import Counter

from germeval_mtl.tokenizer import SPECIAL_TOKENS, Vocab, pre_tokenize


def build_vocab(corpus: list[str], max_size: int = 8000, min_freq: int = 1) -> Vocab:
    """Train a WordPiece vocabulary on ``corpus``.

    Characters seed the inventory (continuations carry the ``##`` prefix),
    then adjacent-pair merges are applied greedily by the WordPiece score
    pair_freq / (left_freq * right_freq) until ``max_size`` is reached.
    Words rarer than ``min_freq`` contribute characters but are never
    merged into whole-word entries. Ties break lexicographically, so the
    result is a pure function of (corpus, max_size, min_freq).
    """
    if max_size <= 5:
        raise ValueError("max_size must exceed the 5 special tokens")
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
    vocab_set = set(tokens)

    splits = {
        word: [c if i == 0 else "##" + c for i, c in enumerate(word)]
        for word, freq in word_freqs.items()
        if freq >= min_freq
    }
    unit_freqs = Counter()
    for word, parts in splits.items():
        for part in parts:
            unit_freqs[part] += word_freqs[word]

    while len(tokens) < max_size:
        pair_freqs = Counter()
        for word, parts in splits.items():
            freq = word_freqs[word]
            for left, right in zip(parts, parts[1:]):
                pair_freqs[(left, right)] += freq
        if not pair_freqs:
            break

        def score(pair):
            return pair_freqs[pair] / (unit_freqs[pair[0]] * unit_freqs[pair[1]])

        best_score = max(score(p) for p in pair_freqs)
        left, right = min(p for p in pair_freqs if score(p) == best_score)
        merged = left + right[2:] if right.startswith("##") else left + right
        # Two distinct pairs never spell the same string, so this guard never
        # fires. The oracle keeps it: were a string to repeat, the trainer's
        # Vocab would refuse the duplicate and the property test would fail.
        if merged not in vocab_set:
            tokens.append(merged)
            vocab_set.add(merged)
        for word, parts in splits.items():
            out = []
            i = 0
            while i < len(parts):
                if i + 1 < len(parts) and parts[i] == left and parts[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(parts[i])
                    i += 1
            splits[word] = out
        unit_freqs = Counter()
        for word, parts in splits.items():
            for part in parts:
                unit_freqs[part] += word_freqs[word]

    return Vocab(tokens)
