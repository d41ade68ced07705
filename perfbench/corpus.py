"""Deterministic diverse-vocabulary corpus generator for the benchmark.

Words are built from German-like syllables (umlauts included) and drawn
with Zipf frequencies, so a WordPiece vocabulary trained on the corpus has
many useful merges and a long tail of rare words. Each label is planted as
a marker word, as in ``data.synth_generate``, so a classifier can learn
it. Every output is a pure function of the seed and the arguments.
"""

from __future__ import annotations

import numpy as np

from germeval_mtl import data as dt

ONSETS = ("b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "w", "z", "sch", "st", "br")
NUCLEI = ("a", "e", "i", "o", "u", "ä", "ö", "ü", "ei", "au", "ie")
CODAS = ("", "", "", "", "n", "r", "s", "t", "ch", "ß")
PUNCTUATION = (".", ",", "!", "?")

ZIPF_EXPONENT = 1.05

# Marker words carry the planted labels. They use letters outside the
# syllable inventory (x, y, q) so no lexicon word can collide with them.
MARKERS = {"toxic": "Xyrgamox", "engaging": "Qyrandix", "fact_claiming": "Yxtafaqt"}


class Corpus:
    """A seeded lexicon of ``lexicon_size`` words and texts drawn from it with Zipf frequencies.

    Every text stream of one corpus shares the lexicon, so texts drawn for
    different purposes (vocabulary, training, prediction) overlap in
    vocabulary the way one real corpus does.
    """

    def __init__(self, seed: int, lexicon_size: int = 3000):
        self.seed = seed
        self.lexicon = make_lexicon(np.random.default_rng((seed, 7001)), lexicon_size)
        ranks = np.arange(1, lexicon_size + 1, dtype=np.float64)
        weights = ranks**-ZIPF_EXPONENT
        self.weights = weights / weights.sum()

    def examples(self, n: int, stream: int, min_words: int, max_words: int) -> list[dt.Example]:
        """``n`` labelled comments of ``min_words``..``max_words`` lexicon words plus markers."""
        rng = np.random.default_rng((self.seed, 7002, stream))
        out = []
        for i in range(n):
            labels = {task: int(rng.random() < 0.5) for task in dt.TASKS}
            length = int(rng.integers(min_words, max_words + 1))
            words = [self.lexicon[k] for k in rng.choice(len(self.lexicon), size=length, p=self.weights)]
            for task in dt.TASKS:
                if labels[task]:
                    words.insert(int(rng.integers(0, len(words) + 1)), MARKERS[task])
            punct = rng.random(len(words)) < 0.08
            marks = rng.integers(len(PUNCTUATION), size=len(words))
            text = " ".join(w + PUNCTUATION[m] if p else w for w, p, m in zip(words, punct, marks))
            out.append(dt.Example(id=f"s{stream}-{i:05d}", text=text, **labels))
        return out


def make_lexicon(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct 1-3 syllable words; about 30% capitalized like nouns."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n_syll = rng.choice((1, 2, 3), size=size, p=(0.3, 0.5, 0.2))
        onset = rng.integers(len(ONSETS), size=(size, 3))
        nucleus = rng.integers(len(NUCLEI), size=(size, 3))
        coda = rng.integers(len(CODAS), size=(size, 3))
        capital = rng.random(size) < 0.3
        for i in range(size):
            word = "".join(ONSETS[onset[i, j]] + NUCLEI[nucleus[i, j]] + CODAS[coda[i, j]] for j in range(n_syll[i]))
            if capital[i]:
                word = word[0].upper() + word[1:]
            if word not in seen and len(words) < size:
                seen.add(word)
                words.append(word)
    return words
