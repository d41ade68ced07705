"""``build_vocab`` against the earlier three-pass trainer kept in ``wordpiece_reference``."""

import heapq
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from germeval_mtl import tokenizer as tok
from wordpiece_reference import build_vocab as reference_build_vocab

# Few letters so that pairs repeat and scores tie; umlauts, ß, digits and punctuation.
ALPHABET = "abenrst" + "äöüß" + "019" + ".,!?-"

words = st.text(alphabet=ALPHABET, min_size=1, max_size=8)
texts = st.lists(words, min_size=1, max_size=8).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(corpus=st.lists(texts, min_size=1, max_size=12),
       max_size=st.integers(6, 80), min_freq=st.integers(1, 3))
@example(corpus=["b b b b baaaa"], max_size=12, min_freq=1)  # ##a ##a merges left to right, twice in one word
# Runs of one letter split by parity: ##aa ##aa in the six-letter word, ##aa ##a in the five-letter one.
@example(corpus=["aaaaaa aa aaaaa"], max_size=30, min_freq=1)
# Merges lower some pair counts without removing the pair, which leaves heap entries scored too high.
@example(corpus=["äb?b tnäb bnö1n!b aäs a0sbß äöasö äa aßa bnr t0110ß!tä"], max_size=24, min_freq=1)
@example(corpus=["abc abd"], max_size=7, min_freq=1)  # the alphabet alone overflows max_size
@example(corpus=["sehr sehr gut gut gut ja nein"], max_size=40, min_freq=2)  # ja and nein are never merged
def test_build_vocab_matches_the_reference_trainer(corpus, max_size, min_freq):
    expected = reference_build_vocab(corpus, max_size=max_size, min_freq=min_freq)
    assert tok.build_vocab(corpus, max_size=max_size, min_freq=min_freq).id_to_token == expected.id_to_token


def german_like_texts(n: int, seed: int) -> list[str]:
    """``n`` short texts over a Zipf-weighted lexicon of German-like syllable words."""
    rng = random.Random(seed)
    syllables = [onset + vowel + coda
                 for onset in ("b", "d", "g", "k", "l", "m", "r", "sch", "st", "w")
                 for vowel in ("a", "e", "i", "o", "u", "ä", "ö", "ü", "ei", "au")
                 for coda in ("", "n", "r", "t", "ß")]
    lexicon = ["".join(rng.choices(syllables, k=rng.randint(1, 3))) for _ in range(400)]
    lexicon = [word.capitalize() if rng.random() < 0.3 else word for word in lexicon]
    weights = [1 / rank for rank in range(1, len(lexicon) + 1)]
    return [" ".join(rng.choices(lexicon, weights, k=rng.randint(3, 8))) + rng.choice(".!?,") for _ in range(n)]


def test_build_vocab_matches_the_reference_trainer_on_a_mid_size_corpus(monkeypatch):
    heapifies = []
    heapify = heapq.heapify
    monkeypatch.setattr(heapq, "heapify", lambda heap: heapifies.append(len(heap)) or heapify(heap))
    corpus = german_like_texts(150, seed=2021)
    vocab = tok.build_vocab(corpus, max_size=250)
    assert heapifies  # stale entries piled up and the heap was rebuilt from the live pairs
    assert vocab.id_to_token == reference_build_vocab(corpus, max_size=250).id_to_token
