"""``build_vocab`` against the earlier three-pass trainer kept in ``wordpiece_reference``."""

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
def test_build_vocab_matches_the_reference_trainer(corpus, max_size, min_freq):
    expected = reference_build_vocab(corpus, max_size=max_size, min_freq=min_freq)
    assert tok.build_vocab(corpus, max_size=max_size, min_freq=min_freq).id_to_token == expected.id_to_token
