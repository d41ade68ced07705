import numpy as np
import pytest

from germeval_mtl import tokenizer as tok


@pytest.fixture(scope="module")
def small_vocab():
    corpus = [
        "du hast das thema im kern nicht verstanden",
        "das thema ist wichtig",
        "du hast recht",
        "ab ab ab",
    ]
    return tok.build_vocab(corpus, max_size=200)


def test_specials_occupy_first_five_ids(small_vocab):
    assert small_vocab.id_to_token[:5] == list(tok.SPECIAL_TOKENS)
    assert small_vocab.token_to_id[tok.PAD] == 0
    assert small_vocab.token_to_id[tok.MASK] == 4


def test_vocab_ids_dense_and_bijective(small_vocab):
    assert sorted(small_vocab.token_to_id.values()) == list(range(len(small_vocab)))
    for token, idx in small_vocab.token_to_id.items():
        assert small_vocab.id_to_token[idx] == token


def test_build_vocab_learns_repeated_word():
    vocab = tok.build_vocab(["ab ab ab"], max_size=10)
    assert "ab" in vocab.token_to_id
    enc = tok.encode(vocab, "ab", max_len=5)
    content = [i for i in enc.ids if i not in (tok.PAD_ID, tok.CLS_ID, tok.SEP_ID)]
    assert len(content) == 1 and content[0] != tok.UNK_ID


def test_min_freq_excludes_hapax_whole_words():
    vocab = tok.build_vocab(["ab ab cd"], max_size=50, min_freq=2)
    assert "ab" in vocab.token_to_id
    assert "cd" not in vocab.token_to_id
    # hapax characters still reach the alphabet
    assert "c" in vocab.token_to_id and "##d" in vocab.token_to_id


def test_build_vocab_deterministic():
    corpus = ["wer das liest ist klug", "das liest niemand", "wer weiss das schon"]
    a = tok.build_vocab(corpus, max_size=60)
    b = tok.build_vocab(corpus, max_size=60)
    assert a.id_to_token == b.id_to_token


def test_build_vocab_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tok.build_vocab(["text"], max_size=5)
    with pytest.raises(ValueError):
        tok.build_vocab([], max_size=100)
    with pytest.raises(ValueError):
        tok.build_vocab(["   "], max_size=100)
    for min_freq in (0, -5):
        with pytest.raises(ValueError, match="min_freq"):
            tok.build_vocab(["text"], max_size=100, min_freq=min_freq)


def test_vocab_round_trips_through_file(tmp_path, small_vocab):
    path = tmp_path / "vocab.txt"
    small_vocab.save(path)
    loaded = tok.Vocab.load(path)
    assert loaded == small_vocab


def test_encode_empty_text(small_vocab):
    enc = tok.encode(small_vocab, "", max_len=6)
    assert enc.ids == [tok.CLS_ID, tok.SEP_ID, tok.PAD_ID, tok.PAD_ID, tok.PAD_ID, tok.PAD_ID]
    assert enc.attention_mask == [1, 1, 0, 0, 0, 0]


def test_encode_structure(small_vocab):
    enc = tok.encode(small_vocab, "das thema", max_len=12)
    assert len(enc.ids) == 12 and len(enc.attention_mask) == 12
    assert enc.ids[0] == tok.CLS_ID
    sep_positions = [i for i, t in enumerate(enc.ids) if t == tok.SEP_ID]
    assert len(sep_positions) == 1
    for idx, mask in zip(enc.ids, enc.attention_mask):
        assert (mask == 0) == (idx == tok.PAD_ID)


def test_encode_truncates_but_keeps_sep(small_vocab):
    long_text = " ".join(["thema"] * 50)
    enc = tok.encode(small_vocab, long_text, max_len=10)
    assert len(enc.ids) == 10
    assert enc.ids[-1] == tok.SEP_ID
    assert tok.PAD_ID not in enc.ids


def test_encode_rejects_tiny_max_len(small_vocab):
    with pytest.raises(ValueError):
        tok.encode(small_vocab, "x", max_len=2)


def test_table1_comment_has_content_ids():
    corpus = [
        "du hast das Thema im Kern nicht verstanden",
        "das Thema ist nicht neu",
        "du hast im Kern recht",
    ]
    vocab = tok.build_vocab(corpus, max_size=300)
    enc = tok.encode(vocab, "@USER, du hast das Thema im Kern nicht verstanden", max_len=40)
    content = [i for i in enc.ids if i >= len(tok.SPECIAL_TOKENS)]
    assert len(content) >= 1


def test_decode_recovers_subword_sequence(small_vocab):
    text = "das thema im kern"
    pieces = small_vocab.tokenize(text)
    enc = tok.encode(small_vocab, text, max_len=20)
    assert tok.decode(small_vocab, enc.ids) == pieces


def test_decode_keeps_unk_substitutions(small_vocab):
    enc = tok.encode(small_vocab, "das é", max_len=10)  # é never seen in corpus
    decoded = tok.decode(small_vocab, enc.ids)
    assert tok.UNK in decoded


def test_mask_prob_limit_keeps_input(small_vocab):
    enc = tok.encode(small_vocab, "das thema ist wichtig", max_len=16)
    masked, labels = tok.mask_for_mlm(small_vocab, enc, rng_seed=0, mask_prob=1e-12)
    assert masked.ids == enc.ids
    assert labels == [tok.IGNORE_INDEX] * len(enc.ids)


def test_specials_never_selected(small_vocab):
    enc = tok.encode(small_vocab, "das thema", max_len=8)
    special_positions = [i for i, t in enumerate(enc.ids) if t < len(tok.SPECIAL_TOKENS)]
    for seed in range(10_000):
        _, labels = tok.mask_for_mlm(small_vocab, enc, rng_seed=seed, mask_prob=0.5)
        for pos in special_positions:
            if labels[pos] != tok.IGNORE_INDEX:
                raise AssertionError(f"special position {pos} selected at seed {seed}")


def test_selection_rate_concentrates(small_vocab):
    total, selected = 0, 0
    enc = tok.encode(small_vocab, "das thema ist wichtig du hast recht", max_len=64)
    maskable = sum(1 for t in enc.ids if t >= len(tok.SPECIAL_TOKENS))
    seed = 0
    while total < 10_000:
        _, labels = tok.mask_for_mlm(small_vocab, enc, rng_seed=seed, mask_prob=0.15)
        selected += sum(1 for v in labels if v != tok.IGNORE_INDEX)
        total += maskable
        seed += 1
    rate = selected / total
    assert 0.13 <= rate <= 0.17


def test_masking_deterministic_given_seed(small_vocab):
    enc = tok.encode(small_vocab, "das thema ist wichtig", max_len=16)
    a = tok.mask_for_mlm(small_vocab, enc, rng_seed=7, mask_prob=0.3)
    b = tok.mask_for_mlm(small_vocab, enc, rng_seed=7, mask_prob=0.3)
    assert a[0].ids == b[0].ids and a[1] == b[1]


def test_mask_never_alters_ignored_positions(small_vocab):
    enc = tok.encode(small_vocab, "du hast das thema im kern nicht verstanden", max_len=24)
    for seed in range(50):
        masked, labels = tok.mask_for_mlm(small_vocab, enc, rng_seed=seed, mask_prob=0.4)
        for pos, label in enumerate(labels):
            if label == tok.IGNORE_INDEX:
                assert masked.ids[pos] == enc.ids[pos]


def test_mask_prob_validation(small_vocab):
    enc = tok.encode(small_vocab, "das", max_len=4)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            tok.mask_for_mlm(small_vocab, enc, rng_seed=0, mask_prob=bad)


def test_corruption_split_roughly_80_10_10(small_vocab):
    enc = tok.encode(small_vocab, "das thema ist wichtig du hast recht", max_len=64)
    to_mask = to_random = kept = 0
    for seed in range(4000):
        masked, labels = tok.mask_for_mlm(small_vocab, enc, rng_seed=seed, mask_prob=0.3)
        for pos, label in enumerate(labels):
            if label == tok.IGNORE_INDEX:
                continue
            if masked.ids[pos] == tok.MASK_ID:
                to_mask += 1
            elif masked.ids[pos] == enc.ids[pos]:
                kept += 1
            else:
                to_random += 1
    n = to_mask + to_random + kept
    assert to_mask / n == pytest.approx(0.8, abs=0.03)
    assert kept / n == pytest.approx(0.1, abs=0.03)
    assert to_random / n <= 0.13  # random draw may coincide with the original id
