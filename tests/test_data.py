import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from germeval_mtl import cli
from germeval_mtl import data as dt
from germeval_mtl import tokenizer as tok

HEADER = "comment_id,comment_text,Sub1_Toxic,Sub2_Engaging,Sub3_FactClaiming"

ANNOTATED_COMMENTS = [
    (
        "Die AfD sind genau so neoliberal und kapitalistische Zerstörer unserer "
        "Heimat, wie die CDU, CSU, FDP, SPD und Grüne auch.",
        (1, 0, 0),
    ),
    (
        "Sarazin ist ein rechtsradikaler Mensch. Ein Menschenhasser. Sie kennen "
        "nur Zerstörung. Die Geschichte hat es gezeigt.",
        (1, 0, 1),
    ),
    ("@USER, du hast das Thema im Kern nicht verstanden", (0, 0, 1)),
    ("Ich frage dich, verlassen Menschen gerne ihre Heimat?", (0, 0, 0)),
]


def _write(path, rows):
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")


def test_annotated_comments_round_trip(tmp_path):
    path = tmp_path / "train.csv"
    examples = [
        dt.Example(id=f"c{i}", text=text, toxic=t, engaging=e, fact_claiming=f)
        for i, (text, (t, e, f)) in enumerate(ANNOTATED_COMMENTS)
    ]
    dt.write_dataset(path, examples)
    loaded = dt.load_dataset(path)
    assert [ex.label_triple() for ex in loaded] == [lbl for _, lbl in ANNOTATED_COMMENTS]
    assert [ex.text for ex in loaded] == [text for text, _ in ANNOTATED_COMMENTS]


def test_write_back_is_lossless(tmp_path):
    examples = [
        dt.Example(id="a", text='mit "Zitat", Komma und\nZeilenumbruch', toxic=0, engaging=1, fact_claiming=0)
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    dt.write_dataset(first, examples)
    once = dt.load_dataset(first)
    dt.write_dataset(second, once)
    twice = dt.load_dataset(second)
    assert once == twice
    assert once[0].text == examples[0].text


def test_empty_file_after_header(tmp_path):
    path = tmp_path / "empty.csv"
    _write(path, [])
    assert dt.load_dataset(path) == []


def test_delimiter_inside_quotes(tmp_path):
    path = tmp_path / "quoted.csv"
    _write(path, ['c1,"Hallo, Welt",1,0,1'])
    (ex,) = dt.load_dataset(path)
    assert ex.text == "Hallo, Welt"
    assert ex.label_triple() == (1, 0, 1)


def test_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    _write(path, ["c1,ok,1,0,1", "c2,missing,1,0"])
    with pytest.raises(dt.DataError, match="line 3"):
        dt.load_dataset(path)


def test_non_binary_label_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    _write(path, ["c1,text,2,0,1"])
    with pytest.raises(dt.DataError, match="non-binary"):
        dt.load_dataset(path)


def test_missing_file_and_missing_columns(tmp_path):
    with pytest.raises(dt.DataError, match="not found"):
        dt.load_dataset(tmp_path / "nope.csv")
    path = tmp_path / "cols.csv"
    path.write_text("comment_id,comment_text,Sub1_Toxic\nc1,x,1\n", encoding="utf-8")
    with pytest.raises(dt.DataError, match="Sub2_Engaging"):
        dt.load_dataset(path)


def test_summarize_counts():
    examples = [
        dt.Example("a", "x", 1, 0, 0),
        dt.Example("b", "y", 1, 0, 0),
        dt.Example("c", "z", 0, 1, 1),
    ]
    summary = dt.summarize(examples)
    assert summary.total == 3
    assert summary.count(1, 0, 0) == 2
    assert summary.count(0, 1, 1) == 1
    assert summary.count(1, 1, 1) == 0
    assert sum(summary.counts.values()) == summary.total


def test_summarize_empty():
    summary = dt.summarize([])
    assert summary.total == 0 and summary.counts == {}


def test_split_sizes():
    examples = dt.synth_generate(10, seed=0)
    train, val = dt.split(examples, 0.8, seed=1)
    assert len(train) == 8 and len(val) == 2


def test_split_deterministic_and_partitioning():
    examples = dt.synth_generate(37, seed=0)
    a_train, a_val = dt.split(examples, 0.8, seed=5)
    b_train, b_val = dt.split(examples, 0.8, seed=5)
    assert a_train == b_train and a_val == b_val
    ids = sorted(ex.id for ex in a_train + a_val)
    assert ids == sorted(ex.id for ex in examples)
    assert not {ex.id for ex in a_train} & {ex.id for ex in a_val}


def test_split_3244_gives_2595():
    examples = dt.synth_generate(3244, seed=0, spec=dt.SynthSpec(min_tokens=2, max_tokens=3))
    train, val = dt.split(examples, 0.8, seed=0)
    assert len(train) == 2595 and len(val) == 649


def test_split_ratio_validation():
    with pytest.raises(ValueError):
        dt.split([], 1.0, seed=0)


def test_synth_markers_deterministic_at_zero_noise():
    spec = dt.SynthSpec(correlation=0.8, noise=0.0)
    for ex in dt.synth_generate(300, seed=3, spec=spec):
        for task in dt.TASKS:
            assert (dt.MARKERS[task] in ex.text.split()) == bool(ex.label(task))


def test_synth_regeneration_identical():
    a = dt.synth_generate(50, seed=9)
    b = dt.synth_generate(50, seed=9)
    assert a == b


def test_synth_correlation_one_gives_identical_columns():
    for ex in dt.synth_generate(200, seed=4, spec=dt.SynthSpec(correlation=1.0)):
        assert ex.toxic == ex.engaging == ex.fact_claiming


def test_synth_pairwise_agreement_concentrates():
    examples = dt.synth_generate(1000, seed=11, spec=dt.SynthSpec(correlation=0.7))
    labels = dt.gold_labels(examples)
    for a, b in [("toxic", "engaging"), ("toxic", "fact_claiming"), ("engaging", "fact_claiming")]:
        agreement = float(np.mean(labels[a] == labels[b]))
        assert 0.65 <= agreement <= 0.75, (a, b, agreement)


def test_synth_marginals_near_half():
    examples = dt.synth_generate(2000, seed=12, spec=dt.SynthSpec(correlation=0.7, noise=0.1))
    labels = dt.gold_labels(examples)
    for task in dt.TASKS:
        rate = float(labels[task].mean())
        assert 0.45 <= rate <= 0.55, (task, rate)


def test_synth_validation():
    with pytest.raises(ValueError):
        dt.synth_generate(0, seed=0)
    with pytest.raises(ValueError):
        dt.synth_generate(5, seed=0, spec=dt.SynthSpec(correlation=0.3))


def test_encode_examples_shapes():
    examples = dt.synth_generate(6, seed=1)
    vocab = tok.build_vocab([ex.text for ex in examples], max_size=300)
    ds = dt.encode_examples(vocab, examples, max_len=16)
    assert ds.ids.shape == (6, 16)
    assert ds.attention_mask.shape == (6, 16)
    assert set(ds.labels) == set(dt.TASKS)
    assert len(ds) == 6


def test_predictions_round_trip(tmp_path):
    path = tmp_path / "preds.csv"
    ids = ["a", "b", "c"]
    preds = {t: np.array([1, 0, 1]) for t in dt.TASKS}
    dt.write_predictions(path, ids, preds)
    loaded_ids, loaded = dt.load_predictions(path)
    assert loaded_ids == ids
    for task in dt.TASKS:
        assert np.array_equal(loaded[task], preds[task])


def test_single_task_predictions_round_trip(tmp_path):
    path = tmp_path / "preds.csv"
    dt.write_predictions(path, ["a", "b"], {"engaging": np.array([0, 1])})
    ids, loaded = dt.load_predictions(path)
    assert list(loaded) == ["engaging"]
    assert np.array_equal(loaded["engaging"], [0, 1])


def test_predictions_reject_duplicate_ids(tmp_path):
    path = tmp_path / "preds.csv"
    dt.write_predictions(path, ["a", "b", "a"], {"toxic": np.array([1, 0, 0])})
    with pytest.raises(dt.DataError, match=r"line 4: duplicate comment_id 'a' \(first on line 2\)"):
        dt.load_predictions(path)


@pytest.mark.parametrize("loader, row, reason", [
    ("load_texts", "c2,extra,1,0,1,x", "expected 5 fields, got 6"),
    ("load_predictions", "c2,extra,1,0,1,x", "expected 5 fields, got 6"),
    ("load_dataset", "c1,again,0,0,0", r"duplicate comment_id 'c1' \(first on line 2\)"),
    ("load_texts", " c1 ,again,0,0,0", r"duplicate comment_id 'c1' \(first on line 2\)"),
])
def test_loaders_share_one_row_contract(tmp_path, loader, row, reason):
    path = tmp_path / "bad.csv"
    _write(path, ["c1,ok,1,0,1", row])
    with pytest.raises(dt.DataError, match=f"^{re.escape(str(path))}: line 3: {reason}$"):
        getattr(dt, loader)(path)


@pytest.mark.parametrize("loader", ["load_dataset", "load_texts", "load_predictions"])
def test_every_loader_error_names_the_path(tmp_path, loader):
    bad = {  # file name -> (content, or None for no file; error prefix after the path)
        "missing.csv": (None, ""),
        "empty.csv": ("", ""),
        "no_id.csv": ("comment_text,Sub1_Toxic\nx,1\n", ""),
        "short.csv": (f"{HEADER}\nc1,ok,1,0\n", "line 2: "),
        "long.csv": (f"{HEADER}\nc1,ok,1,0,1,x\n", "line 2: "),
        "duplicate.csv": (f"{HEADER}\nc1,ok,1,0,1\nc1,ok,1,0,1\n", "line 3: "),
        "dup_header.csv": (f"{HEADER},Sub1_Toxic\nc1,ok,1,0,1,0\n", "header names column 'Sub1_Toxic' "),
    }
    if loader != "load_texts":
        bad["label.csv"] = (f"{HEADER}\nc1,ok,2,0,1\n", "line 2: ")
    for name, (content, where) in bad.items():
        path = tmp_path / name
        if content is not None:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(dt.DataError) as info:
            getattr(dt, loader)(path)
        assert str(info.value).startswith(f"{path}: {where}"), str(info.value)


_CSV_BYTES = st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(lambda tail: HEADER.encode() + b"\n" + tail),
    st.text(st.sampled_from(list(',"\n\r\x0001 xé\ufeff')), max_size=60)
    .map(lambda rows: f"{HEADER}\n{rows}".encode()),
)
_CONFIG_VALUES = st.text(st.sampled_from(list("0123456789.,-e xyé#=")), max_size=8)
_CONFIG_BYTES = st.lists(st.tuples(st.sampled_from(sorted(cli._DEFAULTS)), _CONFIG_VALUES), max_size=4).map(
    lambda pairs: "".join(f"{key} = {value}\n" for key, value in pairs).encode("latin-1"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(f"{HEADER}\nc1,café,0,1,0\n".encode("latin-1"))
@example(f"{HEADER}\nc1,{'x' * 200_000},0,1,0\n".encode())  # over csv's default field limit
@example("# café\nnum_epochs = 1\n".encode("latin-1"))
@given(content=st.one_of(_CSV_BYTES, _CONFIG_BYTES))
def test_readers_return_or_raise_their_one_error_on_any_bytes(tmp_path, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    for loader in (dt.load_dataset, dt.load_texts, dt.load_predictions):
        try:
            loader(path)
        except dt.DataError as exc:
            assert str(exc).startswith(f"{path}: ")
    try:
        cli.parse_config_file(path)
    except cli.ConfigError:
        pass
