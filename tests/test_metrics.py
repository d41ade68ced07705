import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germeval_mtl import metrics as mx


def brute_force_counts(preds, gold):
    tp = fp = fn = tn = 0
    for p, g in zip(preds, gold):
        if p == 1 and g == 1:
            tp += 1
        elif p == 1 and g == 0:
            fp += 1
        elif p == 0 and g == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def brute_force_prf1(preds, gold, averaging):
    def one_class(positive):
        tp = sum(1 for p, g in zip(preds, gold) if p == positive and g == positive)
        fp = sum(1 for p, g in zip(preds, gold) if p == positive and g != positive)
        fn = sum(1 for p, g in zip(preds, gold) if p != positive and g == positive)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return prec, rec, f1

    if averaging == "positive_class":
        return one_class(1)
    ones = one_class(1)
    zeros = one_class(0)
    return tuple((a + b) / 2 for a, b in zip(ones, zeros))


def test_confusion_perfect():
    c = mx.confusion([1, 0, 1], [1, 0, 1])
    assert (c.fp, c.fn) == (0, 0)
    assert (c.tp, c.tn) == (2, 1)


def test_confusion_inverted():
    c = mx.confusion([1, 0, 1], [0, 1, 0])
    assert (c.tp, c.tn) == (0, 0)
    assert (c.fp, c.fn) == (2, 1)


def test_confusion_hand_count():
    c = mx.confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
    assert c.total == 4


def test_confusion_validation():
    with pytest.raises(ValueError, match="mismatch"):
        mx.confusion([1, 0], [1])
    with pytest.raises(ValueError, match="0/1"):
        mx.confusion([1, 2], [0, 1])
    with pytest.raises(ValueError):
        mx.confusion([], [])


def test_prf1_symmetric_case():
    m = mx.prf1(mx.ConfusionCounts(tp=1, fp=1, fn=1, tn=0), "positive_class")
    assert (m.precision, m.recall, m.f1) == (0.5, 0.5, 0.5)


def test_prf1_zero_denominator_is_zero():
    m = mx.prf1(mx.ConfusionCounts(tp=0, fp=0, fn=2, tn=3), "positive_class")
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


def test_prf1_macro_example():
    m = mx.prf1(mx.ConfusionCounts(tp=2, fp=1, fn=1, tn=6), "macro")
    assert m.f1 == pytest.approx(0.7619, abs=1e-4)
    per_class_f1s = (2 / 3, 6 / 7)
    assert m.f1 == pytest.approx(sum(per_class_f1s) / 2)


def test_prf1_rejects_unknown_mode():
    with pytest.raises(ValueError, match="averaging"):
        mx.prf1(mx.ConfusionCounts(1, 1, 1, 1), "micro")


@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=50),
    st.sampled_from(["positive_class", "macro"]),
)
@settings(max_examples=200, deadline=None)
def test_prf1_matches_brute_force(pairs, averaging):
    preds = [p for p, _ in pairs]
    gold = [g for _, g in pairs]
    m = mx.score(preds, gold, averaging)
    bp, br, bf = brute_force_prf1(preds, gold, averaging)
    assert m.precision == pytest.approx(bp, abs=1e-12)
    assert m.recall == pytest.approx(br, abs=1e-12)
    assert m.f1 == pytest.approx(bf, abs=1e-12)
    assert 0.0 <= m.f1 <= 1.0


@given(
    st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20),
    st.integers(2, 7),
)
@settings(max_examples=100, deadline=None)
def test_prf1_scale_free(tp, fp, fn, tn, k):
    if tp + fp + fn + tn == 0:
        tp = 1
    base = mx.prf1(mx.ConfusionCounts(tp, fp, fn, tn), "macro")
    scaled = mx.prf1(mx.ConfusionCounts(k * tp, k * fp, k * fn, k * tn), "macro")
    assert base == scaled


def test_f1_one_iff_no_errors():
    perfect = mx.prf1(mx.ConfusionCounts(tp=3, fp=0, fn=0, tn=2), "positive_class")
    assert perfect.f1 == 1.0
    flawed = mx.prf1(mx.ConfusionCounts(tp=3, fp=1, fn=0, tn=2), "positive_class")
    assert flawed.f1 < 1.0


def _metric(f1):
    return mx.TaskMetrics(precision=f1, recall=f1, f1=f1, averaging="macro")


def test_results_table_single_row_flagged_best():
    table = mx.results_table(
        {("tiny", "STL"): {"toxic": _metric(0.5), "engaging": _metric(0.6), "fact_claiming": _metric(0.7)}}
    )
    assert table.best["toxic"] == {("tiny", "STL")}
    assert table.text.count("*") == 3


def test_results_table_environment_grid_order():
    metrics = {}
    for env in ("LM+MTL", "STL", "MTL", "LM+STL"):
        metrics[("tiny", env)] = {t: _metric(0.5) for t in ("toxic", "engaging", "fact_claiming")}
    table = mx.results_table(metrics)
    lines = table.text.splitlines()
    envs = [line.split()[1] for line in lines[2:]]
    assert envs == ["STL", "LM+STL", "MTL", "LM+MTL"]


def test_results_table_lists_unlisted_environment_rows_once():
    tasks = ("toxic", "engaging", "fact_claiming")
    metrics = {key: {t: _metric(0.5) for t in tasks} for key in (("a", "X"), ("b", "X"), ("a", "STL"))}
    table = mx.results_table(metrics)
    rows = [tuple(line.split()[:2]) for line in table.text.splitlines()[2:]]
    assert rows == [("a", "STL"), ("a", "X"), ("b", "X")]
    csv_rows = [tuple(line.split(",")[:3]) for line in table.csv.splitlines()[1:]]
    assert csv_rows == [(model, env, t) for model, env in rows for t in tasks]


def test_results_table_best_matches_independent_scan():
    rng = np.random.default_rng(0)
    metrics = {}
    for model in ("a", "b"):
        for env in mx.ENVIRONMENT_ORDER:
            metrics[(model, env)] = {
                t: _metric(round(float(rng.random()), 4)) for t in ("toxic", "engaging", "fact_claiming")
            }
    table = mx.results_table(metrics)
    for task in ("toxic", "engaging", "fact_claiming"):
        top = max(m[task].f1 for m in metrics.values())
        expected = {k for k, m in metrics.items() if m[task].f1 == top}
        assert table.best[task] == expected
    # csv flags agree with the same scan; averaging is an explicit column
    for line in table.csv.splitlines()[1:]:
        model, env, task, averaging, _, _, f1, flag = line.split(",")
        assert averaging == "macro"
        assert (float(f1) == max(m[task].f1 for m in metrics.values())) == bool(int(flag))


def test_results_table_rejects_empty():
    with pytest.raises(ValueError):
        mx.results_table({})
