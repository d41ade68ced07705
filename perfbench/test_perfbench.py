"""Smoke tests for the benchmark: toy-size runs of every workload, the
self-time arithmetic, and the corpus generator.

Run with ``python -m pytest perfbench -q`` from the root of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Target, Tracer, covered, self_times

layers, workloads = run.import_package()  # puts the checkout's src/ on sys.path
import corpus  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_covered_counts_overlapping_children_once():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(2, 4), (3, 6), (8, 12)]) == 6  # [2,6) and [8,10)
    assert covered(5, 10, [(0, 7)]) == 2


def test_self_time_is_duration_minus_children():
    # root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
    starts, ends, parents = [0, 10, 15, 50], [100, 40, 25, 90], [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [30, 20, 10, 40]
    assert sum(self_times(starts, ends, parents)) == ends[0] - starts[0]


def test_tracer_self_times_sum_to_repetition_wall():
    class Box:
        @staticmethod
        def inner(n):
            return sum(range(n))

        @staticmethod
        def outer(n):
            return Box.inner(n) + Box.inner(n)

    tracer = Tracer([Target(Box, "outer", "box.outer"), Target(Box, "inner", "box.inner")])
    tracer.install()
    try:
        result, summary = tracer.repetition(lambda: Box.outer(10_000) + Box.inner(100))
    finally:
        tracer.uninstall()
    assert result == 2 * sum(range(10_000)) + sum(range(100))
    assert summary.calls == {"bench.repetition": 1, "box.outer": 1, "box.inner": 3}
    assert sum(summary.self_ns.values()) == summary.wall_ns
    assert summary.total_ns["box.outer"] >= summary.self_ns["box.outer"]
    assert not hasattr(Box.outer, "__wrapped__")  # uninstall restored the originals


def test_corpus_is_a_function_of_the_seed():
    a = corpus.Corpus(5, lexicon_size=200).examples(10, stream=1, min_words=3, max_words=6)
    b = corpus.Corpus(5, lexicon_size=200).examples(10, stream=1, min_words=3, max_words=6)
    c = corpus.Corpus(6, lexicon_size=200).examples(10, stream=1, min_words=3, max_words=6)
    assert a == b
    assert a != c
    for ex in a:
        for task, marker in corpus.MARKERS.items():
            assert (marker in ex.text) == bool(ex.label(task))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_toy_run_reports_every_metric(workload, trace):
    result = run.measure(workload, seed=3, seconds=0.01, trace=trace, preset="toy")
    assert result["failed"] == 0, (result["checks"], result["errors"])
    assert result["correct"]
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["bench.self_sum_error"]["value"] <= 0.01
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_default_workload_shapes(tmp_path):
    """lm-default rows are mostly padding; vocab-predict texts fill max_len."""
    lm = workloads.LMDefault()
    vocab, texts, max_len = lm.texts(lm.setup(1, tmp_path))
    real = [min(len(vocab.tokenize(t)), max_len - 2) + 2 for t in texts]
    assert len(vocab) == lm.sizes.vocab
    assert 0.05 <= sum(real) / (len(real) * max_len) <= 0.2

    vp = workloads.VocabPredict()
    state = vp.setup(1, tmp_path)
    train = [ex.text for ex in workloads.dt.load_dataset(state["train_csv"])]
    vocab = workloads.tok.build_vocab(train, max_size=vp.sizes.vocab_max)
    assert len(vocab) == vp.sizes.vocab_max
    assert layers.workload_shape(vocab, state["texts"], vp.sizes.max_len)["tokenizer.truncation_rate"] >= 0.9


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
