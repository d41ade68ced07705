import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germeval_mtl import autodiff as ad
from germeval_mtl import data as dt
from germeval_mtl import model as md
from germeval_mtl import tokenizer as tok
from germeval_mtl import train as tr

TINY = dict(d_model=32, n_layers=1, n_heads=2, d_ff=64, max_seq_len=24, dropout=0.1)


def make_setup(n=100, correlation=0.5, seed=0, vocab_size=300):
    examples = dt.synth_generate(n, seed=seed, spec=dt.SynthSpec(correlation=correlation))
    vocab = tok.build_vocab([e.text for e in examples], max_size=vocab_size)
    enc = md.EncoderConfig(vocab_size=len(vocab), **TINY)
    return examples, vocab, enc


def encode_split(examples, vocab, split_seed=3, max_len=24):
    train_ex, val_ex = dt.split(examples, 0.8, split_seed)
    return dt.encode_examples(vocab, train_ex, max_len), dt.encode_examples(vocab, val_ex, max_len)


def test_train_config_defaults_match_published_setup():
    cfg = tr.TrainConfig()
    assert cfg.learning_rate == 1e-5
    assert cfg.num_epochs == 3
    assert cfg.adam_epsilon == 1e-8
    assert cfg.warmup_ratio == 0.1
    assert cfg.warmup_steps == 0
    assert cfg.max_grad_norm == 1.0
    assert cfg.batch_size == 8
    assert cfg.eval_every_batches == 100
    assert cfg.early_stop_patience_evals == 10
    assert cfg.gradient_accumulation_steps == 1
    assert len(cfg.seeds) == 5


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(early_stop_patience_evals=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(environment="both")
    with pytest.raises(ValueError):
        tr.TrainConfig(seeds=())


def test_train_config_rejects_a_repeated_seed():
    with pytest.raises(ValueError, match="seed 1 is listed more than once"):
        tr.TrainConfig(seeds=(1, 2, 1))
    assert tr.TrainConfig(seeds=(2, 1)).seeds == (2, 1)


def test_environment_labels():
    assert tr.TrainConfig(environment="stl").environment_label == "STL"
    assert tr.TrainConfig(environment="stl", lm_stage=True).environment_label == "LM+STL"
    assert tr.TrainConfig(environment="mtl").environment_label == "MTL"
    assert tr.TrainConfig(environment="mtl", lm_stage=True).environment_label == "LM+MTL"


def arena(**values) -> md.ParamGroup:
    """Parameters named and valued by ``values``, as views of one data and one grad buffer."""
    data = np.concatenate([np.ravel(v) for v in values.values()]).astype(np.float64)
    grad = np.zeros_like(data)
    tensors, offset = {}, 0
    for name, value in values.items():
        view = slice(offset, offset + np.size(value))
        tensors[name] = ad.parameter(data[view].reshape(np.shape(value)))
        tensors[name].grad = grad[view].reshape(np.shape(value))
        offset = view.stop
    return md.ParamGroup(tensors, data, grad)


def test_clip_by_global_norm():
    group = arena(a=[0.0, 0.0])
    group["a"].grad[:] = [6.0, 8.0]  # norm 10
    norm = tr.clip_by_global_norm(group, 1.0)
    assert norm == pytest.approx(10.0)
    assert group["a"].grad == pytest.approx(np.array([0.6, 0.8]))
    small = arena(a=[0.0])
    small["a"].grad[:] = 0.3
    tr.clip_by_global_norm(small, 1.0)
    assert small["a"].grad[0] == 0.3  # untouched below the threshold


def test_adam_zero_gradients_leave_params():
    group = arena(w=[1.0, -2.0])
    tr.adam_step(group, tr.AdamState(), 0.1, tr.TrainConfig())
    assert np.array_equal(group["w"].data, [1.0, -2.0])
    assert not group["w"].grad.any()  # reset after the step


def test_adam_quadratic_convergence():
    cfg = tr.TrainConfig()
    group = arena(w=[1.0])
    w = group["w"]
    state = tr.AdamState()
    for _ in range(500):
        w.grad[...] = 2.0 * w.data
        tr.adam_step(group, state, 0.1, cfg)
        assert not w.grad.any()  # reset after every step
    assert abs(float(w.data[0])) < 1e-2


def test_adam_rejects_non_finite_gradient():
    group = arena(v=[1.0], w=[1.0])
    group["w"].grad[0] = np.nan
    with pytest.raises(tr.NumericError, match="'w'"):
        tr.adam_step(group, tr.AdamState(), 0.1, tr.TrainConfig())


def test_lr_schedule_endpoints_and_peak():
    cfg = tr.TrainConfig(learning_rate=1e-5, warmup_ratio=0.1)
    assert tr.lr_at(0, 100, cfg) == 0.0
    assert tr.lr_at(10, 100, cfg) == pytest.approx(1e-5)  # peak at ceil(0.1*100)
    assert tr.lr_at(100, 100, cfg) == 0.0
    assert tr.lr_at(55, 100, cfg) == pytest.approx(1e-5 * (100 - 55) / 90)


def test_lr_schedule_explicit_warmup_steps_override():
    cfg = tr.TrainConfig(learning_rate=2e-4, warmup_ratio=0.1, warmup_steps=4)
    assert tr.lr_at(4, 100, cfg) == pytest.approx(2e-4)
    assert tr.lr_at(2, 100, cfg) == pytest.approx(1e-4)


def test_lr_schedule_bounds():
    cfg = tr.TrainConfig()
    with pytest.raises(ValueError):
        tr.lr_at(-1, 10, cfg)
    with pytest.raises(ValueError):
        tr.lr_at(11, 10, cfg)


def test_patience_one_stops_at_second_eval():
    examples, vocab, enc = make_setup(40)
    train_ds, val_ds = encode_split(examples, vocab)
    cfg = tr.TrainConfig(learning_rate=1e-3, num_epochs=50, batch_size=8,
                         eval_every_batches=2, early_stop_patience_evals=1,
                         environment="stl", seeds=(1,))
    params = md.init_model(enc, md.STL, task="toxic", seed=1)
    _, record = tr.train_one(params, train_ds, val_ds, cfg, seed=1,
                             val_metrics_fn=lambda p, step: (0.5, {}))
    assert len(record.eval_history) == 2
    assert record.stopped_early
    assert record.best_checkpoint_step == record.eval_history[0][0]


def test_eval_history_steps_strictly_increase():
    examples, vocab, enc = make_setup(60)
    train_ds, val_ds = encode_split(examples, vocab)
    cfg = tr.TrainConfig(learning_rate=1e-3, num_epochs=3, batch_size=8,
                         eval_every_batches=3, environment="mtl", seeds=(1,))
    params = md.init_model(enc, md.MTL, seed=1)
    _, record = tr.train_one(params, train_ds, val_ds, cfg, seed=1)
    steps = [s for s, _, _ in record.eval_history]
    assert steps == sorted(set(steps))


def test_train_one_is_deterministic():
    examples, vocab, enc = make_setup(50)
    train_ds, val_ds = encode_split(examples, vocab)
    cfg = tr.TrainConfig(learning_rate=2e-3, num_epochs=2, batch_size=8,
                         eval_every_batches=4, environment="stl", seeds=(1,))

    def run():
        params = md.init_model(enc, md.STL, task="engaging", seed=9)
        return tr.train_one(params, train_ds, val_ds, cfg, seed=9)

    p1, r1 = run()
    p2, r2 = run()
    assert r1 == r2
    for name in p1.tensors:
        assert p1.tensors[name].data.tobytes() == p2.tensors[name].data.tobytes()


def test_training_improves_validation_loss():
    examples, vocab, enc = make_setup(200)
    train_ds, val_ds = encode_split(examples, vocab)
    cfg = tr.TrainConfig(learning_rate=2e-3, num_epochs=2, batch_size=8,
                         eval_every_batches=5, environment="stl", seeds=(1,))
    params = md.init_model(enc, md.STL, task="toxic", seed=2)
    _, record = tr.train_one(params, train_ds, val_ds, cfg, seed=2)
    losses = [loss for _, loss, _ in record.eval_history]
    assert min(losses) < losses[0]


def test_returned_checkpoint_is_best_seen():
    examples, vocab, enc = make_setup(80)
    train_ds, val_ds = encode_split(examples, vocab)
    cfg = tr.TrainConfig(learning_rate=2e-3, num_epochs=2, batch_size=8,
                         eval_every_batches=3, environment="stl", seeds=(1,))
    params = md.init_model(enc, md.STL, task="toxic", seed=4)
    params, record = tr.train_one(params, train_ds, val_ds, cfg, seed=4)
    best_recorded = min(loss for _, loss, _ in record.eval_history)
    reloss, _ = tr.evaluate_model(params, val_ds, cfg.batch_size)
    assert reloss == pytest.approx(best_recorded, abs=1e-12)
    best_step = record.best_checkpoint_step
    assert best_recorded == next(l for s, l, _ in record.eval_history if s == best_step)


def test_best_checkpoint_restore_keeps_the_arena():
    examples, vocab, enc = make_setup(40)
    train_ds, val_ds = encode_split(examples, vocab)
    cfg = tr.TrainConfig(learning_rate=2e-3, num_epochs=1, batch_size=8, eval_every_batches=1,
                         environment="mtl", seeds=(1,))
    snapshots = []

    def first_is_best(p, step):
        snapshots.append(p.tensors.data.copy())
        return (0.0 if len(snapshots) == 1 else 1.0), {}

    params, record = tr.train_one(md.init_model(enc, md.MTL, seed=1), train_ds, val_ds, cfg, seed=1,
                                  val_metrics_fn=first_is_best)
    assert record.best_checkpoint_step == 1 and len(record.eval_history) > 1
    assert np.array_equal(params.tensors.data, snapshots[0])
    for name, t in params.tensors.items():
        assert np.shares_memory(t.data, params.tensors.data), name
        assert np.shares_memory(t.grad, params.tensors.grad), name
    assert not params.tensors.grad.any()


def test_gradient_accumulation_matches_concatenated_batch():
    examples, vocab, _ = make_setup(20)  # splits into 16 train: micro-batches stay equal-sized
    enc = md.EncoderConfig(vocab_size=300, d_model=16, n_layers=1, n_heads=2,
                           d_ff=32, max_seq_len=24, dropout=0.0)  # no dropout: exact identity
    train_ds, val_ds = encode_split(examples, vocab)
    assert len(train_ds) == 16
    results = []
    for batch_size, accumulation in ((4, 2), (8, 1)):
        cfg = tr.TrainConfig(learning_rate=1e-3, num_epochs=1, batch_size=batch_size,
                             gradient_accumulation_steps=accumulation,
                             eval_every_batches=1000, environment="stl", seeds=(1,))
        params = md.init_model(enc, md.STL, task="toxic", seed=3)
        params, _ = tr.train_one(params, train_ds, val_ds, cfg, seed=3)
        results.append(params.tensors.data.copy())
    assert np.abs(results[0] - results[1]).max() <= 1e-9


def test_train_requires_disjoint_sets():
    examples, vocab, enc = make_setup(20)
    ds = dt.encode_examples(vocab, examples, 24)
    cfg = tr.TrainConfig(environment="mtl", seeds=(1,))
    params = md.init_model(enc, md.MTL, seed=0)
    with pytest.raises(ValueError, match="overlap"):
        tr.train_one(params, ds, ds, cfg, seed=0)


def test_overfits_sixteen_examples_within_200_steps():
    examples, vocab, enc = make_setup(20, seed=5)
    train_ds, val_ds = encode_split(examples, vocab)
    assert len(train_ds) == 16
    cfg = tr.TrainConfig(learning_rate=3e-3, num_epochs=50, batch_size=8,
                         eval_every_batches=25, environment="stl", seeds=(1,))
    params = md.init_model(enc, md.STL, task="toxic", seed=1)
    params, record = tr.train_one(params, train_ds, val_ds, cfg, seed=1)
    assert record.eval_history[-1][0] <= 200
    preds = tr.predict_dataset(params, train_ds)["toxic"]
    assert float((preds == train_ds.labels["toxic"]).mean()) == 1.0


def test_lm_finetune_leaves_heads_untouched_and_learns():
    corpus = [
        "das kleine haus steht am fluss",
        "am fluss steht das kleine haus",
        "die katze schlaeft im garten",
        "im garten schlaeft die katze",
        "der hund laeuft zum park",
        "zum park laeuft der hund",
        "ein vogel singt am morgen",
        "am morgen singt ein vogel",
    ]
    vocab = tok.build_vocab(corpus, max_size=150)
    enc = md.EncoderConfig(vocab_size=len(vocab), d_model=32, n_layers=1, n_heads=2,
                           d_ff=64, max_seq_len=16, dropout=0.1)
    params = md.init_model(enc, md.MTL, with_mlm_head=True, seed=7)
    heads_before = {
        name: t.data.copy() for name, t in params.tensors.items() if name.startswith("head.")
    }

    def mean_mlm_loss():
        from germeval_mtl import objectives as obj

        total = 0.0
        for i, text in enumerate(corpus):
            enc_text = tok.encode(vocab, text, 16)
            masked, labels = tok.mask_for_mlm(vocab, enc_text, rng_seed=(99, i), mask_prob=0.3)
            ids, attn = md.stack_batch([masked])
            total += obj.mlm_loss(md.mlm_forward(params, ids, attn), np.asarray([labels])).item()
        return total / len(corpus)

    before = mean_mlm_loss()
    cfg = tr.TrainConfig(learning_rate=3e-3, num_epochs=10, batch_size=4, environment="mtl", seeds=(1,))
    tr.lm_finetune(params, corpus, vocab, cfg, seed=7, max_len=16)
    after = mean_mlm_loss()
    assert after < before
    for name, arr in heads_before.items():
        assert params.tensors[name].data.tobytes() == arr.tobytes(), name


def per_text_mlm_top1_accuracy(params, corpus, vocab, max_len, seed):
    """Reference: one text per forward pass, texts with nothing masked skipped."""
    hits = total = 0
    with ad.no_grad():
        for j, text in enumerate(corpus):
            masked, labels = tok.mask_for_mlm(vocab, tok.encode(vocab, text, max_len), rng_seed=(seed, 23, j))
            labels = np.asarray(labels)
            if (labels == tok.IGNORE_INDEX).all():
                continue
            ids, attn = md.stack_batch([masked])
            picks = md.mlm_forward(params, ids, attn).data[0].argmax(axis=-1)
            chosen = labels != tok.IGNORE_INDEX
            hits += int((picks[chosen] == labels[chosen]).sum())
            total += int(chosen.sum())
    return hits / total if total else 0.0


@pytest.mark.parametrize("n_texts, max_len, n_layers", [(13, 24, 1), (5, 16, 2)])
def test_mlm_top1_accuracy_scores_batches_of_8_and_equals_the_per_text_loop(monkeypatch, n_texts, max_len, n_layers):
    examples, vocab, _ = make_setup(n=n_texts, seed=n_texts)
    corpus = ["", *(ex.text for ex in examples)]  # the empty text has nothing to mask
    enc = md.EncoderConfig(vocab_size=len(vocab), **{**TINY, "max_seq_len": max_len, "n_layers": n_layers})
    params = md.init_model(enc, md.MTL, with_mlm_head=True, seed=n_layers)
    cfg = tr.TrainConfig(learning_rate=5e-3, num_epochs=3, batch_size=4, seeds=(1,))
    tr.lm_finetune(params, corpus, vocab, cfg, seed=1, max_len=max_len)
    want = per_text_mlm_top1_accuracy(params, corpus, vocab, max_len, seed=4)
    rows, forward = [], md.mlm_forward
    monkeypatch.setattr(md, "mlm_forward", lambda p, ids, attn: rows.append(len(ids)) or forward(p, ids, attn))
    assert tr.mlm_top1_accuracy(params, corpus, vocab, max_len, seed=4) == want > 0.0
    assert rows == [len(corpus[i:i + 8]) for i in range(0, len(corpus), 8)]


def test_lm_finetune_guards():
    corpus = ["ein satz"]
    vocab = tok.build_vocab(corpus, max_size=50)
    enc = md.EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2,
                           d_ff=32, max_seq_len=8, dropout=0.0)
    no_head = md.init_model(enc, md.MTL, seed=0)
    cfg = tr.TrainConfig(environment="mtl", seeds=(1,))
    with pytest.raises(ValueError, match="MLM head"):
        tr.lm_finetune(no_head, corpus, vocab, cfg, seed=0, max_len=8)
    with_head = md.init_model(enc, md.MTL, with_mlm_head=True, seed=0)
    with pytest.raises(ValueError, match="corpus"):
        tr.lm_finetune(with_head, [], vocab, cfg, seed=0, max_len=8)


def test_ensemble_majority_vote():
    assert tr.ensemble_predict([[1], [1], [0], [0], [1]]).tolist() == [1]
    assert tr.ensemble_predict([[0, 1, 1]]).tolist() == [0, 1, 1]  # single seed: identity
    assert tr.ensemble_predict([[1, 0], [0, 1]]).tolist() == [0, 0]  # even ties go negative


def test_ensemble_validation():
    with pytest.raises(ValueError, match="matrix"):
        tr.ensemble_predict(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="matrix"):
        tr.ensemble_predict([1, 0, 1])
    with pytest.raises(ValueError, match="0/1"):
        tr.ensemble_predict([[0, 2]])
    with pytest.raises(ValueError):
        tr.ensemble_predict([[1, 0], [1]])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=30), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_ensemble_of_identical_seeds_is_identity(row, n_seeds):
    votes = np.tile(np.array(row), (n_seeds, 1))
    assert tr.ensemble_predict(votes).tolist() == row


@pytest.fixture(scope="module")
def mtl_experiment():
    examples, vocab, enc = make_setup(80, seed=21)
    cfg = tr.TrainConfig(learning_rate=2e-3, num_epochs=1, batch_size=8,
                         eval_every_batches=4, environment="mtl", seeds=(1, 2), split_seed=5)
    return tr.run_experiment(cfg, examples, vocab, enc, max_len=24), examples, vocab, enc


def test_run_experiment_mtl_structure(mtl_experiment):
    result, examples, _, _ = mtl_experiment
    assert result.environment == "MTL"
    assert set(result.records) == {1, 2}
    assert all(set(r) == {"mtl"} for r in result.records.values())
    n_val = len(examples) - int(round(0.8 * len(examples)))
    for task in dt.TASKS:
        assert result.per_seed_preds[task].shape == (2, n_val)
        assert result.ensemble_preds[task].shape == (n_val,)
        expected = tr.ensemble_predict(result.per_seed_preds[task])
        assert np.array_equal(result.ensemble_preds[task], expected)
    assert len(result.val_ids) == n_val
    metrics = result.metrics("macro")
    assert set(metrics) == set(dt.TASKS)


def test_run_experiment_deterministic(mtl_experiment):
    result, examples, vocab, enc = mtl_experiment
    cfg = tr.TrainConfig(learning_rate=2e-3, num_epochs=1, batch_size=8,
                         eval_every_batches=4, environment="mtl", seeds=(1, 2), split_seed=5)
    again = tr.run_experiment(cfg, examples, vocab, enc, max_len=24)
    for task in dt.TASKS:
        assert np.array_equal(result.per_seed_preds[task], again.per_seed_preds[task])
        assert np.array_equal(result.ensemble_preds[task], again.ensemble_preds[task])
    assert result.records == again.records


def test_run_experiment_stl_counts_models():
    examples, vocab, enc = make_setup(60, seed=22)
    cfg = tr.TrainConfig(learning_rate=2e-3, num_epochs=1, batch_size=8,
                         eval_every_batches=4, environment="stl", seeds=(1, 2), split_seed=5)
    result = tr.run_experiment(cfg, examples, vocab, enc, max_len=24)
    assert result.environment == "STL"
    trained = [key for seed in result.records for key in result.records[seed]]
    assert len(trained) == 6  # 2 seeds x 3 tasks
    assert set(result.records[1]) == set(dt.TASKS)
    for task in dt.TASKS:
        assert result.models[1][task].environment == md.STL


def test_run_experiment_lm_stage_changes_label_only_in_manifest():
    examples, vocab, enc = make_setup(40, seed=23)
    base = tr.TrainConfig(learning_rate=2e-3, num_epochs=1, batch_size=8,
                          eval_every_batches=4, environment="mtl", seeds=(1,), split_seed=5)
    with_lm = tr.TrainConfig(learning_rate=2e-3, num_epochs=1, batch_size=8,
                             eval_every_batches=4, environment="mtl", lm_stage=True,
                             seeds=(1,), split_seed=5)
    plain = tr.run_experiment(base, examples, vocab, enc, max_len=24)
    staged = tr.run_experiment(with_lm, examples, vocab, enc, max_len=24)
    assert plain.environment == "MTL" and staged.environment == "LM+MTL"
    assert plain.seeds == staged.seeds
    assert plain.val_ids == staged.val_ids


@pytest.mark.parametrize("environment", [md.STL, md.MTL])
def test_evaluate_model_runs_one_encoder_pass_per_batch(environment):
    examples, vocab, enc = make_setup(50)
    _, val_ds = encode_split(examples, vocab)
    params = md.init_model(enc, environment, task="toxic" if environment == md.STL else None, seed=1)
    ad.reset_op_counts()
    loss, f1s = tr.evaluate_model(params, val_ds, batch_size=4)
    assert ad.op_counts()["embedding_lookup"] == -(-len(val_ds) // 4)  # ceil: one per batch
    assert "cross_entropy" in ad.op_counts() and math.isfinite(loss)
    assert set(f1s) == set(params.head_tasks)


def _count_adam_steps(monkeypatch) -> list:
    calls = []
    real = tr.adam_step

    def counting(tensors, *args):
        calls.append(len(tensors))
        return real(tensors, *args)

    monkeypatch.setattr(tr, "adam_step", counting)
    return calls


def test_both_stages_flush_partial_windows(monkeypatch):
    examples, vocab, enc = make_setup(40)
    train_ds, val_ds = encode_split(examples, vocab)  # 32 train: 8 micro-batches of 4
    cfg = tr.TrainConfig(learning_rate=1e-3, num_epochs=2, batch_size=4, gradient_accumulation_steps=3,
                         eval_every_batches=1000, environment="mtl", seeds=(1,))
    per_epoch = tr._steps_per_epoch(len(train_ds), cfg)
    assert per_epoch == 3  # windows of 3, 3 and a partial 2
    calls = _count_adam_steps(monkeypatch)
    _, record = tr.train_one(md.init_model(enc, md.MTL, seed=1), train_ds, val_ds, cfg, seed=1)
    assert len(calls) == cfg.num_epochs * per_epoch
    assert [step for step, _, _ in record.eval_history] == [len(calls)]

    calls.clear()
    corpus = [ex.text for ex in examples[:10]]  # micro-batches of 4, 4 | 2: the second window is partial
    lm_cfg = tr.TrainConfig(learning_rate=1e-3, num_epochs=3, batch_size=4, gradient_accumulation_steps=2)
    carrier = md.init_model(enc, md.MTL, with_mlm_head=True, seed=2)
    tr.lm_finetune(carrier, corpus, vocab, lm_cfg, seed=2, max_len=24)
    assert len(calls) == lm_cfg.num_epochs * tr._steps_per_epoch(len(corpus), lm_cfg) == 6


def test_train_one_takes_no_step_after_early_stop(monkeypatch):
    examples, vocab, enc = make_setup(40)
    train_ds, val_ds = encode_split(examples, vocab)  # 32 train: 8 micro-batches of 4
    cfg = tr.TrainConfig(learning_rate=1e-3, num_epochs=5, batch_size=4, gradient_accumulation_steps=3,
                         eval_every_batches=2, early_stop_patience_evals=1, environment="stl", seeds=(1,))
    calls = _count_adam_steps(monkeypatch)
    _, record = tr.train_one(md.init_model(enc, md.STL, task="toxic", seed=1), train_ds, val_ds, cfg, seed=1,
                             val_metrics_fn=lambda p, step: (0.5, {}))
    assert record.stopped_early
    # step 3 flushes epoch 1; step 4 ends the first window of epoch 2 and its evaluation stops
    # training there, with no flush and no further window
    assert [step for step, _, _ in record.eval_history] == [2, 4]
    assert len(calls) == 4


@pytest.mark.parametrize("accum, budget, stopped_early", [
    (1, 4, True),   # four full windows: the second evaluation stops training at step 2 of 4
    (3, 2, False),  # windows of 3 and 1: patience runs out at the end-of-run evaluation after the short one
    (2, 2, False),  # windows of 2 and 2: patience runs out at the periodic evaluation of the last step
], ids=["stop-before-budget", "patience-at-end-of-run-eval", "patience-at-last-periodic-eval"])
def test_stopped_early_means_the_step_budget_was_cut_short(monkeypatch, accum, budget, stopped_early):
    examples, vocab, enc = make_setup(40)
    train_ds, val_ds = encode_split(examples, vocab)  # 32 train: 4 micro-batches of 8
    cfg = tr.TrainConfig(learning_rate=1e-3, num_epochs=1, batch_size=8, gradient_accumulation_steps=accum,
                         eval_every_batches=1, early_stop_patience_evals=1, environment="stl", seeds=(1,))
    assert tr._steps_per_epoch(len(train_ds), cfg) == budget
    calls = _count_adam_steps(monkeypatch)
    _, record = tr.train_one(md.init_model(enc, md.STL, task="toxic", seed=1), train_ds, val_ds, cfg, seed=1,
                             val_metrics_fn=lambda p, step: (0.5, {}))
    assert [step for step, _, _ in record.eval_history] == [1, 2]
    assert len(calls) == 2
    assert record.stopped_early is stopped_early
