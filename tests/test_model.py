import dataclasses
import json
import math

import numpy as np
import pytest

from germeval_mtl import autodiff as ad
from germeval_mtl import model as md
from germeval_mtl import objectives as obj
from germeval_mtl import tokenizer as tok
from germeval_mtl.data import TASKS

TINY = md.EncoderConfig(vocab_size=23, d_model=16, n_layers=2, n_heads=4, d_ff=32, max_seq_len=10, dropout=0.1)


def make_batch(rng, batch=3, seq=8, vocab=23, n_pad=2):
    ids = rng.integers(5, vocab, size=(batch, seq))
    ids[:, 0] = tok.CLS_ID
    mask = np.ones((batch, seq))
    ids[:, seq - n_pad :] = tok.PAD_ID
    mask[:, seq - n_pad :] = 0.0
    ids[:, seq - n_pad - 1] = tok.SEP_ID
    return ids, mask


def test_encoder_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        md.EncoderConfig(d_model=10, n_heads=4)
    with pytest.raises(ValueError, match="dropout"):
        md.EncoderConfig(dropout=1.0)
    with pytest.raises(ValueError, match="max_seq_len"):
        md.EncoderConfig(max_seq_len=2)


@pytest.mark.parametrize("name, value", [("n_layers", "2"), ("d_model", 8.0), ("n_heads", True),
                                         ("dropout", "0.1"), ("dropout", False)])
def test_encoder_config_rejects_mistyped_values(name, value):
    with pytest.raises(ValueError, match=name):
        md.EncoderConfig(**{name: value})


def test_encoder_output_shape():
    params = md.init_model(TINY, md.MTL, seed=0)
    ids, mask = make_batch(np.random.default_rng(0))
    hidden = md.encoder_forward(params, ids, mask)
    assert hidden.shape == (3, 8, TINY.d_model)


def test_encoder_rejects_long_sequences():
    params = md.init_model(TINY, md.MTL, seed=0)
    ids = np.full((1, TINY.max_seq_len + 1), tok.CLS_ID)
    with pytest.raises(ValueError, match="max_seq_len"):
        md.encoder_forward(params, ids, np.ones_like(ids, dtype=float))


def test_pad_positions_cannot_influence_real_tokens():
    params = md.init_model(TINY, md.MTL, seed=1)
    ids, mask = make_batch(np.random.default_rng(1))
    variant = ids.copy()
    variant[:, -2:] = 12  # different content where the mask is 0
    base = md.encoder_forward(params, ids, mask).data
    alt = md.encoder_forward(params, variant, mask).data
    real = mask.astype(bool)
    assert np.array_equal(base[real], alt[real])
    assert not np.array_equal(base[~real], alt[~real])


def test_eval_forward_bit_identical():
    params = md.init_model(TINY, md.MTL, seed=2)
    ids, mask = make_batch(np.random.default_rng(2))
    a = md.encoder_forward(params, ids, mask).data
    b = md.encoder_forward(params, ids, mask).data
    assert a.tobytes() == b.tobytes()


def test_train_mode_dropout_is_seeded():
    params = md.init_model(TINY, md.MTL, seed=3)
    ids, mask = make_batch(np.random.default_rng(3))
    a = md.encoder_forward(params, ids, mask, train_mode=True, rng=np.random.default_rng(11)).data
    b = md.encoder_forward(params, ids, mask, train_mode=True, rng=np.random.default_rng(11)).data
    c = md.encoder_forward(params, ids, mask, train_mode=True, rng=np.random.default_rng(12)).data
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    for rng in (None, 11):
        with pytest.raises(ValueError, match="rng"):
            md.encoder_forward(params, ids, mask, train_mode=True, rng=rng)


def test_classify_zero_head_is_uniform():
    head = md.ClassificationHead(ad.parameter(np.zeros((6, 2))), ad.parameter(np.zeros(2)))
    probs = md.classify(head, ad.Tensor(np.random.default_rng(0).standard_normal((4, 6))))
    assert probs.data == pytest.approx(np.full((4, 2), 0.5))


def test_classify_rows_sum_to_one():
    rng = np.random.default_rng(4)
    head = md.ClassificationHead(ad.parameter(rng.standard_normal((6, 2))), ad.parameter(rng.standard_normal(2)))
    probs = md.classify(head, ad.Tensor(rng.standard_normal((5, 6))))
    assert np.abs(probs.data.sum(axis=1) - 1.0).max() <= 1e-9


def test_classify_bias_only():
    head = md.ClassificationHead(ad.parameter(np.zeros((3, 2))), ad.parameter(np.array([0.0, 5.0])))
    probs = md.classify(head, ad.Tensor(np.ones((2, 3))))
    expected = math.exp(5.0) / (1.0 + math.exp(5.0))
    assert probs.data[:, 1] == pytest.approx(expected, abs=1e-4)


def test_classify_dimension_mismatch():
    head = md.ClassificationHead(ad.parameter(np.zeros((6, 2))), ad.parameter(np.zeros(2)))
    with pytest.raises(ValueError, match="matmul"):
        md.classify(head, ad.Tensor(np.zeros((4, 5))))


def test_prediction_invariant_to_shared_bias_shift():
    rng = np.random.default_rng(5)
    head = md.ClassificationHead(ad.parameter(rng.standard_normal((6, 2))), ad.parameter(rng.standard_normal(2)))
    h = ad.Tensor(rng.standard_normal((8, 6)))
    before = md.predict_labels(md.classify(head, h))
    head.b.data = head.b.data + 3.7  # same constant on both class columns
    after = md.predict_labels(md.classify(head, h))
    assert np.array_equal(before, after)


def test_stl_forward_shape_and_env_guard():
    params = md.init_model(TINY, md.STL, task="toxic", seed=6)
    ids, mask = make_batch(np.random.default_rng(6))
    probs = md.stl_forward(params, ids, mask)
    assert probs.shape == (3, 2)
    mtl_params = md.init_model(TINY, md.MTL, seed=6)
    with pytest.raises(md.EnvironmentMismatch):
        md.stl_forward(mtl_params, ids, mask)
    with pytest.raises(md.EnvironmentMismatch):
        md.mtl_forward(params, ids, mask)


def test_three_stl_models_share_nothing():
    models = [md.init_model(TINY, md.STL, task=t, seed=7) for t in TASKS]
    seen = set()
    for m in models:
        for t in m.tensors.values():
            assert id(t) not in seen
            seen.add(id(t))


def test_stl_model_requires_task():
    with pytest.raises(ValueError, match="task"):
        md.init_model(TINY, md.STL, task=None, seed=0)
    with pytest.raises(ValueError, match="environment"):
        md.init_model(TINY, "other", seed=0)


def test_mtl_forward_runs_encoder_once():
    params = md.init_model(TINY, md.MTL, seed=8)
    ids, mask = make_batch(np.random.default_rng(8))
    ad.reset_op_counts()
    outputs = md.mtl_forward(params, ids, mask)
    counts = ad.op_counts()
    assert counts["embedding_lookup"] == 1  # one token-embedding gather = one encoder pass
    assert counts["softmax_rows"] == TINY.n_layers  # attention only: heads emit logits
    assert set(outputs) == set(TASKS)
    h_cls = md.encoder_forward(params, ids, mask)[:, 0, :]
    for task, logits in outputs.items():
        assert logits.shape == (3, 2)
        assert np.array_equal(logits.data, md.head_logits(params.head(task), h_cls).data)


def _classifier_pass(params, ids, mask, labels, rng, cls_only):
    """Head logits, per-tensor grads of the training loss, and the generator state after the pass."""
    train_mode = params.config.dropout > 0.0
    if cls_only:  # the classifier forwards' own path
        forward = md.stl_forward if params.environment == md.STL else md.mtl_forward
        logits = forward(params, ids, mask, train_mode, rng)
    else:
        h_cls = md.encoder_forward(params, ids, mask, train_mode, rng)[:, 0, :]
        logits = {task: md.head_logits(params.head(task), h_cls) for task in params.head_tasks}
        logits = logits[params.task] if params.environment == md.STL else logits
    if params.environment == md.STL:
        loss, logits = obj.task_loss(logits, labels[params.task]), {params.task: logits}
    else:
        loss = obj.loss_bundle(logits, labels).mean
    params.tensors.grad[:] = 0.0
    loss.backward()
    grads = {name: t.grad.copy() for name, t in params.tensors.items()}
    return {task: z.data for task, z in logits.items()}, grads, rng.bit_generator.state


@pytest.mark.parametrize("n_layers", [0, 1, 3])
@pytest.mark.parametrize("d_model, seq", [(64, 24), (128, 120)])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_cls_only_last_layer_matches_the_full_stack(n_layers, d_model, seq, dropout):
    cfg = md.EncoderConfig(vocab_size=60, d_model=d_model, n_layers=n_layers, n_heads=4, d_ff=4 * d_model,
                           max_seq_len=seq, dropout=dropout)
    rng = np.random.default_rng(d_model + seq + n_layers)
    ids, mask = make_batch(rng, batch=3, seq=seq, vocab=cfg.vocab_size, n_pad=seq // 3)
    labels = {t: rng.integers(0, 2, size=3) for t in TASKS}
    hidden = md.encoder_forward(md.init_model(cfg, md.MTL, seed=1), ids, mask, cls_only=True)
    assert hidden.shape == (3, 1, d_model)

    for params in (md.init_model(cfg, md.STL, task="engaging", seed=2), md.init_model(cfg, md.MTL, seed=3)):
        cls_logits, cls_grads, cls_state = _classifier_pass(params, ids, mask, labels, np.random.default_rng(5), True)
        logits, grads, state = _classifier_pass(params, ids, mask, labels, np.random.default_rng(5), False)
        assert cls_state == state  # the same draws from the generator
        for task in logits:
            assert np.abs(cls_logits[task] - logits[task]).max() <= 1e-12 * np.abs(logits[task]).max(), task
        largest = max(np.abs(g).max() for g in grads.values())
        for name in grads:
            # A key bias shifts all of a query's scores alike, so its true grad is 0 and both
            # paths hold rounding noise: measure it against the model's largest grad.
            scale = largest if name.endswith("attn.bk") else np.abs(grads[name]).max()
            assert np.abs(cls_grads[name] - grads[name]).max() <= 1e-12 * scale, name


def test_mtl_head_isolation():
    params = md.init_model(TINY, md.MTL, seed=9)
    ids, mask = make_batch(np.random.default_rng(9))
    before = {t: p.data.copy() for t, p in md.mtl_forward(params, ids, mask).items()}
    params.head("toxic").W.data = params.head("toxic").W.data + 0.5
    after = {t: p.data for t, p in md.mtl_forward(params, ids, mask).items()}
    assert not np.array_equal(before["toxic"], after["toxic"])
    assert np.array_equal(before["engaging"], after["engaging"])
    assert np.array_equal(before["fact_claiming"], after["fact_claiming"])


def _rows_of_lengths(rng, lengths, seq, vocab):
    """CLS ... SEP rows of the given lengths, PAD after them."""
    ids = np.full((len(lengths), seq), tok.PAD_ID)
    mask = np.zeros((len(lengths), seq))
    for row, n in enumerate(lengths):
        ids[row, :n] = [tok.CLS_ID, *rng.integers(5, vocab, size=n - 2), tok.SEP_ID]
        mask[row, :n] = 1.0
    return ids, mask


def _trim_pass(params, ids, mask, mlm_labels, labels, n_rows):
    """Train-mode hidden states, head logits, MLM loss and arena grads, scored on the first ``n_rows`` rows."""
    params.tensors.grad[:] = 0.0
    hidden = md.encoder_forward(params, ids, mask, True).data
    logits = {t: z[:n_rows] for t, z in md.mtl_forward(params, ids, mask, True).items()}
    mlm = obj.mlm_loss(md.mlm_forward(params, ids, mask, True), mlm_labels)
    ad.add(mlm, obj.loss_bundle(logits, labels).mean).backward()
    grads = {name: t.grad.copy() for name, t in params.tensors.items()}
    return hidden[:n_rows], {t: z.data for t, z in logits.items()}, mlm.item(), grads


@pytest.mark.parametrize("seq, lengths, width", [(24, (5, 9, 3), 16), (120, (7, 30, 12, 4), 32), (10, (4, 3), 8)])
def test_trimmed_batch_matches_the_full_width(seq, lengths, width):
    cfg = md.EncoderConfig(vocab_size=40, d_model=16, n_layers=2, n_heads=4, d_ff=32, max_seq_len=seq, dropout=0.0)
    params = md.init_model(cfg, md.MTL, with_mlm_head=True, seed=seq)
    rng = np.random.default_rng(seq)
    ids, mask = _rows_of_lengths(rng, (*lengths, seq), seq, cfg.vocab_size)  # the last row fills L
    n = len(lengths)
    mlm_labels = np.full(ids.shape, tok.IGNORE_INDEX)
    for row, length in enumerate(lengths):
        mlm_labels[row, 1:length - 1:2] = rng.integers(5, cfg.vocab_size, size=len(range(1, length - 1, 2)))
    labels = {t: rng.integers(0, 2, size=n) for t in TASKS}

    assert md.encoder_forward(params, ids[:n], mask[:n], True).shape == (n, width, cfg.d_model)
    assert md.mlm_forward(params, ids[:n], mask[:n], True).shape == (n, width, cfg.vocab_size)
    short = _trim_pass(params, ids[:n], mask[:n], mlm_labels[:n], labels, n)
    full = _trim_pass(params, ids, mask, mlm_labels, labels, n)  # w = L
    real = mask[:n, :width].astype(bool)

    def close(a, b):
        return np.abs(a - b).max() <= 1e-10 * np.abs(b).max()

    assert close(short[0][real], full[0][:, :width][real])
    assert all(close(short[1][t], full[1][t]) for t in TASKS)
    assert abs(short[2] - full[2]) <= 1e-10 * abs(full[2])
    largest = max(np.abs(g).max() for g in full[3].values())
    for name, grad in full[3].items():
        # A key bias shifts all of a query's scores alike, so its true grad is 0 and both
        # paths hold rounding noise: measure it against the model's largest grad.
        scale = largest if name.endswith("attn.bk") else np.abs(grad).max()
        assert np.abs(short[3][name] - grad).max() <= 1e-10 * scale, name


def test_trimmed_forward_draws_dropout_at_the_padded_shape():
    cfg = md.EncoderConfig(vocab_size=40, d_model=16, n_layers=2, n_heads=4, d_ff=32, max_seq_len=24, dropout=0.1)
    params = md.init_model(cfg, md.MTL, with_mlm_head=True, seed=4)
    ids, mask = _rows_of_lengths(np.random.default_rng(4), (6, 3), 24, cfg.vocab_size)
    for forward in (md.encoder_forward, md.mtl_forward, md.mlm_forward):
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        forward(params, ids, mask, True, rng)
        reference.random((2, 24, cfg.d_model))
        for _ in range(cfg.n_layers):
            for shape in ((2, cfg.n_heads, 24, 24), (2, 24, cfg.d_model), (2, 24, cfg.d_model)):
                reference.random(shape)
        assert rng.bit_generator.state == reference.bit_generator.state, forward.__name__


def test_batch_that_fills_the_length_or_attends_nowhere_keeps_the_full_width():
    params = md.init_model(TINY, md.MTL, seed=12)
    ids, mask = _rows_of_lengths(np.random.default_rng(12), (10, 4), 10, TINY.vocab_size)
    assert md.encoder_forward(params, ids, mask).shape == (2, 10, TINY.d_model)
    assert md.encoder_forward(params, ids, np.zeros_like(mask)).shape == (2, 10, TINY.d_model)
    assert md.encoder_forward(params, ids[:, :9], np.zeros((2, 9))).shape == (2, 9, TINY.d_model)


def test_eval_mode_pass_trims_in_steps_of_32():
    cfg = md.EncoderConfig(vocab_size=23, d_model=16, n_layers=2, n_heads=4, d_ff=32, max_seq_len=80, dropout=0.1)
    params = md.init_model(cfg, md.MTL, with_mlm_head=True, seed=13)
    for lengths, train_width, eval_width in (((4, 3), 8, 32), ((30, 17), 32, 32), ((33, 9), 40, 64), ((70,), 72, 80)):
        ids, mask = _rows_of_lengths(np.random.default_rng(13), lengths, 80, cfg.vocab_size)
        assert md.encoder_forward(params, ids, mask, True, np.random.default_rng(0)).shape[1] == train_width
        assert md.encoder_forward(params, ids, mask).shape[1] == eval_width
        assert md.mlm_forward(params, ids, mask).shape == (len(lengths), eval_width, cfg.vocab_size)


def test_mlm_forward_shape_and_guard():
    params = md.init_model(TINY, md.MTL, with_mlm_head=True, seed=10)
    ids, mask = make_batch(np.random.default_rng(10))
    logits = md.mlm_forward(params, ids, mask)
    assert logits.shape == (3, 8, TINY.vocab_size)
    bare = md.init_model(TINY, md.MTL, seed=10)
    with pytest.raises(ValueError, match="MLM"):
        md.mlm_forward(bare, ids, mask)


def test_parameter_count_identities():
    def head_size(cfg):
        return 2 * cfg.d_model + 2

    ratios = []
    for d_model in (16, 64, 128):
        cfg = md.EncoderConfig(vocab_size=500, d_model=d_model, n_layers=2, n_heads=4,
                               d_ff=4 * d_model, max_seq_len=16, dropout=0.0)
        mtl = md.init_model(cfg, md.MTL, seed=0)
        mtl_encoder = mtl.group("encoder").data.size
        assert mtl.group("heads").data.size == 3 * head_size(cfg)
        assert mtl.tensors.data.size == mtl_encoder + 3 * head_size(cfg)

        stl_models = [md.init_model(cfg, md.STL, task=t, seed=0) for t in TASKS]
        assert all(m.group("encoder").data.size == mtl_encoder for m in stl_models)
        stl_total = sum(m.tensors.data.size for m in stl_models)
        assert stl_total == 3 * mtl_encoder + 3 * head_size(cfg)
        ratios.append(mtl.tensors.data.size / stl_total)
    assert ratios == sorted(ratios, reverse=True)  # shrinking toward 1/3
    assert abs(ratios[-1] - 1 / 3) < 1e-3


def test_mlm_head_is_tied_and_counted():
    cfg = md.EncoderConfig(vocab_size=40, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                           max_seq_len=8, dropout=0.0)
    params = md.init_model(cfg, md.MTL, with_mlm_head=True, seed=0)
    assert params.group("mlm").data.size == cfg.vocab_size  # bias only, weights tied
    ids = np.array([[tok.CLS_ID, 7, tok.SEP_ID, tok.PAD_ID]])
    mask = np.array([[1.0, 1.0, 1.0, 0.0]])
    labels = np.full(4, tok.IGNORE_INDEX)
    labels[1] = 9
    loss = obj.mlm_loss(md.mlm_forward(params, ids, mask), labels)
    loss.backward()
    assert np.abs(params.tensors["tok_emb"].grad).sum() > 0  # tied weights receive MLM gradient


def test_checkpoint_round_trip(tmp_path):
    params = md.init_model(TINY, md.MTL, with_mlm_head=True, seed=11)
    path = tmp_path / "model.npz"
    md.save_checkpoint(params, path, extra_meta={"config_hash": "abc123"})
    loaded, meta = md.load_checkpoint(path)
    assert meta["config_hash"] == "abc123"
    assert meta["environment"] == md.MTL
    assert loaded.config == params.config
    for name, tensor in params.tensors.items():
        assert np.array_equal(loaded.tensors[name].data, tensor.data), name
    ids, mask = make_batch(np.random.default_rng(12))
    a = md.mtl_forward(params, ids, mask)
    b = md.mtl_forward(loaded, ids, mask)
    for task in TASKS:
        assert a[task].data.tobytes() == b[task].data.tobytes()


def test_checkpoint_rejects_other_versions(tmp_path):
    params = md.init_model(TINY, md.STL, task="toxic", seed=0)
    path = tmp_path / "model.npz"
    md.save_checkpoint(params, path)
    with np.load(path) as bundle:
        meta = json.loads(str(bundle["__meta__"]))
        arrays = {k: bundle[k] for k in bundle.files if k != "__meta__"}
    meta["format_version"] = 999
    buf = {"__meta__": np.asarray(json.dumps(meta)), **arrays}
    np.savez(path, **buf)
    with pytest.raises(ValueError, match="format"):
        md.load_checkpoint(path)


def assert_in_arena(params):
    """Every tensor's data and grad are views of the model's one data and grad buffer."""
    arena = params.tensors
    for name, t in arena.items():
        assert np.shares_memory(t.data, arena.data) and np.shares_memory(t.grad, arena.grad), name
    assert sum(t.data.size for t in arena.values()) == arena.data.size == arena.grad.size


def test_every_tensor_stays_a_view_of_the_arena(tmp_path):
    params = md.init_model(TINY, md.MTL, with_mlm_head=True, seed=1)
    assert_in_arena(params)
    params.load_arrays({"tok_emb": np.ones((TINY.vocab_size, TINY.d_model))})
    assert_in_arena(params)
    assert (params.tensors["tok_emb"].data == 1.0).all()
    md.reinit_heads(params, 2)
    assert_in_arena(params)
    fresh = md.init_model(TINY, md.MTL, seed=2)
    for task in TASKS:  # the same draws as a fresh model's heads
        assert np.array_equal(params.head(task).W.data, fresh.head(task).W.data)
    path = tmp_path / "model.npz"
    md.save_checkpoint(params, path)
    loaded, _ = md.load_checkpoint(path)
    assert_in_arena(loaded)
    assert np.array_equal(loaded.tensors.data, params.tensors.data)


@pytest.mark.parametrize("environment, task, mlm", [(md.STL, "toxic", False), (md.MTL, None, False),
                                                    (md.MTL, None, True)])
def test_tensors_iterate_in_arena_order(environment, task, mlm):
    params = md.ModelParams(TINY, environment, task, mlm)
    assert list(params.tensors) == [name for g in md.GROUPS for name, _, _ in params.layout[g]]
    params.tensors.data[:] = np.arange(params.tensors.data.size)
    assert np.array_equal(np.concatenate([t.data.ravel() for t in params.tensors.values()]), params.tensors.data)


def test_optimizer_groups_are_single_slices():
    params = md.init_model(TINY, md.MTL, with_mlm_head=True, seed=1)
    for groups, excluded in ((("heads", "encoder"), "mlm."), (("encoder", "mlm"), "head.")):
        group = params.group(*groups)
        assert list(group) == [n for n in params.tensors if not n.startswith(excluded)]  # tensors order
        assert group.data.base is params.tensors.data and group.grad.base is params.tensors.grad
        assert group.data.size == sum(t.data.size for t in group.values())
        params.tensors.data[:] = 0.0
        group.data[:] = 1.0
        for name, t in params.tensors.items():
            assert (t.data == 1.0).all() == (name in group), name
    assert list(params.group("encoder")) == params.encoder_tensor_names()
    whole = params.group("heads", "mlm")  # first through last: the whole arena
    assert list(whole) == list(params.tensors) and whole.data.size == params.tensors.data.size


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    params = md.init_model(TINY, md.STL, task="toxic", seed=3)
    path = tmp_path / "model.npz"
    md.save_checkpoint(params, path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint initialised a model")

    monkeypatch.setattr(md, "_truncated_normal", refuse)
    monkeypatch.setattr(md, "init_model", refuse)
    loaded, _ = md.load_checkpoint(path)
    assert np.array_equal(loaded.tensors.data, params.tensors.data)


@pytest.mark.parametrize("edit, message", [
    (lambda arrays, config: arrays.update(arena=arrays["arena"][:-1]),
     "stores 5041 parameters, its config implies 5042"),
    (lambda arrays, config: arrays.update(arena=np.append(arrays["arena"], 0.0)),
     "stores 5043 parameters, its config implies 5042"),
    # the same element count under another layout: tok_emb and pos_emb trade row counts
    (lambda arrays, config: config.update(vocab_size=config["max_seq_len"], max_seq_len=config["vocab_size"]),
     "layout_sha256 differs"),
], ids=["missing", "unknown", "mis-shaped"])
def test_load_checkpoint_rejects_foreign_parameters(tmp_path, edit, message):
    path = tmp_path / "model.npz"
    params = md.init_model(TINY, md.STL, task="toxic", seed=0)
    assert params.tensors.data.size == 5042
    md.save_checkpoint(params, path)
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    meta = json.loads(str(arrays["__meta__"]))
    edit(arrays, meta["config"])
    arrays["__meta__"] = np.asarray(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message):
        md.load_checkpoint(path)


def test_stack_batch():
    enc = [tok.EncodedInput([2, 5, 3, 0], [1, 1, 1, 0]), tok.EncodedInput([2, 3, 0, 0], [1, 1, 0, 0])]
    ids, mask = md.stack_batch(enc)
    assert ids.shape == (2, 4) and mask.shape == (2, 4)
    with pytest.raises(ValueError, match="length"):
        md.stack_batch([tok.EncodedInput([2, 3], [1, 1]), tok.EncodedInput([2, 3, 0], [1, 1, 0])])
    with pytest.raises(ValueError, match="empty"):
        md.stack_batch([])


def test_end_to_end_multitask_gradients():
    cfg = md.EncoderConfig(vocab_size=19, d_model=16, n_layers=2, n_heads=4, d_ff=24,
                           max_seq_len=8, dropout=0.0)
    params = md.init_model(cfg, md.MTL, seed=13)
    rng = np.random.default_rng(13)
    ids, mask = make_batch(rng, batch=2, seq=6, vocab=19, n_pad=1)
    labels = {t: rng.integers(0, 2, size=2) for t in TASKS}

    def loss_value() -> float:
        bundle = obj.loss_bundle(md.mtl_forward(params, ids, mask), labels)
        return float(bundle.mean.data)

    for t in params.tensors.values():
        t.zero_grad()
    bundle = obj.loss_bundle(md.mtl_forward(params, ids, mask), labels)
    bundle.mean.backward()

    h = 1e-5
    checked = 0
    for name in sorted(params.tensors):
        tensor = params.tensors[name]
        flat_indices = rng.choice(tensor.data.size, size=min(3, tensor.data.size), replace=False)
        for flat in flat_indices:
            idx = np.unravel_index(flat, tensor.data.shape)
            orig = tensor.data[idx]
            tensor.data[idx] = orig + h
            up = loss_value()
            tensor.data[idx] = orig - h
            down = loss_value()
            tensor.data[idx] = orig
            numeric = (up - down) / (2 * h)
            analytic = tensor.grad[idx]
            err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
            assert err <= 1e-4, (name, idx, analytic, numeric)
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize("n_layers", [0, 1, 3])
def test_layout_size_counts_the_arena_without_walking_layers(n_layers):
    config = dataclasses.replace(TINY, n_layers=n_layers)
    for environment, task, mlm in ((md.STL, "toxic", False), (md.MTL, None, False), (md.MTL, None, True)):
        params = md.ModelParams(config, environment, task, mlm)
        assert md.layout_size(config, params.head_tasks, mlm) == params.tensors.data.size
