import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germeval_mtl import autodiff as ad
from germeval_mtl import model as md
from germeval_mtl import objectives as obj
from germeval_mtl import tokenizer as tok
from op_suite import OP_TRIALS, run_trials


def test_matmul_identity():
    eye = ad.Tensor(np.eye(2))
    b = ad.Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ad.matmul(eye, b).data, b.data)


def test_matmul_inner_product():
    a = ad.Tensor([[1.0, 2.0]])
    b = ad.Tensor([[3.0], [4.0]])
    assert ad.matmul(a, b).data == pytest.approx(np.array([[11.0]]))


def test_matmul_shape_mismatch_names_both_shapes():
    a = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
        ad.matmul(a, b)


def test_matmul_gradients_vs_finite_differences():
    report = run_trials("matmul", n_trials=5, tolerance=1e-6)
    assert report.passed, report


@pytest.mark.parametrize("name", ["matmul_folded", "matmul_folded_one_row"])
def test_folded_matmul_gradients_vs_finite_differences(name):
    report = run_trials(name, n_trials=5, tolerance=1e-6)
    assert report.passed, report


def _batched_matmul_reference(a, b, g):
    """The broadcast product and its grads, the weight grad summed over the batch axes."""
    ga = np.matmul(g, b.T)
    gb = np.matmul(np.swapaxes(a, -1, -2), g).reshape(-1, *b.shape).sum(axis=0)
    return np.matmul(a, b), ga, gb


@pytest.mark.parametrize("a_shape", [(2, 3, 4), (3, 1, 4), (2, 2, 5, 4), (8, 24, 4)])
def test_folded_matmul_matches_the_batched_product(a_shape):
    rng = np.random.default_rng(len(a_shape) * 100 + a_shape[-2])
    a, b = ad.parameter(rng.standard_normal(a_shape)), ad.parameter(rng.standard_normal((4, 6)))
    g = rng.standard_normal((*a_shape[:-1], 6))
    out = ad.matmul(a, b)
    ad.tsum(ad.mul(out, ad.Tensor(g))).backward()
    for got, want in zip((out.data, a.grad, b.grad), _batched_matmul_reference(a.data, b.data, g)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_folded_matmul_backward_builds_no_batched_weight_grad():
    rng = np.random.default_rng(0)
    a, b = ad.parameter(rng.standard_normal((8, 4, 16))), ad.parameter(rng.standard_normal((16, 500)))
    loss = ad.tsum(ad.matmul(a, b))
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * 500 * 8  # one (8, 16, 500) float64 array, the per-item weight grads


def test_softmax_symmetry():
    out = ad.softmax_rows(ad.Tensor([[0.0, 0.0]]))
    assert out.data == pytest.approx(np.array([[0.5, 0.5]]))


def test_softmax_large_logits_no_overflow():
    out = ad.softmax_rows(ad.Tensor([[1000.0, 1000.0]]))
    assert np.isfinite(out.data).all()
    assert out.data == pytest.approx(np.array([[0.5, 0.5]]))


def test_softmax_direct_value():
    # e^2 / (e^2 + 1) = 0.88079...
    out = ad.softmax_rows(ad.Tensor([[2.0, 0.0]]))
    assert out.data[0] == pytest.approx([0.8808, 0.1192], abs=1e-4)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(row):
    x = np.array([row])
    base = ad.softmax_rows(ad.Tensor(x)).data
    shifted = ad.softmax_rows(ad.Tensor(x + 13.7)).data
    assert abs(base.sum() - 1.0) <= 1e-9
    assert (base >= 0).all()
    assert np.abs(base - shifted).max() <= 1e-9


def test_layer_norm_constant_rows_zeroed():
    x = ad.Tensor(np.full((3, 4), 7.0))
    gamma = ad.Tensor(np.ones(4))
    beta = ad.Tensor(np.zeros(4))
    out = ad.layer_norm(x, gamma, beta)
    assert np.abs(out.data).max() <= 1e-6


def test_layer_norm_gamma_zero_returns_beta():
    x = ad.Tensor(np.random.default_rng(0).standard_normal((2, 5)))
    gamma = ad.Tensor(np.zeros(5))
    beta = ad.Tensor(np.full(5, 3.25))
    out = ad.layer_norm(x, gamma, beta)
    assert out.data == pytest.approx(np.full((2, 5), 3.25))


def test_layer_norm_normalizes_before_affine():
    rng = np.random.default_rng(1)
    x = ad.Tensor(rng.standard_normal((4, 8)) * 3 + 1)
    out = ad.layer_norm(x, ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)))
    assert np.abs(out.data.mean(axis=-1)).max() <= 1e-6
    assert np.abs(out.data.var(axis=-1) - 1.0).max() <= 1e-6


def test_layer_norm_empty_dimension_errors():
    with pytest.raises(ValueError, match="empty"):
        ad.layer_norm(ad.Tensor(np.zeros((2, 0))), ad.Tensor(np.zeros(0)), ad.Tensor(np.zeros(0)))


def test_layer_norm_gradients():
    report = run_trials("layer_norm", n_trials=5, tolerance=1e-5)
    assert report.passed, report


def test_gelu_values():
    x = ad.Tensor([0.0, 1.0, 8.0])
    out = ad.gelu(x)
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(0.8412, abs=1e-3)
    assert out.data[2] == pytest.approx(8.0, abs=1e-6)  # asymptote


def test_gelu_cube_as_products_matches_the_pow_formula():
    x = np.linspace(-10.0, 10.0, 20001)
    reference = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))
    assert ad.relative_error(ad.gelu(ad.Tensor(x)).data, reference) <= 1e-15


def test_dropout_draw_shape_equal_to_the_tensor_shape_changes_nothing():
    x = ad.Tensor(np.ones((3, 4)))
    plain_rng, drawn_rng = np.random.default_rng(7), np.random.default_rng(7)
    plain = ad.dropout(x, 0.4, plain_rng)
    drawn = ad.dropout(x, 0.4, drawn_rng, draw_shape=(3, 4))
    assert np.array_equal(plain.data, drawn.data)
    assert plain_rng.bit_generator.state == drawn_rng.bit_generator.state


def test_dropout_larger_draw_shape_keeps_the_leading_block():
    block_rng, full_rng = np.random.default_rng(8), np.random.default_rng(8)
    block = ad.dropout(ad.Tensor(np.ones((2, 1, 3))), 0.4, block_rng, draw_shape=(2, 5, 4))
    full = ad.dropout(ad.Tensor(np.ones((2, 5, 4))), 0.4, full_rng)
    assert np.array_equal(block.data, full.data[:, :1, :3])
    assert block_rng.bit_generator.state == full_rng.bit_generator.state


def _same_state(a, b) -> bool:
    """Bit-generator states equal, including those that hold arrays (MT19937's key)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@st.composite
def _dropout_blocks(draw):
    """A draw shape of rank 1-4 and a leading block of it; the last axis runs past the size rule."""
    rank = draw(st.integers(1, 4))
    draw_shape = [draw(st.integers(1, 4)) for _ in range(rank - 1)] + [draw(st.integers(1, 3 * ad._MIN_SKIP_PER_RUN))]
    shape = tuple(draw(st.integers(0, d)) for d in draw_shape)
    return shape, tuple(draw_shape), draw(st.sampled_from([np.random.PCG64, np.random.PCG64DXSM]))


@given(_dropout_blocks(), st.integers(0, 2**32 - 1))
@example(((8, 16, 128), (8, 120, 128), np.random.PCG64), 0)  # one run per row
@example(((8, 4, 16, 16), (8, 4, 120, 120), np.random.PCG64), 1)  # per (row, head): 16 x 120 kept
@example(((8, 4, 1, 120), (8, 4, 120, 120), np.random.PCG64DXSM), 2)  # a CLS-only attention plane
@example(((8, 16, 64), (8, 24, 64), np.random.PCG64), 3)  # 512 skipped per row: the padded draw
@example(((2, 0, 3000), (2, 2, 3000), np.random.PCG64), 4)  # empty runs still advance
@settings(max_examples=60, deadline=None)
def test_dropout_draws_the_padded_mask_and_leaves_the_padded_state(case, seed):
    shape, draw_shape, bit_generator = case
    rng, reference = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
    out = ad.dropout(ad.Tensor(np.ones(shape)), 0.4, rng, draw_shape)
    expected = (reference.random(draw_shape)[tuple(slice(0, n) for n in shape)] >= 0.4) / 0.6
    assert out.data.shape == shape and np.array_equal(out.data, expected)
    assert rng.bit_generator.state == reference.bit_generator.state


def _buffered_pcg64(seed):
    rng = np.random.default_rng(seed)
    rng.integers(0, 10, dtype=np.int32)  # leaves the other half of a 64-bit output buffered
    assert rng.bit_generator.state["has_uint32"]
    return rng


@pytest.mark.parametrize("make_rng", [
    lambda seed: np.random.Generator(np.random.MT19937(seed)),  # no advance
    lambda seed: np.random.Generator(np.random.Philox(seed)),  # advance steps whole 4-output blocks
    _buffered_pcg64,  # advance would drop the buffered value
], ids=["MT19937", "Philox", "PCG64-buffered-uint32"])
def test_dropout_falls_back_to_the_padded_draw(make_rng):
    shape, draw_shape = (8, 16, 128), (8, 120, 128)  # a plain PCG64 generator draws this run by run
    rng, reference = make_rng(5), make_rng(5)
    out = ad.dropout(ad.Tensor(np.ones(shape)), 0.4, rng, draw_shape)
    assert np.array_equal(out.data, (reference.random(draw_shape)[:, :16] >= 0.4) / 0.6)
    assert _same_state(rng.bit_generator.state, reference.bit_generator.state)


@pytest.mark.parametrize("draw_shape", [(3,), (3, 4, 1), (2, 4), (3, 3)])
@pytest.mark.parametrize("p", [0.0, 0.4])
def test_dropout_rejects_a_draw_shape_that_does_not_cover_the_tensor(draw_shape, p):
    with pytest.raises(ValueError, match="draw shape"):
        ad.dropout(ad.Tensor(np.ones((3, 4))), p, np.random.default_rng(0), draw_shape)


def test_embedding_lookup_first_row():
    table = ad.Tensor(np.arange(15.0).reshape(5, 3))
    out = ad.embedding_lookup(table, [0])
    assert np.array_equal(out.data, [[0.0, 1.0, 2.0]])


def test_embedding_repeated_id_accumulates():
    table = ad.parameter(np.zeros((5, 3)))
    out = ad.embedding_lookup(table, [2, 2])
    ad.tsum(out).backward()
    expected = np.zeros((5, 3))
    expected[2] = 2.0
    assert np.array_equal(table.grad, expected)


def test_embedding_out_of_range_names_id():
    table = ad.Tensor(np.zeros((5, 3)))
    with pytest.raises(IndexError, match="7"):
        ad.embedding_lookup(table, [1, 7])


def test_embedding_gradients():
    report = run_trials("embedding_lookup", n_trials=5, tolerance=1e-6)
    assert report.passed, report


def test_cross_entropy_uniform():
    loss = ad.cross_entropy(ad.Tensor([[0.0, 0.0]]), [0])
    assert loss.item() == pytest.approx(math.log(2.0))


def test_cross_entropy_confident_correct():
    loss = ad.cross_entropy(ad.Tensor([[30.0, -30.0]]), [0])
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_direct_value():
    loss = ad.cross_entropy(ad.Tensor([[2.0, 0.0]]), [0])
    assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-9)


def test_cross_entropy_empty_batch_errors():
    with pytest.raises(ValueError, match="empty"):
        ad.cross_entropy(ad.Tensor(np.zeros((0, 2))), [])


@given(st.integers(0, 4), st.lists(st.floats(-20, 20), min_size=5, max_size=5))
@settings(max_examples=50, deadline=None)
def test_cross_entropy_nonnegative(target, logits):
    loss = ad.cross_entropy(ad.Tensor([logits]), [target])
    assert loss.item() >= -1e-12


def test_backward_sum_gives_ones():
    x = ad.parameter(np.random.default_rng(2).standard_normal((3, 4)))
    ad.tsum(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_square_gives_two_x():
    x = ad.parameter(np.array([1.0, -2.0, 3.0]))
    ad.tsum(ad.mul(x, x)).backward()
    assert x.grad == pytest.approx(2.0 * x.data)


def test_backward_accumulates_without_reset():
    x = ad.parameter(np.array([1.0, 2.0]))
    ad.tsum(x).backward()
    ad.tsum(x).backward()
    assert np.array_equal(x.grad, np.full(2, 2.0))


def test_backward_writes_leaf_grads_in_place_and_no_node_grads():
    x = ad.parameter(np.array([1.0, 2.0]))
    buffer = x.grad = np.zeros(2)
    y = ad.mul(x, x)
    ad.tsum(y).backward()
    assert x.grad is buffer and np.array_equal(buffer, [2.0, 4.0])
    assert y.grad is None  # graph nodes keep no gradient
    x.zero_grad()
    assert x.grad is buffer and not buffer.any()


def test_backward_rejects_non_scalar():
    x = ad.parameter(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        ad.add(x, x).backward()


def test_forward_is_deterministic():
    def run():
        rng = np.random.default_rng(3)
        a = ad.Tensor(rng.standard_normal((4, 4)))
        b = ad.Tensor(rng.standard_normal((4, 4)))
        return ad.softmax_rows(ad.matmul(ad.gelu(a), b)).data.tobytes()

    assert run() == run()


def test_finite_diff_on_sum_is_ones():
    x = ad.Tensor(np.random.default_rng(4).standard_normal((2, 3)))
    est = ad.finite_diff_grad(ad.tsum, x, h=1e-4)
    assert est.data == pytest.approx(np.ones((2, 3)), abs=1e-7)


def test_finite_diff_on_square():
    x = ad.Tensor([3.0])
    est = ad.finite_diff_grad(lambda t: ad.tsum(ad.mul(t, t)), x, h=1e-4)
    assert est.data[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        ad.finite_diff_grad(ad.tsum, ad.Tensor([1.0]), h=0.0)


def test_finite_diff_agrees_with_backward_on_cross_entropy():
    rng = np.random.default_rng(5)
    logits = ad.parameter(rng.standard_normal((4, 3)))
    targets = rng.integers(0, 3, size=4)

    def f(z):
        return ad.cross_entropy(z, targets)

    f(logits).backward()
    numeric = ad.finite_diff_grad(f, logits, h=1e-6).data
    assert np.abs(logits.grad - numeric).max() <= 1e-6


@pytest.mark.parametrize("name", sorted(OP_TRIALS))
def test_op_gradient_trials(name):
    report = run_trials(name, n_trials=20, tolerance=1e-4)
    assert report.passed, report


def test_every_op_the_model_builds_is_grad_checked_and_no_other():
    """The engine is exactly what the encoder, heads, losses and oracle build."""
    cfg = md.EncoderConfig(vocab_size=20, d_model=8, n_layers=2, n_heads=2, d_ff=12, max_seq_len=6, dropout=0.1)
    rng = np.random.default_rng(3)
    ids = rng.integers(5, cfg.vocab_size, size=(2, 6))
    ids[:, 0] = tok.CLS_ID
    mask = np.ones((2, 6))
    ids[1, -1], mask[1, -1] = tok.PAD_ID, 0.0
    labels = {t: rng.integers(0, 2, size=2) for t in md.TASKS}
    mlm_labels = np.full((2, 6), tok.IGNORE_INDEX)
    mlm_labels[0, 2] = 7

    ad.reset_op_counts()
    mtl = md.init_model(cfg, md.MTL, with_mlm_head=True, seed=1)
    obj.loss_bundle(md.mtl_forward(mtl, ids, mask, train_mode=True, rng=np.random.default_rng(1)), labels).mean.backward()
    obj.mlm_loss(md.mlm_forward(mtl, ids, mask, train_mode=True, rng=np.random.default_rng(2)), mlm_labels).backward()
    stl = md.init_model(cfg, md.STL, task=md.TASKS[0], seed=1)
    obj.task_loss(md.stl_forward(stl, ids, mask, train_mode=True, rng=np.random.default_rng(3)), labels[md.TASKS[0]]).backward()
    ad.grad_check("gelu", ad.gelu, [ad.parameter(rng.standard_normal((2, 3)))])

    trial_ops = {"matmul_batched": "matmul", "matmul_folded": "matmul", "matmul_folded_one_row": "matmul",
                 "narrow_rows": "narrow"}
    checked = {trial_ops.get(name, name) for name in OP_TRIALS}
    assert set(ad.op_counts()) == checked


def test_grad_check_report_fields():
    report = run_trials("gelu", n_trials=1)
    assert report.op_name == "gelu"
    assert report.passed == (report.max_rel_error <= report.tolerance)


def test_op_counts_instrumentation():
    ad.reset_op_counts()
    x = ad.Tensor(np.zeros((2, 2)))
    ad.gelu(x)
    ad.gelu(x)
    assert ad.op_counts()["gelu"] == 2


def test_no_grad_builds_no_graph():
    x = ad.parameter(np.ones((2, 2)))
    with ad.no_grad():
        out = ad.gelu(x)
    assert not out.requires_grad and out.parents == ()
