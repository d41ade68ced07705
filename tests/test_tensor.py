import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germeval_mtl import autodiff as ad
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
