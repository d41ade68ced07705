import logging
import math

import numpy as np
import pytest

from germeval_mtl import autodiff as ad
from germeval_mtl import model as md
from germeval_mtl import objectives as obj
from germeval_mtl.data import TASKS
from germeval_mtl.tokenizer import IGNORE_INDEX


def explicit_softmax_form(logits: np.ndarray, labels) -> float:
    """Reference loss: one-hot times log of the softmax outputs, summed
    over the two classes, averaged over the batch."""
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    total = 0.0
    for row, label in zip(probs, labels):
        onehot = np.zeros(2)
        onehot[label] = 1.0
        total += -float((onehot * np.log(row)).sum())
    return total / len(labels)


def test_task_loss_uniform_is_ln2():
    logits = ad.Tensor(np.zeros((4, 2)))
    assert obj.task_loss(logits, [0, 1, 0, 1]).item() == pytest.approx(math.log(2.0))


def test_task_loss_perfect_predictions_near_zero():
    logits = ad.Tensor([[40.0, -40.0], [-40.0, 40.0]])
    assert obj.task_loss(logits, [0, 1]).item() == pytest.approx(0.0, abs=1e-12)


def test_task_loss_direct_value():
    logits = ad.Tensor([[2.0, 0.0], [0.0, 2.0]])
    loss = obj.task_loss(logits, [0, 1])
    assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-9)


def test_task_loss_rejects_softmax_outputs():
    rng = np.random.default_rng(0)
    head = md.ClassificationHead(ad.parameter(rng.standard_normal((5, 2))), ad.parameter(np.zeros(2)))
    h = ad.Tensor(rng.standard_normal((6, 5)))
    labels = rng.integers(0, 2, size=6)
    with pytest.raises(ValueError, match="logits"):
        obj.task_loss(md.classify(head, h), labels)
    with ad.no_grad():  # no graph behind the probabilities: still refused
        with pytest.raises(ValueError, match="logits"):
            obj.task_loss(md.classify(head, h), labels)
    assert np.isfinite(obj.task_loss(md.head_logits(head, h), labels).item())


def test_task_loss_stable_for_extreme_scores():
    scores = ad.parameter(np.array([[900.0, -900.0]]))
    loss = obj.task_loss(scores, [1])
    assert np.isfinite(loss.item()) and loss.item() == pytest.approx(1800.0)


def test_task_loss_matches_explicit_softmax_form():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        logits = rng.standard_normal((n, 2)) * 3
        labels = rng.integers(0, 2, size=n)
        fused = obj.task_loss(ad.Tensor(logits), labels).item()
        assert abs(fused - explicit_softmax_form(logits, labels)) <= 1e-9


def test_task_loss_rejects_bad_labels():
    with pytest.raises(ValueError, match="0/1"):
        obj.task_loss(ad.Tensor(np.zeros((2, 2))), [0, 2])
    with pytest.raises(ValueError, match="empty"):
        obj.task_loss(ad.Tensor(np.zeros((0, 2))), [])


def _logits_with_loss(value: float) -> np.ndarray:
    """One row of head logits whose task loss at label 0 is ``value``."""
    return np.array([[0.0, math.log(math.expm1(value))]])


def _value_and_grads(loss_of, logits: dict) -> tuple[float, dict]:
    """The value of ``loss_of`` on fresh leaves holding ``logits``, and each leaf's grad."""
    leaves = {t: ad.parameter(z.copy()) for t, z in logits.items()}
    loss = loss_of(leaves)
    loss.backward()
    return loss.item(), {t: leaf.grad for t, leaf in leaves.items()}


def _random_heads(rng, tasks, n: int) -> tuple[dict, dict]:
    return ({t: 3.0 * rng.standard_normal((n, 2)) for t in tasks},
            {t: rng.integers(0, 2, size=n) for t in tasks})


def test_loss_bundle_is_arithmetic_mean():
    labels = {t: [0] for t in TASKS}
    outputs = {t: ad.Tensor(_logits_with_loss(v)) for t, v in zip(TASKS, (0.3, 0.6, 0.9))}
    assert obj.loss_bundle(outputs, labels).mean.item() == pytest.approx(0.6)
    same = {t: ad.Tensor(_logits_with_loss(1.7)) for t in TASKS}
    assert obj.loss_bundle(same, labels).mean.item() == pytest.approx(1.7)


def test_loss_bundle_permutation_symmetric():
    rng = np.random.default_rng(6)
    for _ in range(20):
        logits, labels = _random_heads(rng, TASKS, int(rng.integers(1, 7)))
        means = [obj.loss_bundle({t: ad.Tensor(logits[t]) for t in order}, labels).mean.item()
                 for order in (TASKS, TASKS[::-1], TASKS[1:] + TASKS[:1])]
        assert max(means) - min(means) <= 1e-12


def test_loss_bundle_gradient_is_one_third():
    logits = {t: _logits_with_loss(v) for t, v in zip(TASKS, (0.3, 0.6, 0.9))}
    labels = {t: [0] for t in TASKS}
    _, grads = _value_and_grads(lambda z: obj.loss_bundle(z, labels).mean, logits)
    for t in TASKS:
        _, alone = _value_and_grads(lambda z: obj.task_loss(z[t], labels[t]), {t: logits[t]})
        assert np.allclose(grads[t], alone[t] / 3.0, rtol=1e-12, atol=0.0)


def test_loss_bundle_of_one_head_is_its_task_loss():
    rng = np.random.default_rng(7)
    logits, labels = _random_heads(rng, ("engaging",), 6)
    bundle = obj.loss_bundle({"engaging": ad.Tensor(logits["engaging"])}, labels)
    assert list(bundle.per_task) == ["engaging"] and bundle.mean is bundle.per_task["engaging"]
    got = _value_and_grads(lambda z: obj.loss_bundle(z, labels).mean, logits)
    want = _value_and_grads(lambda z: obj.task_loss(z["engaging"], labels["engaging"]), logits)
    assert got[0] == want[0] and np.array_equal(got[1]["engaging"], want[1]["engaging"])


@pytest.mark.parametrize("tasks, reference", [
    (TASKS, lambda a, b, c: ad.add(ad.add(a, b), c) / 3),
    (TASKS[1:], lambda a, b: ad.add(a, b) / 2),
], ids=["three-heads", "two-heads"])
def test_loss_bundle_mean_is_the_left_fold_over_the_head_count(tasks, reference):
    rng = np.random.default_rng(len(tasks))
    for _ in range(10):
        logits, labels = _random_heads(rng, tasks, int(rng.integers(1, 7)))
        bundle = obj.loss_bundle({t: ad.Tensor(logits[t]) for t in tasks}, labels)
        assert list(bundle.per_task) == list(tasks)
        got = _value_and_grads(lambda z: obj.loss_bundle(z, labels).mean, logits)
        want = _value_and_grads(lambda z: reference(*(obj.task_loss(z[t], labels[t]) for t in tasks)), logits)
        assert got[0] == want[0]
        for t in tasks:
            assert np.array_equal(got[1][t], want[1][t])


def test_loss_bundle_mean_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        outputs = {t: ad.Tensor(rng.standard_normal((n, 2))) for t in TASKS}
        labels = {t: rng.integers(0, 2, size=n) for t in TASKS}
        bundle = obj.loss_bundle(outputs, labels)
        mean = sum(bundle.per_task[t].item() for t in TASKS) / 3
        assert abs(bundle.mean.item() - mean) <= 1e-12
        assert bundle.per_task["engaging"].item() == obj.task_loss(outputs["engaging"], labels["engaging"]).item()


def test_mlm_loss_all_ignored_warns_and_zero(caplog):
    logits = ad.Tensor(np.zeros((1, 3, 7)))
    with caplog.at_level(logging.WARNING):
        loss = obj.mlm_loss(logits, np.full(3, IGNORE_INDEX))
    assert loss.item() == 0.0
    assert "no selected positions" in caplog.text


def test_mlm_loss_uniform_logits_is_ln_vocab():
    vocab = 11
    logits = ad.Tensor(np.zeros((1, 4, vocab)))
    labels = np.full(4, IGNORE_INDEX)
    labels[2] = 5
    assert obj.mlm_loss(logits, labels).item() == pytest.approx(math.log(vocab))


def test_mlm_loss_ignores_unselected_positions():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((1, 4, 6))
    labels = np.full(4, IGNORE_INDEX)
    labels[1] = 3
    loss_a = obj.mlm_loss(ad.Tensor(base), labels).item()
    poked = base.copy()
    poked[0, 2, :] += 5.0  # an ignored position's logits
    loss_b = obj.mlm_loss(ad.Tensor(poked), labels).item()
    assert loss_a == loss_b


def test_mlm_loss_gradient_zero_at_ignored_positions():
    rng = np.random.default_rng(4)
    logits = ad.parameter(rng.standard_normal((2, 3, 5)))
    labels = np.full((2, 3), IGNORE_INDEX)
    labels[0, 1] = 2
    labels[1, 0] = 4
    obj.mlm_loss(logits, labels).backward()
    grad = logits.grad
    for b in range(2):
        for pos in range(3):
            if labels[b, pos] == IGNORE_INDEX:
                assert np.all(grad[b, pos] == 0.0)
            else:
                assert np.any(grad[b, pos] != 0.0)


def test_mlm_loss_shape_validation():
    with pytest.raises(ValueError, match="batch, seq, vocab"):
        obj.mlm_loss(ad.Tensor(np.zeros((3, 5))), [0, 0, 0])
    with pytest.raises(ValueError, match="labels"):
        obj.mlm_loss(ad.Tensor(np.zeros((1, 3, 5))), [0, 0])


def test_mlm_loss_takes_labels_wider_than_trimmed_logits():
    rng = np.random.default_rng(6)
    logits = ad.Tensor(rng.standard_normal((2, 3, 5)))
    labels = np.full((2, 6), IGNORE_INDEX)
    labels[0, 1], labels[1, 2] = 4, 0
    assert obj.mlm_loss(logits, labels).item() == obj.mlm_loss(logits, labels[:, :3]).item()
    labels[1, 4] = 2  # a label in a column the encoder trimmed
    with pytest.raises(ValueError, match="past the 3 encoded columns"):
        obj.mlm_loss(logits, labels)


def reference_mlm_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and logits grad that score every position, then average over the labelled ones."""
    z = logits.reshape(-1, logits.shape[-1])
    targets = labels.ravel()
    labelled = targets != IGNORE_INDEX
    rows, n = np.arange(len(targets))[labelled], int(labelled.sum())
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    loss = (lse[labelled] - z[rows, targets[labelled]]).sum() / n
    p = np.exp(z - zmax)
    p /= p.sum(axis=-1, keepdims=True)
    p[rows, targets[labelled]] -= 1.0
    p[~labelled] = 0.0
    return loss, (p * (1.0 / n)).reshape(logits.shape)


@pytest.mark.parametrize("shape, n_labelled", [((2, 5, 7), 3), ((3, 8, 11), 1), ((1, 6, 4), 6)])
def test_mlm_loss_scores_only_labelled_rows_and_equals_the_full_reference(shape, n_labelled):
    rng = np.random.default_rng(sum(shape))
    logits = ad.parameter(3.0 * rng.standard_normal(shape))
    labels = np.full(shape[:2], IGNORE_INDEX)
    positions = rng.choice(shape[0] * shape[1], size=n_labelled, replace=False)
    labels.flat[positions] = rng.integers(0, shape[2], size=n_labelled)
    loss = obj.mlm_loss(logits, labels)
    assert loss.parents[0].shape == (n_labelled, shape[2])  # only the labelled rows reach the loss
    loss.backward()
    want_loss, want_grad = reference_mlm_loss(logits.data, labels)
    assert loss.item() == want_loss
    assert np.array_equal(logits.grad, want_grad)
