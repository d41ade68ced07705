"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The experiments use
synthetic planted-marker corpora at desk scale; the two training-heavy
criteria are monitored against their stated wall-clock budgets.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from germeval_mtl import autodiff as ad
from germeval_mtl import cli
from germeval_mtl import data as dt
from germeval_mtl import metrics as mx
from germeval_mtl import model as md
from germeval_mtl import objectives as obj
from germeval_mtl import tokenizer as tok
from germeval_mtl import train as tr
from op_suite import OP_TRIALS, run_trials


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {number}] {description}: FAIL")
        raise
    print(f"\n[ACCEPTANCE {number}] {description}: PASS")


def _sampled_coordinate_check(params, tensor_names, loss_value, grads, rng, min_coords=50, h=1e-5):
    """Compare analytic grads against central differences on sampled coords,
    touching every named tensor at least once."""
    checked = 0
    worst = 0.0
    for name in tensor_names:
        tensor = params.tensors[name]
        count = min(2, tensor.data.size)
        for flat in rng.choice(tensor.data.size, size=count, replace=False):
            idx = np.unravel_index(int(flat), tensor.data.shape)
            orig = tensor.data[idx]
            tensor.data[idx] = orig + h
            up = loss_value()
            tensor.data[idx] = orig - h
            down = loss_value()
            tensor.data[idx] = orig
            numeric = (up - down) / (2 * h)
            analytic = grads[name][idx]
            err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
            worst = max(worst, err)
            assert err <= 1e-4, (name, idx, analytic, numeric)
            checked += 1
    assert checked >= min_coords
    return worst


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite (all ops + end-to-end LM+MTL loss, rel err <= 1e-4)"):
        start = time.monotonic()
        for name in sorted(OP_TRIALS):
            report = run_trials(name, n_trials=20, tolerance=1e-4)
            assert report.passed, report

        cfg = md.EncoderConfig(vocab_size=19, d_model=16, n_layers=2, n_heads=4,
                               d_ff=24, max_seq_len=8, dropout=0.0)
        params = md.init_model(cfg, md.MTL, with_mlm_head=True, seed=1)
        rng = np.random.default_rng(1)
        ids = rng.integers(5, cfg.vocab_size, size=(2, 6))
        ids[:, 0] = tok.CLS_ID
        mask = np.ones((2, 6))
        ids[:, -1], mask[:, -1] = tok.PAD_ID, 0.0
        labels = {t: rng.integers(0, 2, size=2) for t in dt.TASKS}
        mlm_labels = np.full((2, 6), tok.IGNORE_INDEX)
        mlm_labels[0, 2], mlm_labels[1, 3] = 7, 11
        masked_ids = ids.copy()
        masked_ids[0, 2] = masked_ids[1, 3] = tok.MASK_ID

        # classification side: the equal-weight multitask loss
        def multi_value() -> float:
            bundle = obj.loss_bundle(md.mtl_forward(params, ids, mask), labels)
            return float(bundle.mean.data)

        for t in params.tensors.values():
            t.zero_grad()
        obj.loss_bundle(md.mtl_forward(params, ids, mask), labels).mean.backward()
        classifier_names = [n for n in params.tensors if not n.startswith("mlm.")]
        grads = {n: params.tensors[n].grad for n in classifier_names}
        _sampled_coordinate_check(params, classifier_names, multi_value, grads, rng)

        # language-modeling side: masked cross-entropy through the tied head
        def mlm_value() -> float:
            logits = md.mlm_forward(params, masked_ids, mask)
            return float(obj.mlm_loss(logits, mlm_labels).data)

        for t in params.tensors.values():
            t.zero_grad()
        obj.mlm_loss(md.mlm_forward(params, masked_ids, mask), mlm_labels).backward()
        lm_names = [n for n in params.tensors if not n.startswith("head.")]
        grads = {n: params.tensors[n].grad for n in lm_names}
        _sampled_coordinate_check(params, lm_names, mlm_value, grads, rng)

        elapsed = time.monotonic() - start
        print(f"\n  gradient suite wall time: {elapsed:.1f}s")
        assert elapsed < 120.0


def test_criterion_2_loss_identities():
    with criterion(2, "loss identities (multitask mean <= 1e-12; fused vs explicit <= 1e-9)"):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            outputs = {t: ad.Tensor(rng.standard_normal((n, 2)) * 3) for t in dt.TASKS}
            labels = {t: rng.integers(0, 2, size=n) for t in dt.TASKS}
            bundle = obj.loss_bundle(outputs, labels)
            mean = sum(bundle.per_task[t].item() for t in dt.TASKS) / 3
            assert abs(bundle.mean.item() - mean) <= 1e-12

        for _ in range(100):
            n = int(rng.integers(1, 9))
            logits = rng.standard_normal((n, 2)) * 4
            labels = rng.integers(0, 2, size=n)
            fused = ad.cross_entropy(ad.Tensor(logits), labels).item()
            # explicit form: one-hot times log-softmax, summed over the classes
            z = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            explicit = 0.0
            for row, label in zip(probs, labels):
                onehot = np.eye(2)[label]
                explicit -= float((onehot * np.log(row)).sum())
            explicit /= n
            assert abs(fused - explicit) <= 1e-9


def test_criterion_3_metrics_oracle():
    with criterion(3, "metrics vs brute-force tally (1000 random pairs, both averagings)"):
        rng = np.random.default_rng(3)

        def brute(preds, gold, positive):
            tp = sum(1 for p, g in zip(preds, gold) if p == positive and g == positive)
            fp = sum(1 for p, g in zip(preds, gold) if p == positive and g != positive)
            fn = sum(1 for p, g in zip(preds, gold) if p != positive and g == positive)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            return precision, recall, f1

        for _ in range(1000):
            n = int(rng.integers(1, 51))
            preds = rng.integers(0, 2, size=n)
            gold = rng.integers(0, 2, size=n)
            counts = mx.confusion(preds, gold)
            tally = brute(preds, gold, 1)
            assert (counts.tp + counts.fp, counts.tp + counts.fn) == (
                int(preds.sum()), int(gold.sum()))
            pos = mx.prf1(counts, "positive_class")
            assert (pos.precision, pos.recall, pos.f1) == tally
            macro = mx.prf1(counts, "macro")
            zeros = brute(preds, gold, 0)
            expected = tuple((a + b) / 2 for a, b in zip(tally, zeros))
            assert (macro.precision, macro.recall, macro.f1) == expected


def test_criterion_4_ensemble_oracle():
    with criterion(4, "ensemble vs exhaustive majority enumeration (2/3/4/5 seeds)"):
        for n_seeds in (2, 3, 4, 5):
            patterns = list(itertools.product((0, 1), repeat=n_seeds))
            votes = np.array(patterns).T  # (n_seeds, 2**n_seeds)
            got = tr.ensemble_predict(votes)
            for col, pattern in enumerate(patterns):
                ones = sum(pattern)
                zeros = n_seeds - ones
                expected = 1 if ones > zeros else 0  # ties (even seeds) fall to 0
                assert got[col] == expected, (n_seeds, pattern)


def test_criterion_5_dataset_audit(tmp_path):
    with criterion(5, "dataset audit reproduces the published training distribution"):
        distribution = {
            (0, 0, 0): 1074,
            (1, 0, 0): 739,
            (0, 1, 0): 239,
            (1, 1, 0): 89,
            (0, 1, 1): 403,
            (1, 0, 1): 160,
            (0, 0, 1): 406,
            (1, 1, 1): 134,
        }
        examples = []
        counter = 0
        for (toxic, engaging, fact), count in distribution.items():
            for _ in range(count):
                examples.append(dt.Example(
                    id=f"c{counter:05d}",
                    text=f"kommentar nummer {counter}, mit komma",
                    toxic=toxic, engaging=engaging, fact_claiming=fact,
                ))
                counter += 1
        path = tmp_path / "train.csv"
        dt.write_dataset(path, examples)

        summary = dt.summarize(dt.load_dataset(path))
        assert summary.total == 3244
        for triple, count in distribution.items():
            assert summary.count(*triple) == count, triple
        assert sum(summary.counts.values()) == summary.total


DESK_ENCODER = dict(d_model=128, n_layers=2, n_heads=4, d_ff=512, max_seq_len=120, dropout=0.1)


def test_criterion_6_overfit_experiment():
    with criterion(6, "overfit: STL per task and MTL reach train F1>=0.99, val F1>=0.95 in 3 epochs"):
        start = time.monotonic()
        examples = dt.synth_generate(200, seed=42, spec=dt.SynthSpec(correlation=0.5, noise=0.0))
        vocab = tok.build_vocab([e.text for e in examples], max_size=500)
        enc = md.EncoderConfig(vocab_size=len(vocab), **DESK_ENCODER)
        # Table-3 hyperparameters target fine-tuning pretrained encoders; training
        # this encoder from scratch needs a desk-appropriate peak rate.
        base = dict(learning_rate=2e-3, num_epochs=3, batch_size=8,
                    eval_every_batches=10, split_seed=7, seeds=(1,))
        train_ex, val_ex = dt.split(examples, 0.8, base["split_seed"])
        train_ds = dt.encode_examples(vocab, train_ex, 24)
        val_ds = dt.encode_examples(vocab, val_ex, 24)

        scores = {}
        params = md.init_model(enc, md.MTL, seed=1)
        params, _ = tr.train_one(params, train_ds, val_ds, tr.TrainConfig(environment="mtl", **base), seed=1)
        train_preds = tr.predict_dataset(params, train_ds)
        val_preds = tr.predict_dataset(params, val_ds)
        for task in dt.TASKS:
            scores[("MTL", task)] = (
                mx.score(train_preds[task], train_ds.labels[task]).f1,
                mx.score(val_preds[task], val_ds.labels[task]).f1,
            )
        for task in dt.TASKS:
            params = md.init_model(enc, md.STL, task=task, seed=1)
            params, _ = tr.train_one(params, train_ds, val_ds, tr.TrainConfig(environment="stl", **base), seed=1)
            scores[("STL", task)] = (
                mx.score(tr.predict_dataset(params, train_ds)[task], train_ds.labels[task]).f1,
                mx.score(tr.predict_dataset(params, val_ds)[task], val_ds.labels[task]).f1,
            )

        for (env, task), (train_f1, val_f1) in scores.items():
            print(f"  {env} {task}: train F1={train_f1:.4f} val F1={val_f1:.4f}")
            assert train_f1 >= 0.99, (env, task, train_f1)
            assert val_f1 >= 0.95, (env, task, val_f1)
        elapsed = time.monotonic() - start
        print(f"  overfit experiment wall time: {elapsed:.1f}s")
        assert elapsed < 600.0


def test_criterion_7_mtl_advantage_experiment():
    with criterion(7, "four-environment comparison; per task mean MTL F1 >= STL F1 - 0.02"):
        examples = dt.synth_generate(500, seed=99, spec=dt.SynthSpec(correlation=0.7, noise=0.0))
        vocab = tok.build_vocab([e.text for e in examples], max_size=400)
        enc = md.EncoderConfig(vocab_size=len(vocab), d_model=64, n_layers=2, n_heads=4,
                               d_ff=128, max_seq_len=24, dropout=0.1)
        base = dict(learning_rate=2e-3, num_epochs=4, batch_size=8,
                    eval_every_batches=25, split_seed=7, seeds=(1, 2, 3, 4, 5))

        results = {}
        grid = {}
        for environment in ("stl", "mtl"):
            for lm_stage in (False, True):
                cfg = tr.TrainConfig(environment=environment, lm_stage=lm_stage, **base)
                result = tr.run_experiment(cfg, examples, vocab, enc, max_len=24)
                assert len(result.per_seed_preds["toxic"]) == 5
                n_models = sum(len(by_key) for by_key in result.records.values())
                assert n_models == (15 if environment == "stl" else 5)
                results[result.environment] = result
                grid[("scratch", result.environment)] = result.metrics("macro")

        n_train = int(round(0.8 * len(examples)))
        assert n_train == 400

        table = mx.results_table(grid)
        print("\n  four-environment comparison (ensemble of 5 seeds, macro averaging):")
        for line in table.text.splitlines():
            print("  " + line)

        def mean_seed_f1(env: str, task: str) -> float:
            result = results[env]
            return float(np.mean([
                mx.score(result.per_seed_preds[task][i], result.val_gold[task]).f1
                for i in range(len(result.seeds))
            ]))

        advantage_all = True
        for task in dt.TASKS:
            stl_f1 = mean_seed_f1("STL", task)
            mtl_f1 = mean_seed_f1("MTL", task)
            advantage_all &= mtl_f1 > stl_f1
            print(f"  {task}: mean seed F1 STL={stl_f1:.4f} MTL={mtl_f1:.4f} (MTL-STL={mtl_f1 - stl_f1:+.4f})")
            assert mtl_f1 >= stl_f1 - 0.02, (task, stl_f1, mtl_f1)
        # Directional finding is reported, not asserted: at desk scale it is stochastic.
        print(f"  directional report: MTL outperformed STL on every task: {advantage_all}")


def test_criterion_8_cmd_train_determinism(tmp_path):
    with criterion(8, "two identical cmd_train runs produce byte-identical prediction files"):
        examples = dt.synth_generate(60, seed=8, spec=dt.SynthSpec(correlation=0.5))
        data_path = tmp_path / "data.csv"
        dt.write_dataset(data_path, examples)
        vocab_path = tmp_path / "vocab.txt"
        assert cli.main(["build-vocab", "--data", str(data_path), "--out", str(vocab_path),
                         "--max-size", "300"]) == 0
        flags = [
            "--set", "learning_rate=2e-3", "--set", "num_epochs=1", "--set", "batch_size=8",
            "--set", "eval_every_batches=4", "--set", "d_model=32", "--set", "n_layers=1",
            "--set", "n_heads=2", "--set", "d_ff=64", "--set", "max_seq_len=24",
            "--set", "max_len=24", "--seeds", "1,2", "--env", "mtl",
        ]
        runs = []
        for name in ("run-a", "run-b"):
            out = tmp_path / name
            rc = cli.main(["train", "--data", str(data_path), "--vocab", str(vocab_path),
                           "--out", str(out), *flags])
            assert rc == 0
            runs.append(out)
        for filename in ("preds-seed1.csv", "preds-seed2.csv", "preds-ensemble.csv"):
            a = (runs[0] / filename).read_bytes()
            b = (runs[1] / filename).read_bytes()
            assert a == b, filename
        manifest_a = json.loads((runs[0] / "manifest.json").read_text(encoding="utf-8"))
        manifest_b = json.loads((runs[1] / "manifest.json").read_text(encoding="utf-8"))
        assert manifest_a["config_hash"] == manifest_b["config_hash"]


def test_criterion_9_early_stopping_contract():
    with criterion(9, "constant validation loss + patience 10 halts at the 11th evaluation"):
        examples = dt.synth_generate(60, seed=9, spec=dt.SynthSpec(correlation=0.5))
        vocab = tok.build_vocab([e.text for e in examples], max_size=300)
        enc = md.EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2,
                               d_ff=32, max_seq_len=24, dropout=0.1)
        cfg = tr.TrainConfig(learning_rate=1e-3, num_epochs=100, batch_size=8,
                             eval_every_batches=2, early_stop_patience_evals=10,
                             environment="stl", seeds=(1,), split_seed=3)
        train_ex, val_ex = dt.split(examples, 0.8, 3)
        train_ds = dt.encode_examples(vocab, train_ex, 24)
        val_ds = dt.encode_examples(vocab, val_ex, 24)
        params = md.init_model(enc, md.STL, task="toxic", seed=1)

        snapshots = []

        def adversarial(p, step):
            if not snapshots:
                snapshots.append(p.tensors.data.copy())
            return 0.5, {}

        params, record = tr.train_one(params, train_ds, val_ds, cfg, seed=1,
                                      val_metrics_fn=adversarial)
        assert len(record.eval_history) == 11
        assert record.stopped_early
        first_step = record.eval_history[0][0]
        assert record.best_checkpoint_step == first_step
        assert np.array_equal(params.tensors.data, snapshots[0])
