"""The benchmark's three workloads.

Each workload has a set-up (inputs made from the seed, untimed for
``wall_s``), a repetition (the timed part, which returns a digest of all
of its outputs for the byte-identical rerun oracle), and correctness
checks run once the timed loop is over. Sizes come in two presets:
``default`` for the benchmark and ``toy`` for the smoke tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
from germeval_mtl import autodiff as ad
from germeval_mtl import cli
from germeval_mtl import data as dt
from germeval_mtl import model as md
from germeval_mtl import objectives as obj
from germeval_mtl import tokenizer as tok
from germeval_mtl import train as tr

REFERENCE_SEED = 2021  # vocab-predict outputs at this seed are pinned in reference.json
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
    return h.hexdigest()


def labels_digest(preds: dict) -> str:
    return digest(*(np.asarray(preds[t], dtype=np.int64).tobytes() for t in sorted(preds)))


def finite_history(record: tr.RunRecord) -> bool:
    return bool(record.eval_history) and all(math.isfinite(loss) for _, loss, _ in record.eval_history)


# -- grid-desk ------------------------------------------------------------------


@dataclass(frozen=True)
class GridSizes:
    examples: int
    split_ratio: float
    epochs: int
    eval_every: int
    vocab_max: int
    d_model: int
    d_ff: int
    max_len: int
    f1_floor: float


class GridDesk:
    """All four environments (STL, LM+STL, MTL, LM+MTL) through ``run_experiment``.

    Criterion-7 encoder shape (d64, 2 layers, d_ff 128, L=24, B=8) on
    ``synth_generate`` data, one model seed, fewer and shorter examples so
    that one repetition takes seconds. The arrays are tiny, so per-op
    Python overhead in autodiff, Adam over many small tensors and
    evaluation dominate.
    """

    name = "grid-desk"
    stages = 4  # run_experiment calls per repetition
    predict_stage = "train.predict_dataset"
    SIZES = {
        "default": GridSizes(80, 0.6, 3, 9, 400, 64, 128, 24, 0.6),
        "toy": GridSizes(24, 0.5, 1, 2, 60, 16, 32, 12, 0.0),
    }

    def __init__(self, preset: str = "default"):
        self.sizes = self.SIZES[preset]

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        examples = dt.synth_generate(
            s.examples, seed=seed, spec=dt.SynthSpec(correlation=0.7, noise=0.0, min_tokens=2, max_tokens=5)
        )
        vocab = tok.build_vocab([ex.text for ex in examples], max_size=s.vocab_max)
        enc = md.EncoderConfig(vocab_size=len(vocab), d_model=s.d_model, n_layers=2, n_heads=4,
                               d_ff=s.d_ff, max_seq_len=s.max_len, dropout=0.1)
        return {"seed": seed, "examples": examples, "vocab": vocab, "enc": enc}

    def repeat(self, state: dict) -> dict:
        s = self.sizes
        results = {}
        for environment in (md.STL, md.MTL):
            for lm_stage in (False, True):
                cfg = tr.TrainConfig(environment=environment, lm_stage=lm_stage, learning_rate=5e-3,
                                     num_epochs=s.epochs, batch_size=8, eval_every_batches=s.eval_every,
                                     split_seed=7, seeds=(1,))
                result = tr.run_experiment(cfg, state["examples"], state["vocab"], state["enc"],
                                           max_len=s.max_len, split_ratio=s.split_ratio)
                results[result.environment] = result
        return results

    def outputs_digest(self, state: dict, results: dict) -> str:
        parts = []
        for env in sorted(results):
            r = results[env]
            parts.append(labels_digest(r.ensemble_preds))
            for seed in sorted(r.records):
                for key in sorted(r.records[seed]):
                    parts.append(r.records[seed][key].eval_history)
        return digest(*parts)

    def predicted_examples(self, summary) -> int:
        return summary.counts["train.predict_dataset.examples"]

    def checks(self, state: dict, results: dict, rerun) -> list[Check]:
        histories = [rec for r in results.values() for by_key in r.records.values() for rec in by_key.values()]
        f1s = [m.f1 for r in results.values() for m in r.metrics("macro").values()]
        mean_f1 = float(np.mean(f1s))
        return [
            Check("grid-desk.losses_finite", all(finite_history(rec) for rec in histories),
                  f"{len(histories)} training runs"),
            Check("grid-desk.ensemble_macro_f1_floor", mean_f1 >= self.sizes.f1_floor,
                  f"mean ensemble macro F1 {mean_f1:.4f} over 4 environments x 3 tasks, floor {self.sizes.f1_floor}"),
        ]

    def texts(self, state: dict) -> tuple[tok.Vocab, list[str], int]:
        return state["vocab"], [ex.text for ex in state["examples"]], self.sizes.max_len


# -- lm-default -----------------------------------------------------------------


@dataclass(frozen=True)
class LMSizes:
    vocab: int
    lm_texts: int
    train: int
    val: int
    eval_every: int
    min_words: int
    max_words: int
    d_model: int
    d_ff: int
    max_len: int


def lexicon_vocab(lexicon: list[str], size: int) -> tok.Vocab:
    """Special tokens, every character (bare and ``##``), the markers, then the most frequent words."""
    chars = sorted({c for w in lexicon + list(corpus.MARKERS.values()) for c in w} | set(corpus.PUNCTUATION))
    tokens = list(tok.SPECIAL_TOKENS) + chars + ["##" + c for c in chars]
    tokens += list(corpus.MARKERS.values())
    seen = set(tokens)
    for word in lexicon:
        if len(tokens) >= size:
            break
        if word not in seen:
            seen.add(word)
            tokens.append(word)
    return tok.Vocab(tokens)


class LMDefault:
    """The LM+MTL pipeline stage by stage at the default encoder scale.

    ``lm_finetune``, then ``train_one``, then ``predict_dataset`` on the
    validation split, with the default ``EncoderConfig`` (d128, d_ff 512,
    L=120) and a vocabulary in the thousands. Texts are short, so most of
    each 120-position row is padding: large matmuls, ``gelu``, the full
    (B, L, V) masked-LM logits and padding waste dominate. The vocabulary
    is the lexicon's most frequent words plus every character, built
    directly so that set-up does not spend minutes in ``build_vocab``.
    """

    name = "lm-default"
    stages = 3  # lm_finetune, train_one, predict_dataset
    predict_stage = "train.predict_dataset"
    SIZES = {
        "default": LMSizes(2000, 24, 24, 16, 3, 4, 9, 128, 512, 120),
        "toy": LMSizes(200, 24, 24, 4, 3, 4, 9, 16, 32, 24),
    }

    def __init__(self, preset: str = "default"):
        self.sizes = self.SIZES[preset]

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        texts = corpus.Corpus(seed)
        vocab = lexicon_vocab(texts.lexicon, s.vocab)
        lm_texts = [ex.text for ex in texts.examples(s.lm_texts, 0, s.min_words, s.max_words)]
        train_ex = texts.examples(s.train, 1, s.min_words, s.max_words)
        val_ex = texts.examples(s.val, 2, s.min_words, s.max_words)
        enc = md.EncoderConfig(vocab_size=len(vocab), d_model=s.d_model, d_ff=s.d_ff, max_seq_len=s.max_len)
        cfg = tr.TrainConfig(environment=md.MTL, lm_stage=True, learning_rate=5e-4, num_epochs=1,
                             batch_size=8, eval_every_batches=s.eval_every, seeds=(1,))
        return {"seed": seed, "vocab": vocab, "lm_texts": lm_texts, "train": train_ex, "val": val_ex,
                "enc": enc, "cfg": cfg}

    def repeat(self, state: dict) -> dict:
        s, cfg, vocab = self.sizes, state["cfg"], state["vocab"]
        train_ds = dt.encode_examples(vocab, state["train"], s.max_len)
        val_ds = dt.encode_examples(vocab, state["val"], s.max_len)
        carrier = md.init_model(state["enc"], md.MTL, with_mlm_head=True, seed=1)
        tr.lm_finetune(carrier, state["lm_texts"], vocab, cfg, seed=1, max_len=s.max_len)
        params = md.init_model(state["enc"], md.MTL, seed=1)
        params.load_arrays({n: carrier.tensors[n].data for n in carrier.encoder_tensor_names()})
        md.reinit_heads(params, 1)
        params, record = tr.train_one(params, train_ds, val_ds, cfg, seed=1)
        preds = tr.predict_dataset(params, val_ds, cfg.batch_size)
        return {"carrier": carrier, "record": record, "preds": preds}

    def outputs_digest(self, state: dict, out: dict) -> str:
        carrier = out["carrier"].tensors
        return digest(labels_digest(out["preds"]), out["record"].eval_history,
                      *(carrier[n].data.tobytes() for n in sorted(carrier)))

    def predicted_examples(self, summary) -> int:
        return summary.counts["train.predict_dataset.examples"]

    def mlm_val_loss(self, state: dict, out: dict) -> float:
        """Masked-LM loss of the fine-tuned encoder on the validation texts."""
        vocab, max_len = state["vocab"], self.sizes.max_len
        masked, labels = [], []
        for j, ex in enumerate(state["val"]):
            m, lab = tok.mask_for_mlm(vocab, tok.encode(vocab, ex.text, max_len), rng_seed=(3, j))
            masked.append(m)
            labels.append(lab)
        ids, attn = md.stack_batch(masked)
        with ad.no_grad():
            logits = md.mlm_forward(out["carrier"], ids, attn)
            return float(obj.mlm_loss(logits, np.asarray(labels)).data)

    def checks(self, state: dict, out: dict, rerun) -> list[Check]:
        mlm = self.mlm_val_loss(state, out)
        return [
            Check("lm-default.mlm_loss_finite", math.isfinite(mlm), f"validation masked-LM loss {mlm:.6f}"),
            Check("lm-default.val_losses_finite", finite_history(out["record"]),
                  f"{len(out['record'].eval_history)} evaluations"),
        ]

    def texts(self, state: dict) -> tuple[tok.Vocab, list[str], int]:
        texts = state["lm_texts"] + [ex.text for ex in state["train"] + state["val"]]
        return state["vocab"], texts, self.sizes.max_len


# -- vocab-predict ----------------------------------------------------------------


@dataclass(frozen=True)
class VocabPredictSizes:
    train_texts: int
    train_words: tuple
    vocab_max: int
    predict_texts: int
    predict_words: tuple
    d_model: int
    d_ff: int
    max_len: int


class VocabPredict:
    """The CLI in-process: ``build-vocab`` on a training CSV, then ``predict``.

    ``predict`` runs three default-scale single-task checkpoints, seeded
    and saved during set-up, over texts long enough to fill ``max_len``.
    It covers tokenizer training next to tokenizer encoding, and a forward
    pass under ``no_grad`` with no backward and no Adam step. There is
    almost no padding.
    """

    name = "vocab-predict"
    stages = 2  # build-vocab, predict
    predict_stage = "cli.cmd_predict"
    SIZES = {
        "default": VocabPredictSizes(300, (4, 9), 450, 40, (28, 40), 128, 512, 120),
        "toy": VocabPredictSizes(40, (4, 9), 120, 6, (10, 14), 16, 32, 24),
    }

    def __init__(self, preset: str = "default"):
        self.preset = preset
        self.sizes = self.SIZES[preset]

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        texts = corpus.Corpus(seed)
        train_csv, predict_csv = workdir / "train.csv", workdir / "predict.csv"
        dt.write_dataset(train_csv, texts.examples(s.train_texts, 0, *s.train_words))
        predict_ex = texts.examples(s.predict_texts, 1, *s.predict_words)
        dt.write_dataset(predict_csv, predict_ex)
        enc = md.EncoderConfig(vocab_size=s.vocab_max, d_model=s.d_model, d_ff=s.d_ff, max_seq_len=s.max_len)
        checkpoints = []
        for i, task in enumerate(dt.TASKS):
            path = workdir / f"stl-{task}.npz"
            md.save_checkpoint(md.init_model(enc, md.STL, task=task, seed=seed * 3 + i), path)
            checkpoints.append(path)
        return {"seed": seed, "train_csv": train_csv, "predict_csv": predict_csv, "checkpoints": checkpoints,
                "vocab_path": workdir / "vocab.txt", "preds_path": workdir / "preds.csv",
                "texts": [ex.text for ex in predict_ex]}

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"germeval-mtl {argv[0]} exited with {code}")

    def repeat(self, state: dict) -> dict:
        s = self.sizes
        self._cli(["build-vocab", "--data", str(state["train_csv"]), "--out", str(state["vocab_path"]),
                   "--max-size", str(s.vocab_max)])
        vocab_bytes = state["vocab_path"].read_bytes()
        argv = ["predict", "--vocab", str(state["vocab_path"]), "--data", str(state["predict_csv"]),
                "--out", str(state["preds_path"]), "--max-len", str(s.max_len)]
        for path in state["checkpoints"]:
            argv += ["--checkpoint", str(path)]
        self._cli(argv)
        return {"vocab": vocab_bytes, "preds": state["preds_path"].read_bytes()}

    def outputs_digest(self, state: dict, out: dict) -> str:
        return digest(out["vocab"], out["preds"])

    def predicted_examples(self, summary) -> int:
        return summary.calls["cli.cmd_predict"] * self.sizes.predict_texts

    def logit_margins(self, state: dict) -> np.ndarray:
        """Logit(1) - logit(0) of every checkpoint on the first eight predicted texts.

        The heads are random, so the labels of long texts barely vary; these
        margins pin the numerics of the forward pass that the labels cannot.
        """
        vocab = tok.Vocab.load(state["vocab_path"])
        encoded = [tok.encode(vocab, text, self.sizes.max_len) for text in state["texts"][:8]]
        ids, mask = md.stack_batch(encoded)
        margins = []
        with ad.no_grad():
            for path in state["checkpoints"]:
                params, _ = md.load_checkpoint(path)
                h_cls = md.encoder_forward(params, ids, mask)[:, 0, :]
                logits = md.head_logits(params.head(params.task), h_cls).data
                margins.append(logits[:, 1] - logits[:, 0])
        return np.concatenate(margins)

    def checks(self, state: dict, out: dict, rerun) -> list[Check]:
        """``rerun(seed)`` sets up and runs one untimed repetition at another seed, returning (state, out)."""
        ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[self.preset]
        ref_state, ref_out = (state, out) if state["seed"] == REFERENCE_SEED else rerun(REFERENCE_SEED)
        vocab_sha = hashlib.sha256(ref_out["vocab"]).hexdigest()
        preds_sha = hashlib.sha256(ref_out["preds"]).hexdigest()
        margins = self.logit_margins(ref_state)
        sums = {"logit_margin_abs_sum": float(np.abs(margins).sum()),
                "logit_margin_sq_sum": float((margins**2).sum())}
        n_tokens = len(out["vocab"].decode("utf-8").splitlines())
        return [
            Check("vocab-predict.vocab_size", n_tokens == self.sizes.vocab_max,
                  f"{n_tokens} tokens, checkpoints expect {self.sizes.vocab_max}"),
            Check("vocab-predict.vocab_reference", vocab_sha == ref["vocab_sha256"],
                  f"seed {REFERENCE_SEED} vocab sha256 {vocab_sha[:16]}..., "
                  f"reference {ref['vocab_sha256'][:16]}..."),
            Check("vocab-predict.labels_reference", preds_sha == ref["preds_sha256"],
                  f"seed {REFERENCE_SEED} predictions sha256 {preds_sha[:16]}..., "
                  f"reference {ref['preds_sha256'][:16]}..."),
        ] + [
            Check(f"vocab-predict.{key}", math.isclose(value, ref[key], rel_tol=1e-10),
                  f"seed {REFERENCE_SEED}: {value!r}, reference {ref[key]!r} (relative tolerance 1e-10)")
            for key, value in sums.items()
        ]

    def texts(self, state: dict) -> tuple[tok.Vocab, list[str], int]:
        return tok.Vocab.load(state["vocab_path"]), state["texts"], self.sizes.max_len


WORKLOADS = {w.name: w for w in (GridDesk, LMDefault, VocabPredict)}
