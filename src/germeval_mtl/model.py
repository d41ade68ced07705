"""Transformer encoder with single-task or shared multitask heads.

The two architectures differ only above the encoder: single-task models
pair one encoder with one binary head (three independent models cover the
three tasks), while the multitask model runs one shared encoder whose
final CLS representation feeds three task-specific heads. An optional
masked-LM output head is weight-tied to the token embeddings.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from germeval_mtl import autodiff as ad
from germeval_mtl.data import TASKS
from germeval_mtl.tokenizer import EncodedInput

CHECKPOINT_FORMAT_VERSION = 1
ATTENTION_MASK_BIAS = -1e9  # additive score for padded key positions

STL, MTL = "stl", "mtl"


class EnvironmentMismatch(ValueError):
    """A forward pass got parameters declared for the other environment."""


@dataclass
class EncoderConfig:
    vocab_size: int = 8000
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 512
    max_seq_len: int = 120
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "d_ff"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be non-negative, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_seq_len < 3:
            raise ValueError("max_seq_len must be at least 3")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class ClassificationHead:
    W: ad.Tensor  # (d_model, 2)
    b: ad.Tensor  # (2,)


class ModelParams:
    """All learnable tensors plus the environment they were built for."""

    def __init__(self, config: EncoderConfig, environment: str, task: str | None,
                 tensors: dict, has_mlm_head: bool):
        if environment not in (STL, MTL):
            raise ValueError(f"unknown environment {environment!r}")
        if environment == STL and task not in TASKS:
            raise ValueError(f"an {STL} model needs one of the tasks {TASKS}, got {task!r}")
        self.config = config
        self.environment = environment
        self.task = task if environment == STL else None
        self.tensors = tensors
        self.has_mlm_head = has_mlm_head

    @property
    def head_tasks(self) -> tuple:
        return (self.task,) if self.environment == STL else TASKS

    def head(self, task: str) -> ClassificationHead:
        if f"head.{task}.W" not in self.tensors:
            raise EnvironmentMismatch(
                f"model ({self.environment}{'/' + self.task if self.task else ''}) has no head for task {task!r}"
            )
        return ClassificationHead(self.tensors[f"head.{task}.W"], self.tensors[f"head.{task}.b"])

    def encoder_tensor_names(self) -> list:
        return [n for n in self.tensors if not n.startswith(("head.", "mlm."))]

    def parameter_counts(self) -> dict:
        groups = {"encoder": 0, "heads": 0, "mlm": 0}
        for name, t in self.tensors.items():
            if name.startswith("head."):
                groups["heads"] += t.data.size
            elif name.startswith("mlm."):
                groups["mlm"] += t.data.size
            else:
                groups["encoder"] += t.data.size
        groups["total"] = sum(groups.values())
        return groups

    def clone_arrays(self) -> dict:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_arrays(self, arrays: dict) -> None:
        for name, arr in arrays.items():
            if name not in self.tensors:
                raise ValueError(f"unknown parameter {name!r}")
            if self.tensors[name].data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            self.tensors[name].data = arr.copy()


def _truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2 * std
    return out


def init_model(config: EncoderConfig, environment: str, task: str | None = None,
               with_mlm_head: bool = False, seed: int = 0) -> ModelParams:
    """Fresh parameters, truncated-normal weights (std 0.02), seeded."""
    rng = np.random.default_rng((seed, 0))
    d, v = config.d_model, config.vocab_size
    tensors: dict = {}

    def weight(name, *shape):
        tensors[name] = ad.parameter(_truncated_normal(rng, shape))

    def zeros(name, *shape):
        tensors[name] = ad.parameter(np.zeros(shape))

    def ones(name, *shape):
        tensors[name] = ad.parameter(np.ones(shape))

    weight("tok_emb", v, d)
    weight("pos_emb", config.max_seq_len, d)
    ones("emb_ln.g", d)
    zeros("emb_ln.b", d)
    for layer in range(config.n_layers):
        p = f"layer{layer}."
        for proj in ("q", "k", "v", "o"):
            weight(p + f"attn.W{proj}", d, d)
            zeros(p + f"attn.b{proj}", d)
        ones(p + "ln1.g", d)
        zeros(p + "ln1.b", d)
        weight(p + "ffn.W1", d, config.d_ff)
        zeros(p + "ffn.b1", config.d_ff)
        weight(p + "ffn.W2", config.d_ff, d)
        zeros(p + "ffn.b2", d)
        ones(p + "ln2.g", d)
        zeros(p + "ln2.b", d)

    params = ModelParams(config, environment, task, tensors, with_mlm_head)
    if with_mlm_head:
        zeros("mlm.bias", v)  # output weights are tied to tok_emb
    reinit_heads(params, seed)
    return params


def reinit_heads(params: ModelParams, seed: int) -> None:
    """(Re)draw classification heads, leaving the encoder untouched."""
    rng = np.random.default_rng((seed, 1))
    d = params.config.d_model
    for task in params.head_tasks:
        params.tensors[f"head.{task}.W"] = ad.parameter(_truncated_normal(rng, (d, 2)))
        params.tensors[f"head.{task}.b"] = ad.parameter(np.zeros(2))


def stack_batch(batch: list[EncodedInput]) -> tuple[np.ndarray, np.ndarray]:
    """Stack EncodedInputs into (ids, attention_mask) matrices."""
    if not batch:
        raise ValueError("empty batch")
    lengths = {len(e.ids) for e in batch}
    if len(lengths) != 1:
        raise ValueError(f"batch sequences must share one length, got {sorted(lengths)}")
    ids = np.asarray([e.ids for e in batch], dtype=np.int64)
    mask = np.asarray([e.attention_mask for e in batch], dtype=np.float64)
    return ids, mask


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def encoder_forward(params: ModelParams, ids: np.ndarray, attention_mask: np.ndarray,
                    train_mode: bool = False, rng=None) -> ad.Tensor:
    """Run the encoder stack; returns hidden states of shape (B, L, d).

    Self-attention is padding-masked: keys at PAD positions receive a large
    negative score before the softmax. Dropout fires only in ``train_mode``
    and draws from ``rng`` (an int seed or a Generator), so evaluation is
    deterministic and training reproducible.
    """
    cfg = params.config
    ids = np.asarray(ids, dtype=np.int64)
    attention_mask = np.asarray(attention_mask, dtype=np.float64)
    if ids.ndim != 2 or ids.shape[0] == 0:
        raise ValueError(f"ids must be a nonempty (batch, seq) matrix, got {ids.shape}")
    batch, seq = ids.shape
    if seq > cfg.max_seq_len:
        raise ValueError(f"sequence length {seq} exceeds max_seq_len {cfg.max_seq_len}")
    if attention_mask.shape != ids.shape:
        raise ValueError("attention_mask shape must match ids")

    use_dropout = train_mode and cfg.dropout > 0.0
    if use_dropout:
        if rng is None:
            raise ValueError("train_mode forward needs an rng seed for dropout")
        rng = _as_generator(rng)

    def drop(x: ad.Tensor) -> ad.Tensor:
        return ad.dropout(x, cfg.dropout, rng) if use_dropout else x

    t = params.tensors
    head_dim = cfg.d_model // cfg.n_heads
    scale = 1.0 / math.sqrt(head_dim)
    # (B, 1, 1, L) additive bias: 0 on real tokens, very negative on PAD keys
    key_bias = ad.Tensor(((1.0 - attention_mask) * ATTENTION_MASK_BIAS)[:, None, None, :])

    x = ad.reshape(ad.embedding_lookup(t["tok_emb"], ids.ravel()), (batch, seq, cfg.d_model))
    x = ad.add(x, t["pos_emb"][:seq])
    x = ad.layer_norm(x, t["emb_ln.g"], t["emb_ln.b"])
    x = drop(x)

    def split_heads(y: ad.Tensor) -> ad.Tensor:
        y = ad.reshape(y, (batch, seq, cfg.n_heads, head_dim))
        return ad.transpose(y, (0, 2, 1, 3))

    for layer in range(cfg.n_layers):
        p = f"layer{layer}."
        q = split_heads(ad.add(ad.matmul(x, t[p + "attn.Wq"]), t[p + "attn.bq"]))
        k = split_heads(ad.add(ad.matmul(x, t[p + "attn.Wk"]), t[p + "attn.bk"]))
        v = split_heads(ad.add(ad.matmul(x, t[p + "attn.Wv"]), t[p + "attn.bv"]))
        scores = ad.add(ad.mul(ad.matmul(q, ad.transpose(k)), ad.Tensor(scale)), key_bias)
        attn = drop(ad.softmax_rows(scores))
        ctx = ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3))
        ctx = ad.reshape(ctx, (batch, seq, cfg.d_model))
        out = drop(ad.add(ad.matmul(ctx, t[p + "attn.Wo"]), t[p + "attn.bo"]))
        x = ad.layer_norm(ad.add(x, out), t[p + "ln1.g"], t[p + "ln1.b"])
        h = ad.gelu(ad.add(ad.matmul(x, t[p + "ffn.W1"]), t[p + "ffn.b1"]))
        h = drop(ad.add(ad.matmul(h, t[p + "ffn.W2"]), t[p + "ffn.b2"]))
        x = ad.layer_norm(ad.add(x, h), t[p + "ln2.g"], t[p + "ln2.b"])
    return x


def head_logits(head: ClassificationHead, h_cls: ad.Tensor) -> ad.Tensor:
    return ad.add(ad.matmul(h_cls, head.W), head.b)


def classify(head: ClassificationHead, h_cls: ad.Tensor) -> ad.Tensor:
    """Per-row class distribution: softmax of the affine-transformed CLS state."""
    return ad.softmax_rows(head_logits(head, h_cls))


def _cls_state(params, ids, attention_mask, train_mode, rng) -> ad.Tensor:
    hidden = encoder_forward(params, ids, attention_mask, train_mode, rng)
    return hidden[:, 0, :]


def stl_forward(params: ModelParams, ids, attention_mask, train_mode: bool = False, rng=None) -> ad.Tensor:
    """Single-task head logits, shape (B, 2)."""
    if params.environment != STL:
        raise EnvironmentMismatch("stl_forward needs single-task parameters")
    h_cls = _cls_state(params, ids, attention_mask, train_mode, rng)
    return head_logits(params.head(params.task), h_cls)


def mtl_forward(params: ModelParams, ids, attention_mask, train_mode: bool = False, rng=None) -> dict:
    """One shared encoder pass; per-task logits from three heads."""
    if params.environment != MTL:
        raise EnvironmentMismatch("mtl_forward needs multitask parameters")
    h_cls = _cls_state(params, ids, attention_mask, train_mode, rng)
    return {task: head_logits(params.head(task), h_cls) for task in TASKS}


def mlm_forward(params: ModelParams, ids, attention_mask, train_mode: bool = False, rng=None) -> ad.Tensor:
    """Per-position vocabulary logits (B, L, V) from the tied output head."""
    if not params.has_mlm_head:
        raise ValueError("model was built without an MLM head")
    hidden = encoder_forward(params, ids, attention_mask, train_mode, rng)
    logits = ad.matmul(hidden, ad.transpose(params.tensors["tok_emb"]))
    return ad.add(logits, params.tensors["mlm.bias"])


def predict_labels(probs: ad.Tensor) -> np.ndarray:
    """0/1 labels from (B, 2) class probabilities."""
    return np.argmax(probs.data, axis=-1).astype(np.int64)


# -- checkpoints ----------------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str | Path, extra_meta: dict | None = None) -> None:
    """Self-describing container: parameter arrays + config + environment."""
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(params.config),
        "environment": params.environment,
        "task": params.task,
        "has_mlm_head": params.has_mlm_head,
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = {f"param/{name}": t.data for name, t in params.tensors.items()}
    buffer = io.BytesIO()
    np.savez(buffer, __meta__=np.asarray(json.dumps(meta, sort_keys=True)), **arrays)
    Path(path).write_bytes(buffer.getvalue())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    with np.load(Path(path), allow_pickle=False) as bundle:
        meta = json.loads(str(bundle["__meta__"]))
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {meta.get('format_version')!r}")
        arrays = {key[len("param/"):]: bundle[key] for key in bundle.files if key.startswith("param/")}
    config = EncoderConfig(**meta["config"])
    params = init_model(config, meta["environment"], meta["task"], meta["has_mlm_head"], seed=0)
    missing = set(params.tensors) - set(arrays)
    if missing:
        raise ValueError(f"checkpoint is missing parameters: {sorted(missing)}")
    params.load_arrays(arrays)
    return params, meta
