"""Transformer encoder with single-task or shared multitask heads.

The two architectures differ only above the encoder: single-task models
pair one encoder with one binary head (three independent models cover the
three tasks), while the multitask model runs one shared encoder whose
final CLS representation feeds three task-specific heads. An optional
masked-LM output head is weight-tied to the token embeddings.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from germeval_mtl import autodiff as ad
from germeval_mtl.data import TASKS
from germeval_mtl.tokenizer import EncodedInput

CHECKPOINT_FORMAT_VERSION = 2
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
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.dropout, bool) or not isinstance(self.dropout, (int, float)):
            raise ValueError(f"dropout must be a number, got {self.dropout!r}")
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


GROUPS = ("heads", "encoder", "mlm")  # arena memory order: each optimizer group is one slice


class ParamGroup(dict):
    """Name -> parameter Tensor, each ``.data``/``.grad`` a view of this group's ``data``/``grad`` slice."""

    def __init__(self, tensors: dict, data: np.ndarray, grad: np.ndarray):
        super().__init__(tensors)
        self.data, self.grad = data, grad


def _layout(config: EncoderConfig, head_tasks: tuple, has_mlm_head: bool) -> dict:
    """Arena group -> [(name, shape, init)]; init is "normal" (a truncated-normal draw) or a constant."""
    d, v, ff = config.d_model, config.vocab_size, config.d_ff
    encoder = [("tok_emb", (v, d), "normal"), ("pos_emb", (config.max_seq_len, d), "normal"),
               ("emb_ln.g", (d,), 1.0), ("emb_ln.b", (d,), 0.0)]
    for layer in range(config.n_layers):
        p = f"layer{layer}."
        for proj in "qkvo":
            encoder += [(p + f"attn.W{proj}", (d, d), "normal"), (p + f"attn.b{proj}", (d,), 0.0)]
        encoder += [(p + "ln1.g", (d,), 1.0), (p + "ln1.b", (d,), 0.0),
                    (p + "ffn.W1", (d, ff), "normal"), (p + "ffn.b1", (ff,), 0.0),
                    (p + "ffn.W2", (ff, d), "normal"), (p + "ffn.b2", (d,), 0.0),
                    (p + "ln2.g", (d,), 1.0), (p + "ln2.b", (d,), 0.0)]
    heads = [entry for task in head_tasks
             for entry in ((f"head.{task}.W", (d, 2), "normal"), (f"head.{task}.b", (2,), 0.0))]
    mlm = [("mlm.bias", (v,), 0.0)] if has_mlm_head else []  # output weights are tied to tok_emb
    return {"heads": heads, "encoder": encoder, "mlm": mlm}


def layout_size(config: EncoderConfig, head_tasks: tuple, has_mlm_head: bool) -> int:
    """Elements of the layout, without walking its layers: every layer adds the same block."""
    def count(n_layers: int) -> int:
        groups = _layout(replace(config, n_layers=n_layers), head_tasks, has_mlm_head).values()
        return sum(math.prod(shape) for group in groups for _, shape, _ in group)

    elements = count(0)
    return elements + config.n_layers * (count(1) - elements)


def _layout_sha256(layout: dict) -> str:
    """SHA-256 of the arena's (name, shape) list in GROUPS order."""
    entries = [[name, list(shape)] for g in GROUPS for name, shape, _ in layout[g]]
    return hashlib.sha256(json.dumps(entries).encode("utf-8")).hexdigest()


class ModelParams:
    """All learnable tensors plus the environment they were built for.

    Each tensor is a view of one zeroed float64 data and grad arena laid out in
    GROUPS order, and ``tensors`` iterates in that order."""

    def __init__(self, config: EncoderConfig, environment: str, task: str | None, has_mlm_head: bool):
        if environment not in (STL, MTL):
            raise ValueError(f"unknown environment {environment!r}")
        if environment == STL and task not in TASKS:
            raise ValueError(f"an {STL} model needs one of the tasks {TASKS}, got {task!r}")
        self.config, self.environment, self.has_mlm_head = config, environment, has_mlm_head
        self.task = task if environment == STL else None
        self.layout = _layout(config, self.head_tasks, has_mlm_head)
        size = sum(math.prod(shape) for g in GROUPS for _, shape, _ in self.layout[g])
        data, grad = np.zeros(size), np.zeros(size)
        tensors, self.bounds, offset = {}, {}, 0
        for g in GROUPS:
            start = offset
            for name, shape, _ in self.layout[g]:
                stop = offset + math.prod(shape)
                tensors[name] = ad.parameter(data[offset:stop].reshape(shape))
                tensors[name].grad = grad[offset:stop].reshape(shape)
                offset = stop
            self.bounds[g] = slice(start, offset)
        self.tensors = ParamGroup(tensors, data, grad)

    @property
    def head_tasks(self) -> tuple:
        return (self.task,) if self.environment == STL else TASKS

    def head(self, task: str) -> ClassificationHead:
        if f"head.{task}.W" not in self.tensors:
            raise EnvironmentMismatch(
                f"model ({self.environment}{'/' + self.task if self.task else ''}) has no head for task {task!r}"
            )
        return ClassificationHead(self.tensors[f"head.{task}.W"], self.tensors[f"head.{task}.b"])

    def group(self, first: str, last: str | None = None) -> ParamGroup:
        """Arena groups ``first`` through ``last``: their tensors and their one data and grad slice."""
        groups = GROUPS[GROUPS.index(first):GROUPS.index(last or first) + 1]
        span = slice(self.bounds[first].start, self.bounds[last or first].stop)
        names = {name for g in groups for name, _, _ in self.layout[g]}
        return ParamGroup({n: t for n, t in self.tensors.items() if n in names},
                          self.tensors.data[span], self.tensors.grad[span])

    def encoder_tensor_names(self) -> list:
        return [name for name, _, _ in self.layout["encoder"]]

    def load_arrays(self, arrays: dict) -> None:
        """Copy each array into the tensor of that name, whose shape it must have (unchecked)."""
        for name, arr in arrays.items():
            self.tensors[name].data[...] = arr


def _truncated_normal(rng: np.random.Generator, out: np.ndarray, std: float = 0.02) -> None:
    """Fill the C-contiguous ``out`` with N(0, std^2) draws, redrawing every value beyond 2 std.

    Each round redraws, in C order, only the values the last round left
    outside the bounds.
    """
    rng.standard_normal(out=out)
    out *= std
    flat = out.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2 * std)
    while idx.size:
        flat[idx] = rng.standard_normal(idx.size) * std
        idx = idx[np.abs(flat[idx]) > 2 * std]


def _fill(params: ModelParams, group: str, rng: np.random.Generator) -> None:
    """Write each tensor of ``group`` its initial value in place, drawing in layout order."""
    for name, _, init in params.layout[group]:
        if init == "normal":
            _truncated_normal(rng, params.tensors[name].data)
        else:
            params.tensors[name].data[...] = init


def init_model(config: EncoderConfig, environment: str, task: str | None = None,
               with_mlm_head: bool = False, seed: int = 0) -> ModelParams:
    """Fresh parameters, truncated-normal weights (std 0.02), seeded."""
    params = ModelParams(config, environment, task, with_mlm_head)
    _fill(params, "encoder", np.random.default_rng((seed, 0)))
    reinit_heads(params, seed)
    return params


def reinit_heads(params: ModelParams, seed: int) -> None:
    """(Re)draw classification heads in place, leaving the encoder untouched."""
    _fill(params, "heads", np.random.default_rng((seed, 1)))


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


def encoder_forward(params: ModelParams, ids: np.ndarray, attention_mask: np.ndarray,
                    train_mode: bool = False, rng=None, cls_only: bool = False) -> ad.Tensor:
    """Run the encoder stack; returns hidden states of shape (B, w, d).

    Self-attention is padding-masked: keys at PAD positions receive a large
    negative score before the softmax. Dropout fires only in ``train_mode``
    and draws from ``rng`` (a ``np.random.Generator``), so evaluation is
    deterministic and training reproducible.

    The stack runs over the first ``w`` columns only: one past the last
    column any row attends to, rounded up to a multiple of 8 in
    ``train_mode`` and of 32 in eval mode, and capped at L (L itself when
    no column is attended). The trimmed columns are padding in every row,
    so no attended state depends on them. Every dropout mask is the
    leading block of the mask of the padded shape, (B, L, d) or
    (B, H, L, L), and ``rng`` advances exactly as for the full width,
    while ``ad.dropout`` draws only the kept block where it can (see
    there). The coarser eval step keeps the cost of evaluation and
    prediction from following where a dataset's few longest rows fall.

    With ``cls_only`` the result is the CLS state alone, shape (B, 1, d):
    the last layer attends from position 0 only (its keys and values still
    come from every position), and its dropout masks are cut from the full
    shape too.
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
        if not isinstance(rng, np.random.Generator):
            raise ValueError(f"train_mode forward needs rng to be a np.random.Generator, got {type(rng).__name__}")

    def drop(x: ad.Tensor, draw_shape: tuple) -> ad.Tensor:
        return ad.dropout(x, cfg.dropout, rng, draw_shape) if use_dropout else x

    t = params.tensors
    head_dim = cfg.d_model // cfg.n_heads
    scale = 1.0 / math.sqrt(head_dim)
    full = (batch, seq, cfg.d_model)  # dropout draw shape: the padded width
    attended = np.flatnonzero(attention_mask.any(axis=0))
    last = int(attended[-1]) + 1 if attended.size else seq
    # Multiples of 8 keep NumPy's pairwise row sums over the kept columns bit-equal to the padded ones
    step = 8 if train_mode else 32
    width = min(seq, -(-last // step) * step)
    ids, attention_mask = ids[:, :width], attention_mask[:, :width]
    # (B, 1, 1, w) additive bias: 0 on real tokens, very negative on PAD keys
    key_bias = ad.Tensor(((1.0 - attention_mask) * ATTENTION_MASK_BIAS)[:, None, None, :])

    x = ad.reshape(ad.embedding_lookup(t["tok_emb"], ids.ravel()), (batch, width, cfg.d_model))
    x = ad.add(x, t["pos_emb"][:width])
    x = ad.layer_norm(x, t["emb_ln.g"], t["emb_ln.b"])
    x = drop(x, full)

    def split_heads(y: ad.Tensor) -> ad.Tensor:
        y = ad.reshape(y, (batch, y.shape[1], cfg.n_heads, head_dim))
        return ad.transpose(y, (0, 2, 1, 3))

    for layer in range(cfg.n_layers):
        p = f"layer{layer}."
        rows = x[:, :1] if cls_only and layer == cfg.n_layers - 1 else x  # the positions this layer outputs
        q = split_heads(ad.add(ad.matmul(rows, t[p + "attn.Wq"]), t[p + "attn.bq"]))
        k = split_heads(ad.add(ad.matmul(x, t[p + "attn.Wk"]), t[p + "attn.bk"]))
        v = split_heads(ad.add(ad.matmul(x, t[p + "attn.Wv"]), t[p + "attn.bv"]))
        scores = ad.add(ad.mul(ad.matmul(q, ad.transpose(k)), ad.Tensor(scale)), key_bias)
        attn = drop(ad.softmax_rows(scores), (batch, cfg.n_heads, seq, seq))
        ctx = ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3))
        ctx = ad.reshape(ctx, rows.shape)
        out = drop(ad.add(ad.matmul(ctx, t[p + "attn.Wo"]), t[p + "attn.bo"]), full)
        x = ad.layer_norm(ad.add(rows, out), t[p + "ln1.g"], t[p + "ln1.b"])
        h = ad.gelu(ad.add(ad.matmul(x, t[p + "ffn.W1"]), t[p + "ffn.b1"]))
        h = drop(ad.add(ad.matmul(h, t[p + "ffn.W2"]), t[p + "ffn.b2"]), full)
        x = ad.layer_norm(ad.add(x, h), t[p + "ln2.g"], t[p + "ln2.b"])
    return x[:, :1] if cls_only and cfg.n_layers == 0 else x


def head_logits(head: ClassificationHead, h_cls: ad.Tensor) -> ad.Tensor:
    return ad.add(ad.matmul(h_cls, head.W), head.b)


def classify(head: ClassificationHead, h_cls: ad.Tensor) -> ad.Tensor:
    """Per-row class distribution: softmax of the affine-transformed CLS state."""
    return ad.softmax_rows(head_logits(head, h_cls))


def _cls_state(params, ids, attention_mask, train_mode, rng) -> ad.Tensor:
    hidden = encoder_forward(params, ids, attention_mask, train_mode, rng, cls_only=True)
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
    """Per-position vocabulary logits (B, w, V) from the tied output head, over the encoder's trimmed width w."""
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
    """Self-describing container: the parameter arena + config + environment + the arena's layout digest."""
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(params.config),
        "environment": params.environment,
        "task": params.task,
        "has_mlm_head": params.has_mlm_head,
        "layout_sha256": _layout_sha256(params.layout),
    }
    if extra_meta:
        meta.update(extra_meta)
    buffer = io.BytesIO()
    np.savez(buffer, __meta__=np.asarray(json.dumps(meta, sort_keys=True)), arena=params.tensors.data)
    Path(path).write_bytes(buffer.getvalue())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    bundle = np.load(Path(path), allow_pickle=False)
    if not isinstance(bundle, np.lib.npyio.NpzFile):
        raise ValueError(f"not an .npz archive: np.load returned a {type(bundle).__name__}")
    with bundle:
        meta = json.loads(str(bundle["__meta__"]))
        if not isinstance(meta, dict):
            raise ValueError(f"checkpoint metadata must be a JSON object, got {type(meta).__name__}")
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {meta.get('format_version')!r}:"
                             f" this version reads format {CHECKPOINT_FORMAT_VERSION}, one parameter arena")
        arena = bundle["arena"]
    config = meta["config"]
    if not isinstance(config, dict):
        raise ValueError(f"checkpoint config must be a JSON object, got {type(config).__name__}")
    expected = {f.name for f in fields(EncoderConfig)}
    if set(config) != expected:
        raise ValueError(f"checkpoint config keys: unknown {sorted(set(config) - expected)},"
                         f" missing {sorted(expected - set(config))}")
    config = EncoderConfig(**config)
    head_tasks = (meta["task"],) if meta["environment"] == STL else TASKS
    size = layout_size(config, head_tasks, meta["has_mlm_head"])
    if arena.shape != (size,):  # compared before the model exists: a config alone may imply any size
        raise ValueError(f"checkpoint stores {arena.size} parameters, its config implies {size}")
    params = ModelParams(config, meta["environment"], meta["task"], meta["has_mlm_head"])
    if meta.get("layout_sha256") != _layout_sha256(params.layout):
        raise ValueError("checkpoint parameters do not fit its config: their layout_sha256 differs")
    params.tensors.data[:] = arena
    if not np.isfinite(params.tensors.data).all():
        bad = next(name for name, t in params.tensors.items() if not np.isfinite(t.data).all())
        raise ValueError(f"checkpoint parameter {bad!r} holds non-finite values")
    return params, meta
