"""Training loops: Adam with linear warmup/decay, gradient accumulation,
early stopping on validation loss, the optional masked-LM stage, seeded
multi-seed experiments, and the majority-vote seed ensemble."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from germeval_mtl import autodiff as ad
from germeval_mtl import data as dt
from germeval_mtl import metrics as mx
from germeval_mtl import model as md
from germeval_mtl import objectives as obj
from germeval_mtl import tokenizer as tok

logger = logging.getLogger(__name__)


class NumericError(RuntimeError):
    """A loss or gradient went non-finite; training cannot continue."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    num_epochs: int = 3
    adam_epsilon: float = 1e-8
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    warmup_ratio: float = 0.1
    max_grad_norm: float = 1.0
    batch_size: int = 8
    eval_every_batches: int = 100
    early_stop_patience_evals: int = 10
    gradient_accumulation_steps: int = 1
    environment: str = md.MTL  # "stl" or "mtl"
    lm_stage: bool = False
    seeds: tuple = (1, 2, 3, 4, 5)
    split_seed: int = 20210  # one dataset split shared by every seed

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("learning_rate", "adam_epsilon", "max_grad_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError(f"warmup_ratio must be in [0, 1], got {self.warmup_ratio}")
        if self.batch_size < 1 or self.num_epochs < 1 or self.gradient_accumulation_steps < 1:
            raise ValueError("batch_size, num_epochs, gradient_accumulation_steps must be >= 1")
        if self.early_stop_patience_evals < 1 or self.eval_every_batches < 1:
            raise ValueError("patience and eval cadence must be >= 1")
        if self.environment not in (md.STL, md.MTL):
            raise ValueError(f"environment must be {md.STL!r} or {md.MTL!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.seeds = tuple(int(s) for s in self.seeds)
        repeated = next((s for i, s in enumerate(self.seeds) if s in self.seeds[:i]), None)
        if repeated is not None:  # a repeated seed would train twice and vote twice in the ensemble
            raise ValueError(f"seed {repeated} is listed more than once")
        if min(self.seeds) < 0 or self.split_seed < 0:  # NumPy seeds are non-negative
            raise ValueError("seeds and split_seed must be non-negative")

    @property
    def environment_label(self) -> str:
        base = "STL" if self.environment == md.STL else "MTL"
        return f"LM+{base}" if self.lm_stage else base


@dataclass
class RunRecord:
    seed: int
    eval_history: list = field(default_factory=list)  # (step, val_loss, {task: f1})
    stopped_early: bool = False
    best_checkpoint_step: int = -1


@dataclass
class AdamState:
    """Step count, the first/second moments of one parameter group's slice, and one
    scratch buffer of the same size; all three are allocated on the first step."""
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = None


def _non_finite_message(tensors: md.ParamGroup) -> str:
    """Why the group's squared grad norm is not finite: a non-finite element, or overflow."""
    bad = next((name for name, t in tensors.items() if not np.isfinite(t.grad).all()), None)
    if bad is not None:
        return f"non-finite gradient in parameter {bad!r}"
    largest = max(tensors.items(), key=lambda item: float(np.abs(item[1].grad).max(initial=0.0)))[0]
    return f"gradient norm overflowed; the largest |grad| is in parameter {largest!r}"


def clip_by_global_norm(tensors: md.ParamGroup, max_norm: float) -> float:
    """Scale the group's grads in place by max_norm/norm when their global norm exceeds
    it; returns that norm, one dot product over the group's grad slice.

    A finite sum of squares proves every element finite, so a non-finite norm (a
    non-finite element, or squares that overflow) raises NumericError instead of
    scaling every grad to zero or NaN.
    """
    norm = math.sqrt(float(tensors.grad @ tensors.grad))
    if not math.isfinite(norm):
        raise NumericError(_non_finite_message(tensors))
    if norm > max_norm:
        tensors.grad *= max_norm / norm
    return norm


def adam_step(tensors: md.ParamGroup, state: AdamState, lr_t: float, cfg: TrainConfig) -> None:
    """Global-norm clip, bias-corrected Adam update, grad reset: in place on the group's slices.

    Each ufunc writes into ``m``, ``v``, the scratch buffer or, once both moments
    are updated, the grad slice, which the step zeroes anyway. They run in the
    left-to-right order of ``m / (1 - b1**k) / (sqrt(v / (1 - b2**k)) + eps)``, so a
    step makes no arena-sized temporary and rounds exactly as that expression does.
    """
    g = tensors.grad
    clip_by_global_norm(tensors, cfg.max_grad_norm)

    state.step += 1
    if state.m is None:
        state.m, state.v, state.scratch = np.zeros_like(g), np.zeros_like(g), np.empty_like(g)
    b1, b2, m, v, t = cfg.adam_beta1, cfg.adam_beta2, state.m, state.v, state.scratch
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=t)
    v *= b2
    np.multiply(g, 1.0 - b2, out=t)
    t *= g
    v += t
    np.divide(m, 1.0 - b1**state.step, out=g)
    np.divide(v, 1.0 - b2**state.step, out=t)
    np.sqrt(t, out=t)
    t += cfg.adam_epsilon
    g /= t
    g *= lr_t
    tensors.data -= g
    g.fill(0.0)


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup to the peak rate, then linear decay to zero; without warmup, step 0 is the peak."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = math.ceil(cfg.warmup_ratio * total_steps)
    if warmup > 0 and step <= warmup:
        return cfg.learning_rate * step / warmup
    return cfg.learning_rate * (total_steps - step) / max(total_steps - warmup, 1)


def _steps_per_epoch(n: int, cfg: TrainConfig) -> int:
    micro = math.ceil(n / cfg.batch_size)
    return math.ceil(micro / cfg.gradient_accumulation_steps)


def _head_logits(params: md.ModelParams, ids: np.ndarray, mask: np.ndarray,
                 train_mode: bool = False, rng=None) -> dict:
    if params.environment == md.STL:
        return {params.task: md.stl_forward(params, ids, mask, train_mode, rng)}
    return md.mtl_forward(params, ids, mask, train_mode, rng)


def _objective(logits: dict, labels: dict, rows) -> ad.Tensor:
    """The equal-weight mean of the head losses: a one-head model's own loss."""
    return obj.loss_bundle(logits, {t: labels[t][rows] for t in logits}).mean


def _no_grad_pass(params: md.ModelParams, ds: dt.EncodedDataset, batch_size: int) -> tuple[list, dict]:
    """One forward pass over ``ds`` in order, under no_grad.

    Returns the (rows, {task: logits}) of every batch and the hard labels
    per head task: argmax of the softmax, the only place probabilities
    are formed.
    """
    batches = []
    preds: dict = {t: [] for t in params.head_tasks}
    with ad.no_grad():
        for start in range(0, len(ds), batch_size):
            rows = slice(start, min(start + batch_size, len(ds)))
            logits = _head_logits(params, ds.ids[rows], ds.attention_mask[rows])
            for t, z in logits.items():
                preds[t].append(md.predict_labels(ad.softmax_rows(z)))
            batches.append((rows, logits))
    return batches, {t: np.concatenate(chunks) for t, chunks in preds.items()}


def predict_dataset(params: md.ModelParams, ds: dt.EncodedDataset, batch_size: int = 32) -> dict:
    """Hard 0/1 labels for every covered task, deterministically."""
    return _no_grad_pass(params, ds, batch_size)[1]


def evaluate_model(params: md.ModelParams, ds: dt.EncodedDataset, batch_size: int = 32) -> tuple[float, dict]:
    """(validation loss, per-task macro F1) in eval mode, from one forward pass.

    The loss is the quantity training minimizes, averaged over examples.
    """
    batches, preds = _no_grad_pass(params, ds, batch_size)
    total = sum(float(_objective(logits, ds.labels, rows).data) * (rows.stop - rows.start)
                for rows, logits in batches)
    f1s = {t: mx.score(preds[t], ds.labels[t], "macro").f1 for t in params.head_tasks}
    return total / len(ds), f1s


def _optimize(tensors: md.ParamGroup, n: int, cfg: TrainConfig, shuffle_rng: np.random.Generator,
              batch_loss, after_step=lambda opt_step: False) -> int:
    """Shuffled micro-batches in windows of ``gradient_accumulation_steps``, one Adam step per window.

    ``batch_loss(epoch, idx)`` gives the loss of one micro-batch, and
    ``after_step(opt_step)`` runs after every full-window step; it returns
    True to stop training at once. An epoch's last window may be short;
    its step skips ``after_step``. Returns the number of optimizer steps taken.
    """
    state = AdamState()
    total_steps = cfg.num_epochs * _steps_per_epoch(n, cfg)
    size, accum = cfg.batch_size, cfg.gradient_accumulation_steps
    opt_step = 0
    for epoch in range(cfg.num_epochs):
        perm = shuffle_rng.permutation(n)
        micro = [perm[start:start + size] for start in range(0, n, size)]
        for first in range(0, len(micro), accum):
            window = micro[first:first + accum]
            for idx in window:
                loss = batch_loss(epoch, idx)
                if not np.isfinite(loss.data):
                    raise NumericError(f"non-finite training loss at step {opt_step}")
                if loss.requires_grad:  # a masked-LM batch with nothing masked has no graph
                    (loss / accum if accum > 1 else loss).backward()
            adam_step(tensors, state, lr_at(opt_step, total_steps, cfg), cfg)
            opt_step += 1
            if len(window) == accum and after_step(opt_step):
                return opt_step
    return opt_step


def train_one(params: md.ModelParams, train_ds: dt.EncodedDataset, val_ds: dt.EncodedDataset,
              cfg: TrainConfig, seed: int, val_metrics_fn=None) -> tuple[md.ModelParams, RunRecord]:
    """Train until the epoch budget or early stopping, keep the best checkpoint.

    Validation runs after each optimizer step whose number is a multiple of
    ``eval_every_batches`` and that closed a full accumulation window
    (periodic evaluations follow full-window steps only), and once more at
    the end unless the last step was just evaluated. Training halts after
    ``early_stop_patience_evals`` evaluations without a strictly better
    validation loss. ``record.stopped_early`` says whether that cut the
    epoch budget short; patience exhausted at the last step is not an early
    stop. ``val_metrics_fn`` may replace the real validation pass (test hook).
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ValueError("train and validation sets must be nonempty")
    overlap = set(train_ds.example_ids) & set(val_ds.example_ids)
    if overlap:
        raise ValueError(f"train/validation sets overlap on {len(overlap)} example ids")
    evaluate = val_metrics_fn or (lambda p, step: evaluate_model(p, val_ds, cfg.batch_size))

    record = RunRecord(seed=seed)
    shuffle_rng = np.random.default_rng((seed, 10))
    dropout_rng = np.random.default_rng((seed, 11))
    best_loss, best_data, bad_evals = math.inf, None, 0

    def run_eval(opt_step: int) -> bool:  # True once patience is exhausted
        nonlocal best_loss, best_data, bad_evals
        val_loss, f1s = evaluate(params, opt_step)
        if not math.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at step {opt_step}")
        record.eval_history.append((opt_step, val_loss, f1s))
        if val_loss < best_loss:
            best_loss = val_loss
            best_data = params.tensors.data.copy()
            record.best_checkpoint_step = opt_step
            bad_evals = 0
        else:
            bad_evals += 1
        return bad_evals >= cfg.early_stop_patience_evals

    def batch_loss(epoch: int, idx: np.ndarray) -> ad.Tensor:
        logits = _head_logits(params, train_ds.ids[idx], train_ds.attention_mask[idx], True, dropout_rng)
        return _objective(logits, train_ds.labels, idx)

    def after_step(opt_step: int) -> bool:
        return opt_step % cfg.eval_every_batches == 0 and run_eval(opt_step)

    opt_step = _optimize(params.group("heads", "encoder"), len(train_ds), cfg, shuffle_rng, batch_loss, after_step)
    if not record.eval_history or record.eval_history[-1][0] != opt_step:
        run_eval(opt_step)
    record.stopped_early = opt_step < cfg.num_epochs * _steps_per_epoch(len(train_ds), cfg)

    params.tensors.data[:] = best_data  # the first evaluation always improves on inf
    return params, record


def _masked_batch(vocab: tok.Vocab, encoded: list, rows, rng_prefix: tuple) -> tuple:
    """(ids, attention mask, MLM labels) of ``encoded[rows]``, row ``j`` masked with seed ``(*rng_prefix, j)``."""
    masked, labels = zip(*(tok.mask_for_mlm(vocab, encoded[j], rng_seed=(*rng_prefix, int(j))) for j in rows))
    return *md.stack_batch(list(masked)), np.asarray(labels)


def lm_finetune(params: md.ModelParams, corpus: list, vocab: tok.Vocab, cfg: TrainConfig,
                seed: int, max_len: int) -> md.ModelParams:
    """Masked-LM training of the encoder; classification heads stay untouched.

    Reuses the classification hyperparameters (epochs, learning rate,
    schedule). Heads are not part of the masked-LM graph and are excluded
    from the optimizer, so their bits are identical before and after.
    """
    if not params.has_mlm_head:
        raise ValueError("lm_finetune needs a model with an MLM head")
    if not corpus:
        raise ValueError("empty corpus for the LM stage")
    encoded = [tok.encode(vocab, text, max_len) for text in corpus]
    dropout_rng = np.random.default_rng((seed, 21))

    def batch_loss(epoch: int, idx: np.ndarray) -> ad.Tensor:
        ids, attn, labels = _masked_batch(vocab, encoded, idx, (seed, 22, epoch))
        return obj.mlm_loss(md.mlm_forward(params, ids, attn, train_mode=True, rng=dropout_rng), labels)

    _optimize(params.group("encoder", "mlm"), len(encoded), cfg, np.random.default_rng((seed, 20)), batch_loss)
    return params


def mlm_top1_accuracy(params: md.ModelParams, corpus: list, vocab: tok.Vocab, max_len: int,
                      seed: int = 0) -> float:
    """Fraction of masked positions whose top-1 prediction is the original id."""
    encoded = [tok.encode(vocab, text, max_len) for text in corpus]
    hits = total = 0
    with ad.no_grad():
        for start in range(0, len(encoded), 8):  # (B, w, V) logits no larger than a default-size LM step's
            ids, attn, labels = _masked_batch(vocab, encoded, range(len(encoded))[start:start + 8], (seed, 23))
            picks = md.mlm_forward(params, ids, attn).data.argmax(axis=-1)
            labels = labels[:, :picks.shape[-1]]  # trimmed columns are padding: nothing there is masked
            chosen = labels != tok.IGNORE_INDEX
            hits += int((picks[chosen] == labels[chosen]).sum())
            total += int(chosen.sum())
    return hits / total if total else 0.0


def ensemble_predict(per_seed_labels) -> np.ndarray:
    """Per-example majority vote over seeds; even-count ties go to 0."""
    votes = np.asarray(per_seed_labels, dtype=np.int64)
    if votes.ndim != 2 or votes.shape[0] < 1:
        raise ValueError(f"expected a (seeds, examples) matrix, got shape {votes.shape}")
    if not np.isin(votes, (0, 1)).all():
        raise ValueError("votes must be 0/1")
    n_seeds = votes.shape[0]
    return (2 * votes.sum(axis=0) > n_seeds).astype(np.int64)


@dataclass
class ExperimentResult:
    environment: str
    seeds: tuple
    records: dict  # seed -> {model_key: RunRecord}; model_key is task name or "mtl"
    per_seed_preds: dict  # task -> (n_seeds, n_val) array
    ensemble_preds: dict  # task -> (n_val,) array
    val_ids: list
    val_gold: dict  # task -> (n_val,) array
    models: dict  # seed -> {model_key: ModelParams}

    def metrics(self, averaging: str = "macro") -> dict:
        return {
            t: mx.score(self.ensemble_preds[t], self.val_gold[t], averaging)
            for t in dt.TASKS
        }


def run_experiment(cfg: TrainConfig, examples: list, vocab: tok.Vocab,
                   enc_cfg: md.EncoderConfig, max_len: int | None = None,
                   split_ratio: float = 0.8) -> ExperimentResult:
    """Run the configured environment end to end over every seed.

    Single-task mode trains three independent models per seed (one per
    task); multitask mode trains one. With ``lm_stage`` the encoder is
    first fine-tuned with masked language modeling on the training texts,
    then classification heads are freshly initialized and classification
    training starts from the adapted encoder.
    """
    max_len = max_len or enc_cfg.max_seq_len
    train_ex, val_ex = dt.split(examples, split_ratio, cfg.split_seed)
    train_ds = dt.encode_examples(vocab, train_ex, max_len)
    val_ds = dt.encode_examples(vocab, val_ex, max_len)
    train_texts = [ex.text for ex in train_ex]

    records: dict = {seed: {} for seed in cfg.seeds}
    models: dict = {seed: {} for seed in cfg.seeds}
    preds_by_task: dict = {t: [] for t in dt.TASKS}
    model_keys = ["mtl"] if cfg.environment == md.MTL else list(dt.TASKS)
    for seed in cfg.seeds:
        lm_encoder = None
        if cfg.lm_stage:
            carrier = md.init_model(enc_cfg, md.MTL, with_mlm_head=True, seed=seed)
            lm_finetune(carrier, train_texts, vocab, cfg, seed, max_len)
            lm_encoder = carrier.group("encoder").data

        for key in model_keys:
            params = md.init_model(enc_cfg, cfg.environment, task=None if key == "mtl" else key, seed=seed)
            if lm_encoder is not None:
                params.group("encoder").data[:] = lm_encoder
            params, records[seed][key] = train_one(params, train_ds, val_ds, cfg, seed)
            models[seed][key] = params
            for t, labels in predict_dataset(params, val_ds, cfg.batch_size).items():
                preds_by_task[t].append(labels)
        logger.info("seed %d done (%s)", seed, cfg.environment_label)

    per_seed = {t: np.stack(preds_by_task[t]) for t in dt.TASKS}
    return ExperimentResult(
        environment=cfg.environment_label,
        seeds=cfg.seeds,
        records=records,
        per_seed_preds=per_seed,
        ensemble_preds={t: ensemble_predict(per_seed[t]) for t in dt.TASKS},
        val_ids=list(val_ds.example_ids),
        val_gold={t: val_ds.labels[t] for t in dt.TASKS},
        models=models,
    )
