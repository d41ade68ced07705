"""Gradient-check trial builders shared by the unit and acceptance suites.

Each entry maps an op name to a builder that, given a seeded Generator,
returns ``(f, inputs)`` suitable for ``autodiff.grad_check``. Shapes stay
small (at most 8 per dimension) so central differences stay cheap.
"""

from __future__ import annotations

import zlib

import numpy as np

from germeval_mtl import autodiff as ad


def _rand(rng, *shape):
    return ad.parameter(rng.standard_normal(shape))


def _build_add(rng):
    a = _rand(rng, 4, 5)
    b = _rand(rng, 5)  # broadcasts over rows
    return ad.add, [a, b]


def _build_mul(rng):
    a = _rand(rng, 3, 4)
    b = _rand(rng, 3, 4)
    return ad.mul, [a, b]


def _build_matmul(rng):
    a = _rand(rng, 3, 4)
    b = _rand(rng, 4, 2)
    return ad.matmul, [a, b]


def _build_matmul_batched(rng):
    a = _rand(rng, 2, 3, 3, 4)
    b = _rand(rng, 2, 3, 4, 2)
    return ad.matmul, [a, b]


def _build_matmul_folded(rng):
    a = _rand(rng, 2, 3, 4)  # leading axes fold into the rows of one 2-D gemm
    b = _rand(rng, 4, 2)
    return ad.matmul, [a, b]


def _build_matmul_folded_one_row(rng):
    a = _rand(rng, 3, 1, 4)  # one row per batch item, as the CLS-only last layer projects
    b = _rand(rng, 4, 2)
    return ad.matmul, [a, b]


def _build_transpose(rng):
    return lambda x: ad.transpose(x, (1, 2, 0)), [_rand(rng, 2, 3, 4)]


def _build_reshape(rng):
    return lambda x: ad.reshape(x, (6, 2)), [_rand(rng, 3, 4)]


def _build_narrow(rng):
    return lambda x: x[:, 1, 1:3], [_rand(rng, 3, 4, 5)]


def _build_sum(rng):
    return lambda x: ad.tsum(x), [_rand(rng, 3, 4, 2)]


def _build_softmax(rng):
    return ad.softmax_rows, [_rand(rng, 4, 6)]


def _build_layer_norm(rng):
    x = _rand(rng, 3, 8)
    gamma = ad.parameter(1.0 + 0.1 * rng.standard_normal(8))
    beta = ad.parameter(0.1 * rng.standard_normal(8))
    return lambda x, g, b: ad.layer_norm(x, g, b), [x, gamma, beta]


def _build_gelu(rng):
    return ad.gelu, [_rand(rng, 4, 4)]


def _build_embedding(rng):
    table = _rand(rng, 5, 3)
    ids = rng.integers(0, 5, size=7)  # repeats exercise scatter-add
    return lambda t: ad.embedding_lookup(t, ids), [table]


def _build_dropout(rng):
    seed = int(rng.integers(0, 2**31))
    # Recreate the generator inside f so finite differences see the same mask.
    return lambda x: ad.dropout(x, 0.3, np.random.default_rng(seed)), [_rand(rng, 4, 5)]


def _build_cross_entropy(rng):
    logits = _rand(rng, 6, 4)
    targets = rng.integers(0, 4, size=6)
    return lambda z: ad.cross_entropy(z, targets), [logits]


def _build_narrow_rows(rng):
    rows = np.sort(rng.choice(6, size=3, replace=False))  # strictly increasing, as mlm_loss selects them
    return lambda x: x[rows], [_rand(rng, 6, 4)]


OP_TRIALS = {
    "add": _build_add,
    "mul": _build_mul,
    "matmul": _build_matmul,
    "matmul_batched": _build_matmul_batched,
    "matmul_folded": _build_matmul_folded,
    "matmul_folded_one_row": _build_matmul_folded_one_row,
    "transpose": _build_transpose,
    "reshape": _build_reshape,
    "narrow": _build_narrow,
    "narrow_rows": _build_narrow_rows,
    "sum": _build_sum,
    "softmax_rows": _build_softmax,
    "layer_norm": _build_layer_norm,
    "gelu": _build_gelu,
    "embedding_lookup": _build_embedding,
    "dropout": _build_dropout,
    "cross_entropy": _build_cross_entropy,
}


def run_trials(name: str, n_trials: int = 20, tolerance: float = 1e-4) -> ad.GradCheckReport:
    """Run seeded random trials for one op; return the worst report."""
    build = OP_TRIALS[name]
    worst = None
    for trial in range(n_trials):
        rng = np.random.default_rng((zlib.crc32(name.encode()), trial))
        f, inputs = build(rng)
        report = ad.grad_check(name, f, inputs, tolerance=tolerance, rng=rng)
        if worst is None or report.max_rel_error > worst.max_rel_error:
            worst = report
    return worst
