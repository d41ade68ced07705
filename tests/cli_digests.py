"""Print a digest of everything a fixed synthetic CLI pipeline writes.

Usage: PYTHONPATH=src python tests/cli_digests.py OUTDIR [REFERENCE]

Inside OUTDIR, which must be empty or absent, it writes a generated corpus
and a small config, then runs build-vocab, pretrain-lm, train --lm in both
environments, two train runs with short accumulation windows (one of them
stopping early), predict (one MTL and three STL checkpoints), evaluate and
report in process. It prints each command with its stdout and exit code,
then one ``sha256 path`` line for every file under OUTDIR. Paths are
relative to OUTDIR, so two source trees that print the same lines wrote the
same bytes: run it once per tree and diff the outputs.

With REFERENCE it also writes there the JSON digest that
``test_cli_digest.py`` compares against (see ``digest``).

The exit status is 1 if any command failed. pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from germeval_mtl import cli
from germeval_mtl import data as dt
from germeval_mtl import model as md

CONFIG = """\
learning_rate = 2e-3
num_epochs = 1
batch_size = 8
eval_every_batches = 4
seeds = 1,2
split_seed = 5
d_model = 32
n_layers = 1
n_heads = 2
d_ff = 64
max_seq_len = 24
dropout = 0.1
"""

TRAIN = ["--config", "config.txt", "--data", "data.csv", "--vocab", "vocab.txt"]
PREDICT = ["--vocab", "vocab.txt", "--data", "data.csv"]
COMMANDS = [
    ["build-vocab", "--data", "data.csv", "--out", "vocab.txt", "--max-size", "300"],
    ["pretrain-lm", *TRAIN, "--out", "lm.npz"],
    ["train", *TRAIN, "--env", "stl", "--lm", "--out", "stl-lm"],
    ["train", *TRAIN, "--env", "mtl", "--lm", "--out", "mtl-lm"],
    # 48 training rows make 6 micro-batches: each epoch has a window of 4 and a short window of 2
    ["train", *TRAIN, "--env", "mtl", "--lm", "--epochs", "3", "--set", "gradient_accumulation_steps=4",
     "--set", "eval_every_batches=1", "--out", "mtl-lm-accum"],
    ["train", *TRAIN, "--env", "stl", "--epochs", "4", "--set", "gradient_accumulation_steps=4",
     "--set", "eval_every_batches=1", "--set", "early_stop_patience_evals=1", "--out", "stl-accum-stop"],
    ["predict", "--checkpoint", "mtl-lm/ckpt-seed1.npz", *PREDICT, "--out", "predict-mtl.csv"],
    ["predict", *(arg for task in dt.TASKS for arg in ("--checkpoint", f"stl-lm/ckpt-seed2-{task}.npz")),
     *PREDICT, "--out", "predict-stl.csv"],
    ["evaluate", "--gold", "mtl-lm/val-gold.csv", "--pred", "mtl-lm/preds-seed1.csv",
     "--pred", "mtl-lm/preds-seed2.csv", "--pred", "stl-lm/preds-ensemble.csv", "--out", "evaluate.csv"],
    ["report", "--runs", "stl-lm", "mtl-lm", "--out", "report"],
]


def run_commands() -> list[tuple[list[str], str, int]]:
    """Write the corpus and config into the working directory and run ``COMMANDS`` there.

    Returns each command with its stdout and exit code.
    """
    dt.write_dataset("data.csv", dt.synth_generate(60, seed=31, spec=dt.SynthSpec(correlation=0.5)))
    Path("config.txt").write_text(CONFIG, encoding="utf-8")
    transcript = []
    for command in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(command)
        transcript.append((command, stdout.getvalue(), code))
    return transcript


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_invariants(x: np.ndarray) -> list[float]:
    """Sum, sum of squares and a seeded projection: stable across BLAS kernels to rounding."""
    x = x.ravel()
    return [float(x.sum()), float(x @ x), float(x @ np.random.default_rng(0).standard_normal(x.size))]


def digest(root: Path, transcript) -> dict:
    """Each command's exit code and stdout hash, and every file under ``root`` by its path.

    An ``.npz`` is read through ``load_checkpoint`` and maps to its
    ``__meta__`` and, under ``param/<name>``, each parameter's invariants, so
    the digest does not depend on how a checkpoint lays out its file. A
    ``.json`` file maps to its parsed value, any other file to its SHA-256.
    """
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.suffix == ".npz":
            params, meta = md.load_checkpoint(path)
            entry = {"__meta__": meta, **{f"param/{name}": _array_invariants(tensor.data)
                                          for name, tensor in params.tensors.items()}}
        elif path.suffix == ".json":
            entry = json.loads(path.read_text(encoding="utf-8"))
        else:
            entry = _sha256(path.read_bytes())
        files[path.relative_to(root).as_posix()] = entry
    commands = [{"argv": " ".join(command), "exit": code, "stdout_sha256": _sha256(stdout.encode("utf-8"))}
                for command, stdout, code in transcript]
    return {"commands": commands, "files": files}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    reference = Path(argv[1]).resolve() if len(argv) == 2 else None
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    transcript = run_commands()
    for command, stdout, code in transcript:
        print("$ germeval-mtl " + " ".join(command))
        print(stdout, end="")
        print(f"exit {code}")
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(_sha256(path.read_bytes()), path.as_posix())
    if reference is not None:
        reference.write_text(json.dumps(digest(Path("."), transcript), indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 1 if any(code != 0 for _, _, code in transcript) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
