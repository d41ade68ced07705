"""Print a digest of everything a fixed synthetic CLI pipeline writes.

Usage: PYTHONPATH=src python tests/cli_digests.py OUTDIR

Inside OUTDIR, which must be empty or absent, it writes a generated corpus
and a small config, then runs build-vocab, pretrain-lm, train --lm in both
environments, two train runs with short accumulation windows (one of them
stopping early), predict (one MTL and three STL checkpoints), evaluate and
report in process. It prints each command with its stdout and exit code,
then one ``sha256 path`` line for every file under OUTDIR. Paths are
relative to OUTDIR, so two source trees that print the same lines wrote the
same bytes: run it once per tree and diff the outputs.

The exit status is 1 if any command failed. pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

from germeval_mtl import cli
from germeval_mtl import data as dt

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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    dt.write_dataset("data.csv", dt.synth_generate(60, seed=31, spec=dt.SynthSpec(correlation=0.5)))
    Path("config.txt").write_text(CONFIG, encoding="utf-8")

    failed = False
    for command in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(command)
        print("$ germeval-mtl " + " ".join(command))
        print(stdout.getvalue(), end="")
        print(f"exit {code}")
        failed |= code != 0
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.as_posix())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
