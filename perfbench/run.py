"""Benchmark for the germeval-mtl pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run sets up its inputs from ``--seed`` before every repetition
(``setup_s`` is the median of the set-up samples), repeats the
workload's timed part for about ``--seconds`` (at least twice, for the
rerun oracle), runs the correctness checks, prints every metric with its
unit and prints one JSON object as the last line of standard output. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports per-layer metrics from spans around each
module's public functions. ``--workload all`` runs every workload, each
in a fresh process. The exit code is non-zero when a check fails.
"""

from __future__ import annotations

import os

# One BLAS thread: at these array sizes the work is dominated by Python
# and small matmuls, and a single thread keeps runs steady on a shared
# machine. Must be set before NumPy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# Before each repetition the set-up runs again, until this much time is
# spent on it. The machine's speed drifts over seconds, so set-up samples
# spread over the whole run give a steadier median than a burst at the start.
SETUP_SECONDS_PER_REPETITION = 0.3
MIN_REPETITIONS = 2  # the byte-identical rerun oracle needs two
WORKLOAD_NAMES = ("grid-desk", "lm-default", "vocab-predict")


def import_package():
    """Import the program from the checkout's ``src`` and the benchmark's modules."""
    if not (ROOT / "src" / "germeval_mtl" / "__init__.py").is_file():
        print(f"perfbench: no germeval_mtl package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    for path in (str(Path(__file__).resolve().parent), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import layers
    import workloads

    return layers, workloads


# -- machine record ----------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """The checkout's commit; ``unknown`` outside a git checkout (no parent directory is searched)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


# -- one run -------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def measure(workload_name: str, seed: int, seconds: float, trace: bool, preset: str = "default",
            spans_path: Path | None = None) -> dict:
    """Set up, repeat the timed part for ``seconds``, check, and return the result."""
    layers, wl = import_package()
    from germeval_mtl import autodiff as ad

    workload = wl.WORKLOADS[workload_name](preset)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    attempted = failed = 0
    errors: list[str] = []
    try:
        workdir.mkdir()
        setup_times = []

        def set_up():
            spent = 0.0
            while spent < SETUP_SECONDS_PER_REPETITION:
                gc.collect()  # every sample starts from the same collector state
                t0 = time.perf_counter()
                fresh = workload.setup(seed, workdir)
                setup_times.append(time.perf_counter() - t0)
                spent += setup_times[-1]
            return fresh

        stage_clock = layers.Tracer(layers.targets(layers.STAGE_NAMES))
        tracer = layers.Tracer(layers.targets(layers.ALL_NAMES)) if trace else None
        plain, traced, digests, graph_nodes = [], [], [], []
        out = None
        start = time.perf_counter()
        last = 0.0
        # Start another repetition only while it is expected to end within ``seconds``.
        while len(plain) + len(traced) < MIN_REPETITIONS or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            state = set_up()
            use = tracer if trace and len(traced) <= len(plain) else stage_clock
            attempted += workload.stages
            nodes_before = sum(ad.op_counts().values())
            gc.collect()
            use.install()
            try:
                out, summary = use.repetition(lambda: workload.repeat(state))
            except Exception as exc:  # a failed stage call ends the loop and fails the run
                failed += 1
                errors.append(f"{type(exc).__name__}: {exc}")
                break
            finally:
                use.uninstall()
            (traced if use is tracer else plain).append(summary)
            graph_nodes.append(sum(ad.op_counts().values()) - nodes_before)
            digests.append(workload.outputs_digest(state, out))
            last = time.perf_counter() - began
        rss = peak_rss_mb()

        checks = []
        if out is not None:
            checks.append(wl.Check("rerun_identical", len(set(digests)) == 1,
                                   f"{len(digests)} repetitions, {len(set(digests))} distinct output digests"))

            def rerun(other_seed: int):
                other = workdir / f"seed-{other_seed}"
                other.mkdir(exist_ok=True)
                other_state = workload.setup(other_seed, other)
                return other_state, workload.repeat(other_state)

            try:
                checks += workload.checks(state, out, rerun)
            except Exception as exc:
                checks.append(wl.Check("checks_completed", False, f"{type(exc).__name__}: {exc}"))
        shape = layers.workload_shape(*workload.texts(state)) if trace and out is not None else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace and tracer is not None and spans_path is not None and tracer.starts:
        tracer.write(spans_path)
    attempted += len(checks)
    failed += sum(not c.ok for c in checks)

    samples = {
        "setup_s": setup_times,
        "wall_s": [s.wall_ns / 1e9 for s in plain],
        "predict_ex_per_s": [
            workload.predicted_examples(s) / (s.total_ns[workload.predict_stage] / 1e9)
            for s in plain
            if s.total_ns[workload.predict_stage] > 0
        ],
    }
    if trace:
        metrics = layers.per_layer_metrics(traced, plain, graph_nodes, shape) if traced and plain else {}
    else:
        metrics = {
            "setup_s": {"value": median(samples["setup_s"]), "unit": "s"},
            "wall_s": {"value": median(samples["wall_s"]), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "predict_ex_per_s": {"value": median(samples["predict_ex_per_s"]), "unit": "1/s"},
        }
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "samples": samples,
        "stage_rates": layers.stage_rates(plain),
        "checks": [vars(c) for c in checks],
        "errors": errors,
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "metrics": metrics,
    }


def report(result: dict, machine: dict) -> None:
    w = result["workload"]
    print(f"# {w} seed={result['seed']} trace={result['trace']} repetitions={result['repetitions']}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{w:14s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    for name, m in result["stage_rates"].items():
        print(f"{w:14s} {name:44s} {m['value']:>14.6g} {m['unit']}  (stage rate, not gated)")
    print(f"{w:14s} {'failed_share':44s} {result['failed_share']:>14.6g} ratio"
          f"  ({result['failed']}/{result['attempted']} stage calls and checks)")
    for check in result["checks"]:
        print(f"# check {'PASS' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for error in result["errors"]:
        print(f"# error {error}")


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, text=True, capture_output=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_path=OUT_DIR / f"spans-{tag}.jsonl")
    machine = machine_record()
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"machine": machine, **result}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    report(result, machine)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
