"""The fixed CLI pipeline of ``cli_digests.py`` against its committed reference.

The pipeline runs in process into a temporary directory. Each ``.npz`` is
compared by its metadata and per-parameter invariants, each JSON file by value,
with floats to 1e-10 relative (and 1e-12 absolute, for sums near zero); every
other file, and each command's stdout, by SHA-256, and exit codes exactly.

A change that alters outputs on purpose regenerates the reference with

    PYTHONPATH=src python tests/cli_digests.py OUTDIR tests/cli_digest_reference.json

(OUTDIR empty or absent) and says which entries changed and why.
"""

import json
import math
from pathlib import Path

import cli_digests

REFERENCE = Path(__file__).resolve().parent / "cli_digest_reference.json"


def _differences(want, got, where: str) -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        return [diff for key in sorted(want.keys() | got.keys())
                for diff in (_differences(want[key], got[key], f"{where}/{key}") if key in want and key in got
                             else [f"{where}/{key} ({'missing' if key in want else 'unexpected'})"])]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [diff for i, (w, g) in enumerate(zip(want, got)) for diff in _differences(w, g, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(want, got, rel_tol=1e-10, abs_tol=1e-12) else [where]
    return [] if type(want) is type(got) and want == got else [where]


def test_cli_pipeline_matches_the_committed_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = cli_digests.digest(tmp_path, cli_digests.run_commands())
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))
    differ = _differences(want, got, "")
    assert not differ, "differ from tests/cli_digest_reference.json:\n" + "\n".join(differ)
