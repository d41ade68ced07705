"""The benchmark wraps functions by name: a rename or deletion fails here,
not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

from germeval_mtl import tokenizer as tok

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling spans.py
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(monkeypatch):
    layers = _load_layers(monkeypatch)
    unresolved = [
        f"{module}.{name}"
        for module, names in layers.FUNCTIONS.items()
        for name in names
        if not callable(getattr(tok.Vocab if (module, name) == ("tokenizer", "tokenize_word")
                                else layers.MODULES[module], name, None))
    ]
    assert not unresolved, f"perfbench wraps names the package no longer has: {unresolved}"
