"""The first three demos run end to end in process against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_autodiff_and_gradcheck.py", "02_tokenizer_and_masking.py",
                                  "03_overfit_tiny_model.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
