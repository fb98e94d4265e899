"""The demos run to completion from an empty working directory."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# 05_slope_sweep.py is left out: it takes about 14 s and repeats the slope
# sweep of acceptance criterion 6
@pytest.mark.parametrize(
    "name",
    ["01_exponent_calculus.py", "02_grid_construction.py",
     "03_sphere_construction.py", "04_complex_embedding.py"],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
