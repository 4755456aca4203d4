"""Smoke tests: demos that use the ideals API run to the end in-process."""

from pathlib import Path
import runpy

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["demo_quotient_norms.py", "demo_operator_convolution.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
