"""Smoke tests: every demo, and the README library quick start, runs to completion against the current API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), ENV.get("PYTHONPATH")]))
ENV["PYTHONWARNINGS"] = "error::RuntimeWarning"  # as pyproject's filterwarnings does for the tests

DEMOS = [
    "01_shapes_and_normalization.py",
    "02_distance_and_axis_features.py",
    "03_gabor_bank_and_texture.py",
    "04_train_and_evaluate.py",
    "05_influence_analysis.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    # the first python block under "## Library quick start", verbatim; it writes data/ into its working directory
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
