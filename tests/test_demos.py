"""Smoke test: the feature demos run to completion against the current API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 04 and 05 train full models (about 12 s each) and call no feature extractor directly
FEATURE_DEMOS = [
    "01_shapes_and_normalization.py",
    "02_distance_and_axis_features.py",
    "03_gabor_bank_and_texture.py",
]


@pytest.mark.parametrize("name", FEATURE_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
