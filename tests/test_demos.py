"""Every script in demos/ runs to completion against the package.

The demos call the public signatures (init_params, load_params,
speaker_embedding, loss_breakdown, stream_run, ...), so a change to one of
them that a demo still relies on shows up here as a non-zero exit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import latentvc

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(latentvc.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
