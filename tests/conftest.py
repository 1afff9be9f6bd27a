"""Shared fixtures: seeded signals, tiny model configurations and
checkpoints, a small stream geometry, and an in-process CLI runner.

The tiny configuration keeps every dimension small enough that brute-force
oracles (python loops, float64) stay fast while still exercising multi-head
attention and multiple layers.
"""

import json

import numpy as np
import pytest

from latentvc import ConverterConfig, StreamConfig, Waveform, init_params, save_params
from latentvc.cli import main


TINY = dict(
    d_latent=6, d_cond=4, d_spk=3, d_model=8,
    n_layers=2, n_heads=2, d_head=4, ffn_ratio=2,
)

# full-width latent/cond/spk dims so the toy codec plugs in, but a model
# small enough that checkpoint tests stay fast
WIDE_TINY = ConverterConfig(d_model=16, n_layers=1, n_heads=2, d_head=8, ffn_ratio=2)

# a 192 ms window split 160 | 16 | 4 | 12 ms: 32 chunks for half a second
SMALL_STREAM = StreamConfig(window_ms=192.0, current_ms=16.0, overlap_ms=4.0, future_ms=12.0)

# SMALL_STREAM as CLI flags
GEOMETRY = [
    "--window-ms", "192", "--current-ms", "16", "--overlap-ms", "4", "--future-ms", "12",
]


@pytest.fixture
def tiny_cfg():
    return ConverterConfig(**TINY)


@pytest.fixture
def tiny_params(tiny_cfg):
    """Tiny config with random nonzero weights (not the zero-gate init)."""
    rng = np.random.default_rng(123)
    params = init_params(tiny_cfg, seed=0)
    for name in params.tensors:
        params.tensors[name] = rng.standard_normal(
            params.tensors[name].shape).astype(np.float32) * 0.1
    return params


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def make_wave(n, seed=0, amp=0.3):
    r = np.random.default_rng(seed)
    return Waveform(amp * r.standard_normal(n))


@pytest.fixture
def short_wave():
    return make_wave(8000, seed=11)


@pytest.fixture
def tiny_ckpt(tmp_path, rng):
    """A WIDE_TINY checkpoint with nonzero gates, so its weights shape the output."""
    params = init_params(WIDE_TINY, seed=7)
    for name, arr in params.tensors.items():
        if name.endswith("adaln.w2"):
            arr += 0.05 * rng.standard_normal(arr.shape)
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    return str(path)


def run_cli(capsys, argv):
    """Run main(argv) in process; return the exit code and, on 0, the JSON payload."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if code == 0 else None)
