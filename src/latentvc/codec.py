"""Toy invertible waveform codec standing in for a pretrained neural codec.

The encoder maps each non-overlapping 256-sample frame to a 1024-dim latent
row: an orthonormal DCT-II of the frame scaled by 1/16 in the first 256
columns, zeros elsewhere. The decoder inverts exactly, so the round trip is
lossless to float precision. Being strictly framewise, it lets streaming
correctness be tested independently of codec context effects; a context-
dependent codec can be swapped in through `CodecInterface`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .audio_io import Waveform
from .errors import NonFiniteError

HOP = 256
D_LATENT = 1024
LATENT_SCALE = 0.0625  # keeps typical latent magnitudes O(1)


@cache
def _dct_basis() -> np.ndarray:
    """B[n, k] = LATENT_SCALE * c_k * cos(pi * (n + 1/2) * k / HOP), c_0 = sqrt(1/HOP),
    c_k = sqrt(2/HOP): frames @ B is the latent, and latent @ B.T / LATENT_SCALE**2
    inverts it. Scaling by LATENT_SCALE, a power of two, is exact."""
    n = np.arange(HOP)
    b = np.cos(np.pi / HOP * np.outer(n + 0.5, n))
    b *= np.sqrt(2.0 / HOP) * LATENT_SCALE
    b[:, 0] *= np.sqrt(0.5)
    b.flags.writeable = False
    return b


def toy_encode(w: Waveform) -> np.ndarray:
    """Encode a hop-multiple waveform into a (len(w)/256, 1024) latent matrix."""
    n = len(w)
    if n == 0:
        raise ValueError("cannot encode an empty waveform")
    if n % HOP != 0:
        raise ValueError(f"waveform length {n} is not a multiple of the codec hop {HOP}")
    frames = w.samples.reshape(-1, HOP)
    latent = np.zeros((frames.shape[0], D_LATENT), dtype=np.float64)
    np.matmul(frames, _dct_basis(), out=latent[:, :HOP])
    return latent


def toy_decode(z: np.ndarray) -> Waveform:
    """Decode a (T, 1024) latent matrix back to a 256*T-sample waveform.

    Only the first 256 columns carry signal; the rest are ignored, matching
    the encoder's layout.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != D_LATENT:
        raise ValueError(f"latent must be (T, {D_LATENT}), got {z.shape}")
    if not np.isfinite(z).all():
        raise NonFiniteError("latent contains NaN or Inf")
    frames = z[:, :HOP] @ _dct_basis().T
    frames /= LATENT_SCALE * LATENT_SCALE
    return Waveform(frames.reshape(-1))


@dataclass(frozen=True)
class CodecInterface:
    """Encoder/decoder pair plus the samples-per-frame hop they share."""

    encode: Callable[[Waveform], np.ndarray]
    decode: Callable[[np.ndarray], Waveform]
    hop: int = HOP


def toy_codec() -> CodecInterface:
    """The framewise codec. Each direction is one float64 product with a 256 x 256
    orthonormal DCT-II matrix, scaled by LATENT_SCALE, built with numpy once."""
    return CodecInterface(encode=toy_encode, decode=toy_decode, hop=HOP)
