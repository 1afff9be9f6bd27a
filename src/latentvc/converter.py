"""Dual-conditioning latent converter: a two-branch joint-attention transformer.

The source branch carries codec latents (1024-dim rows), the condition branch
carries reference log-mel frames (128-dim rows). Each block runs both
branches through modulated pre-norm attention and FFN sublayers; attention is
joint — queries, keys, and values of the two branches are concatenated along
time into one sequence, with full bidirectional softmax and no mask. A
192-dim speaker vector modulates every sublayer through an adaptive-norm MLP
producing six per-block vectors (scale/shift/gate for attention, then for the
FFN); the modulation form is ``LN(x)*(1+gamma)+beta`` with gated residuals
``x + alpha*out``. The adaptive-MLP output layers are zero at init, so every
freshly initialized block is the identity map on both branches.

Two ablation switches mirror the conditioning study: `use_speaker_condition`
(off: gamma=beta=0, alpha=1, speaker vector unused) and `update_cond_branch`
(off: the condition stream still supplies keys/values each layer but receives
no residual updates after its input projection).

Only the source branch has an output head; the condition stream is discarded
after the last block, so that block's condition branch only supplies keys
and values (condition-pre-only, as in SD3's MMDiT) and has no parameters
for anything else.

Both branches run through one routine, parameterised by branch: `_qkv_into`
for the modulated norm and QKV projection, then one loop body for the
attention outputs and one for the FFNs, each with its gated residual. A
forward pass splits into `prepare`, the work that depends only on the
reference (c, g), and a per-chunk body over the source latents.
`make_converter` keeps the prepared state of the last reference across calls,
so a stream pays for it once; its closure is single-stream, refuses concurrent
or reentrant calls, and reads the entries its params held when built, laid
out: a later replacement does not reach it, an in-place write does.

The blocks multiply feature-major activations by (out, in) matrices, so
`ConverterParams` stores the projection matrices out-major (Fortran order)
when it is built: their transposes are C-contiguous views, and the process
holds one copy of the weights. Checkpoints (format 3) store them in the same
order, so a loaded model's weights are read-only views of the mapped file.
"""
from __future__ import annotations

import json
import math
import mmap
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .codec import D_LATENT
from .errors import CheckpointError, NonFiniteError
from .features import N_MELS, SPK_DIM

CHECKPOINT_MAGIC = b"LVCPRM01"
CHECKPOINT_VERSION = 3
LN_EPS = 1e-5
# Page the whole checkpoint in when it is mapped, so no chunk pays for it.
_MAP_POPULATE = getattr(mmap, "MAP_POPULATE", 0)

# (z, c, g) -> converted z; what the streaming engine consumes.
ConverterFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ConverterConfig:
    d_latent: int = D_LATENT
    d_cond: int = N_MELS
    d_spk: int = SPK_DIM
    d_model: int = 512
    n_layers: int = 6
    n_heads: int = 8
    d_head: int = 64
    ffn_ratio: int = 4
    update_cond_branch: bool = True
    use_speaker_condition: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "bool" and type(v) is not bool:
                raise ValueError(f"{f.name} must be a bool, got {v!r}")
            if f.type == "int" and (type(v) is not int or v <= 0):
                raise ValueError(f"{f.name} must be a positive int, got {v!r}")
        if self.d_model % 2:
            raise ValueError(f"d_model must be even, as positions pair a sin with a cos, got {self.d_model}")
        if self.n_heads * self.d_head != self.d_model:
            raise ValueError(
                f"n_heads*d_head must equal d_model: {self.n_heads}*{self.d_head} != {self.d_model}"
            )

    @property
    def d_ffn(self) -> int:
        return self.d_model * self.ffn_ratio


# Projection matrices, by the last two parts of their name. They are stored
# out-major so that `w.T` is the C-contiguous (out, in) matrix the blocks
# multiply with. The adaptive-norm matrices stay row-major: they act on one
# speaker vector per reference, and out-major storage would change the
# rounding of those matrix-vector products.
_OUT_MAJOR = frozenset(("src_in.w", "cond_in.w", "src_out.w", "qkv.w", "attn_out.w", "ffn.w1", "ffn.w2"))


def _storage_order(name: str) -> str:
    return "F" if ".".join(name.split(".")[-2:]) in _OUT_MAJOR else "C"


def tensor_shapes(cfg: ConverterConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape map for every parameter tensor.

    Linear weights have shape (in, out) and are applied as ``x @ w + b``. This
    map is the single source of truth for init, save, and load. Shape is not
    storage order: `ConverterParams` lays out the projection matrices
    (`src_in.w`, `cond_in.w`, `src_out.w`, and each block's `qkv.w`,
    `attn_out.w`, `ffn.w1`, `ffn.w2`) out-major, i.e. in Fortran order, and
    everything else row-major.

    The last condition block is condition-pre-only: it has only the key and
    value columns of `qkv.*` and the (s1, b1) columns of `adaln.w2`/`b2`.
    """
    d, s = cfg.d_model, {}
    s["src_in.w"] = (cfg.d_latent, d)
    s["src_in.b"] = (d,)
    s["cond_in.w"] = (cfg.d_cond, d)
    s["cond_in.b"] = (d,)
    for i in range(cfg.n_layers):
        for br in ("src", "cond"):
            p = f"layers.{i}.{br}."
            pre_only = br == "cond" and i == cfg.n_layers - 1
            n_mod, n_proj = (2, 2) if pre_only else (6, 3)
            s[p + "adaln.w1"] = (cfg.d_spk, d)
            s[p + "adaln.b1"] = (d,)
            s[p + "adaln.w2"] = (d, n_mod * d)
            s[p + "adaln.b2"] = (n_mod * d,)
            s[p + "qkv.w"] = (d, n_proj * d)
            s[p + "qkv.b"] = (n_proj * d,)
            if pre_only:
                continue
            s[p + "attn_out.w"] = (d, d)
            s[p + "attn_out.b"] = (d,)
            s[p + "ffn.w1"] = (d, cfg.d_ffn)
            s[p + "ffn.b1"] = (cfg.d_ffn,)
            s[p + "ffn.w2"] = (cfg.d_ffn, d)
            s[p + "ffn.b2"] = (d,)
    s["src_out.w"] = (d, cfg.d_latent)
    s["src_out.b"] = (cfg.d_latent,)
    return s


@dataclass
class ConverterParams:
    """A config and its named tensors, each laid out in place in its `tensor_shapes`
    storage order when built (a copy only if in another); a converter reads them as built."""

    cfg: ConverterConfig
    tensors: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        for name, t in self.tensors.items():
            self.tensors[name] = np.asarray(t, order=_storage_order(name))


def param_count(params: ConverterParams) -> int:
    return sum(int(t.size) for t in params.tensors.values())


def init_params(cfg: ConverterConfig, seed: int) -> ConverterParams:
    """Glorot-uniform float32 weights, zero biases, zero adaptive-norm output layers.

    The zeroed `adaln.w2`/`adaln.b2` make all six modulation vectors zero at
    init, so every block starts as the identity on both branches. Each
    tensor is drawn in its `tensor_shapes` shape, in that order.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(cfg).items():
        if name.endswith(".b") or name.endswith("b1") or name.endswith("b2") or name.endswith("adaln.w2"):
            w = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            w = rng.uniform(-limit, limit, size=shape)
        tensors[name] = w.astype(np.float32)
    return ConverterParams(cfg=cfg, tensors=tensors)


# tanh-form GELU; the erf form is not SIMD-vectorized in this stack and
# would dominate the per-chunk compute budget.
_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x * x * x)))


def layer_norm(x: np.ndarray) -> np.ndarray:
    """Parameter-free layer norm over the last axis: (x - mean)/sqrt(var + LN_EPS)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS)


def sinusoidal_positions(positions: np.ndarray, d_model: int) -> np.ndarray:
    """Sinusoidal absolute encoding: PE[p, 2i] = sin(p*w_i), PE[p, 2i+1] = cos(p*w_i),
    with w_i = 10000**(-2i/d_model)."""
    if d_model % 2:
        raise ValueError(f"d_model must be even, as positions pair a sin with a cos, got {d_model}")
    positions = np.asarray(positions, dtype=np.float64)
    half = d_model // 2
    freqs = 10000.0 ** (-2.0 * np.arange(half) / d_model)
    angles = positions[:, None] * freqs[None, :]
    pe = np.empty((positions.shape[0], d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def _positions(scratch: dict, n: int, d_model: int, dtype) -> np.ndarray:
    """`sinusoidal_positions` of 0..n-1 in `dtype`: the first n rows of the
    read-only table `pe` in `scratch`, recomputed only when a longer sequence
    arrives. A row depends only on its position, so a longer table starts
    with the rows of a shorter one."""
    pe = scratch.get("pe")
    if pe is None or len(pe) < n:
        pe = sinusoidal_positions(np.arange(n), d_model).astype(dtype)
        pe.flags.writeable = False
        scratch["pe"] = pe
    return pe[:n]


def speaker_modulations(params: ConverterParams, g: np.ndarray) -> list[dict[str, tuple[np.ndarray, ...]]]:
    """Per-layer, per-branch modulation tuples (s1, b1, a1, s2, b2, a2) from g;
    (s1, b1) for the condition-pre-only last block. Each is a (d_model, 1)
    column, the form the feature-major blocks multiply with.

    s = 1 + gamma is stored pre-added so the hot path multiplies directly;
    at init gamma = beta = alpha = 0, i.e. s = 1, no shift, closed gates.
    """
    t = params.tensors
    out = []
    for i in range(params.cfg.n_layers):
        layer = {}
        for br in ("src", "cond"):
            p = f"layers.{i}.{br}."
            h = gelu(g @ t[p + "adaln.w1"] + t[p + "adaln.b1"])
            mod = h @ t[p + "adaln.w2"] + t[p + "adaln.b2"]
            parts = np.split(mod[:, None], len(mod) // params.cfg.d_model)
            for k in range(0, len(parts), 3):  # s1 and s2
                parts[k] = 1.0 + parts[k]
            layer[br] = tuple(parts)
        out.append(layer)
    return out


def _ln_fm_into(x: np.ndarray, out: np.ndarray, mod=(None, None)) -> np.ndarray:
    """layer_norm over axis 0 of a feature-major (d, T) buffer, written into `out`,
    then ``out*scale + shift`` for `mod` = (scale, shift), (d, 1) columns or Nones.

    Same statistics as `layer_norm` on the transposed array; kept separate so
    the hot path can stay feature-major without per-layer transposes.
    """
    mu = x.mean(axis=0)
    np.subtract(x, mu, out=out)
    var = np.einsum("dt,dt->t", out, out) / x.shape[0]
    np.sqrt(var + LN_EPS, out=var)
    out /= var
    scale, shift = mod
    if scale is not None:
        out *= scale
        out += shift
    return out


def _gelu_in_place(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """2*gelu(x), written over `x` in blocks of len(tmp) rows with `tmp`, of
    x's column count and distinct storage, as the temporary.

    Uses sqrt(2/pi)*(x + 0.044715*x^3) = x*(sqrt(2/pi) + sqrt(2/pi)*0.044715*x^2).
    GELU's factor 0.5 is applied to the (d_model, T) FFN output, before its
    bias add, so it costs no pass over the (d_ffn, T) hidden array.
    """
    for r in range(0, len(x), len(tmp)):
        blk = x[r : r + len(tmp)]
        t = tmp[: len(blk)]
        np.multiply(blk, blk, out=t)
        t *= _GELU_C * 0.044715
        t += _GELU_C
        t *= blk
        np.tanh(t, out=t)
        t += 1.0
        blk *= t
    return x


def _at(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The C-contiguous `shape` view of the start of the 1-D buffer `flat`."""
    return flat[: math.prod(shape)].reshape(shape)


def _buf(scratch: dict, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous `shape` view of the flat work buffer `key` in `scratch`,
    which only grows: it is reallocated when it is too small or of another dtype."""
    n = math.prod(shape)
    a = scratch.get(key)
    if a is None or a.size < n or a.dtype != dtype:
        a = np.empty(n, dtype)
        scratch[key] = a
    return _at(a, shape)


def _q_scale(cfg: ConverterConfig, dtype: np.dtype):
    """Attention's 1/sqrt(d_head), applied to query rows after their bias add."""
    return dtype.type(1.0) / np.sqrt(dtype.type(cfg.d_head))


def _qkv_into(t, prefix: str, h: np.ndarray, mod, ln: np.ndarray, out: np.ndarray, q_scale) -> np.ndarray:
    """Project branch state `h` (d, T), layer-normed into `ln` and modulated
    by `mod`, onto the last len(out) rows of the block's `qkv` and write them
    into `out`: q, k and v, or k and v alone. With all 3*d rows the query
    rows are scaled by `q_scale`."""
    n = len(out)
    np.matmul(t[prefix + "qkv.w"].T[-n:], _ln_fm_into(h, ln, mod), out=out)
    out += t[prefix + "qkv.b"][-n:, None]
    if n == 3 * len(h):
        out[: len(h)] *= q_scale
    return out


def _add_gated(h: np.ndarray, out: np.ndarray, bias: np.ndarray, gate) -> None:
    """The gated residual ``h += gate*(out + bias)``, computed in `out`; no gate is 1."""
    out += bias[:, None]
    if gate is not None:
        out *= gate
    h += out


@dataclass(frozen=True)
class Prepared:
    """Everything a forward pass needs that depends only on (c, g).

    Arrays are feature-major and read-only. `mods` is `speaker_modulations`,
    all Nones without speaker conditioning. `cond_qkv` holds the condition
    rows of the packed QKV of its first len(cond_qkv) layers: layer 0's
    (q, k, v; k, v in a one-block model) when the condition branch updates,
    every layer's (k, v) when it is frozen.
    """

    mods: list[dict[str, tuple]]
    h_cond0: np.ndarray
    cond_qkv: tuple[np.ndarray, ...]


def prepare(params: ConverterParams, c: np.ndarray, g: np.ndarray, scratch: dict) -> Prepared:
    """Validate the reference (c, g); compute its state from the laid-out snapshot `params`.

    The condition stream gets its input projection and positions (starting
    at 0, from the table in the caller's `scratch`); the speaker vector
    gives the modulations of every layer.
    """
    cfg, t = params.cfg, params.tensors
    dtype = t["src_in.w"].dtype
    c, g = np.asarray(c), np.asarray(g)
    if c.ndim != 2 or c.shape[1] != cfg.d_cond:
        raise ValueError(f"condition must be (T_c, {cfg.d_cond}), got {c.shape}")
    if g.shape != (cfg.d_spk,):
        raise ValueError(f"speaker vector must be ({cfg.d_spk},), got {g.shape}")
    if c.shape[0] < 1:
        raise ValueError("condition must have at least one frame")
    for name, arr in (("condition", c), ("speaker vector", g)):
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{name} contains non-finite values")

    d, T_c = cfg.d_model, c.shape[0]
    if cfg.use_speaker_condition:
        mods = speaker_modulations(params, g.astype(dtype))
    else:  # no scale, shift or gate anywhere
        mods = [{"src": (None,) * 6, "cond": (None,) * 6}] * cfg.n_layers
    h_cond0 = t["cond_in.w"].T @ np.ascontiguousarray(c.T, dtype=dtype)
    h_cond0 += t["cond_in.b"][:, None]
    h_cond0 += _positions(scratch, T_c, d, dtype).T
    rows = [len(t["layers.0.cond.qkv.b"])] if cfg.update_cond_branch else [2 * d] * cfg.n_layers
    ln, q_scale = np.empty_like(h_cond0), _q_scale(cfg, dtype)
    cond_qkv = tuple(
        _qkv_into(t, f"layers.{i}.cond.", h_cond0, mods[i]["cond"][:2], ln, np.empty((n, T_c), dtype), q_scale)
        for i, n in enumerate(rows)
    )
    for a in (h_cond0, *cond_qkv):
        a.flags.writeable = False
    return Prepared(mods, h_cond0, cond_qkv)


def _convert(
    params: ConverterParams,
    prep: Prepared,
    z: np.ndarray,
    scratch: dict,
    return_trace: bool = False,
):
    """The per-chunk body of `forward`: source latents through the blocks
    against a prepared reference, reusing the four grow-only work buffers
    and the position table in `scratch`."""
    cfg, t = params.cfg, params.tensors
    dtype = t["src_in.w"].dtype
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] != cfg.d_latent:
        raise ValueError(f"source latents must be (T_s, {cfg.d_latent}), got {z.shape}")
    if z.shape[0] < 1:
        raise ValueError("source latents must have at least one frame")
    if not np.isfinite(z).all():
        raise NonFiniteError("source latents contain non-finite values")

    T_s, T_c = z.shape[0], prep.h_cond0.shape[1]
    T = T_s + T_c
    d, n_heads, d_head, d_ffn = cfg.d_model, cfg.n_heads, cfg.d_head, cfg.d_ffn
    update = cfg.update_cond_branch
    q_scale, half = _q_scale(cfg, dtype), dtype.type(0.5)

    # `forward`'s docstring describes the work buffers, the arena's phases and
    # where the scores live. `ln` and the arena are sized for the call up
    # front, so a call never regrows either while an older view of it is alive.
    T_u = T_c if update and cfg.n_layers > 1 else 0  # condition tokens that are updated
    ln_size = max(d * max(T_s, T_c), T * (T_s + T_u))
    arena = max(cfg.d_latent * T_s, 3 * d * T, d_ffn * max(T_s, T_u))
    ln, work = _buf(scratch, "ln", (ln_size,), dtype), _buf(scratch, "work", (arena,), dtype)
    zT = _at(work, (cfg.d_latent, T_s))
    np.copyto(zT, z.T)
    h_src = _buf(scratch, "src.h", (d, T_s), dtype)
    np.matmul(t["src_in.w"].T, zT, out=h_src)
    h_src += t["src_in.b"][:, None]
    h_src += _positions(scratch, T_s, d, dtype).T
    h_cond = _buf(scratch, "cond.h", (d, T_c), dtype)
    np.copyto(h_cond, prep.h_cond0)
    trace = [(h_src.T.copy(), h_cond.T.copy())] if return_trace else None
    # Each branch: its name, its state and its token columns in the joint sequence.
    branches = (("src", h_src, slice(0, T_s)), ("cond", h_cond, slice(T_s, T)))

    # Activations are (features, tokens). Per-head views of the packed QKV
    # buffer; all contiguous row blocks.
    qkv = _at(work, (3 * d, T))
    q_heads = qkv[:d].reshape(n_heads, d_head, T)
    kT_heads = qkv[d : 2 * d].reshape(n_heads, d_head, T).transpose(0, 2, 1)
    v_heads = qkv[2 * d :].reshape(n_heads, d_head, T)

    for i in range(cfg.n_layers):
        # Condition tokens query, and are updated, except when frozen or in the last block.
        T_q = T if update and i < cfg.n_layers - 1 else T_s
        for br, h, cols in branches:
            if br == "cond" and i < len(prep.cond_qkv):
                np.copyto(qkv[-len(prep.cond_qkv[i]) :, cols], prep.cond_qkv[i])
                continue
            p = f"layers.{i}.{br}."
            _qkv_into(t, p, h, prep.mods[i][br][:2], _at(ln, h.shape), qkv[-len(t[p + "qkv.b"]) :, cols], q_scale)

        # One head at a time through one score buffer in `ln`, keys on rows:
        # scores[key, query]. The softmax reduces over axis 0 and its
        # normalisation is applied to the head's (d_head, T_q) output, which
        # overwrites the head's query rows: its score product has read them,
        # and no other head reads them.
        scores = _at(ln, (T, T_q))
        for k in range(n_heads):
            q = q_heads[k, :, :T_q]
            np.matmul(kT_heads[k], q, out=scores)
            scores -= scores.max(axis=0)
            np.exp(scores, out=scores)
            np.matmul(v_heads[k], scores, out=q)
            q /= scores.sum(axis=0)

        # The branches are independent from here on: each one that is updated
        # runs its attention output, then its FFN, each with its gated
        # residual. Every attention output is read before an FFN's hidden
        # array overwrites it.
        live = branches if T_q == T else branches[:1]
        for br, h, cols in live:
            p = f"layers.{i}.{br}."
            out = _at(ln, h.shape)
            np.matmul(t[p + "attn_out.w"].T, qkv[:d, cols], out=out)
            _add_gated(h, out, t[p + "attn_out.b"], prep.mods[i][br][2])
        for br, h, cols in live:
            p = f"layers.{i}.{br}."
            _, _, _, s2, b2, a2 = prep.mods[i][br]
            ln_h = _at(ln, h.shape)
            hid = _at(work, (d_ffn, h.shape[1]))
            np.matmul(t[p + "ffn.w1"].T, _ln_fm_into(h, ln_h, (s2, b2)), out=hid)
            hid += t[p + "ffn.b1"][:, None]
            # GELU has finished with `ln_h` as its temporary before W2 writes it.
            np.matmul(t[p + "ffn.w2"].T, _gelu_in_place(hid, ln_h), out=ln_h)
            ln_h *= half
            _add_gated(h, ln_h, t[p + "ffn.b2"], a2)

        if return_trace:
            trace.append((h_src.T.copy(), h_cond.T.copy()))

    ln_s = _ln_fm_into(h_src, _at(ln, (d, T_s)))
    outT = _at(work, (cfg.d_latent, T_s))
    np.matmul(t["src_out.w"].T, ln_s, out=outT)
    outT += t["src_out.b"][:, None]
    out = outT.T.copy()
    if return_trace:
        return out, trace
    return out


def forward(params: ConverterParams, z: np.ndarray, c: np.ndarray, g: np.ndarray, return_trace: bool = False):
    """Convert source latents (T_s, d_latent) conditioned on mel (T_c, d_cond)
    and speaker vector (d_spk,).

    Both branches are projected to d_model, given sinusoidal positions
    starting at 0, then run through the joint-attention blocks; the output
    head maps the normalized source stream back to latent space.

    With `return_trace` the per-layer (h_src, h_cond) states after each block
    are returned alongside the output, including the post-projection inputs
    as entry 0. The last block does not update the condition stream, so its
    entry repeats the condition state the block was given.

    The work splits in two: `prepare` computes what depends only on the
    reference (speaker modulations, the projected condition stream and
    `cond_qkv`), and `_convert` runs the source through the blocks. This
    stateless entry point redoes both halves on every call; `make_converter`
    keeps the prepared half across calls.

    Each block runs one routine per branch. Layer i's condition rows of the
    packed QKV are copied from `cond_qkv` if i < len(cond_qkv), else computed
    like the source rows. Only branches that are updated query: the source
    always, the condition branch unless frozen or in the last block (there,
    attention is T_s x T). The condition state is a work-buffer copy.

    The body keeps activations feature-major (d, T) and multiplies with the
    (out, in) transposes of the projection matrices: views of the entries
    `params` holds, laid out as `make_converter` says. It reuses work buffers
    across layers and operates in place where it can; one chunk must stay
    well under its own duration on a single core, and GEMM orientation,
    allocation churn, and page faults were all measured costs.

    A call holds four grow-only work buffers: the two branch states
    `src.h` (d, T_s) and `cond.h` (d, T_c); `ln`, which the branches share
    for each layer norm, the attention-out and FFN-out products that follow
    it, and as GELU's temporary, and which attention uses between the last
    QKV product and the first attention-out product for its one (T, T_q)
    score buffer, run through one head at a time (so scratch grows with T²,
    not n_heads·T²); and one `work` arena whose storage each phase owns in
    turn: the codec latents staged in and out, attention's packed QKV
    (3d, T), then the FFN hidden array, GELU'd in place. Each head's
    (d_head, T_q) output overwrites that head's query rows, which its score
    product has read and no other head reads. `ln` is sized for the larger
    of its roles, max(d·max(T_s, T_c), T·T_q), and the arena for its largest
    phase; T_q is the number of query tokens, T when the condition branch
    is updated, else T_s. Both branches project their attention output
    before either FFN runs. Positions are the first rows of one read-only
    table kept beside the work buffers and recomputed only when a longer
    sequence arrives; here all of them die with the call.
    """
    params = ConverterParams(params.cfg, dict(params.tensors))
    scratch: dict = {}
    return _convert(params, prepare(params, c, g, scratch), z, scratch, return_trace)


def make_converter(params: ConverterParams) -> ConverterFn:
    """Bind parameters into the (z, c, g) -> z callable that the runs use.

    The returned callable is single-stream. It multiplies with views of
    the entries that `params.tensors` holds now, laid out: a later
    replacement does not reach it, an in-place write does. It holds one set
    of the work buffers that `forward` describes, each as large as the
    largest call has needed, and a position table as long as the longest
    sequence it has seen, all freed with it. It also holds the prepared
    state of the last reference it saw, with a private copy of that (c, g)
    to compare shape, dtype and values against: chunk after chunk of a
    stream reuses it without copying the reference, and a new or mutated
    reference recomputes it. Its output is bitwise equal to `forward`.
    Calling it again while a call is running, from another thread or
    reentrantly, raises RuntimeError rather than corrupting the shared
    buffers; make a separate converter per concurrent stream.
    """
    params = ConverterParams(params.cfg, dict(params.tensors))
    scratch: dict = {}
    busy = threading.Lock()
    ref, ref_state = None, None

    def convert(z: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
        nonlocal ref, ref_state
        if not busy.acquire(blocking=False):
            raise RuntimeError("converter is single-stream: called while another call is running")
        try:
            c, g = np.asarray(c), np.asarray(g)
            # array_equal is False for different shapes; a failed prepare
            # leaves the previous reference and its state in place
            if ref is None or any(a.dtype != b.dtype or not np.array_equal(a, b) for a, b in zip((c, g), ref)):
                ref_state = prepare(params, c, g, scratch)
                ref = c.copy(), g.copy()
            return _convert(params, ref_state, z, scratch)
        finally:
            busy.release()

    return convert


def identity_converter(z: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Latent passthrough; isolates codec and streaming behavior in tests."""
    return z


# The blob section of a saved checkpoint starts on this boundary, so every
# tensor of the mapped file is aligned for its dtype.
_BLOB_ALIGN = 64


@contextmanager
def _replacing(path: str | Path):
    """Open a new file beside `path` for writing and, when the block
    succeeds, rename it over `path`. A process that has mapped the old file
    keeps its data, where an in-place rewrite would change the pages under
    the map or truncate them (SIGBUS); a failed save leaves `path` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _manifest(cfg: ConverterConfig) -> dict[str, list]:
    """Name -> [(in, out) shape, byte offset into the blob section] of a
    checkpoint of `cfg`: float32 blobs back to back in `tensor_shapes`
    order. `save_params` writes it; `load_params` requires it."""
    manifest, offset = {}, 0
    for name, shape in tensor_shapes(cfg).items():
        manifest[name] = [list(shape), offset]
        offset += 4 * math.prod(shape)
    return manifest


def save_params(path: str | Path, params: ConverterParams) -> None:
    """Write magic, uint64 header length, JSON header, then float32 LE blobs.

    The header carries the format version, the config, and the `_manifest`
    of the config. Each blob is in the storage order of `tensor_shapes`: an
    out-major projection matrix is written as the row-major bytes of its
    (out, in) transpose, every other tensor as the row-major bytes of its
    shape. Trailing spaces pad the header so that the blob section starts on
    a 64-byte boundary. The file at `path` is replaced by a new one, never
    rewritten in place.
    """
    manifest = _manifest(params.cfg)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.cfg),
        "manifest": manifest,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    header_bytes += b" " * (-(16 + len(header_bytes)) % _BLOB_ALIGN)
    with _replacing(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        for name in manifest:
            t = params.tensors[name]
            f.write(np.ascontiguousarray(t.T if _storage_order(name) == "F" else t, dtype="<f4"))


def load_params(path: str | Path) -> ConverterParams:
    """Load a checkpoint; validate magic, version, config, manifest and size.

    The config is the one stored in the file. To change the ablation
    switches, apply `dataclasses.replace` to the result and its `cfg`.

    Only format 3 (`CHECKPOINT_VERSION`) loads. Every check runs before any
    tensor is touched. The manifest must be the `_manifest` of the file's
    config, compared as JSON text, so an offset or dimension written as a
    float or a bool is refused, and the tensor data must start on the
    64-byte boundary `save_params` pads it to. The file is then mapped
    read-only, and each tensor is a zero-copy view of the map in its storage
    order: read-only, aligned, and in pages that processes share. Replace a
    loaded file, as `save_params` does, rather than rewrite it in place: that
    changes or faults the weights of every process that has it mapped.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(16)
        if len(head) < 16 or head[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a converter checkpoint (bad magic)")
        header_len = int.from_bytes(head[8:16], "little")
        header_end = 16 + header_len
        if header_end > size:
            raise CheckpointError(f"{path}: truncated file (header extends past EOF)")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: unreadable header (not a JSON object)")
        version = header.get("format_version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: version mismatch (file {version!r}, supported {CHECKPOINT_VERSION})")
        try:
            file_cfg = ConverterConfig(**header["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: invalid config in header ({exc})") from exc

        manifest = _manifest(file_cfg)
        if json.dumps(header.get("manifest"), sort_keys=True) != json.dumps(manifest, sort_keys=True):
            raise CheckpointError(f"{path}: manifest is not the layout of its config")
        if header_end + 4 * sum(math.prod(shape) for shape, _ in manifest.values()) > size:
            raise CheckpointError(f"{path}: truncated file (tensor data extends past EOF)")
        if header_end % _BLOB_ALIGN != 0:
            raise CheckpointError(f"{path}: tensor data at byte {header_end}, not on a {_BLOB_ALIGN}-byte boundary")

        try:
            mapped = mmap.mmap(f.fileno(), 0, flags=mmap.MAP_SHARED | _MAP_POPULATE, prot=mmap.PROT_READ)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"{path}: cannot map file ({exc})") from exc

    tensors: dict[str, np.ndarray] = {}
    for name, (shape, offset) in manifest.items():
        start = header_end + offset
        if start + 4 * math.prod(shape) > len(mapped):
            raise CheckpointError(f"{path}: truncated file (short read in tensor {name})")
        tensors[name] = np.ndarray(shape, "<f4", buffer=mapped, offset=start, order=_storage_order(name))
    return ConverterParams(cfg=file_cfg, tensors=tensors)
