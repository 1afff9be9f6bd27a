"""Dual-branch joint-attention converter against a scalar-loop oracle.

The oracle walks every token and head with explicit python loops in float64
(math.tanh, math.exp), sharing no code with the vectorized forward, including a property test over
random tiny geometries. Also covers the zero-gate identity at init, the two
architecture flags, shape and finiteness validation, the reference cache and
single-stream guard of `make_converter`, the check of the weights' names,
shapes and dtype when `ConverterParams` is built, their storage layout and
the memory that loading and binding them takes, and the checkpoint container
(format 5): read-only mapped weights, saves that replace the file, tamper
rejection before any tensor is read, refusal of every other format version,
and the condition-pre-only last block.
"""

import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latentvc import (
    CheckpointError,
    ConverterConfig,
    ConverterParams,
    NonFiniteError,
    forward,
    gelu,
    identity_converter,
    init_params,
    layer_norm,
    load_params,
    make_converter,
    param_count,
    save_params,
    sinusoidal_positions,
    speaker_modulations,
    tensor_shapes,
)

import latentvc.converter as converter_module
from latentvc.converter import _GELU_C, _convert, _gelu_in_place, _ln_fm_into, _positions, _replacing, prepare

from conftest import TINY


GELU_C = math.sqrt(2.0 / math.pi)


def s_gelu(x):
    return 0.5 * x * (1.0 + math.tanh(GELU_C * (x + 0.044715 * x**3)))


def s_matvec(x, w, b):
    out = np.zeros(w.shape[1])
    for j in range(w.shape[1]):
        acc = 0.0
        for i in range(w.shape[0]):
            acc += float(x[i]) * float(w[i, j])
        out[j] = acc + float(b[j])
    return out


def s_ln(x, eps=1e-5):
    d = len(x)
    mu = sum(float(v) for v in x) / d
    var = sum((float(v) - mu) ** 2 for v in x) / d
    return np.array([(float(v) - mu) / math.sqrt(var + eps) for v in x])


def s_pe(pos, d):
    row = np.zeros(d)
    for i in range(d // 2):
        w = 10000.0 ** (-2.0 * i / d)
        row[2 * i] = math.sin(pos * w)
        row[2 * i + 1] = math.cos(pos * w)
    return row


def oracle_forward(params, z, c, g):
    """Token-by-token float64 reimplementation of the whole converter."""
    cfg, t = params.cfg, params.tensors
    d, dh = cfg.d_model, cfg.d_head
    T_s, T_c = len(z), len(c)

    h = [s_matvec(z[i], t["src_in.w"], t["src_in.b"]) + s_pe(i, d) for i in range(T_s)]
    h += [s_matvec(c[i], t["cond_in.w"], t["cond_in.b"]) + s_pe(i, d) for i in range(T_c)]

    mods = []
    if cfg.use_speaker_condition:
        for li in range(cfg.n_layers):
            layer = {}
            for br in ("src", "cond"):
                p = f"layers.{li}.{br}."
                hid = s_matvec(g, t[p + "adaln.w1"], t[p + "adaln.b1"])
                hid = np.array([s_gelu(v) for v in hid])
                mod = s_matvec(hid, t[p + "adaln.w2"], t[p + "adaln.b2"])
                parts = np.split(mod, len(mod) // d)
                if len(parts) == 6:
                    layer[br] = (1.0 + parts[0], parts[1], parts[2],
                                 1.0 + parts[3], parts[4], parts[5])
                else:  # the condition-pre-only last block: (s1, b1)
                    layer[br] = (1.0 + parts[0], parts[1])
            mods.append(layer)

    def branch(tok):
        return "src" if tok < T_s else "cond"

    for li in range(cfg.n_layers):
        pre = {"src": f"layers.{li}.src.", "cond": f"layers.{li}.cond."}
        ln = []
        for tok in range(T_s + T_c):
            row = s_ln(h[tok])
            if mods:
                s1, b1 = mods[li][branch(tok)][0], mods[li][branch(tok)][1]
                row = row * s1 + b1
            ln.append(row)
        qkv = [s_matvec(ln[tok], t[pre[branch(tok)] + "qkv.w"],
                        t[pre[branch(tok)] + "qkv.b"]) for tok in range(T_s + T_c)]
        # The last block's condition tokens supply keys and values only.
        pre_only = li == cfg.n_layers - 1
        qkv = [np.concatenate([np.zeros(d), row]) if len(row) == 2 * d else row for row in qkv]
        att = [np.zeros(d) for _ in range(T_s + T_c)]
        for head in range(cfg.n_heads):
            lo = head * dh
            for i in range(T_s + T_c):
                scores = []
                for j in range(T_s + T_c):
                    acc = 0.0
                    for f in range(dh):
                        acc += qkv[i][lo + f] * qkv[j][d + lo + f]
                    scores.append(acc / math.sqrt(dh))
                m = max(scores)
                exps = [math.exp(s - m) for s in scores]
                tot = sum(exps)
                for j in range(T_s + T_c):
                    p = exps[j] / tot
                    for f in range(dh):
                        att[i][lo + f] += p * qkv[j][2 * d + lo + f]
        for tok in range(T_s + T_c):
            br = branch(tok)
            if br == "cond" and (not cfg.update_cond_branch or pre_only):
                continue
            out = s_matvec(att[tok], t[pre[br] + "attn_out.w"], t[pre[br] + "attn_out.b"])
            if mods:
                out = out * mods[li][br][2]
            h[tok] = h[tok] + out
        for tok in range(T_s + T_c):
            br = branch(tok)
            if br == "cond" and (not cfg.update_cond_branch or pre_only):
                continue
            row = s_ln(h[tok])
            if mods:
                row = row * mods[li][br][3] + mods[li][br][4]
            hid = s_matvec(row, t[pre[br] + "ffn.w1"], t[pre[br] + "ffn.b1"])
            hid = np.array([s_gelu(v) for v in hid])
            out = s_matvec(hid, t[pre[br] + "ffn.w2"], t[pre[br] + "ffn.b2"])
            if mods:
                out = out * mods[li][br][5]
            h[tok] = h[tok] + out

    return np.stack([s_matvec(s_ln(h[i]), t["src_out.w"], t["src_out.b"])
                     for i in range(T_s)])


def live_columns(name, full, shape):
    """The columns of a whole-block tensor `full` that the condition-pre-only
    last block keeps as `shape`: keys and values of `qkv.*`, (s1, b1) of
    `adaln.*`."""
    k = shape[-1]
    return full[..., full.shape[-1] - k:] if ".qkv." in name else full[..., :k]


def whole_block_shapes(cfg):
    """`tensor_shapes` with the last block whole, as before the condition-
    pre-only block: the shapes of a model one block deeper, without that
    block."""
    last = f"layers.{cfg.n_layers}."
    deeper = tensor_shapes(replace(cfg, n_layers=cfg.n_layers + 1))
    return {name: shape for name, shape in deeper.items() if not name.startswith(last)}


def random_params(cfg, seed):
    """Weights drawn for the whole last block, as before the condition-pre-only
    block, of which that block keeps its live columns; so every seed keeps the
    values it always gave."""
    r = np.random.default_rng(seed)
    drawn = {name: r.standard_normal(shape).astype(np.float32) * 0.2
             for name, shape in whole_block_shapes(cfg).items()}
    return ConverterParams(cfg, {name: live_columns(name, drawn[name], shape)
                                 for name, shape in tensor_shapes(cfg).items()})


def random_tiny_params(seed, **flag_overrides):
    return random_params(ConverterConfig(**{**TINY, **flag_overrides}), seed)


# Large enough that the model's bytes dwarf the checkpoint header's python
# objects under tracemalloc, small enough to build in milliseconds.
MEDIUM = ConverterConfig(d_latent=32, d_cond=16, d_spk=8, d_model=64, n_layers=3, n_heads=4, d_head=16)


def traced_peak(fn, *args):
    """(result or raised exception, peak bytes traced while fn ran)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        try:
            result = fn(*args)
        except Exception as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_header(path):
    """(JSON header, byte offset where the blob section starts) of a checkpoint."""
    raw = path.read_bytes()
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16:header_end]), header_end


def blob_offsets(cfg):
    """Name -> byte offset into the blob section of a checkpoint of `cfg`:
    float32 blobs back to back in `tensor_shapes` order."""
    offsets, offset = {}, 0
    for name, shape in tensor_shapes(cfg).items():
        offsets[name] = offset
        offset += 4 * math.prod(shape)
    return offsets


def replace_file(path, data):
    """Write `data` as the file at `path` the way `save_params` does: a new
    file renamed over the old one, so no earlier load's map is rewritten."""
    with _replacing(path) as f:
        f.write(data)


def replace_header(path, header):
    """Replace the JSON header of the checkpoint at `path` with `header`,
    keeping its blobs, and pad it as `save_params` does."""
    raw = path.read_bytes()
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    blob = json.dumps(header).encode()
    blob += b" " * ((-16 - len(blob)) % 64)
    replace_file(path, raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[header_end:])


def rewrite_header(path, edit):
    """Apply `edit` to the JSON header of the checkpoint at `path`."""
    header, _ = read_header(path)
    edit(header)
    replace_header(path, header)


def reverse_keys(d):
    """Reorder the dict `d` in place, its keys last to first."""
    items = list(d.items())[::-1]
    d.clear()
    d.update(items)


# The tensors of a whole last condition block that the condition-pre-only block lacks.
DEAD = ("attn_out.w", "attn_out.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


def save_legacy(path, params, version):
    """Write `params` as a checkpoint of format 1, 2, 3 or 4, as older code
    did: each header carries a manifest of [shape, offset] per tensor.
    Formats 1 and 2 hold the whole last block, NaN in its dead tensors and
    columns. Format 1 writes each blob row-major in its (in, out) shape;
    formats 2 and 3 write the adaptive-norm matrices so too, and every other
    tensor as the row-major bytes of its transpose; format 4 writes every
    tensor so, as format 5 does."""
    shapes = whole_block_shapes(params.cfg) if version < 3 else tensor_shapes(params.cfg)
    tensors, manifest, offset = {}, {}, 0
    for name, shape in shapes.items():
        tensors[name] = np.full(shape, np.nan, np.float32)
        if name in params.tensors:
            live_columns(name, tensors[name], params.tensors[name].shape)[...] = params.tensors[name]
        manifest[name] = [list(shape), offset]
        offset += tensors[name].nbytes
    header = json.dumps({"format_version": version, "config": asdict(params.cfg), "manifest": manifest}).encode()
    header += b" " * ((-16 - len(header)) % 64)
    blobs = b"".join(np.ascontiguousarray(t.T if version > 1 and (version > 3 or ".adaln." not in n) else t).tobytes()
                     for n, t in tensors.items())
    replace_file(path, b"LVCPRM01" + len(header).to_bytes(8, "little") + header + blobs)


def save_v1(path, params):
    save_legacy(path, params, 1)


def save_v2(path, params):
    save_legacy(path, params, 2)


def save_v3(path, params):
    save_legacy(path, params, 3)


def save_v4(path, params):
    save_legacy(path, params, 4)


def save_unaligned(path, params):
    """A checkpoint of `params` whose blob section starts one byte past the
    4-byte grid, as code older than the header padding could write."""
    save_params(path, params)
    header, header_end = read_header(path)
    blob = json.dumps(header).encode()
    blob += b" " * ((1 - 16 - len(blob)) % 4)
    raw = path.read_bytes()
    replace_file(path, raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[header_end:])


def tiny_inputs(seed, t_s=5, t_c=3):
    r = np.random.default_rng(seed)
    return (r.standard_normal((t_s, TINY["d_latent"])),
            r.standard_normal((t_c, TINY["d_cond"])),
            r.standard_normal(TINY["d_spk"]))


class TestConfig:
    def test_default_dims(self):
        cfg = ConverterConfig()
        assert cfg.d_model == 512
        assert cfg.d_ffn == 2048
        assert cfg.n_heads * cfg.d_head == cfg.d_model

    def test_rejects_head_mismatch(self):
        with pytest.raises(ValueError):
            ConverterConfig(n_heads=7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConverterConfig(n_layers=0)

    # d_model 1 used to fail inside numpy at the first call, and d_model 3 to
    # fill column 2 with sin(p*w_0) where sin(p*w_1) belongs.
    @pytest.mark.parametrize("d_model", [1, 3, 5])
    def test_rejects_odd_d_model(self, d_model):
        message = f"d_model must be even, as positions pair a sin with a cos, got {d_model}"
        with pytest.raises(ValueError, match=message):
            ConverterConfig(d_model=d_model, n_heads=1, d_head=d_model)
        with pytest.raises(ValueError, match=message):
            sinusoidal_positions(np.arange(4), d_model)

    def test_param_count_default(self):
        assert param_count(init_params(ConverterConfig(), seed=0)) == 55_341_568

    def test_tensor_shapes_tiny(self, tiny_cfg):
        shapes = tensor_shapes(tiny_cfg)
        assert shapes["src_in.w"] == (6, 8)
        assert shapes["cond_in.w"] == (4, 8)
        assert shapes["src_out.w"] == (8, 6)
        assert shapes["layers.0.src.qkv.w"] == (8, 24)
        assert shapes["layers.0.cond.ffn.w1"] == (8, 16)
        assert shapes["layers.0.cond.adaln.w1"] == (3, 8)
        assert shapes["layers.0.cond.adaln.w2"] == (8, 48)
        # the last block's condition branch supplies keys and values only
        assert shapes["layers.1.cond.qkv.w"] == (8, 16)
        assert shapes["layers.1.cond.adaln.w2"] == (8, 16)
        assert not any(f"layers.1.cond.{n}" in shapes for n in DEAD)
        # ordering is the checkpoint layout, so it must be stable
        assert list(shapes)[:2] == ["src_in.w", "src_in.b"]
        assert list(shapes)[-2:] == ["src_out.w", "src_out.b"]


class TestBuildingBlocks:
    def test_gelu_scalar_loop(self):
        xs = np.linspace(-4, 4, 41)
        got = gelu(xs)
        for x, y in zip(xs, got):
            assert y == pytest.approx(s_gelu(x), abs=1e-12)

    def test_layer_norm_scalar_loop(self, rng):
        x = rng.standard_normal((3, 10))
        got = layer_norm(x)
        for i in range(3):
            assert np.abs(got[i] - s_ln(x[i])).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40), block=st.integers(1, 16), cols=st.integers(1, 24),
           seed=st.integers(0, 2**32 - 1))
    @example(rows=10, block=4, cols=3, seed=0)  # the last block is 2 of the 4 temporary rows
    def test_gelu_in_place_is_the_longhand(self, rows, block, cols, seed):
        x = (4 * np.random.default_rng(seed).standard_normal((rows, cols))).astype(np.float32)
        want = x * (1.0 + np.tanh(x * (_GELU_C + _GELU_C * 0.044715 * (x * x))))
        got = x.copy()
        assert _gelu_in_place(got, np.empty((block, cols), np.float32)) is got
        assert np.array_equal(got, want)

    def test_sinusoidal_scalar_loop(self):
        got = sinusoidal_positions(np.arange(7), 12)
        for p in range(7):
            assert np.abs(got[p] - s_pe(p, 12)).max() < 1e-12

    def test_modulations_at_init_are_identity(self, tiny_cfg):
        params = init_params(tiny_cfg, seed=1)
        mods = speaker_modulations(params, np.ones(3, dtype=np.float32))
        assert len(mods[-1]["cond"]) == 2  # (s1, b1) of the condition-pre-only block
        for layer in mods:
            for br in ("src", "cond"):
                s1, b1, *post = layer[br]
                assert np.all(s1 == 1.0) and np.all(b1 == 0.0)
                if post:
                    a1, s2, b2, a2 = post
                    assert np.all(s2 == 1.0) and np.all(b2 == 0.0)
                    assert np.all(a1 == 0.0) and np.all(a2 == 0.0)


class TestInit:
    def test_biases_zero_gates_zero(self, tiny_cfg):
        params = init_params(tiny_cfg, seed=5)
        t = params.tensors
        assert np.all(t["src_in.b"] == 0.0)
        assert np.all(t["layers.0.src.qkv.b"] == 0.0)
        assert np.all(t["layers.0.cond.ffn.b2"] == 0.0)
        # zero-init modulation output keeps every block an identity
        assert np.all(t["layers.0.src.adaln.w2"] == 0.0)
        assert np.all(t["layers.1.cond.adaln.b2"] == 0.0)

    def test_weights_glorot_bounded(self, tiny_cfg):
        params = init_params(tiny_cfg, seed=5)
        w = params.tensors["layers.0.src.qkv.w"]
        limit = np.sqrt(6.0 / (8 + 24))
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > 0.5 * limit

    def test_seed_determinism(self, tiny_cfg):
        a = init_params(tiny_cfg, seed=9)
        b = init_params(tiny_cfg, seed=9)
        c = init_params(tiny_cfg, seed=10)
        assert all(np.array_equal(a.tensors[n], b.tensors[n]) for n in a.tensors)
        assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)

    def test_default_dtype_float32(self, tiny_cfg):
        assert init_params(tiny_cfg, seed=0).tensors["src_in.w"].dtype == np.float32


class TestForwardOracle:
    def test_matches_scalar_oracle_over_draws(self):
        for seed in range(5):
            params = random_tiny_params(seed)
            z, c, g = tiny_inputs(100 + seed)
            got = forward(params, z, c, g)
            want = oracle_forward(params, z, c, g)
            rel = np.abs(got - want).max() / np.abs(want).max()
            assert rel < 1e-5, f"draw {seed}: rel {rel:.2e}"

    def test_oracle_agreement_without_speaker_condition(self):
        params = random_tiny_params(31, use_speaker_condition=False)
        z, c, g = tiny_inputs(131)
        rel = np.abs(forward(params, z, c, g) - oracle_forward(params, z, c, g)).max()
        assert rel < 1e-5

    def test_oracle_agreement_with_frozen_cond(self):
        params = random_tiny_params(32, update_cond_branch=False)
        z, c, g = tiny_inputs(132)
        rel = np.abs(forward(params, z, c, g) - oracle_forward(params, z, c, g)).max()
        assert rel < 1e-5


# (n_heads, d_head): d_model stays even for the sinusoidal positions, and
# d_head 2 and 3 leave 1/sqrt(d_head) inexact in float32.
HEAD_SHAPES = [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4)]

tiny_configs = st.builds(
    lambda heads, n_layers, d_latent, d_cond, d_spk, ffn_ratio, update, speaker: ConverterConfig(
        d_latent=d_latent, d_cond=d_cond, d_spk=d_spk, d_model=heads[0] * heads[1],
        n_layers=n_layers, n_heads=heads[0], d_head=heads[1], ffn_ratio=ffn_ratio,
        update_cond_branch=update, use_speaker_condition=speaker),
    st.sampled_from(HEAD_SHAPES), st.integers(1, 3), st.integers(1, 5), st.integers(1, 4),
    st.integers(1, 3), st.integers(1, 2), st.booleans(), st.booleans(),
)


def random_inputs(cfg, r, t_s, t_c):
    return (r.standard_normal((t_s, cfg.d_latent)),
            r.standard_normal((t_c, cfg.d_cond)),
            r.standard_normal(cfg.d_spk))


class TestForwardProperties:
    # The error is relative to max(1, max|want|), as in acceptance check 5:
    # an output that cancels to about 1e-3 carries float32 rounding of the
    # unit-scale activations, which no relative bound on the output can hold.
    @settings(max_examples=60, deadline=None)
    @given(cfg=tiny_configs, t_s=st.integers(1, 5), t_c=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(cfg=ConverterConfig(d_latent=1, d_cond=1, d_spk=2, d_model=4, n_layers=3, n_heads=1, d_head=4,
                                 ffn_ratio=1, use_speaker_condition=False), t_s=1, t_c=3, seed=479001598)
    @example(cfg=ConverterConfig(d_latent=1, d_cond=3, d_spk=3, d_model=6, n_layers=1, n_heads=2, d_head=3,
                                 ffn_ratio=2, update_cond_branch=False), t_s=1, t_c=1, seed=3)
    def test_matches_scalar_oracle_on_random_geometries(self, cfg, t_s, t_c, seed):
        params = random_params(cfg, seed)
        z, c, g = random_inputs(cfg, np.random.default_rng(seed), t_s, t_c)
        got = forward(params, z, c, g)
        want = oracle_forward(params, z, c, g)
        assert np.abs(got - want).max() / max(1.0, np.abs(want).max()) < 1e-5

    # ROADMAP item 4's fully recorded draws that the test above fails:
    # d_model 2, a frozen condition branch and a float32 residual stream.
    @pytest.mark.xfail(raises=AssertionError, strict=True, reason="ROADMAP item 4: float32 residual stream")
    @pytest.mark.parametrize("cfg, t_s, t_c, seed", [
        (ConverterConfig(d_latent=4, d_cond=2, d_spk=1, d_model=2, n_layers=1, n_heads=1, d_head=2, ffn_ratio=2,
                         update_cond_branch=False), 1, 2, 9999999),
        (ConverterConfig(d_latent=3, d_cond=1, d_spk=1, d_model=2, n_layers=3, n_heads=1, d_head=2, ffn_ratio=1,
                         update_cond_branch=False, use_speaker_condition=False), 1, 5, 2927968364),
        (ConverterConfig(d_latent=2, d_cond=1, d_spk=2, d_model=2, n_layers=3, n_heads=1, d_head=2, ffn_ratio=1,
                         update_cond_branch=False, use_speaker_condition=False), 3, 1, 5981712),
    ], ids=["seed9999999", "seed2927968364", "seed5981712"])
    def test_known_float32_cases_match_scalar_oracle(self, cfg, t_s, t_c, seed):
        params = random_params(cfg, seed)
        z, c, g = random_inputs(cfg, np.random.default_rng(seed), t_s, t_c)
        got = forward(params, z, c, g)
        want = oracle_forward(params, z, c, g)
        assert np.abs(got - want).max() / max(1.0, np.abs(want).max()) < 1e-5

    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs, t_c1=st.integers(1, 5), t_c2=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_closure_is_bitwise_forward_across_reference_changes(self, cfg, t_c1, t_c2, seed):
        params = random_params(cfg, seed)
        r = np.random.default_rng(seed)
        _, c1, g1 = random_inputs(cfg, r, 1, t_c1)
        _, c2, g2 = random_inputs(cfg, r, 1, t_c2)
        conv = make_converter(params)
        # miss, hit, miss, miss back to c1, new speaker, then c1 mutated in place
        calls = [(c1, g1), (c1, g1), (c2, g1), (c1, g1), (c1, g2), (c1, g2)]
        for i, (c, g) in enumerate(calls):
            if i == 5:
                c1 += 0.5
            z = r.standard_normal((int(r.integers(1, 6)), cfg.d_latent))
            assert np.array_equal(conv(z, c, g), forward(params, z, c, g))

    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs, t_c=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_prepared_qkv_is_the_plain_condition_projection(self, cfg, t_c, seed):
        # Each `cond_qkv` entry is the plain condition rows of its layer's
        # packed QKV, bias added: the attention core, not `prepare`, scales
        # the queries. Layer 0's are q, k and v when the branch updates.
        params = random_params(cfg, seed)
        t = params.tensors
        _, c, g = random_inputs(cfg, np.random.default_rng(seed), 1, t_c)
        prep = prepare(params, c, g, {})
        assert len(prep.cond_qkv) == (1 if cfg.update_cond_branch else cfg.n_layers)
        for i, got in enumerate(prep.cond_qkv):
            n, p = len(got), f"layers.{i}.cond."
            assert n == (3 if cfg.update_cond_branch and cfg.n_layers > 1 else 2) * cfg.d_model, i
            ln = _ln_fm_into(prep.h_cond0, np.empty_like(prep.h_cond0), prep.mods[i]["cond"][:2])
            assert np.array_equal(got, t[p + "qkv.w"].T[-n:] @ ln + t[p + "qkv.b"][-n:, None]), i


DTYPES = [np.float16, np.float32, np.float64]


class TestParamsGate:
    # `ConverterParams` is the one description of the weights: the names and
    # shapes of `tensor_shapes(cfg)`, every tensor float32 in Fortran order.
    @settings(max_examples=40, deadline=None)
    @given(cfg=tiny_configs, seed=st.integers(0, 2**32 - 1), edit=st.sampled_from(["drop", "add", "reshape"]),
           data=st.data())
    def test_names_and_shapes_are_those_of_the_config(self, tmp_path_factory, cfg, seed, edit, data):
        tensors = random_params(cfg, seed).tensors
        bad = dict(tensors)
        if edit == "add":
            last = cfg.n_layers - 1
            name = data.draw(st.sampled_from(["extra.w", f"layers.{last + 1}.src.qkv.w",
                                              *(f"layers.{last}.cond.{n}" for n in DEAD)]), label="name")
            bad[name] = np.zeros(3, np.float32)
            match = rf"missing \[\], extra \['{re.escape(name)}'\]"
        else:
            name = data.draw(st.sampled_from(sorted(tensors)), label="name")
            if edit == "drop":
                del bad[name]
                match = rf"missing \['{re.escape(name)}'\], extra \[\]"
            else:
                shape = tensors[name].shape
                wrong = data.draw(st.sampled_from([s for s in (shape[:-1] + (shape[-1] + 1,), shape[::-1], shape + (1,))
                                                   if s != shape]), label="shape")
                bad[name] = np.zeros(wrong, np.float32)
                match = re.escape(f"tensor {name} has shape {wrong}, its config gives {shape}")
        with pytest.raises(ValueError, match=match):
            ConverterParams(cfg, dict(bad))
        # Put in after construction, the entry is refused wherever it is
        # read, and a refused save leaves the file as it was.
        p = tmp_path_factory.mktemp("ckpt") / "m.lvc"
        save_params(p, ConverterParams(cfg, dict(tensors)))
        old = p.read_bytes()
        z, c, g = random_inputs(cfg, np.random.default_rng(seed), 1, 1)
        for use in (lambda q: forward(q, z, c, g), make_converter, lambda q: save_params(p, q)):
            params = ConverterParams(cfg, dict(tensors))
            params.tensors.clear()
            params.tensors.update(bad)
            with pytest.raises(ValueError, match=match):
                use(params)
        assert p.read_bytes() == old and list(p.parent.iterdir()) == [p]

    def test_tensors_of_another_ffn_ratio_are_refused(self, tmp_path):
        # An ffn_ratio-4 model's tensors under an ffn_ratio-2 config have the
        # config's names; saved and loaded back, they once gave other
        # weights with no error.
        cfg = ConverterConfig(**TINY)
        assert cfg.ffn_ratio == 2
        wide = init_params(replace(cfg, ffn_ratio=4), seed=0)
        match = re.escape("tensor layers.0.src.ffn.w1 has shape (8, 32), its config gives (8, 16)")
        with pytest.raises(ValueError, match=match):
            ConverterParams(cfg, dict(wide.tensors))
        wide.cfg = cfg
        p = tmp_path / "m.lvc"
        with pytest.raises(ValueError, match=match):
            save_params(p, wide)
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs, t_s=st.integers(1, 5), t_c=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_every_dtype_is_laid_out_as_float32(self, tmp_path_factory, cfg, t_s, t_c, seed, data):
        # One dtype per dict or one per tensor; each tensor is stored as
        # float32 in Fortran order, so the model is that of the float32
        # cast, and so is an entry of another dtype put in later and saved.
        shapes = tensor_shapes(cfg)
        one = st.sampled_from(DTYPES).map(lambda dt: [dt] * len(shapes))
        dtypes = data.draw(one | st.lists(st.sampled_from(DTYPES), min_size=len(shapes), max_size=len(shapes)),
                           label="dtypes")
        r = np.random.default_rng(seed)
        drawn = {n: (0.2 * r.standard_normal(s)).astype(dt) for (n, s), dt in zip(shapes.items(), dtypes)}
        params = ConverterParams(cfg, dict(drawn))
        cast = ConverterParams(cfg, {n: t.astype(np.float32) for n, t in drawn.items()})
        for built in (params, init_params(cfg, seed)):
            for n, t in built.tensors.items():
                assert t.dtype == np.float32 and t.flags.f_contiguous, n
        z, c, g = random_inputs(cfg, r, t_s, t_c)
        want = forward(cast, z, c, g)
        assert np.array_equal(forward(params, z, c, g), want)
        assert np.array_equal(make_converter(params)(z, c, g), want)
        params.tensors.update(drawn)
        p = tmp_path_factory.mktemp("ckpt") / "m.lvc"
        save_params(p, params)
        loaded = load_params(p)
        for n, t in cast.tensors.items():
            assert np.array_equal(loaded.tensors[n], t), n


class TestStorageLayout:
    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs, seed=st.integers(0, 2**32 - 1))
    def test_every_tensor_is_stored_out_major(self, tmp_path_factory, cfg, seed):
        # One rule in memory and in the file: every tensor in Fortran order,
        # each blob the row-major bytes of its transpose.
        params = random_params(cfg, seed)
        p = tmp_path_factory.mktemp("ckpt") / "m.lvc"
        save_params(p, params)
        loaded = load_params(p)
        row_major = ConverterParams(cfg, {n: t.copy() for n, t in params.tensors.items()})
        for built in (init_params(cfg, seed), row_major, loaded):
            for name, t in built.tensors.items():
                assert t.flags.f_contiguous, name
        raw = p.read_bytes()[read_header(p)[1]:]
        for name, offset in blob_offsets(cfg).items():
            t = params.tensors[name]
            assert loaded.tensors[name].shape == t.shape and loaded.tensors[name].tobytes() == t.tobytes(), name
            assert raw[offset : offset + t.nbytes] == t.T.tobytes(), name

    def test_make_converter_copies_no_weights(self):
        params = init_params(MEDIUM, seed=0)
        nbytes = sum(t.nbytes for t in params.tensors.values())
        conv, peak = traced_peak(make_converter, params)
        assert callable(conv)
        assert peak < 0.05 * nbytes

    def test_init_holds_one_copy(self):
        # Each draw is cast into float32 Fortran order as it is made, so the
        # model is never held in float64 (three times its float32 bytes),
        # nor copied again when the params are built. The slack covers one
        # float64 draw and its temporaries.
        nbytes = sum(4 * math.prod(s) for s in tensor_shapes(MEDIUM).values())
        params, peak = traced_peak(init_params, MEDIUM, 0)
        assert isinstance(params, ConverterParams)
        assert peak < 2 * nbytes

    def test_load_holds_one_copy(self, tmp_path):
        # The weights are views of the mapped file: the process allocates
        # no copy of its own.
        params = init_params(MEDIUM, seed=0)
        nbytes = sum(t.nbytes for t in params.tensors.values())
        p = tmp_path / "m.lvc"
        save_params(p, params)
        loaded, peak = traced_peak(load_params, p)
        assert isinstance(loaded, ConverterParams)
        assert peak < 0.05 * nbytes

    def test_loaded_weights_are_read_only(self, tmp_path):
        p = tmp_path / "m.lvc"
        save_params(p, random_tiny_params(4))
        loaded = load_params(p)
        for t in loaded.tensors.values():
            assert t.flags.f_contiguous and not t.flags.owndata
            with pytest.raises(ValueError, match="read-only"):
                t[...] = 0.0

    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs, t_s=st.integers(1, 5), t_c=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_loaded_converter_is_bitwise_the_saved_one(self, tmp_path_factory, cfg, t_s, t_c, seed):
        params = random_params(cfg, seed)
        p = tmp_path_factory.mktemp("ckpt") / "m.lvc"
        save_params(p, params)
        z, c, g = random_inputs(cfg, np.random.default_rng(seed), t_s, t_c)
        assert np.array_equal(make_converter(load_params(p))(z, c, g), make_converter(params)(z, c, g))

    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs, t_s=st.integers(1, 5), t_c=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_output_independent_of_storage_order(self, cfg, t_s, t_c, seed):
        # Built from a dict in any order, the params hold one layout, so the
        # output does not depend on the order the tensors came in.
        tensors = random_params(cfg, seed).tensors
        z, c, g = random_inputs(cfg, np.random.default_rng(seed), t_s, t_c)
        row_major = ConverterParams(cfg, {n: np.ascontiguousarray(a) for n, a in tensors.items()})
        out_major = ConverterParams(cfg, {n: np.asfortranarray(a) for n, a in tensors.items()})
        for params in (row_major, out_major):
            for n, t in params.tensors.items():
                assert t.flags.f_contiguous, n
        want = forward(out_major, z, c, g)
        assert np.array_equal(forward(row_major, z, c, g), want)
        assert np.array_equal(make_converter(row_major)(z, c, g), want)
        assert np.array_equal(make_converter(out_major)(z, c, g), want)

    @pytest.mark.parametrize("suffix", ["src_in.w", "cond_in.w", "src_out.w", "qkv.w", "attn_out.w", "ffn.w1",
                                        "ffn.w2", "adaln.w1", "adaln.w2"])
    def test_row_major_projection_put_in_later_is_laid_out(self, tiny_params, suffix):
        # A converter lays out the entries it reads when it is built, so a
        # row-major entry put in after construction gives the unedited
        # output, and the caller's dict keeps the entry it was given.
        z, c, g = tiny_inputs(0)
        want = forward(tiny_params, z, c, g)
        names = [n for n in tiny_params.tensors if n.endswith(suffix)]
        assert names
        for name in names:
            params = ConverterParams(tiny_params.cfg, dict(tiny_params.tensors))
            row_major = params.tensors[name] = np.ascontiguousarray(params.tensors[name])
            assert not row_major.flags.f_contiguous, name
            assert np.array_equal(forward(params, z, c, g), want), name
            assert np.array_equal(make_converter(params)(z, c, g), want), name
            assert params.tensors[name] is row_major, name

    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs, t_c1=st.integers(1, 5), t_c2=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_a_converter_reads_the_entries_it_was_built_with(self, cfg, t_c1, t_c2, seed, data):
        params = random_params(cfg, seed)
        unedited = make_converter(ConverterParams(cfg, dict(params.tensors)))
        r = np.random.default_rng(seed)
        _, c1, g1 = random_inputs(cfg, r, 1, t_c1)
        _, c2, g2 = random_inputs(cfg, r, 1, t_c2)
        zs = [r.standard_normal((int(r.integers(1, 6)), cfg.d_latent)) for _ in range(3)]
        conv = make_converter(params)
        assert np.array_equal(conv(zs[0], c1, g1), unedited(zs[0], c1, g1))
        # Scaled copies, some row-major, replace a drawn subset of entries.
        names = data.draw(st.lists(st.sampled_from(sorted(params.tensors)), min_size=1, unique=True), label="names")
        for name in names:
            scaled = params.tensors[name] * np.float32(1.5)
            params.tensors[name] = np.ascontiguousarray(scaled) if data.draw(st.booleans(), label=name) else scaled
        for z, c, g in ((zs[1], c1, g1), (zs[2], c2, g2)):  # the same reference, then a new one
            assert np.array_equal(conv(z, c, g), unedited(z, c, g))
        assert np.array_equal(make_converter(params)(zs[2], c2, g2), forward(params, zs[2], c2, g2))


class TestInitIdentity:
    def test_blocks_are_bitwise_identity(self):
        cfg = ConverterConfig(d_latent=12, d_cond=6, d_spk=4, d_model=16,
                              n_layers=3, n_heads=4, d_head=4)
        params = init_params(cfg, seed=2)
        r = np.random.default_rng(0)
        z, c, g = r.standard_normal((9, 12)), r.standard_normal((4, 6)), r.standard_normal(4)
        out, trace = forward(params, z, c, g, return_trace=True)
        h0_src, h0_cond = trace[0]
        for h_src, h_cond in trace[1:]:
            assert np.array_equal(h_src, h0_src)
            assert np.array_equal(h_cond, h0_cond)

    def test_output_is_projection_path(self):
        cfg = ConverterConfig(d_latent=12, d_cond=6, d_spk=4, d_model=16,
                              n_layers=3, n_heads=4, d_head=4)
        params = init_params(cfg, seed=2)
        t = params.tensors
        r = np.random.default_rng(1)
        z, c, g = r.standard_normal((9, 12)), r.standard_normal((4, 6)), r.standard_normal(4)
        got = forward(params, z, c, g)
        h = z.astype(np.float32) @ t["src_in.w"] + t["src_in.b"]
        h = h + sinusoidal_positions(np.arange(9), 16).astype(np.float32)
        want = layer_norm(h).astype(np.float32) @ t["src_out.w"] + t["src_out.b"]
        assert np.abs(got - want).max() < 1e-5


class TestArchitectureFlags:
    def test_speaker_invariance_when_disabled(self):
        params = random_tiny_params(40, use_speaker_condition=False)
        z, c, _ = tiny_inputs(140)
        r = np.random.default_rng(7)
        outs = [forward(params, z, c, r.standard_normal(3) * scale)
                for scale in (1.0, 50.0, 0.001)]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_speaker_changes_output_when_enabled(self):
        params = random_tiny_params(41)
        z, c, g = tiny_inputs(141)
        a = forward(params, z, c, g)
        b = forward(params, z, c, g + 1.0)
        assert not np.allclose(a, b)

    def test_cond_stream_frozen_when_disabled(self):
        params = random_tiny_params(42, update_cond_branch=False)
        z, c, g = tiny_inputs(142)
        _, trace = forward(params, z, c, g, return_trace=True)
        h0_cond = trace[0][1]
        for _, h_cond in trace[1:]:
            assert np.array_equal(h_cond, h0_cond)

    def test_cond_stream_evolves_by_default(self):
        params = random_tiny_params(42)
        z, c, g = tiny_inputs(142)
        _, trace = forward(params, z, c, g, return_trace=True)
        assert not np.allclose(trace[0][1], trace[-1][1])

    @pytest.mark.parametrize("update", [True, False])
    def test_last_block_repeats_its_condition_state(self, update):
        params = random_tiny_params(44, update_cond_branch=update)
        _, trace = forward(params, *tiny_inputs(144), return_trace=True)
        assert len(trace) == params.cfg.n_layers + 1
        assert np.array_equal(trace[-1][1], trace[-2][1])
        assert not np.array_equal(trace[-1][0], trace[-2][0])

    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs, t_s=st.integers(1, 5), t_c=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_no_speaker_is_the_identity_modulation(self, cfg, t_s, t_c, seed):
        # Without speaker conditioning every block is modulated by gamma =
        # beta = 0 and alpha = 1: the same model as one whose adaLN output
        # layers give exactly those, whatever the speaker vector.
        d, t = cfg.d_model, dict(random_params(cfg, seed).tensors)
        identity = {6: [0, 0, 1, 0, 0, 1], 2: [0, 0]}
        for name in t:
            if name.endswith("adaln.w2"):
                t[name] = np.zeros_like(t[name])
            elif name.endswith("adaln.b2"):
                t[name] = np.repeat(np.float32(identity[len(t[name]) // d]), d)
        off = ConverterParams(replace(cfg, use_speaker_condition=False), t)
        on = ConverterParams(replace(cfg, use_speaker_condition=True), t)
        z, c, g = random_inputs(cfg, np.random.default_rng(seed), t_s, t_c)
        (want, want_trace), (got, got_trace) = (forward(p, z, c, g, return_trace=True) for p in (off, on))
        assert np.array_equal(got, want)
        for a, b in zip(got_trace, want_trace):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_each_flag_changes_default_output(self):
        base = random_tiny_params(43)
        z, c, g = tiny_inputs(143)
        ref = forward(base, z, c, g)
        for kw in ({"use_speaker_condition": False}, {"update_cond_branch": False}):
            alt = ConverterParams(ConverterConfig(**{**TINY, **kw}), base.tensors)
            assert not np.allclose(forward(alt, z, c, g), ref)


class TestForwardValidation:
    def test_bad_latent_width(self, tiny_params):
        z, c, g = tiny_inputs(0)
        with pytest.raises(ValueError):
            forward(tiny_params, z[:, :4], c, g)

    def test_bad_cond_width(self, tiny_params):
        z, c, g = tiny_inputs(0)
        with pytest.raises(ValueError):
            forward(tiny_params, z, c[:, :2], g)

    def test_bad_speaker_dim(self, tiny_params):
        z, c, g = tiny_inputs(0)
        with pytest.raises(ValueError):
            forward(tiny_params, z, c, np.zeros(5))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2, 4)])
    def test_speaker_vector_shape_is_checked_as_given(self, tiny_params, shape):
        # d_spk is 3: a vector of 3 elements in another shape is refused too,
        # and the error names the shape that was passed.
        z, c, _ = tiny_inputs(0)
        with pytest.raises(ValueError, match=re.escape(f"speaker vector must be (3,), got {shape}")):
            forward(tiny_params, z, c, np.zeros(shape))

    def test_empty_frames(self, tiny_params):
        z, c, g = tiny_inputs(0)
        with pytest.raises(ValueError):
            forward(tiny_params, z[:0], c, g)

    def test_empty_condition(self, tiny_params):
        z, c, g = tiny_inputs(0)
        with pytest.raises(ValueError, match="condition must have at least one frame"):
            forward(tiny_params, z, c[:0], g)

    def test_non_finite_rejected(self, tiny_params):
        z, c, g = tiny_inputs(0)
        z_bad = z.copy()
        z_bad[1, 2] = np.nan
        with pytest.raises(NonFiniteError):
            forward(tiny_params, z_bad, c, g)
        g_bad = g.copy()
        g_bad[0] = np.inf
        with pytest.raises(NonFiniteError):
            forward(tiny_params, z, c, g_bad)

    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs, t_s=st.integers(1, 5), t_c=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           which=st.sampled_from([0, 1, 2]), value=st.floats(3.5e38, 1e300), negative=st.booleans(),
           data=st.data())
    def test_input_past_float32_range_is_refused(self, cfg, t_s, t_c, seed, which, value, negative, data):
        # A finite float64 past float32's range becomes inf in the converter's
        # float32 cast. Each input is refused by name, with no RuntimeWarning,
        # and the closure keeps its previous reference and prepared state.
        params = random_params(cfg, seed)
        good = random_inputs(cfg, np.random.default_rng(seed), t_s, t_c)
        bad = [a.copy() for a in good]
        at = data.draw(st.tuples(*(st.integers(0, n - 1) for n in bad[which].shape)))
        bad[which][at] = -value if negative else value
        refusal = ("source latents are", "condition is", "speaker vector is")[which] + " not finite in float32"
        want = forward(params, *good)
        conv = make_converter(params)
        with warnings.catch_warnings(), mock.patch.object(converter_module, "prepare", wraps=prepare) as prepares:
            warnings.simplefilter("error", RuntimeWarning)
            conv(*good)
            with pytest.raises(NonFiniteError, match=f"^{refusal}$"):
                forward(params, *bad)
            prepares.reset_mock()
            with pytest.raises(NonFiniteError, match=f"^{refusal}$"):
                conv(*bad)
            refused = prepares.call_count
            assert np.array_equal(conv(*good), want)
            assert prepares.call_count == refused


@pytest.fixture(scope="module")
def default_params():
    return init_params(ConverterConfig(), seed=0)


class TestMakeConverter:
    def test_matches_direct_forward(self, tiny_params):
        conv = make_converter(tiny_params)
        for seed in (1, 2, 1):  # revisit the first speaker to hit the cache
            z, c, g = tiny_inputs(seed)
            assert np.array_equal(conv(z, c, g), forward(tiny_params, z, c, g))

    @pytest.mark.parametrize("flags, copied", [({}, False), ({"update_cond_branch": False}, False),
                                               ({"use_speaker_condition": False}, False), ({}, True)],
                             ids=["default", "frozen", "no-speaker", "copied"])
    def test_warm_call_reuses_its_buffers(self, default_params, flags, copied):
        # After a call with the same reference, what a call holds at its peak
        # is its output and the bool temporaries of comparing (c, g) with the
        # copy it keeps, one byte an element; a copy of the reference would
        # not fit. A work buffer allocated per call and alive when the output
        # is made would show, as 16 KiB is far below the smallest,
        # (d_model, T_c) = 56 KiB here. Row-major `.copy()`s of the weights
        # are laid out when the params are built, so a call copies no weight.
        tensors = {k: v.copy() for k, v in default_params.tensors.items()} if copied else default_params.tensors
        params = ConverterParams(replace(default_params.cfg, **flags), tensors)
        r = np.random.default_rng(5)
        z, c, g = r.standard_normal((150, 1024)), r.standard_normal((28, 128)), r.standard_normal(192)
        conv = make_converter(params)
        conv(z, c, g)
        y, peak = traced_peak(conv, z, c, g)
        assert peak < y.nbytes + c.size + g.size + 16 * 1024

    def test_cold_forward_holds_one_score_matrix(self):
        # Attention runs one head at a time through one (T, T) score buffer,
        # so a cold call peaks below the n_heads*T*T float32 scores that
        # every head's at once would take alone.
        params = init_params(MEDIUM, seed=0)
        r = np.random.default_rng(0)
        t_s, t_c = 64, 448
        z, c, g = (r.standard_normal((t_s, MEDIUM.d_latent)), r.standard_normal((t_c, MEDIUM.d_cond)),
                   r.standard_normal(MEDIUM.d_spk))
        y, peak = traced_peak(forward, params, z, c, g)
        assert y.shape == z.shape
        assert peak < MEDIUM.n_heads * (t_s + t_c) ** 2 * 4

    def test_cold_forward_holds_four_work_buffers(self):
        # The packed QKV and the FFN hidden array (GELU'd in place) share one
        # arena by phase; each head's attention output overwrites its own
        # query rows of the packed QKV; the scores, the attention-out and the
        # FFN-out products go to `ln`. So a cold call holds four work
        # buffers, the position table of its longer sequence, the prepared
        # reference (the condition state and layer 0's condition q, k, v) and
        # its output. A separate buffer for the scores, the attention output
        # or an FFN-out product would not fit in the slack, which covers
        # numpy's ufunc buffers (8192 elements an operand) and per-column
        # statistics.
        params = init_params(MEDIUM, seed=0)
        r = np.random.default_rng(0)
        t_s, t_c = 64, 448
        z, c, g = (r.standard_normal((t_s, MEDIUM.d_latent)), r.standard_normal((t_c, MEDIUM.d_cond)),
                   r.standard_normal(MEDIUM.d_spk))
        d, T = MEDIUM.d_model, t_s + t_c
        # src.h, cond.h, ln (a normed state or the (T, T) scores), and work:
        # the staged latents, the packed qkv or the FFN hidden array
        ln = max(d * t_c, T * T)
        arena = max(MEDIUM.d_latent * t_s, 3 * d * T, MEDIUM.d_ffn * t_c)
        work = d * t_s + d * t_c + ln + arena
        assert 4 * work == 1_638_400
        pe = max(t_s, t_c) * d  # the position table, built inside each forward call
        assert 4 * pe == 114_688
        scratch = {}
        _convert(params, prepare(params, c, g, scratch), z, scratch)
        assert sorted(scratch) == ["cond.h", "ln", "pe", "src.h", "work"]
        assert sum(a.nbytes for a in scratch.values()) == 4 * (work + pe)
        y, peak = traced_peak(forward, params, z, c, g)
        assert peak < 4 * (work + pe + 4 * d * t_c) + y.nbytes + 128 * 1024

    # Latents wide enough that each of the arena's phases (staged latents,
    # packed QKV, FFN hidden array) is its largest for some drawn (T_s, T_c)
    # with the condition branch updated: 320·T_s, 192·T and 256·max(T_s, T_c)
    # at (48, 1), (48, 64) and (1, 64). So is each of `ln`'s roles: at
    # d_model 64 and T up to 112, T² (up to 12544) is above d·max(T_s, T_c)
    # (at most 4096) for the larger draws, so the (T, T_q) scores set its
    # size there and a (d, max(T_s, T_c)) normed state elsewhere.
    ARENA = replace(MEDIUM, d_latent=320)

    @pytest.mark.parametrize("flags", [{}, {"update_cond_branch": False}, {"use_speaker_condition": False},
                                       {"n_layers": 1}], ids=["default", "frozen", "no-speaker", "one-layer"])
    @settings(max_examples=15, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(1, 48), st.integers(1, 64)), min_size=2, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(shapes=[(1, 64), (48, 1), (1, 1), (48, 64), (1, 1)], seed=0)
    def test_arena_survives_growing_and_shrinking(self, flags, shapes, seed):
        # One closure's arena grows and shrinks with the call; a view kept
        # across a regrowth, or an arena sized short of one phase's array,
        # would make some call differ from a fresh forward or fail.
        params = random_params(replace(self.ARENA, **flags), seed)
        r = np.random.default_rng(seed)
        conv = make_converter(params)
        for t_s, t_c in shapes:
            z, c, g = random_inputs(params.cfg, r, t_s, t_c)
            assert np.array_equal(conv(z, c, g), forward(params, z, c, g))

    def test_one_positional_table_grows_to_the_longest_length(self, tiny_params):
        # Training pairs change the condition length with every call; every
        # length reads the first rows of its scratch's one table rather than
        # a copy of its own, and another scratch keeps its own table.
        d = tiny_params.cfg.d_model
        lengths = [int(n) for n in np.random.default_rng(3).permutation(np.arange(2, 82, 2))]
        scratch, other = {}, {}
        z, c, g = tiny_inputs(0, t_s=1, t_c=1)
        _convert(tiny_params, prepare(tiny_params, c, g, other), z, other)
        other_table = other["pe"]
        for t_c in lengths:
            z, c, g = tiny_inputs(t_c, t_s=1, t_c=t_c)
            _convert(tiny_params, prepare(tiny_params, c, g, scratch), z, scratch)
        table = scratch["pe"]
        assert len(lengths) == 40 and len(table) == max(lengths) and not table.flags.writeable
        for n in (1, *lengths):
            want = sinusoidal_positions(np.arange(n), d).astype(np.float32)
            assert np.array_equal(_positions(scratch, n, d), want)
        assert scratch["pe"] is table
        assert other["pe"] is other_table and len(other_table) == 1

    def test_positions_are_computed_only_when_the_longest_length_grows(self, tiny_params, monkeypatch):
        # Each training example brings a new reference, so `prepare` runs on
        # every call; the table is recomputed only for a sequence longer than
        # any the converter has seen, the condition's first, then the source's.
        r = np.random.default_rng(8)
        inputs = [tiny_inputs(j, t_s=int(t_s), t_c=int(t_c))
                  for j, (t_s, t_c) in enumerate(zip(r.integers(1, 24, 40), r.integers(1, 48, 40)))]
        wants = [forward(tiny_params, *x) for x in inputs]
        calls = []

        def counted(positions, d_model):
            calls.append(len(positions))
            return sinusoidal_positions(positions, d_model)

        monkeypatch.setattr(converter_module, "sinusoidal_positions", counted)
        conv = make_converter(tiny_params)
        grows, longest = [], 0
        for (z, c, g), want in zip(inputs, wants):
            assert np.array_equal(conv(z, c, g), want)
            for n in (len(c), len(z)):
                if n > longest:
                    grows.append(n)
                    longest = n
        assert calls == grows and len(calls) < 10

    def test_refused_reference_is_refused_again(self, tiny_params):
        # A reference that prepare refuses must not become the cached one,
        # or the next call with it would reuse the previous reference's state.
        conv = make_converter(tiny_params)
        z, c, g = tiny_inputs(1)
        conv(z, c, g)
        wide = np.zeros((3, TINY["d_cond"] + 1))
        for _ in range(2):
            with pytest.raises(ValueError, match="condition must be"):
                conv(z, wide, g)
        assert np.array_equal(conv(z, c, g), forward(tiny_params, z, c, g))

    def test_reference_equal_in_value_is_not_prepared_again(self, tiny_params, monkeypatch):
        # `prepare` casts the reference to float32, so a float64 reference
        # equal in value to the cached float32 one reuses its state.
        z, c, g = tiny_inputs(1)
        c32, g32 = c.astype(np.float32), g.astype(np.float32)
        c64, g64 = c32.astype(np.float64), g32.astype(np.float64)
        want = forward(tiny_params, z, c64, g64)
        calls = []
        real_prepare = converter_module.prepare

        def counted(params, c, g, scratch):
            calls.append((c.dtype, g.dtype))
            return real_prepare(params, c, g, scratch)

        monkeypatch.setattr(converter_module, "prepare", counted)
        conv = make_converter(tiny_params)
        assert np.array_equal(conv(z, c32, g32), want)
        assert np.array_equal(conv(z, c64, g64), want)
        assert np.array_equal(conv(z, c64, g32), want)
        assert calls == [(np.float32, np.float32)]

    def test_refuses_reentrant_call(self, tiny_params):
        conv = make_converter(tiny_params)
        z, c, g = tiny_inputs(1)
        refused = []

        class Reenters:
            def __array__(self, dtype=None, copy=None):
                with pytest.raises(RuntimeError, match="single-stream"):
                    conv(z, c, g)
                refused.append(True)
                return np.asarray(c, dtype=dtype)

        assert np.array_equal(conv(z, Reenters(), g), forward(tiny_params, z, c, g))
        assert refused == [True]

    def test_refuses_concurrent_call(self, tiny_params):
        conv = make_converter(tiny_params)
        z, c, g = tiny_inputs(1)
        entered, release = threading.Event(), threading.Event()

        class Blocks:
            def __array__(self, dtype=None, copy=None):
                entered.set()
                release.wait(10)
                return np.asarray(c, dtype=dtype)

        worker = threading.Thread(target=conv, args=(z, Blocks(), g))
        worker.start()
        try:
            assert entered.wait(10)
            with pytest.raises(RuntimeError, match="single-stream"):
                conv(z, c, g)
        finally:
            release.set()
            worker.join(10)
        assert np.array_equal(conv(z, c, g), forward(tiny_params, z, c, g))

    def test_concurrent_callers_get_their_output_or_a_refusal(self, tiny_params):
        conv = make_converter(tiny_params)
        inputs = [tiny_inputs(j, t_s=2 + j, t_c=1 + j) for j in range(4)]
        wants = [forward(tiny_params, *x) for x in inputs]
        counts = [{"ok": 0, "refused": 0, "wrong": 0} for _ in inputs]
        deadline = time.monotonic() + 1.0

        def hammer(j):
            while time.monotonic() < deadline:
                try:
                    out = conv(*inputs[j])
                except RuntimeError as exc:
                    counts[j]["refused" if "single-stream" in str(exc) else "wrong"] += 1
                    continue
                except Exception:
                    counts[j]["wrong"] += 1
                    continue
                counts[j]["ok" if np.array_equal(out, wants[j]) else "wrong"] += 1

        threads = [threading.Thread(target=hammer, args=(j,)) for j in range(len(inputs))]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(10)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert sum(c["wrong"] for c in counts) == 0, counts
        assert sum(c["ok"] for c in counts) > 0

    def test_identity_converter_passthrough(self):
        z = np.ones((3, 1024))
        assert identity_converter(z, np.zeros((2, 128)), np.zeros(192)) is z


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny_params, tmp_path):
        p = tmp_path / "m.lvc"
        save_params(p, tiny_params)
        loaded = load_params(p)
        assert loaded.cfg == tiny_params.cfg
        for name in tiny_params.tensors:
            got = loaded.tensors[name]
            assert got.dtype == np.float32
            assert np.array_equal(got, tiny_params.tensors[name])

    def test_forward_agreement_after_reload(self, tiny_params, tmp_path):
        p = tmp_path / "m.lvc"
        save_params(p, tiny_params)
        z, c, g = tiny_inputs(3)
        assert np.array_equal(forward(load_params(p), z, c, g),
                              forward(tiny_params, z, c, g))

    def test_bad_magic(self, tiny_params, tmp_path):
        p = tmp_path / "m.lvc"
        save_params(p, tiny_params)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_params(p)

    def test_truncated_tensor_data(self, tiny_params, tmp_path):
        p = tmp_path / "m.lvc"
        save_params(p, tiny_params)
        p.write_bytes(p.read_bytes()[:-40])
        with pytest.raises(CheckpointError):
            load_params(p)

    def test_truncated_header(self, tiny_params, tmp_path):
        p = tmp_path / "m.lvc"
        save_params(p, tiny_params)
        p.write_bytes(p.read_bytes()[:10])
        with pytest.raises(CheckpointError):
            load_params(p)

    def test_version_mismatch(self, tiny_params, tmp_path):
        p = tmp_path / "m.lvc"
        save_params(p, tiny_params)
        rewrite_header(p, lambda h: h.update(format_version=99))
        with pytest.raises(CheckpointError):
            load_params(p)

    # Only format 5 loads: 1 to 4, once loaded, are refused like any other
    # version, and the version must be a plain int: 5.0 and True too.
    @pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 6, 5.0, True])
    def test_neighbouring_versions_refused(self, tiny_params, tmp_path, version):
        p = tmp_path / "m.lvc"
        save_params(p, tiny_params)
        rewrite_header(p, lambda h: h.update(format_version=version))
        with pytest.raises(CheckpointError, match="version mismatch"):
            load_params(p)

    @pytest.mark.parametrize("write", [save_v1, save_v2, save_v3, save_v4])
    def test_older_formats_are_refused(self, tmp_path, write):
        # Each older format is refused for its version; relabelled 5, for its
        # manifest; and relabelled 5 without it, formats 1 and 2, which hold
        # the whole last block, for their size. Format 4 is format 5 with a
        # manifest, so it then loads bitwise, and format 3, format 4 with
        # row-major adaptive-norm matrices, loads with only those scrambled:
        # only the version number tells them apart.
        params = random_tiny_params(5)
        p = tmp_path / "m.lvc"
        write(p, params)
        version = read_header(p)[0]["format_version"]
        with pytest.raises(CheckpointError, match=rf"version mismatch \(file {version}, supported 5\)"):
            load_params(p)
        rewrite_header(p, lambda h: h.update(format_version=5))
        with pytest.raises(CheckpointError, match=r"header keys \['config', 'format_version', 'manifest'\]"):
            load_params(p)
        rewrite_header(p, lambda h: h.pop("manifest"))
        if version < 3:
            with pytest.raises(CheckpointError, match="its header and tensors take"):
                load_params(p)
            return
        loaded = load_params(p)
        for name, t in params.tensors.items():
            assert np.array_equal(loaded.tensors[name], t) != (version == 3 and ".adaln.w" in name), name

    def test_format_5_drops_the_dead_tensors(self, tmp_path):
        # Default model: the last block's condition branch loses 3.68 M
        # parameters, 14.7 MB of the file. The header is the version and
        # the config alone.
        cfg = ConverterConfig()
        shapes = tensor_shapes(cfg)
        params = ConverterParams(cfg, {n: np.zeros(s, np.float32) for n, s in shapes.items()})
        p = tmp_path / "m.lvc"
        save_params(p, params)
        header, header_end = read_header(p)
        assert header == {"format_version": 5, "config": asdict(cfg)} and header_end == 256
        last = f"layers.{cfg.n_layers - 1}.cond."
        assert not any(last + n in shapes for n in DEAD)
        assert shapes[last + "qkv.w"] == shapes[last + "adaln.w2"] == (512, 1024)
        whole_block = 4 * sum(math.prod(s) for s in whole_block_shapes(cfg).values())
        assert p.stat().st_size - header_end == 4 * param_count(params) == whole_block - 14_702_592

    # The header and its config are JSON objects: the order of their keys
    # does not matter.
    @pytest.mark.parametrize("edit", [reverse_keys, lambda h: reverse_keys(h["config"])], ids=["header", "config"])
    def test_key_order_does_not_matter(self, tiny_params, tmp_path, edit):
        p = tmp_path / "m.lvc"
        save_params(p, tiny_params)
        before = read_header(p)[0]
        rewrite_header(p, edit)
        after = read_header(p)[0]
        assert after == before and [list(after), list(after["config"])] != [list(before), list(before["config"])]
        loaded = load_params(p)
        assert loaded.cfg == tiny_params.cfg
        for name, t in tiny_params.tensors.items():
            assert np.array_equal(loaded.tensors[name], t), name

    def test_saving_over_a_loaded_file_keeps_its_weights(self, tmp_path):
        p = tmp_path / "m.lvc"
        save_params(p, random_tiny_params(7))
        loaded = load_params(p)
        conv = make_converter(loaded)
        z, c, g = tiny_inputs(7)
        before = {n: t.copy() for n, t in loaded.tensors.items()}
        out = conv(z, c, g)
        save_params(p, loaded)  # the mapped weights, saved over their own file
        save_params(p, random_tiny_params(8))
        for name, t in loaded.tensors.items():
            assert np.array_equal(t, before[name]), name
        assert np.array_equal(conv(z, c, g), out)
        assert np.array_equal(forward(loaded, z, c, g), out)
        assert not np.array_equal(load_params(p).tensors["src_in.w"], before["src_in.w"])
        assert list(tmp_path.iterdir()) == [p]

    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch):
        # A save that fails after writing the header, here at the first
        # blob, leaves the old file and no temporary beside it.
        p = tmp_path / "m.lvc"
        save_params(p, random_tiny_params(9))
        old = p.read_bytes()
        writes = []
        real_replacing = converter_module._replacing

        class FailsAfterHeader:
            def __init__(self, f):
                self.f = f

            def write(self, data):
                if len(writes) == 3:  # magic, header length, header
                    raise OSError(28, "No space left on device")
                writes.append(bytes(data))
                return self.f.write(data)

        @contextmanager
        def failing(path):
            with real_replacing(path) as f:
                yield FailsAfterHeader(f)

        monkeypatch.setattr(converter_module, "_replacing", failing)
        with pytest.raises(OSError, match="No space left on device"):
            save_params(p, random_tiny_params(10))
        assert writes[0] == b"LVCPRM01" and json.loads(writes[2])["format_version"] == 5
        assert p.read_bytes() == old
        assert list(tmp_path.iterdir()) == [p]

    # A damaged file must be refused from its header and size alone: the
    # traced peak stays far below the model's bytes, so no tensor was read.
    def medium_checkpoint(self, tmp_path):
        params = init_params(MEDIUM, seed=0)
        p = tmp_path / "m.lvc"
        save_params(p, params)
        return p, sum(t.nbytes for t in params.tensors.values())

    def assert_refused_unread(self, p, nbytes):
        err, peak = traced_peak(load_params, p)
        assert isinstance(err, CheckpointError), repr(err)
        assert peak < 0.1 * nbytes

    def test_unaligned_file_is_refused(self, tmp_path):
        p, nbytes = self.medium_checkpoint(tmp_path)
        assert read_header(p)[1] % 64 == 0
        save_unaligned(p, init_params(MEDIUM, seed=0))
        assert read_header(p)[1] % 4 == 1
        self.assert_refused_unread(p, nbytes)
        with pytest.raises(CheckpointError, match="64-byte boundary"):
            load_params(p)

    # Config values must have their field's JSON type: 2.0 is not an int,
    # and neither true nor 1 nor "no" is an int or a bool of the other kind.
    # d_model must also be even.
    @pytest.mark.parametrize("field, value", [
        ("n_layers", 2.0),
        ("ffn_ratio", True),
        ("update_cond_branch", "no"),
        ("use_speaker_condition", 1),
        ("d_model", 63),
    ], ids=["float-for-int", "bool-for-int", "str-for-bool", "int-for-bool", "odd-d_model"])
    def test_config_value_of_the_wrong_type(self, tmp_path, field, value):
        p, nbytes = self.medium_checkpoint(tmp_path)
        rewrite_header(p, lambda h: h["config"].__setitem__(field, value))
        self.assert_refused_unread(p, nbytes)
        with pytest.raises(CheckpointError, match=f"invalid config in header.*{field} must"):
            load_params(p)

    def test_header_length_past_eof(self, tmp_path):
        p, nbytes = self.medium_checkpoint(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[8:16] = (2**62).to_bytes(8, "little")
        p.write_bytes(bytes(raw))
        self.assert_refused_unread(p, nbytes)

    def test_truncated_mid_tensor(self, tmp_path):
        p, nbytes = self.medium_checkpoint(tmp_path)
        header_end = read_header(p)[1]
        p.write_bytes(p.read_bytes()[: header_end + blob_offsets(MEDIUM)["layers.1.src.ffn.w1"] + 6])
        self.assert_refused_unread(p, nbytes)

    # The file must be exactly its header and the blobs of its config.
    @pytest.mark.parametrize("edit", [lambda raw: raw + b"\0", lambda raw: raw[:-1]], ids=["longer", "shorter"])
    def test_file_one_byte_off_is_refused(self, tmp_path, edit):
        p, nbytes = self.medium_checkpoint(tmp_path)
        size = p.stat().st_size
        p.write_bytes(edit(p.read_bytes()))
        self.assert_refused_unread(p, nbytes)
        off_by_one = p.stat().st_size
        with pytest.raises(CheckpointError, match=f"file is {off_by_one} bytes, its header and tensors take {size}"):
            load_params(p)

    # The header holds the version and the config and nothing else.
    @pytest.mark.parametrize("edit, keys", [
        (lambda h: h.update(manifest={}), "['config', 'format_version', 'manifest']"),
        (lambda h: h.pop("config"), "['format_version']"),
    ], ids=["extra-key", "no-config"])
    def test_header_of_other_keys_is_refused(self, tmp_path, edit, keys):
        p, nbytes = self.medium_checkpoint(tmp_path)
        rewrite_header(p, edit)
        self.assert_refused_unread(p, nbytes)
        with pytest.raises(CheckpointError, match=re.escape(f"header keys {keys}, not format_version and config")):
            load_params(p)

    @pytest.mark.parametrize("header", [[1, 2], None, "x", 3])
    def test_header_not_an_object(self, tmp_path, header):
        p, nbytes = self.medium_checkpoint(tmp_path)
        replace_header(p, header)
        self.assert_refused_unread(p, nbytes)

    @pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"{not json"], ids=["not-utf8", "not-json"])
    def test_header_that_is_not_json_text(self, tmp_path, blob):
        p, nbytes = self.medium_checkpoint(tmp_path)
        raw, (_, header_end) = p.read_bytes(), read_header(p)
        blob += b" " * ((-16 - len(blob)) % 64)
        replace_file(p, raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[header_end:])
        self.assert_refused_unread(p, nbytes)
        with pytest.raises(CheckpointError, match="unreadable header"):
            load_params(p)

    def test_file_that_cannot_be_mapped_is_refused(self, tmp_path, monkeypatch):
        p, _ = self.medium_checkpoint(tmp_path)

        def no_map(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr("mmap.mmap", no_map)
        with pytest.raises(CheckpointError, match=r"cannot map file \(\[Errno 12\] Cannot allocate memory\)"):
            load_params(p)

    def test_short_read_is_refused(self, tmp_path, monkeypatch):
        # The file shrinks after its size was checked, here to a cut inside
        # a tensor: the per-tensor check against the map's length must catch
        # it and name that tensor.
        p, _ = self.medium_checkpoint(tmp_path)
        header_end = read_header(p)[1]
        full = p.stat().st_size
        p.write_bytes(p.read_bytes()[: header_end + blob_offsets(MEDIUM)["layers.1.src.ffn.w1"] + 4096])
        real_fstat = os.fstat

        def stale_fstat(fd):
            st = list(real_fstat(fd))
            st[6] = full  # st_size
            return os.stat_result(st)

        monkeypatch.setattr(os, "fstat", stale_fstat)
        with pytest.raises(CheckpointError, match=r"short read in tensor layers\.1\.src\.ffn\.w1\)"):
            load_params(p)
