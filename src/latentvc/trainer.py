"""Loss terms and supervision assembly.

Two losses are in scope: L1 between log-mel spectrograms (reconstruction)
and MSE between speaker embeddings (similarity). Both are closed-form in
their direct inputs, so each returns its value together with an analytic
gradient w.r.t. that input (the predicted mel matrix, the predicted
embedding). Gradients through the feature extractors or the converter are
out of scope; no autodiff here. `loss_breakdown` scores two waveforms with
both terms, as the `eval-loss` command reports them.

`assemble_supervision` turns one cropped training example into the tensors
a training step would consume: source latents, conditioning features from
the excised-condition waveform, and the target-side latents and mel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features as _features
from .audio_io import Waveform
from .codec import CodecInterface, toy_codec
from .dataprep import TrainingExample


def mel_l1(pred_mel: np.ndarray, target_mel: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute difference over all (frame, bin) entries, with its
    gradient sign(pred - target)/N w.r.t. the predicted mel."""
    pred_mel = np.asarray(pred_mel, dtype=np.float64)
    target_mel = np.asarray(target_mel, dtype=np.float64)
    if pred_mel.shape != target_mel.shape:
        raise ValueError(f"mel shapes differ: {pred_mel.shape} vs {target_mel.shape}")
    diff = pred_mel - target_mel
    loss = float(np.abs(diff).mean())
    return loss, np.sign(diff) / diff.size


def embedding_mse(pred_emb: np.ndarray, target_emb: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error with gradient 2*(pred - target)/dim w.r.t. pred."""
    pred_emb = np.asarray(pred_emb, dtype=np.float64)
    target_emb = np.asarray(target_emb, dtype=np.float64)
    if pred_emb.shape != target_emb.shape:
        raise ValueError(f"embedding shapes differ: {pred_emb.shape} vs {target_emb.shape}")
    diff = pred_emb - target_emb
    loss = float((diff * diff).mean())
    return loss, 2.0 * diff / diff.size


@dataclass(frozen=True)
class LossBreakdown:
    mel_recon: float
    spk_sim: float

    def __post_init__(self) -> None:
        for name, v in (("mel_recon", self.mel_recon), ("spk_sim", self.spk_sim)):
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    @property
    def total(self) -> float:
        return self.mel_recon + self.spk_sim

    def to_dict(self) -> dict:
        return {"mel_recon": self.mel_recon, "spk_sim": self.spk_sim, "total": self.total}


def loss_breakdown(pred: Waveform, target: Waveform) -> LossBreakdown:
    """`mel_l1` of two equal-length waveforms' log-mels and `embedding_mse`
    of their speaker embeddings; one mel per waveform."""
    if len(pred) != len(target):
        raise ValueError(f"waveform lengths differ: {len(pred)} vs {len(target)}")
    mel_p, mel_t = _features.mel_spectrogram(pred), _features.mel_spectrogram(target)
    mel, _ = mel_l1(mel_p, mel_t)
    spk, _ = embedding_mse(_features.speaker_embedding(mel_p), _features.speaker_embedding(mel_t))
    return LossBreakdown(mel_recon=mel, spk_sim=spk)


def assemble_supervision(
    example: TrainingExample,
    codec: CodecInterface | None = None,
    features=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build (z_src, c, g, z_tgt, mel_tgt) for one training example.

    Source latents come from the source segment; the frame-level condition
    and the speaker embedding come from the condition waveform (the target
    utterance with the target segment removed); supervision targets are the
    target segment's latents and mel. `features` may supply alternative
    `mel_spectrogram`/`speaker_embedding` callables; `speaker_embedding`
    takes the mel that `mel_spectrogram` returned.
    """
    codec = codec if codec is not None else toy_codec()
    features = features if features is not None else _features
    z_src = codec.encode(example.source_seg)
    c = features.mel_spectrogram(example.cond_wave)
    g = features.speaker_embedding(c)
    z_tgt = codec.encode(example.target_seg)
    mel_tgt = features.mel_spectrogram(example.target_seg)
    return z_src, c, g, z_tgt, mel_tgt
