"""Extract the two conditioning features from audio.

A log-mel spectrogram carries the local spectral envelope (one 128-band
row per 16 ms hop), and a 192-dim unit-norm speaker embedding summarizes
the whole utterance through stat pooling of those rows.
"""
import numpy as np

from latentvc import frame_count, mel_spectrogram, speaker_embedding
from latentvc.dataprep import synth_pair

pair = synth_pair(content_seed=7, speaker_a=3, speaker_b=4, duration_s=4.8)

mel = mel_spectrogram(pair.real)
print(f"input: {len(pair.real)} samples -> mel {mel.shape} "
      f"(frame_count says {frame_count(len(pair.real))})")
print(f"mel value range: [{mel.min():.2f}, {mel.max():.2f}] (natural log, floored)")

emb_a = speaker_embedding(mel)
emb_b = speaker_embedding(mel_spectrogram(pair.generated))
print(f"speaker embedding: dim {emb_a.shape[0]}, "
      f"norm {np.linalg.norm(emb_a):.6f}")

cos = float(emb_a @ emb_b)
print(f"cosine between the two renderings of the same content: {cos:.4f}")
print("(the renderings share every tone, so this stat-pooled embedding")
print(" keeps them highly correlated; the gap below 1 is the speaker")
print(" margin the similarity loss works with)")

same = speaker_embedding(mel_spectrogram(pair.real))
print(f"deterministic for a fixed seed: {np.array_equal(emb_a, same)}")
