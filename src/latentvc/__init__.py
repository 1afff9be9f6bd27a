"""Streaming voice conversion in a toy codec latent space.

Audio is encoded framewise into an invertible latent representation, a
dual-conditioned transformer maps source latents toward a target voice in
one step, and a chunkwise streaming engine emits audio with a fixed,
accounted-for latency. Training-data construction (synthetic pairs, role
assignment, segment excision) and the in-scope loss terms live alongside.

`__all__` is what `from latentvc import *` gives: the waveform and its WAV
I/O, the codec, the converter and its checkpoints, the data preparation,
features and losses, and `offline_run` and `stream_run`, which convert
waveforms. It is not all that the command line and the benchmark use: they
also import widths, constants and building blocks, such as `D_LATENT`,
`speaker_embedding_from_mel` or `SEGMENT_SAMPLES`, from their modules, which
document those and the names imported here but left out of `__all__`, such
as `tensor_shapes` or `compute_t_model`.
"""
from .audio_io import SAMPLE_RATE, Waveform, read_wav, slice_pad, write_wav
from .codec import CodecInterface, toy_codec, toy_decode, toy_encode
from .converter import (
    ConverterConfig,
    ConverterParams,
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
from .dataprep import (
    RoleMode,
    RoleProbs,
    TrainingExample,
    UtterancePair,
    assign_roles,
    make_example,
    sample_mode,
    synth_pair,
)
from .errors import AudioFormatError, CheckpointError, NonFiniteError
from .features import (
    frame_count,
    mel_filterbank,
    mel_spectrogram,
    speaker_embedding,
)
from .streaming import (
    LatencyReport,
    StreamConfig,
    StreamState,
    compute_t_model,
    crossfade,
    crossfade_weights,
    init_stream,
    offline_run,
    stream_run,
    stream_step,
)
from .trainer import (
    LossBreakdown,
    assemble_supervision,
    embedding_mse,
    loss_breakdown,
    mel_l1,
)

__version__ = "0.1.0"

__all__ = [
    "SAMPLE_RATE",
    "Waveform",
    "read_wav",
    "write_wav",
    "slice_pad",
    "CodecInterface",
    "toy_codec",
    "toy_encode",
    "toy_decode",
    "ConverterConfig",
    "forward",
    "identity_converter",
    "init_params",
    "load_params",
    "make_converter",
    "param_count",
    "save_params",
    "RoleMode",
    "RoleProbs",
    "assign_roles",
    "make_example",
    "sample_mode",
    "synth_pair",
    "AudioFormatError",
    "CheckpointError",
    "NonFiniteError",
    "frame_count",
    "mel_spectrogram",
    "speaker_embedding",
    "offline_run",
    "LatencyReport",
    "StreamConfig",
    "init_stream",
    "stream_run",
    "stream_step",
    "assemble_supervision",
    "loss_breakdown",
    "__version__",
]
