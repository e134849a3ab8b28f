"""Acoustic event detection engine.

Log-mel spectrogram frontend, forward inference for two VGGish-derived
CNN architectures loaded from a portable weight container, head-only
transfer learning on cached embeddings with k-fold cross-validation, and
per-second event detection with precision-recall evaluation.
"""

__version__ = "0.1.0"

from .bundle import load_bundle, load_spectrogram, save_bundle, save_spectrogram
from .errors import (
    ConfigError,
    DecodeError,
    DomainError,
    FormatError,
    ParseError,
    SawnetError,
    ShapeError,
    StructureError,
    TooShort,
    UndefinedMetric,
    UnsupportedFormat,
    ValidationError,
)
from .evaluation import (
    DetectionEvent,
    PRCurve,
    SecondScore,
    accuracy_f1,
    merge_events,
    pr_curve,
    score_stream,
)
from .frontend import (
    AudioClip,
    LogMelSpectrogram,
    PREPROC_TAG,
    build_mel_filterbank,
    extract_patches,
    hz_to_mel,
    log_mel_spectrogram,
    mel_to_hz,
    resample_to_16k,
)
from .models import (
    ModelSpec,
    WeightBundle,
    build_aug_vggish,
    build_fcn_vggish,
    count_params,
    fold_batchnorm,
    forward_batch,
    forward_embedding,
    init_bundle,
)
from .transfer import (
    EmbeddingItem,
    EmbeddingSet,
    FoldResult,
    TrainConfig,
    assign_esc50_fold,
    extract_embeddings,
    load_embeddings,
    run_cv,
    save_embeddings,
    train_head,
)
from .wavio import WavReader, decode_wav, encode_wav
