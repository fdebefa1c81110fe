"""dialogkit: dialogue corpus tooling.

Windowed denoising example generation for long multi-party transcripts,
segmentation and summarization metrics, and a desk-scale block-sorting
attention kernel with checkable gradients.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    MASK,
    MASK_SPEAKER,
    SPEAKER_DELIMITER,
    TURN_SEPARATOR,
    Dialogue,
    Turn,
    serialize_dialogue,
    serialize_turn,
    split_sentences,
    tokenize,
)
from .corpus import (
    CorpusStats,
    RecordError,
    StatsAccumulator,
    compute_stats,
    ingest,
)
from .noising import (
    DenoisingExample,
    NoiseConfig,
    Window,
    build_example,
    derive_seed,
    replay_window_noise,
    sample_poisson,
    select_window,
)
from .metrics import (
    RougeScore,
    Segmentation,
    baseline_even,
    baseline_random,
    labels_to_segmentation,
    pk,
    rouge_l,
    rouge_n,
    windiff,
)

# The attention reference is the only numpy user: its names are imported
# on first use (PEP 562), so tools that never touch it start without numpy.
_ATTENTION_NAMES = (
    "AttentionSpec",
    "LayerMode",
    "full_attention",
    "gradient_check",
    "hybrid_schedule",
    "sinkhorn_attention",
    "sinkhorn_block_attention",
    "sinkhorn_normalize",
    "sort_blocks",
)


def __getattr__(name: str):
    if name in _ATTENTION_NAMES:
        from . import attention

        return getattr(attention, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "MASK",
    "MASK_SPEAKER",
    "SPEAKER_DELIMITER",
    "TURN_SEPARATOR",
    "Dialogue",
    "Turn",
    "serialize_dialogue",
    "serialize_turn",
    "split_sentences",
    "tokenize",
    "CorpusStats",
    "RecordError",
    "StatsAccumulator",
    "compute_stats",
    "ingest",
    "DenoisingExample",
    "NoiseConfig",
    "Window",
    "build_example",
    "derive_seed",
    "replay_window_noise",
    "sample_poisson",
    "select_window",
    "RougeScore",
    "Segmentation",
    "baseline_even",
    "baseline_random",
    "labels_to_segmentation",
    "pk",
    "rouge_l",
    "rouge_n",
    "windiff",
    *_ATTENTION_NAMES,
]
