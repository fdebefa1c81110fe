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
    detokenize,
    parse_dialogue_text,
    parse_turn_line,
    serialize_dialogue,
    serialize_turn,
    split_sentences,
    tokenize,
    turn_token_count,
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
    segmentation_to_labels,
    windiff,
)
from .attention import (
    AttentionSpec,
    LayerMode,
    block_partition,
    full_attention,
    gradient_check,
    hybrid_schedule,
    sinkhorn_attention,
    sinkhorn_block_attention,
    sinkhorn_normalize,
    sort_blocks,
)

__all__ = [
    "__version__",
    "MASK",
    "MASK_SPEAKER",
    "SPEAKER_DELIMITER",
    "TURN_SEPARATOR",
    "Dialogue",
    "Turn",
    "detokenize",
    "parse_dialogue_text",
    "parse_turn_line",
    "serialize_dialogue",
    "serialize_turn",
    "split_sentences",
    "tokenize",
    "turn_token_count",
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
    "segmentation_to_labels",
    "windiff",
    "AttentionSpec",
    "LayerMode",
    "block_partition",
    "full_attention",
    "gradient_check",
    "hybrid_schedule",
    "sinkhorn_attention",
    "sinkhorn_block_attention",
    "sinkhorn_normalize",
    "sort_blocks",
]
