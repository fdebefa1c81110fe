"""Segmentation metrics (Pk, WinDiff) and ROUGE scorers.

Segmentations are boundary sets over turns: boundary ``b`` means turn ``b``
ends a segment, and the final turn always ends one implicitly. Pk and
WinDiff slide a width-k window over turn positions and compare, per
position, how reference and hypothesis classify it; both are error rates in
[0, 1], lower is better.

ROUGE text preprocessing is fixed and deliberately minimal: lowercase,
whitespace tokenization, punctuation stripped from token edges, no
stemming. Scores computed here are consistent with each other but should
not be compared naively against numbers produced by other toolkits with
different preprocessing.
"""

from __future__ import annotations

import random
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import split_sentences, tokenize
from .kernels import lcs_length, lcs_table, window_counts


@dataclass(frozen=True)
class Segmentation:
    """Boundary positions over ``turn_count`` turns.

    ``boundaries`` holds the 0-based indices of turns that end a segment,
    sorted and deduplicated; the final turn is always a segment end and is
    never stored.
    """

    turn_count: int
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.turn_count < 1:
            raise ValueError("turn_count must be positive")
        cleaned = tuple(sorted(set(int(b) for b in self.boundaries)))
        for b in cleaned:
            if not 0 <= b <= self.turn_count - 2:
                raise ValueError(
                    f"boundary {b} outside [0, {self.turn_count - 2}]"
                )
        object.__setattr__(self, "boundaries", cleaned)

    @property
    def segment_lengths(self) -> tuple[int, ...]:
        edges = list(self.boundaries) + [self.turn_count - 1]
        lengths, previous = [], -1
        for edge in edges:
            lengths.append(edge - previous)
            previous = edge
        return tuple(lengths)


def labels_to_segmentation(labels: Sequence[int]) -> Segmentation:
    """Binary per-turn labels (1 = segment end) to a Segmentation.

    A label on the final turn is redundant and dropped. Labels other than
    0 and 1 raise ValueError.
    """
    if not labels:
        raise ValueError("labels must be non-empty")
    if not set(labels) <= {0, 1}:
        raise ValueError("labels must be 0 or 1")
    boundaries = tuple(
        i for i, label in enumerate(labels[:-1]) if label
    )
    return Segmentation(len(labels), boundaries)


def segmentation_to_labels(seg: Segmentation) -> list[int]:
    """Inverse of labels_to_segmentation; the final turn is labeled 1."""
    labels = [0] * seg.turn_count
    for b in seg.boundaries:
        labels[b] = 1
    labels[-1] = 1
    return labels


def default_window_size(reference: Segmentation) -> int:
    """Half the mean reference segment length, rounded, at least 1."""
    mean_length = reference.turn_count / (len(reference.boundaries) + 1)
    return max(1, round(mean_length / 2))


def _paired_window_counts(
    reference: Segmentation, hypothesis: Segmentation, k: int | None
) -> tuple[np.ndarray, np.ndarray, int]:
    if reference.turn_count != hypothesis.turn_count:
        raise ValueError(
            f"turn counts differ: {reference.turn_count} vs {hypothesis.turn_count}"
        )
    if k is None:
        k = default_window_size(reference)
    if not 0 < k < reference.turn_count:
        raise ValueError(f"window size needs 0 < k < {reference.turn_count} turns, got {k}")
    slots = reference.turn_count - 1

    def slot_labels(seg: Segmentation) -> np.ndarray:
        labels = np.zeros(slots, dtype=np.int64)
        for b in seg.boundaries:
            labels[b] = 1
        return labels

    ref_counts = window_counts(slot_labels(reference), k)
    hyp_counts = window_counts(slot_labels(hypothesis), k)
    return ref_counts, hyp_counts, k


def pk(
    reference: Segmentation, hypothesis: Segmentation, k: int | None = None
) -> float:
    """Window endpoint-agreement error rate.

    For each position i in [0, turn_count - k), check whether turns i and
    i + k fall in the same segment; the score is the fraction of positions
    where reference and hypothesis disagree. k defaults to half the mean
    reference segment length.
    """
    ref_counts, hyp_counts, _ = _paired_window_counts(reference, hypothesis, k)
    disagreements = np.count_nonzero((ref_counts > 0) != (hyp_counts > 0))
    return disagreements / len(ref_counts)


def windiff(
    reference: Segmentation, hypothesis: Segmentation, k: int | None = None
) -> float:
    """Window boundary-count error rate.

    Like pk over the same windows, but a position counts as an error
    whenever the number of boundaries inside the window differs, so nearby
    misses and extra boundaries are both penalized.
    """
    ref_counts, hyp_counts, _ = _paired_window_counts(reference, hypothesis, k)
    differences = np.count_nonzero(ref_counts != hyp_counts)
    return differences / len(ref_counts)


def baseline_random(
    turn_count: int, boundary_prob: float, rng: random.Random
) -> Segmentation:
    """Each eligible index becomes a boundary independently with the given
    probability; one uniform draw per index in order."""
    if not 0.0 <= boundary_prob <= 1.0:
        raise ValueError("boundary_prob must be in [0, 1]")
    boundaries = tuple(
        i for i in range(turn_count - 1) if rng.random() < boundary_prob
    )
    return Segmentation(turn_count, boundaries)


def baseline_even(turn_count: int, num_segments: int) -> Segmentation:
    """Split into num_segments parts whose lengths differ by at most one,
    earlier segments taking the remainder."""
    if not 1 <= num_segments <= turn_count:
        raise ValueError("num_segments must be in [1, turn_count]")
    base, remainder = divmod(turn_count, num_segments)
    boundaries, position = [], 0
    for segment in range(num_segments - 1):
        position += base + (1 if segment < remainder else 0)
        boundaries.append(position - 1)
    return Segmentation(turn_count, tuple(boundaries))


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_pr(precision: float, recall: float) -> "RougeScore":
        total = precision + recall
        f1 = 2 * precision * recall / total if total > 0 else 0.0
        return RougeScore(precision, recall, f1)

    def as_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


_ZERO_SCORE = RougeScore(0.0, 0.0, 0.0)


def _normalize_tokens(text: str) -> list[str]:
    tokens = []
    for token in tokenize(text.lower()):
        stripped = token.strip(string.punctuation)
        if stripped:
            tokens.append(stripped)
    return tokens


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
    )


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap; zero when either side has no n-grams."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cand_grams = _ngrams(_normalize_tokens(candidate), n)
    ref_grams = _ngrams(_normalize_tokens(reference), n)
    cand_total = sum(cand_grams.values())
    ref_total = sum(ref_grams.values())
    if cand_total == 0 or ref_total == 0:
        return _ZERO_SCORE
    overlap = sum((cand_grams & ref_grams).values())
    return RougeScore.from_pr(overlap / cand_total, overlap / ref_total)


def _lcs_ref_positions(ref_tokens: list[str], cand_tokens: list[str]) -> set[int]:
    """Reference-token indices participating in one LCS against the
    candidate, recovered by backtracking the DP table."""
    if not ref_tokens or not cand_tokens:
        return set()
    table = lcs_table(ref_tokens, cand_tokens)
    positions: set[int] = set()
    i, j = len(ref_tokens), len(cand_tokens)
    while i > 0 and j > 0:
        if (
            ref_tokens[i - 1] == cand_tokens[j - 1]
            and table[i, j] == table[i - 1, j - 1] + 1
        ):
            positions.add(i - 1)
            i -= 1
            j -= 1
        elif table[i - 1, j] >= table[i, j - 1]:
            i -= 1
        else:
            j -= 1
    return positions


def rouge_l(
    candidate: str, reference: str, sentence_split: bool = False
) -> RougeScore:
    """Longest-common-subsequence ROUGE.

    Without sentence splitting this is the LCS of the two whole token
    sequences. With splitting it is the summary-level variant: for each
    reference sentence, take the union of LCS match positions against every
    candidate sentence, then count those matched tokens with reuse clipped
    to each token's total count in the candidate.
    """
    if not sentence_split:
        cand_tokens = _normalize_tokens(candidate)
        ref_tokens = _normalize_tokens(reference)
        if not cand_tokens or not ref_tokens:
            return _ZERO_SCORE
        lcs = lcs_length(cand_tokens, ref_tokens)
        return RougeScore.from_pr(lcs / len(cand_tokens), lcs / len(ref_tokens))

    cand_sentences = _sentence_token_lists(candidate)
    ref_sentences = _sentence_token_lists(reference)
    cand_total = sum(len(s) for s in cand_sentences)
    ref_total = sum(len(s) for s in ref_sentences)
    if cand_total == 0 or ref_total == 0:
        return _ZERO_SCORE
    remaining = Counter()
    for sentence in cand_sentences:
        remaining.update(sentence)
    hits = 0
    for ref_sentence in ref_sentences:
        union: set[int] = set()
        for cand_sentence in cand_sentences:
            union |= _lcs_ref_positions(ref_sentence, cand_sentence)
        for position in union:
            token = ref_sentence[position]
            if remaining[token] > 0:
                remaining[token] -= 1
                hits += 1
    return RougeScore.from_pr(hits / cand_total, hits / ref_total)


def _sentence_token_lists(text: str) -> list[list[str]]:
    if not text.strip():
        return []
    out = []
    for sentence in split_sentences(text):
        tokens = _normalize_tokens(sentence)
        if tokens:
            out.append(tokens)
    return out


def mean_scores(scores: Iterable[RougeScore]) -> RougeScore:
    """Arithmetic mean of each field; zeros for an empty input."""
    items = list(scores)
    if not items:
        return _ZERO_SCORE
    return RougeScore(
        sum(s.precision for s in items) / len(items),
        sum(s.recall for s in items) / len(items),
        sum(s.f1 for s in items) / len(items),
    )
