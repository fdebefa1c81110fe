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

Each text of a pair is normalized once: ROUGE-1, ROUGE-2 and ROUGE-L read
the same tokens and sentences. Summary-level ROUGE-L makes one LCS pass per
candidate sentence against all the reference sentences packed into one bit
vector, and the pair's passes share one call of the kernel.

All of it is pure Python: ROUGE-L backtracks through the bit-parallel LCS
columns of :mod:`.kernels`, and Pk/WinDiff sweep the points where a
boundary enters or leaves a window, O(B log B) per pair for B boundaries,
with no per-turn lists.
"""

from __future__ import annotations

import random
import string
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import index
from typing import Iterable, Sequence

from .core import split_sentences, tokenize
from .kernels import lcs_length, lcs_table, match_masks, window_errors


@dataclass(frozen=True)
class Segmentation:
    """Boundary positions over ``turn_count`` turns.

    ``boundaries`` holds the 0-based indices of turns that end a segment,
    sorted and deduplicated; the final turn is always a segment end and is
    never stored. ``turn_count`` and the boundaries must be integers
    (anything ``operator.index`` accepts); other types raise TypeError.
    """

    turn_count: int
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        turn_count = index(self.turn_count)
        if turn_count < 1:
            raise ValueError("turn_count must be positive")
        cleaned = tuple(sorted(set(map(index, self.boundaries))))
        if cleaned and (cleaned[0] < 0 or cleaned[-1] > turn_count - 2):
            b = next(b for b in cleaned if not 0 <= b <= turn_count - 2)
            raise ValueError(f"boundary {b} outside [0, {turn_count - 2}]")
        object.__setattr__(self, "turn_count", turn_count)
        object.__setattr__(self, "boundaries", cleaned)


def labels_to_segmentation(labels: Sequence[int]) -> Segmentation:
    """Binary per-turn labels (1 = segment end) to a Segmentation.

    A label on the final turn is redundant and dropped. Labels other than
    the ints 0 and 1 raise ValueError; ``True``, ``1.0`` and the like are
    refused even though they compare equal to 1.
    """
    if not labels:
        raise ValueError("labels must be non-empty")
    if not set(map(type, labels)) <= {int} or not set(labels) <= {0, 1}:
        raise ValueError("labels must be the integers 0 or 1")
    boundaries = tuple(compress(range(len(labels) - 1), labels))
    return Segmentation(len(labels), boundaries)


def default_window_size(reference: Segmentation) -> int:
    """Half the mean reference segment length, rounded, at least 1."""
    mean_length = reference.turn_count / (len(reference.boundaries) + 1)
    return max(1, round(mean_length / 2))


def _pk_windiff(
    reference: Segmentation, hypothesis: Segmentation, k: int | None = None
) -> tuple[float, float]:
    """Pk and WinDiff from one sweep over the two boundary sets."""
    if reference.turn_count != hypothesis.turn_count:
        raise ValueError(
            f"turn counts differ: {reference.turn_count} vs {hypothesis.turn_count}"
        )
    if k is None:
        k = default_window_size(reference)
    if not 0 < k < reference.turn_count:
        raise ValueError(f"window size needs 0 < k < {reference.turn_count} turns, got {k}")
    # Windows slide over the turn_count - 1 slots between turns, so the
    # final turn's implicit boundary is never counted.
    disagreements, differences = window_errors(
        reference.boundaries, hypothesis.boundaries, reference.turn_count - 1, k
    )
    positions = reference.turn_count - k
    return disagreements / positions, differences / positions


def pk(
    reference: Segmentation, hypothesis: Segmentation, k: int | None = None
) -> float:
    """Window endpoint-agreement error rate.

    For each position i in [0, turn_count - k), check whether turns i and
    i + k fall in the same segment; the score is the fraction of positions
    where reference and hypothesis disagree. k defaults to half the mean
    reference segment length.
    """
    return _pk_windiff(reference, hypothesis, k)[0]


def windiff(
    reference: Segmentation, hypothesis: Segmentation, k: int | None = None
) -> float:
    """Window boundary-count error rate.

    Like pk over the same windows, but a position counts as an error
    whenever the number of boundaries inside the window differs, so nearby
    misses and extra boundaries are both penalized.
    """
    return _pk_windiff(reference, hypothesis, k)[1]


def baseline_random(
    turn_count: int, boundary_prob: float, rng: random.Random
) -> Segmentation:
    """Each eligible index becomes a boundary independently with the given
    probability; one uniform draw per index in order."""
    if not 0.0 <= boundary_prob <= 1.0:
        raise ValueError("boundary_prob must be in [0, 1]")
    draw = rng.random
    boundaries = tuple([i for i in range(turn_count - 1) if draw() < boundary_prob])
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
    return list(filter(None, map(str.strip, tokenize(text.lower()), repeat(string.punctuation))))


@lru_cache(maxsize=2)
def _analyze(text: str) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """A text's normalized tokens and the tokens of its non-empty sentences.

    The tokens are the sentences' tokens joined in order, which is the
    normalization of the whole text. The cache holds both sides of the pair
    being scored, so ROUGE-1, ROUGE-2 and ROUGE-L normalize each text once.
    """
    if not text.strip():
        return (), ()
    sentences = tuple(
        tuple(tokens) for tokens in map(_normalize_tokens, split_sentences(text)) if tokens
    )
    return tuple(chain.from_iterable(sentences)), sentences


def _clipped_overlap(left: Counter, right: Counter) -> int:
    """The sum over shared keys of the smaller of the two counts."""
    shared = left.keys() & right.keys()
    return sum(map(min, map(left.__getitem__, shared), map(right.__getitem__, shared)))


def _ngram_counts(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(tokens if n == 1 else zip(*(tokens[i:] for i in range(n))))


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap; zero when either side has no n-grams."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cand_tokens = _analyze(candidate)[0]
    ref_tokens = _analyze(reference)[0]
    cand_total = len(cand_tokens) - n + 1
    ref_total = len(ref_tokens) - n + 1
    if cand_total <= 0 or ref_total <= 0:
        return _ZERO_SCORE
    overlap = _clipped_overlap(_ngram_counts(cand_tokens, n), _ngram_counts(ref_tokens, n))
    return RougeScore.from_pr(overlap / cand_total, overlap / ref_total)


def _pack(sentences: Sequence[Sequence[str]]) -> tuple[list[str | None], list[tuple[int, int]]]:
    """The sentences' tokens with a ``None`` after each sentence, and the
    span of each sentence in that list."""
    packed: list[str | None] = []
    spans = []
    for sentence in sentences:
        spans.append((len(packed), len(packed) + len(sentence)))
        packed += sentence
        packed.append(None)
    return packed, spans


def _lcs_ref_positions(
    ref_sentences: Sequence[Sequence[str]], cand_sentences: Sequence[Sequence[str]]
) -> list[set[int]]:
    """For each reference sentence, the union over the candidate sentences
    of its token indices in one LCS against that candidate sentence.

    Both sides are packed with ``None`` separators, so one lcs_table call
    gives the columns of every pair of sentences. Each pair backtracks
    through its own bits and columns; a tie prefers dropping a reference
    token.
    """
    reference, ref_spans = _pack(ref_sentences)
    candidate, cand_spans = _pack(cand_sentences)
    match = match_masks(reference)
    columns = lcs_table(reference, candidate)
    # Equal tokens always extend the LCS of the shorter prefixes.
    # Otherwise L(i, j) = max(L(i-1, j), L(i, j-1)), and bit i-1 of V_j is
    # set exactly when L(i-1, j) >= L(i, j-1): then the backtrack drops
    # reference token i-1. So from (i, j) it drops every token down to the
    # highest bit below i that is a match or is clear in V_j. The walk
    # takes one match per unit of the pair's LCS length, then stops.
    stops = [~v | match.get(token, 0) for v, token in zip(columns[1:], candidate)]
    unions = []
    for low, high in ref_spans:
        union: set[int] = set()
        floor = 1 << low
        bits = (1 << high) - floor
        for _, end in cand_spans:
            left = high - low - (columns[end] & bits).bit_count()
            i, j = high, end
            while left:
                j -= 1
                i = (stops[j] & ((1 << i) - floor)).bit_length()
                if reference[i - 1] == candidate[j]:
                    i -= 1
                    left -= 1
                    union.add(i - low)
        unions.append(union)
    return unions


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
    cand_tokens, cand_sentences = _analyze(candidate)
    ref_tokens, ref_sentences = _analyze(reference)
    if not cand_tokens or not ref_tokens:
        return _ZERO_SCORE
    if not sentence_split:
        lcs = lcs_length(cand_tokens, ref_tokens)
        return RougeScore.from_pr(lcs / len(cand_tokens), lcs / len(ref_tokens))
    unions = _lcs_ref_positions(ref_sentences, cand_sentences)
    matched = Counter(
        sentence[position]
        for sentence, union in zip(ref_sentences, unions)
        for position in union
    )
    hits = _clipped_overlap(Counter(cand_tokens), matched)
    return RougeScore.from_pr(hits / len(cand_tokens), hits / len(ref_tokens))


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
