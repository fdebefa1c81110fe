from __future__ import annotations

import random
import string
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogkit.core import split_sentences
from dialogkit.metrics import (
    RougeScore,
    Segmentation,
    baseline_even,
    baseline_random,
    default_window_size,
    labels_to_segmentation,
    mean_scores,
    pk,
    rouge_l,
    rouge_n,
    windiff,
    _lcs_ref_positions,
    _normalize_tokens,
)
from tests.test_kernels import _classic_table, _naive_window_errors


def _brute_force_rates(reference: Segmentation, hypothesis: Segmentation, k: int) -> list[float]:
    slots = reference.turn_count - 1
    counts = _naive_window_errors(reference.boundaries, hypothesis.boundaries, slots, k)
    return [count / (slots - k + 1) for count in counts]


def brute_force_pk(reference: Segmentation, hypothesis: Segmentation, k: int) -> float:
    """Pk (Beeferman et al. 1999) by walking every window."""
    return _brute_force_rates(reference, hypothesis, k)[0]


def brute_force_windiff(reference: Segmentation, hypothesis: Segmentation, k: int) -> float:
    """WinDiff (Pevzner & Hearst 2002) by walking every window."""
    return _brute_force_rates(reference, hypothesis, k)[1]


def _lengths(seg: Segmentation) -> tuple[int, ...]:
    """Segment lengths, read from the boundaries and the final turn."""
    ends = (-1, *seg.boundaries, seg.turn_count - 1)
    return tuple(end - start for start, end in zip(ends, ends[1:]))


def test_segmentation_normalizes_and_validates():
    seg = Segmentation(10, (4, 2, 4))
    assert seg.boundaries == (2, 4)
    assert _lengths(seg) == (3, 2, 5)
    with pytest.raises(ValueError):
        Segmentation(10, (9,))
    with pytest.raises(ValueError):
        Segmentation(10, (-1,))
    with pytest.raises(ValueError):
        Segmentation(0, ())
    assert _lengths(Segmentation(1, ())) == (1,)
    # Non-integers are refused, not truncated or parsed.
    with pytest.raises(TypeError):
        Segmentation(10, (2.9,))
    with pytest.raises(TypeError):
        pk(Segmentation(10, (2.9,)), Segmentation(10, (3,)), 2)
    with pytest.raises(TypeError):
        Segmentation(5, ("2",))
    with pytest.raises(TypeError):
        Segmentation(5.5, ())
    with pytest.raises(ValueError, match=r"boundary 9 outside \[0, 8\]"):
        Segmentation(10, (3, 9, 12))


def test_labels_round_trip():
    labels = [0, 0, 1, 0, 0, 1, 0, 1]
    seg = labels_to_segmentation(labels)
    assert seg.boundaries == (2, 5)
    assert labels_to_segmentation([1, 1, 1]).boundaries == (0, 1)
    assert labels_to_segmentation([0, 0, 0]).boundaries == ()
    with pytest.raises(ValueError):
        labels_to_segmentation([])
    # bool and float labels compare equal to 0 and 1 but are not labels
    for bad in ([0, 1.0, 0, 1], [0.0, 1], [1.0], [True, False], [0, True], [False],
                [0, 2], ["1", 0], [0, None], [[1], 0]):
        with pytest.raises(ValueError, match="labels must be the integers 0 or 1"):
            labels_to_segmentation(bad)


def test_labels_round_trip_random():
    rng = random.Random(0)
    for _ in range(100):
        labels = [int(rng.random() < 0.3) for _ in range(rng.randrange(1, 25))]
        seg = labels_to_segmentation(labels)
        assert seg.turn_count == len(labels)
        assert [int(turn in seg.boundaries) for turn in range(len(labels) - 1)] == labels[:-1]


def test_pk_windiff_hand_fixture():
    reference = Segmentation(10, (4,))
    hypothesis = Segmentation(10, (3,))
    assert pk(reference, hypothesis, 2) == 0.25
    assert windiff(reference, hypothesis, 2) == 0.25


def test_pk_windiff_perfect_is_zero():
    seg = Segmentation(12, (3, 7))
    assert pk(seg, seg, 2) == 0.0
    assert windiff(seg, seg, 2) == 0.0


def test_pk_one_segment_vs_all_boundaries():
    reference = Segmentation(10, ())
    hypothesis = Segmentation(10, tuple(range(9)))
    # every window is same-segment under ref, split under hyp
    assert pk(reference, hypothesis, 2) == 1.0
    assert windiff(reference, hypothesis, 2) == 1.0


def test_pk_windiff_validation():
    with pytest.raises(ValueError):
        pk(Segmentation(10, ()), Segmentation(9, ()), 2)
    with pytest.raises(ValueError):
        pk(Segmentation(5, ()), Segmentation(5, ()), 5)
    with pytest.raises(ValueError):
        windiff(Segmentation(5, ()), Segmentation(5, ()), 0)


def test_default_window_size_convention():
    # 10 turns, one boundary -> mean segment length 5 -> k = round(2.5) = 2
    assert default_window_size(Segmentation(10, (4,))) == 2
    # banker's rounding: 10 / (2 * 2) = 2.5 rounds to 2 as well
    assert default_window_size(Segmentation(10, ())) == 5
    assert default_window_size(Segmentation(2, ())) == 1
    reference = Segmentation(10, (4,))
    assert pk(reference, reference) == 0.0


def test_pk_windiff_match_brute_force_oracle():
    rng = random.Random(42)
    for _ in range(300):
        turn_count = rng.randrange(3, 31)
        def random_seg():
            return Segmentation(
                turn_count,
                tuple(b for b in range(turn_count - 1) if rng.random() < 0.25),
            )
        reference, hypothesis = random_seg(), random_seg()
        k = rng.randrange(1, turn_count)
        assert pk(reference, hypothesis, k) == brute_force_pk(reference, hypothesis, k)
        assert windiff(reference, hypothesis, k) == brute_force_windiff(
            reference, hypothesis, k
        )


@st.composite
def segmentation_pairs(draw):
    turn_count = draw(st.integers(min_value=2, max_value=40))
    slots = st.sets(st.integers(min_value=0, max_value=turn_count - 2))
    return Segmentation(turn_count, tuple(draw(slots))), Segmentation(turn_count, tuple(draw(slots)))


@settings(max_examples=150, deadline=None)
@given(segmentation_pairs())
def test_pk_windiff_equal_per_position_definitions_at_every_k(pair):
    reference, hypothesis = pair
    for k in range(1, reference.turn_count):
        assert pk(reference, hypothesis, k) == brute_force_pk(reference, hypothesis, k)
        assert windiff(reference, hypothesis, k) == brute_force_windiff(reference, hypothesis, k)
    k = default_window_size(reference)
    if k < reference.turn_count:
        assert pk(reference, hypothesis) == brute_force_pk(reference, hypothesis, k)
        assert windiff(reference, hypothesis) == brute_force_windiff(reference, hypothesis, k)


def test_windiff_at_least_pk_pointwise():
    rng = random.Random(7)
    for _ in range(200):
        turn_count = rng.randrange(4, 25)
        reference = Segmentation(
            turn_count, tuple(b for b in range(turn_count - 1) if rng.random() < 0.3)
        )
        hypothesis = Segmentation(
            turn_count, tuple(b for b in range(turn_count - 1) if rng.random() < 0.3)
        )
        k = rng.randrange(1, turn_count)
        assert windiff(reference, hypothesis, k) >= pk(reference, hypothesis, k)


def test_windiff_strictly_exceeds_pk_on_shifted_dense_runs():
    # three adjacent reference boundaries, hypothesis shifted by exactly k:
    # boundary-count mismatches in windows whose endpoints are both mid-run
    reference = Segmentation(12, (4, 5, 6))
    hypothesis = Segmentation(12, (7, 8, 9))
    assert windiff(reference, hypothesis, 3) > pk(reference, hypothesis, 3)


def test_baseline_even_examples():
    assert baseline_even(10, 2).boundaries == (4,)
    assert baseline_even(10, 1).boundaries == ()
    even = baseline_even(7, 3)
    assert even.boundaries == (2, 4)
    assert _lengths(even) == (3, 2, 2)
    assert baseline_even(5, 5).boundaries == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        baseline_even(5, 6)
    with pytest.raises(ValueError):
        baseline_even(5, 0)


def test_baseline_even_lengths_differ_by_at_most_one():
    for turn_count in range(1, 30):
        for segments in range(1, turn_count + 1):
            lengths = _lengths(baseline_even(turn_count, segments))
            assert len(lengths) == segments
            assert sum(lengths) == turn_count
            assert max(lengths) - min(lengths) <= 1


def test_baseline_random_extremes_and_density():
    rng = random.Random(0)
    assert baseline_random(10, 0.0, rng).boundaries == ()
    assert baseline_random(10, 1.0, rng).boundaries == tuple(range(9))
    seg = baseline_random(10001, 0.5, rng)
    fraction = len(seg.boundaries) / 10000
    assert 0.49 <= fraction <= 0.51
    with pytest.raises(ValueError):
        baseline_random(10, 1.5, rng)


def test_rouge_tokenization():
    assert _normalize_tokens("The CAT sat!") == ["the", "cat", "sat"]
    assert _normalize_tokens("'quoted' -- ...") == ["quoted"]
    assert _normalize_tokens("don't stop") == ["don't", "stop"]


def test_rouge_n_hand_fixture():
    score = rouge_n("the cat sat", "the cat", 1)
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == 1.0
    assert score.f1 == pytest.approx(0.8)


def test_rouge_n_identity_and_empty():
    assert rouge_n("Same text here.", "Same text here.", 1) == RougeScore(1.0, 1.0, 1.0)
    assert rouge_n("Same text here.", "Same text here.", 2).f1 == 1.0
    assert rouge_n("a b", "a b", 3) == RougeScore(0.0, 0.0, 0.0)
    assert rouge_n("", "a b", 1) == RougeScore(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        rouge_n("a", "a", 0)


def test_rouge_n_symmetry_swaps_p_and_r():
    rng = random.Random(4)
    vocabulary = ["cat", "dog", "sat", "ran", "the", "a"]
    for _ in range(50):
        left = " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(1, 10)))
        right = " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(1, 10)))
        forward = rouge_n(left, right, 1)
        backward = rouge_n(right, left, 1)
        assert forward.precision == pytest.approx(backward.recall)
        assert forward.recall == pytest.approx(backward.precision)
        assert forward.f1 == pytest.approx(backward.f1)


def test_rouge_n_clips_repeats():
    # "the" appears once in the reference, so only one of the candidate's
    # three copies may count
    score = rouge_n("the the the", "the cat", 1)
    assert score.precision == pytest.approx(1 / 3)
    assert score.recall == pytest.approx(1 / 2)


def test_rouge_l_no_split_hand_fixture():
    score = rouge_l("a b c d", "a c d b")
    assert score.precision == 0.75
    assert score.recall == 0.75
    assert score.f1 == pytest.approx(0.75)


def test_rouge_l_identity_disjoint_empty():
    assert rouge_l("Same here.", "Same here.").f1 == 1.0
    assert rouge_l("Same here. Again.", "Same here. Again.", sentence_split=True).f1 == 1.0
    assert rouge_l("aa bb", "cc dd").f1 == 0.0
    assert rouge_l("", "something").f1 == 0.0
    assert rouge_l("...", "something", sentence_split=True).f1 == 0.0


def test_rouge_l_split_union_fixture():
    candidate = "the cat sat. it was happy."
    reference = "the cat sat on the mat. it was very happy."
    score = rouge_l(candidate, reference, sentence_split=True)
    assert score.precision == 1.0
    assert score.recall == pytest.approx(0.6)
    assert score.f1 == pytest.approx(0.75)


def test_rouge_l_split_clips_token_reuse():
    # candidate has a single "go"; both reference sentences match it, but
    # the union count may spend it only once
    candidate = "we go now."
    reference = "go left. go right."
    score = rouge_l(candidate, reference, sentence_split=True)
    assert score.precision == pytest.approx(1 / 3)
    assert score.recall == pytest.approx(1 / 4)


def test_lcs_never_exceeds_clipped_unigram_overlap():
    rng = random.Random(9)
    vocabulary = [f"w{i}" for i in range(8)]
    for _ in range(200):
        cand = [rng.choice(vocabulary) for _ in range(rng.randrange(1, 15))]
        ref = [rng.choice(vocabulary) for _ in range(rng.randrange(1, 15))]
        from dialogkit.kernels import lcs_length

        overlap = sum((Counter(cand) & Counter(ref)).values())
        assert lcs_length(cand, ref) <= overlap


def _classic_ref_positions(ref: list[str], cand: list[str]) -> set[int]:
    """Backtrack a textbook LCS table with the same tie-break as rouge_l:
    on ``>=`` drop a reference token."""
    table = _classic_table(ref, cand)
    positions, i, j = set(), len(ref), len(cand)
    while i > 0 and j > 0:
        if ref[i - 1] == cand[j - 1]:
            positions.add(i - 1)
            i, j = i - 1, j - 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return positions


# Three tokens make ties between the two backtracking moves common.
_small_vocab_tokens = st.lists(st.sampled_from(["a", "b", "c"]), max_size=24)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(_small_vocab_tokens, min_size=1, max_size=4),
    st.lists(_small_vocab_tokens, min_size=1, max_size=3),
)
def test_lcs_ref_positions_match_classic_backtrack(refs, cands):
    # The packed backtrack gives each reference sentence the union of its
    # classic positions against every candidate sentence, so no carry or
    # column leaks from one packed sentence into the next.
    expected = [
        set().union(*(_classic_ref_positions(ref, cand) for cand in cands)) for ref in refs
    ]
    assert _lcs_ref_positions(refs, cands) == expected


def _oracle_tokens(text: str) -> list[str]:
    stripped = (token.strip(string.punctuation) for token in text.lower().split())
    return [token for token in stripped if token]


def _oracle_rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap of the whole texts, each normalized here."""

    def grams(text):
        tokens = _oracle_tokens(text)
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    cand, ref = grams(candidate), grams(reference)
    cand_total, ref_total = sum(cand.values()), sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0)
    overlap = sum((cand & ref).values())
    return RougeScore.from_pr(overlap / cand_total, overlap / ref_total)


def _oracle_rouge_l(candidate: str, reference: str) -> RougeScore:
    cand, ref = _oracle_tokens(candidate), _oracle_tokens(reference)
    if not cand or not ref:
        return RougeScore(0.0, 0.0, 0.0)
    lcs = len(_classic_ref_positions(ref, cand))
    return RougeScore.from_pr(lcs / len(cand), lcs / len(ref))


def _oracle_summary_rouge_l(candidate: str, reference: str) -> RougeScore:
    """Summary-level ROUGE-L one sentence pair at a time: the union of the
    classic backtrack positions of each reference sentence against every
    candidate sentence, spent against the candidate's token counts."""

    def sentences(text):
        if not text.strip():
            return []
        return [tokens for tokens in map(_oracle_tokens, split_sentences(text)) if tokens]

    cand_sentences, ref_sentences = sentences(candidate), sentences(reference)
    cand_total = sum(map(len, cand_sentences))
    ref_total = sum(map(len, ref_sentences))
    if cand_total == 0 or ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0)
    remaining = Counter(token for sentence in cand_sentences for token in sentence)
    hits = 0
    for ref in ref_sentences:
        union = set().union(*(_classic_ref_positions(ref, cand) for cand in cand_sentences))
        for position in sorted(union):
            if remaining[ref[position]] > 0:
                remaining[ref[position]] -= 1
                hits += 1
    return RougeScore.from_pr(hits / cand_total, hits / ref_total)


# Three words, sentence ends, a final sigma, NBSP, tabs and bare punctuation.
_rouge_texts = st.lists(
    st.sampled_from(
        ["a", "b", "c", "B", ".", "!", "?", "...", "Σ", "\xa0", "\t", " ", " ", "--"]
    ),
    max_size=30,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_rouge_texts, _rouge_texts)
def test_rouge_scores_match_per_sentence_pair_oracle(candidate, reference):
    assert rouge_n(candidate, reference, 1) == _oracle_rouge_n(candidate, reference, 1)
    assert rouge_n(candidate, reference, 2) == _oracle_rouge_n(candidate, reference, 2)
    assert rouge_l(candidate, reference) == _oracle_rouge_l(candidate, reference)
    assert rouge_l(candidate, reference, sentence_split=True) == _oracle_summary_rouge_l(
        candidate, reference
    )


def test_mean_scores():
    scores = [RougeScore(1.0, 0.5, 0.6), RougeScore(0.0, 0.5, 0.2)]
    mean = mean_scores(scores)
    assert mean == RougeScore(0.5, 0.5, 0.4)
    assert mean_scores([]) == RougeScore(0.0, 0.0, 0.0)
