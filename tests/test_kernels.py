from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogkit import kernels
from dialogkit.metrics import Segmentation, default_window_size


def _classic_table(a: list[str], b: list[str]) -> list[list[int]]:
    """Textbook quadratic LCS table, written independently of the kernels."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table


def _classic_lcs(a: list[str], b: list[str]) -> int:
    return _classic_table(a, b)[len(a)][len(b)]


def _random_tokens(rng: random.Random, max_len: int = 14, vocab: int = 6) -> list[str]:
    return [f"t{rng.randrange(vocab)}" for _ in range(rng.randrange(max_len + 1))]


def test_lcs_length_matches_classic_dp():
    rng = random.Random(0)
    for _ in range(300):
        a, b = _random_tokens(rng), _random_tokens(rng)
        assert kernels.lcs_length(a, b) == _classic_lcs(a, b)


def _cells(columns: list[int], rows: int, low: int = 0) -> list[list[int]]:
    """The table rows 0..rows decoded from bit columns whose run starts at
    bit ``low``: L(i, j) is i less the set bits of column j below bit i."""
    return [
        [i - (c >> low & ((1 << i) - 1)).bit_count() for c in columns] for i in range(rows + 1)
    ]


def _decoded_table(a: list[str], b: list[str]) -> list[list[int]]:
    columns = kernels.lcs_table(a, b)
    assert len(columns) == len(b) + 1
    return _cells(columns, len(a))


def test_lcs_table_final_cell_equals_length():
    rng = random.Random(1)
    for _ in range(100):
        a, b = _random_tokens(rng), _random_tokens(rng)
        if not a or not b:
            continue
        table = _decoded_table(a, b)
        assert len(table) == len(a) + 1
        assert table[-1][-1] == kernels.lcs_length(a, b)
        assert sum(table[0]) == 0 and sum(row[0] for row in table) == 0


def test_lcs_edge_cases():
    assert kernels.lcs_length([], ["a"]) == 0
    assert kernels.lcs_length(["a"], []) == 0
    assert kernels.lcs_length(["a", "b"], ["a", "b"]) == 2


def test_lcs_table_matches_classic_table():
    # The long pairs carry across many machine words of the packed columns.
    for seed, pairs, max_len in ((2, 50, 14), (3, 5, 150)):
        rng = random.Random(seed)
        for _ in range(pairs):
            a, b = _random_tokens(rng, max_len), _random_tokens(rng, max_len)
            assert _decoded_table(a, b) == _classic_table(a, b)


def _packed(pieces: list[list[str]]) -> tuple[list, list[int]]:
    """The pieces with a None after each, and each piece's start."""
    packed, starts = [], []
    for piece in pieces:
        starts.append(len(packed))
        packed += piece + [None]
    return packed, starts


def test_lcs_table_none_separates_packed_sequences():
    # A None in ``a`` stops every carry and a None in ``b`` restarts the
    # columns, so each pair of pieces reads the classic table of its own.
    rng = random.Random(4)
    for _ in range(40):
        a_pieces = [_random_tokens(rng, 40) for _ in range(rng.randrange(1, 5))]
        b_pieces = [_random_tokens(rng, 10) for _ in range(rng.randrange(1, 4))]
        a, a_starts = _packed(a_pieces)
        b, b_starts = _packed(b_pieces)
        columns = kernels.lcs_table(a, b)
        assert len(columns) == len(b) + 1
        for a_piece, low in zip(a_pieces, a_starts):
            for b_piece, start in zip(b_pieces, b_starts):
                cells = _cells(columns[start : start + len(b_piece) + 1], len(a_piece), low)
                assert cells == _classic_table(a_piece, b_piece)


def _naive_window_errors(
    reference: tuple[int, ...], hypothesis: tuple[int, ...], slots: int, k: int
) -> tuple[int, int]:
    """Pk and WinDiff error counts by summing the labels of every window.

    The one Pk/WinDiff oracle of the tests. A window's two ends lie in one
    segment when it holds no boundary, so Pk (Beeferman et al. 1999) errs
    where exactly one side's count is zero, and WinDiff (Pevzner & Hearst
    2002) where the counts differ.
    """
    ref_set, hyp_set = set(reference), set(hypothesis)
    ref_labels = [1 if slot in ref_set else 0 for slot in range(slots)]
    hyp_labels = [1 if slot in hyp_set else 0 for slot in range(slots)]
    pk_errors = windiff_errors = 0
    for i in range(slots - k + 1):
        ref_count, hyp_count = sum(ref_labels[i : i + k]), sum(hyp_labels[i : i + k])
        pk_errors += (ref_count == 0) != (hyp_count == 0)
        windiff_errors += ref_count != hyp_count
    return pk_errors, windiff_errors


def test_window_errors_matches_naive_loop():
    rng = random.Random(3)
    for _ in range(300):
        slots = rng.randrange(1, 40)
        density = rng.random()
        reference, hypothesis = (
            tuple(s for s in range(slots) if rng.random() < density) for _ in range(2)
        )
        k = rng.randrange(1, slots + 1)
        assert kernels.window_errors(reference, hypothesis, slots, k) == _naive_window_errors(
            reference, hypothesis, slots, k
        )


def test_window_errors_validates_k():
    with pytest.raises(ValueError):
        kernels.window_errors((0, 2), (), 3, 0)
    with pytest.raises(ValueError):
        kernels.window_errors((0, 2), (), 3, 4)
    assert kernels.window_errors((0, 2), (), 3, 3) == (1, 1)
    assert kernels.window_errors((0, 2), (1,), 3, 3) == (0, 1)


@st.composite
def boundary_sets(draw, slots: int) -> tuple[int, ...]:
    """Empty, sparse, randomly dense or nearly full boundary slots, with
    the first and last slot added on demand."""
    kind = draw(st.sampled_from(["empty", "sparse", "random", "dense"]))
    few = st.sets(st.integers(min_value=0, max_value=slots - 1), max_size=12)
    if kind == "empty":
        chosen = set()
    elif kind == "sparse":
        chosen = draw(few)
    elif kind == "random":
        density = draw(st.floats(min_value=0.0, max_value=1.0))
        rng = draw(st.randoms(use_true_random=False))
        chosen = {slot for slot in range(slots) if rng.random() < density}
    else:
        chosen = set(range(slots)) - draw(few)
    if draw(st.booleans()):
        chosen |= {0, slots - 1}
    return tuple(sorted(chosen))


@st.composite
def window_cases(draw):
    turn_count = draw(st.integers(min_value=2, max_value=800))
    slots = turn_count - 1
    reference = draw(boundary_sets(slots))
    hypothesis = draw(boundary_sets(slots))
    # k = 1, k = turn_count - 1, the default k of the metrics and one more.
    default_k = default_window_size(Segmentation(turn_count, reference))
    ks = {1, slots, draw(st.integers(min_value=1, max_value=slots))}
    if default_k <= slots:
        ks.add(default_k)
    return reference, hypothesis, slots, sorted(ks)


@settings(max_examples=150, deadline=None)
@given(window_cases())
def test_window_errors_equal_naive_loop_at_bench_sizes(case):
    reference, hypothesis, slots, ks = case
    for k in ks:
        assert kernels.window_errors(reference, hypothesis, slots, k) == _naive_window_errors(
            reference, hypothesis, slots, k
        )
