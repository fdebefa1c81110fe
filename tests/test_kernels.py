from __future__ import annotations

import random

import numpy as np
import pytest

from dialogkit import kernels


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


def test_lcs_table_final_cell_equals_length():
    rng = random.Random(1)
    for _ in range(100):
        a, b = _random_tokens(rng), _random_tokens(rng)
        if not a or not b:
            continue
        table = kernels.lcs_table(a, b)
        assert table.shape == (len(a) + 1, len(b) + 1)
        assert int(table[-1, -1]) == kernels.lcs_length(a, b)
        assert table[0].sum() == 0 and table[:, 0].sum() == 0


def test_lcs_edge_cases():
    assert kernels.lcs_length([], ["a"]) == 0
    assert kernels.lcs_length(["a"], []) == 0
    assert kernels.lcs_length(["a", "b"], ["a", "b"]) == 2


def test_lcs_table_matches_classic_table():
    rng = random.Random(2)
    for _ in range(50):
        a, b = _random_tokens(rng), _random_tokens(rng)
        np.testing.assert_array_equal(kernels.lcs_table(a, b), _classic_table(a, b))


def test_window_counts_matches_naive_loop():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n).astype(np.int64)
        k = int(rng.integers(1, n + 1))
        expected = np.array(
            [labels[i : i + k].sum() for i in range(n - k + 1)], dtype=np.int64
        )
        np.testing.assert_array_equal(kernels.window_counts(labels, k), expected)


def test_window_counts_validates_k():
    labels = np.array([1, 0, 1], dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.window_counts(labels, 0)
    with pytest.raises(ValueError):
        kernels.window_counts(labels, 4)
    assert list(kernels.window_counts(labels, 3)) == [2]
