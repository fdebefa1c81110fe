"""Numeric kernels behind the ROUGE-L and Pk/WinDiff metrics, in numpy."""

from __future__ import annotations

import numpy as np

# No compiled path exists; the constant is kept because benchmark runs
# record it in their environment stamp.
USE_NUMBA = False


def _encode_pair(a: list[str], b: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Map two token lists onto a shared integer vocabulary."""
    vocab: dict[str, int] = {}
    for token in a:
        vocab.setdefault(token, len(vocab))
    for token in b:
        vocab.setdefault(token, len(vocab))
    xs = np.fromiter((vocab[t] for t in a), dtype=np.int64, count=len(a))
    ys = np.fromiter((vocab[t] for t in b), dtype=np.int64, count=len(b))
    return xs, ys


def lcs_table(a: list[str], b: list[str]) -> np.ndarray:
    """Full (len(a)+1, len(b)+1) dynamic-programming table of LCS lengths."""
    xs, ys = _encode_pair(a, b)
    table = np.zeros((len(xs) + 1, len(ys) + 1), dtype=np.int64)
    for i in range(1, len(xs) + 1):
        eq = (ys == xs[i - 1]).astype(np.int64)
        prev = table[i - 1]
        cand = np.maximum(prev[1:], prev[:-1] + eq)
        table[i, 1:] = np.maximum.accumulate(cand)
    return table


def lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence of two token lists."""
    if not a or not b:
        return 0
    xs, ys = _encode_pair(a, b)
    prev = np.zeros(len(ys) + 1, dtype=np.int64)
    for i in range(len(xs)):
        eq = (ys == xs[i]).astype(np.int64)
        cand = np.maximum(prev[1:], prev[:-1] + eq)
        prev[1:] = np.maximum.accumulate(cand)
    return int(prev[-1])


def window_counts(labels: np.ndarray, k: int) -> np.ndarray:
    """Sliding sums of ``labels`` over every full window [i, i+k)."""
    labels = np.asarray(labels, dtype=np.int64)
    if not 0 < k <= len(labels):
        raise ValueError("window size must be in [1, len(labels)]")
    padded = np.concatenate([[0], np.cumsum(labels, dtype=np.int64)])
    return padded[k:] - padded[: len(labels) - k + 1]
