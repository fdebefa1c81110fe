"""Kernels behind the ROUGE-L and Pk/WinDiff metrics, in pure Python.

The LCS runs the bit-parallel recurrence of Allison & Dix (1986) in Hyyrö's
form (2004) over Python ints: one len(a)-bit column per token of ``b``. The
columns encode the whole DP table, so summary-level ROUGE-L backtracks
through them without building it.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Sequence

# No compiled path exists; the constant is kept because benchmark runs
# record it in their environment stamp.
USE_NUMBA = False


def lcs_table(a: Sequence[str], b: Sequence[str]) -> list[int]:
    """Bit columns V_0..V_len(b) of the LCS table of ``a`` against ``b``.

    ``V_j`` packs the cells L(0..len(a), j) of the table; read one with
    :func:`lcs_cell`. ``V_0`` has all len(a) bits set.
    """
    full = (1 << len(a)) - 1
    match: dict[str, int] = {}
    for i, token in enumerate(a):
        match[token] = match.get(token, 0) | (1 << i)
    v = full
    columns = [v]
    for token in b:
        u = v & match.get(token, 0)
        v = ((v + u) | (v - u)) & full
        columns.append(v)
    return columns


def lcs_cell(columns: list[int], i: int, j: int) -> int:
    """L(i, j), the LCS length of a[:i] and b[:j], from lcs_table(a, b)."""
    return i - (columns[j] & ((1 << i) - 1)).bit_count()


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two token lists."""
    return len(a) - lcs_table(a, b)[-1].bit_count()


def window_counts(labels: Sequence[int], k: int) -> list[int]:
    """Sliding sums of ``labels`` over every full window [i, i+k)."""
    if not 0 < k <= len(labels):
        raise ValueError("window size must be in [1, len(labels)]")
    prefix = [0, *accumulate(labels)]
    return list(map(sub, prefix[k:], prefix))
