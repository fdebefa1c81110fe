"""Kernels behind the ROUGE-L and Pk/WinDiff metrics, in pure Python.

The LCS runs the bit-parallel recurrence of Allison & Dix (1986) in Hyyrö's
form (2004) over Python ints: one len(a)-bit column per token of ``b``. The
columns encode the whole DP table, so summary-level ROUGE-L backtracks
through them without building it, and packs all the sentences of a pair
into one call.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Sequence

# No compiled path exists; the constant is kept because benchmark runs
# record it in their environment stamp.
USE_NUMBA = False


def match_masks(a: Sequence[str | None]) -> dict[str | None, int]:
    """Each token of ``a`` mapped to the bits of the positions it holds."""
    match: dict[str | None, int] = {}
    for i, token in enumerate(a):
        match[token] = match.get(token, 0) | (1 << i)
    return match


def lcs_table(a: Sequence[str | None], b: Sequence[str | None]) -> list[int]:
    """Bit columns V_0..V_len(b) of the LCS table of ``a`` against ``b``.

    ``V_j`` packs the cells L(0..len(a), j) of the table; read one with
    :func:`lcs_cell`. ``V_0`` has the bit of every token of ``a`` set.

    ``None`` separates sequences packed into one call. A ``None`` in ``a``
    has a bit that is never set and never matches, so no carry crosses it
    and each run of ``a`` between separators reads its own table in its own
    bits. A ``None`` in ``b`` restarts the columns: its column is ``V_0``
    again. One call then gives the tables of every run of ``a`` against
    every run of ``b``.
    """
    match = match_masks(a)
    full = ((1 << len(a)) - 1) & ~match.pop(None, 0)
    v = full
    columns = [v]
    for token in b:
        if token is None:
            v = full
        else:
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
