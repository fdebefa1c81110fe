"""Kernels behind the ROUGE-L and Pk/WinDiff metrics, in pure Python.

The LCS runs the bit-parallel recurrence of Allison & Dix (1986) in Hyyrö's
form (2004) over Python ints: one len(a)-bit column per token of ``b``. The
columns encode the whole DP table, so summary-level ROUGE-L backtracks
through them without building it, and packs all the sentences of a pair
into one call.

Pk and WinDiff read the two boundary sets of a pair, never per-turn labels:
one sweep over the points where a boundary enters or leaves a window counts
both metrics' errors in O(B log B) for B boundaries.
"""

from __future__ import annotations

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

    ``V_j`` packs the cells L(0..len(a), j) of the table: L(i, j) is ``i``
    less the set bits of ``V_j`` below bit ``i``. ``V_0`` has the bit of
    every token of ``a`` set.

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


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two token lists."""
    return len(a) - lcs_table(a, b)[-1].bit_count()


# The count steps of the four change-point kinds: a reference boundary
# enters or leaves a window, then a hypothesis boundary does.
_WINDOW_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def window_errors(
    reference: Sequence[int], hypothesis: Sequence[int], slots: int, k: int
) -> tuple[int, int]:
    """Pk and WinDiff error counts over the windows [i, i+k) of ``slots``.

    ``reference`` and ``hypothesis`` hold distinct boundary slots in
    [0, slots). Over the ``slots - k + 1`` windows, the WinDiff errors are
    the windows whose two boundary counts differ, and the Pk errors those
    where exactly one count is zero.

    Boundary ``b`` lies in windows max(b-k+1, 0) to min(b, slots-k), so a
    side's count changes only where one of its boundaries enters or leaves.
    The sweep sorts those change points of both sides, encoded as
    ``position * 4 + kind``, and adds up the runs between them: O(B log B)
    for B boundaries, whatever the number of slots.
    """
    if not 0 < k <= slots:
        raise ValueError("window size must be in [1, slots]")
    shift, last = k - 1, slots - k
    # A boundary that lies in the last window never leaves, and the
    # sentinel after the last window closes the last run.
    events = [(b - shift if b > shift else 0) << 2 for b in reference]
    events += [(b + 1) << 2 | 1 for b in reference if b < last]
    events += [(b - shift if b > shift else 0) << 2 | 2 for b in hypothesis]
    events += [(b + 1) << 2 | 3 for b in hypothesis if b < last]
    events.sort()
    events.append((last + 1) << 2)
    pk_errors = windiff_errors = start = ref_count = hyp_count = 0
    for event in events:
        position = event >> 2
        if ref_count != hyp_count:
            windiff_errors += position - start
            if not (ref_count and hyp_count):
                pk_errors += position - start
        start = position
        ref_step, hyp_step = _WINDOW_STEPS[event & 3]
        ref_count += ref_step
        hyp_count += hyp_step
    return pk_errors, windiff_errors
