"""Block-sorting attention with hand-rolled reverse-mode derivatives.

Layers come in two flavors picked by :func:`hybrid_schedule`: plain scaled
dot-product attention, and a sparse variant that partitions the sequence
into fixed-size blocks, scores block summaries against each other, and
turns the scores into a near-doubly-stochastic sorting matrix by iterated
Sinkhorn normalization. The sorting matrix mixes keys and values across
blocks, so each query attends over its own block plus one soft-matched
block's worth of remixed positions rather than the full sequence.

This module is the package's only numpy user; it also holds the
``attn-check`` invariant suite. Everything here is plain numpy with explicit
backward functions. Each ``*_backward`` takes the forward inputs plus the
output cotangent and returns input cotangents; :func:`gradient_check`
compares any such pair against central finite differences. No autograd
framework is involved, which keeps the kernels auditable and the derivative
tests honest. Both layer kinds share one masked row softmax and its
pullback: the sparse layer runs them once over all blocks, the full layer
once per query chunk, so it never holds more than a few chunk-by-L arrays
and memory is O(L·chunk) rather than O(L²).

Sorting matrices are plain float arrays. After ``iterations`` Sinkhorn
passes plus one closing row pass, every row sums to 1 within 1e-6 and
column sums approach 1 as iterations grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np


class LayerMode(Enum):
    FULL = "full"
    SPARSE = "sparse"


@dataclass(frozen=True)
class AttentionSpec:
    seq_len: int
    model_dim: int
    block_size: int
    num_layers: int = 12
    full_attention_layers: frozenset[int] = field(
        default_factory=lambda: frozenset({4, 8, 12})
    )
    sinkhorn_iterations: int = 8
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.seq_len < 1:
            raise ValueError("seq_len must be positive")
        if self.model_dim < 1:
            raise ValueError("model_dim must be positive")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.num_layers < 1:
            raise ValueError("num_layers must be positive")
        layers = frozenset(self.full_attention_layers)
        if not all(1 <= layer <= self.num_layers for layer in layers):
            raise ValueError("full_attention_layers must lie in [1, num_layers]")
        object.__setattr__(self, "full_attention_layers", layers)
        if self.sinkhorn_iterations < 1:
            raise ValueError("sinkhorn_iterations must be at least 1")
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be finite and positive")

    @property
    def padded_len(self) -> int:
        return -(-self.seq_len // self.block_size) * self.block_size

    @property
    def num_blocks(self) -> int:
        return self.padded_len // self.block_size


def hybrid_schedule(spec: AttentionSpec) -> list[LayerMode]:
    """Per-layer mode list, 1-based layer indices against
    spec.full_attention_layers."""
    return [
        LayerMode.FULL if layer in spec.full_attention_layers else LayerMode.SPARSE
        for layer in range(1, spec.num_layers + 1)
    ]


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    return peak + np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))


def _sinkhorn_tape(
    logits: np.ndarray, iterations: int, temperature: float
) -> list[tuple[np.ndarray, int]]:
    """Check the arguments, then run the normalization in log space,
    recording (output, axis) per pass so the backward sweep can replay them
    in reverse. The last output is the log of the result."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
        raise ValueError("logits must be a square matrix")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if not 0 < temperature < math.inf:
        raise ValueError("temperature must be finite and positive")
    with np.errstate(over="ignore"):
        a = logits / temperature
    if not np.all(np.isfinite(a)):
        raise ValueError("logits / temperature must be finite")
    tape: list[tuple[np.ndarray, int]] = []
    for axis in (1, 0) * iterations + (1,):
        a = a - _logsumexp(a, axis)
        tape.append((a, axis))
    return tape


def _sinkhorn_pullback(
    tape: list[tuple[np.ndarray, int]], temperature: float, d_out: np.ndarray
) -> np.ndarray:
    """Cotangent of the logits behind a pass tape, given the cotangent of
    exp(last output).

    Subtracting a log-sum-exp along an axis pulls back as d_in = d_out -
    softmax(in) * sum(d_out) along that axis, and softmax(in) is exp of the
    pass's own output, so no log-sum-exp is computed again.
    """
    grad = np.asarray(d_out, dtype=np.float64) * np.exp(tape[-1][0])
    for output, axis in reversed(tape):
        grad = grad - np.exp(output) * grad.sum(axis=axis, keepdims=True)
    return grad / temperature


def sinkhorn_normalize(
    logits: np.ndarray, iterations: int, temperature: float = 1.0
) -> np.ndarray:
    """Iterated row/column log-space normalization of logits / temperature.

    Each iteration subtracts the row log-sum-exp then the column
    log-sum-exp; a final row pass closes the loop so row sums come out
    exact, and the result is exponentiated. Entries are strictly positive;
    column sums tend to 1 as iterations grow.
    """
    return np.exp(_sinkhorn_tape(logits, iterations, temperature)[-1][0])


def sinkhorn_normalize_backward(
    logits: np.ndarray, iterations: int, temperature: float, d_out: np.ndarray
) -> np.ndarray:
    """Cotangent of sinkhorn_normalize with respect to logits."""
    tape = _sinkhorn_tape(logits, iterations, temperature)
    return _sinkhorn_pullback(tape, temperature, d_out)


def _check_qkv(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    q, k, v = (np.asarray(m, dtype=np.float64) for m in (q, k, v))
    if q.ndim != 2 or q.shape != k.shape or k.shape != v.shape or 0 in q.shape:
        raise ValueError("q, k, v must share one non-empty (seq_len, dim) shape")
    return q, k, v


def _check_d_out(d_out: np.ndarray, q: np.ndarray) -> np.ndarray:
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != q.shape:
        raise ValueError("d_out must have the (seq_len, dim) shape of q")
    return d_out


def _softmax(
    scaled_q: np.ndarray, k: np.ndarray, valid: np.ndarray | None = None
) -> np.ndarray:
    """Attention weights: the row softmax of scaled_q kᵀ, for one (rows, d)
    query chunk or a batch of blocks. ``valid`` broadcasts against the
    scores; a masked column weighs 0 and a row with no valid column is all
    zero, never NaN."""
    weights = scaled_q @ np.swapaxes(k, -1, -2)
    if valid is not None:
        np.copyto(weights, -np.inf, where=~valid)
    peak = weights.max(axis=-1, keepdims=True)
    peak[np.isneginf(peak)] = 0.0
    weights -= peak
    np.exp(weights, out=weights)
    total = weights.sum(axis=-1, keepdims=True)
    total[total == 0.0] = 1.0
    weights /= total
    return weights


def _softmax_pullback(
    scaled_q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    weights: np.ndarray,
    d_out: np.ndarray,
    out_k: np.ndarray | None = None,
    out_v: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents (d_scaled_q, d_k, d_v) of weights @ v, where weights is
    _softmax(scaled_q, k, ...). Masked entries weigh 0 and so pull back 0.
    d_k and d_v are written into ``out_k`` and ``out_v`` when given."""
    d_v = np.matmul(np.swapaxes(weights, -1, -2), d_out, out=out_v)
    d_logits = d_out @ np.swapaxes(v, -1, -2)
    d_logits -= np.einsum("...ij,...ij->...i", weights, d_logits)[..., None]
    d_logits *= weights
    d_k = np.matmul(np.swapaxes(d_logits, -1, -2), scaled_q, out=out_k)
    return d_logits @ k, d_k, d_v


# Full attention walks the queries in chunks of rows sized so that one
# chunk of scores holds about this many float64 entries (2 MB), whatever
# the sequence length; no L x L array is ever allocated.
_CHUNK_ENTRIES = 2**18


def _query_chunks(scaled_q: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, scaled_q[rows]) per query chunk. Every chunk holds whole key
    rows, so each row is normalized on its own with no running log-sum-exp."""
    step = max(1, _CHUNK_ENTRIES // len(scaled_q))
    for start in range(0, len(scaled_q), step):
        rows = slice(start, start + step)
        yield rows, scaled_q[rows]


def full_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard softmax(q kᵀ / sqrt(d)) v, computed in query chunks with
    O(L·chunk) memory."""
    q, k, v = _check_qkv(q, k, v)
    out = np.empty_like(v)
    for rows, scaled_q in _query_chunks(q * (1.0 / math.sqrt(q.shape[1]))):
        out[rows] = _softmax(scaled_q, k) @ v
    return out


def full_attention_backward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents (d_q, d_k, d_v) of full_attention, recomputing each query
    chunk's weights instead of keeping them. Each chunk's d_k and d_v
    partials go into two buffers allocated once per call."""
    q, k, v = _check_qkv(q, k, v)
    d_out = _check_d_out(d_out, q)
    scale = 1.0 / math.sqrt(q.shape[1])
    d_q, d_k, d_v = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
    part_k, part_v = np.empty_like(k), np.empty_like(v)
    for rows, scaled_q in _query_chunks(q * scale):
        d_q[rows] = _softmax_pullback(
            scaled_q, k, v, _softmax(scaled_q, k), d_out[rows], part_k, part_v
        )[0]
        d_k += part_k
        d_v += part_v
    d_q *= scale
    return d_q, d_k, d_v


def _sort_blocks_tape(
    summaries: np.ndarray, mixing: np.ndarray, iterations: int, temperature: float
) -> list[tuple[np.ndarray, int]]:
    """The Sinkhorn pass tape of sort_blocks' logits, on float64 inputs."""
    if summaries.ndim != 2 or mixing.shape != (summaries.shape[1],) * 2:
        raise ValueError("mixing must be square with the summary dimension")
    logits = summaries @ mixing @ summaries.T
    return _sinkhorn_tape(logits, iterations, temperature)


def _sort_blocks_pullback(
    summaries: np.ndarray,
    mixing: np.ndarray,
    tape: list[tuple[np.ndarray, int]],
    temperature: float,
    d_sorting: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents (d_summaries, d_mixing) of sort_blocks, given the tape
    that _sort_blocks_tape recorded for the same inputs."""
    d_logits = _sinkhorn_pullback(tape, temperature, d_sorting)
    d_summaries = d_logits @ summaries @ mixing.T + d_logits.T @ summaries @ mixing
    d_mixing = summaries.T @ d_logits @ summaries
    return d_summaries, d_mixing


def sort_blocks(
    summaries: np.ndarray,
    mixing: np.ndarray,
    iterations: int,
    temperature: float = 1.0,
) -> np.ndarray:
    """Bilinear block scores, Sinkhorn-normalized into a sorting matrix.

    logits = summaries @ mixing @ summariesᵀ, so identical summaries give a
    uniform matrix and orthogonal summaries under an identity mixing give a
    near-identity sorting at low temperature.
    """
    summaries = np.asarray(summaries, dtype=np.float64)
    mixing = np.asarray(mixing, dtype=np.float64)
    tape = _sort_blocks_tape(summaries, mixing, iterations, temperature)
    return np.exp(tape[-1][0])


def sort_blocks_backward(
    summaries: np.ndarray,
    mixing: np.ndarray,
    iterations: int,
    temperature: float,
    d_sorting: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    summaries = np.asarray(summaries, dtype=np.float64)
    mixing = np.asarray(mixing, dtype=np.float64)
    tape = _sort_blocks_tape(summaries, mixing, iterations, temperature)
    return _sort_blocks_pullback(summaries, mixing, tape, temperature, d_sorting)


def _resolve_n_real(spec: AttentionSpec, n_real: int | None) -> int:
    if n_real is None:
        return spec.seq_len
    if not 0 <= n_real <= spec.seq_len:
        raise ValueError("n_real must be in [0, seq_len]")
    return n_real


def _real_blocks(spec: AttentionSpec, n_real: int) -> np.ndarray:
    """(num_blocks, block_size) mask, 1.0 at positions before n_real."""
    real = np.arange(spec.padded_len) < n_real
    return real.reshape(spec.num_blocks, spec.block_size).astype(np.float64)


def _pad_blocks(m: np.ndarray, spec: AttentionSpec, n_real: int) -> np.ndarray:
    """Rows of m before n_real, zero elsewhere and past seq_len, as
    (num_blocks, block_size, model_dim)."""
    out = np.zeros((spec.padded_len, spec.model_dim))
    out[:n_real] = m[:n_real]
    return out.reshape(spec.num_blocks, spec.block_size, spec.model_dim)


def _unpad(blocked: np.ndarray, spec: AttentionSpec, n_real: int) -> np.ndarray:
    """Inverse of _pad_blocks: (seq_len, model_dim) rows, zero from n_real."""
    flat = blocked.reshape(spec.padded_len, spec.model_dim)[: spec.seq_len]
    flat[n_real:] = 0.0
    return flat


def _check_attention_args(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    spec: AttentionSpec,
    sorting: np.ndarray,
    n_real: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    q, k, v = _check_qkv(q, k, v)
    if q.shape != (spec.seq_len, spec.model_dim):
        raise ValueError("inputs must be (spec.seq_len, spec.model_dim)")
    sorting = np.asarray(sorting, dtype=np.float64)
    if sorting.shape != (spec.num_blocks, spec.num_blocks):
        raise ValueError("sorting must be num_blocks x num_blocks")
    return q, k, v, sorting, _resolve_n_real(spec, n_real)


def _own_and_mixed(
    m: np.ndarray, spec: AttentionSpec, sorting: np.ndarray, n_real: int
) -> np.ndarray:
    """Padded blocks of m, each followed by its sorting-mixed block
    Σ_b' sorting[b, b'] m[b'], as (num_blocks, 2 * block_size, model_dim)."""
    own = _pad_blocks(m, spec, n_real)
    mixed = (sorting @ own.reshape(spec.num_blocks, -1)).reshape(own.shape)
    return np.concatenate([own, mixed], axis=1)


def _sparse_weights(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    spec: AttentionSpec,
    sorting: np.ndarray,
    n_real: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sparse layer's forward on checked inputs, all blocks at once.

    Returns (scaled_qb, cat_k, cat_v, weights). scaled_qb is the padded
    queries over sqrt(d) as (num_blocks, block_size, model_dim); cat_k and
    cat_v hold each block's own keys/values followed by its mixed ones.
    weights is (num_blocks, block_size, 2 * block_size) from _softmax, zero
    at invalid columns and in every row with no valid column, so the
    blocked output is weights @ cat_v, with rows from n_real on still to be
    zeroed.
    """
    real = _real_blocks(spec, n_real)
    valid = np.concatenate([real, sorting @ real], axis=1) > 0.0
    scaled_qb = _pad_blocks(q, spec, n_real)
    scaled_qb *= 1.0 / math.sqrt(spec.model_dim)
    cat_k = _own_and_mixed(k, spec, sorting, n_real)
    cat_v = _own_and_mixed(v, spec, sorting, n_real)
    return scaled_qb, cat_k, cat_v, _softmax(scaled_qb, cat_k, valid[:, None, :])


def _pull_back_mix(
    d_cat: np.ndarray, cat: np.ndarray, sorting: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents of the own blocks and of sorting, given the cotangent of
    an _own_and_mixed stack."""
    blocks, size = len(cat), cat.shape[1] // 2
    d_mixed = d_cat[:, size:].reshape(blocks, -1)
    d_own = d_cat[:, :size] + (sorting.T @ d_mixed).reshape(blocks, size, -1)
    return d_own, d_mixed @ cat[:, :size].reshape(blocks, -1).T


def sinkhorn_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    spec: AttentionSpec,
    sorting: np.ndarray,
    n_real: int | None = None,
) -> np.ndarray:
    """Block-local attention over own plus sorting-mixed keys and values.

    Keys and values are zeroed at padding, reshaped into blocks, and mixed
    as K̃[b] = Σ_b' sorting[b, b'] K[b']. Each query row attends over the
    concatenation of its own block and its mixed block with scale
    1/sqrt(d); own-block columns are valid where real, mixed columns where
    any contributing block is real there. Output rows at padded positions
    are zero. Positions at index n_real and beyond count as padding
    (default: none).
    """
    q, k, v, sorting, n_real = _check_attention_args(q, k, v, spec, sorting, n_real)
    _, _, cat_v, weights = _sparse_weights(q, k, v, spec, sorting, n_real)
    return _unpad(weights @ cat_v, spec, n_real)


def sinkhorn_attention_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    spec: AttentionSpec,
    sorting: np.ndarray,
    d_out: np.ndarray,
    n_real: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents (d_q, d_k, d_v, d_sorting) of sinkhorn_attention."""
    q, k, v, sorting, n_real = _check_attention_args(q, k, v, spec, sorting, n_real)
    scaled_qb, cat_k, cat_v, weights = _sparse_weights(q, k, v, spec, sorting, n_real)
    d_outb = _pad_blocks(_check_d_out(d_out, q), spec, n_real)
    d_qb, d_cat_k, d_cat_v = _softmax_pullback(scaled_qb, cat_k, cat_v, weights, d_outb)
    d_qb *= 1.0 / math.sqrt(spec.model_dim)
    d_kb, d_sorting = _pull_back_mix(d_cat_k, cat_k, sorting)
    d_vb, d_sorting_v = _pull_back_mix(d_cat_v, cat_v, sorting)
    d_sorting += d_sorting_v
    return (
        _unpad(d_qb, spec, n_real),
        _unpad(d_kb, spec, n_real),
        _unpad(d_vb, spec, n_real),
        d_sorting,
    )


def mean_pool_blocks(
    k: np.ndarray, spec: AttentionSpec, n_real: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-block mean of key rows over real positions.

    Returns (summaries, real_block_mask); fully padded blocks get a zero
    summary row and a False mask entry.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (spec.seq_len, spec.model_dim):
        raise ValueError("keys must be (spec.seq_len, spec.model_dim)")
    n_real = _resolve_n_real(spec, n_real)
    counts = _real_blocks(spec, n_real).sum(axis=1)
    mask = counts > 0
    summaries = np.zeros((spec.num_blocks, spec.model_dim))
    summaries[mask] = _pad_blocks(k, spec, n_real).sum(axis=1)[mask] / counts[mask, None]
    return summaries, mask


def sinkhorn_block_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mixing: np.ndarray,
    spec: AttentionSpec,
    n_real: int | None = None,
) -> np.ndarray:
    """End-to-end sparse layer: pool keys, sort blocks, attend.

    Summaries come from mean-pooled keys; the sorting matrix is computed
    over blocks containing at least one real position and embedded into an
    identity elsewhere, so trailing all-pad blocks never perturb real rows,
    which makes outputs invariant to appending masked padding.
    """
    summaries, mask = mean_pool_blocks(k, spec, n_real)
    sorting = np.eye(spec.num_blocks)
    if mask.any():
        sorting[np.ix_(mask, mask)] = sort_blocks(
            summaries[mask], mixing, spec.sinkhorn_iterations, spec.temperature
        )
    return sinkhorn_attention(q, k, v, spec, sorting, n_real)


def sinkhorn_block_attention_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mixing: np.ndarray,
    spec: AttentionSpec,
    d_out: np.ndarray,
    n_real: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents (d_q, d_k, d_v, d_mixing) of sinkhorn_block_attention.

    The Sinkhorn normalization runs once: the pass tape that builds the
    sorting is kept and pulled back."""
    n_real = _resolve_n_real(spec, n_real)
    summaries, mask = mean_pool_blocks(k, spec, n_real)
    mixing = np.asarray(mixing, dtype=np.float64)
    sorting = np.eye(spec.num_blocks)
    if mask.any():
        tape = _sort_blocks_tape(
            summaries[mask], mixing, spec.sinkhorn_iterations, spec.temperature
        )
        sorting[np.ix_(mask, mask)] = np.exp(tape[-1][0])
    d_q, d_k, d_v, d_sorting = sinkhorn_attention_backward(
        q, k, v, spec, sorting, d_out, n_real
    )
    if not mask.any():
        return d_q, d_k, d_v, np.zeros_like(mixing)
    d_summaries_sub, d_mixing = _sort_blocks_pullback(
        summaries[mask], mixing, tape, spec.temperature, d_sorting[np.ix_(mask, mask)]
    )
    real = _real_blocks(spec, n_real)
    d_summaries = np.zeros((spec.num_blocks, spec.model_dim))
    d_summaries[mask] = d_summaries_sub / real[mask].sum(axis=1, keepdims=True)
    d_pool = real[:, :, None] * d_summaries[:, None, :]
    d_k = d_k + d_pool.reshape(spec.padded_len, spec.model_dim)[: spec.seq_len]
    return d_q, d_k, d_v, d_mixing


def gradient_check(
    forward: Callable[..., np.ndarray],
    backward: Callable[..., Sequence[np.ndarray]],
    inputs: Sequence[np.ndarray],
    epsilon: float = 1e-5,
    weights: np.ndarray | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The scalar loss is sum(output), or sum(weights * output) when weights
    are given; backward receives the corresponding cotangent. Inputs are
    perturbed in place entry by entry and restored. A non-finite numeric
    or analytic entry scores ``inf``, so it fails every tolerance.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError("epsilon must be in [1e-6, 1e-3]")
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]

    def loss() -> float:
        out = forward(*arrays)
        return float(out.sum() if weights is None else (out * weights).sum())

    probe = forward(*arrays)
    cotangent = np.ones_like(probe) if weights is None else np.asarray(weights, float)
    grads = backward(*arrays, cotangent)
    if len(grads) != len(arrays):
        raise ValueError("backward must return one gradient per input")
    worst = 0.0
    for array, grad in zip(arrays, grads):
        flat = array.reshape(-1)
        grad_flat = np.asarray(grad).reshape(-1)
        for index in range(flat.size):
            original = flat[index]
            flat[index] = original + epsilon
            upper = loss()
            flat[index] = original - epsilon
            lower = loss()
            flat[index] = original
            numeric = (upper - lower) / (2.0 * epsilon)
            analytic = grad_flat[index]
            if not (math.isfinite(numeric) and math.isfinite(analytic)):
                return math.inf
            scale = max(abs(numeric), abs(analytic), 1e-4)
            worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def _block_local_reference(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, block_size: int
) -> np.ndarray:
    """Naive per-block softmax attention used as the identity-sorting
    reference; deliberately written as a direct loop."""
    seq_len, dim = q.shape
    out = np.zeros_like(q)
    for start in range(0, seq_len, block_size):
        stop = min(start + block_size, seq_len)
        logits = q[start:stop] @ k[start:stop].T / np.sqrt(dim)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = shifted / shifted.sum(axis=1, keepdims=True)
        out[start:stop] = weights @ v[start:stop]
    return out


def _attention_checks(spec: AttentionSpec, seed: int) -> list[dict]:
    """The ``attn-check`` suite: one row per invariant, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def add(name: str, value: float, tolerance: float | None) -> None:
        entry = {
            "check": name,
            "value": float(value),
            "tolerance": tolerance,
            "pass": bool(tolerance is None or value <= tolerance),
        }
        checks.append(entry)

    blocks = spec.num_blocks
    row_dev, col_dev, col_dev_20 = 0.0, 0.0, 0.0
    for _ in range(20):
        logits = rng.standard_normal((blocks, blocks))
        sorting = sinkhorn_normalize(logits, spec.sinkhorn_iterations, spec.temperature)
        row_dev = max(row_dev, float(np.abs(sorting.sum(axis=1) - 1.0).max()))
        col_dev = max(col_dev, float(np.abs(sorting.sum(axis=0) - 1.0).max()))
        settled = sinkhorn_normalize(logits, 20, spec.temperature)
        col_dev_20 = max(col_dev_20, float(np.abs(settled.sum(axis=0) - 1.0).max()))
    add("sinkhorn_row_sum_dev", row_dev, 1e-6)
    add("sinkhorn_col_sum_dev", col_dev, None)
    add("sinkhorn_col_sum_dev_20_iters", col_dev_20, 1e-4)

    uniform = sinkhorn_normalize(np.zeros((blocks, blocks)), spec.sinkhorn_iterations)
    add("sinkhorn_uniform_dev", float(np.abs(uniform - 1.0 / blocks).max()), 1e-12)

    q = rng.standard_normal((spec.seq_len, spec.model_dim))
    k = rng.standard_normal((spec.seq_len, spec.model_dim))
    v = rng.standard_normal((spec.seq_len, spec.model_dim))

    single = replace(spec, block_size=spec.seq_len)
    sparse_out = sinkhorn_attention(q, k, v, single, np.ones((1, 1)))
    add(
        "single_block_vs_full",
        float(np.abs(sparse_out - full_attention(q, k, v)).max()),
        1e-6,
    )

    if spec.padded_len == spec.seq_len:
        identity_out = sinkhorn_attention(q, k, v, spec, np.eye(blocks))
        reference = _block_local_reference(q, k, v, spec.block_size)
        add(
            "identity_sorting_vs_block_local",
            float(np.abs(identity_out - reference).max()),
            1e-6,
        )

    mixing = rng.standard_normal((spec.model_dim, spec.model_dim))
    base_out = sinkhorn_block_attention(q, k, v, mixing, spec)
    extended = replace(spec, seq_len=spec.seq_len + 2 * spec.block_size)

    def extend(m: np.ndarray) -> np.ndarray:
        tail = rng.standard_normal((extended.seq_len - spec.seq_len, spec.model_dim))
        return np.vstack([m, tail])

    padded_out = sinkhorn_block_attention(
        extend(q), extend(k), extend(v), mixing, extended, n_real=spec.seq_len
    )
    add(
        "padding_invariance",
        float(np.abs(padded_out[: spec.seq_len] - base_out).max()),
        1e-6,
    )

    small_q = rng.standard_normal((8, 4))
    small_k = rng.standard_normal((8, 4))
    small_v = rng.standard_normal((8, 4))
    add(
        "grad_full_attention",
        gradient_check(full_attention, full_attention_backward, [small_q, small_k, small_v]),
        1e-4,
    )

    logits4 = rng.standard_normal((4, 4))
    grad_weights = rng.standard_normal((4, 4))
    add(
        "grad_sinkhorn_normalize",
        gradient_check(
            lambda m: sinkhorn_normalize(m, 4, 1.0),
            lambda m, d: (sinkhorn_normalize_backward(m, 4, 1.0, d),),
            [logits4],
            weights=grad_weights,
        ),
        1e-4,
    )

    tiny = AttentionSpec(seq_len=12, model_dim=4, block_size=4, sinkhorn_iterations=4)
    tiny_inputs = [rng.standard_normal((12, 4)) for _ in range(3)]
    tiny_mix = rng.standard_normal((4, 4))
    add(
        "grad_sinkhorn_block_attention",
        gradient_check(
            lambda a, b, c, m: sinkhorn_block_attention(a, b, c, m, tiny),
            lambda a, b, c, m, d: sinkhorn_block_attention_backward(a, b, c, m, tiny, d),
            tiny_inputs + [tiny_mix],
        ),
        1e-3,
    )
    return checks
