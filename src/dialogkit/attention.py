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
pullback, and walk their work in slices within one budget of temporaries:
full attention in query chunks, the sparse layer in groups of whole blocks.
Each holds O(L·d) arrays plus one chunk or group, never L×L or L×block.
Each backward reruns its layer's forward: the full one walks the same query
chunks through one score scratch per call, the sparse one takes the same
sorting step (pooled keys, sort_blocks, identity embedding) and pulls back.

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


def _check_d_out(d_out: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != shape:
        raise ValueError("d_out must have the (seq_len, dim) shape of q")
    return d_out


def _softmax(
    scaled_q: np.ndarray, k: np.ndarray,
    valid: np.ndarray | None = None, out: np.ndarray | None = None,
) -> np.ndarray:
    """Attention weights: the row softmax of scaled_q kᵀ, for one (rows, d)
    query chunk or a batch of blocks, written into ``out`` when given.
    ``valid`` broadcasts against the scores; a masked column weighs 0 and a
    row with no valid column is all zero, never NaN."""
    weights = np.matmul(scaled_q, np.swapaxes(k, -1, -2), out=out)
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
    weights: np.ndarray, d_out: np.ndarray, v: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Cotangent of the scaled scores behind weights = _softmax(...), given
    the cotangent d_out of weights @ v, written into ``out`` when given.
    Masked entries weigh 0 and so pull back 0."""
    d_logits = np.matmul(d_out, np.swapaxes(v, -1, -2), out=out)
    d_logits -= np.einsum("...ij,...ij->...i", weights, d_logits)[..., None]
    d_logits *= weights
    return d_logits


# Both layer kinds walk their work in slices whose temporaries hold about
# this many float64 entries (2 MB): full attention one chunk of query rows'
# scores at a time, the sparse layer one group of whole blocks.
_CHUNK_ENTRIES = 2**18


def _chunks(count: int, entries_each: int) -> list[slice]:
    """Slices of range(count), _CHUNK_ENTRIES // entries_each long (≥ 1)."""
    step = max(1, _CHUNK_ENTRIES // entries_each)
    return [slice(start, start + step) for start in range(0, count, step)]


def _full_walk(
    q: np.ndarray, k: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Yield (rows, scaled_q, weights) per query chunk of full attention:
    the chunk's queries over sqrt(d) and their _softmax weights against
    every key. All chunks write their weights into one score scratch made
    once per call, the first chunk being the longest."""
    chunks = _chunks(len(q), len(k))
    scores = np.empty((len(q[chunks[0]]), len(k)))
    for rows in chunks:
        scaled_q = q[rows] * (1.0 / math.sqrt(q.shape[1]))
        yield rows, scaled_q, _softmax(scaled_q, k, out=scores[: len(scaled_q)])


def full_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard softmax(q kᵀ / sqrt(d)) v, computed in query chunks with
    O(L·chunk) memory. Every chunk holds whole key rows, so each row is
    normalized on its own with no running log-sum-exp."""
    q, k, v = _check_qkv(q, k, v)
    out = np.empty_like(v)
    for rows, _, weights in _full_walk(q, k):
        out[rows] = weights @ v
    return out


def full_attention_backward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents (d_q, d_k, d_v) of full_attention, walking the forward's
    query chunks again. Scratch made once per call, not per chunk, holds
    each chunk's d_v and then d_k partial and its weights' cotangent."""
    q, k, v = _check_qkv(q, k, v)
    d_out = _check_d_out(d_out, q.shape)
    d_q, d_k, d_v, part = np.empty_like(q), np.zeros_like(k), np.zeros_like(v), np.empty_like(k)
    d_scores = None
    for rows, scaled_q, weights in _full_walk(q, k):
        if d_scores is None:
            d_scores = np.empty_like(weights)
        d_v += np.matmul(weights.T, d_out[rows], out=part)
        d_logits = _softmax_pullback(weights, d_out[rows], v, out=d_scores[: len(weights)])
        d_k += np.matmul(d_logits.T, scaled_q, out=part)
        d_q[rows] = d_logits @ k
    d_q *= 1.0 / math.sqrt(q.shape[1])
    return d_q, d_k, d_v


def _sort_blocks_tape(
    summaries: np.ndarray, mixing: np.ndarray, iterations: int, temperature: float
) -> list[tuple[np.ndarray, int]]:
    """The Sinkhorn pass tape of sort_blocks' logits, on float64 inputs."""
    if summaries.ndim != 2 or mixing.shape != (summaries.shape[1],) * 2:
        raise ValueError("mixing must be square with the summary dimension")
    logits = summaries @ mixing @ summaries.T
    return _sinkhorn_tape(logits, iterations, temperature)


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
    """Cotangents (d_summaries, d_mixing) of sort_blocks."""
    summaries = np.asarray(summaries, dtype=np.float64)
    mixing = np.asarray(mixing, dtype=np.float64)
    tape = _sort_blocks_tape(summaries, mixing, iterations, temperature)
    d_logits = _sinkhorn_pullback(tape, temperature, d_sorting)
    d_summaries = d_logits @ summaries @ mixing.T + d_logits.T @ summaries @ mixing
    return d_summaries, summaries.T @ d_logits @ summaries


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
    (num_blocks, block_size, model_dim). With no padding at all this is a
    reshape view of m, so callers never write into it."""
    shape = spec.num_blocks, spec.block_size, spec.model_dim
    if n_real == spec.padded_len:
        return m.reshape(shape)
    out = np.zeros((spec.padded_len, spec.model_dim))
    out[:n_real] = m[:n_real]
    return out.reshape(shape)


def _unpad(blocked: np.ndarray, spec: AttentionSpec, n_real: int) -> np.ndarray:
    """Inverse of _pad_blocks: (seq_len, model_dim) rows, zero from n_real."""
    flat = blocked.reshape(spec.padded_len, spec.model_dim)[: spec.seq_len]
    flat[n_real:] = 0.0
    return flat


def _sparse_blocks(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    spec: AttentionSpec,
    sorting: np.ndarray,
    n_real: int | None,
) -> tuple[tuple[np.ndarray, ...], list[slice], int]:
    """Checked inputs as (blocks, groups, n_real); blocks is (sorting, valid,
    qb, kb, vb, mixed_k, mixed_v). All blocks mix in one product, so no bit
    depends on the grouping; a group's blocks each hold about
    4·block·(block + 2·d) entries of weights, keys, values and cotangents."""
    q, k, v = _check_qkv(q, k, v)
    if q.shape != (spec.seq_len, spec.model_dim):
        raise ValueError("inputs must be (spec.seq_len, spec.model_dim)")
    sorting = np.asarray(sorting, dtype=np.float64)
    if sorting.shape != (spec.num_blocks, spec.num_blocks):
        raise ValueError("sorting must be num_blocks x num_blocks")
    n_real = _resolve_n_real(spec, n_real)
    real = _real_blocks(spec, n_real)
    valid = np.concatenate([real, sorting @ real], axis=1) > 0.0
    qb, kb, vb = (_pad_blocks(m, spec, n_real) for m in (q, k, v))
    mixed = ((sorting @ m.reshape(spec.num_blocks, -1)).reshape(m.shape) for m in (kb, vb))
    size = spec.block_size
    groups = _chunks(spec.num_blocks, 4 * size * (size + 2 * spec.model_dim))
    return (sorting, valid[:, None, :], qb, kb, vb, *mixed), groups, n_real


def _group_weights(group: slice, blocks: tuple) -> tuple[np.ndarray, ...]:
    """One group's sparse forward as (weights, cat_v, scaled_q, cat_k): its
    queries over sqrt(d), each block's own keys/values then its mixed ones,
    and the _softmax weights, so the group's output is weights @ cat_v."""
    _, valid, qb, kb, vb, mixed_k, mixed_v = blocks
    scaled_q = qb[group] * (1.0 / math.sqrt(qb.shape[2]))
    cat_k = np.concatenate([kb[group], mixed_k[group]], axis=1)
    cat_v = np.concatenate([vb[group], mixed_v[group]], axis=1)
    return _softmax(scaled_q, cat_k, valid[group]), cat_v, scaled_q, cat_k


def _group_pullback(group: slice, blocks: tuple, d_outb: np.ndarray, grads: tuple) -> None:
    """One group of sinkhorn_attention_backward: writes d_q (unscaled) and
    the own key and value cotangents into grads, and the mixed ones over the
    group's rows of mixed_k and mixed_v, which no later group reads."""
    weights, cat_v, scaled_q, cat_k = _group_weights(group, blocks)
    d_out = d_outb[group]
    d_cat_v = np.swapaxes(weights, 1, 2) @ d_out
    d_logits = _softmax_pullback(weights, d_out, cat_v)
    d_cat_k = np.swapaxes(d_logits, 1, 2) @ scaled_q
    (d_qb, d_kb, d_vb), (mixed_k, mixed_v) = grads, blocks[5:]
    d_qb[group] = d_logits @ cat_k
    d_kb[group], mixed_k[group] = np.split(d_cat_k, 2, axis=1)
    d_vb[group], mixed_v[group] = np.split(d_cat_v, 2, axis=1)


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
    blocks, groups, n_real = _sparse_blocks(q, k, v, spec, sorting, n_real)
    out = np.empty((spec.num_blocks, spec.block_size, spec.model_dim))
    for group in groups:
        out[group] = np.matmul(*_group_weights(group, blocks)[:2])
    return _unpad(out, spec, n_real)


def sinkhorn_attention_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    spec: AttentionSpec,
    sorting: np.ndarray,
    d_out: np.ndarray,
    n_real: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents (d_q, d_k, d_v, d_sorting) of sinkhorn_attention; mixed
    parts pull back through sorting once, after the walk over groups."""
    blocks, groups, n_real = _sparse_blocks(q, k, v, spec, sorting, n_real)
    d_outb = _pad_blocks(_check_d_out(d_out, (spec.seq_len, spec.model_dim)), spec, n_real)
    d_qb, d_kb, d_vb = grads = tuple(np.empty(d_outb.shape) for _ in range(3))
    for group in groups:
        _group_pullback(group, blocks, d_outb, grads)
    sorting, _, _, kb, vb, d_mixed_k, d_mixed_v = blocks
    d_qb *= 1.0 / math.sqrt(spec.model_dim)
    d_sorting = []
    for d_own, d_mixed, own in ((d_kb, d_mixed_k, kb), (d_vb, d_mixed_v, vb)):
        d_mixed = d_mixed.reshape(spec.num_blocks, -1)
        d_own += (sorting.T @ d_mixed).reshape(d_own.shape)
        d_sorting.append(d_mixed @ own.reshape(spec.num_blocks, -1).T)
    return (*(_unpad(grad, spec, n_real) for grad in grads), d_sorting[0] + d_sorting[1])


def _block_sorting(
    k: np.ndarray, mixing: np.ndarray, spec: AttentionSpec, n_real: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sparse layer's sorting step, as (sorting, summaries, counts).

    Each block holding a real position (a leading run of len(summaries)
    blocks) is summarized by the mean of its real keys, counts[b] of them;
    sort_blocks sorts those blocks, and the result is embedded in an
    identity so that trailing all-pad blocks never perturb real rows.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (spec.seq_len, spec.model_dim):
        raise ValueError("keys must be (spec.seq_len, spec.model_dim)")
    if np.shape(mixing) != (spec.model_dim,) * 2:
        raise ValueError("mixing must be (spec.model_dim, spec.model_dim)")
    held = -(-n_real // spec.block_size)
    counts = _real_blocks(spec, n_real)[:held].sum(axis=1, keepdims=True)
    summaries = _pad_blocks(k, spec, n_real).sum(axis=1)[:held] / counts
    sorting = np.eye(spec.num_blocks)
    if held:
        sorting[:held, :held] = sort_blocks(
            summaries, mixing, spec.sinkhorn_iterations, spec.temperature
        )
    return sorting, summaries, counts


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
    n_real = _resolve_n_real(spec, n_real)
    sorting = _block_sorting(k, mixing, spec, n_real)[0]
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

    The forward's sorting step runs again; then attention, sort_blocks and
    the mean pool are pulled back in reverse order."""
    n_real = _resolve_n_real(spec, n_real)
    sorting, summaries, counts = _block_sorting(k, mixing, spec, n_real)
    d_q, d_k, d_v, d_sorting = sinkhorn_attention_backward(
        q, k, v, spec, sorting, d_out, n_real
    )
    held = len(summaries)
    if not held:
        return d_q, d_k, d_v, np.zeros((spec.model_dim,) * 2)
    d_summaries, d_mixing = sort_blocks_backward(
        summaries, mixing, spec.sinkhorn_iterations, spec.temperature, d_sorting[:held, :held]
    )
    d_k[:n_real] += np.repeat(d_summaries / counts, spec.block_size, axis=0)[:n_real]
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
