"""Block-sorting attention with hand-rolled reverse-mode derivatives.

Layers come in two flavors picked by :func:`hybrid_schedule`: plain scaled
dot-product attention, and a sparse variant that partitions the sequence
into fixed-size blocks, scores block summaries against each other, and
turns the scores into a near-doubly-stochastic sorting matrix by iterated
Sinkhorn normalization. The sorting matrix mixes keys and values across
blocks, so each query attends over its own block plus one soft-matched
block's worth of remixed positions rather than the full sequence.

Everything here is plain numpy with explicit backward functions. Each
``*_backward`` takes the forward inputs plus the output cotangent and
returns input cotangents; :func:`gradient_check` compares any such pair
against central finite differences. No autograd framework is involved,
which keeps the kernels auditable and the derivative tests honest. The
sparse layer's forward and backward share one batched core that handles
every block at once.

Sorting matrices are plain float arrays. After ``iterations`` Sinkhorn
passes plus one closing row pass, every row sums to 1 within 1e-6 and
column sums approach 1 as iterations grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

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
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @property
    def padded_len(self) -> int:
        return -(-self.seq_len // self.block_size) * self.block_size

    @property
    def num_blocks(self) -> int:
        return self.padded_len // self.block_size


def block_partition(seq_len: int, block_size: int) -> list[range]:
    """Contiguous equal index ranges covering seq_len right-padded to a
    multiple of block_size; positions past seq_len are padding."""
    if seq_len < 1 or block_size < 1:
        raise ValueError("seq_len and block_size must be positive")
    padded = -(-seq_len // block_size) * block_size
    return [range(i, i + block_size) for i in range(0, padded, block_size)]


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


def _softmax(a: np.ndarray, axis: int) -> np.ndarray:
    return np.exp(a - _logsumexp(a, axis))


def _sinkhorn_log_passes(
    logits: np.ndarray, iterations: int, temperature: float
) -> tuple[np.ndarray, list[tuple[np.ndarray, int]]]:
    """Run the normalization in log space, recording (input, axis) per pass
    so the backward sweep can replay them in reverse."""
    a = logits / temperature
    tape: list[tuple[np.ndarray, int]] = []
    for _ in range(iterations):
        for axis in (1, 0):
            tape.append((a, axis))
            a = a - _logsumexp(a, axis)
    tape.append((a, 1))
    a = a - _logsumexp(a, 1)
    return a, tape


def _check_sinkhorn_args(
    logits: np.ndarray, iterations: int, temperature: float
) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
        raise ValueError("logits must be a square matrix")
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return logits


def sinkhorn_normalize(
    logits: np.ndarray, iterations: int, temperature: float = 1.0
) -> np.ndarray:
    """Iterated row/column log-space normalization of logits / temperature.

    Each iteration subtracts the row log-sum-exp then the column
    log-sum-exp; a final row pass closes the loop so row sums come out
    exact, and the result is exponentiated. Entries are strictly positive;
    column sums tend to 1 as iterations grow.
    """
    logits = _check_sinkhorn_args(logits, iterations, temperature)
    final, _ = _sinkhorn_log_passes(logits, iterations, temperature)
    return np.exp(final)


def sinkhorn_normalize_backward(
    logits: np.ndarray, iterations: int, temperature: float, d_out: np.ndarray
) -> np.ndarray:
    """Cotangent of sinkhorn_normalize with respect to logits.

    Replays the pass tape in reverse; subtracting a log-sum-exp along an
    axis pulls back as d_in = d_out - softmax(in) * sum(d_out) along that
    axis.
    """
    logits = _check_sinkhorn_args(logits, iterations, temperature)
    final, tape = _sinkhorn_log_passes(logits, iterations, temperature)
    grad = np.asarray(d_out, dtype=np.float64) * np.exp(final)
    for pass_input, axis in reversed(tape):
        grad = grad - _softmax(pass_input, axis) * grad.sum(axis=axis, keepdims=True)
    return grad / temperature


def _check_qkv(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    q, k, v = (np.asarray(m, dtype=np.float64) for m in (q, k, v))
    if q.ndim != 2 or q.shape != k.shape or k.shape != v.shape:
        raise ValueError("q, k, v must share one (seq_len, dim) shape")
    return q, k, v


def _full_weights(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Attention weights softmax(q kᵀ / sqrt(d)), one row per query."""
    scale = 1.0 / math.sqrt(q.shape[1])
    return _softmax(q @ k.T * scale, axis=1)


def full_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard softmax(q kᵀ / sqrt(d)) v."""
    q, k, v = _check_qkv(q, k, v)
    return _full_weights(q, k) @ v


def full_attention_backward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, k, v = _check_qkv(q, k, v)
    d_out = np.asarray(d_out, dtype=np.float64)
    scale = 1.0 / math.sqrt(q.shape[1])
    weights = _full_weights(q, k)
    d_weights = d_out @ v.T
    d_v = weights.T @ d_out
    d_logits = weights * (d_weights - (weights * d_weights).sum(axis=1, keepdims=True))
    d_q = d_logits @ k * scale
    d_k = d_logits.T @ q * scale
    return d_q, d_k, d_v


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
    if summaries.ndim != 2 or mixing.shape != (summaries.shape[1],) * 2:
        raise ValueError("mixing must be square with the summary dimension")
    logits = summaries @ mixing @ summaries.T
    return sinkhorn_normalize(logits, iterations, temperature)


def sort_blocks_backward(
    summaries: np.ndarray,
    mixing: np.ndarray,
    iterations: int,
    temperature: float,
    d_sorting: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    summaries = np.asarray(summaries, dtype=np.float64)
    mixing = np.asarray(mixing, dtype=np.float64)
    logits = summaries @ mixing @ summaries.T
    d_logits = sinkhorn_normalize_backward(logits, iterations, temperature, d_sorting)
    d_summaries = d_logits @ summaries @ mixing.T + d_logits.T @ summaries @ mixing
    d_mixing = summaries.T @ d_logits @ summaries
    return d_summaries, d_mixing


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
    """The shared core of the sparse layer: all blocks at once, on checked
    inputs.

    Returns (qb, cat_k, cat_v, weights). qb is the padded queries as
    (num_blocks, block_size, model_dim); cat_k and cat_v hold each block's
    own keys/values followed by its mixed ones. weights is (num_blocks,
    block_size, 2 * block_size) and exactly zero at invalid columns and in
    every row that has no valid column at all, so the blocked output is
    weights @ cat_v, with rows from n_real on still to be zeroed.
    """
    real = _real_blocks(spec, n_real)
    valid = np.concatenate([real, sorting @ real], axis=1) > 0.0
    qb = _pad_blocks(q, spec, n_real)
    cat_k = _own_and_mixed(k, spec, sorting, n_real)
    cat_v = _own_and_mixed(v, spec, sorting, n_real)
    weights = qb @ cat_k.transpose(0, 2, 1)
    weights *= 1.0 / math.sqrt(spec.model_dim)
    np.copyto(weights, -np.inf, where=~valid[:, None, :])
    peak = weights.max(axis=2, keepdims=True)
    peak[np.isneginf(peak)] = 0.0
    weights -= peak
    np.exp(weights, out=weights)
    total = weights.sum(axis=2, keepdims=True)
    total[total == 0.0] = 1.0
    weights /= total
    return qb, cat_k, cat_v, weights


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
    qb, cat_k, cat_v, weights = _sparse_weights(q, k, v, spec, sorting, n_real)
    scale = 1.0 / math.sqrt(spec.model_dim)
    d_outb = _pad_blocks(np.asarray(d_out, dtype=np.float64), spec, n_real)
    d_cat_v = weights.transpose(0, 2, 1) @ d_outb
    d_logits = d_outb @ cat_v.transpose(0, 2, 1)
    d_logits -= (weights * d_logits).sum(axis=2, keepdims=True)
    d_logits *= weights
    d_qb = d_logits @ cat_k
    d_qb *= scale
    d_cat_k = d_logits.transpose(0, 2, 1) @ qb
    d_cat_k *= scale
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


def _embedded_sorting(
    k: np.ndarray, mixing: np.ndarray, spec: AttentionSpec, n_real: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorting over real blocks only, embedded into an identity over all
    blocks so trailing all-pad blocks never perturb real rows."""
    summaries, mask = mean_pool_blocks(k, spec, n_real)
    sorting = np.eye(spec.num_blocks)
    indices = np.where(mask)[0]
    if len(indices) > 0:
        sub = sort_blocks(
            summaries[indices], mixing, spec.sinkhorn_iterations, spec.temperature
        )
        sorting[np.ix_(indices, indices)] = sub
    return sorting, summaries, mask


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
    identity elsewhere, which makes outputs invariant to appending masked
    padding.
    """
    sorting, _, _ = _embedded_sorting(k, mixing, spec, n_real)
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
    """Cotangents (d_q, d_k, d_v, d_mixing) of sinkhorn_block_attention."""
    n_real = _resolve_n_real(spec, n_real)
    sorting, summaries, mask = _embedded_sorting(k, mixing, spec, n_real)
    d_q, d_k, d_v, d_sorting = sinkhorn_attention_backward(
        q, k, v, spec, sorting, d_out, n_real
    )
    mixing = np.asarray(mixing, dtype=np.float64)
    d_mixing = np.zeros_like(mixing)
    indices = np.where(mask)[0]
    if len(indices) > 0:
        d_sub = d_sorting[np.ix_(indices, indices)]
        d_summaries_sub, d_mixing = sort_blocks_backward(
            summaries[indices], mixing, spec.sinkhorn_iterations, spec.temperature, d_sub
        )
        real = _real_blocks(spec, n_real)
        d_summaries = np.zeros((spec.num_blocks, spec.model_dim))
        d_summaries[indices] = d_summaries_sub / real[indices].sum(axis=1, keepdims=True)
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
    perturbed in place entry by entry and restored.
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
            scale = max(abs(numeric), abs(analytic), 1e-4)
            worst = max(worst, abs(numeric - analytic) / scale)
    return worst
