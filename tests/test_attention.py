from __future__ import annotations

import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialogkit import attention
from dialogkit.attention import (
    AttentionSpec,
    LayerMode,
    full_attention,
    full_attention_backward,
    gradient_check,
    hybrid_schedule,
    sinkhorn_attention,
    sinkhorn_attention_backward,
    sinkhorn_block_attention,
    sinkhorn_block_attention_backward,
    sinkhorn_normalize,
    sinkhorn_normalize_backward,
    sort_blocks,
    sort_blocks_backward,
)

# Hand-iterated 2x2 oracle: logits = 5*I, temperature 0.5, two iterations
# plus the closing row pass, done with scalar arithmetic offline.
SINKHORN_2X2_ORACLE = [
    [0.9999546021312976, 4.5397868702434354e-05],
    [4.5397868702434354e-05, 0.9999546021312976],
]


def test_spec_validation_and_padding():
    spec = AttentionSpec(seq_len=10, model_dim=4, block_size=4)
    assert spec.padded_len == 12
    assert spec.num_blocks == 3
    exact = AttentionSpec(seq_len=8, model_dim=4, block_size=4)
    assert exact.padded_len == 8
    with pytest.raises(ValueError):
        AttentionSpec(seq_len=0, model_dim=4, block_size=4)
    with pytest.raises(ValueError):
        AttentionSpec(seq_len=8, model_dim=4, block_size=4, temperature=0.0)
    with pytest.raises(ValueError):
        AttentionSpec(seq_len=8, model_dim=4, block_size=4, num_layers=3)
    with pytest.raises(ValueError):
        AttentionSpec(
            seq_len=8, model_dim=4, block_size=4, num_layers=3,
            full_attention_layers=frozenset({4}),
        )


def test_hybrid_schedule_default_and_extremes():
    spec = AttentionSpec(seq_len=8, model_dim=4, block_size=4)
    modes = hybrid_schedule(spec)
    assert len(modes) == 12
    assert [i + 1 for i, m in enumerate(modes) if m is LayerMode.FULL] == [4, 8, 12]
    all_full = AttentionSpec(
        seq_len=8, model_dim=4, block_size=4, num_layers=3,
        full_attention_layers=frozenset({1, 2, 3}),
    )
    assert hybrid_schedule(all_full) == [LayerMode.FULL] * 3
    none_full = AttentionSpec(
        seq_len=8, model_dim=4, block_size=4, num_layers=3,
        full_attention_layers=frozenset(),
    )
    assert hybrid_schedule(none_full) == [LayerMode.SPARSE] * 3


def test_sinkhorn_matches_hand_iterated_oracle():
    out = sinkhorn_normalize(np.eye(2) * 5.0, iterations=2, temperature=0.5)
    np.testing.assert_allclose(out, SINKHORN_2X2_ORACLE, rtol=0, atol=1e-15)


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_sinkhorn_runs_exactly_the_documented_passes(iterations):
    # Far from converged, so one pass more or fewer moves every entry.
    logits = np.random.default_rng(4).standard_normal((4, 4)) * 3.0
    expected = np.exp(logits / 0.7)
    for _ in range(iterations):
        expected /= expected.sum(axis=1, keepdims=True)
        expected /= expected.sum(axis=0, keepdims=True)
    expected /= expected.sum(axis=1, keepdims=True)
    out = sinkhorn_normalize(logits, iterations=iterations, temperature=0.7)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)


def test_sinkhorn_zero_logits_uniform():
    for size in (1, 2, 5, 8):
        out = sinkhorn_normalize(np.zeros((size, size)), iterations=3)
        np.testing.assert_allclose(out, np.full((size, size), 1.0 / size), atol=1e-12)


def test_sinkhorn_identity_limit():
    out = sinkhorn_normalize(np.eye(4) * 10.0, iterations=2, temperature=0.2)
    np.testing.assert_allclose(out, np.eye(4), atol=1e-3)


def test_sinkhorn_row_and_column_sums():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.standard_normal((8, 8))
        out = sinkhorn_normalize(logits, iterations=20)
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-4)


def test_sinkhorn_column_deviation_shrinks_with_iterations():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((8, 8))
    deviations = []
    for iterations in (1, 2, 5, 10, 20):
        out = sinkhorn_normalize(logits, iterations=iterations)
        deviations.append(np.abs(out.sum(axis=0) - 1.0).max())
    for earlier, later in zip(deviations, deviations[1:]):
        assert later <= earlier + 1e-9


def test_sinkhorn_rejects_bad_input():
    with pytest.raises(ValueError):
        sinkhorn_normalize(np.array([[np.inf, 0.0], [0.0, 0.0]]), 2)
    with pytest.raises(ValueError):
        sinkhorn_normalize(np.zeros((2, 3)), 2)
    with pytest.raises(ValueError):
        sinkhorn_normalize(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        sinkhorn_normalize(np.zeros((2, 2)), 2, temperature=-1.0)


@pytest.mark.parametrize(
    "value, temperature", [(1.0, 1e-320), (1e10, 1e-300)], ids=["subnormal", "huge-logits"]
)
def test_sinkhorn_rejects_logits_that_overflow_at_the_temperature(value, temperature):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="logits / temperature must be finite"):
            sinkhorn_normalize(np.full((2, 2), value), 2, temperature=temperature)
        assert np.all(np.isfinite(sinkhorn_normalize(np.eye(2), 2, temperature=1e-300)))


@pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf])
def test_temperature_must_be_finite_and_positive(temperature):
    with pytest.raises(ValueError, match="finite and positive"):
        AttentionSpec(seq_len=8, model_dim=4, block_size=4, temperature=temperature)
    with pytest.raises(ValueError, match="finite and positive"):
        sinkhorn_normalize(np.zeros((2, 2)), 2, temperature=temperature)


def test_sinkhorn_permutation_equivariance():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((6, 6))
    perm = rng.permutation(6)
    base = sinkhorn_normalize(logits, 8)
    permuted = sinkhorn_normalize(logits[np.ix_(perm, perm)], 8)
    np.testing.assert_allclose(permuted, base[np.ix_(perm, perm)], atol=1e-6)


def test_full_attention_hand_fixture():
    q = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    k = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    logits = q @ k.T / math.sqrt(2)
    expected = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(full_attention(q, k, v), expected @ v, atol=1e-12)


def test_full_attention_degenerate_cases():
    v = np.array([[3.0, 7.0]])
    np.testing.assert_allclose(
        full_attention(np.array([[1.0, 2.0]]), np.array([[0.5, 0.5]]), v), v
    )
    # identical keys -> uniform weights -> plain mean of values
    q = np.random.default_rng(3).standard_normal((4, 2))
    k = np.tile([[1.0, 2.0]], (4, 1))
    v = np.arange(8, dtype=float).reshape(4, 2)
    np.testing.assert_allclose(
        full_attention(q, k, v), np.tile(v.mean(axis=0), (4, 1)), atol=1e-12
    )
    with pytest.raises(ValueError):
        full_attention(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_full_attention_rejects_empty_shapes(shape):
    empty = np.zeros(shape)
    with pytest.raises(ValueError, match="non-empty"):
        full_attention(empty, empty, empty)
    with pytest.raises(ValueError, match="non-empty"):
        full_attention_backward(empty, empty, empty, empty)


def test_full_attention_backward_rejects_a_misshapen_cotangent():
    q = np.ones((4, 2))
    for d_out in (np.ones((5, 2)), np.ones((3, 2)), np.ones((4, 3))):
        with pytest.raises(ValueError):
            full_attention_backward(q, q, q, d_out)


@pytest.mark.parametrize("d_out_shape", [(11, 2), (9, 2), (7, 2), (8, 3), (8,)])
def test_sparse_backward_rejects_a_misshapen_cotangent(d_out_shape):
    spec = AttentionSpec(seq_len=8, model_dim=2, block_size=4)
    q = np.random.default_rng(0).standard_normal((8, 2))
    d_out = np.ones(d_out_shape)
    message = r"d_out must have the \(seq_len, dim\) shape of q"
    with pytest.raises(ValueError, match=message):
        sinkhorn_attention_backward(q, q, q, spec, np.eye(2), d_out)
    with pytest.raises(ValueError, match=message):
        sinkhorn_block_attention_backward(q, q, q, np.eye(2), spec, d_out)


def _full_oracle(q, k, v, d_out):
    """Straight-line unchunked full attention: (out, d_q, d_k, d_v)."""
    scale = 1.0 / math.sqrt(q.shape[1])
    logits = q @ k.T * scale
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    d_weights = d_out @ v.T
    d_logits = weights * (d_weights - (weights * d_weights).sum(axis=1, keepdims=True))
    return weights @ v, d_logits @ k * scale, d_logits.T @ q * scale, weights.T @ d_out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 4), st.integers(1, 14), st.integers(0, 2**32 - 1)
)
@example(1, 3, 1, 0)  # one row
@example(5, 2, 8, 1)  # fewer rows than one chunk
@example(6, 3, 3, 2)  # an exact multiple of the chunk
@example(7, 3, 3, 3)  # a ragged last chunk
def test_chunked_full_attention_matches_unchunked_oracle(seq_len, dim, chunk_rows, seed):
    rng = np.random.default_rng(seed)
    q, k, v = (2.0 * m for m in _random_qkv(rng, seq_len, dim))
    d_out = rng.standard_normal((seq_len, dim))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attention, "_CHUNK_ENTRIES", chunk_rows * seq_len)
        got = (full_attention(q, k, v), *full_attention_backward(q, k, v, d_out))
    for actual, expected in zip(got, _full_oracle(q, k, v, d_out)):
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


def test_gradient_full_attention_over_several_chunks(monkeypatch):
    rng = np.random.default_rng(16)
    q, k, v = _random_qkv(rng, 7, 3)
    monkeypatch.setattr(attention, "_CHUNK_ENTRIES", 3 * 7)
    weights = rng.standard_normal((7, 3))
    error = gradient_check(full_attention, full_attention_backward, [q, k, v], weights=weights)
    assert error < 1e-4


def test_full_layer_writes_every_chunk_into_one_score_buffer(monkeypatch):
    q, k, v = _random_qkv(np.random.default_rng(22), 7, 3)
    monkeypatch.setattr(attention, "_CHUNK_ENTRIES", 3 * 7)  # chunks of 3, 3 and 1 rows
    seen = []
    softmax = attention._softmax

    def recording(*args, **kwargs):
        seen.append(softmax(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(attention, "_softmax", recording)
    for call in (lambda: full_attention(q, k, v), lambda: full_attention_backward(q, k, v, q)):
        seen.clear()
        call()
        assert [len(weights) for weights in seen] == [3, 3, 1]
        assert all(np.shares_memory(weights, seen[0]) for weights in seen)


def _traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_attention_backward_memory_stays_below_one_score_matrix():
    seq_len = 2048
    q, k, v = _random_qkv(np.random.default_rng(17), seq_len, 64)
    d_out = np.ones_like(q)
    peak = _traced_peak(lambda: full_attention_backward(q, k, v, d_out))
    assert peak < seq_len * seq_len * 8


# Traced peaks at L=4096, d=64, block 64, in (L, d) float64 arrays. Each
# layer holds a few such arrays plus one bounded query chunk or block group:
# the full forward its output, the sparse forward that and the mixed keys
# and values, the sparse backward those and d_q, d_k, d_v, the full
# backward its three cotangents and one scratch partial. Measured: 2.07,
# 3.60, 6.13 and 6.07 arrays.
@pytest.mark.parametrize(
    "layer, arrays",
    [
        ("full_forward", 2.5),
        ("sparse_forward", 4.0),
        ("sparse_backward", 7.0),
        ("full_backward", 6.5),
    ],
)
def test_layer_memory_is_a_few_sequence_arrays(layer, arrays):
    seq_len, dim = 4096, 64
    rng = np.random.default_rng(18)
    q, k, v = _random_qkv(rng, seq_len, dim)
    mixing = rng.standard_normal((dim, dim)) / math.sqrt(dim)
    spec = AttentionSpec(seq_len=seq_len, model_dim=dim, block_size=64)
    calls = {
        "full_forward": lambda: full_attention(q, k, v),
        "sparse_forward": lambda: sinkhorn_block_attention(q, k, v, mixing, spec),
        "sparse_backward": lambda: sinkhorn_block_attention_backward(q, k, v, mixing, spec, q),
        "full_backward": lambda: full_attention_backward(q, k, v, q),
    }
    assert _traced_peak(calls[layer]) < arrays * seq_len * dim * 8


def test_hybrid_stack_pass_memory_is_its_activations_plus_one_layer():
    # The benchmark's 12-layer stack at L=2048, d=64: the forward keeps its
    # 12 layer outputs, one (L, d) array each, and the largest layer's
    # working memory comes on top. Measured: 21.3 arrays.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "dkbench"))
    import stack

    layers = stack.Stack(19, 2048, 32)
    tracemalloc.start()
    try:
        layers.backward(layers.forward())
        # Each traced layer resets the peak, so a pass reads it from both.
        peak = max(layers.absolute_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peak < 23 * 2048 * 64 * 8


def test_sparse_layer_sorts_through_the_module_names(monkeypatch):
    # The traced benchmark run times sort_blocks and sort_blocks_backward
    # by replacing the module attributes, so the layer must call them there.
    calls = []

    def counting(name):
        call = getattr(attention, name)
        return lambda *args: calls.append(name) or call(*args)

    for name in ("sort_blocks", "sort_blocks_backward"):
        monkeypatch.setattr(attention, name, counting(name))
    rng = np.random.default_rng(23)
    spec = AttentionSpec(seq_len=12, model_dim=4, block_size=4)
    q, k, v = _random_qkv(rng, 12, 4)
    mixing = rng.standard_normal((4, 4))
    sinkhorn_block_attention(q, k, v, mixing, spec)
    assert calls == ["sort_blocks"]
    calls.clear()
    sinkhorn_block_attention_backward(q, k, v, mixing, spec, q)
    assert calls == ["sort_blocks", "sort_blocks_backward"]


def test_sort_blocks_symmetry_and_degeneracy():
    summaries = np.tile([[1.0, 2.0, 3.0]], (4, 1))
    sorting = sort_blocks(summaries, np.eye(3), iterations=6)
    np.testing.assert_allclose(sorting, np.full((4, 4), 0.25), atol=1e-12)
    single = sort_blocks(np.array([[5.0, 1.0, 0.0]]), np.eye(3), iterations=3)
    np.testing.assert_allclose(single, [[1.0]], atol=0)
    with pytest.raises(ValueError):
        sort_blocks(np.zeros((2, 3)), np.eye(2), 3)


def test_sort_blocks_orthogonal_summaries_near_identity():
    summaries = np.eye(4) * 6.0
    sorting = sort_blocks(summaries, np.eye(4), iterations=20, temperature=0.2)
    np.testing.assert_allclose(sorting, np.eye(4), atol=1e-3)


def _random_qkv(rng, seq_len, dim):
    return tuple(rng.standard_normal((seq_len, dim)) for _ in range(3))


def test_single_block_equals_full_attention():
    rng = np.random.default_rng(4)
    for seq_len, dim in ((3, 2), (8, 4), (13, 5)):
        q, k, v = _random_qkv(rng, seq_len, dim)
        spec = AttentionSpec(seq_len=seq_len, model_dim=dim, block_size=seq_len)
        out = sinkhorn_attention(q, k, v, spec, np.ones((1, 1)))
        np.testing.assert_allclose(out, full_attention(q, k, v), atol=1e-6)


def test_identity_sorting_equals_block_local():
    rng = np.random.default_rng(5)
    for seq_len, dim, block in ((8, 4, 4), (12, 3, 4), (16, 5, 8)):
        q, k, v = _random_qkv(rng, seq_len, dim)
        spec = AttentionSpec(seq_len=seq_len, model_dim=dim, block_size=block)
        out = sinkhorn_attention(q, k, v, spec, np.eye(spec.num_blocks))
        reference = attention._block_local_reference(q, k, v, block)
        np.testing.assert_allclose(out, reference, atol=1e-6)


def test_attention_rows_normalize_over_valid_columns():
    # with every value row equal to ones and no padding, mixed values are
    # row-sum-one combinations of ones, so outputs reproduce the attention
    # weight row sums, which must be one at every position
    rng = np.random.default_rng(6)
    spec = AttentionSpec(seq_len=12, model_dim=3, block_size=4)
    q, k, _ = _random_qkv(rng, 12, 3)
    sorting = sinkhorn_normalize(rng.standard_normal((3, 3)), 8)
    out = sinkhorn_attention(q, k, np.ones((12, 3)), spec, sorting)
    np.testing.assert_allclose(out, 1.0, atol=1e-6)
    # under padding the same holds for identity sorting, where mixing
    # cannot blend in zeroed pad rows from other blocks
    out_padded = sinkhorn_attention(
        q[:11], k[:11], np.ones((11, 3)),
        AttentionSpec(seq_len=11, model_dim=3, block_size=4),
        np.eye(3), n_real=9,
    )
    np.testing.assert_allclose(out_padded[:9], 1.0, atol=1e-6)
    np.testing.assert_allclose(out_padded[9:], 0.0, atol=0)


def test_padded_query_rows_are_zero():
    rng = np.random.default_rng(7)
    spec = AttentionSpec(seq_len=10, model_dim=4, block_size=4)
    q, k, v = _random_qkv(rng, 10, 4)
    sorting = sinkhorn_normalize(rng.standard_normal((3, 3)), 8)
    out = sinkhorn_attention(q, k, v, spec, sorting, n_real=7)
    assert np.all(out[7:] == 0.0)
    assert np.all(np.isfinite(out))


def test_block_attention_padding_invariance():
    rng = np.random.default_rng(8)
    base_spec = AttentionSpec(seq_len=10, model_dim=4, block_size=4)
    q, k, v = _random_qkv(rng, 10, 4)
    mixing = rng.standard_normal((4, 4))
    base = sinkhorn_block_attention(q, k, v, mixing, base_spec)
    extended_spec = AttentionSpec(seq_len=18, model_dim=4, block_size=4)
    pads = [rng.standard_normal((8, 4)) for _ in range(3)]
    extended = sinkhorn_block_attention(
        np.vstack([q, pads[0]]),
        np.vstack([k, pads[1]]),
        np.vstack([v, pads[2]]),
        mixing,
        extended_spec,
        n_real=10,
    )
    np.testing.assert_allclose(extended[:10], base, atol=1e-6)
    assert np.all(extended[10:] == 0.0)


def test_attention_argument_validation():
    spec = AttentionSpec(seq_len=8, model_dim=4, block_size=4)
    q = np.zeros((8, 4))
    with pytest.raises(ValueError):
        sinkhorn_attention(q, q, q, spec, np.eye(3))
    with pytest.raises(ValueError):
        sinkhorn_attention(np.zeros((6, 4)), q, q, spec, np.eye(2))
    with pytest.raises(ValueError):
        sinkhorn_attention(q, q, q, spec, np.eye(2), n_real=9)
    # a misshapen mixing is refused even when no block is real
    for n_real in (0, 8):
        with pytest.raises(ValueError):
            sinkhorn_block_attention(q, q, q, np.zeros((3, 3)), spec, n_real=n_real)
        with pytest.raises(ValueError):
            sinkhorn_block_attention_backward(q, q, q, np.zeros((3, 3)), spec, q, n_real=n_real)


def test_gradient_full_attention():
    rng = np.random.default_rng(9)
    q, k, v = _random_qkv(rng, 8, 4)
    error = gradient_check(full_attention, full_attention_backward, [q, k, v])
    assert error < 1e-4


def test_gradient_sinkhorn_normalize_weighted():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((4, 4))
    weights = rng.standard_normal((4, 4))
    error = gradient_check(
        lambda m: sinkhorn_normalize(m, 4, 1.0),
        lambda m, d: (sinkhorn_normalize_backward(m, 4, 1.0, d),),
        [logits],
        weights=weights,
    )
    assert error < 1e-4


def test_gradient_sort_blocks_weighted():
    rng = np.random.default_rng(11)
    summaries = rng.standard_normal((3, 4))
    mixing = rng.standard_normal((4, 4))
    weights = rng.standard_normal((3, 3))
    error = gradient_check(
        lambda s, m: sort_blocks(s, m, 4, 0.7),
        lambda s, m, d: sort_blocks_backward(s, m, 4, 0.7, d),
        [summaries, mixing],
        weights=weights,
    )
    assert error < 1e-4


def test_gradient_sinkhorn_attention_with_sorting_input():
    rng = np.random.default_rng(12)
    spec = AttentionSpec(seq_len=12, model_dim=4, block_size=4, sinkhorn_iterations=4)
    q, k, v = _random_qkv(rng, 12, 4)
    sorting = sinkhorn_normalize(rng.standard_normal((3, 3)), 6)
    error = gradient_check(
        lambda a, b, c, s: sinkhorn_attention(a, b, c, spec, s),
        lambda a, b, c, s, d: sinkhorn_attention_backward(a, b, c, spec, s, d),
        [q, k, v, sorting],
    )
    assert error < 1e-3


def test_gradient_block_attention_end_to_end():
    rng = np.random.default_rng(13)
    spec = AttentionSpec(seq_len=12, model_dim=4, block_size=4, sinkhorn_iterations=4)
    q, k, v = _random_qkv(rng, 12, 4)
    mixing = rng.standard_normal((4, 4))
    error = gradient_check(
        lambda a, b, c, m: sinkhorn_block_attention(a, b, c, m, spec),
        lambda a, b, c, m, d: sinkhorn_block_attention_backward(a, b, c, m, spec, d),
        [q, k, v, mixing],
    )
    assert error < 1e-3


def test_gradient_block_attention_with_padding():
    rng = np.random.default_rng(14)
    spec = AttentionSpec(seq_len=14, model_dim=4, block_size=4, sinkhorn_iterations=4)
    inputs = [rng.standard_normal((14, 4)) for _ in range(3)]
    mixing = rng.standard_normal((4, 4))
    error = gradient_check(
        lambda a, b, c, m: sinkhorn_block_attention(a, b, c, m, spec, n_real=11),
        lambda a, b, c, m, d: sinkhorn_block_attention_backward(
            a, b, c, m, spec, d, n_real=11
        ),
        inputs + [mixing],
    )
    assert error < 1e-3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gradient_check_scores_non_finite_gradients_as_inf(bad):
    rng = np.random.default_rng(15)
    q, k, v = _random_qkv(rng, 4, 2)

    def broken_backward(*args):
        return [np.full_like(g, bad) for g in full_attention_backward(*args)]

    error = gradient_check(full_attention, broken_backward, [q, k, v])
    assert error == math.inf


def test_gradient_check_validates_epsilon():
    with pytest.raises(ValueError):
        gradient_check(
            full_attention, full_attention_backward, [np.ones((2, 2))] * 3, epsilon=0.5
        )


def _sparse_oracle(q, k, v, sorting, block_size, n_real):
    """Independent straight-line sinkhorn_attention: every real query row
    attends over its own block's keys plus the sorting-mixed block's keys,
    each column kept only where a real position contributes to it."""
    seq_len, dim = q.shape
    blocks = len(sorting)

    def row(m, position):
        return m[position] if position < n_real else np.zeros(dim)

    out = np.zeros((seq_len, dim))
    for query in range(n_real):
        b = query // block_size
        keys, values = [], []
        for s in range(block_size):
            own = b * block_size + s
            if own < n_real:
                keys.append(k[own])
                values.append(v[own])
        for s in range(block_size):
            sources = [c * block_size + s for c in range(blocks)]
            if any(sorting[b, c] > 0 and p < n_real for c, p in enumerate(sources)):
                keys.append(sum(sorting[b, c] * row(k, p) for c, p in enumerate(sources)))
                values.append(sum(sorting[b, c] * row(v, p) for c, p in enumerate(sources)))
        logits = np.array([q[query] @ key for key in keys]) / math.sqrt(dim)
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        out[query] = sum(w * value for w, value in zip(weights, values))
    return out


@st.composite
def _sparse_cases(draw, positive_sorting=False, padded=False):
    seq_len = draw(st.integers(1, 12))
    block = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 3))
    n_real = draw(st.integers(0, seq_len - 1 if padded else seq_len))
    if positive_sorting:
        kind = draw(st.sampled_from(["sinkhorn", "positive"]))
    else:
        kind = draw(st.sampled_from(["identity", "sinkhorn", "nonneg"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = AttentionSpec(seq_len=seq_len, model_dim=dim, block_size=block)
    blocks = spec.num_blocks
    if kind == "identity":
        sorting = np.eye(blocks)
    elif kind == "sinkhorn":
        sorting = sinkhorn_normalize(rng.standard_normal((blocks, blocks)), 4)
    elif kind == "positive":
        sorting = rng.uniform(0.1, 1.0, (blocks, blocks))
    else:
        sorting = rng.uniform(0.0, 2.0, (blocks, blocks))
        sorting[rng.random((blocks, blocks)) < 0.5] = 0.0
    q, k, v = _random_qkv(rng, seq_len, dim)
    return spec, q, k, v, sorting, n_real


# Blocks per sparse group: None keeps the default budget, which walks
# these small specs in one group.
_GROUP_BLOCKS = st.sampled_from([None, 1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(_sparse_cases(), _GROUP_BLOCKS)
# nothing real; and three trailing all-pad blocks that mix in real keys
@example((AttentionSpec(7, 2, 3), *np.ones((3, 7, 2)), np.eye(3), 0), None)
@example((AttentionSpec(9, 2, 2), *np.arange(54.0).reshape(3, 9, 2) / 50,
          np.full((5, 5), 0.2), 3), 2)
def test_sinkhorn_attention_matches_per_block_oracle(case, group_blocks):
    spec, q, k, v, sorting, n_real = case
    with pytest.MonkeyPatch.context() as patch:
        _walk_groups_of(patch, spec, group_blocks)
        out = sinkhorn_attention(q, k, v, spec, sorting, n_real)
        # blocks with no valid column at all must not leak NaN into cotangents
        grads = sinkhorn_attention_backward(q, k, v, spec, sorting, np.ones_like(q), n_real)
    assert np.all(np.isfinite(out))
    assert np.all(out[n_real:] == 0.0)
    np.testing.assert_allclose(
        out, _sparse_oracle(q, k, v, sorting, spec.block_size, n_real), rtol=1e-9, atol=1e-12
    )
    assert all(np.all(np.isfinite(g)) for g in grads)


@settings(max_examples=25, deadline=None)
@given(
    _sparse_cases(positive_sorting=True, padded=True), st.integers(0, 2**32 - 1), _GROUP_BLOCKS
)
def test_gradient_sinkhorn_attention_with_padding(case, seed, group_blocks):
    spec, q, k, v, sorting, n_real = case
    weights = np.random.default_rng(seed).standard_normal(q.shape)
    with pytest.MonkeyPatch.context() as patch:
        _walk_groups_of(patch, spec, group_blocks)
        grads = sinkhorn_attention_backward(q, k, v, spec, sorting, weights, n_real)
        assert all(np.all(np.isfinite(g)) for g in grads)
        error = gradient_check(
            lambda a, b, c, s: sinkhorn_attention(a, b, c, spec, s, n_real),
            lambda a, b, c, s, d: sinkhorn_attention_backward(a, b, c, spec, s, d, n_real),
            [q, k, v, sorting],
            weights=weights,
        )
    assert error < 1e-3


def _group_sizes(spec):
    """Blocks per group, in order, as the sparse layer walks them for spec."""
    zeros = np.zeros((spec.seq_len, spec.model_dim))
    sorting = np.eye(spec.num_blocks)
    _, groups, _ = attention._sparse_blocks(zeros, zeros, zeros, spec, sorting, None)
    return [len(range(spec.num_blocks)[group]) for group in groups]


def _walk_groups_of(patch, spec, blocks):
    """Set the budget so the sparse layer walks ``blocks`` blocks per group
    (all but the last), or leave the default when blocks is None. A block's
    group temporaries count 4·block·(block + 2·d) entries."""
    if blocks is None:
        return
    size = spec.block_size
    patch.setattr(attention, "_CHUNK_ENTRIES", blocks * 4 * size * (size + 2 * spec.model_dim))
    whole, rest = divmod(spec.num_blocks, blocks)
    assert _group_sizes(spec) == [blocks] * whole + [rest] * (rest > 0)


@pytest.mark.parametrize(
    "spec, n_real",
    [
        (AttentionSpec(64, 3, 4, sinkhorn_iterations=4), None),
        (AttentionSpec(62, 3, 4, sinkhorn_iterations=4), 57),
        (AttentionSpec(1024, 64, 32), 1000),
    ],
    ids=["exact-fit", "padded", "bench-size"],
)
@pytest.mark.parametrize("group_blocks", [1, 3, 32], ids=["1", "3", "32"])
def test_block_groups_leave_every_bit_unchanged(monkeypatch, spec, n_real, group_blocks):
    rng = np.random.default_rng(20)
    q, k, v = _random_qkv(rng, spec.seq_len, spec.model_dim)
    d_out = rng.standard_normal(q.shape)
    mixing = rng.standard_normal((spec.model_dim,) * 2) / math.sqrt(spec.model_dim)
    sorting = sinkhorn_normalize(rng.standard_normal((spec.num_blocks,) * 2), 4)

    def outputs():
        return (
            sinkhorn_attention(q, k, v, spec, sorting, n_real),
            *sinkhorn_attention_backward(q, k, v, spec, sorting, d_out, n_real),
            sinkhorn_block_attention(q, k, v, mixing, spec, n_real),
            *sinkhorn_block_attention_backward(q, k, v, mixing, spec, d_out, n_real),
        )

    default = outputs()
    _walk_groups_of(monkeypatch, spec, group_blocks)
    for got, want in zip(outputs(), default, strict=True):
        assert np.array_equal(got, want)


def test_gradient_block_attention_over_several_groups(monkeypatch):
    rng = np.random.default_rng(21)
    spec = AttentionSpec(seq_len=18, model_dim=3, block_size=4, sinkhorn_iterations=4)
    inputs = [rng.standard_normal((18, 3)) for _ in range(3)]
    mixing = rng.standard_normal((3, 3))
    _walk_groups_of(monkeypatch, spec, 2)  # groups of 2, 2 and 1 blocks
    weights = rng.standard_normal((18, 3))
    error = gradient_check(
        lambda a, b, c, m: sinkhorn_block_attention(a, b, c, m, spec, n_real=13),
        lambda a, b, c, m, d: sinkhorn_block_attention_backward(a, b, c, m, spec, d, n_real=13),
        inputs + [mixing],
        weights=weights,
    )
    assert error < 1e-3


def test_bench_sized_sparse_layer_walks_several_groups():
    # the default budget splits L=1024, block 32, d=64 with a partial last
    # group, so the grouping tests above also cover the default walk
    assert _group_sizes(AttentionSpec(1024, 64, 32)) == [12, 12, 8]
