"""The hybrid attention stack the ``attention`` workload times.

The default 12-layer ``hybrid_schedule`` (full attention at layers 4, 8 and
12, Sinkhorn block attention elsewhere) is chained as
``x[l + 1] = layer(x[l], x[l], x[l])`` with a seeded mixing matrix per
layer. The backward pass feeds the cotangent of ``sum(weights * x[12])``
through the analytic ``*_backward`` functions in reverse layer order.

Every call into ``dialogkit.attention`` goes through the module attribute,
so the traced run can substitute timing wrappers for them.
"""

from __future__ import annotations

import tracemalloc

from dialogkit import attention

import gen

# (sequence length, block size) of the timed passes; the traced run adds
# single layers at TRACE_LENGTH.
LENGTHS = ((1024, 32), (4096, 64))
TRACE_LENGTH = (8192, 128)
MB = 2**20


class Stack:
    def __init__(self, seed: int, seq_len: int, block_size: int) -> None:
        self.spec = attention.AttentionSpec(
            seq_len=seq_len, model_dim=gen.MODEL_DIM, block_size=block_size
        )
        self.modes = [mode.value for mode in attention.hybrid_schedule(self.spec)]
        self.x0, self.mixings, self.weights = gen.attention_inputs(
            seed, seq_len, len(self.modes)
        )
        # Filled only while tracemalloc is tracing: the peak traced MB above
        # the level at entry, per layer mode, and the highest traced bytes
        # seen during any layer. Each layer resets tracemalloc's peak, so a
        # whole pass reads its peak from ``absolute_peak``.
        self.peak_mb: dict[str, float] = {}
        self.absolute_peak = 0

    def _measure(self, mode: str, call):
        if not tracemalloc.is_tracing():
            return call()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return call()
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            self.absolute_peak = max(self.absolute_peak, peak)
            self.peak_mb[mode] = max(self.peak_mb.get(mode, 0.0), (peak - base) / MB)

    def layer_forward(self, index: int, x):
        if self.modes[index] == "full":
            return self._measure("full", lambda: attention.full_attention(x, x, x))
        return self._measure(
            "sparse",
            lambda: attention.sinkhorn_block_attention(x, x, x, self.mixings[index], self.spec),
        )

    def layer_backward(self, index: int, x, d_out):
        """Cotangent of the layer input (used as q, k and v) and of its mixing."""
        if self.modes[index] == "full":
            d_q, d_k, d_v = self._measure(
                "full", lambda: attention.full_attention_backward(x, x, x, d_out)
            )
            return d_q + d_k + d_v, None
        d_q, d_k, d_v, d_mixing = self._measure(
            "sparse",
            lambda: attention.sinkhorn_block_attention_backward(
                x, x, x, self.mixings[index], self.spec, d_out
            ),
        )
        return d_q + d_k + d_v, d_mixing

    def forward(self) -> list:
        xs = [self.x0]
        for index in range(len(self.modes)):
            xs.append(self.layer_forward(index, xs[-1]))
        return xs

    def backward(self, xs: list):
        d_x, d_mixings = self.weights, []
        for index in reversed(range(len(self.modes))):
            d_x, d_mixing = self.layer_backward(index, xs[index], d_x)
            if d_mixing is not None:
                d_mixings.append(d_mixing)
        return d_x, d_mixings

    def checksums(self, xs: list, d_x, d_mixings: list) -> dict:
        """Sums of the output and of the gradients, to compare passes by."""
        out = xs[-1]
        return {
            "out_sum": float(out.sum()),
            "out_sq": float((out * out).sum()),
            "loss": float((self.weights * out).sum()),
            "grad_sum": float(d_x.sum()),
            "grad_sq": float((d_x * d_x).sum()),
            "mixing_grad_sq": float(sum((d * d).sum() for d in d_mixings)),
        }

    def run(self) -> dict:
        """One forward and backward pass; returns its checksums."""
        xs = self.forward()
        return self.checksums(xs, *self.backward(xs))


def attention_setup(seed: int, lengths) -> list[Stack]:
    """Build each stack's inputs."""
    blocks = dict(LENGTHS + (TRACE_LENGTH,))
    return [Stack(seed, length, blocks[length]) for length in lengths]


def attention_targets(tracer) -> list:
    """The attention layer boundaries, as ``spans.install`` targets."""

    def timed(name):
        # Spans of one pass share its sequence length as their record key.
        return lambda fn: tracer.wrap(fn, name, lambda args, kwargs: f"L{len(args[0])}")

    module = "dialogkit.attention"
    return [
        (module, "full_attention", timed("attention.full.fwd")),
        (module, "full_attention_backward", timed("attention.full.bwd")),
        (module, "sinkhorn_block_attention", timed("attention.sparse.fwd")),
        (module, "sinkhorn_block_attention_backward", timed("attention.sparse.bwd")),
        (module, "sort_blocks", lambda fn: tracer.wrap(fn, "attention.sparse.sort")),
        (module, "sort_blocks_backward", lambda fn: tracer.wrap(fn, "attention.sparse.sort")),
    ]
