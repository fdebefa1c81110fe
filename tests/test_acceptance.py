"""End-to-end acceptance suite.

Each criterion is one test function so a verbose run prints one pass/fail
line per criterion. Fixtures shared between criteria are module scoped.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

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
    _block_local_reference,
)
from dialogkit.cli import main
from dialogkit.core import serialize_dialogue, serialize_turn, tokenize
from dialogkit.corpus import StatsAccumulator, compute_stats, ingest
from dialogkit.metrics import Segmentation, pk, rouge_l, rouge_n, windiff
from dialogkit.noising import (
    NoiseConfig,
    build_example,
    noise_speaker_mask,
    noise_text_infilling,
    noise_turn_merging,
    noise_turn_permutation,
    noise_turn_splitting,
    replay_window_noise,
    sample_poisson,
)
from tests.conftest import (
    SRC,
    ScriptedRng,
    dialogue_to_json_line,
    make_dialogue,
    make_turn,
    synthetic_dialogue,
)
from tests.test_kernels import _classic_lcs
from tests.test_metrics import brute_force_pk, brute_force_windiff

MASK_TOKENS = ("[MASK]", "[MASK_SPEAKER]")


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


@pytest.fixture(scope="module")
def example_fixture():
    """500 synthetic 100-turn dialogues, 20 examples each (criteria 2 and 4)."""
    rng = random.Random(42)
    dialogues = [synthetic_dialogue(f"syn-{i}", 100, rng) for i in range(500)]
    cfg = NoiseConfig(global_seed=2024)
    started = time.monotonic()
    pairs = [
        (dialogue, build_example(dialogue, cfg, example_index=j))
        for dialogue in dialogues
        for j in range(20)
    ]
    elapsed = time.monotonic() - started
    return pairs, elapsed


def test_criterion_01_worked_noise_fixtures():
    started = time.monotonic()
    cfg = NoiseConfig()
    three_sentences = (
        "The weather is good today! Do you have any plans? "
        "How about we go to play basketball?"
    )

    out, _ = noise_speaker_mask(
        [make_turn("Tom", "The weather is good today!")], 0.5, ScriptedRng(uniforms=[0.2])
    )
    assert serialize_dialogue(out) == "[MASK_SPEAKER]: The weather is good today!"

    out, _ = noise_turn_splitting([make_turn("Tom", three_sentences)])
    assert serialize_dialogue(out) == (
        "Tom: The weather is good today!\n"
        "[MASK_SPEAKER]: Do you have any plans?\n"
        "[MASK_SPEAKER]: How about we go to play basketball?"
    )

    out, _ = noise_turn_merging(
        [
            make_turn("Tom", "The weather is good today! Do you have any plans?"),
            make_turn(
                "Bob", "I still have homework to do today. I'm afraid I can't go out to play."
            ),
        ],
        cfg,
        ScriptedRng(uniforms=[0.5, 0.5, 0.1], ranges=[0]),
    )
    assert serialize_dialogue(out) == (
        "Tom: The weather is good today! Do you have any plans? "
        "I still have homework to do today. I'm afraid I can't go out to play."
    )

    out, _ = noise_text_infilling(
        [make_turn("Tom", three_sentences)],
        cfg,
        ScriptedRng(uniforms=[0.5, 0.5, 0.1, 0.04, 0.5, 0.5, 0.1], ranges=[3, 8, 10]),
    )
    assert serialize_dialogue(out) == (
        "Tom: The weather is [MASK] Do you have [MASK] any plans? "
        "[MASK] we go to play basketball?"
    )

    out, _ = noise_turn_permutation(
        [
            make_turn("Tom", "Do you have any plans?"),
            make_turn("Bob", "How about we go to play basketball?"),
            make_turn(
                "Sam", "I still have homework to do today. I'm afraid I can't go out to play."
            ),
        ],
        ScriptedRng(ranges=[1, 0]),
    )
    assert serialize_dialogue(out) == (
        "Sam: I still have homework to do today. I'm afraid I can't go out to play.\n"
        "Tom: Do you have any plans?\n"
        "Bob: How about we go to play basketball?"
    )

    elapsed = time.monotonic() - started
    _report(1, elapsed < 1.0, f"five fixtures byte-exact in {elapsed:.3f}s")


def test_criterion_02_recipe_parameters(example_fixture):
    pairs, elapsed = example_fixture
    assert len(pairs) == 10_000

    masked = speakered = 0
    split = merge = both_applicable = 0
    for dialogue, example in pairs:
        window = example.window
        trace = example.noise_trace

        total = sum(len(tokenize(serialize_turn(t))) for t in dialogue.turns)
        limit = max(1, min(512, int(0.10 * total)))
        window_tokens = sum(len(tokenize(serialize_turn(t))) for t in window.turns)
        if not window.oversized:
            assert window_tokens <= limit
        assert trace["window"]["oversized_turn"] == window.oversized

        masked += len(trace["speaker_mask"])
        speakered += sum(1 for t in window.turns if t.speaker is not None)

        splittable = any(len(t.sentences) >= 2 for t in window.turns)
        mergeable = window.turn_count >= 2
        if splittable and mergeable:
            both_applicable += 1
            applied = trace["turn_op"]["applied"]
            split += applied == "split"
            merge += applied == "merge"
        else:
            assert trace["turn_op"]["applied"] != "none" or not (splittable or mergeable)

        info = trace["infill"]
        assert not info["retries_exhausted"]
        fraction = info["replaced"] / info["token_count"]
        assert 0.15 <= fraction <= 0.15 + 3.0 / info["token_count"]

    mask_rate = masked / speakered
    split_rate = split / both_applicable
    merge_rate = merge / both_applicable
    assert 0.49 <= mask_rate <= 0.51
    assert 0.48 <= split_rate <= 0.52
    assert 0.48 <= merge_rate <= 0.52
    _report(
        2,
        elapsed < 60.0,
        f"10k examples in {elapsed:.1f}s, mask {mask_rate:.4f}, "
        f"split {split_rate:.4f}, merge {merge_rate:.4f}",
    )


def test_criterion_03_parallel_determinism(tmp_path, capsys):
    rng = random.Random(7)
    corpus = tmp_path / "corpus.jsonl"
    with corpus.open("w", encoding="utf-8") as handle:
        for i in range(1000):
            handle.write(dialogue_to_json_line(synthetic_dialogue(f"par-{i}", 12, rng)) + "\n")

    started = time.monotonic()
    out_serial = tmp_path / "serial.jsonl"
    out_parallel = tmp_path / "parallel.jsonl"
    assert main(["corrupt", str(corpus), str(out_serial), "--seed", "5", "--workers", "1"]) == 0
    assert main(["corrupt", str(corpus), str(out_parallel), "--seed", "5", "--workers", "8"]) == 0
    elapsed = time.monotonic() - started
    capsys.readouterr()

    def digest(path) -> str:
        lines = sorted(path.read_text(encoding="utf-8").splitlines())
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    assert digest(out_serial) == digest(out_parallel)
    _report(3, elapsed < 30.0, f"1 vs 8 workers identical digests in {elapsed:.1f}s")


def test_criterion_04_reconstruction_consistency(example_fixture):
    pairs, _ = example_fixture
    for dialogue, example in pairs:
        window = example.window
        end = window.start_turn + window.turn_count

        assert example.target_text == serialize_dialogue(window.turns)
        for token in MASK_TOKENS:
            assert token not in example.target_text

        prefix = ""
        if window.start_turn > 0:
            prefix = serialize_dialogue(dialogue.turns[: window.start_turn]) + "\n"
        suffix = ""
        if end < len(dialogue.turns):
            suffix = "\n" + serialize_dialogue(dialogue.turns[end:])
        assert example.input_text.startswith(prefix)
        assert example.input_text.endswith(suffix)

        noisy_text = example.input_text[len(prefix) : len(example.input_text) - len(suffix)]
        replayed = replay_window_noise(window.turns, example.noise_trace)
        assert serialize_dialogue(replayed) == noisy_text
    _report(4, True, "10k examples: clean context, mask-free targets, exact replay")


def test_criterion_05_sinkhorn_invariants():
    started = time.monotonic()
    rng = np.random.default_rng(11)
    worst_row = worst_col = 0.0
    for _ in range(100):
        logits = rng.standard_normal((8, 8))
        matrix = sinkhorn_normalize(logits, iterations=20)
        worst_row = max(worst_row, float(np.abs(matrix.sum(axis=1) - 1.0).max()))
        worst_col = max(worst_col, float(np.abs(matrix.sum(axis=0) - 1.0).max()))
    assert worst_row < 1e-6
    assert worst_col < 1e-4

    uniform = sinkhorn_normalize(np.zeros((8, 8)), iterations=20)
    assert np.abs(uniform - 1.0 / 8.0).max() < 1e-12
    elapsed = time.monotonic() - started
    _report(
        5,
        elapsed < 10.0,
        f"100 instances: row dev {worst_row:.2e}, col dev {worst_col:.2e} in {elapsed:.1f}s",
    )


def test_criterion_06_attention_equivalences():
    rng = np.random.default_rng(23)
    for _ in range(50):
        seq_len = int(rng.integers(1, 17))
        dim = int(rng.integers(1, 9))
        q = rng.standard_normal((seq_len, dim))
        k = rng.standard_normal((seq_len, dim))
        v = rng.standard_normal((seq_len, dim))
        spec = AttentionSpec(seq_len=seq_len, model_dim=dim, block_size=seq_len)
        sparse = sinkhorn_attention(q, k, v, spec, np.ones((1, 1)))
        full = full_attention(q, k, v)
        assert np.abs(sparse - full).max() < 1e-6

    for seq_len, dim, block in ((8, 4, 4), (12, 3, 4), (16, 5, 8), (10, 4, 4)):
        q = rng.standard_normal((seq_len, dim))
        k = rng.standard_normal((seq_len, dim))
        v = rng.standard_normal((seq_len, dim))
        spec = AttentionSpec(seq_len=seq_len, model_dim=dim, block_size=block)
        identity = np.eye(spec.num_blocks)
        sparse = sinkhorn_attention(q, k, v, spec, identity)
        assert np.abs(sparse - _block_local_reference(q, k, v, block)).max() < 1e-6

    spec = AttentionSpec(seq_len=32, model_dim=8, block_size=8)
    schedule = hybrid_schedule(spec)
    assert len(schedule) == 12
    full_layers = {i + 1 for i, mode in enumerate(schedule) if mode is LayerMode.FULL}
    assert full_layers == {4, 8, 12}
    assert all(
        mode is LayerMode.SPARSE for i, mode in enumerate(schedule) if i + 1 not in {4, 8, 12}
    )
    _report(6, True, "single-block==full, identity==block-local, FULL layers {4,8,12}")


def test_criterion_07_gradient_checks():
    started = time.monotonic()
    rng = np.random.default_rng(31)

    q = rng.standard_normal((32, 8))
    k = rng.standard_normal((32, 8))
    v = rng.standard_normal((32, 8))
    err_full = gradient_check(
        lambda q, k, v: full_attention(q, k, v),
        lambda q, k, v, d: full_attention_backward(q, k, v, d),
        (q, k, v),
    )
    assert err_full < 1e-4

    logits = rng.standard_normal((8, 8))
    weights = rng.standard_normal((8, 8))
    err_sinkhorn = gradient_check(
        lambda a: sinkhorn_normalize(a, iterations=6),
        lambda a, d: (sinkhorn_normalize_backward(a, 6, 1.0, d),),
        (logits,),
        weights=weights,
    )
    assert err_sinkhorn < 1e-4

    spec = AttentionSpec(seq_len=12, model_dim=4, block_size=4, sinkhorn_iterations=4)
    q = rng.standard_normal((12, 4))
    k = rng.standard_normal((12, 4))
    v = rng.standard_normal((12, 4))
    sorting = sinkhorn_normalize(rng.standard_normal((3, 3)), iterations=4)
    err_sparse = gradient_check(
        lambda q, k, v, s: sinkhorn_attention(q, k, v, spec, s),
        lambda q, k, v, s, d: sinkhorn_attention_backward(q, k, v, spec, s, d),
        (q, k, v, sorting),
    )
    assert err_sparse < 1e-3

    spec16 = AttentionSpec(seq_len=16, model_dim=4, block_size=4, sinkhorn_iterations=4)
    q = rng.standard_normal((16, 4))
    k = rng.standard_normal((16, 4))
    v = rng.standard_normal((16, 4))
    mixing = rng.standard_normal((4, 4))
    err_end = gradient_check(
        lambda q, k, v, m: sinkhorn_block_attention(q, k, v, m, spec16),
        lambda q, k, v, m, d: sinkhorn_block_attention_backward(q, k, v, m, spec16, d),
        (q, k, v, mixing),
    )
    assert err_end < 1e-3
    elapsed = time.monotonic() - started
    _report(
        7,
        elapsed < 60.0,
        f"full {err_full:.1e}, sinkhorn {err_sinkhorn:.1e}, "
        f"sparse {err_sparse:.1e}, end-to-end {err_end:.1e} in {elapsed:.1f}s",
    )


def _random_segmentation(turn_count: int, rng: random.Random) -> Segmentation:
    boundaries = [b for b in range(turn_count - 1) if rng.random() < 0.3]
    return Segmentation(turn_count, tuple(boundaries))


def test_criterion_08_metric_oracles():
    rng = random.Random(13)
    for _ in range(500):
        turn_count = rng.randint(2, 30)
        reference = _random_segmentation(turn_count, rng)
        hypothesis = _random_segmentation(turn_count, rng)
        k = rng.randint(1, turn_count - 1)
        assert pk(reference, hypothesis, k=k) == brute_force_pk(reference, hypothesis, k)
        assert windiff(reference, hypothesis, k=k) == brute_force_windiff(reference, hypothesis, k)
        assert pk(reference, reference, k=k) == 0.0
        assert windiff(reference, reference, k=k) == 0.0

    score = rouge_n("the cat sat", "the cat", 1)
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(1.0)
    assert score.f1 == pytest.approx(0.8)

    words = ["cat", "dog", "sat", "mat", "ran", "hid", "saw", "sun"]
    for _ in range(200):
        cand_tokens = [rng.choice(words) for _ in range(rng.randint(1, 20))]
        ref_tokens = [rng.choice(words) for _ in range(rng.randint(1, 20))]
        lcs = _classic_lcs(cand_tokens, ref_tokens)
        score = rouge_l(" ".join(cand_tokens), " ".join(ref_tokens))
        precision = lcs / len(cand_tokens)
        recall = lcs / len(ref_tokens)
        assert score.precision == pytest.approx(precision, rel=1e-12)
        assert score.recall == pytest.approx(recall, rel=1e-12)
        if precision + recall:
            expected_f1 = 2 * precision * recall / (precision + recall)
            assert score.f1 == pytest.approx(expected_f1, rel=1e-12)
        else:
            assert score.f1 == 0.0
    _report(8, True, "pk/windiff exact on 500, rouge fixtures and 200 LCS pairs match")


def test_criterion_09_poisson_sampler():
    rng = random.Random(0)
    draws = [sample_poisson(3.0, rng) for _ in range(100_000)]
    mean = statistics.fmean(draws)
    variance = statistics.pvariance(draws, mean)
    assert 2.95 <= mean <= 3.05
    assert 2.9 <= variance <= 3.1
    _report(9, True, f"mean {mean:.4f}, variance {variance:.4f}")


# The child reads its own peak from /proc: getrusage ru_maxrss would carry
# the forking test process's footprint across exec and overstate the child.
_STATS_CHILD = """
import json, resource, sys
from dialogkit.corpus import StatsAccumulator, ingest

acc = StatsAccumulator()
with open(sys.argv[1], encoding="utf-8") as handle:
    for dialogue in ingest(handle, format="jsonl"):
        acc.add(dialogue)
stats = acc.finalize()
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open("/proc/self/status", encoding="ascii") as status:
    for line in status:
        if line.startswith("VmHWM:"):
            rss_kb = int(line.split()[1])
print(json.dumps({"count": stats.dialogue_count, "rss_kb": rss_kb}))
"""


def test_criterion_10_corpus_stats(tmp_path):
    dialogues = [
        make_dialogue("d1", ("Tom", "a b c d."), ("Bob", "e f. g h.")),
        make_dialogue("d2", ("Tom", "i j k.")),
        make_dialogue("d3", ("Ann", "l m."), ("Tom", "n o p."), ("Ann", "q r.")),
    ]
    stats = compute_stats(dialogues)
    assert stats.dialogue_count == 3
    assert stats.mean_turns == 2.0
    assert stats.mean_speakers == pytest.approx(5 / 3)
    assert stats.mean_length_words == 8.0

    streaming = StatsAccumulator()
    for dialogue in dialogues:
        streaming.add(dialogue)
    assert streaming.finalize() == stats

    left, right = StatsAccumulator(), StatsAccumulator()
    left.add(dialogues[0])
    right.add(dialogues[1])
    right.add(dialogues[2])
    assert left.merge(right).finalize() == stats

    lines = [dialogue_to_json_line(d) for d in dialogues]
    assert compute_stats(ingest(lines, format="jsonl")) == stats

    big = tmp_path / "big.jsonl"
    rng = random.Random(3)
    template = dialogue_to_json_line(synthetic_dialogue("@@ID@@", 8, rng))
    head, tail = template.split("@@ID@@")
    written = 0
    target_bytes = 100 * 1024 * 1024
    with big.open("w", encoding="utf-8") as handle:
        size = 0
        while size < target_bytes:
            line = f"{head}big-{written}{tail}\n"
            handle.write(line)
            size += len(line.encode("utf-8"))
            written += 1
    assert big.stat().st_size >= target_bytes

    result = subprocess.run(
        [sys.executable, "-c", _STATS_CHILD, str(big)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    payload = json.loads(result.stdout)
    assert payload["count"] == written
    assert payload["rss_kb"] < 256 * 1024
    _report(
        10,
        True,
        f"fixture exact, streaming==in-memory, {big.stat().st_size >> 20}MB "
        f"at {payload['rss_kb'] >> 10}MB resident",
    )
