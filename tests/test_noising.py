from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogkit.core import (
    MASK,
    MASK_SPEAKER,
    Dialogue,
    Turn,
    normalize_turn,
    serialize_dialogue,
    tokenize,
)
from dialogkit.noising import (
    NoiseConfig,
    _apply_infill,
    build_example,
    derive_seed,
    merge_turns,
    noise_speaker_mask,
    noise_text_infilling,
    noise_turn_merging,
    noise_turn_permutation,
    noise_turn_splitting,
    replay_window_noise,
    sample_poisson,
    select_window,
)
from tests.conftest import ScriptedRng, dialogues, make_dialogue, make_turn


# Golden values computed with an independent implementation of the hash
# chain (FNV-1a over utf-8, SplitMix64 finalizer, xor with the global seed).
DERIVE_SEED_GOLDENS = {
    (0, ""): 17665956581633026203,
    (0, "a"): 198367012849983736,
    (0, "b"): 4482684837372322821,
    (7, "a"): 198367012849983743,
}


def test_derive_seed_goldens():
    for (global_seed, key), expected in DERIVE_SEED_GOLDENS.items():
        assert derive_seed(global_seed, key) == expected


def test_derive_seed_xors_global_seed():
    for key in ("", "a", "dialogue-42#3"):
        base = derive_seed(0, key)
        assert derive_seed(123456, key) == base ^ 123456
    assert derive_seed(2**64, "a") == derive_seed(0, "a")


def test_derive_seed_distinguishes_ids_and_indices():
    seeds = {derive_seed(0, f"d{i}#{j}") for i in range(20) for j in range(20)}
    assert len(seeds) == 400


def test_sample_poisson_scripted():
    # limit = exp(-3) ~ 0.0498: a first draw below it means zero events
    assert sample_poisson(3.0, ScriptedRng(uniforms=[0.04])) == 0
    # 0.5 >= limit, 0.25 >= limit, 0.025 < limit -> 2
    assert sample_poisson(3.0, ScriptedRng(uniforms=[0.5, 0.5, 0.1])) == 2
    assert sample_poisson(0.0, ScriptedRng()) == 0
    with pytest.raises(ValueError):
        sample_poisson(-1.0, random.Random(0))


def test_sample_poisson_small_mean_sanity():
    rng = random.Random(7)
    draws = [sample_poisson(3.0, rng) for _ in range(20000)]
    mean = sum(draws) / len(draws)
    assert 2.9 < mean < 3.1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_fraction": 0.0},
        {"window_fraction": 1.5},
        {"max_window_tokens": 0},
        {"speaker_mask_prob": -0.1},
        {"infill_rate": 1.1},
        {"poisson_lambda": -1.0},
        {"min_merge_turns": 1},
        {"poisson_lambda": math.nan},
        {"poisson_lambda": math.inf},
        {"poisson_lambda": 746.0},
    ],
)
def test_noise_config_validation(kwargs):
    with pytest.raises(ValueError):
        NoiseConfig(**kwargs)


def test_noise_config_accepts_lambda_while_exp_minus_lambda_is_positive():
    # exp(-746) underflows to 0.0, where the Poisson sampler would never stop.
    assert math.exp(-745.0) > 0.0 == math.exp(-746.0)
    assert NoiseConfig(poisson_lambda=745.0).poisson_lambda == 745.0


def _counting_dialogue():
    # serialized turn lengths: 3, 3, 3, 3 tokens (speaker + two words)
    return make_dialogue(
        "w",
        ("A", "one two."),
        ("B", "three four."),
        ("C", "five six."),
        ("D", "seven eight."),
    )


def test_select_window_budget_and_packing():
    dialogue = _counting_dialogue()  # 12 tokens total
    cfg = NoiseConfig(window_fraction=0.5)  # budget = floor(6) = 6
    window = select_window(dialogue, cfg, ScriptedRng(ranges=[1]))
    assert window.token_budget == 6
    assert (window.start_turn, window.turn_count) == (1, 2)
    assert not window.oversized
    assert window.turns == dialogue.turns[1:3]


def test_select_window_clamps_to_max_tokens():
    dialogue = _counting_dialogue()
    cfg = NoiseConfig(window_fraction=1.0, max_window_tokens=3)
    window = select_window(dialogue, cfg, ScriptedRng(ranges=[0]))
    assert window.token_budget == 3
    assert window.turn_count == 1


def test_select_window_minimum_budget_is_one():
    dialogue = make_dialogue("w", ("A", "one."), ("B", "two."))
    cfg = NoiseConfig(window_fraction=0.01)  # floor(0.04) = 0 -> clamped to 1
    window = select_window(dialogue, cfg, ScriptedRng(ranges=[0]))
    assert window.token_budget == 1
    assert window.turn_count == 1
    assert window.oversized  # the 2-token turn exceeds the 1-token budget


def test_select_window_runs_to_dialogue_end():
    dialogue = _counting_dialogue()
    cfg = NoiseConfig(window_fraction=1.0)
    window = select_window(dialogue, cfg, ScriptedRng(ranges=[2]))
    assert (window.start_turn, window.turn_count) == (2, 2)


def test_speaker_mask_fires_per_draw():
    turns = [make_turn("Tom", "Hi."), make_turn("Sam", "Yo."), make_turn("Bob", "Hey.")]
    rng = ScriptedRng(uniforms=[0.2, 0.9, 0.49])
    out, masked = noise_speaker_mask(turns, 0.5, rng)
    rng.assert_exhausted()
    assert masked == [0, 2]
    assert out[0].speaker == MASK_SPEAKER
    assert out[1].speaker == "Sam"
    assert out[2].speaker == MASK_SPEAKER
    assert [t.sentences for t in out] == [t.sentences for t in turns]


def test_speaker_mask_skips_speakerless_without_draws():
    turns = [make_turn(None, "Narration."), make_turn("Sam", "Yo.")]
    rng = ScriptedRng(uniforms=[0.1])  # exactly one draw scripted
    out, masked = noise_speaker_mask(turns, 0.5, rng)
    rng.assert_exhausted()
    assert masked == [1]
    assert out[0].speaker is None


def test_turn_splitting_earliest_max_sentence_turn():
    turns = [
        make_turn("A", "One. Two."),
        make_turn("B", "Single."),
        make_turn("C", "Three. Four."),
    ]
    out, fragment = noise_turn_splitting(turns)
    assert fragment == {"turn": 0, "parts": 2}
    assert len(out) == 4
    assert out[0].speaker == "A" and out[0].sentences == ("One.",)
    assert out[1].speaker == MASK_SPEAKER and out[1].sentences == ("Two.",)
    assert out[2].speaker == "B"


def test_turn_splitting_identity_when_all_single_sentence():
    turns = [make_turn("A", "One."), make_turn("B", "Two.")]
    out, fragment = noise_turn_splitting(turns)
    assert fragment is None
    assert out == turns


def test_merge_turns_concatenates_and_keeps_first_speaker():
    turns = [make_turn("A", "One. Two."), make_turn("B", "Three."), make_turn("C", "Four.")]
    out = merge_turns(turns, 0, 2)
    assert len(out) == 2
    assert out[0].speaker == "A"
    assert out[0].sentences == ("One.", "Two.", "Three.")
    with pytest.raises(ValueError):
        merge_turns(turns, 2, 2)
    with pytest.raises(ValueError):
        merge_turns(turns, 0, 1)


def test_turn_merging_scripted_draws():
    turns = [make_turn(s, "Text here.") for s in "ABCD"]
    # poisson -> 2 (draws 0.5, 0.5, 0.01), start randrange(3) -> 1
    rng = ScriptedRng(uniforms=[0.5, 0.5, 0.01], ranges=[1])
    out, fragment = noise_turn_merging(turns, NoiseConfig(), rng)
    rng.assert_exhausted()
    assert fragment == {"start": 1, "count": 2}
    assert len(out) == 3
    assert out[1].speaker == "B"


def test_turn_merging_enforces_minimum_and_clamps():
    turns = [make_turn("A", "One."), make_turn("B", "Two.")]
    # poisson draw of 0 -> k = max(0, 2) = 2, clamped to 2; randrange(1) -> 0
    rng = ScriptedRng(uniforms=[0.01], ranges=[0])
    out, fragment = noise_turn_merging(turns, NoiseConfig(), rng)
    rng.assert_exhausted()
    assert fragment == {"start": 0, "count": 2}
    assert len(out) == 1


def test_turn_merging_identity_on_single_turn_consumes_nothing():
    turns = [make_turn("A", "One.")]
    rng = ScriptedRng()  # any draw would raise
    out, fragment = noise_turn_merging(turns, NoiseConfig(), rng)
    assert fragment is None
    assert out == turns


def test_infilling_span_replacement():
    # 6 utterance tokens; budget = ceil(0.15 * 6) = 1
    turns = [make_turn("A", "alpha beta gamma delta."), make_turn("B", "eps zeta.")]
    # poisson -> 1 (0.5 >= e^-3, 0.01 < e^-3), anchor 1 covers "beta"
    rng = ScriptedRng(uniforms=[0.5, 0.01], ranges=[1])
    out, trace = noise_text_infilling(turns, NoiseConfig(), rng)
    rng.assert_exhausted()
    assert trace["token_count"] == 6
    assert trace["budget"] == 1
    assert trace["replaced"] == 1
    assert trace["spans"] == [[1, 1]]
    assert trace["insertions"] == []
    assert out[0].utterance == "alpha [MASK] gamma delta."
    assert out[1].utterance == "eps zeta."


def test_infilling_zero_length_inserts_without_budget():
    turns = [make_turn("A", "alpha beta gamma delta eta theta.")]
    # event 1: poisson 0 -> insertion at anchor 2 (counts nothing)
    # event 2: poisson 1 -> span at anchor 0
    rng = ScriptedRng(uniforms=[0.01, 0.5, 0.01], ranges=[2, 0])
    out, trace = noise_text_infilling(turns, NoiseConfig(), rng)
    rng.assert_exhausted()
    assert trace["insertions"] == [2]
    assert trace["spans"] == [[0, 1]]
    assert trace["replaced"] == 1
    assert out[0].utterance == "[MASK] beta [MASK] gamma delta eta theta."


def test_infilling_spans_clamp_at_turn_end():
    # two turns of 3 + 3 tokens; budget = ceil(0.9) = 1
    turns = [make_turn("A", "one two three."), make_turn("B", "four five six.")]
    # poisson -> 5 via draws; anchor 2 -> only token 2 fits in turn 0
    rng = ScriptedRng(uniforms=[0.9, 0.9, 0.9, 0.9, 0.9, 0.001], ranges=[2])
    out, trace = noise_text_infilling(turns, NoiseConfig(), rng)
    assert trace["spans"] == [[2, 1]]
    assert out[0].utterance == "one two [MASK]"
    assert out[1].utterance == "four five six."


def test_infilling_final_span_overshoot_is_capped():
    tokens = " ".join(f"t{i}" for i in range(40)) + "."
    turns = [make_turn("A", tokens)]
    cfg = NoiseConfig()  # budget = ceil(0.15 * 40) = 6
    for seed in range(80):
        rng = random.Random(seed)
        _, trace = noise_text_infilling(turns, cfg, rng)
        assert trace["budget"] == 6
        assert not trace["retries_exhausted"]
        assert 6 <= trace["replaced"] <= 6 + math.ceil(cfg.poisson_lambda) - 1


def test_infilling_zero_budget_is_identity():
    turns = [make_turn("A", "one two.")]
    out, trace = noise_text_infilling(turns, NoiseConfig(infill_rate=0.0), ScriptedRng())
    assert out == turns
    assert trace["budget"] == 0
    assert trace["replaced"] == 0


def test_infilling_masks_match_trace_positions():
    turns = [make_turn("A", "a b c d e f g h."), make_turn("B", "i j k l.")]
    rng = random.Random(5)
    out, trace = noise_text_infilling(turns, NoiseConfig(infill_rate=0.3), rng)
    mask_count = sum(tok == MASK for t in out for tok in tokenize(t.utterance))
    assert mask_count == len(trace["spans"]) + len(trace["insertions"])
    original = sum(len(tokenize(t.utterance)) for t in turns)
    now = sum(len(tokenize(t.utterance)) for t in out)
    assert now == original - trace["replaced"] + len(trace["spans"]) + len(
        trace["insertions"]
    )


def _infill_by_position(turns, spans, insertions):
    """Straight-line oracle for _apply_infill: visit positions one at a
    time, emit the insertions anchored there, then a span's MASK (skipping
    the positions it covers) or the token itself."""
    span_at = {start: length for start, length in spans}
    out, begin = [], 0
    for turn in turns:
        tokens = tokenize(turn.utterance)
        end, position, rebuilt = begin + len(tokens), begin, []
        while position < end:
            rebuilt += [MASK] * insertions.count(position)
            if position in span_at:
                rebuilt.append(MASK)
                position += span_at[position]
            else:
                rebuilt.append(tokens[position - begin])
                position += 1
        out.append(Turn(turn.speaker, " ".join(rebuilt)))
        begin = end
    return out


@st.composite
def infill_cases(draw):
    turns = draw(dialogues()).turns
    total = sum(len(tokenize(t.utterance)) for t in turns)
    anchors = st.integers(min_value=0, max_value=total - 1)
    spans = draw(st.lists(st.tuples(anchors, st.integers(1, 4)), max_size=6))
    insertions = draw(st.lists(anchors, max_size=6))
    if spans and draw(st.booleans()):
        insertions.append(spans[0][0])  # an insertion at a span's start
    return turns, [list(span) for span in spans], insertions


@settings(max_examples=100, deadline=None)
@given(infill_cases())
def test_infill_by_slices_matches_the_per_position_oracle(case):
    turns, spans, insertions = case
    got = _apply_infill(turns, spans, insertions)
    assert serialize_dialogue(got) == serialize_dialogue(
        _infill_by_position(turns, spans, insertions)
    )


def test_permutation_scripted_fisher_yates():
    turns = [make_turn("Tom", "One."), make_turn("Bob", "Two."), make_turn("Sam", "Three.")]
    out, order = noise_turn_permutation(turns, ScriptedRng(ranges=[1, 0]))
    assert order == [2, 0, 1]
    assert [t.speaker for t in out] == ["Sam", "Tom", "Bob"]


def test_permutation_single_turn_consumes_nothing():
    turns = [make_turn("Tom", "One.")]
    out, order = noise_turn_permutation(turns, ScriptedRng())
    assert order == [0]
    assert out == turns


def test_permutation_is_uniform_ish():
    turns = [make_turn(s, "X.") for s in "abc"]
    rng = random.Random(3)
    seen = {}
    for _ in range(6000):
        _, order = noise_turn_permutation(turns, rng)
        seen[tuple(order)] = seen.get(tuple(order), 0) + 1
    assert len(seen) == 6
    assert min(seen.values()) > 800


def _example_dialogue():
    return make_dialogue(
        "ex-1",
        ("Tom", "The weather is good today! Do you have any plans?"),
        ("Sam", "We plan to play basketball at the weekend. You could join us there."),
        ("Bob", "I am going to go fishing. The lake has been restocked recently."),
        ("Ann", "Enjoy the weekend everyone. Stay dry out there!"),
    )


def test_build_example_target_is_clean_window():
    dialogue = _example_dialogue()
    cfg = NoiseConfig(window_fraction=0.6, global_seed=9)
    example = build_example(dialogue, cfg)
    window = example.window
    expected_target = serialize_dialogue(
        dialogue.turns[window.start_turn : window.start_turn + window.turn_count]
    )
    assert example.target_text == expected_target
    assert MASK not in example.target_text
    assert MASK_SPEAKER not in example.target_text


def test_build_example_preserves_outside_text():
    dialogue = _example_dialogue()
    for seed in range(30):
        example = build_example(dialogue, NoiseConfig(window_fraction=0.4, global_seed=seed))
        window = example.window
        end = window.start_turn + window.turn_count
        if window.start_turn > 0:
            prefix = serialize_dialogue(dialogue.turns[: window.start_turn])
            assert example.input_text.startswith(prefix + "\n")
        if end < len(dialogue.turns):
            suffix = serialize_dialogue(dialogue.turns[end:])
            assert example.input_text.endswith("\n" + suffix)


def test_build_example_trace_replays_exactly():
    dialogue = _example_dialogue()
    for seed in range(40):
        cfg = NoiseConfig(window_fraction=0.7, global_seed=seed)
        example = build_example(dialogue, cfg)
        window = example.window
        end = window.start_turn + window.turn_count
        noisy = example.input_text
        if window.start_turn > 0:
            prefix = serialize_dialogue(dialogue.turns[: window.start_turn]) + "\n"
            assert noisy.startswith(prefix)
            noisy = noisy[len(prefix):]
        if end < len(dialogue.turns):
            suffix = "\n" + serialize_dialogue(dialogue.turns[end:])
            assert noisy.endswith(suffix)
            noisy = noisy[: -len(suffix)]
        replayed = replay_window_noise(window.turns, example.noise_trace)
        assert serialize_dialogue(replayed) == noisy


_NOISE_CONFIGS = st.builds(
    NoiseConfig,
    window_fraction=st.floats(0.01, 1.0),
    max_window_tokens=st.integers(1, 200),
    speaker_mask_prob=st.floats(0.0, 1.0),
    infill_rate=st.floats(0.0, 1.0),
    poisson_lambda=st.floats(0.0, 6.0),
    min_merge_turns=st.integers(2, 5),
    global_seed=st.integers(0, 2**64 - 1),
)


@settings(max_examples=80, deadline=None)
@given(dialogues(max_turns=20), _NOISE_CONFIGS, st.integers(0, 1000))
def test_replayed_trace_serializes_to_the_noisy_window(dialogue, cfg, example_index):
    example = build_example(dialogue, cfg, example_index=example_index)
    window = example.window
    end = window.start_turn + window.turn_count
    head = len(serialize_dialogue(dialogue.turns[: window.start_turn]) + "\n") if window.start_turn else 0
    tail = len("\n" + serialize_dialogue(dialogue.turns[end:])) if end < len(dialogue.turns) else 0
    noisy = example.input_text[head : len(example.input_text) - tail]
    replayed = replay_window_noise(window.turns, example.noise_trace)
    assert serialize_dialogue(replayed) == noisy


def test_build_example_deterministic_per_id_and_index():
    dialogue = _example_dialogue()
    cfg = NoiseConfig(global_seed=4)
    first = build_example(dialogue, cfg, example_index=2)
    second = build_example(dialogue, cfg, example_index=2)
    assert first.to_record() == second.to_record()
    third = build_example(dialogue, cfg, example_index=3)
    assert third.noise_trace["seed"] != first.noise_trace["seed"]


@pytest.mark.parametrize("dialogue_id", ["\ud800", "d\udfff1"])
def test_lone_surrogate_id_never_reaches_build_example(dialogue_id):
    # derive_seed hashes the id's UTF-8 bytes, which a lone surrogate has not.
    with pytest.raises(ValueError, match="lone surrogate"):
        build_example(Dialogue(dialogue_id, (Turn("A", "Hi."),)), NoiseConfig())
    with pytest.raises(ValueError, match="lone surrogate"):
        build_example(Dialogue.from_rows(dialogue_id, [normalize_turn("A", "Hi.")]), NoiseConfig())


def test_build_example_trace_seed_matches_derivation():
    dialogue = _example_dialogue()
    cfg = NoiseConfig(global_seed=11)
    example = build_example(dialogue, cfg, example_index=5)
    assert example.noise_trace["seed"] == derive_seed(11, "ex-1#5")


def test_build_example_coin_fallback_to_split():
    # single-turn window with several sentences: merging is impossible, so
    # splitting must apply no matter the coin
    dialogue = make_dialogue("solo", ("Tom", "One. Two. Three. Four. Five. Six."))
    for seed in range(20):
        example = build_example(dialogue, NoiseConfig(window_fraction=1.0, global_seed=seed))
        assert example.noise_trace["turn_op"]["applied"] == "split"


def test_build_example_coin_fallback_to_merge():
    # multi-turn window of single-sentence turns: splitting cannot change
    # anything, merging always can
    dialogue = make_dialogue(
        "flat", ("A", "One."), ("B", "Two."), ("C", "Three."), ("D", "Four.")
    )
    applied = []
    for seed in range(20):
        example = build_example(dialogue, NoiseConfig(window_fraction=1.0, global_seed=seed))
        expected = "merge" if example.window.turn_count >= 2 else "none"
        assert example.noise_trace["turn_op"]["applied"] == expected
        applied.append(expected)
    assert "merge" in applied


def test_build_example_no_turn_op_when_neither_applies():
    dialogue = make_dialogue("tiny", ("A", "Just one sentence here."))
    example = build_example(dialogue, NoiseConfig(window_fraction=1.0, global_seed=0))
    assert example.noise_trace["turn_op"]["applied"] == "none"


def test_build_example_record_shape():
    example = build_example(_example_dialogue(), NoiseConfig())
    record = example.to_record()
    assert set(record) == {"id", "example_index", "input", "target", "window", "trace"}
    assert set(record["window"]) == {"start_turn", "turn_count"}
    assert set(record["trace"]) == {
        "seed",
        "window",
        "speaker_mask",
        "turn_op",
        "infill",
        "permutation",
    }
