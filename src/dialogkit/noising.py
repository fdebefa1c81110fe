"""Window selection and dialogue corruption.

A denoising example pairs a corrupted rendering of the whole dialogue with
the clean text of one window of consecutive turns. Only the window is
corrupted; turns outside it pass through byte-identical. Five transforms
run in a fixed order:

1. speaker masking (each present speaker replaced independently),
2. exactly one of turn splitting or turn merging, picked by a fair coin
   with fallback to the other when the chosen one cannot change anything,
3. text infilling (Poisson-length spans collapse to a single mask token),
4. turn permutation (Fisher-Yates).

Randomness contract: each example draws from one sequential
``random.Random`` stream seeded by :func:`derive_seed` over
``"{dialogue_id}#{example_index}"``, so any example can be regenerated in
isolation regardless of corpus order or worker count. Draw order is part of
the contract and documented per transform; a transform that does not
execute consumes no draws. Every random decision is recorded in a
json-serializable trace, and :func:`replay_window_noise` reproduces the
noisy window from the clean window plus the trace, byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .core import (
    MASK,
    MASK_SPEAKER,
    Dialogue,
    Turn,
    serialize_dialogue,
    split_sentences,
    tokenize,
    turn_token_count,
)

_FNV_OFFSET64 = 0xCBF29CE484222325
_FNV_PRIME64 = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Bounded retries when a sampled infill anchor collides with earlier spans,
# and a global cap on placement events so the loop always terminates.
MAX_PLACEMENT_RETRIES = 32
_EVENTS_PER_BUDGET = 8


def _splitmix64_mix(value: int) -> int:
    z = value & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def derive_seed(global_seed: int, dialogue_id: str) -> int:
    """Stable 64-bit stream seed for one dialogue id.

    FNV-1a over the utf-8 bytes of the id, passed through the SplitMix64
    finalizer, xored with the global seed. Pure function of its arguments.
    """
    h = _FNV_OFFSET64
    for byte in dialogue_id.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME64) & _MASK64
    return _splitmix64_mix(h) ^ (global_seed & _MASK64)


def _example_seed(global_seed: int, dialogue_id: str, example_index: int) -> int:
    # The example index joins the id before mixing so sibling examples get
    # unrelated streams. '#' cannot collide with another (id, index) pair
    # because the index is always the final, purely numeric segment.
    return derive_seed(global_seed, f"{dialogue_id}#{example_index}")


def sample_poisson(lam: float, rng: random.Random) -> int:
    """Poisson draw by Knuth's multiplication method.

    Multiplies uniforms until the running product drops below exp(-lam);
    consumes result+1 draws from the stream.
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if lam == 0:
        return 0
    limit = math.exp(-lam)
    count = 0
    product = rng.random()
    while product >= limit:
        count += 1
        product *= rng.random()
    return count


@dataclass(frozen=True)
class NoiseConfig:
    window_fraction: float = 0.10
    max_window_tokens: int = 512
    speaker_mask_prob: float = 0.5
    infill_rate: float = 0.15
    poisson_lambda: float = 3.0
    min_merge_turns: int = 2
    global_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.window_fraction <= 1.0:
            raise ValueError("window_fraction must be in (0, 1]")
        if self.max_window_tokens < 1:
            raise ValueError("max_window_tokens must be positive")
        if not 0.0 <= self.speaker_mask_prob <= 1.0:
            raise ValueError("speaker_mask_prob must be in [0, 1]")
        if not 0.0 <= self.infill_rate <= 1.0:
            raise ValueError("infill_rate must be in [0, 1]")
        if self.poisson_lambda < 0:
            raise ValueError("poisson_lambda must be non-negative")
        if self.min_merge_turns < 2:
            raise ValueError("min_merge_turns must be at least 2")


@dataclass(frozen=True)
class Window:
    """A run of consecutive turns plus the budget that selected it."""

    start_turn: int
    turn_count: int
    turns: tuple[Turn, ...]
    token_budget: int
    oversized: bool


def select_window(dialogue: Dialogue, cfg: NoiseConfig, rng: random.Random) -> Window:
    """Pick a consecutive-turn window under a serialized-token budget.

    Budget is ``max(1, min(floor(window_fraction * total_tokens),
    max_window_tokens))`` counted over serialized turns, speaker prefixes
    included. One draw chooses the start turn uniformly; turns are then
    packed greedily and whole. A start turn that alone exceeds the budget
    still forms a window (flagged oversized).
    """
    counts = [turn_token_count(t) for t in dialogue.turns]
    budget = max(1, min(int(cfg.window_fraction * sum(counts)), cfg.max_window_tokens))
    start = rng.randrange(len(dialogue.turns))
    used = counts[start]
    end = start + 1
    while end < len(dialogue.turns) and used + counts[end] <= budget:
        used += counts[end]
        end += 1
    return Window(
        start_turn=start,
        turn_count=end - start,
        turns=tuple(dialogue.turns[start:end]),
        token_budget=budget,
        oversized=counts[start] > budget,
    )


def noise_speaker_mask(
    turns: Sequence[Turn], prob: float, rng: random.Random
) -> tuple[list[Turn], list[int]]:
    """Independently replace each present speaker with the mask speaker.

    One uniform draw per turn that has a speaker, in turn order; speakerless
    turns consume nothing. Returns the new turns and the masked indices.
    """
    out: list[Turn] = []
    masked: list[int] = []
    for index, turn in enumerate(turns):
        if turn.speaker is not None and rng.random() < prob:
            out.append(Turn(MASK_SPEAKER, turn.sentences))
            masked.append(index)
        else:
            out.append(turn)
    return out, masked


def _split_target(turns: Sequence[Turn]) -> int | None:
    """Index of the turn with the most sentences (earliest on ties), or None
    when no turn has at least two."""
    best_index, best_count = None, 1
    for index, turn in enumerate(turns):
        if len(turn.sentences) > best_count:
            best_index, best_count = index, len(turn.sentences)
    return best_index


def noise_turn_splitting(turns: Sequence[Turn]) -> tuple[list[Turn], dict | None]:
    """Split the turn with the most sentences into one turn per sentence.

    The first piece keeps the original speaker slot; the rest get the mask
    speaker. Deterministic, consumes no draws; identity when every turn has
    a single sentence.
    """
    target = _split_target(turns)
    if target is None:
        return list(turns), None
    victim = turns[target]
    pieces = [Turn(victim.speaker, (victim.sentences[0],))]
    pieces.extend(Turn(MASK_SPEAKER, (s,)) for s in victim.sentences[1:])
    out = list(turns[:target]) + pieces + list(turns[target + 1 :])
    return out, {"turn": target, "parts": len(pieces)}


def merge_turns(turns: Sequence[Turn], start: int, count: int) -> list[Turn]:
    """Concatenate ``count`` turns from ``start`` into one turn that keeps the
    first turn's speaker slot."""
    if count < 2 or start < 0 or start + count > len(turns):
        raise ValueError("merge range out of bounds")
    merged_sentences: list[str] = []
    for turn in turns[start : start + count]:
        merged_sentences.extend(turn.sentences)
    merged = Turn(turns[start].speaker, tuple(merged_sentences))
    return list(turns[:start]) + [merged] + list(turns[start + count :])


def noise_turn_merging(
    turns: Sequence[Turn], cfg: NoiseConfig, rng: random.Random
) -> tuple[list[Turn], dict | None]:
    """Merge a random run of consecutive turns into one.

    Run length is ``max(Poisson(lambda), min_merge_turns)`` clamped to the
    turn count; the start is then uniform over feasible positions. Draw
    order: the Poisson draws, then one start draw. Identity (no draws) when
    fewer than two turns exist.
    """
    if len(turns) < 2:
        return list(turns), None
    count = max(sample_poisson(cfg.poisson_lambda, rng), cfg.min_merge_turns)
    count = min(count, len(turns))
    start = rng.randrange(len(turns) - count + 1)
    return merge_turns(turns, start, count), {"start": start, "count": count}


def _flat_utterance_tokens(turns: Sequence[Turn]) -> tuple[list[list[str]], list[int]]:
    per_turn = [tokenize(t.utterance) for t in turns]
    starts, position = [], 0
    for tokens in per_turn:
        starts.append(position)
        position += len(tokens)
    return per_turn, starts


def _apply_infill(
    turns: Sequence[Turn], spans: Sequence[Sequence[int]], insertions: Sequence[int]
) -> list[Turn]:
    """Rebuild turns with spans collapsed to MASK and insertions emitted
    before their anchor position. Shared by the sampler and by replay."""
    per_turn, starts = _flat_utterance_tokens(turns)
    span_at = {int(s): int(length) for s, length in spans}
    insert_counts: dict[int, int] = {}
    for anchor in insertions:
        insert_counts[int(anchor)] = insert_counts.get(int(anchor), 0) + 1
    out_turns: list[Turn] = []
    for turn_index, tokens in enumerate(per_turn):
        begin = starts[turn_index]
        end = begin + len(tokens)
        rebuilt: list[str] = []
        position = begin
        while position < end:
            rebuilt.extend([MASK] * insert_counts.get(position, 0))
            span_length = span_at.get(position)
            if span_length is not None:
                rebuilt.append(MASK)
                position += span_length
            else:
                rebuilt.append(tokens[position - begin])
                position += 1
        original = turns[turn_index]
        out_turns.append(Turn(original.speaker, tuple(split_sentences(" ".join(rebuilt)))))
    return out_turns


def noise_text_infilling(
    turns: Sequence[Turn], cfg: NoiseConfig, rng: random.Random
) -> tuple[list[Turn], dict]:
    """Mask Poisson-length token spans until the replacement budget is met.

    The budget is ``ceil(infill_rate * T)`` over the window's utterance
    tokens (speaker prefixes excluded). Per event the draws are: one Poisson
    length, then one uniform anchor over the original token stream (anchor
    resampled on collision, up to MAX_PLACEMENT_RETRIES). A length-0 draw
    inserts a mask before the anchor and counts nothing toward the budget.
    Spans clamp at the end of the anchor's turn, never cross turns, and the
    final span is also clamped so the total overshoot stays below ceil(lambda),
    giving ``budget <= replaced <= budget + ceil(lambda) - 1`` whenever the
    budget is reached.
    """
    per_turn, starts = _flat_utterance_tokens(turns)
    total = sum(len(tokens) for tokens in per_turn)
    budget = math.ceil(cfg.infill_rate * total)
    trace = {
        "token_count": total,
        "budget": budget,
        "replaced": 0,
        "spans": [],
        "insertions": [],
        "retries_exhausted": False,
    }
    if budget == 0 or total == 0:
        return list(turns), trace

    turn_end_at: list[int] = []
    for tokens, begin in zip(per_turn, starts):
        turn_end_at.extend([begin + len(tokens)] * len(tokens))

    replaced_flags = bytearray(total)
    insert_flags = bytearray(total)
    spans: list[list[int]] = []
    insertions: list[int] = []
    replaced = 0
    overshoot_cap = max(math.ceil(cfg.poisson_lambda) - 1, 0)
    events = 0
    while replaced < budget:
        events += 1
        if events > budget * _EVENTS_PER_BUDGET + 64:
            trace["retries_exhausted"] = True
            break
        length = sample_poisson(cfg.poisson_lambda, rng)
        placed = False
        for _ in range(MAX_PLACEMENT_RETRIES):
            anchor = rng.randrange(total)
            if length == 0:
                if replaced_flags[anchor]:
                    continue
                insert_flags[anchor] = 1
                insertions.append(anchor)
                placed = True
                break
            effective = min(
                length, turn_end_at[anchor] - anchor, budget - replaced + overshoot_cap
            )
            window = range(anchor, anchor + effective)
            if any(replaced_flags[p] for p in window) or any(
                insert_flags[p] for p in range(anchor + 1, anchor + effective)
            ):
                continue
            for p in window:
                replaced_flags[p] = 1
            spans.append([anchor, effective])
            replaced += effective
            placed = True
            break
        if not placed:
            trace["retries_exhausted"] = True
            break

    trace["replaced"] = replaced
    trace["spans"] = spans
    trace["insertions"] = insertions
    return _apply_infill(turns, spans, insertions), trace


def noise_turn_permutation(
    turns: Sequence[Turn], rng: random.Random
) -> tuple[list[Turn], list[int]]:
    """Uniformly shuffle turn order with Fisher-Yates.

    Draws randrange(i + 1) for i from n-1 down to 1; a single turn consumes
    nothing. Returns the shuffled turns and the order, where order[i] is the
    pre-shuffle index now at position i.
    """
    order = list(range(len(turns)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    return [turns[j] for j in order], order


@dataclass
class DenoisingExample:
    dialogue_id: str
    example_index: int
    input_text: str
    target_text: str
    window: Window
    noise_trace: dict

    def to_record(self) -> dict:
        return {
            "id": self.dialogue_id,
            "example_index": self.example_index,
            "input": self.input_text,
            "target": self.target_text,
            "window": {
                "start_turn": self.window.start_turn,
                "turn_count": self.window.turn_count,
            },
            "trace": self.noise_trace,
        }


def _can_split(turns: Sequence[Turn]) -> bool:
    return _split_target(turns) is not None


def _can_merge(turns: Sequence[Turn]) -> bool:
    return len(turns) >= 2


def build_example(
    dialogue: Dialogue, cfg: NoiseConfig, example_index: int = 0
) -> DenoisingExample:
    """Produce one (corrupted dialogue, clean window) training pair.

    The clean window serializes into the target before any corruption, then
    the transforms run in their fixed order on the window alone. One uniform
    draw after speaker masking picks splitting or merging; when the pick
    cannot change anything the other runs instead, and when neither can,
    none does.
    """
    seed = _example_seed(cfg.global_seed, dialogue.id, example_index)
    rng = random.Random(seed)
    window = select_window(dialogue, cfg, rng)
    target_text = serialize_dialogue(window.turns)

    turns: list[Turn] = list(window.turns)
    turns, masked = noise_speaker_mask(turns, cfg.speaker_mask_prob, rng)

    coin = "split" if rng.random() < 0.5 else "merge"
    op_trace: dict = {"coin": coin, "applied": "none", "split": None, "merge": None}
    order = (coin, "merge" if coin == "split" else "split")
    for op in order:
        if op == "split" and _can_split(turns):
            turns, fragment = noise_turn_splitting(turns)
            op_trace["applied"] = "split"
            op_trace["split"] = fragment
            break
        if op == "merge" and _can_merge(turns):
            turns, fragment = noise_turn_merging(turns, cfg, rng)
            op_trace["applied"] = "merge"
            op_trace["merge"] = fragment
            break

    turns, infill_trace = noise_text_infilling(turns, cfg, rng)
    turns, permutation = noise_turn_permutation(turns, rng)

    window_end = window.start_turn + window.turn_count
    parts: list[str] = []
    if window.start_turn > 0:
        parts.append(serialize_dialogue(dialogue.turns[: window.start_turn]))
    parts.append(serialize_dialogue(turns))
    if window_end < len(dialogue.turns):
        parts.append(serialize_dialogue(dialogue.turns[window_end:]))
    input_text = "\n".join(parts)

    trace = {
        "seed": seed,
        "window": {
            "token_budget": window.token_budget,
            "oversized_turn": window.oversized,
        },
        "speaker_mask": masked,
        "turn_op": op_trace,
        "infill": infill_trace,
        "permutation": permutation,
    }
    return DenoisingExample(
        dialogue_id=dialogue.id,
        example_index=example_index,
        input_text=input_text,
        target_text=target_text,
        window=window,
        noise_trace=trace,
    )


def replay_window_noise(turns: Sequence[Turn], trace: dict) -> list[Turn]:
    """Reapply a recorded trace to the clean window turns.

    Uses no randomness; the output matches the original noisy window byte
    for byte under serialization.
    """
    replayed: list[Turn] = list(turns)
    for index in trace["speaker_mask"]:
        replayed[index] = Turn(MASK_SPEAKER, replayed[index].sentences)
    applied = trace["turn_op"]["applied"]
    if applied == "split":
        replayed, _ = noise_turn_splitting(replayed)
    elif applied == "merge":
        merge = trace["turn_op"]["merge"]
        replayed = merge_turns(replayed, merge["start"], merge["count"])
    infill = trace["infill"]
    replayed = _apply_infill(replayed, infill["spans"], infill["insertions"])
    return [replayed[j] for j in trace["permutation"]]
