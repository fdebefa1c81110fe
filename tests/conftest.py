"""Shared dialogue builders and scripted randomness for the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

from hypothesis import Phase
from hypothesis import strategies as st

import dialogkit
from dialogkit.core import Dialogue, Turn

# The directory that holds the package, for child interpreters to import it.
SRC = str(Path(dialogkit.__file__).resolve().parents[1])

# Hypothesis phases without "explain": on a failing fuzz property it took
# minutes to report, where shrinking alone reports within half a minute.
NO_EXPLAIN = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)


class ScriptedRng:
    """Duck-typed stand-in for random.Random with predetermined draws.

    Feeds scripted values to .random() and .randrange() and fails loudly if
    an op consumes more draws than scripted, which doubles as a check on
    the documented draw order.
    """

    def __init__(self, uniforms=(), ranges=()):
        self.uniforms = list(uniforms)
        self.ranges = list(ranges)

    def random(self) -> float:
        if not self.uniforms:
            raise AssertionError("op consumed an unscripted uniform draw")
        return self.uniforms.pop(0)

    def randrange(self, stop: int) -> int:
        if not self.ranges:
            raise AssertionError("op consumed an unscripted randrange draw")
        value = self.ranges.pop(0)
        if not 0 <= value < stop:
            raise AssertionError(f"scripted draw {value} outside range({stop})")
        return value

    def assert_exhausted(self) -> None:
        assert not self.uniforms and not self.ranges, (
            f"unconsumed draws: uniforms={self.uniforms} ranges={self.ranges}"
        )


def make_turn(speaker, text) -> Turn:
    return Turn(speaker, text)


def make_dialogue(dialogue_id: str, *turns) -> Dialogue:
    """Build a dialogue from (speaker, text) pairs."""
    return Dialogue(dialogue_id, tuple(make_turn(s, t) for s, t in turns))


def synthetic_dialogue(dialogue_id: str, turn_count: int, rng: random.Random) -> Dialogue:
    """A dialogue of two-sentence turns with rotating speakers and varied
    lengths, used for bulk statistical checks."""
    speakers = ("Ann", "Ben", "Cal", "Dee")
    turns = []
    for index in range(turn_count):
        first = " ".join(
            f"w{rng.randrange(200)}" for _ in range(rng.randrange(4, 9))
        )
        second = " ".join(
            f"w{rng.randrange(200)}" for _ in range(rng.randrange(3, 7))
        )
        turns.append(
            Turn(speakers[index % len(speakers)], f"{first}. {second}.")
        )
    return Dialogue(dialogue_id, tuple(turns))


def dialogue_to_json_line(dialogue: Dialogue) -> str:
    return json.dumps(
        {
            "id": dialogue.id,
            "turns": [
                {"speaker": t.speaker, "utterance": t.utterance}
                for t in dialogue.turns
            ],
        },
        ensure_ascii=False,
    )


# Words carry no colon, so a speakerless line never reads as ``Word: ...``,
# and may end a sentence; the gaps after them are normalized away.
_WORDS = st.tuples(
    st.text("abXYé'", min_size=1, max_size=5),
    st.sampled_from(["", "", ".", "!", "?", ","]),
    st.sampled_from([" ", " ", "  ", "\t"]),
).map("".join)
_SPEAKERS = st.none() | st.sampled_from(["Ann", "Bob", "Mary Lou", "Dr Who", "é"])


@st.composite
def dialogues(draw, dialogue_id: str = "d", max_turns: int = 12) -> Dialogue:
    """Random dialogues: speakers present and absent, one or more sentences
    a turn, built from text as ingest builds them."""
    turns = []
    for _ in range(draw(st.integers(1, max_turns))):
        utterance = "".join(draw(st.lists(_WORDS, min_size=1, max_size=14)))
        turns.append(make_turn(draw(_SPEAKERS), utterance))
    return Dialogue(dialogue_id, tuple(turns))

