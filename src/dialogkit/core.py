"""Dialogue data model and canonical text serialization.

A dialogue is an ordered, non-empty list of turns; a turn is an optional
speaker plus its text, and its sentences are read from that text.
Serialization is the single place where turns become text, which keeps token
accounting additive: tokenizing a serialized dialogue yields exactly the
concatenation of the per-turn tokens, speaker prefixes included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

MASK = "[MASK]"
MASK_SPEAKER = "[MASK_SPEAKER]"
TURN_SEPARATOR = "\n"
SPEAKER_DELIMITER = ": "

_SENTENCE_BREAK = re.compile(r"(?<=[.!?]) ")


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization. Runs of whitespace collapse; no token is empty."""
    return text.split()


def split_sentences(utterance: str) -> list[str]:
    """Split an utterance after sentence-final ``.``, ``!`` or ``?`` plus a space.

    The rule is deliberately dumb and lossless: joining the parts with single
    spaces reproduces the whitespace-normalized input. A trailing fragment
    without terminal punctuation is kept as its own sentence. Abbreviations
    such as "Mr. Smith" do split; callers that care should pre-clean.
    """
    normalized = " ".join(utterance.split())
    if not normalized:
        raise ValueError("utterance is empty")
    return _SENTENCE_BREAK.split(normalized)


@dataclass(frozen=True)
class Turn:
    """One turn: an optional speaker plus its text; sentences are read from it.

    The text is whitespace-normalized into ``utterance``, and ``sentences``
    cuts it with :func:`split_sentences`, so a turn's sentences depend on its
    utterance alone: ``parse_turn_line(serialize_turn(turn))`` gives back
    every turn that has a speaker. Speakers are whitespace-normalized and may
    not contain a colon, so the serialized form stays parseable.
    """

    speaker: str | None
    utterance: str

    def __post_init__(self) -> None:
        if self.speaker is not None:
            if not isinstance(self.speaker, str):
                kind = type(self.speaker).__name__
                raise TypeError(f"speaker must be a str or None, not {kind}")
            cleaned_speaker = " ".join(self.speaker.split())
            if not cleaned_speaker:
                raise ValueError("speaker is present but empty")
            if ":" in cleaned_speaker:
                raise ValueError(f"speaker contains a colon: {cleaned_speaker!r}")
            object.__setattr__(self, "speaker", cleaned_speaker)
        if not isinstance(self.utterance, str):
            raise TypeError(f"utterance must be a str, not {type(self.utterance).__name__}")
        utterance = " ".join(self.utterance.split())
        if not utterance:
            raise ValueError("utterance is empty")
        object.__setattr__(self, "utterance", utterance)

    @property
    def sentences(self) -> tuple[str, ...]:
        return tuple(split_sentences(self.utterance))


@dataclass(frozen=True)
class Dialogue:
    """A non-empty turn sequence with a corpus-unique id.

    ``turn_lines`` holds each turn rendered by :func:`serialize_turn` and
    ``turn_token_counts`` the number of whitespace tokens of each line,
    speaker included. Both are derived once, on construction, so window
    selection, example text and statistics never serialize a turn again.
    """

    id: str
    turns: tuple[Turn, ...]
    turn_lines: tuple[str, ...] = field(init=False, repr=False, compare=False)
    turn_token_counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("dialogue id is empty")
        if not self.turns:
            raise ValueError(f"dialogue {self.id!r} has no turns")
        object.__setattr__(self, "turns", tuple(self.turns))
        lines = tuple(map(serialize_turn, self.turns))
        object.__setattr__(self, "turn_lines", lines)
        object.__setattr__(self, "turn_token_counts", tuple(map(len, map(tokenize, lines))))


def serialize_turn(turn: Turn) -> str:
    """Render one turn as a single line: ``speaker: utterance`` or bare text."""
    if turn.speaker is None:
        return turn.utterance
    return f"{turn.speaker}{SPEAKER_DELIMITER}{turn.utterance}"


def serialize_dialogue(turns: Sequence[Turn]) -> str:
    if not turns:
        raise ValueError("cannot serialize an empty turn sequence")
    return TURN_SEPARATOR.join(serialize_turn(t) for t in turns)


def parse_turn_line(line: str) -> Turn:
    """Parse one line written by serialize_turn back into a turn.

    The first ``": "`` separates speaker from utterance. A line without it,
    or whose head would be an illegal speaker name, is a speakerless turn.
    This is not a full inverse: a speakerless turn whose text starts with
    ``Word: `` (say ``Note: call back``) comes back with speaker ``Word``,
    because serialize_turn writes it without a marker.
    """
    stripped = line.strip()
    if not stripped:
        raise ValueError("blank turn line")
    head, sep, rest = stripped.partition(SPEAKER_DELIMITER)
    if sep and head and ":" not in head and rest.strip():
        return Turn(head, rest)
    return Turn(None, stripped)

