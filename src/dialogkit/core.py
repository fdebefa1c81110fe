"""Dialogue data model and canonical text serialization.

A dialogue is an ordered, non-empty list of turns; a turn is an optional
speaker plus its text, and its sentences are read from that text.
:func:`normalize_turn` checks each turn once and gives the line that
:func:`serialize_turn` writes for it, with its token count; a
:class:`Dialogue` keeps these per turn, building :class:`Turn` objects only
when asked. Token accounting is additive: tokenizing a serialized dialogue
yields exactly the concatenation of the per-turn tokens, speaker included.
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


def _has_lone_surrogate(value: object) -> bool:
    """Whether a str, or one nested in json lists and dicts, cannot be written
    as UTF-8. Walked with a stack, as json may nest past the recursion limit."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack += value
            stack += value.values()
        elif isinstance(value, list):
            stack += value
        elif isinstance(value, str) and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                return True
    return False


def normalize_turn(speaker: object, utterance: object) -> tuple:
    """Check one turn's fields: ``(speaker, utterance, line, token_count)``.

    One split of each field folds its whitespace and counts its tokens;
    ``line`` is the turn as :func:`serialize_turn` writes it. A field of the
    wrong type is a TypeError; an empty one or a colon in the speaker, a
    ValueError."""
    if speaker is not None:
        if not isinstance(speaker, str):
            raise TypeError(f"speaker must be a str or None, not {type(speaker).__name__}")
        names = speaker.split()
        if not names:
            raise ValueError("speaker is present but empty")
        speaker = " ".join(names)
        if ":" in speaker:
            raise ValueError(f"speaker contains a colon: {speaker!r}")
    if not isinstance(utterance, str):
        raise TypeError(f"utterance must be a str, not {type(utterance).__name__}")
    words = utterance.split()
    if not words:
        raise ValueError("utterance is empty")
    utterance = " ".join(words)
    if speaker is None:
        return None, utterance, utterance, len(words)
    return speaker, utterance, f"{speaker}{SPEAKER_DELIMITER}{utterance}", len(names) + len(words)


@dataclass(frozen=True)
class Turn:
    """An optional speaker plus text, both checked by :func:`normalize_turn`;
    ``sentences`` cuts the text with :func:`split_sentences`. A turn with a
    speaker survives ``Turn(*split_turn_line(serialize_turn(turn)))``."""

    speaker: str | None
    utterance: str

    def __post_init__(self) -> None:
        speaker, utterance, _, _ = normalize_turn(self.speaker, self.utterance)
        object.__setattr__(self, "speaker", speaker)
        object.__setattr__(self, "utterance", utterance)

    @property
    def sentences(self) -> tuple[str, ...]:
        return tuple(split_sentences(self.utterance))


@dataclass(frozen=True, init=False)
class Dialogue:
    """A non-empty turn sequence with a corpus-unique id, kept per turn.

    Each field but ``id`` holds one entry per turn, as :func:`normalize_turn`
    returns them. The corpus readers pass those rows to :meth:`from_rows`,
    so ingest builds no :class:`Turn`; ``turns`` builds all of them on each
    access, and window selection only the window's. Equality and hashing
    read the id, speakers and utterances.
    """

    id: str
    speakers: tuple[str | None, ...]
    utterances: tuple[str, ...]
    turn_lines: tuple[str, ...] = field(repr=False, compare=False)
    turn_token_counts: tuple[int, ...] = field(repr=False, compare=False)

    def __init__(self, id: str, turns: Sequence[Turn]) -> None:
        self._fill(id, [normalize_turn(t.speaker, t.utterance) for t in turns])

    @classmethod
    def from_rows(cls, id: str, rows: Sequence[tuple]) -> Dialogue:
        """A dialogue from one :func:`normalize_turn` result per turn."""
        dialogue = cls.__new__(cls)
        dialogue._fill(id, rows)
        return dialogue

    def _fill(self, id: str, rows: Sequence[tuple]) -> None:
        if not id:
            raise ValueError("dialogue id is empty")
        if _has_lone_surrogate(id):
            raise ValueError(f"dialogue id {id!r} holds a lone surrogate")
        if not rows:
            raise ValueError(f"dialogue {id!r} has no turns")
        fields = ("id", "speakers", "utterances", "turn_lines", "turn_token_counts")
        for name, value in zip(fields, (id, *zip(*rows))):
            object.__setattr__(self, name, value)

    @property
    def turns(self) -> tuple[Turn, ...]:
        return tuple(map(Turn, self.speakers, self.utterances))


def serialize_turn(turn: Turn) -> str:
    """Render one turn as a single line: ``speaker: utterance`` or bare text."""
    if turn.speaker is None:
        return turn.utterance
    return f"{turn.speaker}{SPEAKER_DELIMITER}{turn.utterance}"


def serialize_dialogue(turns: Sequence[Turn]) -> str:
    if not turns:
        raise ValueError("cannot serialize an empty turn sequence")
    return TURN_SEPARATOR.join(serialize_turn(t) for t in turns)


def split_turn_line(line: str) -> tuple[str | None, str]:
    """Cut one line written by serialize_turn into its speaker and text.

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
        return head, rest
    return None, stripped
