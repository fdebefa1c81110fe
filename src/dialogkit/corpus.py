"""Corpus readers, per-record validation, and one-pass statistics.

Two input formats are supported:

* ``jsonl``: one dialogue per line,
  ``{"id": "...", "turns": [{"speaker": "Tom" | null, "utterance": "..."}]}``
* ``plain``: blocks of ``Speaker: text`` lines separated by blank lines;
  the 0-based block index (as a decimal string) becomes the dialogue id.

Reading runs in three streaming stages, which :func:`ingest` chains:
:func:`split_records` cuts lines into raw records, ``_outcome`` runs one
through a parse function, in this process or in pool workers, and
:func:`screen` applies the in-order duplicate-id check and the error
policy, which is set by the error sink: with no ``errors_out`` the first
:class:`RecordError` is raised, with one each is appended to it and its
record skipped. Every command of the CLI reads through :func:`ingest`, so
:func:`screen` is the one duplicate check and the one choice between skip
and raise. Each format's default parse, in :data:`PARSERS`, checks each
turn once, with :func:`~dialogkit.core.normalize_turn`, and the dialogue
keeps the rows it returns: ingest builds no :class:`Turn`.
:func:`json_record` is the one decoder of a jsonl line, shared with the
evaluation parsers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from typing import Iterable, Iterator

from .core import MASK, MASK_SPEAKER, Dialogue, _has_lone_surrogate
from .core import normalize_turn, split_turn_line

class RecordError(Exception):
    """A single corpus record failed validation."""

    def __init__(self, line_no: int, reason: str, dialogue_id: str | None = None):
        self.line_no = line_no
        self.reason = reason
        self.dialogue_id = dialogue_id
        where = f"line {line_no}"
        if dialogue_id is not None:
            where += f" (dialogue {dialogue_id!r})"
        super().__init__(f"{where}: {reason}")

    def __reduce__(self):
        return RecordError, (self.line_no, self.reason, self.dialogue_id)


def _check_no_special_tokens(text: str, line_no: int, dialogue_id: str | None) -> None:
    # "[MASK" starts both reserved tokens: one scan for it clears most text.
    if "[MASK" in text:
        for token in (MASK, MASK_SPEAKER):
            if token in text:
                reason = f"reserved token {token} appears in corpus text"
                raise RecordError(line_no, reason, dialogue_id)


def json_record(line: str, line_no: int) -> dict:
    """One jsonl line as a json object; anything else raises :class:`RecordError`.

    Input lines are UTF-8, so only a ``\\u`` escape can decode to a lone
    surrogate; a record that holds one is refused, as no output could hold it.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(line_no, f"invalid json: {exc.msg}") from exc
    except RecursionError as exc:
        raise RecordError(line_no, f"invalid json: {exc}") from exc
    if not isinstance(record, dict):
        raise RecordError(line_no, "record is not a json object")
    if "\\u" in line and _has_lone_surrogate(record):
        raise RecordError(line_no, "a \\u escape decodes to a lone surrogate")
    return record


def _dialogue_from_json_line(index: int, line_no: int, line: str) -> tuple[str, Dialogue]:
    record = json_record(line, line_no)
    dialogue_id = record.get("id")
    if not isinstance(dialogue_id, str) or not dialogue_id:
        raise RecordError(line_no, "missing or empty 'id'")
    turns_field = record.get("turns")
    if not isinstance(turns_field, list) or not turns_field:
        raise RecordError(line_no, "'turns' must be a non-empty list", dialogue_id)
    rows = []
    for entry in turns_field:
        if not isinstance(entry, dict) or "utterance" not in entry:
            raise RecordError(line_no, "turn entries need an 'utterance'", dialogue_id)
        speaker, utterance = entry.get("speaker"), entry["utterance"]
        if speaker is not None and not isinstance(speaker, str):
            raise RecordError(line_no, "speaker must be a string or null", dialogue_id)
        if not isinstance(utterance, str) or not utterance or utterance.isspace():
            raise RecordError(line_no, "utterance must be a non-empty string", dialogue_id)
        _check_no_special_tokens(speaker or "", line_no, dialogue_id)
        _check_no_special_tokens(utterance, line_no, dialogue_id)
        try:
            rows.append(normalize_turn(speaker, utterance))
        except ValueError as exc:
            raise RecordError(line_no, str(exc), dialogue_id) from exc
    return dialogue_id, Dialogue.from_rows(dialogue_id, rows)


def _dialogue_from_block(index: int, first_line_no: int, block: list) -> tuple[str, Dialogue]:
    dialogue_id = str(index)
    rows = []
    for line_no, line in block:
        _check_no_special_tokens(line, line_no, dialogue_id)
        try:
            rows.append(normalize_turn(*split_turn_line(line)))
        except ValueError as exc:
            raise RecordError(line_no, str(exc), dialogue_id) from exc
    return dialogue_id, Dialogue.from_rows(dialogue_id, rows)


# The dialogue parse of each corpus format, ``parse(index, line_no, payload)
# -> (id, dialogue)``; ``index`` is the 0-based position that names a block.
PARSERS = {"jsonl": _dialogue_from_json_line, "plain": _dialogue_from_block}


class _CutBlock(list):
    """A plain block cut short by a read error. Its errors are reported, in
    order, but it never passes as a dialogue: its lines are not all there."""


def split_records(lines: Iterable[str], format: str) -> Iterator[tuple[int, object]]:
    """Stage 1: cut text lines into raw records, parsing nothing.

    ``jsonl`` yields ``(line_no, line)`` per non-blank line; ``plain`` yields
    ``(first_line_no, block)`` per blank-line-separated block, where a block
    is a list of ``(line_no, line)``. A read error (a line that is not
    UTF-8, or an I/O error) mid-block first yields the block read so far as
    a ``_CutBlock``, so that block's own errors, on earlier lines, come
    first; ``_outcome`` never turns it into a dialogue.
    """
    if format == "jsonl":
        for line_no, raw in enumerate(lines, 1):
            line = raw.strip()
            if line:
                yield line_no, line
        return
    block: list[tuple[int, str]] = []
    try:
        for line_no, raw in enumerate(lines, 1):
            line = raw.rstrip("\n")
            if line.strip():
                block.append((line_no, line))
            elif block:
                yield block[0][0], block
                block = []
    except (RecordError, OSError):
        if block:
            yield block[0][0], _CutBlock(block)
        raise
    if block:
        yield block[0][0], block


def _outcome(parse, record) -> tuple:
    """Stage 2: one ``(index, (line_no, payload))`` raw record as a
    :func:`screen` outcome, ``(line_no, id, value)``, where ``(id, value)``
    is ``parse(index, line_no, payload)``. A record that fails gives
    ``(line_no, None, error)`` with a fresh copy of the
    :class:`RecordError`, which keeps the line it was raised at but not its
    traceback, cause or their frames. A ``_CutBlock`` that parses gives
    ``(line_no, None, None)``, which :func:`screen` drops.
    """
    index, (line_no, payload) = record
    try:
        identifier, value = parse(index, line_no, payload)
    except RecordError as err:
        return line_no, None, RecordError(err.line_no, err.reason, err.dialogue_id)
    if isinstance(payload, _CutBlock):
        return line_no, None, None
    return line_no, identifier, value


def screen(outcomes: Iterable[tuple], errors_out: list[RecordError] | None = None) -> Iterator:
    """Stage 3: apply the duplicate-id check and the error policy in order.

    ``outcomes`` are ``(line_no, id, value)`` per record, where ``value`` is
    the :class:`RecordError` of a record that failed to parse, or None for
    a record to drop unseen. The value of each record that passes is
    yielded. The sink is the policy: with no ``errors_out`` the first
    :class:`RecordError` is raised; with a sink, a list or any object with
    ``append``, each is appended to it and its record skipped.
    The id set kept for the duplicate check is the only per-corpus state.
    """
    seen_ids: set[str] = set()
    for line_no, dialogue_id, value in outcomes:
        if value is None:
            continue
        if isinstance(value, RecordError):
            err = value
        elif dialogue_id in seen_ids:
            err = RecordError(line_no, f"duplicate dialogue id {dialogue_id!r}", dialogue_id)
        else:
            seen_ids.add(dialogue_id)
            yield value
            continue
        if errors_out is None:
            raise err
        errors_out.append(err)


def ingest(
    lines: Iterable[str],
    format: str = "jsonl",
    *,
    errors_out: list[RecordError] | None = None,
    parse=None,
    imap=map,
) -> Iterator:
    """Stream the validated records of an iterable of text lines.

    The three stages: :func:`split_records`, then ``_outcome`` under
    ``imap`` (the builtin ``map``, or a pool's ``imap``, whose task thread
    then runs the feed of raw records), then :func:`screen`. ``parse`` turns
    a raw record into ``(id, value)``, and ``value`` is yielded; it defaults
    to the format's dialogue parse in :data:`PARSERS`. With no
    ``errors_out`` the first bad record raises its :class:`RecordError`;
    with a sink, each bad record's error is appended to it and the record
    skipped. Duplicate ids are record errors. A read error, a
    :class:`RecordError` or ``OSError`` from ``lines``, ends the feed and is
    raised, with or without a sink, once every record before it has been
    screened; a ``plain`` block it cuts short is screened for its errors
    but never yielded. On any exit, closing included, the feed stops before
    its next record.
    """
    if format not in PARSERS:
        raise ValueError(f"unknown corpus format {format!r}")
    stop, failure = False, None

    def records():
        nonlocal failure
        try:
            for record in enumerate(split_records(lines, format)):
                if stop:
                    return
                yield record
        except (RecordError, OSError) as exc:
            failure = exc

    try:
        outcomes = imap(partial(_outcome, parse or PARSERS[format]), records())
        yield from screen(outcomes, errors_out)
    finally:
        stop = True
    if failure is not None:
        raise failure


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-level means. Means are None when undefined (empty corpus, or
    mean_speakers on a fully speakerless corpus)."""

    dialogue_count: int
    mean_turns: float | None
    mean_speakers: float | None
    mean_length_words: float | None

    def as_dict(self) -> dict:
        return asdict(self)


class StatsAccumulator:
    """Associative accumulator behind compute_stats.

    Sums are integers, so accumulation order cannot change the result and
    shard accumulators merge exactly. Division happens once, in finalize.
    """

    def __init__(self) -> None:
        self.dialogue_count = 0
        self.turn_total = 0
        self.speaker_total = 0
        self.word_total = 0

    def add(self, dialogue: Dialogue) -> None:
        self.dialogue_count += 1
        self.turn_total += len(dialogue.speakers)
        self.speaker_total += len({*dialogue.speakers} - {None})
        self.word_total += sum(dialogue.turn_token_counts)

    def merge(self, other: "StatsAccumulator") -> "StatsAccumulator":
        self.dialogue_count += other.dialogue_count
        self.turn_total += other.turn_total
        self.speaker_total += other.speaker_total
        self.word_total += other.word_total
        return self

    def finalize(self) -> CorpusStats:
        if self.dialogue_count == 0:
            return CorpusStats(0, None, None, None)
        n = self.dialogue_count
        return CorpusStats(
            dialogue_count=n,
            mean_turns=self.turn_total / n,
            mean_speakers=self.speaker_total / n if self.speaker_total else None,
            mean_length_words=self.word_total / n,
        )


def compute_stats(dialogues: Iterable[Dialogue]) -> CorpusStats:
    """One streaming pass; identical to accumulating a fully loaded list."""
    acc = StatsAccumulator()
    for dialogue in dialogues:
        acc.add(dialogue)
    return acc.finalize()
