from __future__ import annotations

import contextlib
import json
import pickle
import queue
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogkit.core import MASK, MASK_SPEAKER, Dialogue, Turn, serialize_dialogue
from dialogkit.corpus import (
    RecordError,
    StatsAccumulator,
    compute_stats,
    ingest,
)
from tests.conftest import NO_EXPLAIN, dialogue_to_json_line, dialogues, make_dialogue


def _jsonl(records) -> list[str]:
    return [json.dumps(r) for r in records]


GOOD = [
    {
        "id": "a",
        "turns": [
            {"speaker": "Tom", "utterance": "Hi there."},
            {"speaker": None, "utterance": "Narration."},
        ],
    },
    {"id": "b", "turns": [{"speaker": "Sam", "utterance": "Yo."}]},
]


def test_ingest_jsonl_happy_path():
    dialogues = list(ingest(_jsonl(GOOD), "jsonl"))
    assert [d.id for d in dialogues] == ["a", "b"]
    assert dialogues[0].turns[0].speaker == "Tom"
    assert dialogues[0].turns[1].speaker is None


def test_ingest_round_trips_conftest_builder():
    dialogue = make_dialogue("x", ("Ann", "One. Two."), (None, "Three."))
    [parsed] = list(ingest([dialogue_to_json_line(dialogue)], "jsonl"))
    assert parsed == dialogue


@settings(max_examples=80, deadline=None)
@given(dialogues())
def test_serialized_dialogue_survives_ingest(dialogue):
    text = serialize_dialogue(dialogue.turns)
    [from_jsonl] = list(ingest([dialogue_to_json_line(dialogue)], "jsonl"))
    assert from_jsonl == dialogue
    assert serialize_dialogue(from_jsonl.turns) == text
    [from_plain] = list(ingest(text.split("\n"), "plain"))
    assert from_plain.turns == dialogue.turns


# The reference per-turn checks of both readers, written out apart from the
# package: the record checks of a jsonl turn in their order, then the checks
# and whitespace folding of a Turn. Each returns (speaker, text) or raises
# the RecordError the reader must raise.
def _oracle_reserved(text, line_no, dialogue_id):
    for token in (MASK, MASK_SPEAKER):
        if token in text:
            raise RecordError(line_no, f"reserved token {token} appears in corpus text", dialogue_id)


def _oracle_jsonl_turn(speaker, utterance, line_no, dialogue_id):
    if speaker is not None and not isinstance(speaker, str):
        raise RecordError(line_no, "speaker must be a string or null", dialogue_id)
    if not isinstance(utterance, str) or not utterance.strip():
        raise RecordError(line_no, "utterance must be a non-empty string", dialogue_id)
    if speaker is not None:
        _oracle_reserved(speaker, line_no, dialogue_id)
    _oracle_reserved(utterance, line_no, dialogue_id)
    if speaker is not None:
        speaker = " ".join(speaker.split())
        if not speaker:
            raise RecordError(line_no, "speaker is present but empty", dialogue_id)
        if ":" in speaker:
            raise RecordError(line_no, f"speaker contains a colon: {speaker!r}", dialogue_id)
    return speaker, " ".join(utterance.split())


def _oracle_plain_turn(line, line_no, dialogue_id):
    _oracle_reserved(line, line_no, dialogue_id)
    stripped = line.strip()
    head, sep, rest = stripped.partition(": ")
    if sep and head and ":" not in head and rest.strip():
        return " ".join(head.split()), " ".join(rest.split())
    return None, " ".join(stripped.split())


# Fields with whitespace runs of every kind str.split folds (NBSP and the
# \x1c separator too), colons and both reserved tokens, or of a wrong type.
_DIFF_TEXT = st.lists(
    st.sampled_from(
        ["a", "Bo", "é", ".", " ", "  ", "\t", "\n", "\xa0", "\x1c", ":", ": "]
        + [MASK, MASK_SPEAKER, "[MASK"]
    ),
    max_size=6,
).map("".join)
_DIFF_SPEAKER = st.none() | _DIFF_TEXT | st.sampled_from([0, True, ["Ann"], {}])
_DIFF_UTTERANCE = _DIFF_TEXT | st.sampled_from([None, 0, 1.5, ["Hi."]])


def _check_against_oracle(lines, fmt, dialogue_id, oracle_turns):
    """``oracle_turns()`` gives (speaker, text) per turn or raises the
    record's error; ``ingest`` must agree on the error or on every column."""
    errors: list[RecordError] = []
    parsed = list(ingest(lines, fmt, errors_out=errors))
    try:
        want = oracle_turns()
    except RecordError as err:
        assert [(e.line_no, e.reason, e.dialogue_id) for e in errors] == [
            (err.line_no, err.reason, err.dialogue_id)
        ]
        return
    assert errors == []
    [got] = parsed
    assert got == Dialogue(dialogue_id, tuple(Turn(s, u) for s, u in want))
    lines_want = tuple(u if s is None else f"{s}: {u}" for s, u in want)
    assert got.speakers == tuple(s for s, _ in want)
    assert got.utterances == tuple(u for _, u in want)
    assert got.turn_lines == lines_want
    assert got.turn_token_counts == tuple(len(line.split()) for line in lines_want)


def _plain_line(speaker, utterance):
    """A turn's line in a plain file, or None when no such line can hold it."""
    if not isinstance(utterance, str) or not isinstance(speaker, (str, type(None))):
        return None
    line = utterance if speaker is None else f"{speaker}: {utterance}"
    return line if line.strip() and "\n" not in line else None


@settings(max_examples=400, deadline=None, phases=NO_EXPLAIN)
@given(st.lists(st.tuples(_DIFF_SPEAKER, _DIFF_UTTERANCE), min_size=1, max_size=4), st.integers(1, 3))
def test_both_readers_match_the_turn_by_turn_oracle(fields, first_line):
    record = {"id": "d", "turns": [{"speaker": s, "utterance": u} for s, u in fields]}
    _check_against_oracle(
        [json.dumps(record)], "jsonl", "d", lambda: [_oracle_jsonl_turn(s, u, 1, "d") for s, u in fields]
    )
    # One plain block, from line ``first_line`` on, of the turns a line can hold.
    lines = [line for line in (_plain_line(s, u) for s, u in fields) if line is not None]
    if lines:
        _check_against_oracle(
            [""] * (first_line - 1) + lines,
            "plain",
            "0",
            lambda: [_oracle_plain_turn(line, first_line + i, "0") for i, line in enumerate(lines)],
        )


MALFORMED = [
    "not json",
    json.dumps({"id": "a"}),
    json.dumps({"id": "", "turns": [{"utterance": "x."}]}),
    json.dumps({"id": "a", "turns": []}),
    json.dumps({"id": "a", "turns": [{"speaker": "T"}]}),
    json.dumps({"id": "a", "turns": [{"utterance": "  "}]}),
    json.dumps({"id": "a", "turns": [{"speaker": 3, "utterance": "x."}]}),
    json.dumps({"id": 7, "turns": [{"utterance": "x."}]}),
    json.dumps({"id": "a", "turns": [{"utterance": "has [MASK] inside."}]}),
    json.dumps({"id": "a", "turns": [{"speaker": "a:b", "utterance": "x."}]}),
]


@pytest.mark.parametrize("line", MALFORMED)
def test_ingest_raises_on_malformed(line):
    with pytest.raises(RecordError):
        list(ingest([line], "jsonl"))


def test_ingest_skip_mode_collects_errors():
    lines = [_jsonl(GOOD)[0], "broken", _jsonl(GOOD)[1]]
    errors: list[RecordError] = []
    dialogues = list(ingest(lines, "jsonl", errors_out=errors))
    assert [d.id for d in dialogues] == ["a", "b"]
    assert len(errors) == 1
    assert errors[0].line_no == 2


def test_skipped_errors_hold_no_traceback_or_chained_exception():
    # A kept traceback holds its frames, and a chained JSONDecodeError its
    # own, for as long as the error list lives.
    lines = [*MALFORMED, "[" * 100000, *_jsonl([GOOD[1], GOOD[1]])]
    blocks = ["Ann: fine.", "Bob: has [MASK] inside.", "", "Ann: ok."]
    errors: list[RecordError] = []
    list(ingest(lines, "jsonl", errors_out=errors))
    list(ingest(blocks, "plain", errors_out=errors))
    assert len(errors) == len(MALFORMED) + 3
    for err in errors:
        assert (err.__traceback__, err.__cause__, err.__context__) == (None, None, None)


def test_ingest_rejects_duplicate_ids_with_line_number():
    lines = _jsonl([GOOD[1], GOOD[1]])
    with pytest.raises(RecordError) as excinfo:
        list(ingest(lines, "jsonl"))
    assert excinfo.value.line_no == 2
    assert "duplicate" in str(excinfo.value)


def test_ingest_plain_reports_the_bad_line_inside_a_block():
    text = ["Ann: fine.", "Bob: has [MASK] inside.", "", "Ann: ok."]
    with pytest.raises(RecordError) as excinfo:
        list(ingest(text, "plain"))
    assert excinfo.value.line_no == 2
    errors: list[RecordError] = []
    assert [d.id for d in ingest(text, "plain", errors_out=errors)] == ["1"]
    assert [(e.line_no, e.dialogue_id) for e in errors] == [(2, "0")]


def _then_raise(lines, error):
    yield from lines
    raise error


@pytest.mark.parametrize("collect", [False, True], ids=["raise", "skip"])
def test_plain_block_cut_by_a_read_error_never_passes(collect):
    lines = _then_raise(["Ann: whole.", "", "Bob: cut", "Ann: short."], OSError("gone"))
    got: list[str] = []
    errors: list[RecordError] | None = [] if collect else None
    with pytest.raises(OSError):
        for dialogue in ingest(lines, "plain", errors_out=errors):
            got.append(dialogue.id)
    assert got == ["0"]
    assert errors == ([] if collect else None)


def test_plain_block_cut_by_a_read_error_reports_its_own_errors_first():
    block = ["Ann: has [MASK] here.", "Bob: ok."]
    with pytest.raises(RecordError) as excinfo:
        list(ingest(_then_raise(block, RecordError(3, "not valid utf-8")), "plain"))
    assert excinfo.value.line_no == 1
    errors: list[RecordError] = []
    lines = _then_raise(block, RecordError(3, "not valid utf-8"))
    with pytest.raises(RecordError) as excinfo:
        list(ingest(lines, "plain", errors_out=errors))
    assert excinfo.value.line_no == 3
    assert [(e.line_no, e.dialogue_id) for e in errors] == [(1, "0")]


_DONE = object()


class _ThreadPool:
    """``Pool.imap`` without processes. A thread runs the feed and the
    function, and a queue of one carries each result back in order. An
    exception the feed raises ends it unseen, as ``Pool.imap`` files it
    against its last task; ``join`` answers every task sent, as
    ``Pool.join`` does."""

    def __init__(self):
        self.runs = []

    def imap(self, function, iterable):
        results = queue.Queue(maxsize=1)

        def run():
            items = iter(iterable)
            while True:
                try:
                    item = next(items)
                except Exception:
                    break
                results.put(function(item))
            results.put(_DONE)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        self.runs.append((thread, results))
        return iter(lambda: results.get(timeout=10), _DONE)

    def join(self):
        for thread, results in self.runs:
            deadline = time.monotonic() + 10
            while thread.is_alive() and time.monotonic() < deadline:
                with contextlib.suppress(queue.Empty):
                    results.get(timeout=0.01)
            assert not thread.is_alive()


# Lines of each format: good and bad records, a repeated id, blank lines.
_FEED_LINES = {
    "jsonl": st.sampled_from(
        [*_jsonl(GOOD), "", '{"broken', json.dumps({"id": "c", "turns": [{"utterance": "[MASK]"}]})]
    ),
    "plain": st.sampled_from(["Ann: Hi there.", "Bob: ok.", "", "", "narration", "Cy: a [MASK]."]),
}
_READ_ERRORS = {"record": lambda n: RecordError(n, "not valid utf-8"), "os": lambda n: OSError("gone")}


def _feed_run(lines, fmt, collect, fault, imap):
    """What ``ingest`` yields, skips and raises on ``lines``, which raise
    the read error that ``fault`` names at its line, if any; skipped errors
    are collected only when ``collect`` is set."""
    if fault is not None:
        at, kind = fault
        lines = _then_raise(lines[:at], _READ_ERRORS[kind](at + 1))
    got, errors, raised = [], [] if collect else None, None
    try:
        for dialogue in ingest(lines, fmt, errors_out=errors, imap=imap):
            got.append(dialogue)
    except (RecordError, OSError) as exc:
        raised = (type(exc), str(exc))
    return got, [str(e) for e in errors or ()], raised


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(
    st.sampled_from(["jsonl", "plain"]).flatmap(
        lambda fmt: st.tuples(st.just(fmt), st.lists(_FEED_LINES[fmt], max_size=12))
    ),
    st.booleans(),
    st.none() | st.tuples(st.integers(0, 12), st.sampled_from(sorted(_READ_ERRORS))),
)
def test_ingest_through_a_pool_like_imap_matches_the_builtin_map(case, collect, fault):
    # A read error raised in the pool's feed thread would be lost there:
    # ingest must keep it and raise it after every record before it.
    fmt, lines = case
    pool = _ThreadPool()
    try:
        got = _feed_run(lines, fmt, collect, fault, pool.imap)
    finally:
        pool.join()
    assert got == _feed_run(lines, fmt, collect, fault, map)


def _counted(lines, pulled):
    for line in lines:
        pulled.append(line)
        yield line


@pytest.mark.parametrize("fmt", ["jsonl", "plain"])
def test_closing_ingest_stops_its_feed(fmt):
    if fmt == "jsonl":
        lines = [json.dumps({"id": f"d{i}", "turns": [{"utterance": "x."}]}) for i in range(100)]
    else:
        lines = ["Ann: x.", "Bob: y.", ""] * 100
    per_record = len(lines) // 100
    # The builtin map pulls only the record it yields. The thread pulls at
    # most four: the one yielded, one in the queue, one waiting to enter it
    # and the one it finds the stop flag set before.
    pool = _ThreadPool()
    for imap, most in ((map, 1), (pool.imap, 4)):
        pulled: list[str] = []
        dialogues = ingest(_counted(lines, pulled), fmt, imap=imap)
        next(dialogues)
        dialogues.close()
        pool.join()
        assert 0 < len(pulled) <= most * per_record


@pytest.mark.parametrize("dialogue_id", ["d1", None])
def test_record_error_survives_pickling(dialogue_id):
    err = RecordError(3, "x", dialogue_id)
    copy = pickle.loads(pickle.dumps(err))
    assert (copy.line_no, copy.reason, copy.dialogue_id) == (3, "x", dialogue_id)
    assert str(copy) == str(err)


def test_ingest_blank_lines_skipped():
    lines = ["", _jsonl(GOOD)[0], "   ", _jsonl(GOOD)[1], ""]
    assert len(list(ingest(lines, "jsonl"))) == 2


def test_ingest_plain_format():
    text = [
        "Tom: Hello there.",
        "Sam: Hi.",
        "",
        "narration only line",
        "Bob: Bye now. See you.",
    ]
    dialogues = list(ingest(text, "plain"))
    assert [d.id for d in dialogues] == ["0", "1"]
    assert dialogues[0].turns[0].speaker == "Tom"
    assert dialogues[1].turns[0].speaker is None
    assert dialogues[1].turns[1].sentences == ("Bye now.", "See you.")


def test_ingest_unknown_format():
    with pytest.raises(ValueError):
        list(ingest([], "xml"))


def test_ingest_takes_its_error_sink_by_keyword_only():
    # A string in the sink's place is refused, never taken as a sink.
    with pytest.raises(TypeError):
        ingest(["broken"], "jsonl", "skip")


def test_stats_hand_counted_toy():
    dialogues = [
        make_dialogue("d1", ("Tom", "a b."), ("Bob", "c.")),
        make_dialogue("d2", ("Tom", "d.")),
    ]
    stats = compute_stats(dialogues)
    assert stats.dialogue_count == 2
    assert stats.mean_turns == 1.5
    assert stats.mean_speakers == 1.5
    # serialized: "Tom: a b.\nBob: c." = 5 words; "Tom: d." = 2 words
    assert stats.mean_length_words == 3.5


def test_stats_empty_corpus_yields_none_means():
    stats = compute_stats([])
    assert stats.dialogue_count == 0
    assert stats.mean_turns is None
    assert stats.mean_speakers is None
    assert stats.mean_length_words is None
    assert stats.as_dict()["mean_turns"] is None


def test_stats_speakerless_corpus_has_no_speaker_mean():
    stats = compute_stats([make_dialogue("d", (None, "One."), (None, "Two."))])
    assert stats.mean_speakers is None
    assert stats.mean_turns == 2.0


def test_stats_counts_distinct_speakers_per_dialogue():
    stats = compute_stats(
        [make_dialogue("d", ("A", "x."), ("B", "y."), ("A", "z."))]
    )
    assert stats.mean_speakers == 2.0


def test_accumulator_merge_matches_single_pass():
    dialogues = [
        make_dialogue("d1", ("Tom", "a b."), ("Bob", "c.")),
        make_dialogue("d2", ("Tom", "d.")),
        make_dialogue("d3", (None, "e f g.")),
    ]
    whole = StatsAccumulator()
    for d in dialogues:
        whole.add(d)
    left, right = StatsAccumulator(), StatsAccumulator()
    left.add(dialogues[0])
    for d in dialogues[1:]:
        right.add(d)
    assert left.merge(right).finalize() == whole.finalize()
