from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogkit.core import (
    MASK_SPEAKER,
    Dialogue,
    Turn,
    serialize_dialogue,
    serialize_turn,
    split_sentences,
    split_turn_line,
    tokenize,
)


def test_tokenize_collapses_whitespace():
    assert tokenize("  a  b\tc\nd ") == ["a", "b", "c", "d"]
    assert tokenize("") == []


def test_split_sentences_on_terminal_punctuation():
    parts = split_sentences("One here. Two there! Three maybe? four trailing")
    assert parts == ["One here.", "Two there!", "Three maybe?", "four trailing"]


def test_split_sentences_normalizes_and_round_trips():
    text = "  Hello   there.  General  Kenobi! "
    parts = split_sentences(text)
    assert parts == ["Hello there.", "General Kenobi!"]
    assert " ".join(parts) == " ".join(text.split())


def test_split_sentences_rejects_empty():
    with pytest.raises(ValueError):
        split_sentences("   ")


def test_split_sentences_no_break_without_space():
    assert split_sentences("version 2.5 shipped") == ["version 2.5 shipped"]


def test_turn_normalizes_fields():
    turn = Turn("  Tom  Jones ", " Hi  there. \n Bye.")
    assert turn.speaker == "Tom Jones"
    assert turn.sentences == ("Hi there.", "Bye.")
    assert turn.utterance == "Hi there. Bye."


def test_turn_cuts_its_text_into_sentences():
    assert Turn(None, "A. B").sentences == ("A.", "B")
    # The cut depends on the normalized text alone, not on its whitespace.
    turn = Turn("Tom", "Hi. How\t are you?\n Fine")
    assert turn.sentences == ("Hi.", "How are you?", "Fine")
    assert turn == Turn("Tom", "Hi. How are you? Fine")


# Text with sentence ends and every kind of whitespace that normalization
# folds into one space; it must keep at least one token.
_TURN_TEXT = st.text("abXY.!? \t\n\u00a0", min_size=1, max_size=60).filter(lambda x: x.split())


@settings(max_examples=300, deadline=None)
@given(st.none() | st.sampled_from(["Ann", "Mary Lou", "é"]), _TURN_TEXT)
def test_turn_sentences_have_one_fixed_form(speaker, text):
    turn = Turn(speaker, text)
    prefix = "" if speaker is None else speaker + ": "
    assert turn.utterance == " ".join(text.split())
    assert serialize_turn(turn) == prefix + turn.utterance
    assert turn.sentences == tuple(split_sentences(text))
    assert all(split_sentences(s) == [s] for s in turn.sentences)
    assert Turn(speaker, " ".join(turn.sentences)) == turn
    if speaker is not None:
        assert Turn(*split_turn_line(serialize_turn(turn))) == turn


def test_turn_rejects_bad_speakers_and_sentences():
    with pytest.raises(ValueError):
        Turn("a:b", "Hi.")
    with pytest.raises(ValueError):
        Turn("   ", "Hi.")
    with pytest.raises(ValueError):
        Turn("Tom", "")
    with pytest.raises(ValueError):
        Turn("Tom", " \t\n ")
    with pytest.raises(TypeError, match="utterance must be a str"):
        Turn("A", ("Hi.",))
    with pytest.raises(TypeError, match="speaker must be a str or None, not int"):
        Turn(3, "Hi.")


def test_speakerless_turn_allowed():
    turn = Turn(None, "Just text.")
    assert serialize_turn(turn) == "Just text."


def test_dialogue_validation():
    with pytest.raises(ValueError):
        Dialogue("", (Turn("A", "Hi."),))
    with pytest.raises(ValueError):
        Dialogue("d", ())


def test_serialize_turn_with_speaker():
    turn = Turn("Tom", "The weather is good today!")
    assert serialize_turn(turn) == "Tom: The weather is good today!"
    masked = Turn(MASK_SPEAKER, "Hi.")
    assert serialize_turn(masked) == "[MASK_SPEAKER]: Hi."


def test_turn_token_count_includes_speaker():
    dialogue = Dialogue("d", (Turn("Tom", "Hi there."), Turn(None, "Hi there.")))
    assert dialogue.turn_token_counts == (3, 2)


def test_serialize_dialogue_joins_with_newlines():
    turns = (Turn("A", "One."), Turn(None, "Two."))
    assert serialize_dialogue(turns) == "A: One.\nTwo."
    with pytest.raises(ValueError):
        serialize_dialogue(())


def test_token_accounting_is_additive():
    turns = (
        Turn("Ann Marie", "First thing. Second thing!"),
        Turn(None, "Bare line here."),
        Turn("Bob", "Done?"),
    )
    total = len(tokenize(serialize_dialogue(turns)))
    assert total == sum(Dialogue("d", turns).turn_token_counts)


def test_parse_turn_line_with_speaker():
    turn = Turn(*split_turn_line("Tom: Hello there. How are you?"))
    assert turn.speaker == "Tom"
    assert turn.sentences == ("Hello there.", "How are you?")


def test_parse_turn_line_speakerless_variants():
    assert split_turn_line("no delimiter here")[0] is None
    # a colon inside the head means it is not a legal speaker name
    assert split_turn_line("a:b: text")[0] is None
    # delimiter with nothing after it is not a speaker prefix
    turn = Turn(*split_turn_line("odd:  "))
    assert turn.speaker is None
    assert turn.utterance == "odd:"


def test_parse_turn_line_reads_a_word_colon_prefix_as_a_speaker():
    # The documented limit of the round trip: the serialized form of this
    # speakerless turn is indistinguishable from a turn spoken by "Note".
    line = serialize_turn(Turn(None, "Note: call back."))
    assert line == "Note: call back."
    assert Turn(*split_turn_line(line)) == Turn("Note", "call back.")


def test_parse_turn_line_rejects_blank():
    with pytest.raises(ValueError):
        split_turn_line("   ")


def test_parse_serialize_round_trip():
    text = "Tom: Hello there. How are you?\nplain narration line\nSam: Fine!"
    turns = [Turn(*split_turn_line(line)) for line in text.split("\n")]
    assert serialize_dialogue(turns) == text
