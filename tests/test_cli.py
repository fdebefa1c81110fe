from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogkit.cli import build_parser, main
from dialogkit.core import Turn
from dialogkit.corpus import ingest
from dialogkit.noising import NoiseConfig
from tests.conftest import (
    NO_EXPLAIN,
    SRC,
    dialogue_to_json_line,
    make_dialogue,
    synthetic_dialogue,
)


def _write_corpus(path, dialogues):
    path.write_text(
        "".join(dialogue_to_json_line(d) + "\n" for d in dialogues), encoding="utf-8"
    )


def _stdout_rows(capsys):
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    manifest_lines = [
        line for line in captured.err.splitlines() if line.startswith("{")
    ]
    manifests = [json.loads(line) for line in manifest_lines]
    return rows, manifests


@pytest.fixture
def corpus_path(tmp_path):
    dialogues = [
        make_dialogue("d1", ("Tom", "a b c d."), ("Bob", "e f. g h.")),
        make_dialogue("d2", ("Tom", "i j k.")),
        make_dialogue("d3", ("Ann", "l m."), ("Tom", "n o p."), ("Ann", "q r.")),
    ]
    path = tmp_path / "corpus.jsonl"
    _write_corpus(path, dialogues)
    return path


# Each turn holds one word, d<dialogue>t<turn>, that no other turn holds.
_TURN_WORD = re.compile(r"d\d+t\d+")


@pytest.fixture
def turn_corpus(tmp_path):
    path = tmp_path / "turns.jsonl"
    records = [
        {
            "id": f"d{k}",
            "turns": [
                {"speaker": f"S{i % 3}", "utterance": f"d{k}t{i} said this. And more."}
                for i in range(40)
            ],
        }
        for k in range(6)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.fixture
def built_turns(monkeypatch):
    """The raw utterance of every Turn built while the test runs."""
    built: list[str] = []
    check = Turn.__post_init__

    def counted(turn):
        built.append(turn.utterance)
        check(turn)

    monkeypatch.setattr(Turn, "__post_init__", counted)
    return built


def test_stats_builds_no_turn(turn_corpus, capsys, built_turns):
    assert main(["stats", str(turn_corpus)]) == 0
    assert json.loads(capsys.readouterr().out)["mean_turns"] == 40
    assert built_turns == []


def test_corrupt_builds_turns_only_inside_its_windows(turn_corpus, tmp_path, built_turns):
    out = tmp_path / "out.jsonl"
    assert main(["corrupt", str(turn_corpus), str(out), "--examples-per-dialogue", "1"]) == 0
    targets = [json.loads(line)["target"] for line in out.read_text().splitlines()]
    in_windows = set(_TURN_WORD.findall(" ".join(targets)))
    built = set(_TURN_WORD.findall(" ".join(built_turns)))
    assert len(targets) == 6 and len(in_windows) < 6 * 40 / 4
    assert built and built <= in_windows


def test_stats_hand_counts(corpus_path, capsys):
    assert main(["stats", str(corpus_path)]) == 0
    rows, manifests = _stdout_rows(capsys)
    [stats] = rows
    assert stats["dialogue_count"] == 3
    assert stats["mean_turns"] == 2.0
    assert stats["mean_speakers"] == pytest.approx(5 / 3)
    # serialized turns include speaker prefixes: (5 + 5) + 4 + (3 + 4 + 3)
    assert stats["mean_length_words"] == pytest.approx(8.0)
    [manifest] = manifests
    assert manifest["command"] == "stats"
    assert manifest["records"] == 3
    assert manifest["version"]


def test_stats_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert main(["stats", str(path)]) == 0
    rows, _ = _stdout_rows(capsys)
    assert rows[0]["dialogue_count"] == 0
    assert rows[0]["mean_turns"] is None


def test_stats_strict_flags_bad_lines(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "turns": [{"utterance": "x."}]}\nnot json\n')
    assert main(["stats", str(path), "--strict"]) == 2
    capsys.readouterr()
    assert main(["stats", str(path)]) == 0
    rows, manifests = _stdout_rows(capsys)
    assert rows[0]["dialogue_count"] == 1
    assert manifests[0]["errors"] == 1


def test_missing_input_is_usage_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nope.jsonl")]) == 1
    captured = capsys.readouterr()
    assert "nope.jsonl" in captured.err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["corrupt"])  # missing required paths
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "dialogkit" in capsys.readouterr().out


def test_help_is_for_users_not_the_module_docstring(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ("stats", "corrupt", "eval-seg", "eval-rouge", "attn-check"):
        assert command in out
    assert "Exit codes: 0 success, 1 usage error, 2 data error" in out
    assert "3 invariant failure" in out
    assert "The seed defaults to 0; DIALOGKIT_SEED overrides it" in out
    assert "_read_lines" not in out and ":func:" not in out


def _corrupt_digest(path) -> str:
    lines = sorted(path.read_text(encoding="utf-8").splitlines())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_corrupt_deterministic_and_worker_invariant(tmp_path, capsys):
    rng = random.Random(0)
    dialogues = [synthetic_dialogue(f"d{i}", 6, rng) for i in range(40)]
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, dialogues)

    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    out_c = tmp_path / "c.jsonl"
    assert main(["corrupt", str(corpus), str(out_a), "--seed", "3"]) == 0
    assert main(["corrupt", str(corpus), str(out_b), "--seed", "3"]) == 0
    assert (
        main(["corrupt", str(corpus), str(out_c), "--seed", "3", "--workers", "2"]) == 0
    )
    assert out_a.read_text() == out_b.read_text()
    assert _corrupt_digest(out_a) == _corrupt_digest(out_c)
    # ordered pool iteration means even the unsorted bytes agree
    assert out_a.read_text() == out_c.read_text()

    different = tmp_path / "d.jsonl"
    assert main(["corrupt", str(corpus), str(different), "--seed", "4"]) == 0
    assert out_a.read_text() != different.read_text()
    capsys.readouterr()


def test_corrupt_writes_manifest_sidecar(tmp_path, corpus_path, capsys):
    out = tmp_path / "examples.jsonl"
    assert main(["corrupt", str(corpus_path), str(out), "--examples-per-dialogue", "2"]) == 0
    sidecar = tmp_path / "examples.jsonl.manifest.json"
    assert sidecar.exists()
    manifest = json.loads(sidecar.read_text())
    assert manifest["records"] == 6
    assert manifest["config"]["noise"]["global_seed"] == 0
    assert manifest["config"]["examples_per_dialogue"] == 2
    assert manifest["inputs"] == [str(corpus_path)]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["example_index"] for r in records[:2]] == [0, 1]
    capsys.readouterr()


def test_corrupt_seed_env_default(tmp_path, corpus_path, capsys, monkeypatch):
    out_env = tmp_path / "env.jsonl"
    monkeypatch.setenv("DIALOGKIT_SEED", "77")
    assert main(["corrupt", str(corpus_path), str(out_env)]) == 0
    monkeypatch.delenv("DIALOGKIT_SEED")
    out_flag = tmp_path / "flag.jsonl"
    assert main(["corrupt", str(corpus_path), str(out_flag), "--seed", "77"]) == 0
    assert out_env.read_text() == out_flag.read_text()
    manifest = json.loads((tmp_path / "env.jsonl.manifest.json").read_text())
    assert manifest["config"]["noise"]["global_seed"] == 77
    capsys.readouterr()


def test_corrupt_invalid_env_seed(tmp_path, corpus_path, monkeypatch, capsys):
    monkeypatch.setenv("DIALOGKIT_SEED", "zebra")
    assert main(["corrupt", str(corpus_path), str(tmp_path / "x.jsonl")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "corrupt: invalid DIALOGKIT_SEED value: 'zebra'"
    assert os.listdir(tmp_path) == ["corpus.jsonl"]


def test_eval_seg_invalid_env_seed(tmp_path, monkeypatch, capsys):
    labels = tmp_path / "labels.jsonl"
    _write_labels(labels, [{"id": "a", "labels": [0, 1, 0]}])
    monkeypatch.setenv("DIALOGKIT_SEED", "zebra")
    assert main(["eval-seg", str(labels), str(labels), "--baselines"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["eval-seg: invalid DIALOGKIT_SEED value: 'zebra'"]


def test_corrupt_strict_on_bad_corpus(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "turns": [{"utterance": "x."}]}\n{"broken\n')
    out = tmp_path / "out.jsonl"
    sidecar = tmp_path / "out.jsonl.manifest.json"
    assert main(["corrupt", str(path), str(out), "--strict"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("corrupt: line 2")
    assert not out.exists() and not sidecar.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    out.write_bytes(b"earlier output\n")
    assert main(["corrupt", str(path), str(out), "--strict"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "out.jsonl"]

    assert main(["corrupt", str(path), str(out)]) == 0
    _, manifests = _stdout_rows(capsys)
    assert manifests[0]["errors"] == 1
    assert manifests[0]["records"] == 1


@pytest.mark.parametrize("directory", ["out.jsonl", "out.jsonl.manifest.json"])
def test_corrupt_target_is_a_directory(tmp_path, corpus_path, capsys, directory):
    (tmp_path / directory).mkdir()
    before = sorted(tmp_path.iterdir())
    assert main(["corrupt", str(corpus_path), str(tmp_path / "out.jsonl")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"corrupt: {tmp_path / directory}: is a directory"
    assert sorted(tmp_path.iterdir()) == before
    assert list((tmp_path / directory).iterdir()) == []


@pytest.mark.parametrize("parent", ["nodir", "corpus.jsonl"])
def test_corrupt_output_directory_missing(tmp_path, corpus_path, capsys, monkeypatch, parent):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    output = f"{parent}/out.jsonl"
    assert main(["corrupt", str(corpus_path), output]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"corrupt: {output}: no such directory"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "input_name, output, target",
    [
        ("c.jsonl", "c.jsonl", "c.jsonl"),
        ("c.jsonl", "./c.jsonl", "./c.jsonl"),
        ("x.manifest.json", "x", "x.manifest.json"),
    ],
)
def test_corrupt_will_not_write_over_its_input(
    tmp_path, corpus_path, capsys, monkeypatch, input_name, output, target
):
    monkeypatch.chdir(tmp_path)
    data = corpus_path.read_bytes()
    (tmp_path / input_name).write_bytes(data)
    assert main(["corrupt", input_name, output]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"corrupt: {target}: is the input"
    assert (tmp_path / input_name).read_bytes() == data
    assert list(tmp_path.glob("*.tmp")) == []


def test_corrupt_noise_flags_default_to_noise_config():
    args = build_parser().parse_args(["corrupt", "IN", "OUT"])
    defaults = NoiseConfig()
    for f in fields(NoiseConfig):
        if f.name != "global_seed":
            value = getattr(args, f.name)
            assert value == getattr(defaults, f.name)
            assert type(value) is type(getattr(defaults, f.name))


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--examples-per-dialogue", "0"], "--examples-per-dialogue"),
        (["--workers", "0"], "--workers"),
        (["--infill-rate", "2"], "infill_rate"),
    ],
)
def test_corrupt_bad_argument_is_usage_error(tmp_path, corpus_path, capsys, flags, message):
    out = tmp_path / "out.jsonl"
    assert main(["corrupt", str(corpus_path), str(out), *flags]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("corrupt: ") and message in line
    assert not out.exists()


class _PoolAsked(Exception):
    pass


def test_corrupt_workers_past_the_bound_start_no_pool(tmp_path, corpus_path, capsys, monkeypatch):
    # The pool only records the count it is asked for, so no process starts.
    import multiprocessing

    asked = []

    def pool(processes, **_):
        asked.append(processes)
        raise _PoolAsked

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", pool)
    argv = ["corrupt", str(corpus_path), str(tmp_path / "out.jsonl"), "--workers"]
    for cpus, limit in ((2, 16), (None, 8)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(argv + [str(limit + 1)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"corrupt: --workers must be in [1, {limit}]"
        with pytest.raises(_PoolAsked):
            main(argv + [str(limit)])
    assert asked == [16, 8]
    assert os.listdir(tmp_path) == ["corpus.jsonl"]


@pytest.mark.parametrize(
    "command",
    [
        ["stats", "{input}"],
        ["corrupt", "{input}", "{output}"],
        ["eval-seg", "{input}", "{input}"],
        ["eval-rouge", "{input}"],
    ],
    ids=lambda command: command[0],
)
def test_non_utf8_input_is_data_error(tmp_path, capsys, command):
    # More blank lines than one read buffer holds, so the bad bytes are
    # decoded after earlier lines have already been handed out.
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b"\n" * 10000 + "caf\u00e9\n".encode("latin-1") + b"\n")
    argv = [part.format(input=path, output=tmp_path / "out.jsonl") for part in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"{command[0]}: line 10001: not valid utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["latin1.jsonl"]


def _bad_corpora() -> dict[str, tuple[str, bytes]]:
    """Corpora of 40 records (three worker chunks) with bad records in
    different chunks, by case: (format, file bytes)."""
    rng = random.Random(0)
    good = [synthetic_dialogue(f"d{i}", 4, rng) for i in range(40)]
    lines = [dialogue_to_json_line(d).encode() for d in good]
    reserved = json.dumps({"id": "r", "turns": [{"utterance": "has [MASK] inside."}]})
    bad_json = list(lines)
    bad_json[20], bad_json[35] = b'{"broken', reserved.encode()
    duplicate = list(lines)
    duplicate[30] = duplicate[3]
    # A bad record, then bad bytes far enough on to be decoded in a later
    # read buffer: --strict must still report the bad record first.
    not_utf8 = list(lines)
    not_utf8[5] = b'{"broken'
    not_utf8[25] = b"\n" * 10000 + "caf\u00e9".encode("latin-1")
    # The same, with the bad bytes on the very next line, in one read buffer.
    utf8_next = list(lines)
    utf8_next[7] = b'{"broken'
    utf8_next[8] = "caf\u00e9".encode("latin-1")
    blocks = [
        "\n".join(f"{t.speaker}: {t.utterance}" for t in d.turns).encode() for d in good
    ]
    # A reserved token early in a block whose later line is not UTF-8:
    # --strict must still report the token's line, which comes first.
    plain_utf8 = list(blocks)
    plain_utf8[10] = "Ann: has [MASK] here.\nBob: ok.\nBob: caf\u00e9.".encode("latin-1")
    blocks[18] = b"Ann: fine.\nBob: has [MASK] inside."
    return {
        "bad-json": ("jsonl", b"\n".join(bad_json) + b"\n"),
        "duplicate-id": ("jsonl", b"\n".join(duplicate) + b"\n"),
        "not-utf8": ("jsonl", b"\n".join(not_utf8) + b"\n"),
        "not-utf8-next": ("jsonl", b"\n".join(utf8_next) + b"\n"),
        "plain": ("plain", b"\n\n".join(blocks) + b"\n"),
        "plain-not-utf8": ("plain", b"\n\n".join(plain_utf8) + b"\n"),
    }


def _run_cli(argv):
    # A hang in a worker pool must fail the test, not stall the suite.
    return subprocess.run(
        [sys.executable, "-m", "dialogkit", *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )


def _run_child(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )


def _corrupt_in_subprocess(tmp_path, case, workers, strict):
    fmt, data = _bad_corpora()[case]
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(data)
    out = tmp_path / "out" / f"out{workers}.jsonl"
    out.parent.mkdir(exist_ok=True)
    argv = ["corrupt", str(corpus), str(out), "--format", fmt, "--seed", "3",
            "--workers", workers, "--examples-per-dialogue", "2"]
    return _run_cli(argv + ["--strict"] * strict), out


# The one stderr line of each failing (case, strict) run, up to the detail
# that the JSON decoder or the codec words.
_FIRST_ERRORS = {
    ("bad-json", True): "corrupt: line 21: invalid json: ",
    ("duplicate-id", True): "corrupt: line 31 (dialogue 'd3'): duplicate dialogue id 'd3'",
    ("not-utf8", False): "corrupt: line 10026: not valid utf-8 ",
    ("not-utf8", True): "corrupt: line 6: invalid json: ",
    ("not-utf8-next", False): "corrupt: line 9: not valid utf-8 ",
    ("not-utf8-next", True): "corrupt: line 8: invalid json: ",
    ("plain", True): "corrupt: line 92 (dialogue '18'): reserved token [MASK] appears in corpus text",
    ("plain-not-utf8", False): "corrupt: line 53: not valid utf-8 ",
    ("plain-not-utf8", True):
        "corrupt: line 51 (dialogue '10'): reserved token [MASK] appears in corpus text",
}


@pytest.mark.parametrize("strict", [False, True], ids=["skip", "strict"])
@pytest.mark.parametrize(
    "case", ["bad-json", "duplicate-id", "not-utf8", "not-utf8-next", "plain", "plain-not-utf8"]
)
def test_corrupt_workers_match_one_worker_on_bad_input(tmp_path, case, strict):
    runs = {w: _corrupt_in_subprocess(tmp_path, case, w, strict) for w in ("1", "2")}
    (serial, serial_out), (parallel, parallel_out) = runs["1"], runs["2"]
    assert parallel.returncode == serial.returncode
    if serial.returncode != 0:
        assert serial.returncode == 2
        [line] = serial.stderr.splitlines()
        assert line.startswith(_FIRST_ERRORS[case, strict])
        assert parallel.stderr.splitlines() == [line]
        assert sorted(os.listdir(serial_out.parent)) == []
        return
    assert parallel_out.read_bytes() == serial_out.read_bytes()
    manifests = [json.loads(run.stderr.splitlines()[-1]) for run in (serial, parallel)]
    for manifest in manifests:
        del manifest["duration_s"], manifest["config"]["workers"], manifest["outputs"]
    assert manifests[0] == manifests[1]
    assert manifests[0]["errors"] == {"bad-json": 2, "duplicate-id": 1, "plain": 1}[case]


@pytest.mark.parametrize("poisson_lambda", ["nan", "inf", "800"])
def test_corrupt_rejects_a_poisson_lambda_the_sampler_cannot_use(
    tmp_path, corpus_path, poisson_lambda
):
    # exp(-800) underflows to 0.0, which the sampler's running product of
    # uniforms never drops below; a subprocess so that a hang fails the test.
    out = tmp_path / "out.jsonl"
    result = _run_cli(["corrupt", str(corpus_path), str(out), "--poisson-lambda", poisson_lambda])
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert line.startswith("corrupt: poisson_lambda must be non-negative")
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl"]


_GOOD_RECORDS = {
    "stats": {"id": "a", "turns": [{"speaker": "Tom", "utterance": "x y."}]},
    "corrupt": {"id": "a", "turns": [{"speaker": "Tom", "utterance": "x y."}]},
    "eval-rouge": {"id": "a", "candidate": "x y", "reference": "x"},
    "eval-seg": {"id": "a", "labels": [0, 1, 0]},
}


@pytest.mark.parametrize(
    "command",
    [["stats", "{input}", "--strict"], ["eval-rouge", "{input}", "--strict"],
     ["eval-seg", "{input}", "{input}"]],
    ids=lambda command: command[0],
)
def test_strict_reports_bad_record_before_bad_bytes_on_next_line(tmp_path, capsys, command):
    path = tmp_path / "mixed.jsonl"
    good = json.dumps(_GOOD_RECORDS[command[0]]).encode()
    path.write_bytes(good + b'\n{"broken\n{"id": "c\xff"}\n')
    assert main([part.format(input=path) for part in command]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{command[0]}: line 2: invalid json: ")


_DEEP_RUNS = {
    "stats": ["stats", "{input}"],
    "corrupt-1": ["corrupt", "{input}", "{output}", "--workers", "1"],
    "corrupt-2": ["corrupt", "{input}", "{output}", "--workers", "2"],
    "eval-rouge": ["eval-rouge", "{input}"],
    "eval-seg": ["eval-seg", "{input}", "{input}"],
}


_RUNS_AND_MODES = pytest.mark.parametrize(
    "run, strict",
    [pytest.param(run, strict, id=f"{run}-{'strict' if strict else 'skip'}")
     for run in _DEEP_RUNS for strict in (False, True) if strict or run != "eval-seg"],
)


@_RUNS_AND_MODES
def test_deeply_nested_line_is_a_record_error(tmp_path, run, strict):
    _check_bad_second_line(tmp_path, run, strict, "[" * 100000, "invalid json: ")


@_RUNS_AND_MODES
def test_lone_surrogate_escape_is_a_record_error(tmp_path, run, strict):
    # A child process, so that stdout is a real pipe that refuses to encode
    # a surrogate; an in-process capture would take it.
    bad = json.dumps({**_GOOD_RECORDS[_DEEP_RUNS[run][0]], "id": "\ud800"})
    _check_bad_second_line(tmp_path, run, strict, bad, "a \\u escape decodes to a lone surrogate")


def _check_bad_second_line(tmp_path, run, strict, bad_line, reason):
    command = _DEEP_RUNS[run]
    path = tmp_path / "deep.jsonl"
    path.write_text(json.dumps(_GOOD_RECORDS[command[0]]) + "\n" + bad_line + "\n")
    argv = [part.format(input=path, output=tmp_path / "out.jsonl") for part in command]
    # eval-seg has no skip mode: every bad line fails it.
    result = _run_cli(argv + ["--strict"] * (strict and run != "eval-seg"))
    if strict:
        assert result.returncode == 2, result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith(f"{command[0]}: line 2: {reason}")
        assert result.stdout == ""
        assert os.listdir(tmp_path) == ["deep.jsonl"]
        return
    assert result.returncode == 0, result.stderr
    manifest = json.loads(result.stderr.splitlines()[-1])
    assert manifest["records"] == 1 and manifest["errors"] == 1


# Record fields that pass validation or fail it: reserved tokens, wrong
# types, NaN and lone surrogates, which json.dumps writes as \ud800 escapes
# and which a plain line writes as bytes that are not UTF-8.
_FUZZ_TEXT = st.lists(
    st.sampled_from(["a", "Bo", ". ", " ", ":", "[MASK]", "é", "\ud800", "\udc80"]), max_size=5
).map("".join)
_FUZZ_FIELD = _FUZZ_TEXT | st.sampled_from([None, 0, 1, True, float("nan"), [], {}])
_FUZZ_RECORD = st.fixed_dictionaries({
    "id": _FUZZ_FIELD,
    "turns": st.lists(
        st.fixed_dictionaries({"speaker": _FUZZ_FIELD, "utterance": _FUZZ_FIELD}), max_size=3
    ) | _FUZZ_FIELD,
    "candidate": _FUZZ_FIELD,
    "reference": _FUZZ_FIELD,
    "labels": st.lists(st.sampled_from([0, 1, 1.0]), max_size=4) | _FUZZ_FIELD,
})
_FUZZ_LINE = _FUZZ_RECORD.map(json.dumps) | _FUZZ_TEXT | st.sampled_from(["{", "[1]", "[" * 3000])


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(st.lists(_FUZZ_LINE, max_size=4), st.sampled_from(["jsonl", "plain"]), st.booleans())
def test_every_input_ends_in_an_exit_code_and_one_line(lines, fmt, strict):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "in.txt"), os.path.join(tmp, "out.jsonl")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write("".join(line + "\n" for line in lines))
        for argv in (
            ["stats", path, "--format", fmt] + ["--strict"] * strict,
            ["corrupt", path, out, "--format", fmt, "--seed", "0"] + ["--strict"] * strict,
            ["eval-rouge", path] + ["--strict"] * strict,
            ["eval-seg", path, path, "--seed", "0"],
        ):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            # A real pipe refuses what does not encode; the capture takes it.
            stdout.getvalue().encode("utf-8")
            stderr.getvalue().encode("utf-8")
            err = stderr.getvalue().splitlines()
            assert code in (0, 1, 2)
            if code:
                assert len(err) == 1 and "Traceback" not in err[0]
                assert argv[0] != "corrupt" or os.listdir(tmp) == ["in.txt"]
            else:
                assert json.loads(err[-1])["command"] == argv[0]


@pytest.mark.parametrize("fmt", ["jsonl", "plain"])
def test_crlf_and_cr_line_endings_read_like_lf(tmp_path, capsys, fmt):
    rng = random.Random(5)
    dialogues = [synthetic_dialogue(f"d{i}", 5, rng) for i in range(20)]
    if fmt == "jsonl":
        text = "".join(dialogue_to_json_line(d) + "\n" for d in dialogues)
    else:
        text = "\n".join(
            "".join(f"{t.speaker}: {t.utterance}\n" for t in d.turns) for d in dialogues
        )
    outcomes = {}
    for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        corpus = tmp_path / f"{name}.txt"
        corpus.write_bytes(text.replace("\n", newline).encode())
        assert main(["stats", str(corpus), "--format", fmt]) == 0
        stats_rows, _ = _stdout_rows(capsys)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"{name}{workers}.out"
            argv = ["corrupt", str(corpus), str(out), "--format", fmt, "--workers", workers]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        outcomes[name] = (stats_rows, outputs)
    assert outcomes["lf"][0][0]["dialogue_count"] == 20
    assert outcomes["crlf"] == outcomes["lf"] == outcomes["cr"]


_POOL_ERRORS_CHILD = """
import functools, json, sys
from dialogkit import cli
args = cli.build_parser().parse_args(["corrupt", *sys.argv[1:3], "--workers", "2"])
parse = functools.partial(
    cli._corrupt_record, cli.PARSERS["jsonl"], cli.NoiseConfig(), args.examples_per_dialogue
)
errors = []
with cli._mapper(args.workers) as imap:
    lines = cli._read_lines(args.input)
    list(cli.ingest(lines, "jsonl", errors_out=errors, parse=parse, imap=imap))
print(json.dumps([str(e) for e in errors]))
"""


def test_corrupt_workers_report_errors_in_input_order(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(_bad_corpora()["bad-json"][1])
    result = subprocess.run(
        [sys.executable, "-c", _POOL_ERRORS_CHILD, str(corpus), str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    errors = []
    with open(corpus, encoding="utf-8") as lines:
        for _ in ingest(lines, "jsonl", errors_out=errors):
            pass
    assert [str(e) for e in errors] == json.loads(result.stdout)
    assert [e.line_no for e in errors] == [21, 36]


def _big_corpus(tmp_path):
    """200 records of more than 20 KB, with a broken record on line 2. One
    task of 16 such records is larger than a 64 KB pipe buffer, so the feed
    waits on the workers and a stopped feed has read little of the file."""
    record = json.loads(dialogue_to_json_line(synthetic_dialogue("d", 300, random.Random(0))))
    big = [json.dumps({**record, "id": f"d{i}"}) for i in range(200)]
    assert min(map(len, big)) >= 20_000
    rows = [big[0], '{"broken', *big[1:]]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return corpus, len(rows)


_POOL_TEARDOWN_CHILD = """
import json, sys
from multiprocessing import pool
from dialogkit import cli
calls = {"terminate": 0, "lines": 0}
terminate, read_lines = pool.Pool.terminate, cli._read_lines

def counted_terminate(self):
    calls["terminate"] += 1
    terminate(self)

def counted_lines(path):
    for line in read_lines(path):
        calls["lines"] += 1
        yield line

def full_disk_open(*args, **kwargs):
    handle = open(*args, **kwargs)

    def write(_):
        raise OSError(28, "No space left on device")

    handle.write = write
    return handle

pool.Pool.terminate, cli._read_lines = counted_terminate, counted_lines
if sys.argv[3] == "full-disk":
    cli.open = full_disk_open
code = cli.main(["corrupt", *sys.argv[1:3], "--workers", "2", *sys.argv[4:]])
print(json.dumps(calls))
sys.exit(code)
"""


def test_corrupt_workers_join_the_pool_after_a_strict_error(tmp_path):
    # A pool terminated while its task thread sends a task larger than the
    # pipe buffer could wait forever; one joined with its feed running would
    # read the whole input first. The second case fails in the write loop.
    corpus, line_count = _big_corpus(tmp_path)
    out = tmp_path / "out" / "out.jsonl"
    out.parent.mkdir()
    for case, flags, code, first in (
        ("strict-error", ["--strict"], 2, "corrupt: line 2: invalid json: "),
        ("full-disk", [], 1, "corrupt: [Errno 28] No space left on device"),
    ):
        result = _run_child(_POOL_TEARDOWN_CHILD, corpus, out, case, *flags)
        assert result.returncode == code, result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith(first)
        assert os.listdir(out.parent) == []
        calls = json.loads(result.stdout)
        assert calls["terminate"] == 0
        assert calls["lines"] < line_count


def _interrupt(*_):
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "command",
    [["stats", "{input}"],
     ["corrupt", "{input}", "{output}", "--workers", "1"],
     ["corrupt", "{input}", "{output}", "--workers", "2"]],
    ids=["stats", "corrupt-1", "corrupt-2"],
)
def test_ctrl_c_ends_a_run_with_one_line_and_code_130(
    tmp_path, corpus_path, capsys, monkeypatch, command
):
    # The interrupt comes from this process's main thread: accumulating a
    # dialogue, or writing the first example to the temp output.
    import multiprocessing

    import dialogkit.cli
    from dialogkit.corpus import StatsAccumulator

    def interrupting_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        handle.write = _interrupt
        return handle

    monkeypatch.setattr(StatsAccumulator, "add", _interrupt)
    monkeypatch.setattr(dialogkit.cli, "open", interrupting_open, raising=False)
    argv = [part.format(input=corpus_path, output=tmp_path / "out.jsonl") for part in command]
    assert main(argv) == 130
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{command[0]}: interrupted"]
    assert os.listdir(tmp_path) == ["corpus.jsonl"]
    assert multiprocessing.active_children() == []


# A real SIGINT runs in a child, with a timeout: a hang is how this fails.
_SIGINT_CHILD = """
import json, os, signal, sys
from dialogkit import cli
read_lines, calls = cli._read_lines, {"lines": 0}

def interrupting_lines(path):
    for calls["lines"], line in enumerate(read_lines(path), start=1):
        yield line
        if calls["lines"] == 5:
            os.kill(os.getpid(), signal.SIGINT)

if sys.argv[3] == "ignored":
    signal.signal(signal.SIGINT, signal.SIG_IGN)
cli._read_lines = interrupting_lines
code = cli.main(["corrupt", *sys.argv[1:3], "--workers", "2"])
print(json.dumps(calls))
sys.exit(code)
"""


def test_sigint_under_workers_stops_the_feed_and_exits_130(tmp_path):
    corpus, line_count = _big_corpus(tmp_path)
    out = tmp_path / "out" / "out.jsonl"
    out.parent.mkdir()
    result = _run_child(_SIGINT_CHILD, corpus, out, "handled")
    assert result.returncode == 130
    assert result.stderr.splitlines() == ["corrupt: interrupted"]
    assert os.listdir(out.parent) == []
    assert 5 <= json.loads(result.stdout)["lines"] < line_count


def test_an_ignored_sigint_stays_ignored_under_workers(tmp_path, capsys):
    # As for a job started with & by a shell that has no job control.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(_bad_corpora()["bad-json"][1])
    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    assert main(["corrupt", str(corpus), str(serial)]) == 0
    result = _run_child(_SIGINT_CHILD, corpus, parallel, "ignored")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stderr.splitlines()[-1])["records"] == 40 - 2
    assert parallel.read_bytes() == serial.read_bytes()


def test_corrupt_workers_run_off_the_main_thread(tmp_path, corpus_path, capsys):
    # Only the main thread may set a signal handler.
    import threading

    outs, codes = [tmp_path / "out1.jsonl", tmp_path / "out2.jsonl"], []
    argv = ["corrupt", str(corpus_path), str(outs[1]), "--workers", "2"]
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join(60)
    assert codes == [0]
    assert main(["corrupt", str(corpus_path), str(outs[0])]) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes()


_MAPPER_SIGINT_CHILD = """
import multiprocessing, os, signal
from dialogkit import cli
fed = []

def feed():
    for item in range(10**6):
        fed.append(item)
        yield item

# Leaving the block stops a feed that nothing closed.
with cli._mapper(2) as imap:
    results = imap(abs, feed())
    assert next(results) == 0
assert len(fed) < 10**6
old, reached = signal.getsignal(signal.SIGINT), False
try:
    with cli._mapper(2) as imap:
        pids = sorted(child.pid for child in multiprocessing.active_children())
        assert len(pids) == 2
        for pid in pids:
            os.kill(pid, signal.SIGINT)
        assert list(imap(abs, range(-100, 0))) == list(range(100, 0, -1))
        assert sorted(child.pid for child in multiprocessing.active_children()) == pids
        os.kill(os.getpid(), signal.SIGINT)
        assert list(imap(abs, range(-100, 0))) == []
        reached = True
except KeyboardInterrupt:
    assert reached, "the SIGINT was raised inside the block"
else:
    raise AssertionError("leaving the block raised no KeyboardInterrupt")
assert multiprocessing.active_children() == []
assert signal.getsignal(signal.SIGINT) is old
"""


def test_a_sigint_under_the_pool_stops_its_feed_and_is_raised_on_exit(monkeypatch):
    # A worker killed by a Ctrl-C would be replaced by one that can outlive
    # the run; a KeyboardInterrupt raised inside Pool.imap can deadlock it.
    import multiprocessing
    import signal

    from dialogkit import cli

    result = _run_child(_MAPPER_SIGINT_CHILD)
    assert result.returncode == 0, result.stderr
    old = signal.getsignal(signal.SIGINT)

    def failing_pool(*_):
        assert signal.getsignal(signal.SIGINT) is not old
        raise OSError("no processes")

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", failing_pool)
    with pytest.raises(OSError), cli._mapper(2):
        pass
    assert signal.getsignal(signal.SIGINT) is old


def _write_labels(path, rows):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
    )


def test_eval_seg_fixture_scores(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    hyp = tmp_path / "hyp.jsonl"
    labels_ref = [0, 0, 0, 0, 1, 0, 0, 0, 0, 1]
    labels_hyp = [0, 0, 0, 1, 0, 0, 0, 0, 0, 1]
    _write_labels(ref, [{"id": "a", "labels": labels_ref}])
    _write_labels(hyp, [{"id": "a", "labels": labels_hyp}])
    assert main(["eval-seg", str(ref), str(hyp), "--k", "2"]) == 0
    rows, _ = _stdout_rows(capsys)
    assert rows[0] == {"id": "a", "pk": 0.25, "windiff": 0.25}
    assert rows[1] == {"mean": True, "pk": 0.25, "windiff": 0.25}


def test_eval_seg_perfect_hypothesis(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    rows_in = [{"id": "a", "labels": [0, 1, 0, 0, 1, 0]}]
    _write_labels(ref, rows_in)
    assert main(["eval-seg", str(ref), str(ref)]) == 0
    rows, _ = _stdout_rows(capsys)
    assert rows[0]["pk"] == 0.0
    assert rows[0]["windiff"] == 0.0


def test_eval_seg_baselines_add_four_rows(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    _write_labels(ref, [{"id": "a", "labels": [0, 0, 1, 0, 0, 0, 1, 0, 0, 1]}])
    assert main(["eval-seg", str(ref), str(ref), "--k", "2"]) == 0
    plain_rows, _ = _stdout_rows(capsys)
    assert main(["eval-seg", str(ref), str(ref), "--k", "2", "--baselines"]) == 0
    baseline_rows, _ = _stdout_rows(capsys)
    assert len(baseline_rows) == len(plain_rows) + 4
    kinds = [(r.get("baseline"), "mean" in r) for r in baseline_rows[2:]]
    assert kinds == [
        ("random", False),
        ("random", True),
        ("even", False),
        ("even", True),
    ]


@pytest.mark.parametrize("k", [1, 5])
def test_eval_seg_rows_match_brute_force_on_long_dialogues(tmp_path, capsys, monkeypatch, k):
    # The bench's label files: 50 to 800 turns, about 5% boundaries. Every
    # row, baselines included, must equal the per-window definitions.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "dkbench"))
    import gen

    from dialogkit.metrics import baseline_even, baseline_random, labels_to_segmentation
    from tests.test_metrics import brute_force_pk, brute_force_windiff

    references, hypotheses = gen.make_labels(2109, 40)
    ref, hyp = tmp_path / "ref.jsonl", tmp_path / "hyp.jsonl"
    ref.write_text("".join(line + "\n" for line in references), encoding="utf-8")
    hyp.write_text("".join(line + "\n" for line in hypotheses), encoding="utf-8")
    args = ["eval-seg", str(ref), str(hyp), "--baselines", "--k", str(k), "--seed", "7"]
    assert main(args) == 0
    rows, _ = _stdout_rows(capsys)

    def segmentations(lines):
        records = map(json.loads, lines)
        return {r["id"]: labels_to_segmentation(r["labels"]) for r in records}

    reference = segmentations(references)
    rng = random.Random(7)
    candidates = {
        None: segmentations(hypotheses),
        "random": {
            i: baseline_random(r.turn_count, len(r.boundaries) / (r.turn_count - 1), rng)
            for i, r in reference.items()
        },
        "even": {
            i: baseline_even(r.turn_count, len(r.boundaries) + 1) for i, r in reference.items()
        },
    }
    assert len(rows) == 3 * (len(reference) + 1)
    for kind, scored in candidates.items():
        pk_values, wd_values = [], []
        for identifier, seg in reference.items():
            row = rows.pop(0)
            assert (row["id"], row.get("baseline")) == (identifier, kind)
            pk_values.append(brute_force_pk(seg, scored[identifier], k))
            wd_values.append(brute_force_windiff(seg, scored[identifier], k))
            assert (row["pk"], row["windiff"]) == (pk_values[-1], wd_values[-1])
        mean = rows.pop(0)
        assert mean["mean"] and mean.get("baseline") == kind
        assert mean["pk"] == sum(pk_values) / len(pk_values)
        assert mean["windiff"] == sum(wd_values) / len(wd_values)


def test_eval_seg_id_mismatch(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    hyp = tmp_path / "hyp.jsonl"
    _write_labels(ref, [{"id": "a", "labels": [0, 1, 0]}])
    _write_labels(hyp, [{"id": "b", "labels": [0, 1, 0]}])
    assert main(["eval-seg", str(ref), str(hyp)]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_eval_seg_malformed_record(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    ref.write_text('{"id": "a"}\n')
    assert main(["eval-seg", str(ref), str(ref)]) == 2
    capsys.readouterr()


def test_eval_seg_duplicate_id_is_worded_like_a_corpus_duplicate(tmp_path, capsys):
    ref, hyp = tmp_path / "ref.jsonl", tmp_path / "hyp.jsonl"
    _write_labels(ref, [{"id": "a", "labels": [0, 1, 0]}, {"id": "b", "labels": [0, 1, 0]}])
    _write_labels(hyp, [{"id": "b", "labels": [0, 1, 0]}, {"id": "a", "labels": [1, 0, 0]},
                        {"id": "b", "labels": [0, 0, 0]}])
    assert main(["eval-seg", str(ref), str(hyp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["eval-seg: line 3 (dialogue 'b'): duplicate dialogue id 'b'"]


@pytest.mark.parametrize(
    "record, hypothesis_labels, flags, message",
    [
        pytest.param({"id": "a", "labels": [0, 1, 0, 1]}, [0, 1, 1], [], "'a'", id="turn-counts"),
        pytest.param({"id": "a", "labels": [1]}, None, [], "'a'", id="single-turn"),
        pytest.param({"id": "a", "labels": [0, 1, 0, 1]}, None, ["--k", "4"], "'a'", id="k-too-large"),
        pytest.param({"id": 7, "labels": [0, 1]}, None, [], "line 1", id="int-id"),
        pytest.param({"id": ["a"], "labels": [0, 1]}, None, [], "line 1", id="list-id"),
        pytest.param({"id": "a", "labels": ["0", "0", "1", "0"]}, None, [], "line 1", id="str-labels"),
        pytest.param({"id": "a", "labels": [0, 1.0, 0, 1]}, None, [], "line 1", id="float-labels"),
        pytest.param({"id": "a", "labels": [False, True, False]}, None, [], "line 1", id="bool-labels"),
    ],
)
def test_eval_seg_unscorable_record_is_data_error(
    tmp_path, capsys, record, hypothesis_labels, flags, message
):
    ref = tmp_path / "ref.jsonl"
    hyp = tmp_path / "hyp.jsonl"
    _write_labels(ref, [record])
    _write_labels(hyp, [{**record, "labels": hypothesis_labels or record["labels"]}])
    assert main(["eval-seg", str(ref), str(hyp), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("eval-seg: ") and message in line


@pytest.mark.parametrize("k", ["0", "-2"])
def test_eval_seg_k_below_one_is_usage_error_before_reading(tmp_path, capsys, k):
    ref = tmp_path / "ref.jsonl"
    _write_labels(ref, [{"id": "a", "labels": [0, 1, 0, 1]}])
    for hyp in (ref, tmp_path / "missing.jsonl"):
        assert main(["eval-seg", str(ref), str(hyp), "--k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["eval-seg: --k must be at least 1"]


def test_eval_rouge_identical_pair(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"id": "p", "candidate": "Same text here.", "reference": "Same text here."})
        + "\n"
    )
    assert main(["eval-rouge", str(pairs)]) == 0
    rows, manifests = _stdout_rows(capsys)
    for metric in ("rouge_1", "rouge_2", "rouge_l"):
        assert rows[0][metric]["f1"] == 1.0
    assert rows[1]["mean"] is True
    assert manifests[0]["config"]["rouge_l_split"] is False


def test_eval_rouge_hand_values_and_empty_candidate(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    rows_in = [
        {"id": "p1", "candidate": "the cat sat", "reference": "the cat"},
        {"id": "p2", "candidate": "", "reference": "something here"},
    ]
    pairs.write_text("".join(json.dumps(r) + "\n" for r in rows_in))
    assert main(["eval-rouge", str(pairs)]) == 0
    rows, _ = _stdout_rows(capsys)
    assert rows[0]["rouge_1"]["f1"] == pytest.approx(0.8)
    assert rows[1]["rouge_1"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    assert rows[1]["rouge_l"]["f1"] == 0.0


def test_eval_rouge_split_flag_changes_rouge_l(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    record = {
        "id": "p",
        "candidate": "it was happy. the cat sat.",
        "reference": "the cat sat on the mat. it was very happy.",
    }
    pairs.write_text(json.dumps(record) + "\n")
    assert main(["eval-rouge", str(pairs)]) == 0
    no_split_rows, _ = _stdout_rows(capsys)
    assert main(["eval-rouge", str(pairs), "--rouge-l-split"]) == 0
    split_rows, _ = _stdout_rows(capsys)
    assert no_split_rows[0]["rouge_l"]["f1"] == pytest.approx(0.375)
    assert split_rows[0]["rouge_l"]["f1"] == pytest.approx(0.75)


def test_eval_rouge_malformed_pair_policy(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"id": "p", "candidate": "a", "reference": "a"})
        + "\n{broken\n"
    )
    assert main(["eval-rouge", str(pairs)]) == 0
    rows, manifests = _stdout_rows(capsys)
    assert len(rows) == 2  # one pair plus the mean footer
    assert manifests[0]["errors"] == 1
    assert main(["eval-rouge", str(pairs), "--strict"]) == 2
    capsys.readouterr()


_NOT_STRINGS = "eval-rouge: line 2: id, candidate and reference must be strings"


@pytest.mark.parametrize(
    "bad_pair, message",
    [
        pytest.param(
            {"id": "p", "candidate": "b", "reference": "b"},
            "eval-rouge: line 2 (dialogue 'p'): duplicate dialogue id 'p'",
            id="duplicate-id",
        ),
        pytest.param({"id": ["x"], "candidate": "b", "reference": "b"}, _NOT_STRINGS, id="list-id"),
        pytest.param({"id": 7, "candidate": "b", "reference": "b"}, _NOT_STRINGS, id="int-id"),
    ],
)
def test_eval_rouge_bad_id_is_malformed_pair(tmp_path, capsys, bad_pair, message):
    pairs = tmp_path / "pairs.jsonl"
    good = {"id": "p", "candidate": "a", "reference": "a"}
    pairs.write_text(json.dumps(good) + "\n" + json.dumps(bad_pair) + "\n")
    assert main(["eval-rouge", str(pairs)]) == 0
    rows, manifests = _stdout_rows(capsys)
    assert [row.get("id") for row in rows] == ["p", None]
    assert manifests[0]["records"] == 1 and manifests[0]["errors"] == 1
    assert main(["eval-rouge", str(pairs), "--strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


_PEAK_MEMORY_CHILD = """
import sys
from dialogkit.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(code, peak_kb)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("command", ["stats", "eval-rouge"])
def test_skip_mode_memory_does_not_grow_with_bad_lines(tmp_path, command):
    # The child's own peak, VmHWM: ru_maxrss would count the pages of this
    # process at the fork.
    path = tmp_path / "bad.jsonl"
    path.write_text("x\n" * 200_000)
    result = _run_child(_PEAK_MEMORY_CHILD, command, path)
    code, peak_kb = map(int, result.stdout.splitlines()[-1].split())
    assert code == 0, result.stderr
    manifest = json.loads(result.stderr.splitlines()[-1])
    assert (manifest["records"], manifest["errors"]) == (0, 200_000)
    assert peak_kb < 32 * 1024


def _scoring_files(specs):
    """A pairs file and a labels file, line for line, from ``(kind, id)``
    specs; then the ids skip mode keeps, in order, and the 1-based numbers
    of the lines it drops."""
    pairs, labels, seen, dropped = [], [], [], []
    for line_no, (kind, identifier) in enumerate(specs, 1):
        pair = {"id": identifier, "candidate": "the cat sat.", "reference": f"a cat {identifier}."}
        label = {"id": identifier, "labels": [0, 1, 0, 0]}
        if kind == "blank":
            pairs.append("  ")
            labels.append("")
            continue
        if kind == "bad-id":
            pair["id"] = label["id"] = 7
        elif kind == "bad-field":
            pair["candidate"], label["labels"] = None, [0, 2]
        pairs.append('{"id": "a"' if kind == "bad-json" else json.dumps(pair))
        labels.append('{"id": "a"' if kind == "bad-json" else json.dumps(label))
        if kind != "good" or identifier in seen:
            dropped.append(line_no)
        else:
            seen.append(identifier)
    return pairs, labels, seen, dropped


def _main_captured(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue().splitlines()


_SCORING_SPECS = st.lists(
    st.tuples(
        st.sampled_from(["good", "good", "bad-json", "bad-id", "bad-field", "blank"]),
        st.sampled_from(["a", "b", "c"]),
    ),
    max_size=8,
)


@settings(max_examples=100, deadline=None, phases=NO_EXPLAIN)
@given(_SCORING_SPECS)
def test_evaluation_readers_share_one_policy(specs):
    pairs, labels, first_ids, dropped = _scoring_files(specs)
    with tempfile.TemporaryDirectory() as tmp:
        pairs_path, labels_path = os.path.join(tmp, "pairs.jsonl"), os.path.join(tmp, "labels.jsonl")
        for path, lines in ((pairs_path, pairs), (labels_path, labels)):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in lines))
        code, out, err = _main_captured(["eval-rouge", pairs_path])
        assert code == 0
        manifest = json.loads(err[-1])
        assert manifest["records"] + manifest["errors"] == sum(kind != "blank" for kind, _ in specs)
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["id"] for row in rows[:-1]] == first_ids
        runs = {
            "eval-rouge": _main_captured(["eval-rouge", pairs_path, "--strict"]),
            "eval-seg": _main_captured(["eval-seg", labels_path, labels_path]),
        }
    for command, (code, out, err) in runs.items():
        if not dropped:
            assert code == 0 and json.loads(err[-1])["records"] == len(first_ids)
            continue
        assert (code, out, len(err)) == (2, "", 1)
        assert re.match(rf"{command}: line {dropped[0]}[ :]", err[0]), err[0]


def test_attn_check_failure_exits_3_with_manifest_last(monkeypatch, capsys):
    failing = {"check": "broken", "value": 1.0, "tolerance": 0.0, "pass": False}
    monkeypatch.setattr("dialogkit.attention._attention_checks", lambda spec, seed: [failing])
    assert main(["attn-check"]) == 3
    captured = capsys.readouterr()
    assert [json.loads(line) for line in captured.out.splitlines()] == [failing]
    failed_line, manifest_line = captured.err.splitlines()
    assert failed_line == "attn-check: failed: broken"
    manifest = json.loads(manifest_line)
    assert manifest["records"] == 1 and manifest["errors"] == 1


_NUMPY_FREE_CHILD = """
import sys
import dialogkit, dialogkit.cli

corpus, pairs, labels, out = sys.argv[1:]
for argv in (
    ["stats", corpus],
    ["corrupt", corpus, out, "--workers", "1"],
    ["eval-rouge", pairs, "--rouge-l-split"],
    ["eval-seg", labels, labels, "--baselines"],
):
    assert dialogkit.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
assert "multiprocessing" not in sys.modules, "multiprocessing was imported"

from dialogkit import AttentionSpec, full_attention
for name in dialogkit.__all__:
    getattr(dialogkit, name)
assert full_attention is dialogkit.attention.full_attention
"""


def test_only_the_attention_reference_imports_numpy(tmp_path, corpus_path):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"id": "p", "candidate": "a b. c", "reference": "a c"}) + "\n")
    labels = tmp_path / "labels.jsonl"
    labels.write_text(json.dumps({"id": "s", "labels": [0, 1, 0, 0, 1]}) + "\n")
    child = [str(corpus_path), str(pairs), str(labels), str(tmp_path / "out.jsonl")]
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_CHILD, *child],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr


def test_attn_check_defaults_pass(capsys):
    assert main(["attn-check", "--seed", "1"]) == 0
    rows, manifests = _stdout_rows(capsys)
    assert all(row["pass"] for row in rows if row["tolerance"] is not None)
    names = {row["check"] for row in rows}
    assert "sinkhorn_row_sum_dev" in names
    assert "grad_sinkhorn_block_attention" in names
    assert manifests[0]["command"] == "attn-check"


def test_attn_check_col_dev_grows_at_low_iterations(capsys):
    assert main(["attn-check", "--seed", "2", "--sinkhorn-iterations", "1"]) == 0
    low_rows, _ = _stdout_rows(capsys)
    assert main(["attn-check", "--seed", "2", "--sinkhorn-iterations", "20"]) == 0
    high_rows, _ = _stdout_rows(capsys)

    def col_dev(rows):
        return next(r["value"] for r in rows if r["check"] == "sinkhorn_col_sum_dev")

    assert col_dev(low_rows) > col_dev(high_rows)


def test_attn_check_block_size_at_least_seq_len(capsys):
    assert main(["attn-check", "--seq-len", "8", "--block-size", "16", "--seed", "0"]) == 0
    rows, _ = _stdout_rows(capsys)
    single = next(r for r in rows if r["check"] == "single_block_vs_full")
    assert single["pass"]


@pytest.mark.parametrize(
    "flags, env_seed, message",
    [
        (["--temperature", "nan"], None, "attn-check: temperature must be finite and positive"),
        (["--temperature", "inf"], None, "attn-check: temperature must be finite and positive"),
        (["--seed", "-1"], None, "attn-check: seed must be non-negative, not -1"),
        ([], "-1", "attn-check: seed must be non-negative, not -1"),
    ],
    ids=["nan-temperature", "inf-temperature", "negative-seed", "negative-env-seed"],
)
def test_attn_check_bad_number_is_usage_error(capsys, monkeypatch, flags, env_seed, message):
    if env_seed is not None:
        monkeypatch.setenv("DIALOGKIT_SEED", env_seed)
    assert main(["attn-check", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_attn_check_overflowing_temperature_is_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["attn-check", "--temperature", "1e-320", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["attn-check: logits / temperature must be finite"]
    # A temperature this small still scales the suite's logits to finite
    # values; Sinkhorn cannot settle them, which is an invariant failure.
    assert main(["attn-check", "--temperature", "1e-300", "--seed", "1"]) == 3
    assert "failed: " in capsys.readouterr().err


def _cap_address_space():
    # With the address space capped at 1 GB, a larger allocation fails at
    # once on any host, whatever its overcommit setting.
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_attn_check_out_of_memory_is_one_line_usage_error():
    # 10⁶ blocks ask for a 10⁶ x 10⁶ sorting matrix, 8 TB of float64.
    result = subprocess.run(
        [sys.executable, "-m", "dialogkit", "attn-check", "--seq-len", "1000000",
         "--block-size", "1", "--seed", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith("attn-check: ")


def test_attn_check_invalid_spec_is_usage_error(capsys):
    assert main(["attn-check", "--block-size", "0"]) == 1
    capsys.readouterr()
