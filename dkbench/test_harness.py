"""Self-tests of the benchmark harness: generators, spans and checks.

Run with ``PYTHONPATH=src python -m pytest -q dkbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import checks
import gen
import spans
import traced_cli
import workloads

from dialogkit import metrics as dk_metrics
from dialogkit.cli import main as cli_main


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    assert gen.make_corpus(3, dialogues=12).lines == gen.make_corpus(3, dialogues=12).lines
    assert gen.make_corpus(3, dialogues=12).lines != gen.make_corpus(4, dialogues=12).lines
    assert gen.make_pairs(3, pairs=20) == gen.make_pairs(3, pairs=20)
    assert gen.make_pairs(3, pairs=20) != gen.make_pairs(4, pairs=20)
    assert gen.make_labels(3, dialogues=20) == gen.make_labels(3, dialogues=20)
    assert gen.make_labels(3, dialogues=20) != gen.make_labels(4, dialogues=20)
    x0 = gen.attention_inputs(3, 64)[0]
    assert (x0 == gen.attention_inputs(3, 64)[0]).all()
    assert not (x0 == gen.attention_inputs(4, 64)[0]).all()


def test_corpus_has_the_documented_shape():
    corpus = gen.make_corpus(5, dialogues=60, malformed_per_kind=2)
    records = [json.loads(line) for line in corpus.valid_lines]
    turn_counts = [len(r["turns"]) for r in records]
    assert 20 <= min(turn_counts) and max(turn_counts) <= 1000 and max(turn_counts) > 200
    speakers = [len({t["speaker"] for t in r["turns"]} - {None}) for r in records]
    assert max(speakers) <= 10 and min(speakers) >= 1
    assert any(t["speaker"] is None for r in records for t in r["turns"])
    assert len(corpus.lines) == len(corpus.valid_lines) + 8
    assert corpus.expected_stats["dialogue_count"] == 60


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        {"id": 1, "name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 2, "name": "a", "start": 1.0, "end": 4.0, "parent": 1},
        {"id": 3, "name": "b", "start": 3.0, "end": 6.0, "parent": 1},
        {"id": 4, "name": "leaf", "start": 2.0, "end": 3.0, "parent": 2},
        {"id": 5, "name": "late", "start": 9.0, "end": 12.0, "parent": 1},
    ]
    own = spans.self_times(tree)
    assert own == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}
    summary = spans.summarize(tree)
    assert summary["root"] == {"calls": 1, "self_s": 4.0, "durations": [10.0]}


class _Target:
    @staticmethod
    def outer(key):
        return _Target.inner() + 1

    @staticmethod
    def inner():
        return 1


def test_wrappers_nest_share_record_keys_and_come_off_again():
    tracer = spans.Tracer()
    original = _Target.__dict__["outer"]
    module = sys.modules[__name__]
    restore = spans.install([
        (module.__name__, "_Target.outer", lambda fn: tracer.wrap(fn, "outer", lambda a, k: a[0])),
        (module.__name__, "_Target.inner", lambda fn: tracer.wrap(fn, "inner")),
    ])
    try:
        assert _Target.outer("r1") == 2
    finally:
        restore()
    assert _Target.__dict__["outer"] is original
    inner, outer = spans.as_dicts(tracer.spans)
    assert (inner["parent"], inner["record"]) == (outer["id"], "r1")
    assert outer["parent"] is None and outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_oracles_agree_with_dialogkit():
    for line in gen.make_pairs(7, pairs=25):
        record = json.loads(line)
        want = checks.rouge_oracle(record["candidate"], record["reference"])
        got = dk_metrics.rouge_l(record["candidate"], record["reference"])
        assert abs(got.f1 - want["rouge_l"][2]) < 1e-12
        assert abs(dk_metrics.rouge_n(record["candidate"], record["reference"], 2).f1 - want["rouge_2"][2]) < 1e-12
    references, hypotheses = gen.make_labels(7, dialogues=25)
    by_id = {json.loads(h)["id"]: json.loads(h)["labels"] for h in hypotheses}
    for line in references:
        record = json.loads(line)
        ref = dk_metrics.labels_to_segmentation(record["labels"])
        hyp = dk_metrics.labels_to_segmentation(by_id[record["id"]])
        assert checks.seg_oracle(record["labels"], by_id[record["id"]]) == (
            dk_metrics.pk(ref, hyp), dk_metrics.windiff(ref, hyp)
        )


def test_replay_check_finds_a_tampered_example(tmp_path, capsys):
    corpus = gen.make_corpus(9, dialogues=10)
    source, output = tmp_path / "c.jsonl", tmp_path / "o.jsonl"
    source.write_text(corpus.text, encoding="utf-8")
    assert cli_main(["corrupt", str(source), str(output), "--seed", "3", "--examples-per-dialogue", "2"]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in output.read_text(encoding="utf-8").splitlines()]
    assert checks.replay_mismatches(records, corpus.valid_lines, 10, 0) == 0
    shuffled = next(r for r in records if len(r["trace"]["permutation"]) > 1)
    shuffled["trace"]["permutation"].reverse()
    next(r for r in records if r is not shuffled)["input"] += " tampered"
    assert checks.replay_mismatches(records, corpus.valid_lines, 10, 0) == 2
    assert checks.noise_counters(records)["examples"] == 20


def test_traced_cli_output_is_byte_identical(tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(gen.make_corpus(2, dialogues=8).text, encoding="utf-8")
    env_path = str(workloads.SRC)
    outputs = []
    for traced in (False, True):
        out = tmp_path / f"out{traced}.jsonl"
        args = ["corrupt", str(corpus), str(out), "--seed", "1", "--examples-per-dialogue", "2"]
        if traced:
            command = [sys.executable, traced_cli.__file__, env_path, str(tmp_path / "spans.json"), "--", *args]
        else:
            command = [sys.executable, "-m", "dialogkit", *args]
        subprocess.run(command, check=True, capture_output=True, env={"PYTHONPATH": env_path, "PATH": ""})
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    trace = json.loads((tmp_path / "spans.json").read_text())
    names = {s["name"] for s in trace["spans"]}
    assert {"corpus.ingest", "noising.build_example", "noising.infill", "core.turn_init", "cli.write"} <= names
    assert trace["errors_by_reason"] == {**dict.fromkeys(gen.MALFORMED_KINDS, 1), "other": 0}

