from __future__ import annotations

import hashlib
import json
import random

import pytest

from dialogkit.cli import main
from tests.conftest import dialogue_to_json_line, make_dialogue, synthetic_dialogue


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
    with pytest.raises(SystemExit) as excinfo:
        main(["corrupt", str(corpus_path), str(tmp_path / "x.jsonl")])
    assert excinfo.value.code == 1
    capsys.readouterr()


def test_corrupt_strict_on_bad_corpus(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "turns": [{"utterance": "x."}]}\n{"broken\n')
    out = tmp_path / "out.jsonl"
    assert main(["corrupt", str(path), str(out), "--strict"]) == 2
    capsys.readouterr()
    assert main(["corrupt", str(path), str(out)]) == 0
    _, manifests = _stdout_rows(capsys)
    assert manifests[0]["errors"] == 1
    assert manifests[0]["records"] == 1


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


@pytest.mark.parametrize(
    "record, hypothesis_labels, flags, message",
    [
        pytest.param({"id": "a", "labels": [0, 1, 0, 1]}, [0, 1, 1], [], "'a'", id="turn-counts"),
        pytest.param({"id": "a", "labels": [1]}, None, [], "'a'", id="single-turn"),
        pytest.param({"id": "a", "labels": [0, 1, 0, 1]}, None, ["--k", "4"], "'a'", id="k-too-large"),
        pytest.param({"id": 7, "labels": [0, 1]}, None, [], "line 1", id="int-id"),
        pytest.param({"id": ["a"], "labels": [0, 1]}, None, [], "line 1", id="list-id"),
        pytest.param({"id": "a", "labels": ["0", "0", "1", "0"]}, None, [], "line 1", id="str-labels"),
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


def test_attn_check_invalid_spec_is_usage_error(capsys):
    assert main(["attn-check", "--block-size", "0"]) == 1
    capsys.readouterr()
