"""The golden outputs pinned in ``dkbench/expected.json``, checked by tier-1.

The benchmark's generators rebuild its golden inputs (seed 2109). Each
command runs through ``dialogkit.cli.main`` and the 256-token hybrid stack
through ``stack.Stack``. The output digests and the attention checksums must
equal the ones pinned for this ``__version__``, so a change that moves every
seeded output the same way fails here as well as in the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "dkbench"))

import gen  # noqa: E402
import stack  # noqa: E402
import workloads  # noqa: E402

from dialogkit import __version__  # noqa: E402
from dialogkit.cli import main  # noqa: E402

SEED = workloads.GOLDEN_SEED
PINNED = workloads.expected_for(__version__)


def _write(path: Path, lines: list[str]) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_corrupt_matches_the_pinned_digest(tmp_path, capsys, workers):
    source = _write(tmp_path / "golden.jsonl", gen.make_corpus(SEED, dialogues=24).lines)
    output = tmp_path / "golden.out.jsonl"
    args = ["corrupt", source, str(output), "--seed", str(SEED), "--workers", workers,
            "--examples-per-dialogue", str(workloads.EXAMPLES_PER_DIALOGUE)]
    assert main(args) == 0, capsys.readouterr().err
    assert workloads.digest(output.read_bytes()) == PINNED["corrupt"]


@pytest.mark.parametrize("name", ["eval-rouge", "eval-rouge-split", "eval-seg"])
def test_scoring_matches_the_pinned_digest(tmp_path, capsys, name):
    if name == "eval-seg":
        references, hypotheses = gen.make_labels(SEED, dialogues=40)
        args = ["eval-seg", _write(tmp_path / "ref.jsonl", references),
                _write(tmp_path / "hyp.jsonl", hypotheses), "--baselines", "--seed", str(SEED)]
    else:
        args = ["eval-rouge", _write(tmp_path / "pairs.jsonl", gen.make_pairs(SEED, pairs=40))]
        if name == "eval-rouge-split":
            args.append("--rouge-l-split")
    assert main(args) == 0
    assert workloads.digest(capsys.readouterr().out.encode("utf-8")) == PINNED[name]


def test_attention_stack_matches_the_pinned_checksums():
    got = stack.Stack(SEED, 256, 32).run()
    assert workloads._sums_close(got, PINNED["attention"]) == []
