"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size arguments, so the
same seed always gives byte-identical inputs. Sizes that drive the cost of a
run (turn counts, sentence counts, label lengths) are drawn by stratified
sampling from a fixed long-tailed distribution: each seed shuffles and
jitters the same quantiles, so the total work per run barely moves between
seeds while the content does.

Run as a script (``python3 dkbench/gen.py attention <seed>``) it imports the
attention module and builds the attention inputs, which is what the
``attention`` workload's ``setup_s`` measures in a fresh interpreter.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass

_SYLLABLES = (
    "ka", "lo", "mi", "ne", "ru", "ta", "vo", "si", "de", "pa",
    "gu", "he", "zo", "fi", "ba", "co", "jo", "wi", "ye", "an",
)
_NAMES = tuple(a.capitalize() + b + "n" for a in _SYLLABLES[:6] for b in _SYLLABLES[10:16])


def _vocabulary(size: int = 3000) -> tuple[str, ...]:
    words = []
    for i in range(size):
        word, n = "", i
        for _ in range(2 + i % 2):
            word += _SYLLABLES[n % len(_SYLLABLES)]
            n //= len(_SYLLABLES)
        words.append(word + ("" if i < 400 else str(i % 7)))
    return tuple(words)


VOCAB = _vocabulary()
# Zipf(1.1) weights give the heavy head of function words real text has,
# which is what makes LCS tables and n-gram overlaps non-trivial.
_ZIPF_CUM = []
_total = 0.0
for _rank in range(len(VOCAB)):
    _total += 1.0 / (_rank + 1) ** 1.1
    _ZIPF_CUM.append(_total)


def _words(rng: random.Random, count: int) -> list[str]:
    top = _ZIPF_CUM[-1]
    return [VOCAB[bisect.bisect_left(_ZIPF_CUM, rng.random() * top)] for _ in range(count)]


def _sentence(rng: random.Random, low: int, high: int) -> list[str]:
    tokens = _words(rng, rng.randint(low, high))
    tokens[0] = tokens[0].capitalize()
    tokens[-1] += rng.choice(".....!??")
    return tokens


def stratified(rng: random.Random, n: int, quantile) -> list[int]:
    """n draws of ``quantile(q)`` at jittered strata q = (i + u) / n.

    The strata are shuffled into an order that depends on n alone, so every
    seed puts long and short items at the same positions and chunked work
    (``corrupt --workers N`` hands out 16 dialogues at a time) is balanced
    the same way for every seed.
    """
    values = [quantile((i + rng.random()) / n) for i in range(n)]
    random.Random(n).shuffle(values)
    return values


def pareto_quantile(low: int, high: int, alpha: float):
    """Inverse CDF of a Pareto(alpha) tail starting at ``low``, clipped at ``high``."""
    return lambda q: min(high, int(low / (1.0 - q) ** (1.0 / alpha)))


# --------------------------------------------------------------- transcripts

MALFORMED_KINDS = ("bad_json", "reserved_token", "empty_utterance", "duplicate_id")


@dataclass
class Corpus:
    """A JSONL transcript corpus plus everything the checks need to know."""

    lines: list[str]
    valid_lines: list[str]
    malformed: dict[str, int]
    expected_stats: dict

    @property
    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)

    @property
    def bytes(self) -> int:
        return len(self.text.encode("utf-8"))


def _turn(rng: random.Random, speaker: str | None) -> tuple[str | None, list[str]]:
    if rng.random() < 0.005:
        # A monologue far longer than the window budget of its dialogue.
        sentences = [_sentence(rng, 50, 90) for _ in range(6)]
    else:
        count = rng.choices(range(1, 7), weights=(34, 26, 16, 11, 7, 6))[0]
        sentences = [_sentence(rng, 3, 14) for _ in range(count)]
    return speaker, [" ".join(s) for s in sentences]


def _dialogue(rng: random.Random, dialogue_id: str, turn_count: int) -> tuple[dict, dict]:
    speakers = rng.sample(_NAMES, rng.randint(2, 10))
    turns, words, present = [], 0, set()
    for _ in range(turn_count):
        speaker = None if rng.random() < 0.06 else rng.choice(speakers)
        speaker, sentences = _turn(rng, speaker)
        utterance = " ".join(sentences)
        turns.append({"speaker": speaker, "utterance": utterance})
        words += len(utterance.split()) + (speaker is not None)
        if speaker is not None:
            present.add(speaker)
    record = {"id": dialogue_id, "turns": turns}
    return record, {"turns": turn_count, "speakers": len(present), "words": words}


def _dump(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False)


def make_corpus(seed: int, dialogues: int, malformed_per_kind: int = 1) -> Corpus:
    """Long multi-party transcripts, 20 to 1000 turns, plus injected bad lines.

    ``expected_stats`` is computed from the generator's own counts, so it is
    an oracle for ``stats`` that does not go through dialogkit.
    """
    rng = random.Random(f"corpus:{seed}")
    counts = stratified(rng, dialogues, pareto_quantile(20, 1000, 1.1))
    valid, totals, ids = [], {"turns": 0, "speakers": 0, "words": 0}, []
    for index, turn_count in enumerate(counts):
        dialogue_id = f"d{index:05d}"
        record, sums = _dialogue(rng, dialogue_id, turn_count)
        valid.append(_dump(record))
        ids.append(dialogue_id)
        for key in totals:
            totals[key] += sums[key]

    bad = []
    for kind in MALFORMED_KINDS:
        for j in range(malformed_per_kind):
            record, _ = _dialogue(rng, f"bad-{kind}-{j}", 5)
            if kind == "bad_json":
                line = _dump(record)
                bad.append((kind, line[: len(line) // 2]))
                continue
            if kind == "reserved_token":
                record["turns"][2]["utterance"] += " see [MASK] here."
            elif kind == "empty_utterance":
                record["turns"][3]["utterance"] = "   "
            else:
                record["id"] = rng.choice(ids)
            bad.append((kind, _dump(record)))
    lines = list(valid)
    for kind, line in bad:
        # A duplicate must follow the line whose id it repeats.
        if kind == "duplicate_id":
            low = lines.index(valid[ids.index(json.loads(line)["id"])]) + 1
        else:
            low = 0
        lines.insert(rng.randint(low, len(lines)), line)

    n = len(valid)
    stats = {
        "dialogue_count": n,
        "mean_turns": totals["turns"] / n,
        "mean_speakers": totals["speakers"] / n,
        "mean_length_words": totals["words"] / n,
    }
    return Corpus(
        lines=lines,
        valid_lines=valid,
        malformed={kind: malformed_per_kind for kind in MALFORMED_KINDS},
        expected_stats=stats,
    )


# ------------------------------------------------------------------- scoring


def make_pairs(seed: int, pairs: int) -> list[str]:
    """Summary pairs of 2-12 sentences of 8-20 tokens.

    Each candidate sentence copies an in-order subset of one reference
    sentence's tokens and mixes in new words, as model summaries do, so
    LCS and n-gram overlaps are partial rather than empty or total.
    """
    rng = random.Random(f"pairs:{seed}")
    ref_counts = stratified(rng, pairs, lambda q: 2 + int(q * 11))
    lines = []
    for index, ref_count in enumerate(ref_counts):
        reference = [_sentence(rng, 8, 20) for _ in range(ref_count)]
        candidate = []
        for _ in range(max(2, min(12, ref_count + rng.randint(-2, 2)))):
            source = rng.choice(reference)
            keep = rng.uniform(0.4, 0.9)
            tokens = [t for t in source if rng.random() < keep]
            for _ in range(rng.randint(1, 5)):
                tokens.insert(rng.randint(0, len(tokens)), _words(rng, 1)[0])
            tokens = tokens[:20] or _words(rng, 8)
            if rng.random() < 0.3:
                tokens[0] = tokens[0].upper()
            if tokens[-1][-1] not in ".!?":
                tokens[-1] += "."
            candidate.append(tokens)
        lines.append(
            _dump(
                {
                    "id": f"p{index:05d}",
                    "candidate": " ".join(" ".join(s) for s in candidate),
                    "reference": " ".join(" ".join(s) for s in reference),
                }
            )
        )
    return lines


def make_labels(seed: int, dialogues: int) -> tuple[list[str], list[str]]:
    """Aligned reference and hypothesis 0/1 label files.

    Turn counts are long-tailed from 50 to 800 with about 5% boundaries. The
    hypothesis moves, drops and adds boundaries, and lists ids in another
    order than the reference.
    """
    rng = random.Random(f"labels:{seed}")
    counts = stratified(rng, dialogues, pareto_quantile(50, 800, 1.5))
    references, hypotheses = [], []
    for index, turns in enumerate(counts):
        ref = [1 if rng.random() < 0.05 else 0 for _ in range(turns - 1)] + [1]
        hyp = [0] * (turns - 1) + [1]
        for position in range(turns - 1):
            if ref[position] and rng.random() < 0.8:
                moved = min(turns - 2, max(0, position + rng.randint(-3, 3)))
                hyp[moved] = 1
            elif rng.random() < 0.01:
                hyp[position] = 1
        identifier = f"s{index:05d}"
        references.append(_dump({"id": identifier, "labels": ref}))
        hypotheses.append(_dump({"id": identifier, "labels": hyp}))
    rng.shuffle(hypotheses)
    return references, hypotheses


# ----------------------------------------------------------------- attention

MODEL_DIM = 64


def attention_inputs(seed: int, seq_len: int, num_layers: int = 12):
    """Seeded stack input x0, per-layer mixing matrices and the loss weights."""
    import numpy as np

    rng = np.random.default_rng([seed % 2**32, seq_len])
    x0 = rng.standard_normal((seq_len, MODEL_DIM))
    mixings = [
        rng.standard_normal((MODEL_DIM, MODEL_DIM)) / math.sqrt(MODEL_DIM)
        for _ in range(num_layers)
    ]
    weights = rng.standard_normal((seq_len, MODEL_DIM))
    return x0, mixings, weights


if __name__ == "__main__":
    import sys

    from stack import LENGTHS, attention_setup

    attention_setup(int(sys.argv[2]), [length for length, _ in LENGTHS])
