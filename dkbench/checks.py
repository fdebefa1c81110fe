"""Output checks and counters that do not trust the code they check.

The ROUGE, Pk and WinDiff oracles are written from the metric definitions,
not from ``dialogkit.metrics``. The replay check rebuilds each sampled noisy
window from the clean dialogue and the recorded trace alone.
"""

from __future__ import annotations

import json
import random
import string
from collections import Counter

ABS_TOL = 1e-12


# ------------------------------------------------------------------- scoring


def _tokens(text: str) -> list[str]:
    out = []
    for token in text.lower().split():
        token = token.strip(string.punctuation)
        if token:
            out.append(token)
    return out


def _prf(overlap: int, cand: int, ref: int) -> tuple[float, float, float]:
    if cand == 0 or ref == 0:
        return 0.0, 0.0, 0.0
    precision, recall = overlap / cand, overlap / ref
    total = precision + recall
    return precision, recall, (2 * precision * recall / total if total > 0 else 0.0)


def _lcs(a: list[str], b: list[str]) -> int:
    row = [0] * (len(b) + 1)
    for x in a:
        diagonal = 0
        for j, y in enumerate(b, 1):
            diagonal, row[j] = row[j], diagonal + 1 if x == y else max(row[j], row[j - 1])
    return row[-1]


def rouge_oracle(candidate: str, reference: str) -> dict:
    """ROUGE-1, ROUGE-2 and whole-text ROUGE-L as (precision, recall, f1)."""
    cand, ref = _tokens(candidate), _tokens(reference)
    scores = {}
    for n in (1, 2):
        cand_grams = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
        ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        overlap = sum((cand_grams & ref_grams).values())
        scores[f"rouge_{n}"] = _prf(overlap, sum(cand_grams.values()), sum(ref_grams.values()))
    scores["rouge_l"] = _prf(_lcs(cand, ref), len(cand), len(ref))
    return scores


def _close(row: dict, expected: tuple[float, float, float]) -> bool:
    got = (row["precision"], row["recall"], row["f1"])
    return all(abs(g - e) <= ABS_TOL for g, e in zip(got, expected))


def check_rouge(pairs: list[str], plain: bytes, split: bytes, sample: int, seed: int) -> list[str]:
    """Problems in ``eval-rouge`` stdout with and without ``--rouge-l-split``."""
    rows = [json.loads(line) for line in plain.splitlines()]
    split_rows = [json.loads(line) for line in split.splitlines()]
    problems = []
    if len(rows) != len(pairs) + 1 or len(split_rows) != len(rows):
        return [f"eval-rouge printed {len(rows)}/{len(split_rows)} rows for {len(pairs)} pairs"]
    for row, split_row in zip(rows, split_rows):
        if row["rouge_1"] != split_row["rouge_1"] or row["rouge_2"] != split_row["rouge_2"]:
            problems.append(f"ROUGE-1/2 differ with --rouge-l-split for {row.get('id')}")
        if not all(0.0 <= v <= 1.0 for v in split_row["rouge_l"].values()):
            problems.append(f"split ROUGE-L outside [0, 1] for {row.get('id')}")
    for index in random.Random(seed).sample(range(len(pairs)), min(sample, len(pairs))):
        record = json.loads(pairs[index])
        expected = rouge_oracle(record["candidate"], record["reference"])
        row = rows[index]
        for name, value in expected.items():
            if row["id"] != record["id"] or not _close(row[name], value):
                problems.append(f"{name} of {record['id']} is {row[name]}, expected {value}")
    return problems


def _windows(labels: list[int], k: int) -> list[int]:
    slots = labels[:-1]
    return [sum(slots[i : i + k]) for i in range(len(slots) - k + 1)]


def seg_oracle(reference: list[int], hypothesis: list[int]) -> tuple[float, float]:
    """Pk and WinDiff at the default k = round(mean segment length / 2)."""
    segments = sum(reference[:-1]) + 1
    k = max(1, round(len(reference) / segments / 2))
    ref, hyp = _windows(reference, k), _windows(hypothesis, k)
    pk = sum((r > 0) != (h > 0) for r, h in zip(ref, hyp)) / len(ref)
    windiff = sum(r != h for r, h in zip(ref, hyp)) / len(ref)
    return pk, windiff


def check_seg(references: list[str], hypotheses: list[str], out: bytes, sample: int, seed: int) -> list[str]:
    """Problems in ``eval-seg --baselines`` stdout."""
    rows = [json.loads(line) for line in out.splitlines()]
    scored = [r for r in rows if "baseline" not in r and not r.get("mean")]
    baselines = [r for r in rows if "baseline" in r and not r.get("mean")]
    means = [r for r in rows if r.get("mean")]
    if len(scored) != len(references) or len(baselines) != 2 * len(references) or len(means) != 3:
        return [f"eval-seg printed {len(scored)} scores, {len(baselines)} baselines, {len(means)} means"]
    problems = []
    mean_pk = sum(r["pk"] for r in scored) / len(scored)
    if abs(means[0]["pk"] - mean_pk) > ABS_TOL:
        problems.append(f"mean Pk {means[0]['pk']} is not the mean of the rows, {mean_pk}")
    by_id = {r["id"]: r for r in scored}
    hypothesis_labels = {}
    for line in hypotheses:
        record = json.loads(line)
        hypothesis_labels[record["id"]] = record["labels"]
    for index in random.Random(seed).sample(range(len(references)), min(sample, len(references))):
        record = json.loads(references[index])
        pk, windiff = seg_oracle(record["labels"], hypothesis_labels[record["id"]])
        row = by_id.get(record["id"], {})
        if abs(row.get("pk", -1) - pk) > ABS_TOL or abs(row.get("windiff", -1) - windiff) > ABS_TOL:
            problems.append(f"{record['id']}: got {row}, expected pk={pk} windiff={windiff}")
    return problems


# --------------------------------------------------------------- transcripts


def check_stats(out: bytes, expected: dict) -> list[str]:
    got = json.loads(out)
    return [f"stats {key} is {got.get(key)}, expected {value}" for key, value in expected.items() if got.get(key) != value]


NOISE_COUNTERS = (
    "examples", "op_split", "op_merge", "op_none", "masked_speakers",
    "oversized_windows", "window_turns", "infill_replaced", "infill_budget",
    "infill_retries_exhausted",
)


def noise_counters(records: list[dict]) -> dict[str, int]:
    """The noise counters of the corrupt traces, summed over every example."""
    counts = dict.fromkeys(NOISE_COUNTERS, 0)
    for record in records:
        trace = record["trace"]
        counts["examples"] += 1
        counts["op_" + trace["turn_op"]["applied"]] += 1
        counts["masked_speakers"] += len(trace["speaker_mask"])
        counts["oversized_windows"] += bool(trace["window"]["oversized_turn"])
        counts["window_turns"] += record["window"]["turn_count"]
        counts["infill_replaced"] += trace["infill"]["replaced"]
        counts["infill_budget"] += trace["infill"]["budget"]
        counts["infill_retries_exhausted"] += bool(trace["infill"]["retries_exhausted"])
    return counts


def replay_mismatches(records: list[dict], valid_lines: list[str], sample: int, seed: int) -> int:
    """Sampled examples whose input or target does not follow from the clean
    dialogue plus the recorded trace under ``replay_window_noise``."""
    from dialogkit.core import serialize_dialogue
    from dialogkit.corpus import ingest
    from dialogkit.noising import replay_window_noise

    chosen = random.Random(seed).sample(valid_lines, min(sample, len(valid_lines)))
    dialogues = {d.id: d for d in ingest(chosen)}
    mismatches = 0
    for record in records:
        dialogue = dialogues.get(record["id"])
        if dialogue is None:
            continue
        start, count = record["window"]["start_turn"], record["window"]["turn_count"]
        turns = dialogue.turns
        window = turns[start : start + count]
        noisy = serialize_dialogue(replay_window_noise(window, record["trace"]))
        expected = "\n".join(
            part
            for part in (
                serialize_dialogue(turns[:start]) if start else "",
                noisy,
                serialize_dialogue(turns[start + count :]) if start + count < len(turns) else "",
            )
            if part
        )
        if record["input"] != expected or record["target"] != serialize_dialogue(window):
            mismatches += 1
    return mismatches
