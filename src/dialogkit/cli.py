"""Command-line entry points.

Subcommands: ``stats`` (corpus statistics), ``corrupt`` (denoising example
generation), ``eval-seg`` (Pk/WinDiff), ``eval-rouge`` (ROUGE-1/2/L), and
``attn-check`` (attention invariant suite). Every run prints a one-line
json manifest to stderr recording the full configuration, paths, counts,
and duration, so any output can be regenerated from its manifest alone;
``corrupt`` additionally writes the manifest next to its output file.

Exit codes: 0 success, 1 usage error, 2 data error (malformed records
under --strict, or evaluation files that are misaligned or cannot be
scored), 3 invariant failure.

The default seed is 0, overridable by the DIALOGKIT_SEED environment
variable and then by --seed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .attention import (
    AttentionSpec,
    full_attention,
    full_attention_backward,
    gradient_check,
    sinkhorn_attention,
    sinkhorn_block_attention,
    sinkhorn_block_attention_backward,
    sinkhorn_normalize,
    sinkhorn_normalize_backward,
)
from .corpus import FORMATS, RecordError, StatsAccumulator, ingest
from .metrics import (
    Segmentation,
    baseline_even,
    baseline_random,
    labels_to_segmentation,
    mean_scores,
    pk,
    rouge_l,
    rouge_n,
    windiff,
)
from .noising import NoiseConfig, build_example

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3

_SEED_ENV = "DIALOGKIT_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; remap to 1 to keep 2
    for data errors."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    raw = os.environ.get(_SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        print(f"invalid {_SEED_ENV} value: {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _dump(record: dict, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2)
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def _emit_manifest(
    command: str,
    config: dict,
    inputs: list[str],
    outputs: list[str],
    records: int,
    errors: int,
    started: float,
    sidecar_path: str | None = None,
) -> None:
    manifest = {
        "tool": "dialogkit",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "records": records,
        "errors": errors,
        "duration_s": round(time.perf_counter() - started, 6),
    }
    line = json.dumps(manifest, sort_keys=True, ensure_ascii=False)
    print(line, file=sys.stderr)
    if sidecar_path is not None:
        with open(sidecar_path, "w", encoding="utf-8") as handle:
            handle.write(line + "\n")


def _read_lines(path: str):
    with open(path, encoding="utf-8") as handle:
        yield from handle


def cmd_stats(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    accumulator = StatsAccumulator()
    errors: list[RecordError] = []
    on_error = "raise" if args.strict else "skip"
    try:
        for dialogue in ingest(
            _read_lines(args.input), args.format, on_error=on_error, errors_out=errors
        ):
            accumulator.add(dialogue)
    except RecordError as err:
        print(f"stats: {err}", file=sys.stderr)
        return EXIT_DATA
    stats = accumulator.finalize()
    print(_dump(stats.as_dict(), args.pretty))
    _emit_manifest(
        "stats",
        {"format": args.format, "strict": args.strict},
        [args.input],
        [],
        stats.dialogue_count,
        len(errors),
        started,
    )
    return EXIT_OK


def _corrupt_one(task: tuple) -> list[str]:
    dialogue, cfg, examples_per_dialogue = task
    lines = []
    for index in range(examples_per_dialogue):
        example = build_example(dialogue, cfg, example_index=index)
        lines.append(_dump(example.to_record()))
    return lines


def cmd_corrupt(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        if args.examples_per_dialogue < 1:
            raise ValueError("--examples-per-dialogue must be at least 1")
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
        cfg = NoiseConfig(
            window_fraction=args.window_fraction,
            max_window_tokens=args.max_window_tokens,
            speaker_mask_prob=args.speaker_mask_prob,
            infill_rate=args.infill_rate,
            poisson_lambda=args.poisson_lambda,
            min_merge_turns=args.min_merge_turns,
            global_seed=args.seed,
        )
    except ValueError as exc:
        print(f"corrupt: {exc}", file=sys.stderr)
        return EXIT_USAGE
    errors: list[RecordError] = []
    on_error = "raise" if args.strict else "skip"
    dialogues = ingest(
        _read_lines(args.input), args.format, on_error=on_error, errors_out=errors
    )
    tasks = ((d, cfg, args.examples_per_dialogue) for d in dialogues)
    records = 0
    try:
        with open(args.output, "w", encoding="utf-8") as out:
            if args.workers > 1:
                with multiprocessing.Pool(args.workers) as pool:
                    for lines in pool.imap(_corrupt_one, tasks, chunksize=16):
                        for line in lines:
                            out.write(line + "\n")
                            records += 1
            else:
                for task in tasks:
                    for line in _corrupt_one(task):
                        out.write(line + "\n")
                        records += 1
    except RecordError as err:
        print(f"corrupt: {err}", file=sys.stderr)
        return EXIT_DATA
    config = {
        "noise": asdict(cfg),
        "format": args.format,
        "examples_per_dialogue": args.examples_per_dialogue,
        "workers": args.workers,
        "strict": args.strict,
    }
    _emit_manifest(
        "corrupt",
        config,
        [args.input],
        [args.output],
        records,
        len(errors),
        started,
        sidecar_path=args.output + ".manifest.json",
    )
    return EXIT_OK


def _load_labeled_segmentations(path: str) -> dict[str, Segmentation]:
    segmentations: dict[str, Segmentation] = {}
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            seg = labels_to_segmentation(record["labels"])
            identifier = record["id"]
            if not isinstance(identifier, str):
                raise TypeError(f"id must be a string, not {identifier!r}")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise RecordError(line_no, f"bad segmentation record: {exc}")
        if identifier in segmentations:
            raise RecordError(line_no, f"duplicate id {identifier!r}")
        segmentations[identifier] = seg
    return segmentations


def cmd_eval_seg(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        references = _load_labeled_segmentations(args.reference)
        hypotheses = _load_labeled_segmentations(args.hypothesis)
    except RecordError as err:
        print(f"eval-seg: {err}", file=sys.stderr)
        return EXIT_DATA
    if set(references) != set(hypotheses):
        missing = sorted(set(references) ^ set(hypotheses))
        print(f"eval-seg: id mismatch between files: {missing[:5]}", file=sys.stderr)
        return EXIT_DATA

    rows: list[dict] = []
    pk_values, wd_values = [], []
    for identifier in references:
        reference, hypothesis = references[identifier], hypotheses[identifier]
        try:
            score_pk = pk(reference, hypothesis, args.k)
            score_wd = windiff(reference, hypothesis, args.k)
        except ValueError as exc:
            print(f"eval-seg: id {identifier!r}: {exc}", file=sys.stderr)
            return EXIT_DATA
        pk_values.append(score_pk)
        wd_values.append(score_wd)
        rows.append({"id": identifier, "pk": score_pk, "windiff": score_wd})
    rows.append(
        {
            "mean": True,
            "pk": sum(pk_values) / len(pk_values) if pk_values else 0.0,
            "windiff": sum(wd_values) / len(wd_values) if wd_values else 0.0,
        }
    )

    if args.baselines:
        rng = random.Random(args.seed)
        for name in ("random", "even"):
            baseline_pk, baseline_wd = [], []
            for identifier in references:
                reference = references[identifier]
                if name == "random":
                    slots = reference.turn_count - 1
                    density = len(reference.boundaries) / slots if slots else 0.1
                    candidate = baseline_random(reference.turn_count, density, rng)
                else:
                    candidate = baseline_even(
                        reference.turn_count, len(reference.boundaries) + 1
                    )
                score_pk = pk(reference, candidate, args.k)
                score_wd = windiff(reference, candidate, args.k)
                baseline_pk.append(score_pk)
                baseline_wd.append(score_wd)
                rows.append(
                    {
                        "id": identifier,
                        "baseline": name,
                        "pk": score_pk,
                        "windiff": score_wd,
                    }
                )
            rows.append(
                {
                    "mean": True,
                    "baseline": name,
                    "pk": sum(baseline_pk) / len(baseline_pk) if baseline_pk else 0.0,
                    "windiff": sum(baseline_wd) / len(baseline_wd) if baseline_wd else 0.0,
                }
            )

    for row in rows:
        print(_dump(row, args.pretty))
    _emit_manifest(
        "eval-seg",
        {"k": args.k, "baselines": args.baselines, "seed": args.seed},
        [args.reference, args.hypothesis],
        [],
        len(references),
        0,
        started,
    )
    return EXIT_OK


def cmd_eval_rouge(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    rows: list[dict] = []
    r1_scores, r2_scores, rl_scores = [], [], []
    errors = 0
    for line_no, line in enumerate(_read_lines(args.pairs), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            identifier = record["id"]
            candidate = record["candidate"]
            reference = record["reference"]
            if not isinstance(candidate, str) or not isinstance(reference, str):
                raise TypeError("candidate and reference must be strings")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            if args.strict:
                print(f"eval-rouge: line {line_no}: {exc}", file=sys.stderr)
                return EXIT_DATA
            errors += 1
            continue
        r1 = rouge_n(candidate, reference, 1)
        r2 = rouge_n(candidate, reference, 2)
        rl = rouge_l(candidate, reference, sentence_split=args.rouge_l_split)
        r1_scores.append(r1)
        r2_scores.append(r2)
        rl_scores.append(rl)
        rows.append(
            {
                "id": identifier,
                "rouge_1": r1.as_dict(),
                "rouge_2": r2.as_dict(),
                "rouge_l": rl.as_dict(),
            }
        )
    rows.append(
        {
            "mean": True,
            "rouge_1": mean_scores(r1_scores).as_dict(),
            "rouge_2": mean_scores(r2_scores).as_dict(),
            "rouge_l": mean_scores(rl_scores).as_dict(),
        }
    )
    for row in rows:
        print(_dump(row, args.pretty))
    _emit_manifest(
        "eval-rouge",
        {
            "rouge_l_split": args.rouge_l_split,
            "strict": args.strict,
            "preprocessing": "lowercase, edge punctuation stripped, no stemming",
        },
        [args.pairs],
        [],
        len(r1_scores),
        errors,
        started,
    )
    return EXIT_OK


def _block_local_reference(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, block_size: int
) -> np.ndarray:
    """Naive per-block softmax attention used as the identity-sorting
    reference; deliberately written as a direct loop."""
    seq_len, dim = q.shape
    out = np.zeros_like(q)
    for start in range(0, seq_len, block_size):
        stop = min(start + block_size, seq_len)
        logits = q[start:stop] @ k[start:stop].T / np.sqrt(dim)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = shifted / shifted.sum(axis=1, keepdims=True)
        out[start:stop] = weights @ v[start:stop]
    return out


def _attention_checks(spec: AttentionSpec, rng: np.random.Generator) -> list[dict]:
    checks: list[dict] = []

    def add(name: str, value: float, tolerance: float | None) -> None:
        entry = {
            "check": name,
            "value": float(value),
            "tolerance": tolerance,
            "pass": bool(tolerance is None or value <= tolerance),
        }
        checks.append(entry)

    blocks = spec.num_blocks
    row_dev, col_dev, col_dev_20 = 0.0, 0.0, 0.0
    for _ in range(20):
        logits = rng.standard_normal((blocks, blocks))
        sorting = sinkhorn_normalize(logits, spec.sinkhorn_iterations, spec.temperature)
        row_dev = max(row_dev, float(np.abs(sorting.sum(axis=1) - 1.0).max()))
        col_dev = max(col_dev, float(np.abs(sorting.sum(axis=0) - 1.0).max()))
        settled = sinkhorn_normalize(logits, 20, spec.temperature)
        col_dev_20 = max(col_dev_20, float(np.abs(settled.sum(axis=0) - 1.0).max()))
    add("sinkhorn_row_sum_dev", row_dev, 1e-6)
    add("sinkhorn_col_sum_dev", col_dev, None)
    add("sinkhorn_col_sum_dev_20_iters", col_dev_20, 1e-4)

    uniform = sinkhorn_normalize(np.zeros((blocks, blocks)), spec.sinkhorn_iterations)
    add("sinkhorn_uniform_dev", float(np.abs(uniform - 1.0 / blocks).max()), 1e-12)

    q = rng.standard_normal((spec.seq_len, spec.model_dim))
    k = rng.standard_normal((spec.seq_len, spec.model_dim))
    v = rng.standard_normal((spec.seq_len, spec.model_dim))

    single = AttentionSpec(
        seq_len=spec.seq_len,
        model_dim=spec.model_dim,
        block_size=spec.seq_len,
        sinkhorn_iterations=spec.sinkhorn_iterations,
        temperature=spec.temperature,
    )
    sparse_out = sinkhorn_attention(q, k, v, single, np.ones((1, 1)))
    add(
        "single_block_vs_full",
        float(np.abs(sparse_out - full_attention(q, k, v)).max()),
        1e-6,
    )

    if spec.padded_len == spec.seq_len:
        identity_out = sinkhorn_attention(q, k, v, spec, np.eye(blocks))
        reference = _block_local_reference(q, k, v, spec.block_size)
        add(
            "identity_sorting_vs_block_local",
            float(np.abs(identity_out - reference).max()),
            1e-6,
        )

    mixing = rng.standard_normal((spec.model_dim, spec.model_dim))
    base_out = sinkhorn_block_attention(q, k, v, mixing, spec)
    extended = AttentionSpec(
        seq_len=spec.seq_len + 2 * spec.block_size,
        model_dim=spec.model_dim,
        block_size=spec.block_size,
        sinkhorn_iterations=spec.sinkhorn_iterations,
        temperature=spec.temperature,
    )

    def extend(m: np.ndarray) -> np.ndarray:
        tail = rng.standard_normal((extended.seq_len - spec.seq_len, spec.model_dim))
        return np.vstack([m, tail])

    padded_out = sinkhorn_block_attention(
        extend(q), extend(k), extend(v), mixing, extended, n_real=spec.seq_len
    )
    add(
        "padding_invariance",
        float(np.abs(padded_out[: spec.seq_len] - base_out).max()),
        1e-6,
    )

    small_q = rng.standard_normal((8, 4))
    small_k = rng.standard_normal((8, 4))
    small_v = rng.standard_normal((8, 4))
    add(
        "grad_full_attention",
        gradient_check(full_attention, full_attention_backward, [small_q, small_k, small_v]),
        1e-4,
    )

    logits4 = rng.standard_normal((4, 4))
    grad_weights = rng.standard_normal((4, 4))
    add(
        "grad_sinkhorn_normalize",
        gradient_check(
            lambda m: sinkhorn_normalize(m, 4, 1.0),
            lambda m, d: (sinkhorn_normalize_backward(m, 4, 1.0, d),),
            [logits4],
            weights=grad_weights,
        ),
        1e-4,
    )

    tiny = AttentionSpec(seq_len=12, model_dim=4, block_size=4, sinkhorn_iterations=4)
    tiny_inputs = [rng.standard_normal((12, 4)) for _ in range(3)]
    tiny_mix = rng.standard_normal((4, 4))
    add(
        "grad_sinkhorn_block_attention",
        gradient_check(
            lambda a, b, c, m: sinkhorn_block_attention(a, b, c, m, tiny),
            lambda a, b, c, m, d: sinkhorn_block_attention_backward(a, b, c, m, tiny, d),
            tiny_inputs + [tiny_mix],
        ),
        1e-3,
    )
    return checks


def cmd_attn_check(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        spec = AttentionSpec(
            seq_len=args.seq_len,
            model_dim=args.model_dim,
            block_size=args.block_size,
            sinkhorn_iterations=args.sinkhorn_iterations,
            temperature=args.temperature,
        )
    except ValueError as exc:
        print(f"attn-check: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    checks = _attention_checks(spec, rng)
    for check in checks:
        print(_dump(check, args.pretty))
    failed = [c["check"] for c in checks if not c["pass"]]
    _emit_manifest(
        "attn-check",
        {
            "seq_len": spec.seq_len,
            "model_dim": spec.model_dim,
            "block_size": spec.block_size,
            "sinkhorn_iterations": spec.sinkhorn_iterations,
            "temperature": spec.temperature,
            "seed": args.seed,
        },
        [],
        [],
        len(checks),
        len(failed),
        started,
    )
    if failed:
        print(f"attn-check: failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dialogkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dialogkit {__version__}")
    parser.add_argument(
        "--pretty", action="store_true", help="indent json output for reading"
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    stats = subparsers.add_parser("stats", help="corpus statistics as json")
    stats.add_argument("input")
    stats.add_argument("--format", choices=FORMATS, default="jsonl")
    stats.add_argument("--strict", action="store_true")
    stats.set_defaults(func=cmd_stats)

    corrupt = subparsers.add_parser(
        "corrupt", help="generate windowed denoising examples"
    )
    corrupt.add_argument("input")
    corrupt.add_argument("output")
    corrupt.add_argument("--format", choices=FORMATS, default="jsonl")
    corrupt.add_argument("--seed", type=int, default=None)
    corrupt.add_argument("--examples-per-dialogue", type=int, default=1)
    corrupt.add_argument("--workers", type=int, default=1)
    corrupt.add_argument("--strict", action="store_true")
    corrupt.add_argument("--window-fraction", type=float, default=0.10)
    corrupt.add_argument("--max-window-tokens", type=int, default=512)
    corrupt.add_argument("--speaker-mask-prob", type=float, default=0.5)
    corrupt.add_argument("--infill-rate", type=float, default=0.15)
    corrupt.add_argument("--poisson-lambda", type=float, default=3.0)
    corrupt.add_argument("--min-merge-turns", type=int, default=2)
    corrupt.set_defaults(func=cmd_corrupt)

    eval_seg = subparsers.add_parser("eval-seg", help="Pk and WinDiff scores")
    eval_seg.add_argument("reference")
    eval_seg.add_argument("hypothesis")
    eval_seg.add_argument("--k", type=int, default=None)
    eval_seg.add_argument("--baselines", action="store_true")
    eval_seg.add_argument("--seed", type=int, default=None)
    eval_seg.set_defaults(func=cmd_eval_seg)

    eval_rouge = subparsers.add_parser("eval-rouge", help="ROUGE-1/2/L scores")
    eval_rouge.add_argument("pairs")
    eval_rouge.add_argument("--rouge-l-split", action="store_true")
    eval_rouge.add_argument("--strict", action="store_true")
    eval_rouge.set_defaults(func=cmd_eval_rouge)

    attn = subparsers.add_parser("attn-check", help="attention invariant suite")
    attn.add_argument("--seq-len", type=int, default=32)
    attn.add_argument("--model-dim", type=int, default=8)
    attn.add_argument("--block-size", type=int, default=8)
    attn.add_argument("--sinkhorn-iterations", type=int, default=8)
    attn.add_argument("--temperature", type=float, default=1.0)
    attn.add_argument("--seed", type=int, default=None)
    attn.set_defaults(func=cmd_attn_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        args.seed = _default_seed()
    try:
        return args.func(args)
    except OSError as exc:
        print(f"dialogkit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
