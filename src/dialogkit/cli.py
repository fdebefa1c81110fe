"""Command-line entry points.

Subcommands: ``stats`` (corpus statistics), ``corrupt`` (denoising example
generation), ``eval-seg`` (Pk/WinDiff), ``eval-rouge`` (ROUGE-1/2/L), and
``attn-check`` (attention invariant suite). Each command returns its rows
and manifest fields to one runner, ``main``. A run that finishes prints its
rows to stdout and then a one-line json manifest as the last stderr line,
recording the configuration, paths, record and error counts and duration;
``corrupt`` also writes that manifest next to its output. ``corrupt``
output is all-or-nothing: it is written to a sibling temp file that
replaces the output only when the run succeeds. A run that fails prints
exactly one stderr line, ``<command>: <reason>``, writes no manifest and
leaves any earlier output untouched.

Every command reads its input through ``_read_lines``, which accepts LF,
CRLF and CR line endings and checks each line as UTF-8 before handing it
on, so the first bad line is reported in file order. Every command reads
its records through :func:`~dialogkit.corpus.ingest` with its own parse
function, so :func:`~dialogkit.corpus.screen` is the one duplicate-id check
and the one choice between raising the first bad record (``--strict``, and
always in ``eval-seg``) and skipping it into a counting ``_Skipped`` sink.
``ingest`` splits records here, maps their parse (for ``corrupt``, with the
build of each dialogue's examples) over them, and screens them here in
input order. One worker maps with the builtin ``map``; ``--workers N`` maps
the same function with ``Pool.imap`` in forked workers, so the output, exit
code and stderr line do not depend on N. On any exit, Ctrl-C included, the
pool is joined, never terminated.

Exit codes: 0 success, 1 usage error (bad flags, unreadable or unwritable
paths, an output or sidecar that is the input file), 2 data error
(malformed records under --strict, input that is not UTF-8, or evaluation
files that are misaligned or cannot be scored), 3 invariant failure, 130
interrupted by Ctrl-C (the code a shell reports for SIGINT).

The default seed is 0, overridable by the DIALOGKIT_SEED environment
variable and then by --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator

from . import __version__
from .corpus import PARSERS, RecordError, compute_stats, ingest, json_record
from .metrics import (
    Segmentation,
    _pk_windiff,
    baseline_even,
    baseline_random,
    labels_to_segmentation,
    mean_scores,
    rouge_l,
    rouge_n,
)
from .noising import NoiseConfig, build_example

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3
EXIT_INTERRUPTED = 130

_SEED_ENV = "DIALOGKIT_SEED"
# The ``corrupt`` noise flags: every NoiseConfig field but the seed, which
# comes from --seed.
_NOISE_FIELDS = [f for f in fields(NoiseConfig) if f.name != "global_seed"]
# Raw records per task sent to a ``corrupt --workers N`` pool worker.
_CHUNK_RECORDS = 16
# ``corrupt --workers`` allows at most this many processes per cpu.
_WORKERS_PER_CPU = 8

_DESCRIPTION = f"""\
Dialogue corpus tooling: corpus statistics, windowed denoising examples,
segmentation and summary scores, and the attention invariant suite. Run
"dialogkit <command> --help" for a command's options.

Exit codes: 0 success, 1 usage error, 2 data error (a malformed record
under --strict, input that is not UTF-8, evaluation files that cannot be
scored), 3 invariant failure, 130 interrupted by Ctrl-C.

The seed defaults to 0; {_SEED_ENV} overrides it and --seed overrides both."""


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; remap to 1 to keep 2
    for data errors."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Failure(Exception):
    """Ends a run with exit code ``code`` and ``message`` as its one stderr line."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class _Result:
    """What a command hands the runner: manifest fields, stdout rows, exit code."""

    config: dict
    inputs: list[str]
    records: int
    errors: int = 0
    rows: list[dict] = field(default_factory=list)
    code: int = EXIT_OK


class _Skipped(list):
    """Skip mode's error sink: it counts every error it is handed but keeps
    only the first 10, so its memory does not grow with the bad lines."""

    count = 0

    def append(self, error: RecordError) -> None:
        self.count += 1
        if len(self) < 10:
            super().append(error)


def _default_seed() -> int:
    raw = os.environ.get(_SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise _Failure(EXIT_USAGE, f"invalid {_SEED_ENV} value: {raw!r}") from None


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def _configured(factory, **fields):
    """Build a config object from flags; a value it rejects is a usage error."""
    try:
        return factory(**fields)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from exc


def _read_lines(path: str) -> Iterator[str]:
    """The lines of ``path`` with universal newlines. Undecodable bytes are
    kept as surrogates, so the line that holds them raises
    :class:`RecordError` only after every earlier line has been yielded."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise RecordError(line_no, f"not valid utf-8 ({exc.reason})") from None
            yield line


def _same_file(path: str, other: str) -> bool:
    return os.path.exists(path) and os.path.exists(other) and os.path.samefile(path, other)


def _partial(path: str) -> str:
    """The sibling temp file that stands in for ``path`` until a run succeeds."""
    return f"{path}.{os.getpid()}.tmp"


def cmd_stats(args: argparse.Namespace) -> _Result:
    errors = _Skipped()
    dialogues = ingest(
        _read_lines(args.input), args.format, errors_out=None if args.strict else errors
    )
    stats = compute_stats(dialogues)
    return _Result(
        {"format": args.format, "strict": args.strict},
        [args.input],
        stats.dialogue_count,
        errors.count,
        rows=[stats.as_dict()],
    )


def _corrupt_record(parse, cfg: NoiseConfig, examples_per_dialogue: int, *record) -> tuple:
    """``corrupt``'s parse: a raw record's dialogue id and its example lines."""
    dialogue_id, dialogue = parse(*record)
    lines = []
    for index in range(examples_per_dialogue):
        example = build_example(dialogue, cfg, example_index=index)
        lines.append(_dump(example.to_record()))
    return dialogue_id, lines


@contextlib.contextmanager
def _mapper(workers: int):
    """The map that runs :func:`~dialogkit.corpus.ingest`'s parse and build:
    the builtin ``map`` for one worker, else ``Pool.imap`` over ``workers``
    forked processes, sent raw records ``_CHUNK_RECORDS`` at a time. While
    the pool exists, a SIGINT that is not ignored only sets a flag, in the
    workers too; the flag, like any exit, stops the feed before its next
    record. The pool is closed and joined, never terminated, so every task
    it was sent is answered; then the caller's handler comes back and a
    flagged SIGINT is raised as ``KeyboardInterrupt``.
    """
    if workers == 1:
        yield map
        return
    import itertools
    import multiprocessing
    import signal
    import threading

    stop, old = [], signal.getsignal(signal.SIGINT)
    # Handlers run in the main thread only, and only it may set them.
    swap = old is not signal.SIG_IGN and threading.current_thread() is threading.main_thread()
    if swap:
        signal.signal(signal.SIGINT, lambda signum, _: stop.append(signum))
    pool = None
    try:
        pool = multiprocessing.get_context("fork").Pool(workers)
        yield lambda fn, items: pool.imap(
            fn, itertools.takewhile(lambda _: not stop, items), _CHUNK_RECORDS
        )
    finally:
        stop.append(None)
        if pool is not None:
            pool.close()
            pool.join()
        if swap:
            signal.signal(signal.SIGINT, old)
    if signal.SIGINT in stop:
        raise KeyboardInterrupt


def cmd_corrupt(args: argparse.Namespace) -> _Result:
    if args.examples_per_dialogue < 1:
        raise _Failure(EXIT_USAGE, "--examples-per-dialogue must be at least 1")
    max_workers = _WORKERS_PER_CPU * (os.cpu_count() or 1)
    if not 1 <= args.workers <= max_workers:
        raise _Failure(EXIT_USAGE, f"--workers must be in [1, {max_workers}]")
    noise = {f.name: getattr(args, f.name) for f in _NOISE_FIELDS}
    cfg = _configured(NoiseConfig, **noise, global_seed=args.seed)
    errors = _Skipped()
    parse = functools.partial(
        _corrupt_record, PARSERS[args.format], cfg, args.examples_per_dialogue
    )
    records = 0
    with _mapper(args.workers) as imap, open(_partial(args.output), "w", encoding="utf-8") as out:
        for lines in ingest(
            _read_lines(args.input), args.format, errors_out=None if args.strict else errors,
            parse=parse, imap=imap,
        ):
            for line in lines:
                out.write(line + "\n")
                records += 1
    config = {
        "noise": asdict(cfg),
        "format": args.format,
        "examples_per_dialogue": args.examples_per_dialogue,
        "workers": args.workers,
        "strict": args.strict,
    }
    return _Result(config, [args.input], records, errors.count)


def _segmentation(index: int, line_no: int, line: str) -> tuple:
    """``eval-seg``'s parse: a labels line as ``(id, (id, segmentation))``."""
    record = json_record(line, line_no)
    try:
        seg = labels_to_segmentation(record["labels"])
        identifier = record["id"]
        if not isinstance(identifier, str):
            raise TypeError(f"id must be a string, not {identifier!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordError(line_no, f"bad segmentation record: {exc}")
    return identifier, (identifier, seg)


def _segmentation_rows(triples, k: int | None, tag: dict) -> list[dict]:
    """Score ``(id, reference, candidate)`` triples: one row per id, then the mean."""
    rows: list[dict] = []
    pk_values, wd_values = [], []
    for identifier, reference, candidate in triples:
        try:
            score_pk, score_wd = _pk_windiff(reference, candidate, k)
        except ValueError as exc:
            raise _Failure(EXIT_DATA, f"id {identifier!r}: {exc}") from exc
        pk_values.append(score_pk)
        wd_values.append(score_wd)
        rows.append({"id": identifier, **tag, "pk": score_pk, "windiff": score_wd})
    rows.append(
        {
            "mean": True,
            **tag,
            "pk": sum(pk_values) / len(pk_values) if pk_values else 0.0,
            "windiff": sum(wd_values) / len(wd_values) if wd_values else 0.0,
        }
    )
    return rows


def _random_baseline(reference: Segmentation, rng: random.Random) -> Segmentation:
    slots = reference.turn_count - 1
    density = len(reference.boundaries) / slots if slots else 0.1
    return baseline_random(reference.turn_count, density, rng)


def cmd_eval_seg(args: argparse.Namespace) -> _Result:
    if args.k is not None and args.k < 1:
        raise _Failure(EXIT_USAGE, "--k must be at least 1")
    references = dict(ingest(_read_lines(args.reference), parse=_segmentation))
    hypotheses = dict(ingest(_read_lines(args.hypothesis), parse=_segmentation))
    if set(references) != set(hypotheses):
        missing = sorted(set(references) ^ set(hypotheses))
        raise _Failure(EXIT_DATA, f"id mismatch between files: {missing[:5]}")
    pairs = references.items()
    rows = _segmentation_rows(((i, r, hypotheses[i]) for i, r in pairs), args.k, {})
    if args.baselines:
        rng = random.Random(args.seed)
        rows += _segmentation_rows(
            ((i, r, _random_baseline(r, rng)) for i, r in pairs),
            args.k,
            {"baseline": "random"},
        )
        rows += _segmentation_rows(
            ((i, r, baseline_even(r.turn_count, len(r.boundaries) + 1)) for i, r in pairs),
            args.k,
            {"baseline": "even"},
        )
    return _Result(
        {"k": args.k, "baselines": args.baselines, "seed": args.seed},
        [args.reference, args.hypothesis],
        len(references),
        rows=rows,
    )


def _rouge_pair(index: int, line_no: int, line: str) -> tuple:
    """``eval-rouge``'s parse: a pairs line as ``(id, (id, candidate, reference))``."""
    record = json_record(line, line_no)
    fields = tuple(record.get(key) for key in ("id", "candidate", "reference"))
    if not all(isinstance(x, str) for x in fields):
        raise RecordError(line_no, "id, candidate and reference must be strings")
    return fields[0], fields


def cmd_eval_rouge(args: argparse.Namespace) -> _Result:
    rows: list[dict] = []
    r1_scores, r2_scores, rl_scores = [], [], []
    errors = _Skipped()
    pairs = ingest(
        _read_lines(args.pairs), errors_out=None if args.strict else errors, parse=_rouge_pair
    )
    for identifier, candidate, reference in pairs:
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
    config = {
        "rouge_l_split": args.rouge_l_split,
        "strict": args.strict,
        "preprocessing": "lowercase, edge punctuation stripped, no stemming",
    }
    return _Result(config, [args.pairs], len(r1_scores), errors.count, rows=rows)


def cmd_attn_check(args: argparse.Namespace) -> _Result:
    # Imported here so that the other commands never load numpy.
    from . import attention

    if args.seed < 0:
        raise _Failure(EXIT_USAGE, f"seed must be non-negative, not {args.seed}")
    spec = _configured(
        attention.AttentionSpec,
        seq_len=args.seq_len,
        model_dim=args.model_dim,
        block_size=args.block_size,
        sinkhorn_iterations=args.sinkhorn_iterations,
        temperature=args.temperature,
    )
    try:
        checks = attention._attention_checks(spec, args.seed)
    except (ValueError, MemoryError) as exc:
        raise _Failure(EXIT_USAGE, str(exc) or "out of memory") from exc
    failed = [c["check"] for c in checks if not c["pass"]]
    if failed:
        print(f"attn-check: failed: {', '.join(failed)}", file=sys.stderr)
    config = {
        "seq_len": spec.seq_len,
        "model_dim": spec.model_dim,
        "block_size": spec.block_size,
        "sinkhorn_iterations": spec.sinkhorn_iterations,
        "temperature": spec.temperature,
        "seed": args.seed,
    }
    code = EXIT_INVARIANT if failed else EXIT_OK
    return _Result(config, [], len(checks), len(failed), rows=checks, code=code)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="dialogkit",
        description=_DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"dialogkit {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    stats = subparsers.add_parser("stats", help="corpus statistics as json")
    stats.add_argument("input")
    stats.add_argument("--format", choices=PARSERS, default="jsonl")
    stats.add_argument("--strict", action="store_true")
    stats.set_defaults(func=cmd_stats)

    corrupt = subparsers.add_parser(
        "corrupt", help="generate windowed denoising examples"
    )
    corrupt.add_argument("input")
    corrupt.add_argument("output")
    corrupt.add_argument("--format", choices=PARSERS, default="jsonl")
    corrupt.add_argument("--seed", type=int, default=None)
    corrupt.add_argument("--examples-per-dialogue", type=int, default=1)
    corrupt.add_argument("--workers", type=int, default=1)
    corrupt.add_argument("--strict", action="store_true")
    for f in _NOISE_FIELDS:
        flag = "--" + f.name.replace("_", "-")
        corrupt.add_argument(flag, type=type(f.default), default=f.default)
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
    """Run one subcommand: the only place that times a run, maps its
    failures to exit codes, prints its rows and emits its manifest."""
    parser = build_parser()
    args = parser.parse_args(argv)
    output = getattr(args, "output", None)
    sidecar = None if output is None else output + ".manifest.json"
    started = time.perf_counter()
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        for path in (output, sidecar):
            if path is not None and os.path.isdir(path):
                raise _Failure(EXIT_USAGE, f"{path}: is a directory")
            if path is not None and _same_file(path, args.input):
                raise _Failure(EXIT_USAGE, f"{path}: is the input")
        if output is not None and not os.path.isdir(os.path.dirname(output) or "."):
            raise _Failure(EXIT_USAGE, f"{output}: no such directory")
        result = args.func(args)
        for row in result.rows:
            print(_dump(row))
        manifest = _dump(
            {
                "tool": "dialogkit",
                "version": __version__,
                "command": args.command,
                "config": result.config,
                "inputs": result.inputs,
                "outputs": [] if output is None else [output],
                "records": result.records,
                "errors": result.errors,
                "duration_s": round(time.perf_counter() - started, 6),
            }
        )
        if output is not None:
            with open(_partial(sidecar), "w", encoding="utf-8") as handle:
                handle.write(manifest + "\n")
            os.replace(_partial(output), output)
            os.replace(_partial(sidecar), sidecar)
    except (_Failure, RecordError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        if isinstance(exc, _Failure):
            return exc.code
        return EXIT_DATA if isinstance(exc, RecordError) else EXIT_USAGE
    except KeyboardInterrupt:
        print(f"{args.command}: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        for path in (output, sidecar):
            if path is not None and os.path.exists(_partial(path)):
                os.remove(_partial(path))
    print(manifest, file=sys.stderr)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
