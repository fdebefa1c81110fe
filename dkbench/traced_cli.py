"""Run one dialogkit CLI command with timing wrappers at each layer boundary.

Usage: python3 dkbench/traced_cli.py SRC_DIR SPANS_OUT -- CLI_ARGS...

The command runs in this process through ``dialogkit.cli.main``, exactly as
``python -m dialogkit CLI_ARGS...`` would, and the exit code is passed on.
Spans, call counts and the record errors by reason go to SPANS_OUT as JSON.
"""

from __future__ import annotations

import sys
import zlib

from spans import Tracer, install

# Record error reasons as dialogkit.corpus words them, by the injected kind.
ERROR_REASONS = {
    "bad_json": "invalid json",
    "reserved_token": "reserved token",
    "empty_utterance": "utterance must be a non-empty string",
    "duplicate_id": "duplicate dialogue id",
}


def _text_key(args, kwargs):
    return zlib.crc32("\0".join(map(str, args[:2])).encode())


def _segmentation_key(args, kwargs):
    return zlib.crc32(repr(args[0]).encode())


def _example_key(args, kwargs):
    return f"{args[0].id}#{kwargs.get('example_index', 0)}"


def _rouge_l_name(args, kwargs):
    split = kwargs.get("sentence_split", args[2] if len(args) > 2 else False)
    return "metrics.rouge_l_split" if split else "metrics.rouge_l"


def _lcs_table_cells(tracer):
    def make(fn):
        timed = tracer.wrap(fn, "kernels.lcs_table")

        def wrapper(a, b):
            tracer.counts["kernels.lcs_cells"] += len(a) * len(b)
            return timed(a, b)

        return wrapper

    return make


def cli_targets(tracer: Tracer, record_errors: list) -> list:
    """The layer boundaries of the CLI commands, as ``spans.install`` targets."""

    def capture_errors(args, kwargs):
        if kwargs.get("errors_out") is not None:
            record_errors.append(kwargs["errors_out"])

    def timed(name, record=None):
        return lambda fn: tracer.wrap(fn, name, record)

    def counted(name):
        return lambda fn: tracer.count(fn, name)

    targets = [
        ("dialogkit.cli", "_dump", timed("cli.encode")),
        ("dialogkit.noising", "DenoisingExample.to_record", timed("cli.encode")),
        ("dialogkit.cli", "open", lambda _: tracer.timed_open("cli.write")),
        ("dialogkit.cli", "ingest", lambda fn: tracer.wrap_iter(fn, "corpus.ingest", capture_errors)),
        ("dialogkit.corpus", "StatsAccumulator.add", timed("corpus.stats_add")),
        ("dialogkit.core", "Turn.__post_init__", timed("core.turn_init")),
        ("dialogkit.noising", "turn_token_count", counted("core.turn_token_count")),
        ("dialogkit.cli", "build_example", timed("noising.build_example", _example_key)),
        ("dialogkit.noising", "select_window", timed("noising.select_window")),
        ("dialogkit.noising", "noise_speaker_mask", timed("noising.speaker_mask")),
        ("dialogkit.noising", "noise_turn_splitting", timed("noising.turn_split")),
        ("dialogkit.noising", "noise_turn_merging", timed("noising.turn_merge")),
        ("dialogkit.noising", "noise_text_infilling", timed("noising.infill")),
        ("dialogkit.noising", "noise_turn_permutation", timed("noising.permute")),
        ("dialogkit.cli", "rouge_n", timed("metrics.rouge_n", _text_key)),
        ("dialogkit.cli", "rouge_l", timed(_rouge_l_name, _text_key)),
        ("dialogkit.cli", "labels_to_segmentation", timed("metrics.segmentation_parse")),
        ("dialogkit.cli", "pk", timed("metrics.pk", _segmentation_key)),
        ("dialogkit.cli", "windiff", timed("metrics.windiff", _segmentation_key)),
        ("dialogkit.cli", "baseline_random", timed("metrics.baselines")),
        ("dialogkit.cli", "baseline_even", timed("metrics.baselines")),
        ("dialogkit.metrics", "lcs_length", timed("kernels.lcs_length")),
        ("dialogkit.metrics", "lcs_table", _lcs_table_cells(tracer)),
        ("dialogkit.metrics", "window_counts", timed("kernels.window_counts")),
    ]
    for module in ("dialogkit.corpus", "dialogkit.noising", "dialogkit.metrics"):
        targets.append((module, "split_sentences", timed("core.split_sentences")))
    for module in ("dialogkit.corpus", "dialogkit.noising"):
        targets.append((module, "serialize_dialogue", timed("core.serialize")))
    return targets


def errors_by_reason(error_lists: list) -> dict[str, int]:
    counts = {kind: 0 for kind in ERROR_REASONS}
    counts["other"] = 0
    for errors in error_lists:
        for error in errors:
            kind = next((k for k, text in ERROR_REASONS.items() if text in error.reason), "other")
            counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    src, spans_out, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SRC_DIR SPANS_OUT -- CLI_ARGS...")
    sys.path.insert(0, src)
    import dialogkit.cli

    tracer = Tracer()
    record_errors: list = []
    install(cli_targets(tracer, record_errors))
    try:
        code = dialogkit.cli.main(cli_args)
    finally:
        tracer.enabled = False
        tracer.dump(spans_out, {"errors_by_reason": errors_by_reason(record_errors)})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
