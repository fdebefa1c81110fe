"""The three workloads: ``transcripts``, ``scoring`` and ``attention``.

Each is a closed loop: one CLI process, or one attention pass, at a time.
An operation is one CLI run or one attention pass; it fails on a non-zero
exit, a digest that does not match, a record-error count that differs from
the injected malformed lines, a replay that does not match or an attention
result outside tolerance.

Every workload reports three throughputs as ``op1_per_s``, ``op2_per_s``
and ``op3_per_s`` so that all workloads share one set of end-to-end metric
names; ``NAMED`` says what each one is for each workload.

Times in the end-to-end metrics are CPU seconds (user plus system) of the
processes doing the work: for a CLI run, ``wait4`` of the command, which
includes the pool workers it reaped; for an attention pass, the benchmark
process. On an idle machine they equal the wall time of these
single-threaded commands, but they leave out the time a shared host gives
the CPU to other guests: on a 2-vCPU virtual machine, wall-clock medians of
the same code moved by a quarter or more between runs. Wall-clock rates are
printed beside them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import spans
import stack

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
GOLDEN_SEED = 2109
EXAMPLES_PER_DIALOGUE = 4
SETUP_PROBES = 15
REPLAY_SAMPLE = 40
ORACLE_SAMPLE = 40
# Relative tolerance of the pinned attention checksums: float64 sums through
# 12 layers, loose enough for a different BLAS kernel, far too tight for a
# changed result.
ATTENTION_RTOL = 1e-7
CLI_TIMEOUT_S = 170

# The named metric behind each positional throughput, with its unit. Every
# rate is per CPU second of the processes doing the work.
NAMED = {
    "transcripts": (
        ("stats_dialogues_per_cpu_s", "dialogues/CPU-s"),
        ("corrupt_examples_per_cpu_s", "examples/CPU-s"),
        ("corrupt_parallel_examples_per_cpu_s", "examples/CPU-s"),
    ),
    "scoring": (
        ("rouge_pairs_per_cpu_s", "pairs/CPU-s"),
        ("rouge_split_pairs_per_cpu_s", "pairs/CPU-s"),
        ("seg_dialogues_per_cpu_s", "dialogues/CPU-s"),
    ),
    "attention": (
        ("attn_short_tokens_per_cpu_s", "tokens/CPU-s"),
        ("attn_long_tokens_per_cpu_s", "tokens/CPU-s"),
        ("attn_long_forward_tokens_per_cpu_s", "tokens/CPU-s"),
    ),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_for(version: str) -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8")).get(version, {})


def reap(proc: subprocess.Popen) -> resource.struct_rusage:
    """Wait for ``proc`` with ``wait4``, killing it after ``CLI_TIMEOUT_S``,
    and return its resource usage, which includes the children it reaped."""
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def cpu_seconds(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


@dataclass
class CliRun:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def manifest(self) -> dict:
        try:
            return json.loads(self.stderr.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {}


@dataclass
class Run:
    """State shared by one workload run: work directory, operations, results."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    env: dict
    ops: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    # Named figures printed for people beside the metrics, and the span files
    # a traced run leaves.
    extra: dict = field(default_factory=dict)
    trace_files: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    def op(self, name: str, problems: list[str]) -> None:
        """Record one operation; it failed if any problem was found."""
        self.ops.append((name, not problems))
        self.problems.extend(f"{name}: {p}" for p in problems)

    def read(self, name: str) -> bytes:
        """A CLI output file, or nothing when the command did not write it."""
        path = self.work / name
        return path.read_bytes() if path.is_file() else b""

    def write(self, name: str, lines: list[str]) -> Path:
        path = self.work / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def cli(self, args: list, traced_spans: Path | None = None) -> CliRun:
        """Run one CLI command and take its resource usage from ``wait4``,
        which includes the pool workers it reaped."""
        args = [str(a) for a in args]
        if traced_spans is None:
            command = [sys.executable, "-m", "dialogkit", *args]
        else:
            command = [sys.executable, str(HERE / "traced_cli.py"), str(SRC), str(traced_spans), "--", *args]
        out_path, err_path = self.work / "cli.stdout", self.work / "cli.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err, env=self.env, cwd=self.work)
            usage = reap(proc)
            wall = time.perf_counter() - start
        return CliRun(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=cpu_seconds(usage),
            maxrss_mb=usage.ru_maxrss / 1024,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
        )

    def measure_setup(self, command: list[str]) -> None:
        """``setup_s``: median CPU time of a fresh interpreter running
        ``command``. A traced run reports no end-to-end metrics and skips it."""
        if self.trace:
            return
        cpu, wall = [], []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            proc = subprocess.Popen(command, env=self.env, cwd=ROOT)
            usage = reap(proc)
            if proc.returncode != 0:
                raise subprocess.CalledProcessError(proc.returncode, command)
            wall.append(time.perf_counter() - start)
            cpu.append(cpu_seconds(usage))
        self.metrics["setup_s"] = statistics.median(cpu)
        self.samples["setup_s"] = {"cpu_s": cpu, "wall_s": wall}
        self.extra["setup_s.wall"] = (statistics.median(wall), "s")

    def until_deadline(self, minimum: int):
        """Yield cycle numbers until ``seconds`` have passed and at least
        ``minimum`` cycles ran."""
        start, cycle = time.perf_counter(), 0
        while cycle < minimum or time.perf_counter() - start < self.seconds:
            yield cycle
            cycle += 1

    def report(self, name: str, work: float, cpu: list[float], wall: list[float]) -> None:
        """``name``: the median of ``work`` per CPU second over the
        operations; the median wall-clock rate goes beside it."""
        self.metrics[name] = statistics.median(work / t for t in cpu)
        self.samples[name] = {"cpu_s": cpu, "wall_s": wall}
        self.extra[f"{name}.wall"] = (statistics.median(work / t for t in wall), "1/s")


def cli_problems(run: CliRun, records: int | None = None, errors: int | None = None) -> list[str]:
    if run.code != 0:
        return [f"exit code {run.code}: {run.stderr.decode(errors='replace')[-300:]}"]
    manifest, problems = run.manifest, []
    if records is not None and manifest.get("records") != records:
        problems.append(f"manifest records {manifest.get('records')}, expected {records}")
    if errors is not None and manifest.get("errors") != errors:
        problems.append(f"manifest errors {manifest.get('errors')}, expected {errors}")
    return problems


def pinned(name: str, got: str, version: str) -> list[str]:
    want = expected_for(version).get(name)
    if want != got:
        return [f"digest {got} does not match the one pinned for dialogkit {version}: {want}"]
    return []


def spans_of(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def self_s(summary: dict, name: str) -> float:
    return summary.get(name, {}).get("self_s", 0.0)


def calls(summary: dict, name: str) -> int:
    return summary.get(name, {}).get("calls", 0)


def percentile_ms(summary: dict, name: str, q: int) -> float:
    durations = sorted(summary.get(name, {}).get("durations", ()))
    if not durations:
        return 0.0
    return 1000 * durations[min(len(durations) - 1, math.ceil(q / 100 * len(durations)) - 1)]


def merge_summaries(*summaries: dict) -> dict:
    merged: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            into["calls"] += entry["calls"]
            into["self_s"] += entry["self_s"]
            into["durations"] += entry["durations"]
    return merged


# --------------------------------------------------------------- transcripts


def transcripts(run: Run, version: str) -> None:
    workers = max(2, nproc())
    corpus = gen.make_corpus(run.seed, dialogues=160)
    corpus_path = run.write("corpus.jsonl", corpus.lines)
    valid, bad = len(corpus.valid_lines), sum(corpus.malformed.values())
    examples = valid * EXAMPLES_PER_DIALOGUE

    golden = gen.make_corpus(GOLDEN_SEED, dialogues=24)
    golden_path = run.write("golden.jsonl", golden.lines)
    result = run.cli(["corrupt", golden_path, "golden.out.jsonl", "--seed", GOLDEN_SEED,
                      "--examples-per-dialogue", EXAMPLES_PER_DIALOGUE])
    run.op("corrupt golden corpus", cli_problems(result, errors=sum(golden.malformed.values()))
           or pinned("corrupt", digest(run.read("golden.out.jsonl")), version))

    run.measure_setup([sys.executable, "-c", "import dialogkit.cli"])

    def corrupt(n: int, output: str, span_file) -> tuple[CliRun, bytes]:
        result = run.cli(["corrupt", corpus_path, output, "--seed", run.seed, "--workers", n,
                          "--examples-per-dialogue", EXAMPLES_PER_DIALOGUE], span_file)
        return result, run.read(output)

    def cycle(reference: dict | None, traced: bool = False) -> dict:
        """stats, corrupt with 1 worker, corrupt with N workers; every output
        is compared with the first cycle's."""
        span_file = (lambda name: run.work / f"spans.{name}.json") if traced else (lambda name: None)
        stats = run.cli(["stats", corpus_path], span_file("stats"))
        serial, serial_out = corrupt(1, "serial.jsonl", span_file("corrupt"))
        parallel, parallel_out = corrupt(workers, "parallel.jsonl", span_file("corrupt_parallel"))
        want = reference["output"] if reference else serial_out
        differs = lambda got: [] if got == want else ["output differs from the first --workers 1 run"]
        run.op("stats", cli_problems(stats, valid, bad) or checks.check_stats(stats.stdout, corpus.expected_stats)
               or ([] if not reference or stats.stdout == reference["stats"].stdout else ["output changed"]))
        run.op("corrupt", cli_problems(serial, examples, bad) or differs(serial_out))
        run.op("corrupt --workers N", cli_problems(parallel, examples, bad) or differs(parallel_out))
        return {"stats": stats, "corrupt": serial, "corrupt_parallel": parallel, "output": serial_out}

    walls = {"stats": [], "corrupt": [], "corrupt_parallel": []}
    cpus = {name: [] for name in walls}
    rss, first = [], None
    for _ in run.until_deadline(minimum=1 if run.trace else 2):
        runs = cycle(first)
        first = first or runs
        for name in walls:
            walls[name].append(runs[name].wall_s)
            cpus[name].append(runs[name].cpu_s)
            rss.append(runs[name].maxrss_mb)
        if run.trace:
            break
    output = first["output"]

    records = [json.loads(line) for line in output.splitlines()]
    mismatches = checks.replay_mismatches(records, corpus.valid_lines, REPLAY_SAMPLE, run.seed)
    run.op("replay sample", [f"{mismatches} sampled examples do not replay"] if mismatches else [])
    run.report("op1_per_s", valid, cpus["stats"], walls["stats"])
    run.report("op2_per_s", examples, cpus["corrupt"], walls["corrupt"])
    run.report("op3_per_s", examples, cpus["corrupt_parallel"], walls["corrupt_parallel"])
    run.metrics["peak_rss_mb"] = max(rss)
    run.extra["stats_mb_per_cpu_s"] = (statistics.median(corpus.bytes / 2**20 / t for t in cpus["stats"]), "MB/CPU-s")
    if not run.trace:
        return

    traced = cycle(first, traced=True)
    stats_trace = spans_of(run.work / "spans.stats.json")
    corrupt_trace = spans_of(run.work / "spans.corrupt.json")
    stats_sum, corrupt_sum = spans.summarize(stats_trace["spans"]), spans.summarize(corrupt_trace["spans"])
    both = merge_summaries(stats_sum, corrupt_sum)
    counts = {**stats_trace["counts"]}
    for name, value in corrupt_trace["counts"].items():
        counts[name] = counts.get(name, 0) + value

    layer = run.per_layer
    for name in ("stats", "corrupt"):
        layer[f"cli.startup_s.{name}"] = first[name].wall_s - first[name].manifest["duration_s"]
    layer["cli.corrupt.encode_s"] = self_s(corrupt_sum, "cli.encode")
    layer["cli.corrupt.write_s"] = self_s(corrupt_sum, "cli.write")
    parallel = first["corrupt_parallel"]
    layer["cli.corrupt_parallel.cpu_s"] = parallel.cpu_s
    layer["cli.corrupt_parallel.cpu_util"] = parallel.cpu_s / (parallel.wall_s * workers)

    layer["corpus.ingest_s"] = self_s(stats_sum, "corpus.ingest")
    layer["corpus.records_in"] = first["stats"].manifest["records"] + first["stats"].manifest["errors"]
    layer["corpus.records_out"] = first["corrupt"].manifest["records"]
    layer["corpus.records_rejected"] = first["corrupt"].manifest["errors"]
    reasons = corrupt_trace["errors_by_reason"]
    for kind in gen.MALFORMED_KINDS:
        layer[f"corpus.rejected.{kind}"] = reasons[kind]
    run.op("errors by reason", [] if all(reasons[k] == n for k, n in corpus.malformed.items()) and not reasons["other"]
           else [f"errors by reason {reasons}, injected {corpus.malformed}"])
    layer["corpus.stats_add_s"] = self_s(stats_sum, "corpus.stats_add")
    ingest_inclusive = sum(corrupt_sum.get("corpus.ingest", {}).get("durations", ()))
    layer["corpus.ingest_share"] = ingest_inclusive / first["corrupt"].manifest["duration_s"]

    layer["core.turn_init_calls"] = calls(both, "core.turn_init")
    layer["core.turn_init_s"] = self_s(both, "core.turn_init")
    layer["core.split_sentences_s"] = self_s(both, "core.split_sentences")
    layer["core.serialize_calls"] = calls(both, "core.serialize")
    layer["core.serialize_s"] = self_s(both, "core.serialize")
    layer["core.turn_token_count_calls"] = counts.get("core.turn_token_count", 0)

    layer["noising.build_example_s"] = self_s(corrupt_sum, "noising.build_example")
    layer["noising.build_example_p50_ms"] = percentile_ms(corrupt_sum, "noising.build_example", 50)
    layer["noising.build_example_p99_ms"] = percentile_ms(corrupt_sum, "noising.build_example", 99)
    for stage in ("select_window", "speaker_mask", "turn_split", "turn_merge", "infill", "permute"):
        layer[f"noising.{stage}_s"] = self_s(corrupt_sum, f"noising.{stage}")
    for name, value in checks.noise_counters(records).items():
        layer[f"noising.{name}"] = value
    layer["noising.replay_mismatches"] = mismatches
    layer["trace.overhead_ratio.transcripts"] = (
        sum(traced[n].wall_s for n in walls) / sum(first[n].wall_s for n in walls) - 1
    )
    run.trace_files = [run.work / f"spans.{n}.json" for n in ("stats", "corrupt")]


# ------------------------------------------------------------------- scoring


def scoring(run: Run, version: str) -> None:
    pairs = gen.make_pairs(run.seed, pairs=100)
    references, hypotheses = gen.make_labels(run.seed, dialogues=1200)
    pairs_path = run.write("pairs.jsonl", pairs)
    ref_path, hyp_path = run.write("ref.jsonl", references), run.write("hyp.jsonl", hypotheses)

    golden_pairs = run.write("golden.pairs.jsonl", gen.make_pairs(GOLDEN_SEED, pairs=40))
    golden_ref, golden_hyp = gen.make_labels(GOLDEN_SEED, dialogues=40)
    golden_ref, golden_hyp = run.write("golden.ref.jsonl", golden_ref), run.write("golden.hyp.jsonl", golden_hyp)
    for name, args in (
        ("eval-rouge", ["eval-rouge", golden_pairs]),
        ("eval-rouge-split", ["eval-rouge", golden_pairs, "--rouge-l-split"]),
        ("eval-seg", ["eval-seg", golden_ref, golden_hyp, "--baselines", "--seed", GOLDEN_SEED]),
    ):
        result = run.cli(args)
        run.op(f"{name} golden inputs", cli_problems(result) or pinned(name, digest(result.stdout), version))

    run.measure_setup([sys.executable, "-c", "import dialogkit.cli"])

    def cycle(reference: dict | None, traced: bool = False) -> dict:
        """eval-rouge, eval-rouge --rouge-l-split, eval-seg --baselines. The
        first cycle's stdout goes through the oracles; later ones must repeat it."""
        span_file = (lambda name: run.work / f"spans.{name}.json") if traced else (lambda name: None)
        runs = {
            "rouge": run.cli(["eval-rouge", pairs_path], span_file("rouge")),
            "rouge_split": run.cli(["eval-rouge", pairs_path, "--rouge-l-split"], span_file("rouge_split")),
            "seg": run.cli(["eval-seg", ref_path, hyp_path, "--baselines", "--seed", run.seed], span_file("seg")),
        }
        counts = {"rouge": len(pairs), "rouge_split": len(pairs), "seg": len(references)}
        problems = {name: cli_problems(result, counts[name], 0) for name, result in runs.items()}
        if reference is None:
            rouge = checks.check_rouge(pairs, runs["rouge"].stdout, runs["rouge_split"].stdout, ORACLE_SAMPLE, run.seed)
            problems["rouge"] += rouge
            problems["rouge_split"] += rouge
            problems["seg"] += checks.check_seg(references, hypotheses, runs["seg"].stdout, ORACLE_SAMPLE, run.seed)
        else:
            for name in runs:
                if runs[name].stdout != reference[name].stdout:
                    problems[name].append("stdout differs from the first run")
        for name, label in (("rouge", "eval-rouge"), ("rouge_split", "eval-rouge --rouge-l-split"), ("seg", "eval-seg")):
            run.op(label, problems[name])
        return runs

    walls = {"rouge": [], "rouge_split": [], "seg": []}
    cpus = {name: [] for name in walls}
    rss, first = [], None
    for _ in run.until_deadline(minimum=1 if run.trace else 2):
        runs = cycle(first)
        first = first or runs
        for name, result in runs.items():
            walls[name].append(result.wall_s)
            cpus[name].append(result.cpu_s)
            rss.append(result.maxrss_mb)
        if run.trace:
            break

    run.report("op1_per_s", len(pairs), cpus["rouge"], walls["rouge"])
    run.report("op2_per_s", len(pairs), cpus["rouge_split"], walls["rouge_split"])
    run.report("op3_per_s", len(references), cpus["seg"], walls["seg"])
    run.metrics["peak_rss_mb"] = max(rss)
    if not run.trace:
        return

    traced = cycle(first, traced=True)
    traces = {name: spans_of(run.work / f"spans.{name}.json") for name in traced}
    summary = {name: spans.summarize(trace["spans"]) for name, trace in traces.items()}
    everything = merge_summaries(*summary.values())
    counts = {}
    for trace in traces.values():
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value

    layer = run.per_layer
    layer["cli.startup_s.eval-rouge"] = first["rouge"].wall_s - first["rouge"].manifest["duration_s"]
    layer["cli.startup_s.eval-seg"] = first["seg"].wall_s - first["seg"].manifest["duration_s"]
    layer["metrics.rouge_n_s"] = self_s(everything, "metrics.rouge_n")
    layer["metrics.rouge_l_s"] = self_s(everything, "metrics.rouge_l")
    layer["metrics.rouge_l_split_s"] = self_s(everything, "metrics.rouge_l_split")
    layer["metrics.rouge_l_split_p50_ms"] = percentile_ms(everything, "metrics.rouge_l_split", 50)
    layer["metrics.rouge_l_split_p99_ms"] = percentile_ms(everything, "metrics.rouge_l_split", 99)
    for name in ("pk", "windiff", "baselines", "segmentation_parse"):
        layer[f"metrics.{name}_s"] = self_s(everything, f"metrics.{name}")
    for name in ("lcs_length", "lcs_table", "window_counts"):
        layer[f"kernels.{name}_calls"] = calls(everything, f"kernels.{name}")
        layer[f"kernels.{name}_s"] = self_s(everything, f"kernels.{name}")
    layer["kernels.lcs_cells"] = counts.get("kernels.lcs_cells", 0)
    layer["trace.overhead_ratio.scoring"] = (
        sum(r.wall_s for r in traced.values()) / sum(r.wall_s for r in first.values()) - 1
    )
    run.trace_files = [run.work / f"spans.{n}.json" for n in traced]


# ----------------------------------------------------------------- attention


def _sums_close(got: dict, want: dict) -> list[str]:
    if set(got) != set(want or {}):
        return [f"checksums {sorted(got)} not pinned: {want}"]
    return [
        f"{name} is {got[name]!r}, pinned {want[name]!r}"
        for name in got
        if not math.isclose(got[name], want[name], rel_tol=ATTENTION_RTOL)
    ]


def attention(run: Run, version: str) -> None:
    golden = stack.Stack(GOLDEN_SEED, 256, 32)
    run.op("golden stack", _sums_close(golden.run(), expected_for(version).get("attention")))

    run.measure_setup([sys.executable, str(HERE / "gen.py"), "attention", str(run.seed)])
    short, long = stack.attention_setup(run.seed, [length for length, _ in stack.LENGTHS])
    reference: dict[int, dict] = {}

    def timed_pass(layers: stack.Stack) -> tuple[tuple[float, float], tuple[float, float]]:
        """One forward and backward pass; returns the forward and the total
        time, each as (CPU s, wall s)."""
        start = time.process_time(), time.perf_counter()
        xs = layers.forward()
        middle = time.process_time(), time.perf_counter()
        d_x, d_mixings = layers.backward(xs)
        end = time.process_time(), time.perf_counter()
        sums = layers.checksums(xs, d_x, d_mixings)
        want = reference.setdefault(layers.spec.seq_len, sums)
        finite = all(math.isfinite(v) for v in sums.values())
        run.op(f"attention pass L={layers.spec.seq_len}",
               ([] if finite else ["non-finite result"]) + ([] if sums == want else ["result changed between passes"]))
        return (middle[0] - start[0], middle[1] - start[1]), (end[0] - start[0], end[1] - start[1])

    # Each list holds (CPU s, wall s) pairs.
    short_times, long_times, long_forward = [], [], []
    for number in run.until_deadline(minimum=1 if run.trace else 2):
        forward, total = timed_pass(long)
        long_forward.append(forward)
        long_times.append(total)
        for _ in range(1 if run.trace else 4):
            short_times.append(timed_pass(short)[1])
        if run.trace:
            break

    tokens_short, tokens_long = short.spec.seq_len, long.spec.seq_len
    for name, tokens, times in (("op1_per_s", tokens_short, short_times), ("op2_per_s", tokens_long, long_times),
                                ("op3_per_s", tokens_long, long_forward)):
        run.report(name, tokens, [cpu for cpu, _ in times], [wall for _, wall in times])
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not run.trace:
        return

    tracer = spans.Tracer()
    restore = spans.install(stack.attention_targets(tracer))
    layer = run.per_layer

    def traced(work) -> dict:
        """Self time per span name of the spans recorded while ``work`` runs."""
        begin = len(tracer.spans)
        work()
        return spans.summarize(spans.as_dicts(tracer.spans[begin:]))

    def stack_pass(layers: stack.Stack) -> None:
        base = tracemalloc.get_traced_memory()[0]
        layers.absolute_peak = 0
        xs = layers.forward()
        d_x, d_mixings = layers.backward(xs)
        peak = max(layers.absolute_peak, tracemalloc.get_traced_memory()[1]) - base
        layer[f"attention.stack.peak_mb.L{layers.spec.seq_len}"] = peak / stack.MB
        same = layers.checksums(xs, d_x, d_mixings) == reference[layers.spec.seq_len]
        run.op(f"traced pass L={layers.spec.seq_len}", [] if same else ["traced result differs"])

    def single_layers(layers: stack.Stack) -> None:
        for index in (layers.modes.index("sparse"), layers.modes.index("full")):
            out = layers.layer_forward(index, layers.x0)
            d_x, _ = layers.layer_backward(index, layers.x0, layers.weights)
            finite = bool(np.isfinite(out).all() and np.isfinite(d_x).all())
            run.op(f"{layers.modes[index]} layer L={layers.spec.seq_len}", [] if finite else ["non-finite result"])

    longest = stack.attention_setup(run.seed, [stack.TRACE_LENGTH[0]])[0]
    summaries = {}
    tracemalloc.start()
    try:
        start = time.perf_counter()
        for layers in (short, long):
            summaries[layers] = traced(lambda: stack_pass(layers))
        traced_wall = time.perf_counter() - start
        summaries[longest] = traced(lambda: single_layers(longest))
    finally:
        tracemalloc.stop()
        restore()
    layer["trace.overhead_ratio.attention"] = traced_wall / (long_times[0][1] + short_times[0][1]) - 1
    for layers, summary in summaries.items():
        length = layers.spec.seq_len
        for name in ("sparse.fwd", "sparse.bwd", "sparse.sort", "full.fwd", "full.bwd"):
            layer[f"attention.{name}_s.L{length}"] = self_s(summary, f"attention.{name}")
        for mode in ("full", "sparse"):
            layer[f"attention.{mode}.peak_mb.L{length}"] = layers.peak_mb.get(mode, 0.0)
        layer[f"attention.full.score_bytes.L{length}"] = length * length * 8
    path = run.work / "spans.attention.json"
    tracer.dump(str(path))
    run.trace_files = [path]


WORKLOADS = {"transcripts": transcripts, "scoring": scoring, "attention": attention}
