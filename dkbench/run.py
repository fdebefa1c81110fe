"""dialogkit benchmark: seeded workloads through the CLI and the attention stack.

Usage, from the root of a checkout:

    python3 dkbench/run.py --workload transcripts|scoring|attention|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with no wrappers installed. ``--trace 1`` runs each operation of all three
workloads once untraced and once with timing wrappers at every layer
boundary, and reports the per-layer metrics, the span files and the tracing
overhead.

Every line but the last is for people: the environment stamp, each metric
with its unit and the checks that failed. The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A full result,
with the environment stamp, lands in ``.dkbench_work/results/``.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy is imported here or in any child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib.util
import json
import platform
import shutil
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".dkbench_work"
WORKLOAD_NAMES = ("transcripts", "scoring", "attention")


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int, workers: int) -> dict:
    import numpy

    import dialogkit
    import dialogkit.kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "use_numba": dialogkit.kernels.USE_NUMBA,
        "dialogkit": dialogkit.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "corrupt_workers": workers,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # The CLI reads its default seed from here; every run passes --seed.
    env.pop("DIALOGKIT_SEED", None)
    return env


def run_workload(name: str, args, spec: dict, version: str):
    import workloads

    work = WORK / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), work, child_env())
    try:
        workloads.WORKLOADS[name](run, version)
        declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        produced = set(run.per_layer if args.trace else run.metrics)
        if produced - declared:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(produced - declared)}")
        if not args.trace and produced != declared:
            raise RuntimeError(f"no value for {sorted(declared - produced)}")
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        for path in run.trace_files:
            shutil.move(str(path), str(results / f"{stem}.{path.name}"))
        return run, results / f"{stem}.json"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dialogkit" / "__init__.py").is_file():
        print(f"run.py: no dialogkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dialogkit
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stamp = environment(args.seed, max(2, workloads.nproc()))
    print("env " + json.dumps(stamp, sort_keys=True))

    # A traced run covers every layer, so it traces all three workloads
    # whatever --workload names.
    names = WORKLOAD_NAMES if args.workload == "all" or args.trace else (args.workload,)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    attempted = failed = 0
    line_metrics = {}
    for name in names:
        try:
            run, result_path = run_workload(name, args, spec, dialogkit.__version__)
        except Exception:
            traceback.print_exc()
            return 1
        values = run.per_layer if args.trace else run.metrics
        ops_failed = sum(not ok for _, ok in run.ops)
        attempted += len(run.ops)
        failed += ops_failed
        result_path.write_text(json.dumps({
            "workload": name, "env": stamp, "metrics": values, "extra": run.extra,
            "samples": run.samples, "ops": run.ops, "problems": run.problems,
        }, indent=1, sort_keys=True), encoding="utf-8")

        print(f"workload {name}: {len(run.ops)} operations, {ops_failed} failed, "
              f"error_ratio {ops_failed / len(run.ops)} failed/attempted")
        aliases = dict(zip(("op1_per_s", "op2_per_s", "op3_per_s"), workloads.NAMED[name]))
        units = {m["name"]: m["unit"] for m in declared}
        for metric, value in values.items():
            alias, unit = aliases.get(metric, (None, units[metric]))
            label = f"{metric} ({alias})" if alias else metric
            print(f"  {label} = {value:.6g} {unit}")
        for metric, (value, unit) in run.extra.items():
            print(f"  {metric} = {value:.6g} {unit}")
        for problem in run.problems:
            print(f"  FAILED {problem}")
        prefix = f"{name}." if len(names) > 1 and not args.trace else ""
        line_metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})

    missing = [m["name"] for m in declared if args.trace and m["name"] not in line_metrics]
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": line_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
