"""Benchmark of the meaning-games solver: one command, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads: dense_predict, discourse_resolve,
compound_solve, cli_files (see BENCHMARK.json for why each exists).

Each run starts fresh worker processes (``bench_worker.py``) that import
the library from ``src/`` and parse the seeded inputs: several set-up-only
workers measure ``setup_s``, and one worker runs the workload
single-threaded as a closed loop with one client for ``--seconds`` seconds,
checks every answer outside the timed region, and compares answers on a
fixed input set with those recorded from the seed commit (``golden.json``).

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` a second worker runs the same inputs with the library's
public functions wrapped (``bench_trace.py``); its answers must equal the
untraced worker's, and the result carries the per-layer metrics and
``trace.overhead_ratio`` instead.  End-to-end numbers never come from the
traced worker.

Reported times are scaled to a reference machine speed read around every
window of ops (``bench_worker.Clock``), because the speed of a shared
machine drifts by tens of percent within seconds; the human-readable lines
show the raw values beside them.  ``failed_share`` is printed there too,
and the result carries it as ``failed`` over ``attempted``.

Human-readable lines go first; the last line of standard output is the
JSON result.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402

WORKLOADS = ("dense_predict", "discourse_resolve", "compound_solve", "cli_files")
SETUP_WORKERS = 6  # set-up-only workers; the measuring worker adds a seventh sample
END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _worker(spec: dict, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench_worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {spec} timed out after {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {spec} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _spec(args, mode: str, trace: bool) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": mode,
        "trace": trace,
    }


def end_to_end(main: dict, setup_samples: list[float], raw: str = "") -> dict[str, float]:
    """The end-to-end metrics of the measuring worker; ``raw="raw_"`` gives
    them unscaled."""
    lat = main[raw + "latencies_ms"]
    return {
        "ops_per_s": main["ops"] / main[raw + "timed_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "cpu_ms_per_op": main[raw + "cpu_s"] * 1000.0 / main["ops"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": main["rss_mb"],
    }


def run(args) -> dict:
    if not (ROOT / "src" / "meaning_games" / "__init__.py").is_file():
        raise BenchError(f"no library source at {ROOT / 'src' / 'meaning_games'}")
    timeout = args.seconds * 2 + 60
    setups = [_worker(_spec(args, "setup", False), 60) for _ in range(SETUP_WORKERS)]
    main = _worker(_spec(args, "run", False), timeout)
    setups.append(main)
    golden = main["golden"]
    attempted = main["ops"] + golden["attempted"]
    failed = main["failed"] + golden["failed"]
    errors = main["errors"] + golden["errors"]
    e2e = end_to_end(main, [w["setup_s"] for w in setups])
    raw = end_to_end(main, [w["raw_setup_s"] for w in setups], "raw_")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, one client, closed loop")
    print(f"  ops timed: {main['ops']}, golden inputs checked: {golden['attempted']}")
    batches = 1 if args.workload == "cli_files" else 4
    share, sample = bench_inputs.shared_structure_share(args.workload, args.seed, batches)
    print(f"  games sharing shape and edge set with another game: {share:.3f} of {sample}")
    print(f"  {'metric':<16} {'scaled':>14} {'raw':>14}")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:14.4f} {raw[name]:14.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_share':<16} {failed / attempted:14.4f} fraction ({failed} of {attempted})")

    if not args.trace:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in e2e.items()}
    else:
        traced = _worker(_spec(args, "run", True), timeout)
        attempted += traced["ops"]
        failed += traced["failed"]
        errors += traced["errors"]
        common = min(len(traced["digests"]), len(main["digests"]))
        mismatched = sum(
            a != b for a, b in zip(traced["digests"][:common], main["digests"][:common])
        )
        if mismatched:
            failed += mismatched
            errors.append(f"{mismatched} traced answers differ from the untraced answers")
        layers = traced["layers"]
        overhead = (traced["ops"] / traced["timed_s"]) / e2e["ops_per_s"]
        print(
            f"traced run: {traced['ops']} ops, {int(layers['trace.spans'])} spans, "
            f"{common} answers compared with the untraced run, {mismatched} differ"
        )
        for name, unit, _ in bench_trace.PER_LAYER:
            print(f"  {name:<48} {layers[name]:14.4f} {unit}")
        print(f"  (belief builds per op, the base of the ratio above: {layers['trace.belief_builds']:.2f})")
        print(f"  {bench_trace.OVERHEAD[0]:<48} {overhead:14.4f} {bench_trace.OVERHEAD[1]}")
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit, _ in bench_trace.PER_LAYER
        }
        metrics[bench_trace.OVERHEAD[0]] = {"value": overhead, "unit": bench_trace.OVERHEAD[1]}

    for e in errors[:10]:
        print(f"  failure: {e}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(HERE / "out" / "cli", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
