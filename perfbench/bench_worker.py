"""One benchmark worker: a fresh process that sets up and runs one workload.

Run by ``run.py`` as ``python3 perfbench/bench_worker.py '<json spec>'``
with the repository root as working directory.  The spec names the
workload, seed, seconds, mode (``setup`` stops after set-up, ``run`` also
measures) and whether to trace.  The worker prints one JSON object as its
last line of standard output.

The timed phase is a closed loop with one client: each op starts after the
previous one returned.  Inputs come in batches; between batches the clock
is stopped while the finished batch is checked and the next one generated
and parsed, so every timed op gets a fresh input object and no input
repeats (except the CLI workload's file pool, which is re-read from disk on
every call).
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402  (generation only; no library import)

MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
WINDOW_S = 0.1  # op time between two readings of the machine speed
# Median reference_ms() on the development machine (2-core Intel Xeon VM,
# Python 3.11); reported times are scaled to this speed.
REFERENCE_MS = 0.7
SPAN_BUDGET = 1_500_000  # the traced run stops at the op that fills it
CLI_DIR = Path("perfbench") / "out" / "cli"


def _cli_paths(stream: str, items: list[dict]) -> list[str]:
    """Write the CLI workload's input files (relative to the root, so that
    the paths echoed into machine output are the same on every run)."""
    (ROOT / CLI_DIR).mkdir(parents=True, exist_ok=True)
    paths = []
    for i, item in enumerate(items):
        suffix = "game" if item["kind"] == "game" else "disc"
        path = CLI_DIR / f"{stream}{i:03d}.{suffix}"
        (ROOT / path).write_text(json.dumps(item["data"], indent=1, sort_keys=True))
        paths.append(str(path))
    return paths


def _paths(workload: str, stream: str, items: list[dict]) -> list[str]:
    return _cli_paths(stream, items) if workload == "cli_files" else [""] * len(items)


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import meaning_games

    location = Path(meaning_games.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise SystemExit(f"meaning_games imported from {location}, not from {ROOT / 'src'}")
    import bench_workloads

    return bench_workloads


class Run:
    """Collects latencies, failures and answer digests of the timed phase."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies_ns: list[int] = []
        self.digests: list[str] = []
        self.failed = 0
        self.errors: list[str] = []
        self.first_digest: dict[int, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def settle(self, objs: list, results: list) -> None:
        """Check a finished batch (outside the clock) and record digests."""
        import bench_workloads

        for i, (obj, result) in enumerate(zip(objs, results)):
            if isinstance(result, Exception):
                self.fail(f"{type(result).__name__}: {result}")
                self.digests.append("error")
                continue
            d = bench_workloads.digest(self.workload.answer(obj, result))
            self.digests.append(d)
            try:
                problems = self.workload.check(obj, result)
            except Exception as exc:  # a check that crashes is a failed op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if self.workload.reuses_pool and self.first_digest.setdefault(i, d) != d:
                problems.append("answer changed between passes over the same file")
            if problems:
                self.fail(problems[0])


_REF_CONTENTS = ("c0", "c1", "c2", "c3")
_REF_MESSAGES = ("m0", "m1", "m2")
_REF_COST = {
    (c, m): ((i * 7 + j * 3) % 5) / 10.0
    for i, c in enumerate(_REF_CONTENTS)
    for j, m in enumerate(_REF_MESSAGES)
}


def reference_kernel() -> float:
    """Fixed pure-Python work shaped like the solver's inner loop (small
    dicts keyed by id strings and tuples, built and scanned per receiver
    map), but owned by the benchmark, so it never changes with the
    library."""
    total = 0.0
    for combo in itertools.product(_REF_CONTENTS, repeat=len(_REF_MESSAGES)):
        rmap = dict(zip(_REF_MESSAGES, combo))
        for c in _REF_CONTENTS:
            values = {m: (1.0 if rmap[m] == c else 0.0) - _REF_COST[(c, m)] for m in _REF_MESSAGES}
            best = max(values.values())
            total += sum(1 for v in values.values() if v >= best - 1e-9)
    return total


def reference_ms() -> float:
    """Current machine speed: median time of three reference kernels."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        reference_kernel()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[1] / 1e6


class Clock:
    """Scales measured times to the reference machine speed.

    The speed of a shared machine drifts by tens of percent within seconds,
    for the solver and for any other code alike.  The reference kernel is
    timed before and after every window of ops (about WINDOW_S of op time,
    outside the timed region); each op's time is multiplied by
    REFERENCE_MS over the mean kernel time around its window, which is the
    time it would have taken at the speed the kernel had when REFERENCE_MS
    was recorded.  Raw times are kept alongside.
    """

    def __init__(self):
        self.before = reference_ms()

    def close_window(self) -> float:
        after = reference_ms()
        factor = REFERENCE_MS / ((self.before + after) / 2)
        self.before = after
        return factor


def timed_phase(workload, name: str, seed: int, seconds: float, first_objs: list, tracer) -> dict:
    run = Run(workload)
    deadline_ns = int(seconds * 1e9)
    window_ns = int(WINDOW_S * 1e9)
    raw_ns = raw_cpu_ns = 0
    scaled_ns = scaled_cpu_ns = 0.0
    scaled_latencies: list[float] = []
    objs, batch = first_objs, 0
    done = False
    while not done:
        gc.collect()
        results = []
        clock = Clock()
        pending = 0  # ops in the open window
        w0, c0 = time.perf_counter_ns(), time.process_time_ns()
        for obj in objs:
            if tracer is not None:
                tracer.op = len(run.latencies_ns)
            t0 = time.perf_counter_ns()
            try:
                result = workload.op(obj)
            except Exception as exc:  # counted as a failed op
                result = exc
            t1 = time.perf_counter_ns()
            run.latencies_ns.append(t1 - t0)
            results.append(result)
            pending += 1
            done = raw_ns + t1 - w0 >= deadline_ns and len(run.latencies_ns) >= MIN_OPS
            done = done or (tracer is not None and tracer.full(SPAN_BUDGET))
            last = done or len(results) == len(objs)
            if t1 - w0 >= window_ns or last:
                wall, cpu = t1 - w0, time.process_time_ns() - c0
                factor = clock.close_window()
                raw_ns += wall
                raw_cpu_ns += cpu
                scaled_ns += wall * factor
                scaled_cpu_ns += cpu * factor
                scaled_latencies.extend(t * factor for t in run.latencies_ns[-pending:])
                pending = 0
                w0, c0 = time.perf_counter_ns(), time.process_time_ns()
            if done:
                break
        if tracer is not None:
            tracer.op = tracer.CHECK
        run.settle(objs[: len(results)], results)
        if done:
            break
        batch += 1
        if not workload.reuses_pool:
            items = bench_inputs.make_batch(name, seed, "timed", batch)
            objs = workload.setup(items, _paths(name, "t", items))
    return {
        "ops": len(run.latencies_ns),
        "timed_s": scaled_ns / 1e9,
        "cpu_s": scaled_cpu_ns / 1e9,
        "latencies_ms": [t / 1e6 for t in scaled_latencies],
        "raw_timed_s": raw_ns / 1e9,
        "raw_cpu_s": raw_cpu_ns / 1e9,
        "raw_latencies_ms": [t / 1e6 for t in run.latencies_ns],
        "failed": run.failed,
        "errors": run.errors,
        "digests": run.digests,
    }


def golden_phase(workload, name: str) -> dict:
    """Answers on fixed inputs, compared with those the seed commit gave."""
    golden_file = HERE / "golden.json"
    expected = json.loads(golden_file.read_text())[name]
    items = bench_inputs.golden_inputs(name)
    objs = workload.setup(items, _paths(name, "g", items))
    import bench_workloads

    failed, errors = 0, []
    for i, obj in enumerate(objs):
        try:
            d = bench_workloads.digest(workload.answer(obj, workload.op(obj)))
        except Exception as exc:
            d = f"{type(exc).__name__}: {exc}"
        if d != expected[i]:
            failed += 1
            errors.append(f"golden input {i}: answer {d} differs from seed commit's {expected[i]}")
    return {"attempted": len(objs), "failed": failed, "errors": errors[:5]}


def main(spec: dict) -> dict:
    name, seed = spec["workload"], spec["seed"]
    first = bench_inputs.make_batch(name, seed, "timed", 0)
    first_paths = _paths(name, "t", first)

    speed_before = [reference_ms() for _ in range(3)]
    started = time.perf_counter()
    bench_workloads = _import_library()
    tracer = None
    if spec["trace"]:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install()
        tracer.op = tracer.SETUP
    workload = bench_workloads.WORKLOADS[name]
    first_objs = workload.setup(first, first_paths)
    raw_setup_s = time.perf_counter() - started
    # Set-up is scaled like the ops, by the median of six kernel readings
    # taken around it.
    speed = sorted(speed_before + [reference_ms() for _ in range(3)])
    speed_ms = (speed[2] + speed[3]) / 2
    out: dict = {"setup_s": raw_setup_s * REFERENCE_MS / speed_ms, "raw_setup_s": raw_setup_s}
    if spec["mode"] == "setup":
        return out

    if tracer is not None:
        tracer.op = tracer.WARMUP
    warm = bench_inputs.warmup_inputs(name, seed)
    for obj in workload.setup(warm, _paths(name, "w", warm)):
        workload.op(obj)

    out.update(timed_phase(workload, name, seed, spec["seconds"], first_objs, tracer))
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary(out["ops"])
        tracer.write(ROOT / "perfbench" / "out" / f"spans-{name}.tsv.gz")
    else:
        out["golden"] = golden_phase(workload, name)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result))
