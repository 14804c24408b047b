"""Tests of the benchmark itself: determinism, tracing hygiene, failure
counting, and agreement between BENCHMARK.json and the code."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import bench_worker  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

WORKLOADS = tuple(bench_inputs.GENERATORS)


def _input_hashes() -> dict[str, str]:
    return {
        w: hashlib.sha256(bench_inputs.encode(bench_inputs.make_batch(w, 7, "timed", 3))).hexdigest()
        for w in WORKLOADS
    }


def test_same_seed_gives_byte_identical_inputs_across_processes():
    code = (
        "import json, test_perfbench; print(json.dumps(test_perfbench._input_hashes()))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == _input_hashes()


def test_streams_and_seeds_give_different_inputs():
    for w in WORKLOADS:
        timed = bench_inputs.encode(bench_inputs.make_batch(w, 1, "timed", 0))
        assert timed != bench_inputs.encode(bench_inputs.make_batch(w, 2, "timed", 0))
        assert timed != bench_inputs.encode(bench_inputs.make_batch(w, 1, "timed", 1))
        warm = bench_inputs.warmup_inputs(w, 1)
        assert not any(item in bench_inputs.make_batch(w, 1, "timed", 0) for item in warm)


def _namespaces():
    import importlib

    names = [bench_trace.PACKAGE] + [f"{bench_trace.PACKAGE}.{m}" for m in bench_trace.MODULES]
    return [importlib.import_module(n) for n in names]


def test_wrappers_leave_no_patched_name_behind():
    before = [dict(vars(ns)) for ns in _namespaces()]
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        from meaning_games import centering, cli, compound, equilibrium

        for ns in (centering, cli, compound, equilibrium):
            assert hasattr(ns.predict, "__wrapped__")
        assert centering.predict is not cli.predict
    finally:
        tracer.uninstall()
    after = [dict(vars(ns)) for ns in _namespaces()]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(a[k] is b[k] for k in b)


def test_traced_answers_equal_untraced_answers():
    for name in ("compound_solve", "discourse_resolve"):
        workload = bench_workloads.WORKLOADS[name]
        objs = workload.setup(bench_inputs.make_batch(name, 3, "timed", 0)[:4], [""] * 4)
        plain = [bench_workloads.digest(workload.answer(o, workload.op(o))) for o in objs]
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            tracer.op = 0
            traced = [bench_workloads.digest(workload.answer(o, workload.op(o))) for o in objs]
        finally:
            tracer.uninstall()
        assert traced == plain
        layers = tracer.summary(len(objs))
        assert layers["compound.belief_build.calls"] > 0
        assert layers["equilibrium.posterior_beliefs.calls"] > 0


def test_wrong_answers_and_exceptions_count_as_failures():
    workload = bench_workloads.WORKLOADS["dense_predict"]
    items = bench_inputs.make_batch("dense_predict", 1, "timed", 0)[:2]
    objs = workload.setup(items, [""] * 2)
    results = [workload.op(o) for o in objs]
    tally = bench_worker.Run(workload)
    tally.settle(objs, results)
    assert tally.failed == 0

    tally.settle(objs, [results[0], ValueError("boom")])
    assert tally.failed == 1

    right = results[0]  # objs[0] is a strict-order game
    pairs = sorted(right.interpretation().items())
    rotated = [(m, pairs[(i + 1) % len(pairs)][1]) for i, (m, _) in enumerate(pairs)]
    wrong = dataclasses.replace(right, interpretations=(tuple(rotated),))
    tally = bench_worker.Run(workload)
    tally.settle(objs[:1], [wrong])
    assert tally.failed == 1 and "assortative" in tally.errors[0]


def test_golden_mismatch_counts_as_failure():
    workload = bench_workloads.WORKLOADS["compound_solve"]
    assert bench_worker.golden_phase(workload, "compound_solve")["failed"] == 0
    sabotaged = dataclasses.replace(
        workload, op=lambda cg: bench_workloads.compound.predict_compound(cg, rule="uniform")
    )
    result = bench_worker.golden_phase(sabotaged, "compound_solve")
    assert 0 < result["failed"] <= result["attempted"]


def test_cli_wrong_exit_code_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = bench_workloads.WORKLOADS["cli_files"]
    items = bench_inputs.make_batch("cli_files", 1, "timed", 0)[:5]
    paths = []
    for i, item in enumerate(items):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(item["data"]))
        paths.append(str(path))
    calls = workload.setup(items, paths)
    results = [workload.op(c) for c in calls]
    assert all(not workload.check(c, r) for c, r in zip(calls, results))
    code, text = results[0]
    assert workload.check(calls[0], (code + 1, text))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    expected = [(n, u) for n, u, _ in bench_trace.PER_LAYER] + [bench_trace.OVERHEAD]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == expected
    assert set(json.loads((HERE / "golden.json").read_text())) == set(run.WORKLOADS)


def test_run_fails_without_a_result_where_the_library_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
