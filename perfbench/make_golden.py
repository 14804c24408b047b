"""Record the answer digests that ``golden.json`` pins.

    python3 perfbench/make_golden.py

Run it only on the commit whose answers are the reference (the commit
that introduced the benchmark).  Every benchmark run recomputes the
answers to the same fixed inputs and counts each differing digest as a
failed op.
"""

from __future__ import annotations

import json
import os
import shutil

import bench_inputs
import bench_worker


def main() -> None:
    os.chdir(bench_worker.ROOT)  # CLI file paths are relative to the root
    workloads = bench_worker._import_library()
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        items = bench_inputs.golden_inputs(name)
        objs = workload.setup(items, bench_worker._paths(name, "g", items))
        golden[name] = [workloads.digest(workload.answer(o, workload.op(o))) for o in objs]
    shutil.rmtree(bench_worker.ROOT / bench_worker.CLI_DIR, ignore_errors=True)
    path = bench_worker.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
