"""Self-test of the benchmark at tiny specs; takes about a minute.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that every workload's code path runs in both modes and reports every
metric named in BENCHMARK.json, that a wrong hash and a truncated STL
(``validate`` exits 2) count as failed operations, that the grid complexes
give the same groups under several seeds, and that the benchmark refuses to
run in a directory without the program.  Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

import run
from grid_complex import workload_inputs

TINY = {
    "default-torus": run.PROBE_GEOMETRY,
    # lat_ribs % 4 == 0, so pinch-point capsules take the sphere branch
    "draft-ascii-roman": run.GeometrySpec("roman", 4, 4, 1, 4, ascii=True),
    "homology-grid": run.PROBE_GRID,
}


def check(name: str, ok: bool, detail: object = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))
    return ok


@contextlib.contextmanager
def patched(mapping: dict, values: dict):
    saved = dict(mapping)
    mapping.clear()
    mapping.update(values)
    try:
        yield
    finally:
        mapping.clear()
        mapping.update(saved)


def run_main(workload: str, seed: int, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
        )
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def test_workloads() -> bool:
    ok = True
    with patched(run.WORKLOADS, TINY), patched(run.GOLDEN_SHA256, {}):
        for name in TINY:
            for trace in (0, 1):
                # seed 0 hashes the output, seed 1 jitters the sizes
                result = run_main(name, trace, trace)
                names = {m["name"] for m in run.metric_table("per_layer" if trace else "end_to_end")}
                values = [m["value"] for m in result["metrics"].values()]
                ok &= check(
                    f"{name} --trace {trace} runs, passes its checks and reports every metric",
                    result["correct"]
                    and result["failed"] == 0
                    and set(result["metrics"]) == names
                    and (trace or all(v > 0 for v in values)),
                    result,
                )
        with patched(run.GOLDEN_SHA256, {"default-torus": "0" * 64}):
            result = run_main("default-torus", 0, 0)
        ok &= check("a wrong STL hash fails the operation", result["failed"] == 1, result)
    return ok


def test_truncated_stl() -> bool:
    spec = TINY["default-torus"]
    expect = run.expected_counts(spec)
    deadline = time.perf_counter() + 120
    os.makedirs(run.OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        path = os.path.join(tmp, "model.stl")
        _, errors = run.generate_step(spec, path, expect, deadline)
        ok = check("tiny generate passes its checks", not errors, errors)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 10)
        child, errors = run.validate_step(path, expect, deadline)
        return ok & check(
            "a truncated STL fails the operation with validate exit 2",
            child.code == 2 and bool(errors),
            (child.code, errors),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_homology_seeds() -> bool:
    ok = True
    for spec in (TINY["homology-grid"], run.WORKLOADS["homology-grid"]):
        for seed in (0, 1, 2, 3):
            rng = random.Random(seed) if seed else None
            inputs = workload_inputs(spec.width, spec.height, rng)
            op = run.homology_op(inputs)
            sizes = [len(cells) for cells in inputs["rp2"]]
            ok &= check(
                f"{spec.width}x{spec.height} grid, seed {seed}: expected groups (RP2 cells {sizes})",
                not op.errors,
                op.errors,
            )
    return ok


def test_refuses_without_program() -> bool:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "homology-grid",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        return check(
            "without the program it exits non-zero and prints no result",
            proc.returncode != 0 and proc.stdout == "",
            (proc.returncode, proc.stdout[-200:]),
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, run.SRC)
    run.OUT_DIR = os.path.join(run.OUT_DIR, "selftest")  # keep real results apart
    ok = test_workloads()
    ok &= test_truncated_stl()
    ok &= test_homology_seeds()
    ok &= test_refuses_without_program()
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
