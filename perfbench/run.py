#!/usr/bin/env python3
"""identispace benchmark: CLI print round trip, ASCII draft and grid homology.

Run from the root of a checkout:

    python3 perfbench/run.py --workload default-torus --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

One client runs a closed loop: the next operation starts when the previous one
has ended, as long as it is expected (from the previous one's duration) to end
within ``--seconds``; at least one always runs.  Every output is checked; an
operation with a wrong exit code, hash, count or group counts as failed.

* ``--trace 0`` times the untraced program and prints the end-to-end metrics.
* ``--trace 1`` runs one untraced and one traced operation and prints the
  per-layer metrics; layers the workload does not use are traced on a tiny
  probe (see ``PROBE_GEOMETRY`` / ``PROBE_GRID``) so every layer reports.

The last line of standard output is the result object named in
``BENCHMARK.json``; the line before it is a report with the environment, the
per-step figures and any failure messages.  Workloads, metrics and the
layer-to-metric map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace

from grid_complex import EXPECTED_GROUPS, SPACES, build_complex, group_key, workload_inputs
from spans import Tracer, peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed after this
SETUP_RUNS = 5
JITTER = 0.05  # seeds other than 0 scale each size parameter by up to +-5 %


@dataclass(frozen=True)
class GeometrySpec:
    """One ``identispace generate`` invocation; densities are used for both directions."""

    surface: str
    lat_ribs: int
    long_ribs: int
    density: int
    resolution: int
    ascii: bool
    outer_radius: float = 30.0
    inner_radius: float = 10.0
    thickness: float = 1.2
    amplitude: float = 0.25

    def cli_args(self) -> list[str]:
        args = [
            "--surface", self.surface,
            "--lat-ribs", str(self.lat_ribs),
            "--long-ribs", str(self.long_ribs),
            "--outer-density", str(self.density),
            "--inner-density", str(self.density),
            "--resolution", str(self.resolution),
            "--outer-radius", repr(self.outer_radius),
            "--inner-radius", repr(self.inner_radius),
            "--thickness", repr(self.thickness),
            "--amplitude", repr(self.amplitude),
        ]
        return args + ["--ascii"] if self.ascii else args

    def for_seed(self, seed: int) -> "GeometrySpec":
        if seed == 0:
            return self
        rng = random.Random(seed)
        sizes = ("outer_radius", "inner_radius", "thickness", "amplitude")
        return replace(
            self, **{k: getattr(self, k) * (1.0 + rng.uniform(-JITTER, JITTER)) for k in sizes}
        )


@dataclass(frozen=True)
class GridSpec:
    """Quotient-square grid size for the homology workload."""

    width: int
    height: int


WORKLOADS = {
    "default-torus": GeometrySpec("torus", 18, 36, 8, 12, ascii=False),
    "draft-ascii-roman": GeometrySpec("roman", 16, 32, 2, 6, ascii=True),
    "homology-grid": GridSpec(8, 12),
}

# SHA-256 of the seed-0 STL files, captured from the code the benchmark was
# defined on; output bytes are the program's contract.
GOLDEN_SHA256 = {
    "default-torus": "c5e6183503e36a7308d4616102c6342ce3fe238ebc8d3b561bed5dbe8a98ea97",
    "draft-ascii-roman": "8d50cdf941b7f3dca137341391313bdd78d455e33dfa710acfad113f9eb4edd9",
}

PROBE_GEOMETRY = GeometrySpec("torus", 3, 4, 1, 4, ascii=False)
PROBE_GRID = GridSpec(3, 4)


# ---------------------------------------------------------------- processes


@dataclass
class Child:
    wall_s: float
    code: int
    out: str
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], deadline: float) -> Child:
    """Run one process to completion; its peak RSS comes from its own wait4.

    ``RUSAGE_CHILDREN`` would report the largest child ever reaped, so every
    later child would inherit the first one's peak.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(wall, code, out.decode("utf-8", "replace"), usage.ru_maxrss / 1024.0)


def cli_argv(args: list[str], spans_path: str | None = None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "identispace.cli", *args]
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *args]


def setup_run(deadline: float) -> tuple[Child, list[str]]:
    """A trivial CLI call: process start plus the imports every call pays."""
    child = run_child(cli_argv(["homology", "--space", "circle"]), deadline)
    if child.code != 0 or child.out.split() != "H_0(circle) = Z H_1(circle) = Z".split():
        return child, [f"setup: exit {child.code}: {child.out[-300:]!r}"]
    return child, []


# ----------------------------------------------------------------- geometry


@dataclass(frozen=True)
class Expected:
    triangles: int
    components: int


def expected_counts(spec: GeometrySpec) -> Expected:
    """Triangle count from the program's own plan and per-capsule counts."""
    from identispace.geom import SurfaceKind, SurfaceParams
    from identispace.wireframe import (
        WireframeSpec,
        capsule_counts,
        count_degenerate_segments,
        plan_segments,
        sphere_counts,
    )

    wire = WireframeSpec(
        surface=SurfaceParams(
            kind=SurfaceKind(spec.surface),
            outer_radius=spec.outer_radius,
            inner_radius=spec.inner_radius,
            lat_ribs=spec.lat_ribs,
            long_ribs=spec.long_ribs,
            amplitude=spec.amplitude,
        ),
        outer_density=spec.density,
        inner_density=spec.density,
        thickness=spec.thickness,
        capsule_resolution=spec.resolution,
    )
    segments = plan_segments(wire)
    spheres = count_degenerate_segments(segments)
    capsules = len(segments) - spheres
    triangles = (
        capsules * capsule_counts(spec.resolution)[1]
        + spheres * sphere_counts(spec.resolution)[1]
    )
    return Expected(triangles, len(segments))


def _int_field(text: str, pattern: str) -> tuple[int, ...] | None:
    m = re.search(pattern, text, re.MULTILINE)
    return tuple(int(g) for g in m.groups()) if m else None


def _check_report(step: str, child: Child, expect: Expected, components: int | None) -> list[str]:
    """Exit code 0, the expected triangle count and ``watertight: k/k``."""
    if child.code != 0:
        return [f"{step}: exit {child.code}: {child.out[-300:]!r}"]
    errors = []
    tris = _int_field(child.out, r"^triangles: (\d+)$")
    if tris != (expect.triangles,):
        errors.append(f"{step}: triangles {tris}, expected {expect.triangles}")
    tight = _int_field(child.out, r"^watertight: (\d+)/(\d+)$")
    if tight is None or tight[0] != tight[1] or tight[0] < 1:
        errors.append(f"{step}: watertight {tight}")
    elif components is not None and tight[1] != components:
        errors.append(f"{step}: {tight[1]} components, expected {components}")
    return errors


def generate_step(spec, path, expect, deadline, spans_path=None) -> tuple[Child, list[str]]:
    child = run_child(cli_argv(["generate", *spec.cli_args(), "--output", path], spans_path), deadline)
    errors = _check_report("generate", child, expect, expect.components)
    if child.code != 0:
        return child, errors
    written = _int_field(child.out, r"^file: .* \((\d+) bytes\)$")
    size = os.path.getsize(path) if os.path.exists(path) else None
    if written is None or written[0] != size:
        errors.append(f"generate: reported {written} bytes, file has {size}")
    if not spec.ascii and size is not None:
        if size != 84 + 50 * expect.triangles:
            errors.append(f"generate: {size} bytes, expected 84 + 50 * {expect.triangles}")
        with open(path, "rb") as fh:
            fh.seek(80)
            count = int.from_bytes(fh.read(4), "little")
        if count != expect.triangles:
            errors.append(f"generate: header count {count}, expected {expect.triangles}")
    return child, errors


def validate_step(path, expect, deadline, spans_path=None) -> tuple[Child, list[str]]:
    child = run_child(cli_argv(["validate", path], spans_path), deadline)
    return child, _check_report("validate", child, expect, None)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Op:
    op_s: float | None = None  # generate + validate, or simplex lists to groups
    peak_rss_mb: float | None = None
    errors: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)


def geometry_op(spec, expect, golden, deadline, traced=False) -> Op:
    """``generate`` then ``validate`` on the written file, in a temporary directory."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="op-", dir=OUT_DIR)
    op = Op()
    try:
        path = os.path.join(tmp, "model.stl")
        spans = {
            step: os.path.join(tmp, f"{step}.spans.json") if traced else None
            for step in ("generate", "validate")
        }
        gen, op.errors = generate_step(spec, path, expect, deadline, spans["generate"])
        op.detail = {"generate_s": gen.wall_s, "generate_peak_rss_mb": gen.peak_rss_mb}
        if gen.code != 0 or not os.path.isfile(path):
            return op
        op.detail["stl_mb"] = os.path.getsize(path) / 1e6
        if golden is not None:
            digest = sha256_file(path)
            op.detail["stl_sha256"] = digest
            if golden and digest != golden:
                op.errors.append(f"sha256 {digest}, golden {golden}")
        val, errors = validate_step(path, expect, deadline, spans["validate"])
        op.errors += errors
        op.op_s = gen.wall_s + val.wall_s
        op.peak_rss_mb = max(gen.peak_rss_mb, val.peak_rss_mb)
        op.detail.update(validate_s=val.wall_s, validate_peak_rss_mb=val.peak_rss_mb)
        if traced:
            for step, spans_path in spans.items():
                try:
                    with open(spans_path, encoding="utf-8") as fh:
                        op.spans[step] = json.load(fh)
                except (OSError, ValueError) as exc:
                    op.errors.append(f"{step}: no spans: {exc}")
        return op
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------- homology


def homology_op(inputs: dict) -> Op:
    """Simplex lists to H_0..H_2 of every space, through the public topology API."""
    from identispace import topology

    op = Op()
    try:
        start = time.perf_counter()
        complexes = {space: build_complex(topology, *inputs[space]) for space in SPACES}
        built = time.perf_counter()
        groups = {
            space: tuple(group_key(topology.homology(c, k)) for k in range(3))
            for space, c in complexes.items()
        }
        done = time.perf_counter()
    except Exception as exc:  # a program error fails this operation, not the run
        op.errors.append(f"homology: {type(exc).__name__}: {exc}")
        return op
    op.op_s, op.peak_rss_mb = done - start, peak_rss_mb()
    op.detail = {"homology_s": done - start, "topology_build_s": built - start}
    for space in SPACES:
        if groups[space] != EXPECTED_GROUPS[space]:
            op.errors.append(f"{space}: groups {groups[space]}, expected {EXPECTED_GROUPS[space]}")
    return op


@contextlib.contextmanager
def traced_topology(tracer: Tracer):
    """Route calls to the public topology functions through ``tracer``.

    ``homology`` looks ``smith_normal_form`` up in its module at call time, so
    its own factorisations appear as child spans.
    """
    from identispace import topology

    names = ("boundary_matrix", "ChainComplex", "homology", "smith_normal_form")
    saved = {name: getattr(topology, name) for name in names}
    try:
        for name, fn in saved.items():
            setattr(topology, name, tracer.wrap(f"topology.{name}", fn))
        yield topology
    finally:
        for name, fn in saved.items():
            setattr(topology, name, fn)


def topology_layers(inputs: dict) -> tuple[dict, Op, Op]:
    """Untraced and traced homology operation on the same inputs, then one
    traced ``smith_normal_form`` per boundary matrix."""
    from identispace import topology

    untraced = homology_op(inputs)
    tracer = Tracer()
    with traced_topology(tracer):
        traced = homology_op(inputs)
    traced.spans = {"homology": tracer.spans}
    if untraced.errors or traced.errors:
        return {}, untraced, traced
    matrices = [m for space in SPACES for m in build_complex(topology, *inputs[space]).boundaries]
    first_snf = len(tracer.spans)
    with traced_topology(tracer) as traced_module:
        for mat in matrices:
            traced_module.smith_normal_form(mat)

    def top(spans, name):
        return sum(_dur(s) for s in spans if s["name"] == name and s["parent"] is None)

    op_spans, snf_spans = tracer.spans[:first_snf], tracer.spans[first_snf:]
    homology_s = top(op_spans, "topology.homology")
    snf_s = top(snf_spans, "topology.smith_normal_form")
    layers = {
        "topology.build_s": top(op_spans, "topology.boundary_matrix")
        + top(op_spans, "topology.ChainComplex"),
        "topology.homology_s": homology_s,
        "topology.snf_s": snf_s,
        "topology.homology_over_snf": homology_s / snf_s,
        "topology.cells": sum(len(cells) for lists in inputs.values() for cells in lists),
    }
    return layers, untraced, traced


# -------------------------------------------------------------- per-layer


def _one(spans: list[dict], name: str) -> dict:
    matches = [s for s in spans if s["name"] == name]
    if len(matches) != 1:
        raise ValueError(f"expected one {name} span, found {len(matches)}")
    return matches[0]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _busy(spans: list[dict]) -> float:
    """Time inside the stage spans under the CLI's root span, plus hook time."""
    stages = [s for s in spans if s["parent"] is not None]
    return sum(_dur(s) + s.get("after_s", 0.0) for s in stages)


def geometry_layers(traced: Op) -> dict:
    gen, val = traced.spans["generate"], traced.spans["validate"]
    plan = _one(gen, "wireframe.plan_segments")
    scan = _one(gen, "wireframe.count_degenerate_segments")
    tess = _one(gen, "wireframe.tessellate_segments")
    built = _one(gen, "mesh_io.validate")
    write = _one(gen, "mesh_io.write_stl")
    read = _one(val, "mesh_io.read_stl")
    reread = _one(val, "mesh_io.validate")
    segments = plan["counts"]["segments"]
    tris = tess["counts"]["triangles"]
    return {
        "plan.s": _dur(plan),
        "plan.us_per_segment": _dur(plan) / segments * 1e6,
        "plan.segments": segments,
        "plan.sphere_segments": scan["counts"]["spheres"],
        "plan.degenerate_scan_s": _dur(scan),
        "plan.duplicate_ratio": plan["counts"]["duplicates"] / segments,
        "tessellate.s": _dur(tess),
        "tessellate.triangles": tris,
        "tessellate.mtri_per_s": tris / _dur(tess) / 1e6,
        "rss.tessellate_mb": tess["rss_mb"],
        "validate_built.s": _dur(built),
        "validate_built.components": built["counts"]["components"],
        "validate_built.watertight_ratio": built["counts"]["watertight"] / built["counts"]["components"],
        "rss.validate_built_mb": built["rss_mb"],
        "write.s": _dur(write),
        "write.mb_per_s": write["counts"]["bytes"] / 1e6 / _dur(write),
        "rss.write_mb": write["rss_mb"],
        "read.s": _dur(read),
        "read.mb_per_s": read["counts"]["bytes"] / 1e6 / _dur(read),
        "read.weld_ratio": read["counts"]["vertices"] / (3 * read["counts"]["triangles"]),
        "rss.read_mb": read["rss_mb"],
        "validate_read.s": _dur(reread),
        "validate_read.components": reread["counts"]["components"],
        "validate_read.edge_manifold_ratio": reread["counts"]["edge_manifold"] / reread["counts"]["components"],
        "rss.validate_read_mb": reread["rss_mb"],
        # the traced process's wall time minus its stage spans and count hooks
        "cli.generate_overhead_s": traced.detail["generate_s"] - _busy(gen),
        "cli.validate_overhead_s": traced.detail["validate_s"] - _busy(val),
    }


# ---------------------------------------------------------------- a run


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _summary(values: list[float], unit: str) -> dict:
    """Median, nearest-rank 90th percentile and sample count."""
    ordered = sorted(values)
    p90 = ordered[math.ceil(0.9 * len(ordered)) - 1] if ordered else 0.0
    return {"median": _median(ordered), "p90": p90, "n": len(ordered), "unit": unit}


def _read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _commit() -> str | None:
    head = _read_text(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head.strip() if head else None
    ref = head[5:].strip()
    loose = _read_text(os.path.join(ROOT, ".git", ref))
    if loose:
        return loose.strip()
    for line in (_read_text(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_sha256() -> str:
    """Digest of the program's sources, which names the code under test when
    the checkout has no git metadata."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _last_level_cache() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read_text(os.path.join(base, index, "level"))
        size = _read_text(os.path.join(base, index, "size"))
        if level and size and (best is None or int(level) >= best[0]):
            best = (int(level), size.strip())
    return f"L{best[0]} {best[1]}" if best else None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    cpuinfo = _read_text("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.MULTILINE)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": model.group(1) if model else platform.processor(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_sha256(),
    }


@dataclass
class Run:
    """Everything one benchmark invocation measured."""

    setup: list[Child] = field(default_factory=list)
    setup_failed: int = 0
    ops: list[Op] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    probe_layers: list[str] = field(default_factory=list)
    spans: dict = field(default_factory=dict)

    def add(self, op: Op) -> Op:
        self.ops.append(op)
        self.errors += op.errors
        return op

    @property
    def setup_times(self) -> list[float]:
        """Timed set-up calls; the first call only warms the page cache, as
        repeated use of the CLI does."""
        return [c.wall_s for c in self.setup[1:]]

    @property
    def attempted(self) -> int:
        return len(self.setup) + len(self.ops)

    @property
    def failed(self) -> int:
        return self.setup_failed + sum(1 for op in self.ops if op.errors)


def run_workload(name: str, spec, seed: int, seconds: float, trace: bool, deadline: float) -> Run:
    run = Run()
    for _ in range(1 + SETUP_RUNS):
        child, errors = setup_run(deadline)
        run.setup.append(child)
        run.setup_failed += bool(errors)
        run.errors += errors

    if isinstance(spec, GeometrySpec):
        spec = spec.for_seed(seed)
        expect = expected_counts(spec)
        golden = GOLDEN_SHA256.get(name, "") if seed == 0 else None

        def next_op():
            return geometry_op(spec, expect, golden, deadline)
    else:
        rng = random.Random(seed) if seed else None

        def next_op():
            return homology_op(workload_inputs(spec.width, spec.height, rng))

    if not trace:
        # start another operation only while it is expected to end inside the
        # window, judged by the one before it, so the op count stays stable
        start = time.perf_counter()
        last = 0.0
        while not run.ops or time.perf_counter() - start + last <= min(
            seconds, deadline - start
        ):
            began = time.perf_counter()
            run.add(next_op())
            last = time.perf_counter() - began
        return run

    # every layer is traced: the workload's own, and the others on a tiny probe
    if isinstance(spec, GeometrySpec):
        geometry = (spec, expect, golden)
        grid_inputs = workload_inputs(PROBE_GRID.width, PROBE_GRID.height, None)
        run.probe_layers = ["topology"]
    else:
        geometry = (PROBE_GEOMETRY, expected_counts(PROBE_GEOMETRY), None)
        grid_inputs = workload_inputs(spec.width, spec.height, rng)
        run.probe_layers = ["geom", "wireframe", "mesh_io", "cli"]
    plain = run.add(geometry_op(*geometry, deadline))
    traced = run.add(geometry_op(*geometry, deadline, traced=True))
    if not (plain.errors or traced.errors):
        try:
            run.layers.update(geometry_layers(traced))
        except (KeyError, ValueError) as exc:  # a stage span or count is missing
            run.errors.append(f"trace: {exc!r}")
    layers, grid_plain, grid_traced = topology_layers(grid_inputs)
    run.add(grid_plain), run.add(grid_traced)
    run.layers.update(layers)
    run.spans = {**traced.spans, **grid_traced.spans}

    own = (plain, traced) if isinstance(spec, GeometrySpec) else (grid_plain, grid_traced)
    if not any(op.errors for op in own):
        run.layers["trace.overhead_s"] = own[1].op_s - own[0].op_s
    return run


def end_to_end(run: Run) -> dict:
    def med(attr):
        return _median([getattr(op, attr) for op in run.ops if getattr(op, attr) is not None])

    return {
        "setup_s": _median(run.setup_times),
        "op_s": med("op_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


STEP_UNITS = {
    "generate_s": "s",
    "validate_s": "s",
    "generate_peak_rss_mb": "MiB",
    "validate_peak_rss_mb": "MiB",
    "stl_mb": "MB",
    "homology_s": "s",
    "topology_build_s": "s",
}


def step_summaries(run: Run) -> dict:
    """The per-step figures by their CLI names, as median / p90 / n."""
    out = {"setup_s": _summary(run.setup_times, "s")}
    for key, unit in STEP_UNITS.items():
        values = [op.detail[key] for op in run.ops if key in op.detail]
        if values:
            out[key] = _summary(values, unit)
    return out


def metric_table(section: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[section]


def measure(workload: str, seed: int, seconds: float, trace: int) -> None:
    """Run one workload and print its report line, then its result line."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    run = run_workload(workload, WORKLOADS[workload], seed, seconds, bool(trace), deadline)
    if trace:
        table, values = metric_table("per_layer"), run.layers
    else:
        table, values = metric_table("end_to_end"), end_to_end(run)
    missing = [m["name"] for m in table if m["name"] not in values]
    errors = run.errors + [f"metric not measured: {name}" for name in missing]
    report = {
        "environment": environment(workload, seed, seconds, trace),
        "steps": step_summaries(run),
        "probe_layers": run.probe_layers,
        "stl_sha256": sorted({op.detail["stl_sha256"] for op in run.ops if "stl_sha256" in op.detail}),
        "errors": errors,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": values}, fh, indent=1)
    if run.spans:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(run.spans, fh)
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and not missing,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in table
                },
            }
        ),
        flush=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
        help="'all' runs every workload in turn, each printing its two lines",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "identispace", "cli.py")):
        print(f"error: no identispace sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so none inherits another's memory high-water mark
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w, *common]).returncode
            for w in sorted(WORKLOADS)
        ]
        return max(codes)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    measure(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
