import errno
import importlib.util
import io
import json
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from identispace import cli, mesh_io
from identispace.cli import CONFIG_ENV_VAR, load_config_file, main, resolve_config
from identispace.geom import SurfaceKind, SurfaceParams
from identispace.mesh_io import TriangleMesh, write_stl
from identispace.wireframe import WireframeSpec, capsule_counts, sphere_counts

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SMALL = [
    "--lat-ribs", "3", "--long-ribs", "3",
    "--outer-density", "1", "--inner-density", "1",
    "--resolution", "4",
]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def python_path(*dirs: Path) -> dict[str, str]:
    """The environment with ``dirs`` put in front of ``PYTHONPATH``."""
    paths = [str(d) for d in dirs] + [os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def open_tetra_stl() -> bytes:
    vertices = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], float)
    faces = np.array([(0, 2, 1), (0, 1, 3), (0, 3, 2)], np.int32)
    return write_stl(TriangleMesh(vertices, faces))


# --- generate ----------------------------------------------------------------


def test_generate_writes_file_with_size_law(tmp_path, capsys):
    out = tmp_path / "torus.stl"
    code, text, _ = run(["generate", "--surface", "torus", *SMALL, "--output", str(out)], capsys)
    assert code == 0
    data = out.read_bytes()
    n = struct.unpack_from("<I", data, 80)[0]
    assert len(data) == 84 + 50 * n
    assert f"triangles: {n}" in text
    assert "watertight: 56/56" in text


def test_generate_rejects_zero_thickness(tmp_path, capsys):
    code, _, err = run(
        ["generate", "--surface", "klein", "--thickness", "0",
         "--output", str(tmp_path / "x.stl")],
        capsys,
    )
    assert code == 2
    assert "thickness" in err


def test_generate_roman_reports_degenerate_capsules(tmp_path, capsys):
    # pinch circles land on grid columns when lat_ribs is divisible by 4
    out = tmp_path / "roman.stl"
    code, text, _ = run(
        ["generate", "--surface", "roman", "--lat-ribs", "4", "--long-ribs", "4",
         "--outer-density", "1", "--inner-density", "1", "--resolution", "4",
         "--output", str(out)],
        capsys,
    )
    assert code == 0
    fields = dict(l.split(": ", 1) for l in text.splitlines() if ": " in l)
    spheres = int(fields["sphere_degenerate_capsules"])
    assert spheres >= 1
    # every sphere and every remaining capsule shows up in the mesh
    segments = (2 * 4 + 1) * (4 + 1) * (1 + 1)
    assert int(fields["triangles"]) == (
        spheres * sphere_counts(4)[1] + (segments - spheres) * capsule_counts(4)[1]
    )


@pytest.mark.parametrize(
    "argv, config",
    [
        (["generate", "--thickness", "nan"], None),
        (["generate", "--surface", "klein", "--amplitude", "nan"], None),
        (["generate", "--surface", "torus"], "thickness = inf\n"),
        (["sample", "--outer-radius", "inf", "0", "0"], None),
        (["sample", "inf", "0"], None),
        # i is finite but its angle i * 360 / lat_ribs overflows
        (["sample", "--", "-1e308", "0"], None),
        (["sample", "nan", "0"], None),
    ],
)
def test_non_finite_values_rejected(tmp_path, capsys, argv, config):
    out = tmp_path / "x.stl"
    if argv[0] == "generate":
        argv = [*argv, "--output", str(out)]
    if config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    code, text, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and "finite" in err
    assert text == ""
    assert not out.exists()


def test_generate_rejects_spec_past_stl_triangle_limit(tmp_path, capsys, monkeypatch):
    # 56 capsules of 4 * 20000 * 40000 = 3.2e9 triangles each; the check must
    # come before tessellation, which would otherwise allocate them
    def no_tessellation(*_args):
        raise AssertionError("tessellated a spec past the STL limit")

    monkeypatch.setattr(cli, "tessellate_segments", no_tessellation)
    out = tmp_path / "x.stl"
    small = [*SMALL[:-1], "40000"]
    code, text, err = run(["generate", *small, "--output", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and "STL limit" in err
    assert str(56 * capsule_counts(40000)[1]) in err
    assert text == ""
    assert not out.exists()


def fail_if_called(name):
    def stage(*_args):
        raise AssertionError(f"{name} ran on a spec that must be rejected first")

    return stage


def test_generate_rejects_huge_grid_before_planning(tmp_path, capsys, monkeypatch):
    # about 3.2e11 segments: planning alone would need terabytes
    monkeypatch.setattr(cli, "plan_segments", fail_if_called("plan_segments"))
    out = tmp_path / "x.stl"
    argv = ["generate", "--lat-ribs", "100000", "--long-ribs", "100000", "--output", str(out)]
    code, text, err = run(argv, capsys)
    segments = 200001 * 100001 * 16
    assert code == 2
    assert err == (
        f"error: {segments * sphere_counts(12)[1]} to {segments * capsule_counts(12)[1]}"
        " triangles exceed the 32-bit STL limit\n"
    )
    assert text == ""
    assert not out.exists()


def test_generate_counts_spheres_before_the_exact_limit_check(tmp_path, capsys, monkeypatch):
    # 98 struts at resolution 4681: as spheres they would fit under 2^32
    # triangles, but these are all capsules, which do not
    monkeypatch.setattr(cli, "tessellate_segments", fail_if_called("tessellate_segments"))
    out = tmp_path / "x.stl"
    argv = ["generate", "--lat-ribs", "3", "--long-ribs", "6", "--outer-density", "1",
            "--inner-density", "1", "--resolution", "4681", "--output", str(out)]
    assert 98 * sphere_counts(4681)[1] < 2**32 <= 98 * capsule_counts(4681)[1]
    code, text, err = run(argv, capsys)
    assert code == 2
    assert err == f"error: {98 * capsule_counts(4681)[1]} triangles exceed the 32-bit STL limit\n"
    assert text == ""
    assert not out.exists()


def test_generate_unwritable_output_fails_before_building(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "tessellate_segments", fail_if_called("tessellate_segments"))
    out = tmp_path / "missing" / "x.stl"
    code, text, err = run(["generate", *SMALL, "--output", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {out}:")
    assert text == ""
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_generate_empty_output_path_fails_before_building(tmp_path, capsys, monkeypatch, how):
    # "" is a path like any other, not an unset --output that falls back to torus.stl
    monkeypatch.setattr(cli, "tessellate_segments", fail_if_called("tessellate_segments"))
    monkeypatch.chdir(tmp_path)
    if how == "flag":
        argv = ["generate", *SMALL, "--output", ""]
    else:
        (tmp_path / "run.cfg").write_text("output =\n")
        argv = ["generate", *SMALL, "--config", "run.cfg"]
    code, text, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: cannot write :")
    assert text == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if how == "config" else [])


def test_generate_non_finite_surface_rejected(tmp_path, capsys):
    out = tmp_path / "x.stl"
    argv = ["generate", "--surface", "roman", "--outer-radius", "1e200", *SMALL,
            "--output", str(out)]
    code, text, err = run(argv, capsys)
    assert code == 2
    assert err == "error: the roman surface is not finite on this grid\n"
    assert text == ""
    assert not out.exists()


def test_generate_past_float32_range_reports_one_error(tmp_path):
    # a subprocess, so that a numpy warning would show on the real stderr
    for flags in (["--outer-radius", "1e39", "--inner-radius", "1e38"], ["--thickness", "1e200"]):
        argv = ["generate", *flags, *SMALL]
        proc = subprocess.run(
            [sys.executable, "-m", "identispace.cli", *argv],
            cwd=tmp_path,
            env=python_path(ROOT / "src"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error:") and "float32" in proc.stderr
        assert not (tmp_path / "torus.stl").exists()


@pytest.mark.parametrize(
    "flags",
    [["--thickness", "1e200"], ["--outer-radius", "1e39", "--inner-radius", "1e38"]],
)
def test_generate_past_float32_range_fails_before_building(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setattr(cli, "tessellate_segments", fail_if_called("tessellate_segments"))
    out = tmp_path / "x.stl"
    code, text, err = run(["generate", *flags, *SMALL, "--output", str(out)], capsys)
    assert code == 2
    assert err == "error: the model reaches past the float32 range of STL coordinates\n"
    assert text == ""
    assert not out.exists()


def test_generate_ascii_mode(tmp_path, capsys):
    out = tmp_path / "t.stl"
    code, text, _ = run(
        ["generate", "--surface", "torus", *SMALL, "--ascii", "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_bytes().startswith(b"solid identispace-forge")


@pytest.mark.parametrize("surface", ["torus", "klein", "roman"])
def test_generate_does_not_depend_on_validate_blocks(tmp_path, capsys, monkeypatch, surface):
    # a draft grid; roman with lat-ribs 4 has sphere struts among its capsules
    out = tmp_path / "m.stl"
    argv = ["generate", "--surface", surface, "--lat-ribs", "4", "--long-ribs", "8",
            "--outer-density", "2", "--inner-density", "2", "--resolution", "6",
            "--output", str(out)]
    cuts, seen = mesh_io._cuts, []

    def recorded(tris):
        seen.append(cuts(tris))
        return seen[-1]

    monkeypatch.setattr(mesh_io, "_cuts", recorded)
    runs = []
    for block in (mesh_io._BLOCK, 1000):
        monkeypatch.setattr(mesh_io, "_BLOCK", block)
        runs.append((*run(argv, capsys), out.read_bytes()))
    assert seen[0] == [] and len(seen[1]) >= 4  # one block, then several
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].startswith("triangles: ")


@pytest.mark.parametrize("surface", ["torus", "klein", "roman"])
def test_validate_does_not_depend_on_bands(tmp_path, capsys, monkeypatch, surface):
    # the read-back draft grid is one block, checked in one band, then in several
    out = tmp_path / "m.stl"
    assert run(["generate", "--surface", surface, "--lat-ribs", "4", "--long-ribs", "8",
                "--outer-density", "2", "--inner-density", "2", "--resolution", "6",
                "--output", str(out)], capsys)[0] == 0
    counts, seen = mesh_io._band_counts, []

    def recorded(tris, bounds):
        seen.append(len(bounds) - 1)
        return counts(tris, bounds)

    monkeypatch.setattr(mesh_io, "_band_counts", recorded)
    runs = []
    for block in (mesh_io._BLOCK, 1000):
        monkeypatch.setattr(mesh_io, "_BLOCK", block)
        runs.append(run(["validate", str(out)], capsys))
    assert seen[:2] == [1, 1] and len(seen) == 4 and seen[2] == seen[3] >= 3  # a call per half
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].startswith("triangles: ")


def test_generate_legacy_overshoot_produces_more_capsules(tmp_path, capsys):
    base = tmp_path / "a.stl"
    legacy = tmp_path / "b.stl"
    run(["generate", "--surface", "torus", *SMALL, "--output", str(base)], capsys)
    run(["generate", "--surface", "torus", *SMALL, "--legacy-overshoot",
         "--output", str(legacy)], capsys)
    n_base = struct.unpack_from("<I", base.read_bytes(), 80)[0]
    n_legacy = struct.unpack_from("<I", legacy.read_bytes(), 80)[0]
    assert n_legacy == 2 * n_base  # 112 vs 56 capsules


def test_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.stl"
    b = tmp_path / "b.stl"
    args = ["generate", "--surface", "klein", *SMALL]
    assert run([*args, "--output", str(a)], capsys)[0] == 0
    assert run([*args, "--output", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


# The report of ``generate *SMALL`` and of ``validate`` on its file.
SMALL_GENERATE = """\
triangles: 1792
components: 56
watertight: 56/56
edge_manifold: 56/56
euler_characteristic: 2
boundary_edges: 0
degenerate_triangles: 0
bbox_min: -21.2 -35.841 -9.86025
bbox_max: 41.1591 35.841 9.86025
sphere_degenerate_capsules: 0
"""
SMALL_VALIDATE = """\
triangles: 1792
components: 6
watertight: 6/6
edge_manifold: 0/6
euler_characteristic: 34..726
boundary_edges: 0
degenerate_triangles: 0
bbox_min: -21.2 -35.841 -9.86025
bbox_max: 41.1591 35.841 9.86025
"""


def small_stl(tmp_path, *flags) -> bytes:
    path = tmp_path / "small.stl"
    assert main(["generate", *SMALL, *flags, "--output", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("flags, size", [([], 89684), (["--ascii"], 387742)])
def test_generate_to_dev_null(tmp_path, capsys, flags, size):
    # a device cannot be mapped, so the file is written whole, as to a pipe
    assert len(small_stl(tmp_path, *flags)) == size
    capsys.readouterr()
    code, text, err = run(["generate", *SMALL, *flags, "--output", os.devnull], capsys)
    assert (code, text, err) == (0, SMALL_GENERATE + f"file: {os.devnull} ({size} bytes)\n", "")
    assert os.path.exists(os.devnull)


def read_fifo(path, into: list) -> threading.Thread:
    def reader():
        with open(path, "rb") as fh:
            into.append(fh.read())
    thread = threading.Thread(target=reader)
    thread.start()
    return thread


def test_generate_to_a_fifo(tmp_path, capsys):
    expected = small_stl(tmp_path)
    capsys.readouterr()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = read_fifo(fifo, got)
    code, text, err = run(["generate", *SMALL, "--output", str(fifo)], capsys)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert (code, text, err) == (0, SMALL_GENERATE + f"file: {fifo} (89684 bytes)\n", "")
    assert got == [expected]


def test_generate_to_a_write_only_file(tmp_path, capsys, monkeypatch):
    # a file its owner may write but not read cannot be opened read-write, nor
    # mapped through a write-only descriptor, so it is written whole
    expected = small_stl(tmp_path)
    capsys.readouterr()

    def no_read(path, mode="r", *args, **kw):
        if "+" in mode:
            raise PermissionError(13, "Permission denied", path)
        return open(path, mode, *args, **kw)

    monkeypatch.setattr(cli, "open", no_read, raising=False)
    out = tmp_path / "w.stl"
    code, text, err = run(["generate", *SMALL, "--output", str(out)], capsys)
    assert (code, text, err) == (0, SMALL_GENERATE + f"file: {out} (89684 bytes)\n", "")
    assert out.read_bytes() == expected


def test_generate_cannot_preallocate_fails_before_building(tmp_path, capsys, monkeypatch):
    # a full disk or quota fails at the preallocation, never as SIGBUS on a mapped page
    def no_space(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "posix_fallocate", no_space)
    monkeypatch.setattr(cli, "tessellate_segments", fail_if_called("tessellate_segments"))
    out = tmp_path / "x.stl"
    code, text, err = run(["generate", *SMALL, "--output", str(out)], capsys)
    assert code == 2
    assert err == f"error: cannot write {out}: [Errno 28] No space left on device\n"
    assert text == ""
    assert not out.exists()


def test_generate_failure_removes_only_a_regular_output(tmp_path, capsys, monkeypatch):
    def past_float32(*_args, **_kw):
        raise ValueError("a vertex is not finite in float32, the STL coordinate type")

    monkeypatch.setattr(cli, "write_stl", past_float32)
    out, fifo = tmp_path / "x.stl", tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = read_fifo(fifo, got)
    for path in (fifo, out):  # the FIFO first, so that its reader ends even if this fails
        code, text, err = run(["generate", *SMALL, "--output", str(path)], capsys)
        assert (code, text) == (2, "")
        assert err == "error: a vertex is not finite in float32, the STL coordinate type\n"
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert not out.exists()
    assert fifo.exists() and got == [b""]


def raises(exc):
    def stage(*_args, **_kw):
        raise exc

    return stage


def test_generate_out_of_memory_removes_only_a_regular_output(tmp_path, capsys, monkeypatch):
    # the file is preallocated before tessellation, which may then run out of memory
    monkeypatch.setattr(cli, "tessellate_segments", raises(MemoryError()))
    out, fifo = tmp_path / "x.stl", tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = read_fifo(fifo, got)
    for path in (fifo, out):  # the FIFO first, so that its reader ends even if this fails
        assert run(["generate", *SMALL, "--output", str(path)], capsys) \
            == (2, "", "error: out of memory\n")
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert not out.exists()
    assert fifo.exists() and got == [b""]


class FullDisk(io.BufferedRandom):
    """A read-write file that runs out of space once its first line is written."""

    def write(self, data):
        if self.tell():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


@pytest.mark.parametrize("failure", ["memory", "disk"])
def test_generate_ascii_failure_after_the_solid_line_removes_it(tmp_path, capsys, monkeypatch,
                                                                failure):
    # the text is streamed into the file, so a failure leaves part of it on disk
    out, digits, on_disk = tmp_path / "x.stl", mesh_io._digits, []

    def second_fails(values):
        on_disk.append(out.read_bytes())
        if len(on_disk) == 2 and failure == "memory":
            raise MemoryError
        return digits(values)

    monkeypatch.setattr(mesh_io, "_digits", second_fails)
    if failure == "disk":
        monkeypatch.setattr(cli, "_open_output", lambda path: FullDisk(io.FileIO(path, "w+")))
    err = {"memory": "error: out of memory\n",
           "disk": f"error: cannot write {out}: [Errno 28] No space left on device\n"}[failure]
    assert run(["generate", *SMALL, "--ascii", "--output", str(out)], capsys) == (2, "", err)
    assert on_disk == [b"solid identispace-forge\n"] * 2
    assert not out.exists()


def test_generate_interrupted_removes_its_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "validate", raises(KeyboardInterrupt()))
    out = tmp_path / "x.stl"
    with pytest.raises(KeyboardInterrupt):
        main(["generate", *SMALL, "--output", str(out)])
    assert not out.exists()


def test_validate_out_of_memory(tmp_path, capsys, monkeypatch):
    path = tmp_path / "open.stl"
    path.write_bytes(open_tetra_stl())
    monkeypatch.setattr(cli, "read_stl", raises(MemoryError()))
    assert run(["validate", str(path)], capsys) == (2, "", "error: out of memory\n")


# --- validate ----------------------------------------------------------------


def test_validate_own_output(tmp_path, capsys):
    out = tmp_path / "t.stl"
    run(["generate", "--surface", "torus", *SMALL, "--output", str(out)], capsys)
    code, text, _ = run(["validate", str(out)], capsys)
    assert code == 0
    assert "boundary_edges: 0" in text


def test_validate_truncated_file(tmp_path, capsys):
    out = tmp_path / "t.stl"
    run(["generate", "--surface", "torus", *SMALL, "--output", str(out)], capsys)
    data = out.read_bytes()
    out.write_bytes(data[:-1])
    code, _, err = run(["validate", str(out)], capsys)
    assert code == 2
    assert "mismatch" in err or "truncated" in err


def test_validate_open_surface(tmp_path, capsys):
    path = tmp_path / "open.stl"
    path.write_bytes(open_tetra_stl())
    code, text, _ = run(["validate", str(path)], capsys)
    assert code == 1
    assert "boundary_edges: 3" in text


def test_validate_non_finite_file(tmp_path, capsys):
    data = bytearray(open_tetra_stl())
    struct.pack_into("<f", data, 84 + 12, float("-inf"))  # facet 0, corner 0, x
    path = tmp_path / "inf.stl"
    path.write_bytes(bytes(data))
    code, text, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert text == ""
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.parametrize("vertex_lines,reason", [
    (["vertex 1 2"], "1 facets need 3 vertex rows"),
    (["vertex 1 2", "vertex 1 2 3", "vertex 1 2 3"], "malformed vertex row"),
])
def test_validate_malformed_ascii_reports_the_ascii_error(tmp_path, capsys, vertex_lines, reason):
    # the binary fallback fails too; its length error must not hide the real fault
    lines = ["solid x", "facet normal 0 0 1", "outer loop", *vertex_lines, "endloop", "endfacet",
             "endsolid x"]
    path = tmp_path / "malformed.stl"
    path.write_text("\n".join(lines) + "\n")
    code, text, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert text == ""
    assert err.startswith(f"error: {reason}")
    assert "length mismatch" not in err and "Traceback" not in err


def test_validate_past_the_vertex_index_exits_2(tmp_path, capsys, monkeypatch):
    # the open tetrahedron has 4 distinct vertices; a limit of 4 stands in for 2**31
    path = tmp_path / "open.stl"
    path.write_bytes(open_tetra_stl())
    monkeypatch.setattr(mesh_io, "_VERTEX_LIMIT", 4)
    code, text, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert text == ""
    assert err == "error: STL has more than 3 distinct vertices, past the int32 vertex index\n"


def test_validate_missing_file(capsys):
    code, _, err = run(["validate", "/nonexistent/file.stl"], capsys)
    assert code == 2


def test_validate_empty_file(tmp_path, capsys):
    # an empty file cannot be mapped; it is read, and is too short for a header
    path = tmp_path / "empty.stl"
    path.write_bytes(b"")
    assert run(["validate", str(path)], capsys) == (
        2, "", "error: truncated STL: 0 bytes, header needs 84\n")


def test_validate_a_fifo(tmp_path, capsys):
    data = small_stl(tmp_path)
    capsys.readouterr()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def writer():
        with open(fifo, "wb") as fh:
            fh.write(data)
    thread = threading.Thread(target=writer)
    thread.start()
    result = run(["validate", str(fifo)], capsys)
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert result == (0, SMALL_VALIDATE, "")


@pytest.mark.parametrize("stdin", ["pipe", "file"])
def test_validate_dev_stdin(tmp_path, stdin):
    # a pipe cannot be mapped and is read; a file behind standard input is mapped
    data = small_stl(tmp_path)
    argv = [sys.executable, "-m", "identispace.cli", "validate", "/dev/stdin"]
    options = dict(env=python_path(ROOT / "src"), capture_output=True, timeout=120)
    if stdin == "pipe":
        proc = subprocess.run(argv, input=data, **options)
    else:
        with open(tmp_path / "small.stl", "rb") as fh:
            proc = subprocess.run(argv, stdin=fh, **options)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (0, SMALL_VALIDATE, "")


# --- homology ----------------------------------------------------------------


def test_homology_sphere(capsys):
    code, text, _ = run(["homology", "--space", "sphere"], capsys)
    assert code == 0
    assert text.splitlines() == [
        "H_0(sphere) = Z",
        "H_1(sphere) = 0",
        "H_2(sphere) = Z",
    ]


def test_homology_klein_h1(capsys):
    code, text, _ = run(["homology", "--space", "klein", "--dim", "1"], capsys)
    assert code == 0
    assert text.strip() == "H_1(klein) = Z + Z/2"


def test_homology_circle_dim1(capsys):
    code, text, _ = run(["homology", "--space", "circle", "--dim", "1"], capsys)
    assert code == 0
    assert text.strip() == "H_1(circle) = Z"


def test_homology_dim_out_of_range(capsys):
    code, _, err = run(["homology", "--space", "circle", "--dim", "5"], capsys)
    assert code == 2
    assert "--dim" in err


@pytest.mark.parametrize("env", [False, True])
def test_homology_dim_out_of_range_names_its_source(tmp_path, monkeypatch, capsys, env):
    cfg_path = tmp_path / "d.cfg"
    cfg_path.write_text("dim = 7\n")
    if env:
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_path))
        argv = ["homology"]
    else:
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        argv = ["homology", "--config", str(cfg_path)]
    assert run(argv, capsys) == (2, "", f"error: {cfg_path}: dim 7 outside 0..2 for sphere\n")
    # a flag beats the file, and the message names the flag
    assert run([*argv, "--dim", "5"], capsys) == (2, "", "error: --dim 5 outside 0..2 for sphere\n")


def test_homology_rp2(capsys):
    code, text, _ = run(["homology", "--space", "rp2"], capsys)
    assert code == 0
    assert "H_1(rp2) = Z/2" in text


# --- sample ------------------------------------------------------------------


def test_sample_outputs(capsys):
    assert run(["sample", "--surface", "torus", "0", "0"], capsys)[1].strip() == "40 0 0"
    assert run(["sample", "--surface", "roman", "0", "0"], capsys)[1].strip() == "0 0 0"
    assert run(["sample", "--surface", "klein", "0", "0"], capsys)[1].strip() == "30 2.5 0"


@pytest.mark.parametrize(
    "argv, message",
    [
        # i and j are finite; the angle i * 360 / lat_ribs is not
        (["--surface", "roman", "1e308", "0"], "point at (1e+308, 0.0) is not finite"),
        (["--", "-1e308", "0"], "point at (-1e+308, 0.0) is not finite"),
        # the surface is checked first and keeps its own message
        (["--outer-radius", "inf", "1e308", "0"], "outer_radius must be finite, got inf"),
    ],
)
def test_sample_angle_overflow_reports_the_point(capsys, argv, message):
    code, text, err = run(["sample", *argv], capsys)
    assert code == 2
    assert text == ""
    assert err == f"error: {message}\n"


# --- argument handling -------------------------------------------------------


def test_unknown_surface_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--surface", "moebius"])
    assert exc.value.code == 2


def test_missing_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- config file layering ----------------------------------------------------


def test_config_file_overrides_defaults(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment line\n"
        "thickness = 2.5\n"
        "lat-ribs = 6   # trailing comment\n"
        "ascii = true\n"
    )
    values = load_config_file(str(cfg_path))
    assert values == {"thickness": 2.5, "lat-ribs": 6, "ascii": True}


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("lat_ribs = 6\n")  # keys use hyphens, not underscores
    code, _, err = run(
        ["sample", "--surface", "torus", "--config", str(cfg_path), "0", "0"], capsys
    )
    assert code == 2
    assert "unknown config key" in err


def test_flag_precedence_three_layers(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("thickness = 2.0\nlat-ribs = 6\n")
    args = cli.build_parser().parse_args(
        ["generate", "--config", str(cfg_path), "--thickness", "3"]
    )
    spec = cli.wireframe_spec(resolve_config(args))
    assert spec.thickness == 3.0  # flag beats config
    assert spec.surface.lat_ribs == 6  # config beats default
    default = WireframeSpec(SurfaceParams(SurfaceKind.TORUS))
    assert spec.surface.long_ribs == default.surface.long_ribs  # default survives
    assert args.long_ribs is None  # the default is the library's, not a copy


def test_config_env_var(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "env.cfg"
    cfg_path.write_text("outer-radius = 7\ninner-radius = 2\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg_path))
    code, text, _ = run(["sample", "--surface", "torus", "0", "0"], capsys)
    assert code == 0
    assert text.strip() == "9 0 0"  # R + r from the env config


def test_explicit_config_beats_env(tmp_path, monkeypatch, capsys):
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("outer-radius = 7\ninner-radius = 2\n")
    flag_cfg = tmp_path / "flag.cfg"
    flag_cfg.write_text("outer-radius = 20\ninner-radius = 5\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
    code, text, _ = run(
        ["sample", "--surface", "torus", "--config", str(flag_cfg), "0", "0"], capsys
    )
    assert code == 0
    assert text.strip() == "25 0 0"


@pytest.mark.parametrize("env", [False, True])
def test_empty_config_flag_is_an_unreadable_path(tmp_path, monkeypatch, capsys, env):
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("outer-radius = 7\ninner-radius = 2\n")
    if env:
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
    else:
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    code, text, err = run(["sample", "--surface", "torus", "--config", "", "0", "0"], capsys)
    assert (code, text) == (2, "")
    assert err.startswith("error: cannot read config file :")


def test_empty_config_env_var_is_unset(monkeypatch, capsys):
    monkeypatch.setenv(CONFIG_ENV_VAR, "")
    default = run(["sample", "--surface", "torus", "0", "0"], capsys)
    monkeypatch.delenv(CONFIG_ENV_VAR)
    assert default == run(["sample", "--surface", "torus", "0", "0"], capsys)
    assert default[0] == 0 and default[2] == ""


def test_malformed_config_line(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("thickness 2.0\n")
    code, _, err = run(
        ["sample", "--surface", "torus", "--config", str(cfg_path), "0", "0"], capsys
    )
    assert code == 2
    assert "key = value" in err


def test_bad_config_value(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("ascii = maybe\n")
    code, _, err = run(
        ["sample", "--surface", "torus", "--config", str(cfg_path), "0", "0"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["homology"], "space = foo"),
        (["generate"], "surface = cube"),
        (["sample", "0", "0"], "surface = cube"),
    ],
)
def test_config_choice_outside_flag_choices(tmp_path, capsys, argv, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"# run\n{line}\n")
    out = tmp_path / "x.stl"
    extra = ["--output", str(out)] if argv[0] == "generate" else []
    code, text, err = run([argv[0], "--config", str(cfg_path), *extra, *argv[1:]], capsys)
    key = line.split()[0]
    assert code == 2
    assert err.startswith(f"error: {cfg_path}:2: bad value for {key}")
    assert "Traceback" not in err
    assert text == ""
    assert not out.exists()


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(b"thickness = 2\xff\n")
    code, text, err = run(["sample", "--config", str(cfg_path), "0", "0"], capsys)
    assert code == 2
    assert text == ""
    assert err.startswith(f"error: cannot read config file {cfg_path}:")
    assert len(err.splitlines()) == 1


# one (command, good value, bad value) per config key; the bad value is None
# where a flag cannot carry one
CONFIG_KEYS = {
    "surface": ("generate", "klein", "cube"),
    "outer-radius": ("generate", "25.5", "wide"),
    "inner-radius": ("generate", "4.5", "x"),
    "lat-ribs": ("generate", "6", "6.5"),
    "long-ribs": ("generate", "9", "many"),
    "amplitude": ("generate", "0.5", "a"),
    "outer-density": ("generate", "3", "1.5"),
    "inner-density": ("generate", "2", "two"),
    "thickness": ("generate", "2", "thick"),
    "resolution": ("generate", "6", "6.0"),
    "legacy-overshoot": ("generate", "true", None),
    "output": ("generate", "m.stl", None),
    "ascii": ("generate", "true", None),
    "space": ("homology", "rp2", "cube"),
    "dim": ("homology", "1", "one"),
}


def test_config_keys_cover_every_option():
    assert set(CONFIG_KEYS) == set(cli._OPTIONS) - {"config"}


def resolved(argv) -> dict:
    """The options of ``argv`` after the config layer, without ``--config`` itself."""
    options = vars(resolve_config(cli.build_parser().parse_args(argv)))
    del options["config"]
    return options


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_config_line_and_flag_resolve_alike(tmp_path, monkeypatch, key):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    command, good, _ = CONFIG_KEYS[key]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{key} = {good}\n")
    from_file = resolved([command, "--config", str(cfg_path)])
    flag = [f"--{key}"] if good == "true" else [f"--{key}", good]
    from_flag = resolved([command, *flag])
    assert from_file == from_flag != resolved([command])


@pytest.mark.parametrize("key", sorted(k for k, case in CONFIG_KEYS.items() if case[2]))
def test_bad_config_value_and_bad_flag_exit_2(tmp_path, capsys, key):
    command, _, bad = CONFIG_KEYS[key]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"{key} = {bad}\n")
    code, text, err = run([command, "--config", str(cfg_path)], capsys)
    assert code == 2
    assert text == ""
    assert err.startswith(f"error: {cfg_path}:1: bad value for {key}")
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{key}", bad])
    assert exc.value.code == 2


class Planned(Exception):
    """Stops ``generate`` at its first layer call."""


def plan_calls(monkeypatch, argv) -> list:
    """The arguments each ``plan_segments`` call of ``generate`` gets; it stops at the first."""
    calls = []

    def plan(*args, **kwargs):
        calls.append((args, kwargs))
        raise Planned

    monkeypatch.setattr(cli, "plan_segments", plan)
    with pytest.raises(Planned):
        main(["generate", *argv])
    return calls


def test_generate_defaults_are_the_library_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    assert plan_calls(monkeypatch, []) == [((WireframeSpec(SurfaceParams(SurfaceKind.TORUS)),), {})]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--legacy-overshoot"], ["--config", "run.cfg"]],
                         ids=["flag", "config"])
def test_legacy_overshoot_reaches_the_plan_in_its_spec(tmp_path, monkeypatch, argv):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("legacy-overshoot = true\n")
    spec = WireframeSpec(SurfaceParams(SurfaceKind.TORUS), legacy_overshoot=True)
    assert plan_calls(monkeypatch, argv) == [((spec,), {})]


def test_one_config_file_serves_every_subcommand(tmp_path, capsys, monkeypatch):
    # each subcommand takes its own keys from the file and ignores the others
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "surface = klein\nlat-ribs = 6\noutput = cfg.stl\nspace = rp2\ndim = 1\n"
    )
    config = ["--config", "run.cfg"]
    small = ["--long-ribs", "3", "--outer-density", "1", "--inner-density", "1",
             "--resolution", "4"]
    flags = ["--surface", "klein", "--lat-ribs", "6"]

    by_file = run(["generate", *config, *small], capsys)
    by_flag = run(["generate", *flags, *small, "--output", "flag.stl"], capsys)
    assert by_file[0] == by_flag[0] == 0
    assert by_file[1] == by_flag[1].replace("flag.stl", "cfg.stl")
    assert (tmp_path / "cfg.stl").read_bytes() == (tmp_path / "flag.stl").read_bytes()

    assert run(["homology", *config], capsys) == (0, "H_1(rp2) = Z/2\n", "")

    by_file = run(["sample", *config, "1.5", "2"], capsys)
    assert by_file == run(["sample", *flags, "1.5", "2"], capsys)
    assert by_file[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.stl", "flag.stl", "run.cfg"]


# --- process contract --------------------------------------------------------


def test_import_leaves_scipy_unloaded():
    # no command imports scipy, not even the print round trip of write, read and
    # validate; the thread pool of validate, read_stl and write_stl is imported by
    # them alone, so homology and sample do not pay for it
    code = ("import sys, numpy as np, identispace.cli; "
            "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules); "
            "from identispace.mesh_io import TriangleMesh, read_stl, validate, write_stl; "
            "mesh = TriangleMesh(np.eye(4, 3), [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]); "
            "report = validate(read_stl(bytes(write_stl(mesh)))); "
            "print(report.component_count, report.all_watertight, 'scipy' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=python_path(ROOT / "src"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False False\n1 True False\n"), proc.stderr


def load_benchmark():
    """``perfbench/run.py`` as a module, with its sibling modules importable."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        patch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


def test_traced_cli_reports_every_layer_once(tmp_path):
    """The benchmark's traced run wraps the ``cli`` names of the layer calls and
    reads one span per layer, plus the byte counts of the written and read file."""
    bench = load_benchmark()
    stl = tmp_path / "probe.stl"
    commands = {
        "generate": ["generate", *bench.PROBE_GEOMETRY.cli_args(), "--output", str(stl)],
        "validate": ["validate", str(stl)],
    }
    spans = {}
    for step, argv in commands.items():
        spans_path = tmp_path / f"{step}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path), *argv],
            env=python_path(ROOT / "src", PERFBENCH),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        spans[step] = json.loads(spans_path.read_text())

    layers = {
        "generate": ["wireframe.plan_segments", "wireframe.count_degenerate_segments",
                     "wireframe.tessellate_segments", "mesh_io.validate", "mesh_io.write_stl"],
        "validate": ["mesh_io.read_stl", "mesh_io.validate"],
    }
    for step, names in layers.items():
        recorded = [span["name"] for span in spans[step]]
        assert {name: recorded.count(name) for name in names} == dict.fromkeys(names, 1)
    size = stl.stat().st_size
    (write,) = (s for s in spans["generate"] if s["name"] == "mesh_io.write_stl")
    (read,) = (s for s in spans["validate"] if s["name"] == "mesh_io.read_stl")
    assert write["counts"]["bytes"] == read["counts"]["bytes"] == size
    # the benchmark's own reader of the spans accepts them
    bench.geometry_layers(bench.Op(spans=spans, detail={"generate_s": 1.0, "validate_s": 1.0}))


def test_benchmark_checks_pass_on_its_probes(tmp_path, monkeypatch):
    """The benchmark's own checks accept the program on its probe inputs, so a
    change to what it imports, calls or parses fails here first."""
    bench = load_benchmark()
    monkeypatch.setattr(bench, "SRC", str(ROOT / "src"))
    expect = bench.expected_counts(bench.PROBE_GEOMETRY)
    deadline = time.perf_counter() + 120.0
    path = str(tmp_path / "probe.stl")
    child, errors = bench.generate_step(bench.PROBE_GEOMETRY, path, expect, deadline)
    assert errors == [], child.out
    child, errors = bench.validate_step(path, expect, deadline)
    assert errors == [], child.out
    grid = bench.PROBE_GRID
    assert bench.homology_op(bench.workload_inputs(grid.width, grid.height, None)).errors == []
