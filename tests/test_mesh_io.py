import ast
import gc
import hashlib
import io
import mmap
import os
import pathlib
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from identispace import mesh_io, wireframe
from identispace.geom import SurfaceKind, SurfaceParams, Vec3
from identispace.mesh_io import (
    STL_HEADER_TAG,
    StlError,
    TriangleMesh,
    read_stl,
    validate,
    write_stl,
)
from identispace.wireframe import (
    WireframeSpec,
    build_wireframe,
    plan_segments,
    tessellate_segments,
)

from oracles import ascii_corners_per_line, ascii_stl_per_facet, mesh_report_oracle, union_find
from test_wireframe import one_capsule


def tetrahedron(flip_one=False, drop_one=False) -> TriangleMesh:
    vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]
    if flip_one:
        faces[3] = (1, 3, 2)
    if drop_one:
        faces = faces[:3]
    return TriangleMesh(np.array(vertices, float), np.array(faces, np.int32))


def fan_mesh(n: int) -> TriangleMesh:
    """n triangles sharing vertex 0; open surface, used for size-law checks."""
    vertices = [(0.0, 0.0, 1.0)] + [(np.cos(k), np.sin(k), 0.0) for k in range(n + 1)]
    tris = [(0, k + 1, k + 2) for k in range(n)]
    return TriangleMesh(np.array(vertices), np.array(tris, np.int32))


# --- write: format law -------------------------------------------------------


def test_empty_mesh_is_header_only():
    data = write_stl(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int32)))
    assert len(data) == 84
    assert struct.unpack_from("<I", data, 80)[0] == 0
    assert data.startswith(STL_HEADER_TAG)
    back = read_stl(data)
    assert back.vertices.shape == (0, 3) and back.vertices.dtype == np.float64
    assert back.triangles.shape == (0, 3) and back.triangles.dtype == np.int32
    assert validate(back).component_count == 0


def test_single_triangle_size():
    mesh = TriangleMesh(np.eye(3), np.array([[0, 1, 2]], np.int32))
    assert len(write_stl(mesh)) == 134


@given(st.integers(min_value=0, max_value=60))
def test_size_law(n):
    data = write_stl(fan_mesh(n))
    assert len(data) == 84 + 50 * n
    assert struct.unpack_from("<I", data, 80)[0] == n


def test_attribute_bytes_zero_and_normals_normalized():
    mesh = tetrahedron()
    data = write_stl(mesh)
    for k in range(4):
        off = 84 + 50 * k
        nx, ny, nz = struct.unpack_from("<3f", data, off)
        assert abs(nx * nx + ny * ny + nz * nz - 1.0) < 1e-6
        assert struct.unpack_from("<H", data, off + 48)[0] == 0


def test_write_rejects_bad_meshes():
    bad = TriangleMesh(np.array([[0, 0, np.inf]]), np.array([[0, 0, 0]], np.int32))
    with pytest.raises(ValueError):
        write_stl(bad)
    # finite in float64 but past the float32 range; either mode, no overflow warning
    past_f32 = TriangleMesh(np.array([[0, 0, 1e39], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]], np.int32))
    for mode in ("binary", "ascii"):
        with pytest.raises(ValueError, match="float32"):
            write_stl(past_f32, mode)
    out_of_range = TriangleMesh(np.eye(3), np.array([[0, 1, 3]], np.int32))
    with pytest.raises(ValueError):
        write_stl(out_of_range)
    with pytest.raises(ValueError):
        write_stl(tetrahedron(), mode="obj")


@pytest.mark.parametrize("mode,text", [
    ("binary", "inf"), ("binary", "nan"),
    ("ascii", "1e39"), ("ascii", "-inf"), ("ascii", "nan"),
])
def test_read_rejects_non_finite_coordinates(mode, text):
    if mode == "binary":
        data = bytearray(write_stl(tetrahedron()))
        struct.pack_into("<f", data, 84 + 50 * 2 + 12 + 4, float(text))  # facet 2, corner 0, y
    else:
        data = write_stl(tetrahedron(), "ascii").replace(b"vertex 0 0 0", b"vertex 0 %s 0" % text.encode(), 1)
    with pytest.raises(StlError, match="non-finite"):
        read_stl(bytes(data))


def test_write_rejects_huge_triangle_count():
    tris = np.broadcast_to(np.zeros((1, 3), np.int32), (2**32, 3))
    mesh = TriangleMesh.__new__(TriangleMesh)
    mesh.vertices = np.zeros((1, 3))
    mesh.triangles = tris
    with pytest.raises(ValueError):
        write_stl(mesh)


# --- write: ASCII against the per-facet oracle -------------------------------

F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
coordinates = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, F32_MAX, -F32_MAX, F32_TINY, -F32_TINY, 1e30, -1e-30]),
)


@st.composite
def random_meshes(draw):
    nv = draw(st.integers(min_value=1, max_value=8))
    vertices = draw(st.lists(st.tuples(coordinates, coordinates, coordinates),
                             min_size=nv, max_size=nv))
    index = st.integers(min_value=0, max_value=nv - 1)
    triangles = draw(st.lists(st.tuples(index, index, index), max_size=12))
    return TriangleMesh(np.array(vertices, float), np.array(triangles, np.int32))


ZERO_AREA_AND_EXTREMES = TriangleMesh(
    np.array([(0.0, -0.0, 0.0), (1, 1, 1), (2, 2, 2), (F32_MAX, -F32_TINY, -0.0),
              (-F32_MAX, F32_TINY, 1e-30)]),
    np.array([(0, 1, 2), (0, 3, 4), (1, 1, 4), (4, 3, 0)], np.int32),
)


# every coordinate prints at the widest "%.9g" length of a float32, 15 bytes
WIDEST = TriangleMesh(
    np.array([(-1.17549435e-38, -2.34567901e-37, -9.87654314e-36),
              (-1.23456793e-25, -1.17549435e-38, -3.14159279e-21),
              (-9.87654314e-36, -3.14159279e-21, -1.23456793e-25)]),
    np.array([(0, 1, 2), (2, 1, 0), (1, 1, 0)], np.int32),
)


@given(random_meshes())
@example(ZERO_AREA_AND_EXTREMES)
@example(TriangleMesh(np.array([(1.5, -0.0, F32_MAX)]), np.zeros((0, 3), np.int32)))
@example(TriangleMesh(ZERO_AREA_AND_EXTREMES.vertices, [(4, 1, 3)]))  # vertices 0 and 2 unused
@example(WIDEST)
def test_ascii_matches_per_facet_oracle(mesh):
    assert write_stl(mesh, "ascii") == ascii_stl_per_facet(mesh.vertices, mesh.triangles)


def same_bits_as_np_cross(a, b):
    with np.errstate(all="ignore"):  # products may overflow, and inf - inf is NaN, on both sides
        got, expected = np.stack(mesh_io._cross(list(a.T), list(b.T)), axis=1), np.cross(a, b)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@given(st.lists(st.tuples(*[coordinates] * 9), min_size=1, max_size=20))
@example([(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0)])
@example([(F32_MAX, -F32_MAX, F32_TINY, -F32_MAX, F32_MAX, -F32_TINY, 0.0, -0.0, F32_MAX)])
def test_cross_of_float32_corner_edges_is_np_cross_bit_for_bit(rows):
    # the writer's edges: float64 differences of float32 corners
    corners = np.array(rows).astype(np.float32).reshape(-1, 3, 3)
    p0 = corners[:, 0].astype(np.float64)
    same_bits_as_np_cross(corners[:, 1] - p0, corners[:, 2] - p0)


@given(st.lists(st.tuples(*[st.floats(allow_nan=False)] * 6), min_size=1, max_size=20))
@example([(0.0, -0.0, 0.0, -0.0, -0.0, 0.0)])
@example([(1e300, -1e300, 5e-324, -1e300, 1e300, -5e-324)])
def test_cross_of_float64_edges_is_np_cross_bit_for_bit(rows):
    edges = np.array(rows, dtype=np.float64)
    same_bits_as_np_cross(edges[:, :3], edges[:, 3:])


@pytest.mark.parametrize("chunk", [1, 2, 7, 56])
def test_chunk_boundaries_leave_bytes_unchanged(monkeypatch, chunk):
    # 40 triangles: partial last blocks, the half split inside a block at 7, the
    # _CHUNK // 2 record blocks clamped to one triangle at 1, and _CHUNK // 8 text
    # blocks of one facet below 16 and of 7 facets, the last one of 5, at 56
    mesh = one_capsule((0.1, 0.2, 0.3), (1, 2, 3), 0.45, 5)
    whole = write_stl(mesh, "binary"), write_stl(mesh, "ascii")
    monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
    assert (write_stl(mesh, "binary"), write_stl(mesh, "ascii")) == whole
    assert whole[1] == ascii_stl_per_facet(mesh.vertices, mesh.triangles)


# --- read / round trip -------------------------------------------------------


def test_binary_round_trip_preserves_triangles():
    mesh = one_capsule((0, 1, 2), (3, -1, 0.5), 0.6, 9)
    back = read_stl(write_stl(mesh))
    assert back.triangle_count == mesh.triangle_count
    orig32 = mesh.vertices.astype(np.float32)
    # triangle order preserved, coordinates bit-exact at float32 precision
    for k in range(mesh.triangle_count):
        got = back.vertices[back.triangles[k]].astype(np.float32)
        assert np.array_equal(got, orig32[mesh.triangles[k]])
    # canonical vertex sort matches exactly
    a = np.sort(orig32.view("<f4").reshape(-1, 3), axis=0)
    b = np.sort(back.vertices.astype(np.float32), axis=0)
    assert np.array_equal(a, b)


def test_ascii_and_binary_parse_to_equal_meshes():
    mesh = one_capsule((0.1, 0.2, 0.3), (1, 2, 3), 0.45, 6)
    from_bin = read_stl(write_stl(mesh, "binary"))
    from_asc = read_stl(write_stl(mesh, "ascii"))
    assert np.array_equal(from_bin.vertices, from_asc.vertices)
    assert np.array_equal(from_bin.triangles, from_asc.triangles)


def test_truncated_binary_rejected():
    data = write_stl(tetrahedron())
    with pytest.raises(StlError):
        read_stl(data[:-1])
    with pytest.raises(StlError):
        read_stl(data + b"x")
    with pytest.raises(StlError):
        read_stl(data[:40])


def test_unparseable_ascii_rejected():
    with pytest.raises(StlError):
        read_stl(b"solid x\n  facet normal 0 0 0\n    outer loop\n"
                 b"      vertex 1 2\n    endloop\n  endfacet\nendsolid x\n")
    with pytest.raises(StlError):
        read_stl(b"solid x\n  facet normal 0 0 0\nendsolid x\n")
    with pytest.raises(StlError):
        read_stl(b"solid x\n      vertex 1 2 zebra\nendsolid x\n")


# tokens as write_stl prints them, other spellings and non-finite values (all
# parse; _weld rejects the non-finite ones), and now and then one no parser accepts
NUMBER_TOKENS = st.one_of(
    coordinates.map(lambda x: "%.9g" % x),
    st.sampled_from(["-0", "+0", ".5", "5.", "1E-3", "123456789", "-1.17549435e-38"]),
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e39", "-1e39", "1e-50"]),
)
BAD_TOKENS = st.sampled_from(["zebra", "1.5e", "0x1p3", "1,5", "--1", "#"])
# every line break str.splitlines knows in ASCII
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@st.composite
def ascii_stl_texts(draw):
    """ASCII STL, mostly well formed, with varied layout and malformed rows.

    Rows get 0, 2 or 4 numbers now and then, facets 2 or 4 vertex lines, and
    a file may use one line-break style or mix them all.
    """
    breaks = draw(st.sampled_from([["\n"], ["\r\n"], ["\r"], LINE_BREAKS]))
    blanks = st.sampled_from([" ", "\t", "  ", " \t", "\x1f"])

    def rarely():  # about one draw in 40; hypothesis favours the ends of a range
        return draw(st.integers(0, 39)) == 17

    def row(keyword, count):
        tokens = [draw(BAD_TOKENS if rarely() else NUMBER_TOKENS) for _ in range(count)]
        indent = draw(st.sampled_from(["", "  ", "\t", " \t ", "\x1f"]))
        return indent + keyword + "".join(draw(blanks) + t for t in tokens) + draw(
            st.sampled_from(["", " ", "\t", "\x1f"]))

    lines = ["solid test"]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines += [row("facet normal", 3), "    outer loop"]
        for _ in range(draw(st.sampled_from([2, 4])) if rarely() else 3):
            keyword = "vertexes" if rarely() else "vertex"  # both parsers skip the whole first token
            lines.append(row(keyword, draw(st.sampled_from([0, 2, 4])) if rarely() else 3))
        lines += ["    endloop", "  endfacet"] + [""] * draw(st.integers(0, 2))
    lines.append("endsolid test")
    return "".join(line + draw(st.sampled_from(breaks)) for line in lines).encode("ascii")


def one_facet(*vertex_lines, eol="\n", tail="") -> bytes:
    """A one-facet ASCII solid; ``tail`` lines go after the facet."""
    lines = ["solid t", "facet normal 0 0 1", "outer loop", *vertex_lines, "endloop",
             "endfacet", *tail.splitlines(), "endsolid t"]
    return "".join(line + eol for line in lines).encode("ascii")


@settings(max_examples=150)
@given(ascii_stl_texts())
@example(one_facet("vertex 1 2 3", "vertex 4 5 6", "vertex 7 8 9", eol="\r"))
@example(one_facet("vertex -0 1.00000012 3", "vertex 1e-50 0 0", "vertex 0 0 0", eol="\r\n"))
@example(one_facet("\tvertex\t1\t2  3 ", "  vertex 1 2 3", "vertex 1 2 3\x1f"))
@example(one_facet("vertex nan inf 1e39", "vertex -nan -inf -0", "vertex 0 0 0"))
@example(one_facet(*["vertex 1 2 3"] * 3, tail="vertex"))  # a bare vertex line
@example(one_facet(*["vertex 1 2 3"] * 3, tail="vertex 1 2 3"))  # 4 vertices for 1 facet
@example(one_facet("vertex 1 2", "vertex 1 2", "vertex 1 2"))
@example(one_facet("vertex 1 2 3 4", "vertex 1 2 3", "vertex 1 2 3"))
@example(one_facet("vertexes 1 2 3", "vertex 1 2 3", "vertex 1 2 3"))
@example(one_facet("vertex\t\x1f", "vertex 1 2 3", "vertex 1 2 3"))  # whitespace-only row
def test_ascii_parse_matches_per_line_oracle(data):
    parses_as_the_oracle(data)


@settings(max_examples=150)
@given(ascii_stl_texts())
@example(one_facet("vertex " + " " * 80 + "1 2 3", "vertex 4 5 6", "vertex 7 8 9", eol="\r\n"))
@example(one_facet(*["vertex 1 2 3"] * 3, tail="vertex 1" + " " * 70 + "2 zebra"))
def test_ascii_parse_in_small_slices_matches_per_line_oracle(data):
    # 64-byte slices end inside the file, and a line longer than a slice widens its slice
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mesh_io, "_TEXT_CHUNK", 64)
        parses_as_the_oracle(data)


@pytest.mark.parametrize("chunk", [64, mesh_io._TEXT_CHUNK])
def test_ascii_errors_do_not_depend_on_the_slices(monkeypatch, chunk):
    monkeypatch.setattr(mesh_io, "_TEXT_CHUNK", chunk)
    wide = "vertex 1 2 3" + " " * 64  # a slice of its own at 64
    # the row number counts the rows of the slices before
    with pytest.raises(StlError, match=r"^malformed vertex row: could not convert string "
                                       r"'zebra' to float64 at row 2, column 3\.$"):
        mesh_io._parse_ascii(one_facet(wide, wide, "vertex 1 2 zebra"))
    # a count error after the slice of a malformed row still wins
    with pytest.raises(StlError, match="^1 facets need 3 vertex rows"):
        mesh_io._parse_ascii(one_facet("vertex 1 2 zebra", wide, wide, tail=wide))


def parses_as_the_oracle(data):
    try:
        expected = ascii_corners_per_line(data)
    except StlError:
        with pytest.raises(StlError):
            mesh_io._parse_ascii(data)
        return
    got = mesh_io._parse_ascii(data)
    assert got.dtype == np.float32 and got.shape == expected.shape
    assert np.array_equal(got.view("<u4"), expected.view("<u4"))


def test_empty_ascii_solid_is_empty_mesh():
    mesh = read_stl(b"solid empty\nendsolid empty\n")
    assert mesh.triangle_count == 0


def test_binary_starting_with_solid_falls_back():
    data = bytearray(write_stl(tetrahedron()))
    data[0:5] = b"solid"
    mesh = read_stl(bytes(data))
    assert mesh.triangle_count == 4


# --- read / write: buffers and file mappings ---------------------------------


def read_only_mapping(path) -> mmap.mmap:
    with open(path, "rb") as fh:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def ten_capsules() -> TriangleMesh:
    """One mesh of 10 capsules: 2 880 triangles, 36 pages in binary."""
    rng = np.random.default_rng(19)
    meshes = [one_capsule(*rng.normal(size=(2, 3)), 0.4, 12) for _ in range(10)]
    offsets = np.cumsum([0] + [len(m.vertices) for m in meshes[:-1]])
    return TriangleMesh(np.concatenate([m.vertices for m in meshes]),
                        np.concatenate([m.triangles + at for m, at in zip(meshes, offsets)]))


def stl_flavours() -> dict:
    """``ten_capsules`` in five spellings."""
    mesh = ten_capsules()
    binary, text = bytes(write_stl(mesh)), bytes(write_stl(mesh, "ascii"))
    return {
        "binary": binary,
        "ascii-lf": text,
        "ascii-crlf": text.replace(b"\n", b"\r\n"),
        "ascii-cr": text.replace(b"\n", b"\r"),
        "binary-solid": b"solid" + binary[5:],
    }


@pytest.mark.parametrize("flavour", ["binary", "ascii-lf", "ascii-crlf", "ascii-cr", "binary-solid"])
def test_every_buffer_reads_alike(tmp_path, monkeypatch, flavour):
    flavours = stl_flavours()
    data = flavours[flavour]
    path = tmp_path / "m.stl"
    path.write_bytes(data)
    monkeypatch.setattr(mesh_io, "_CHUNK", 512)  # 6 weld blocks, each past a page
    monkeypatch.setattr(mesh_io, "_TEXT_CHUNK", 4093)  # about 190 text slices, each past a page
    expected = read_stl(flavours["binary"])
    assert expected.triangle_count == 2880
    mapping = read_only_mapping(path)
    for buffer in (bytearray(data), memoryview(data), mapping, mapping):  # the mapping twice
        back = read_stl(buffer)
        assert np.array_equal(back.vertices.view("<u8"), expected.vertices.view("<u8"))
        assert np.array_equal(back.triangles, expected.triangles)
    assert mapping[:] == data  # the dropped pages read back from the file
    mapping.close()  # no view of the mapping outlives a read


@pytest.mark.parametrize("flavour", ["binary", "ascii-lf"])
def test_mapped_read_releases_what_it_has_read(tmp_path, monkeypatch, flavour):
    data = stl_flavours()[flavour]
    path = tmp_path / "m.stl"
    path.write_bytes(data)
    released, page_release = [], mesh_io._page_release

    def recorded(buffer):
        release = page_release(buffer)
        assert release is not mesh_io._ignore  # a read-only mapping has pages to drop

        def record(start, stop):
            released.append((start, stop))
            release(start, stop)
        return record

    monkeypatch.setattr(mesh_io, "_CHUNK", 512)
    monkeypatch.setattr(mesh_io, "_TEXT_CHUNK", 4093)
    monkeypatch.setattr(mesh_io, "_page_release", recorded)
    mapping = read_only_mapping(path)
    read_stl(mapping)
    if flavour == "binary":  # each block's records, from both threads
        n = 2880
        assert sorted(released) == [(84 + 50 * at, 84 + 50 * min(at + 512, n))
                                    for at in range(0, n, 512)]
    else:  # each slice of text once it is parsed, in order, from the page of the last one's end
        assert len(released) > 100 and released[0][0] == 0 and released[-1][1] == len(data)
        for (first, end), (start, stop) in zip(released, released[1:]):
            assert first <= start <= end // mmap.PAGESIZE * mmap.PAGESIZE and end < stop
    mapping.close()


def test_only_a_read_only_mapping_has_pages_to_release(tmp_path):
    path = tmp_path / "m.stl"
    path.write_bytes(bytes(3 * mmap.PAGESIZE))
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), 0)
        private = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    mapping = read_only_mapping(path)
    for buffer in (b"x", bytearray(1), memoryview(b"x"), shared, private):
        assert mesh_io._page_release(buffer) is mesh_io._ignore
    mesh_io._page_release(mapping)(1, 3 * mmap.PAGESIZE - 1)  # rounds in to the whole middle page
    assert mapping[:] == bytes(3 * mmap.PAGESIZE)
    for buffer in (shared, private, mapping):
        buffer.close()


def stl_file(tmp_path, size: int):
    """A file of ``size`` bytes of 0xFF, opened read-write as the CLI opens its output."""
    path = tmp_path / "out.stl"
    path.write_bytes(b"\xff" * size)
    return open(path, "r+b")


@pytest.mark.parametrize("chunk", [2, mesh_io._CHUNK])
def test_write_into_a_file_equals_write(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
    mesh = one_capsule((0, 1, 2), (3, -1, 0.5), 0.6, 9)
    expected = bytes(write_stl(mesh))
    with stl_file(tmp_path, len(expected)) as fh:
        mapping = write_stl(mesh, "binary", out=fh)
    assert isinstance(mapping, mmap.mmap) and len(mapping) == len(expected)
    assert mapping[:] == expected  # every attribute is 0 again; dropped pages read back
    mapping.close()
    assert (tmp_path / "out.stl").read_bytes() == expected


def test_mapped_write_releases_what_it_has_filled(tmp_path, monkeypatch):
    mesh = ten_capsules()
    expected = bytes(write_stl(mesh))
    released, drop_pages = [], mesh_io._drop_pages

    def recorded(mapping):
        release = drop_pages(mapping)

        def record(start, stop):
            released.append((threading.current_thread() is threading.main_thread(), start, stop))
            release(start, stop)
        return record

    monkeypatch.setattr(mesh_io, "_CHUNK", 512)  # blocks of 256 records, each past three pages
    monkeypatch.setattr(mesh_io, "_drop_pages", recorded)
    with stl_file(tmp_path, len(expected)) as fh:
        write_stl(mesh, "binary", out=fh).close()
    assert (tmp_path / "out.stl").read_bytes() == expected
    n, half = 2880, 1440  # each half's blocks, from its own thread
    blocks = [(True, at, min(at + 256, half)) for at in range(0, half, 256)]
    blocks += [(False, at, min(at + 256, n)) for at in range(half, n, 256)]
    assert sorted(released) == sorted((caller, 84 + 50 * start, 84 + 50 * stop)
                                      for caller, start, stop in blocks)


def test_unmappable_file_is_written_whole(tmp_path):
    # a write-only descriptor, a file with fewer bytes than the mesh needs and a
    # file object without a descriptor are written with one write
    mesh = tetrahedron()
    expected = bytes(write_stl(mesh))
    for name, mode in (("write-only.stl", "wb"), ("empty.stl", "w+b")):
        with open(tmp_path / name, mode) as fh:
            data = write_stl(mesh, "binary", out=fh)
        assert isinstance(data, bytearray) and data == expected
        assert (tmp_path / name).read_bytes() == expected
    memory = io.BytesIO()
    assert write_stl(mesh, "binary", out=memory) == expected
    assert memory.getvalue() == expected


class WriteLog:
    """A file object's write, flush, fileno and tell, keeping a copy of each write."""

    def __init__(self, fh):
        self.fh, self.writes = fh, []

    def write(self, data):
        self.writes.append(bytes(data))
        return self.fh.write(data)

    def flush(self):
        self.fh.flush()

    def fileno(self):
        return self.fh.fileno()

    def tell(self):
        return self.fh.tell()


@pytest.mark.parametrize("chunk", [2, mesh_io._CHUNK])
def test_write_ascii_into_a_file(tmp_path, monkeypatch, chunk):
    # a file opened read-write gets the solid line, each block of facets and the
    # endsolid line as they are made; the file is mapped back and returned
    monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
    mesh = one_capsule((0, 1, 2), (3, -1, 0.5), 0.6, 9)
    expected = bytes(write_stl(mesh, "ascii"))
    path = tmp_path / "out.stl"
    with open(path, "w+b") as fh:
        log = WriteLog(fh)
        mapping = write_stl(mesh, "ascii", out=log)
    assert isinstance(mapping, mmap.mmap) and len(mapping) == len(expected)
    assert mapping[:] == expected
    mapping.close()
    assert path.read_bytes() == expected
    blocks = -(-mesh.triangle_count // max(chunk // 8, 1))
    assert log.writes[0] == b"solid identispace-forge\n" and len(log.writes) == blocks + 2
    assert log.writes[-1] == b"endsolid identispace-forge\n"
    assert b"".join(log.writes) == expected


def test_unmappable_file_is_written_whole_as_text(tmp_path):
    # a write-only descriptor, a device opened read-write and a file object without a
    # descriptor get the solid line, then the rest of the text in one write
    mesh = tetrahedron()
    expected = bytes(write_stl(mesh, "ascii"))
    head = len(b"solid identispace-forge\n")
    memory = io.BytesIO()
    with open(tmp_path / "write-only.stl", "wb") as fh, open(os.devnull, "w+b") as null:
        for out in (WriteLog(fh), WriteLog(null), WriteLog(memory)):
            text = write_stl(mesh, "ascii", out=out)
            assert isinstance(text, bytearray) and text == expected and len(text) == len(expected)
            assert out.writes == [expected[:head], expected[head:]]
    assert (tmp_path / "write-only.stl").read_bytes() == memory.getvalue() == expected


def test_read_keeps_every_byte_of_a_writable_buffer(tmp_path, monkeypatch):
    # the pages of a buffer that holds its own bytes are never dropped: a dropped
    # page of an anonymous or a private file mapping would lose them
    data = stl_flavours()["binary"]
    path = tmp_path / "m.stl"
    path.write_bytes(b"\xff" * len(data))
    with open(path, "rb") as fh:
        private = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    anonymous = mmap.mmap(-1, len(data))
    monkeypatch.setattr(mesh_io, "_CHUNK", 512)
    expected = read_stl(data)
    buffers = {"bytearray": bytearray(data), "memoryview": memoryview(bytearray(data)),
               "anonymous mapping": anonymous, "private mapping": private}
    for name, buffer in buffers.items():
        buffer[:] = data
        back = read_stl(buffer)
        assert np.array_equal(back.vertices.view("<u8"), expected.vertices.view("<u8")), name
        assert bytes(buffer) == data, name
    anonymous.close()
    private.close()
    assert path.read_bytes() == b"\xff" * len(data)


@pytest.mark.parametrize("mode", ["binary", "ascii"])
def test_vertex_order_is_uint32_order_of_float32_bits(mode):
    # 1.0 = 0x3f800000 < 2.0 = 0x40000000 < -0.0 = 0x80000000; by little-endian
    # bytes the order would be 2.0, -0.0, 1.0.  Ties on x fall to y, then z.
    expected = np.array([(1, 0, 0), (1, 0, 1), (1, 0, -1), (1, 1, 0), (2, 0, 0), (-0.0, 0, 0)])
    v = expected[[4, 5, 3, 2, 1, 0]]
    t = np.array([[0, 1, 2], [3, 4, 5]], np.int32)
    back = read_stl(write_stl(TriangleMesh(v, t), mode))
    got = back.vertices.astype(np.float32).view("<u4")
    assert np.array_equal(got, expected.astype(np.float32).view("<u4"))
    assert np.array_equal(back.vertices[back.triangles], v[t])


def test_weld_is_bit_exact_not_value_based():
    # +0.0 and -0.0 compare equal as floats but are distinct bit patterns
    v = np.array([(0.0, 0.0, 0.0), (1, 0, 0), (0, 1, 0), (-0.0, 0.0, 0.0)])
    t = np.array([[0, 1, 2], [3, 1, 2]], np.int32)
    back = read_stl(write_stl(TriangleMesh(v, t)))
    assert len(back.vertices) == 4


def test_weld_merges_identical_coordinates():
    mesh = tetrahedron()
    doubled = TriangleMesh(
        np.vstack([mesh.vertices, mesh.vertices]),
        np.vstack([mesh.triangles, mesh.triangles + 4]),
    )
    back = read_stl(write_stl(doubled))
    assert len(back.vertices) == 4
    assert back.triangle_count == 8


@st.composite
def corner_soups(draw):
    """(3T, 3) float32 corners drawn from a small pool, so corners repeat.

    The pool mixes 0.0 with -0.0 and always holds two rows that share x and y
    but differ in the sign bit of z.
    """
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), coordinates)
    x, y, z = draw(value), draw(value), draw(value)
    pool = [(x, y, z), (x, y, -z)] + draw(st.lists(st.tuples(value, value, value), max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return np.array(pool, np.float32)[picks[: len(picks) // 3 * 3]]


def assert_welds_to_unique_rows(back: TriangleMesh, soup: np.ndarray) -> None:
    # rows sort as uint32 (x, y, z), the documented vertex order
    rows, inverse = np.unique(soup.view("<u4"), axis=0, return_inverse=True)
    assert np.array_equal(back.vertices.astype(np.float32).view("<u4"), rows)
    assert np.array_equal(back.triangles.ravel(), inverse.ravel())


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("mode", ["binary", "ascii"])
@settings(max_examples=60)
@given(soup=corner_soups())
def test_weld_matches_unique_rows(mode, chunk, soup):
    mesh = TriangleMesh(soup, np.arange(len(soup), dtype=np.int32))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mesh_io, "_CHUNK", chunk)  # equal corners fall in different blocks
        back = read_stl(write_stl(mesh, mode))
    assert_welds_to_unique_rows(back, soup)


def shared_vertex_soup() -> np.ndarray:
    """(27, 3) float32 corners of 9 triangles that all touch (1, 2, 3).

    Triangles 0 and 8 are equal, and every pool row recurs in both the first
    six triangles and the last three.
    """
    pool = np.array([(1, 2, 3), (0, 0, 0), (-0.0, 0, 0), (1, 2, -3), (5, 5, 5), (0, 1, 0)])
    picks = [0, 1, 2, 3, 0, 4, 5, 0, 1, 0, 3, 5, 2, 4, 0, 0, 5, 1, 4, 0, 3, 5, 1, 0, 0, 1, 2]
    return pool.astype(np.float32)[picks]


def test_weld_splits_blocks_between_threads(monkeypatch):
    soup = shared_vertex_soup()
    mesh = TriangleMesh(soup, np.arange(len(soup), dtype=np.int32))
    data = bytes(write_stl(mesh))
    dedup, calls = mesh_io._dedup_blocks, []

    def recorded(bits, inverse, start, stop, *done):
        calls.append((threading.current_thread() is threading.main_thread(), stop - start))
        return dedup(bits, inverse, start, stop, *done)

    monkeypatch.setattr(mesh_io, "_CHUNK", 2)
    monkeypatch.setattr(mesh_io, "_dedup_blocks", recorded)
    back = read_stl(data)
    assert sorted(calls) == [(False, 3), (True, 6)]  # blocks 2+1 on the worker, 2+2+2 here
    assert_welds_to_unique_rows(back, soup)

    bad = bytearray(data)
    struct.pack_into("<f", bad, 84 + 50 * 7 + 12 + 8, float("nan"))  # facet 7, corner 0, z
    with pytest.raises(StlError, match="non-finite"):
        read_stl(bytes(bad))

    empty = read_stl(bytes(write_stl(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int32)))))
    assert empty.vertices.shape == (0, 3) and empty.triangles.shape == (0, 3)


def test_concurrent_reads_weld_alike(monkeypatch):
    # four readers with a weld worker each: more threads than cores, switching often
    rng = np.random.default_rng(5)
    pool = rng.integers(-3, 4, size=(40, 3)).astype(np.float32)
    soup = pool[rng.integers(0, len(pool), size=3 * 1000)]
    data = bytes(write_stl(TriangleMesh(soup, np.arange(len(soup), dtype=np.int32))))
    monkeypatch.setattr(mesh_io, "_CHUNK", 64)  # 16 blocks, 8 on each thread
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as readers:
            backs = list(readers.map(lambda _: read_stl(data), range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for back in backs:
        assert_welds_to_unique_rows(back, soup)


# few distinct words, so equal x|y words meet different z words in scrambled order;
# 0x80000000 is the sign bit (x = -0.0), and z takes both ends of its range
X_WORDS = st.sampled_from([0, 1, 0x80000000, 0xFFFFFFFF])
Y_WORDS = st.sampled_from([0, 7])
Z_WORDS = st.sampled_from([0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF])


@st.composite
def row_parts(draw):
    """(n,3) uint32 rows from small alphabets, cut into 1 to 4 parts."""
    rows = draw(st.lists(st.tuples(X_WORDS, Y_WORDS, Z_WORDS), max_size=40))
    rows = np.array(rows, dtype=np.uint32).reshape(-1, 3)
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return [rows[a:b] for a, b in zip([0, *cuts], [*cuts, len(rows)])]


def uint32_rows(*rows) -> list:
    return [np.array(rows, dtype=np.uint32).reshape(-1, 3)]


@pytest.mark.parametrize("chunk", [1, mesh_io._CHUNK])
@settings(max_examples=150)
@given(parts=row_parts())
@example(parts=uint32_rows())
@example(parts=uint32_rows((0x80000000, 3, 0xFFFFFFFF)))
@example(parts=uint32_rows((5, 5, 0xFFFFFFFF), (5, 5, 0), (0x80000000, 0, 1), (5, 5, 0xFFFFFFFF),
                           (5, 5, 0), (1, 0, 0)))
def test_unique_rows_match_np_unique(chunk, parts):
    # _CHUNK = 1 sends the z gather and the order[sub] pass through 3-row steps
    rows = np.concatenate([np.zeros((0, 3), np.uint32), *parts])
    expected, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = np.full(len(rows), -1, dtype=np.int32)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
        got = mesh_io._unique_rows(parts, inverse)
    assert parts == []
    assert got.dtype == np.uint32 and np.array_equal(got, expected)  # in (x, y, z) order
    assert np.array_equal(inverse, expected_inverse.ravel())


@pytest.mark.parametrize("chunk", [2, mesh_io._CHUNK])
@pytest.mark.parametrize("limit", [5, 6, 7])
def test_vertex_limit_fails_cleanly(monkeypatch, chunk, limit):
    # 6 distinct vertices in 5 runs of equal x|y: in one block a limit of 5 stops
    # at the run count, 6 at the vertex count, and 7 lets the weld through; in
    # blocks of 2 triangles, 5 trips in blocks on both threads and 6 only in the
    # sort of the block-unique rows
    soup = shared_vertex_soup()
    data = bytes(write_stl(TriangleMesh(soup, np.arange(len(soup), dtype=np.int32))))
    monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
    monkeypatch.setattr(mesh_io, "_VERTEX_LIMIT", limit)
    if limit == 7:
        assert_welds_to_unique_rows(read_stl(data), soup)
        return
    with pytest.raises(StlError, match=f"more than {limit - 1} distinct vertices"):
        read_stl(data)


def ranking_soup(xs) -> np.ndarray:
    """(3T, 3) float32 corners with x from ``xs`` and 5 x 3 (y, z) pairs, each row twice."""
    rows = [(x, y, z) for x in xs for y in (0.0, -0.0, 1.5, 2.0, -7.0) for z in (0.0, 1.0, -1.0)]
    rows = np.array(rows * 2, np.float32)[np.random.default_rng(18).permutation(2 * len(rows))]
    return rows[: len(rows) // 3 * 3]


@pytest.mark.parametrize("xs, lower_rows", [
    ([3.0], 0),  # one x word: every row is at or past the pivot
    ([1.0, 2.0, 3.0], None),  # a third of the rows tie with the pivot
    ([0.5, -0.0, 0.0, 2.0, 1e-3, -4.0], None),
])
def test_weld_splits_ranking_between_threads(monkeypatch, xs, lower_rows):
    soup = ranking_soup(xs)
    data = bytes(write_stl(TriangleMesh(soup, np.arange(len(soup), dtype=np.int32))))
    rank, calls = mesh_io._unique_rows, []

    def recorded(parts, inverse):
        if len(parts) > 1:  # the two ranking calls; each dedup call has one block
            rows = np.concatenate([np.zeros((0, 3), np.uint32), *parts])
            calls.append((threading.current_thread() is threading.main_thread(), rows))
        return rank(parts, inverse)

    monkeypatch.setattr(mesh_io, "_CHUNK", 4)
    monkeypatch.setattr(mesh_io, "_unique_rows", recorded)
    assert_welds_to_unique_rows(read_stl(data), soup)
    assert sorted(on_caller for on_caller, _ in calls) == [False, True]
    lower = next(rows for on_caller, rows in calls if on_caller)
    upper = next(rows for on_caller, rows in calls if not on_caller)
    if lower_rows is not None:
        assert len(lower) == lower_rows
    else:
        assert len(lower) and len(upper)
    if len(lower):  # every lower x word is below every upper one: one global order
        assert lower[:, 0].max() < upper[:, 0].min()


# SHA-256 of the welded vertices and triangles of a binary file per surface;
# they pin the vertex order and the vertex ids byte for byte
WELD_PINS = [
    (SurfaceKind.TORUS, (6, 12), 6, False,
     "d7212a1d2deefd8827f319fe7d86ca85cbe064b5fec8ecc0dc63f3bd093bc68e",
     "5a1855dd34c7c7eb47f97ab340d49aa466abec945e6acb87c35488472fe0cce4"),
    (SurfaceKind.KLEIN, (6, 8), 8, True,
     "083d788f2700ea387ddbb0cd93cf10032f1f8a9462c6aad920bb61f4d7203039",
     "63e93b70fd3388a8c5093ef2e57dac66538b8b844a2c4750492f6017419c0547"),
    (SurfaceKind.ROMAN, (16, 32), 6, False,
     "42bd0da6840d1cc32a9e006ac50b4fcce649901f704e3199203635700c11db02",
     "278559e2aa3ae6e415c2f74b08dcced7af075348a209461cab3b9d18b0eecca6"),
]


@pytest.mark.parametrize("kind, grid, res, legacy, vertices_sha, triangles_sha", WELD_PINS,
                         ids=[pin[0].value for pin in WELD_PINS])
def test_weld_output_is_pinned(kind, grid, res, legacy, vertices_sha, triangles_sha):
    surface = SurfaceParams(kind, lat_ribs=grid[0], long_ribs=grid[1])
    spec = WireframeSpec(surface, outer_density=2, inner_density=2, thickness=1.2,
                         capsule_resolution=res, legacy_overshoot=legacy)
    back = read_stl(bytes(write_stl(build_wireframe(spec))))
    assert hashlib.sha256(back.vertices.tobytes()).hexdigest() == vertices_sha
    assert hashlib.sha256(back.triangles.tobytes()).hexdigest() == triangles_sha


@pytest.mark.parametrize("kind, grid, res, legacy, vertices_sha, triangles_sha", WELD_PINS,
                         ids=[pin[0].value for pin in WELD_PINS])
def test_mapped_weld_output_is_pinned(tmp_path, kind, grid, res, legacy, vertices_sha,
                                      triangles_sha):
    surface = SurfaceParams(kind, lat_ribs=grid[0], long_ribs=grid[1])
    spec = WireframeSpec(surface, outer_density=2, inner_density=2, thickness=1.2,
                         capsule_resolution=res, legacy_overshoot=legacy)
    path = tmp_path / "m.stl"
    path.write_bytes(write_stl(build_wireframe(spec)))
    mapping = read_only_mapping(path)
    back = read_stl(mapping)
    assert hashlib.sha256(back.vertices.tobytes()).hexdigest() == vertices_sha
    assert hashlib.sha256(back.triangles.tobytes()).hexdigest() == triangles_sha
    mapping.close()


# --- validate ----------------------------------------------------------------


def test_tetrahedron_watertight():
    report = validate(tetrahedron())
    assert report.component_count == 1
    assert report.all_watertight and report.all_edge_manifold
    assert list(report.euler_characteristic_per_component) == [2]
    assert report.boundary_edge_count == 0


def test_open_tetrahedron_not_watertight():
    report = validate(tetrahedron(drop_one=True))
    assert not report.all_watertight
    assert report.boundary_edge_count == 3


def test_orientation_sensitivity():
    report = validate(tetrahedron(flip_one=True))
    assert not report.all_watertight
    assert report.boundary_edge_count == 0  # edges still used twice, same direction


def test_duplicated_closed_surface_stays_watertight_after_weld():
    # two identical tetrahedra welded into one component: every edge carries
    # two balanced traversal pairs, so the union of closed oriented surfaces
    # is still closed even though it is no longer edge-manifold
    mesh = tetrahedron()
    doubled = TriangleMesh(
        np.vstack([mesh.vertices, mesh.vertices]),
        np.vstack([mesh.triangles, mesh.triangles + 4]),
    )
    report_unwelded = validate(doubled)
    assert report_unwelded.component_count == 2
    assert report_unwelded.all_watertight and report_unwelded.all_edge_manifold
    welded = read_stl(write_stl(doubled))
    report = validate(welded)
    assert report.component_count == 1
    assert report.all_watertight
    assert not report.all_edge_manifold


def test_capsule_outputs_watertight_across_resolutions():
    for res in range(4, 17):
        mesh = one_capsule((0, 0, 0), (1, 0.5, 2), 0.8, res)
        report = validate(mesh)
        assert report.all_watertight and report.all_edge_manifold
        assert list(report.euler_characteristic_per_component) == [2]
        assert report.degenerate_count == 0


def test_degenerate_triangles_counted():
    v = np.array([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)], float)
    t = np.array([[0, 1, 2], [0, 1, 3]], np.int32)  # first is collinear
    report = validate(TriangleMesh(v, t))
    assert report.degenerate_count == 1
    assert report.triangle_count == 2


def near_bound_triangles(n: int) -> TriangleMesh:
    """``n`` separate triangles near the origin, each scaled so that its area is
    ``DEGENERATE_AREA`` to within a few ulps, about half on each side."""
    rng = np.random.default_rng(18)
    p0 = rng.uniform(-2e-6, 2e-6, size=(n, 3))
    u, v = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    cross = np.cross(u, v)
    scale = np.sqrt(mesh_io.DEGENERATE_AREA / (np.sqrt((cross * cross).sum(axis=1)) / 2))
    scale *= 1 + rng.integers(-4, 5, size=n) * np.finfo(float).eps
    corners = np.stack([p0, p0 + scale[:, None] * u, p0 + scale[:, None] * v], axis=1)
    return TriangleMesh(corners.reshape(-1, 3), np.arange(3 * n, dtype=np.int32))


@pytest.mark.parametrize("chunk, n", [(mesh_io._CHUNK, 20_000), (2, 300)])
def test_degenerate_count_is_exact_at_the_bound(monkeypatch, chunk, n):
    # 3 area blocks of 8 192 triangles, or blocks of 1; summing the squares in
    # another order or comparing the area itself moves the count
    mesh = near_bound_triangles(n)
    monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    assert 0.4 * n < expected["degenerate_count"] < 0.6 * n
    assert validate(mesh).degenerate_count == expected["degenerate_count"]


def test_validate_empty_mesh():
    report = validate(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int32)))
    assert report.component_count == 0
    assert report.triangle_count == 0
    assert report.all_watertight  # vacuously


def test_component_separation_by_vertex_sharing():
    # two tetrahedra with disjoint index ranges overlap in space but stay
    # separate components
    mesh = tetrahedron()
    shifted = TriangleMesh(
        np.vstack([mesh.vertices, mesh.vertices + 0.1]),
        np.vstack([mesh.triangles, mesh.triangles + 4]),
    )
    report = validate(shifted)
    assert report.component_count == 2
    assert list(report.euler_characteristic_per_component) == [2, 2]


TETRA_FACES = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]


@st.composite
def report_meshes(draw):
    """Closed tetrahedra with flipped, dropped and duplicated faces, plus stray
    (often repeated-index) triangles and unreferenced vertices, shuffled."""
    nv = draw(st.integers(min_value=1, max_value=10))
    coordinate = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-7]),
        st.floats(min_value=-4, max_value=4),
    )
    vertices = draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                             min_size=nv, max_size=nv))
    index = st.integers(min_value=0, max_value=nv - 1)
    triangles = []
    tetrahedra = st.permutations(range(nv)).map(lambda p: p[:4])
    for corners in draw(st.lists(tetrahedra, max_size=3)) if nv >= 4 else []:
        for face in TETRA_FACES:
            tri = tuple(corners[k] for k in face)
            action = draw(st.sampled_from(["keep", "keep", "flip", "drop", "twice"]))
            if action == "flip":
                tri = tri[::-1]
            triangles += [] if action == "drop" else [tri] * (1 + (action == "twice"))
    triangles += draw(st.lists(st.tuples(index, index, index), max_size=6))
    triangles = draw(st.permutations(triangles)) if triangles else triangles
    return TriangleMesh(np.array(vertices, float), np.array(triangles, np.int32))


def report_fields(report) -> dict:
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else tuple(value)
        if isinstance(value, Vec3) else value
        for name, value in vars(report).items()
    }


ORACLE_EXAMPLES = {
    "all-collapsed": TriangleMesh(np.zeros((1, 3)), np.zeros((1, 3), np.int32)),
    "no-triangles": TriangleMesh(np.zeros((2, 3)), np.zeros((0, 3), np.int32)),
    "bbox-stays-zero": TriangleMesh(np.eye(3), np.zeros((0, 3), np.int32)),
    "repeated-indices": TriangleMesh(np.eye(3), np.array([[0, 0, 1], [2, 2, 2], [1, 0, 0]],
                                                         np.int32)),
}


@given(report_meshes())
@example(ORACLE_EXAMPLES["all-collapsed"])
@example(ORACLE_EXAMPLES["no-triangles"])
@example(ORACLE_EXAMPLES["bbox-stays-zero"])
@example(ORACLE_EXAMPLES["repeated-indices"])
def test_validate_matches_oracle(mesh):
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    assert report_fields(validate(mesh)) == expected


SMALL_BLOCK_MESHES = {
    "tetrahedron": tetrahedron(),
    "flipped": tetrahedron(flip_one=True),
    "open": tetrahedron(drop_one=True),
    **ORACLE_EXAMPLES,
}


@pytest.mark.parametrize("mesh", SMALL_BLOCK_MESHES.values(), ids=SMALL_BLOCK_MESHES)
def test_validate_small_blocks_match_oracle(monkeypatch, mesh):
    # edge keys in blocks of 2 triangles; the _CHUNK // 8 area blocks clamp to 1
    monkeypatch.setattr(mesh_io, "_CHUNK", 2)
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    assert report_fields(validate(mesh)) == expected


@st.composite
def disjoint_part_meshes(draw):
    """``report_meshes`` parts laid one after another on their own vertex ranges.

    Runs of 0 to 2 unreferenced vertices lie before each part, and a part may
    have no triangles.  Sometimes one corner of a later part is set to a
    vertex of an earlier range: that joins the two parts, so no cut between
    them is valid.
    """
    vertices, triangles, starts = [], [], []  # starts: (first triangle, first vertex) of each part
    offset = 0
    for part in draw(st.lists(report_meshes(), min_size=1, max_size=5)):
        gap = draw(st.integers(min_value=0, max_value=2))
        vertices += [np.full((gap, 3), -1.0), part.vertices]
        offset += gap
        starts.append((sum(len(t) for t in triangles), offset))
        triangles.append(part.triangles + offset)
        offset += len(part.vertices)
    triangles = np.concatenate(triangles)
    later = [(first, base, stop) for (first, base), (stop, _) in
             zip(starts, starts[1:] + [(len(triangles), offset)]) if base and stop > first]
    if later and draw(st.booleans()):
        first, base, stop = draw(st.sampled_from(later))
        row = draw(st.integers(min_value=first, max_value=stop - 1))
        triangles[row, draw(st.integers(min_value=0, max_value=2))] = draw(
            st.integers(min_value=0, max_value=base - 1))
    return TriangleMesh(np.concatenate(vertices), triangles)


def valid_cuts(tris) -> list:
    """Every p where each vertex index of the triangles before p is below each from p on."""
    return [p for p in range(1, len(tris)) if tris[:p].max() < tris[p:].min()]


@pytest.mark.parametrize("chunk", [1, 3, 64])
@given(mesh=disjoint_part_meshes(), block=st.integers(min_value=1, max_value=12))
@example(mesh=TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int32)), block=1)
def test_cuts_are_the_first_valid_ones_a_block_apart(chunk, mesh, block):
    valid = valid_cuts(mesh.triangles)
    wanted, expected = block, []
    for cut in valid:
        if cut >= wanted:
            expected.append(cut)
            wanted = cut + block
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
        monkeypatch.setattr(mesh_io, "_BLOCK", block)
        assert mesh_io._cuts(mesh.triangles) == expected
        monkeypatch.setattr(mesh_io, "_BLOCK", 1)  # then every valid cut is a cut
        assert mesh_io._cuts(mesh.triangles) == valid


@pytest.mark.parametrize("block, chunk", [(1, 1), (3, 2)])
@given(mesh=disjoint_part_meshes())
def test_validate_in_blocks_matches_oracle(block, chunk, mesh):
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mesh_io, "_BLOCK", block)
        monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
        assert report_fields(validate(mesh)) == expected


BAND_EXAMPLES = {
    # with _BLOCK 1, 9 triangles ask for 5 bands, capped at the 3 vertices
    "more-bands-than-vertices": TriangleMesh(np.eye(3), np.array([(0, 1, 2), (0, 2, 1)] * 4
                                                                 + [(1, 1, 1)], np.int32)),
    # vertices 4 and 5 are no edge's lo end, so the last band is empty
    "empty-band": TriangleMesh(np.vstack([tetrahedron().vertices, np.ones((2, 3))]),
                               tetrahedron().triangles),
}


@pytest.mark.parametrize("block", [1, 2])
@given(mesh=st.one_of(report_meshes(), disjoint_part_meshes()), chunk=st.integers(1, 3))
@example(mesh=BAND_EXAMPLES["more-bands-than-vertices"], chunk=1)
@example(mesh=BAND_EXAMPLES["empty-band"], chunk=2)
@example(mesh=ORACLE_EXAMPLES["repeated-indices"], chunk=3)
@example(mesh=ORACLE_EXAMPLES["all-collapsed"], chunk=1)
@example(mesh=ORACLE_EXAMPLES["no-triangles"], chunk=1)
def test_validate_in_bands_matches_oracle(block, mesh, chunk):
    # a block of more than 2 * _BLOCK triangles is checked in bands of its lo ends
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mesh_io, "_BLOCK", block)
        monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
        assert report_fields(validate(mesh)) == expected


def edge_use_keys(triangles, nv) -> list:
    """(lo, key) of each edge use: key ``(lo*nv + hi) << 1 | (runs lo -> hi)``, -1 if collapsed."""
    return [(min(u, w), -1 if u == w else (min(u, w) * nv + max(u, w)) << 1 | (u < w))
            for t in triangles.tolist() for u, w in zip(t, t[1:] + t[:1])]


@given(mesh=st.one_of(report_meshes(), disjoint_part_meshes()),
       inner=st.lists(st.integers(0, 64), max_size=4), chunk=st.integers(1, 3))
@example(mesh=BAND_EXAMPLES["empty-band"], inner=[2, 4], chunk=1)
def test_band_keys_join_into_the_block_keys(mesh, inner, chunk):
    # any bounds from 0 to nv, equal ones making empty bands
    nv = len(mesh.vertices)
    bounds = [0, *sorted(min(bound, nv) for bound in inner), nv]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
        counts = mesh_io._band_counts(mesh.triangles, bounds)
        bands = []
        for count, v0, v1 in zip(counts, bounds, bounds[1:]):
            keys = np.empty(count, dtype=np.int64)
            mesh_io._band_keys(mesh.triangles, nv, v0, v1, keys)
            bands.append(np.sort(keys).tolist())
    uses = edge_use_keys(mesh.triangles, nv)
    assert counts == [sum(v0 <= lo < v1 for lo, _ in uses) for v0, v1 in zip(bounds, bounds[1:])]
    # the collapsed uses sort first in their band, where validate cuts them off
    assert [key for band in bands for key in band if key >= 0] == sorted(
        key for _, key in uses if key >= 0)
    assert sum(band.count(-1) for band in bands) == [key for _, key in uses].count(-1)


def test_built_mesh_is_cut_where_capsules_end(monkeypatch):
    # each capsule or sphere strut has its own vertex range, so each ends at a valid cut
    spec = WireframeSpec(SurfaceParams(SurfaceKind.ROMAN, lat_ribs=4, long_ribs=4), 1, 1,
                         capsule_resolution=4)
    plan = plan_segments(spec)
    mesh = tessellate_segments(plan, spec.capsule_resolution)
    monkeypatch.setattr(mesh_io, "_BLOCK", 1)
    cuts = mesh_io._cuts(mesh.triangles)
    assert cuts == valid_cuts(mesh.triangles)
    assert len(cuts) + 1 >= len(plan.a)
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    assert report_fields(validate(mesh)) == expected


@st.composite
def vertex_graphs(draw):
    """Up to 12 vertices (none allowed) and up to 20 edges ``lo < hi``, repeats
    allowed, among a drawn subset of them, so some vertices are in no edge."""
    nv = draw(st.integers(min_value=0, max_value=12))
    ends = draw(st.lists(st.integers(min_value=0, max_value=nv - 1), unique=True)) if nv else []
    pairs = draw(st.lists(st.tuples(st.sampled_from(ends), st.sampled_from(ends)),
                          max_size=20)) if ends else []
    return nv, [(min(p), max(p)) for p in pairs if p[0] != p[1]]


@given(vertex_graphs())
@example((0, []))
@example((3, []))
@example((6, [(4, 5), (1, 5), (1, 3), (0, 3), (2, 4)]))  # a path 0-3-1-5-4-2 and nothing else
def test_components_match_union_find(graph):
    nv, edges = graph
    lo, hi = np.array(edges, dtype=np.int32).reshape(-1, 2).T.copy()
    labels = mesh_io._components(lo, hi, nv)
    root = union_find(range(nv), edges)
    members: dict[int, list] = {}
    for v in range(nv):
        members.setdefault(root[v], []).append(v)
    assert labels.dtype == np.int32
    assert labels.tolist() == [min(members[root[v]]) for v in range(nv)]


def test_components_of_a_random_order_path_take_few_rounds(monkeypatch):
    # 2**20 vertices joined in a random order into one path; the search makes one
    # _roots call per round, and takes 13 or 14 rounds on such paths (at most nv)
    nv = 1 << 20
    path = np.random.default_rng(16).permutation(nv).astype(np.int32)
    lo, hi = np.minimum(path[:-1], path[1:]), np.maximum(path[:-1], path[1:])
    roots, rounds = mesh_io._roots, []

    def counted(parent):
        rounds.append(len(parent))
        return roots(parent)

    monkeypatch.setattr(mesh_io, "_roots", counted)
    labels = mesh_io._components(lo, hi, nv)
    assert labels.dtype == np.int32 and not labels.any()
    assert 1 < len(rounds) <= 20


def wide_edge_mesh(closed: bool) -> TriangleMesh:
    """300 triangles on the edge (0, 1), in both orientations.

    Closed: 150 tetrahedra share the edge, so it runs 150 times each way.
    Open: 278 copies of (0, 1, 2) and 22 of (1, 0, 2) leave each edge of the
    triangle 256 uses out of balance.  In int8 the first sum wraps to -106
    and the second excess to 0.
    """
    if not closed:
        return TriangleMesh(np.eye(3), np.array([(0, 1, 2)] * 278 + [(1, 0, 2)] * 22, np.int32))
    angles = np.arange(300) * (2 * np.pi / 300)
    apexes = np.stack([np.full(300, 0.5), np.cos(angles), np.sin(angles)], axis=1)
    faces = [face for a in range(2, 302, 2)
             for face in [(0, a, 1), (0, 1, a + 1), (0, a + 1, a), (1, a, a + 1)]]
    return TriangleMesh(np.vstack([[(0.0, 0, 0), (1.0, 0, 0)], apexes]), np.array(faces, np.int32))


@pytest.mark.parametrize("closed", [True, False])
def test_validate_counts_wide_edge_runs_exactly(monkeypatch, closed):
    mesh = wide_edge_mesh(closed)
    monkeypatch.setattr(mesh_io, "_CHUNK", 2)
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    assert report_fields(validate(mesh)) == expected
    assert expected["watertight_per_component"] == [closed]


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("nt", [0, 1, 2, 3, 4])
def test_validate_splits_edge_keys_between_threads(monkeypatch, chunk, nt):
    # the first nt tetrahedron faces; from nt = 2 on, edge (0, 1) has one use in
    # each half, and nt = 4 closes the surface
    mesh = TriangleMesh(tetrahedron().vertices, tetrahedron().triangles[:nt])
    fill, calls = mesh_io._band_keys, []

    def recorded(tris, nv, v0, v1, keys):
        calls.append((threading.current_thread() is threading.main_thread(), len(tris)))
        fill(tris, nv, v0, v1, keys)

    monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
    monkeypatch.setattr(mesh_io, "_band_keys", recorded)
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    assert report_fields(validate(mesh)) == expected
    assert sorted(calls) == [(False, nt - nt // 2), (True, nt // 2)]
    calls.clear()
    monkeypatch.setattr(mesh_io, "_BLOCK", 1)  # then nt / 2 bands, rounded up, each split alike
    assert report_fields(validate(mesh)) == expected
    assert sorted(calls) == sorted([(False, nt - nt // 2), (True, nt // 2)] * max(-(-nt // 2), 1))


def edge_use_split(triangles) -> list:
    """(uses, edges) before and from the cut of the sorted edge uses at the first
    use of the middle use's edge."""
    uses = sorted((min(a, b), max(a, b)) for t in triangles.tolist()
                  for a, b in zip(t, t[1:] + t[:1]) if a != b)
    mid = uses.index(uses[len(uses) // 2]) if uses else 0
    return [(len(part), len(set(part))) for part in (uses[:mid], uses[mid:])]


SPLIT_MESHES = {
    "middle-inside-a-run": wide_edge_mesh(closed=False),  # 300 uses of each edge
    "wide-closed": wide_edge_mesh(closed=True),
    # edge (0, 1) has 5 of the 7 uses, so the cut falls at 0
    "empty-first-part": TriangleMesh(np.eye(3), np.array([(0, 1, 1), (1, 0, 0), (0, 1, 2)],
                                                         np.int32)),
    **{f"tetrahedron-{nt}": TriangleMesh(tetrahedron().vertices, tetrahedron().triangles[:nt])
       for nt in range(5)},
}


@pytest.mark.parametrize("chunk", [2, 7])
@pytest.mark.parametrize("mesh", SPLIT_MESHES.values(), ids=SPLIT_MESHES)
def test_validate_splits_edge_runs_between_threads(monkeypatch, chunk, mesh):
    count, grade, calls = mesh_io._count_edges, mesh_io._grade_edges, []

    def recorded_count(keys):
        calls.append(("count", threading.current_thread() is threading.main_thread(), len(keys)))
        return count(keys)

    def recorded_grade(keys, nv, lo, hi, grades):
        calls.append(("grade", threading.current_thread() is threading.main_thread(), len(keys),
                      len(lo)))
        grade(keys, nv, lo, hi, grades)

    monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
    monkeypatch.setattr(mesh_io, "_count_edges", recorded_count)
    monkeypatch.setattr(mesh_io, "_grade_edges", recorded_grade)
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    assert report_fields(validate(mesh)) == expected
    (lower_uses, lower_edges), (upper_uses, upper_edges) = edge_use_split(mesh.triangles)
    assert sorted(calls) == [("count", False, upper_uses), ("count", True, lower_uses),
                             ("grade", False, upper_uses, upper_edges),
                             ("grade", True, lower_uses, lower_edges)]


def test_concurrent_validates_agree(monkeypatch):
    # four callers with a validate worker each: more threads than cores, switching often
    rng = np.random.default_rng(7)
    vertices = rng.integers(-3, 4, size=(40, 3)).astype(float)
    mesh = TriangleMesh(vertices, rng.integers(0, len(vertices), size=(600, 3), dtype=np.int32))
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    monkeypatch.setattr(mesh_io, "_CHUNK", 64)  # blocks of 32 key triangles, 8 area triangles
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as callers:
            reports = list(callers.map(lambda _: report_fields(validate(mesh)), range(8),
                                       timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert reports == [expected] * 8


def on_caller_only(fn, when=lambda *args: True):
    """``fn``, raising instead on any other thread than the main one where ``when(*args)``."""
    def wrapped(*args):
        if threading.current_thread() is not threading.main_thread() and when(*args):
            raise MemoryError("injected on the worker")
        return fn(*args)
    return wrapped


def test_worker_thread_failure_reaches_caller():
    mesh = one_capsule((0, 0, 0), (1, 0.5, 2), 0.8, 6)
    data = bytes(write_stl(mesh))
    threads = threading.active_count()

    def fails_on_worker(call, module, name, when=lambda *args: True, chunk=None, block=None):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(module, name, on_caller_only(getattr(module, name), when))
            if chunk:
                monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
            if block:
                monkeypatch.setattr(mesh_io, "_BLOCK", block)
            with pytest.raises(MemoryError, match="injected on the worker"):
                call()
        assert threading.active_count() == threads

    for mode in ("binary", "ascii"):
        fails_on_worker(lambda: write_stl(mesh, mode), mesh_io, "_fill_records")
    # one band, then bands of 8 triangles' uses
    for block in (None, 4):
        for name in ("_band_counts", "_band_keys", "_count_degenerate", "_count_edges",
                     "_grade_edges", "_extent", "_mark_referenced", "_vertex_face_counts"):
            fails_on_worker(lambda: validate(mesh), mesh_io, name, block=block)
    fails_on_worker(lambda: one_capsule((0, 0, 0), (1, 0.5, 2), 0.8, 6),
                    wireframe, "_tessellate_blocks")
    for name in ("_dedup_blocks", "_remap"):
        fails_on_worker(lambda: read_stl(data), mesh_io, name)
    # in blocks of 2 triangles, only the ranking calls are given more than one block
    fails_on_worker(lambda: read_stl(data), mesh_io, "_unique_rows",
                    when=lambda parts, inverse: len(parts) > 1, chunk=2)


def on_main_thread(value):
    return value, threading.current_thread() is threading.main_thread()


def test_on_both_returns_both_results_in_order():
    assert mesh_io._on_both(partial(on_main_thread, "here"), partial(on_main_thread, "there")) \
        == (("here", True), ("there", False))


def test_on_both_raises_a_worker_failure_after_here_ends():
    failed, ended = threading.Event(), []

    def there():
        failed.set()
        raise MemoryError("injected on the worker")

    def here():
        assert failed.wait(timeout=60)
        time.sleep(0.05)
        ended.append("here")

    with pytest.raises(MemoryError, match="injected on the worker"):
        mesh_io._on_both(here, there)
    assert ended == ["here"]


def test_on_both_raises_a_caller_failure_after_there_ends():
    threads = threading.active_count()
    started, ended = threading.Event(), []

    def there():
        started.set()
        time.sleep(0.2)
        ended.append("there")

    def here():
        assert started.wait(timeout=60)
        raise MemoryError("injected on the caller")

    with pytest.raises(MemoryError, match="injected on the caller"):
        mesh_io._on_both(here, there)
    assert ended == ["there"]
    assert threading.active_count() == threads


def test_every_split_runs_through_on_both():
    # a pool or a submit anywhere else would be a split outside the helper and its rules
    package = pathlib.Path(mesh_io.__file__).parent
    helpers, outside = 0, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_on_both":
                helpers += 1
                inside.update(id(child) for child in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            names = [alias.name for alias in getattr(node, "names", [])]
            names += [getattr(node, "id", None), getattr(node, "attr", None)]
            if "ThreadPoolExecutor" in names or (
                    isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "submit"):
                outside.append(f"{path.name}:{node.lineno}")
    assert helpers == 1
    assert outside == []


def test_mesh_io_has_one_cross_product():
    # a second product, np.cross among them, could drift from the one both the writer and
    # the degenerate count use
    tree = ast.parse(pathlib.Path(mesh_io.__file__).read_text(encoding="utf-8"))

    def called(node):
        """The name that a call calls, or "" for any other node."""
        if not isinstance(node, ast.Call):
            return ""
        return getattr(node.func, "id", None) or getattr(node.func, "attr", "")

    other = [node.lineno for node in ast.walk(tree)
             if "cross" in called(node).lower() and called(node) != "_cross"]
    callers = {function.name for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               and any(called(node) == "_cross" for node in ast.walk(function))}
    assert other == []
    assert callers == {"_fill_records", "_count_degenerate"}


def test_bbox():
    report = validate(tetrahedron())
    assert report.bbox_min == Vec3(0.0, 0.0, 0.0)
    assert report.bbox_max == Vec3(1.0, 1.0, 1.0)


def float64_bits():
    """Float64 values of any bit pattern, signed zeros and NaNs of any sign and payload among them."""
    special = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan])
    bits = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64)))
    return st.one_of(special, st.floats(), bits)


# column by column, the max of these 17 rows is 0.0; across the rows it is -0.0
ZERO_SIGN_ROWS = [(c, c, c) for c in (-1.0, -0.0, -0.0, -1.0, -1.0, -0.0, -0.0, 0.0, -1.0, 0.0,
                                      0.0, 0.0, -1.0, -0.0, -0.0, -1.0, -1.0)]


@given(st.lists(st.tuples(float64_bits(), float64_bits(), float64_bits()), min_size=1,
                max_size=200))
@example(ZERO_SIGN_ROWS)
@example([(np.nan, 1.0, 0.0), (-np.nan, -1.0, -0.0)])
def test_bbox_bits_are_those_of_the_row_wise_reduction(rows):
    vertices = np.array(rows, dtype=np.float64)
    box = mesh_io._extent(TriangleMesh(vertices, np.zeros((1, 3), np.int32)))
    expected = np.array([vertices.min(axis=0), vertices.max(axis=0)])
    assert np.asarray(box).view(np.uint64).tolist() == expected.view(np.uint64).tolist()


# --- memory ------------------------------------------------------------------
# Peak bytes per triangle that tracemalloc sees (numpy reports its buffers to
# it) on a 389 376-triangle torus.  Each bound sits below the peak of the waste
# named beside it.

TORUS_6X12_TRIANGLES = 389_376


@pytest.fixture(scope="module")
def torus_6x12():
    spec = WireframeSpec(SurfaceParams(SurfaceKind.TORUS, lat_ribs=6, long_ribs=12), 4, 4)
    mesh = tessellate_segments(plan_segments(spec), spec.capsule_resolution)
    assert mesh.triangle_count == TORUS_6X12_TRIANGLES
    validate(tetrahedron())  # the thread pool's first import would count toward the first peak
    return mesh


def peak_bytes_per_triangle(fn, arg) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1] / TORUS_6X12_TRIANGLES
    finally:
        tracemalloc.stop()


def test_validate_built_mesh_peak(torus_6x12):
    # the whole-part run starts and edge keys beside the sorted keys, a byte of
    # direction and a byte of run flag per use reach 54
    assert peak_bytes_per_triangle(validate, torus_6x12) < 50


def test_binary_write_peak(torus_6x12):
    # a record array joined into a second copy of the file reaches 106
    assert peak_bytes_per_triangle(write_stl, torus_6x12) < 94


def test_ascii_write_peak(torus_6x12):
    # every chunk's text kept in a list and then joined into a second copy reaches 525
    assert peak_bytes_per_triangle(lambda mesh: write_stl(mesh, "ascii"), torus_6x12) < 450


def test_ascii_write_to_a_file_peak(torus_6x12, tmp_path):
    # the whole text made before one write reaches about 290, and the streamed text
    # beside np.unique's int64 inverse of every normal's bits 118; the blocks, the
    # normals and their int32 indices reach about 83
    with open(tmp_path / "t.stl", "w+b") as fh:
        write = partial(write_stl, mode="ascii", out=fh)
        assert peak_bytes_per_triangle(lambda mesh: len(write(mesh)), torus_6x12) < 100


def test_read_peak(torus_6x12):
    # a global lexsort of every corner's 96-bit key reaches 78
    data = bytes(write_stl(torus_6x12))
    assert peak_bytes_per_triangle(read_stl, data) < 64


def test_ascii_read_peak(torus_6x12):
    # the whole-text parse, a bytes object per vertex row before loadtxt, reaches 329;
    # the float32 corners of the slices and then the weld beside them reach about 80
    data = bytes(write_stl(torus_6x12, "ascii"))
    assert peak_bytes_per_triangle(read_stl, data) < 100


def test_validate_read_back_peak(torus_6x12):
    # the same whole-part run arrays reach 40 on the welded mesh
    back = read_stl(bytes(write_stl(torus_6x12)))
    assert peak_bytes_per_triangle(validate, back) < 38


def test_validate_read_back_in_bands_peak(torus_6x12, monkeypatch):
    # one band, as the default _BLOCK leaves this mesh, reaches 34.0: the sorted
    # key of every edge use beside the edges
    back = read_stl(bytes(write_stl(torus_6x12)))
    monkeypatch.setattr(mesh_io, "_BLOCK", 1 << 16)  # 3 bands
    assert mesh_io._cuts(back.triangles) == []
    assert peak_bytes_per_triangle(validate, back) < 22


def test_validate_in_blocks_peak(torus_6x12, monkeypatch):
    # one block, as the default _BLOCK leaves this mesh, reaches 43
    monkeypatch.setattr(mesh_io, "_BLOCK", 1 << 16)
    assert len(mesh_io._cuts(torus_6x12.triangles)) >= 3
    assert peak_bytes_per_triangle(validate, torus_6x12) < 20


def test_edge_counts_gather_in_blocks():
    # a whole-array edge_comp and np.bincount's intp copy of it reach 13 bytes
    # per edge on these edges
    rng = np.random.default_rng(21)
    ncomp, nv = 1 << 10, 1 << 18
    comp = rng.integers(0, ncomp, size=nv, dtype=np.int32)
    lo = rng.integers(0, nv, size=1 << 20, dtype=np.int32)
    grade = rng.integers(0, 4, size=len(lo), dtype=np.uint8)
    gc.collect()
    tracemalloc.start()
    try:
        counts = mesh_io._edge_counts(comp, ncomp, lo, grade)
        peak = tracemalloc.get_traced_memory()[1] / len(lo)
    finally:
        tracemalloc.stop()
    edge_comp = comp[lo]
    expected = [np.bincount(edge_comp[mask], minlength=ncomp)
                for mask in (grade >= 0, grade >= 2, grade >= 1, grade == 3)]
    assert [c.dtype for c in counts] == [np.dtype(np.intp)] * 4
    assert [c.tolist() for c in counts] == [e.tolist() for e in expected]
    assert peak < 2


def test_components_gather_in_blocks():
    # an intp copy of each edge index for np.take and a buffer for its aliased
    # out reach 20 bytes per edge on this graph
    rng = np.random.default_rng(20)
    nv = 1 << 18
    ends = rng.integers(0, nv, size=(2, 1 << 20), dtype=np.int32)
    ends = ends[:, ends[0] != ends[1]]
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    del ends
    gc.collect()
    tracemalloc.start()
    try:
        mesh_io._components(lo, hi, nv)
        peak = tracemalloc.get_traced_memory()[1] / len(lo)
    finally:
        tracemalloc.stop()
    assert peak < 10
