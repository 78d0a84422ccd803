import gc
import hashlib
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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


@given(random_meshes())
@example(ZERO_AREA_AND_EXTREMES)
def test_ascii_matches_per_facet_oracle(mesh):
    assert write_stl(mesh, "ascii") == ascii_stl_per_facet(mesh.vertices, mesh.triangles)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunk_boundaries_leave_bytes_unchanged(monkeypatch, chunk):
    # 40 triangles: partial last blocks, the half split inside a block at 7, and
    # the _CHUNK // 2 record blocks clamped to one triangle at 1
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

    def recorded(bits, inverse):
        calls.append((threading.current_thread() is threading.main_thread(), len(bits)))
        return dedup(bits, inverse)

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
                         capsule_resolution=res)
    back = read_stl(bytes(write_stl(build_wireframe(spec, legacy))))
    assert hashlib.sha256(back.vertices.tobytes()).hexdigest() == vertices_sha
    assert hashlib.sha256(back.triangles.tobytes()).hexdigest() == triangles_sha


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
    fill, calls = mesh_io._edge_keys, []

    def recorded(tris, nv, keys):
        calls.append((threading.current_thread() is threading.main_thread(), len(tris)))
        fill(tris, nv, keys)

    monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
    monkeypatch.setattr(mesh_io, "_edge_keys", recorded)
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    assert report_fields(validate(mesh)) == expected
    assert sorted(calls) == [(False, nt - nt // 2), (True, nt // 2)]


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
    runs, grade, calls = mesh_io._edge_runs, mesh_io._grade_edges, []

    def recorded_runs(keys, *out):
        calls.append(("runs", threading.current_thread() is threading.main_thread(), len(keys)))
        return runs(keys, *out)

    def recorded_grade(parts, nv, lo, hi, grades):
        calls.append(("grade", threading.current_thread() is threading.main_thread(), len(lo)))
        grade(parts, nv, lo, hi, grades)

    monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
    monkeypatch.setattr(mesh_io, "_edge_runs", recorded_runs)
    monkeypatch.setattr(mesh_io, "_grade_edges", recorded_grade)
    expected = mesh_report_oracle(mesh.vertices, mesh.triangles, mesh_io.DEGENERATE_AREA)
    assert report_fields(validate(mesh)) == expected
    (lower_uses, lower_edges), (upper_uses, upper_edges) = edge_use_split(mesh.triangles)
    assert sorted(calls) == [("grade", False, upper_edges), ("grade", True, lower_edges),
                             ("runs", False, upper_uses), ("runs", True, lower_uses)]


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

    def fails_on_worker(call, module, name, when=lambda *args: True, chunk=None):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(module, name, on_caller_only(getattr(module, name), when))
            if chunk:
                monkeypatch.setattr(mesh_io, "_CHUNK", chunk)
            with pytest.raises(MemoryError, match="injected on the worker"):
                call()
        assert threading.active_count() == threads

    for mode in ("binary", "ascii"):
        fails_on_worker(lambda: write_stl(mesh, mode), mesh_io, "_fill_records")
    for name in ("_edge_keys", "_count_degenerate", "_edge_runs", "_grade_edges", "_extent"):
        fails_on_worker(lambda: validate(mesh), mesh_io, name)
    fails_on_worker(lambda: one_capsule((0, 0, 0), (1, 0.5, 2), 0.8, 6),
                    wireframe, "_tessellate_blocks")
    for name in ("_dedup_blocks", "_vertex_array"):
        fails_on_worker(lambda: read_stl(data), mesh_io, name)
    # in blocks of 2 triangles, only the ranking calls are given more than one block
    fails_on_worker(lambda: read_stl(data), mesh_io, "_unique_rows",
                    when=lambda parts, inverse: len(parts) > 1, chunk=2)


def test_bbox():
    report = validate(tetrahedron())
    assert report.bbox_min == Vec3(0.0, 0.0, 0.0)
    assert report.bbox_max == Vec3(1.0, 1.0, 1.0)


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
    # np.diff's appended copy of the run starts, an int64 cast of the direction
    # bits and ukeys // nv beside ukeys % nv reach 88
    assert peak_bytes_per_triangle(validate, torus_6x12) < 79


def test_binary_write_peak(torus_6x12):
    # a record array joined into a second copy of the file reaches 106
    assert peak_bytes_per_triangle(write_stl, torus_6x12) < 94


def test_ascii_write_peak(torus_6x12):
    # every chunk's text kept in a list and then joined into a second copy reaches 525
    assert peak_bytes_per_triangle(lambda mesh: write_stl(mesh, "ascii"), torus_6x12) < 450


def test_read_peak(torus_6x12):
    # a global lexsort of every corner's 96-bit key reaches 78
    data = bytes(write_stl(torus_6x12))
    assert peak_bytes_per_triangle(read_stl, data) < 64


def test_validate_read_back_peak(torus_6x12):
    # the same validate temporaries reach 61 on the welded mesh
    back = read_stl(bytes(write_stl(torus_6x12)))
    assert peak_bytes_per_triangle(validate, back) < 57
