import gc
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from identispace import mesh_io
from identispace.geom import SurfaceKind, SurfaceParams, Vec3
from identispace.mesh_io import (
    STL_HEADER_TAG,
    StlError,
    TriangleMesh,
    read_stl,
    validate,
    write_stl,
)
from identispace.wireframe import WireframeSpec, plan_segments, tessellate_segments

from oracles import ascii_corners_per_line, ascii_stl_per_facet, mesh_report_oracle
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


@pytest.mark.parametrize("mode", ["binary", "ascii"])
@settings(max_examples=60)
@given(soup=corner_soups())
def test_weld_matches_unique_rows(mode, soup):
    mesh = TriangleMesh(soup, np.arange(len(soup), dtype=np.int32))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mesh_io, "_CHUNK", 2)  # runs of equal corners cross blocks
        back = read_stl(write_stl(mesh, mode))
    # rows sort as uint32 (x, y, z), the documented vertex order
    rows, inverse = np.unique(soup.view("<u4"), axis=0, return_inverse=True)
    assert np.array_equal(back.vertices.astype(np.float32).view("<u4"), rows)
    assert np.array_equal(back.triangles.ravel(), inverse.ravel())


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


def test_worker_thread_failure_reaches_caller(monkeypatch):
    mesh = one_capsule((0, 0, 0), (1, 0.5, 2), 0.8, 6)
    fill = mesh_io._fill_records

    def fill_on_caller_only(records, *args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("injected on the worker")
        fill(records, *args)

    def count_fails(*args):
        raise MemoryError("injected on the worker")

    threads = threading.active_count()
    monkeypatch.setattr(mesh_io, "_fill_records", fill_on_caller_only)
    for mode in ("binary", "ascii"):
        with pytest.raises(MemoryError, match="worker"):
            write_stl(mesh, mode)
        assert threading.active_count() == threads
    monkeypatch.setattr(mesh_io, "_count_degenerate", count_fails)
    with pytest.raises(MemoryError, match="worker"):
        validate(mesh)
    assert threading.active_count() == threads


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
    validate(tetrahedron())  # scipy's first import would count toward the first peak
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
    # shifted copies of the edge keys and a COO graph reach 150
    assert peak_bytes_per_triangle(validate, torus_6x12) < 127


def test_binary_write_peak(torus_6x12):
    # a record array joined into a second copy of the file reaches 106
    assert peak_bytes_per_triangle(write_stl, torus_6x12) < 94


def test_ascii_write_peak(torus_6x12):
    # every chunk's text kept in a list and then joined into a second copy reaches 525
    assert peak_bytes_per_triangle(lambda mesh: write_stl(mesh, "ascii"), torus_6x12) < 450


def test_read_peak(torus_6x12):
    # a contiguous corner copy plus a sorted gather of all 96-bit corners reach 135
    data = bytes(write_stl(torus_6x12))
    assert peak_bytes_per_triangle(read_stl, data) < 111


def test_validate_read_back_peak(torus_6x12):
    # the same validate temporaries reach 92 on the welded mesh
    back = read_stl(bytes(write_stl(torus_6x12)))
    assert peak_bytes_per_triangle(validate, back) < 81
