"""Indexed triangle meshes, binary/ASCII STL, and watertightness reports.

Meshes are unions of closed oriented component surfaces; components may
overlap in space but never share vertex indices unless a reader welded them.
``read_stl`` welds vertices at exact 32-bit bit equality (signed zeros stay
distinct), so re-reading a file reconstructs precisely the incidence that the
coordinates encode.

Watertightness is judged per connected component on directed edge use: every
undirected edge must be traversed the same number of times in each direction.
A closed oriented surface satisfies this with one traversal each way; exact
duplicates of a closed surface (which arise when a periodic parameter range
is traced twice and welding merges the copies) stay balanced and therefore
stay watertight, while any gap, flip or stray border does not.  The stricter
"exactly one traversal each way" condition is reported separately as
``edge_manifold``.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from .geom import Vec3

__all__ = [
    "TriangleMesh",
    "MeshReport",
    "StlError",
    "STL_HEADER_TAG",
    "STL_TRIANGLE_LIMIT",
    "DEGENERATE_AREA",
    "write_stl",
    "read_stl",
    "validate",
]

STL_HEADER_TAG = b"identispace-forge"
DEGENERATE_AREA = 1e-12  # mm^2; triangles at or below this count as degenerate

STL_TRIANGLE_LIMIT = 2**32  # the binary header stores the count as uint32

# one packed 50-byte binary facet record
_RECORD = np.dtype([("normal", "<f4", 3), ("corners", "<f4", (3, 3)), ("attribute", "<u2")])
_XYZ = np.dtype([("xyz", "<f8", 3)])  # an ASCII vertex row: loadtxt demands exactly 3 numbers
_CHUNK = 1 << 16  # triangles per block for memory-bounded passes
_VERTEX_LIMIT = 2**31  # welded vertices are indexed by int32
_FACET = (  # filled with values already formatted by "%.9g"
    "  facet normal %s %s %s\n    outer loop\n"
    + "      vertex %s %s %s\n" * 3
    + "    endloop\n  endfacet\n"
)
# The other line breaks of str.splitlines become "\n", so a data line follows a "\n" (the
# first line is "solid"); str.split also splits at \x1f.  A vertex row follows the first token.
_NEWLINES = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e", b"\n" * 6)
_FACET_LINE = re.compile(rb"\n[ \t\x1f]*facet normal")
_VERTEX_ROW = re.compile(rb"\n[ \t\x1f]*vertex[^\s\x1f]*[ \t\x1f]*([^\n]*)")


class StlError(ValueError):
    """Raised for malformed, truncated or inconsistent STL data."""


@dataclass
class TriangleMesh:
    """Vertex array (N,3) float64 plus (T,3) int32 index triples.

    Components are not stored: :func:`validate` derives them from shared
    vertex indices.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int32).reshape(-1, 3)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def check_indices(self) -> None:
        if len(self.triangles) and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise ValueError("triangle index out of range")


@dataclass
class MeshReport:
    """Per-component verdicts plus whole-mesh statistics."""

    component_count: int
    watertight_per_component: np.ndarray
    euler_characteristic_per_component: np.ndarray
    edge_manifold_per_component: np.ndarray
    boundary_edges_per_component: np.ndarray
    bbox_min: Vec3
    bbox_max: Vec3
    triangle_count: int
    degenerate_count: int

    @property
    def all_watertight(self) -> bool:
        return bool(np.all(self.watertight_per_component))

    @property
    def all_edge_manifold(self) -> bool:
        return bool(np.all(self.edge_manifold_per_component))

    @property
    def boundary_edge_count(self) -> int:
        return int(self.boundary_edges_per_component.sum())

    def summary_lines(self) -> list[str]:
        chi = self.euler_characteristic_per_component
        chi_desc = "n/a"
        if self.component_count:
            lo, hi = int(chi.min()), int(chi.max())
            chi_desc = str(lo) if lo == hi else f"{lo}..{hi}"
        return [
            f"triangles: {self.triangle_count}",
            f"components: {self.component_count}",
            f"watertight: {int(self.watertight_per_component.sum())}/{self.component_count}",
            f"edge_manifold: {int(self.edge_manifold_per_component.sum())}/{self.component_count}",
            f"euler_characteristic: {chi_desc}",
            f"boundary_edges: {self.boundary_edge_count}",
            f"degenerate_triangles: {self.degenerate_count}",
            "bbox_min: %.6g %.6g %.6g" % self.bbox_min,
            "bbox_max: %.6g %.6g %.6g" % self.bbox_max,
        ]


def _unit_normals(corners: np.ndarray) -> np.ndarray:
    """Unit normals from (T,3,3) corner coordinates; zero where degenerate."""
    p0 = corners[:, 0].astype(np.float64)
    cr = np.cross(corners[:, 1] - p0, corners[:, 2] - p0)
    n = np.sqrt((cr * cr).sum(axis=1))
    nz = n > 0.0
    cr[nz] /= n[nz, None]
    cr[~nz] = 0.0
    return cr


def _fill_records(records: np.ndarray, vertices: np.ndarray, triangles: np.ndarray) -> None:
    """Fill the corners and unit normals of binary records, ``_CHUNK // 2`` at a time.

    The float64 corners are rounded to float32 as they are stored.
    """
    step = max(_CHUNK // 2, 1)
    for start in range(0, len(records), step):
        block = records[start : start + step]
        block["corners"] = vertices[triangles[start : start + step]]
        block["normal"] = _unit_normals(block["corners"])


def write_stl(mesh: TriangleMesh, mode: str = "binary") -> bytearray:
    """Serialize to STL bytes, returned as a ``bytearray`` in both modes.

    Binary layout: 80-byte header tagged ``identispace-forge``, little-endian
    uint32 triangle count, then 50 bytes per triangle (normal, three vertices
    as float32, zero attribute); total length is exactly 84 + 50*n.  The
    records are filled in place inside the binary buffer, the first half on
    the calling thread and the second half on a second thread, each in blocks
    of ``_CHUNK // 2`` triangles, so the file is never copied.  The corners
    are rounded to float32 block by block, so there is no float32 copy of
    the vertices either.  ASCII mode formats those records ``_CHUNK`` at a
    time into one growing ``bytearray``, emitting the float32-rounded
    coordinates with 9 significant digits so both modes parse back to
    identical meshes.  A vertex that is not finite once rounded to float32
    raises ``ValueError``.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported here to keep CLI start-up short

    if mode not in ("binary", "ascii"):
        raise ValueError(f"mode must be 'binary' or 'ascii', got {mode!r}")
    n = mesh.triangle_count
    if n >= STL_TRIANGLE_LIMIT:
        raise ValueError("triangle count exceeds the 32-bit STL limit")
    mesh.check_indices()
    step = max(_CHUNK, 1)
    with np.errstate(over="ignore"):
        for start in range(0, len(mesh.vertices), step):
            if not np.isfinite(mesh.vertices[start : start + step].astype("<f4")).all():
                raise ValueError("a vertex is not finite in float32, the STL coordinate type")

    binary = bytearray(84 + 50 * n)  # zeroed, so every attribute is 0
    binary[:80] = STL_HEADER_TAG.ljust(80, b"\0")
    struct.pack_into("<I", binary, 80, n)
    records = np.frombuffer(binary, _RECORD, count=n, offset=84)
    half = n // 2
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(_fill_records, records[half:], mesh.vertices, mesh.triangles[half:])
        _fill_records(records[:half], mesh.vertices, mesh.triangles[:half])
        second.result()
    if mode == "binary":
        return binary

    name = STL_HEADER_TAG.decode("ascii")
    text = bytearray(f"solid {name}\n".encode("ascii"))
    for start in range(0, n, _CHUNK):
        chunk = records[start : start + _CHUNK]
        values = np.concatenate([chunk["normal"], chunk["corners"].reshape(-1, 9)], axis=1)
        # each distinct float32 is formatted once; the bits keep -0.0 apart from 0.0
        bits, at = np.unique(values.view(np.uint32), return_inverse=True)
        digits = np.array(["%.9g" % v for v in bits.view(np.float32).tolist()], dtype=object)
        text += ((_FACET * len(chunk)) % tuple(digits[at.ravel()].tolist())).encode("ascii")
    text += f"endsolid {name}\n".encode("ascii")
    return text


def _unique_rows(parts: list, inverse: np.ndarray) -> np.ndarray:
    """The sorted unique rows among the (n,3) uint32 ``parts``; the list is emptied.

    Each row's index among them is written to the int32 ``inverse``.  Rows
    sort as (x, y, z) by two one-word sorts: the uint64 ``x << 32 | y`` word
    first, then the run key ``(index of the word's run) << 32 | z``, which is
    in order already except inside runs of equal words.  Equal run keys are
    equal rows.  ``StlError`` is raised from ``_VERTEX_LIMIT`` unique rows
    on, which also keeps the run index within 32 bits.
    """
    key = np.concatenate([np.empty(0, dtype=np.uint64), *(p[:, 0] for p in parts)])
    key <<= 32
    key |= np.concatenate([np.empty(0, dtype=np.uint32), *(p[:, 1] for p in parts)])
    z = np.concatenate([np.empty(0, dtype=np.uint32), *(p[:, 2] for p in parts)])
    parts.clear()
    order = np.argsort(key)
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    xy = key[first]  # one word per run
    _check_vertex_count(len(xy))
    _number_runs(first, key)
    del first
    key <<= 32
    step = 3 * max(_CHUNK, 1)  # the gathers go a block's corners at a time, not whole
    for start in range(0, len(key), step):
        key[start : start + step] |= z[order[start : start + step]]
    del z
    sub = np.argsort(key, kind="stable")  # near-linear: only the runs are out of order
    key.sort()  # key[sub], without a second array
    for start in range(0, len(sub), step):  # sub becomes order[sub] without a third array
        block = sub[start : start + step]
        block[:] = order[block]
    order = sub
    del sub
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    unique = key[first]
    _check_vertex_count(len(unique))
    inverse[order] = _number_runs(first, key)
    del order, first, key
    rows = np.empty((len(unique), 3), dtype=np.uint32)
    rows[:, 2] = unique & 0xFFFFFFFF
    xy = xy[unique >> 32]
    rows[:, 0] = xy >> 32
    rows[:, 1] = xy & 0xFFFFFFFF
    return rows


def _number_runs(first: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the index of each element's run, given the bool run starts."""
    out[:] = first
    out[:1] = 0
    return np.cumsum(out, out=out)


def _check_vertex_count(count: int) -> None:
    if count >= _VERTEX_LIMIT:
        raise StlError(f"STL has more than {_VERTEX_LIMIT - 1} distinct vertices, "
                       "past the int32 vertex index")


def _dedup_blocks(bits: np.ndarray, inverse: np.ndarray) -> list:
    """The unique rows of each ``_CHUNK``-triangle block of (T,3,3) uint32 bits.

    Each corner's index among its block's rows is written to ``inverse``
    (3T int32); the rows come back as a list, one (n,3) array per block.
    """
    step = max(_CHUNK, 1)
    return [
        _unique_rows([bits[start : start + step].reshape(-1, 3)],
                     inverse[3 * start : 3 * (start + step)])
        for start in range(0, len(bits), step)
    ]


def _pivot(blocks: list) -> int:
    """The median x word of a sample of about 4 096 rows of the (n,3) uint32 ``blocks``."""
    stride = max(sum(len(rows) for rows in blocks) // 4096, 1)
    sample = np.concatenate([np.empty(0, dtype=np.uint32), *(rows[::stride, 0] for rows in blocks)])
    return int(np.partition(sample, len(sample) // 2)[len(sample) // 2]) if len(sample) else 0


def _weld(tri_verts: np.ndarray) -> TriangleMesh:
    """Index a (T,3,3) float32 coordinate soup, welding bit-identical vertices.

    Identity is the 96-bit pattern, so -0.0 and +0.0 are distinct vertices.
    A NaN or infinite coordinate raises ``StlError``.  ``tri_verts`` may be a
    strided view of the file's records; it is never copied whole.  Each block
    of ``_CHUNK`` triangles is deduplicated on its own, the first half of the
    blocks on the calling thread and the rest on a second thread.  The
    block-unique rows, about half a row per corner on a tessellated mesh and
    a sixth on the default torus, are then ranked into vertices on both
    threads: each block's rows are in (x, y, z) order, so a pivot x word (the
    median of a sample) cuts every block into the rows below it and the rows
    from it on.  The calling thread ranks the lower rows and the worker the
    upper, and the upper ranks follow the lower ones, so the vertex order is
    that of one global ranking whatever the pivot.  The only array with an
    entry per corner is the 4-byte vertex index, remapped in place block by
    block on the calling thread while the worker builds the float64 vertices.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported here to keep CLI start-up short

    bits = tri_verts.view("<u4")
    step = max(_CHUNK, 1)
    half = (-(-len(bits) // step) + 1) // 2 * step  # the first half of the blocks, rounded up
    inverse = np.empty(3 * len(bits), dtype=np.int32)
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(_dedup_blocks, bits[half:], inverse[3 * half :])
        blocks = _dedup_blocks(bits[:half], inverse[: 3 * half])
        blocks += second.result()
        pivot = _pivot(blocks)
        cuts = [int(np.searchsorted(rows[:, 0], pivot)) for rows in blocks]
        sizes = [len(rows) for rows in blocks]
        lower = [rows[:cut] for rows, cut in zip(blocks, cuts)]
        upper = [rows[cut:] for rows, cut in zip(blocks, cuts)]
        del blocks
        lower_rank = np.empty(sum(cuts), dtype=np.int32)
        upper_rank = np.empty(sum(sizes) - sum(cuts), dtype=np.int32)
        upper = pool.submit(_unique_rows, upper, upper_rank)
        lower = _unique_rows(lower, lower_rank)
        upper = upper.result()
        _check_vertex_count(len(lower) + len(upper))
        upper_rank += len(lower)
        vertices = pool.submit(_vertex_array, [lower, upper])  # beside the remap
        del lower, upper
        at_lower = at_upper = 0
        for block, (cut, size) in enumerate(zip(cuts, sizes)):
            rank = np.concatenate([lower_rank[at_lower : at_lower + cut],
                                   upper_rank[at_upper : at_upper + size - cut]])
            corners = inverse[3 * step * block : 3 * step * (block + 1)]
            corners[:] = rank[corners]
            at_lower += cut
            at_upper += size - cut
        return TriangleMesh(vertices.result(), inverse.reshape(-1, 3))


def _vertex_array(rows: list) -> np.ndarray:
    """The float64 vertices of the uint32 float32-bit ``rows`` arrays in turn; the list is emptied.

    A NaN or infinite coordinate raises ``StlError``.
    """
    vertices = np.concatenate([part.view("<f4") for part in rows], dtype=np.float64)
    rows.clear()
    if not np.isfinite(vertices).all():
        raise StlError("STL has a non-finite vertex coordinate")
    return vertices


def _parse_binary(data: bytes) -> np.ndarray:
    if len(data) < 84:
        raise StlError(f"truncated STL: {len(data)} bytes, header needs 84")
    (n,) = struct.unpack_from("<I", data, 80)
    expected = 84 + 50 * n
    if len(data) != expected:
        raise StlError(
            f"STL length mismatch: {n} triangles need {expected} bytes, got {len(data)}"
        )
    return np.frombuffer(data, _RECORD, count=n, offset=84)["corners"]


def _parse_ascii(data: bytes) -> np.ndarray:
    """(T,3,3) float32 corners: three ``vertex`` rows per ``facet normal`` line."""
    if not data.isascii():
        raise StlError("ASCII STL has non-ASCII bytes")
    text = data.translate(_NEWLINES)
    rows, facets = _VERTEX_ROW.findall(text), len(_FACET_LINE.findall(text))
    if len(rows) != 3 * facets or not all(rows):  # loadtxt would skip a blank row
        raise StlError(f"{facets} facets need {3 * facets} vertex rows with coordinates; "
                       f"found {len(rows)}, {rows.count(b'')} of them without")
    try:
        coords = np.loadtxt(rows, _XYZ, comments=None)["xyz"] if rows else np.zeros((0, 3))
    except ValueError as exc:
        raise StlError(f"malformed vertex row: {str(exc).partition(';')[0]}") from None
    with np.errstate(over="ignore"):  # out-of-range values become inf, which _weld rejects
        return coords.astype(np.float32).reshape(-1, 3, 3)


def read_stl(data: bytes) -> TriangleMesh:
    """Parse STL bytes (binary or ASCII, auto-detected) into a welded mesh.

    Triangle order is preserved; vertices sort by their (x, y, z) float32 bit
    patterns read as uint32, so 1.0 < 2.0 < -0.0.  Beside ``data`` (and the
    corners ``_parse_ascii`` decodes from text), the weld holds 4 bytes per
    corner plus the block-unique rows.  Its blocks, and then the ranking of
    their rows split at a pivot x word, run on two threads, and its sorts
    are one-word ``np.argsort`` calls.  A file with ``_VERTEX_LIMIT`` (2**31)
    or more distinct vertices, past the int32 vertex index, raises
    ``StlError``, whether one side of the ranking or the two together reach
    it.
    """
    if data.lstrip()[:5] != b"solid":
        return _weld(_parse_binary(data))
    try:
        corners = _parse_ascii(data)
    except StlError as ascii_error:
        try:  # binary files may legally start with "solid"
            corners = _parse_binary(data)
        except StlError:
            raise ascii_error from None
    return _weld(corners)


def _count_degenerate(vertices: np.ndarray, tris: np.ndarray) -> int:
    """Triangles of area at most ``DEGENERATE_AREA``, ``_CHUNK // 8`` at a time.

    The test is made in squared form, ``|cross|^2 <= (2*thr)^2``, in float64.
    The corners are gathered a coordinate at a time from the columns of
    ``vertices`` (views, not a transposed copy), and the cross product
    ``a x b`` of the edges ``a = p1 - p0`` and ``b = p2 - p0`` is formed in
    place with the IEEE operations of ``np.cross`` in its order, so the count
    is exact: ``cx*cx + cy*cy + cz*cz`` is the sum ``np.cross`` would give.
    """
    sq_bound = (2.0 * DEGENERATE_AREA) ** 2
    columns = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    step = max(_CHUNK // 8, 1)
    count = 0
    for start in range(0, len(tris), step):
        t = tris[start : start + step]
        a, b = [], []
        for column in columns:
            p0 = column[t[:, 0]]
            a.append(column[t[:, 1]] - p0)
            b.append(column[t[:, 2]] - p0)
        (ax, ay, az), (bx, by, bz) = a, b
        cx = ay * bz
        cx -= az * by
        cy = az * bx
        cy -= ax * bz
        cz = ax * by
        cz -= ay * bx
        cx *= cx
        cx += np.multiply(cy, cy, out=cy)
        cx += np.multiply(cz, cz, out=cz)
        count += int(np.count_nonzero(cx <= sq_bound))
    return count


def _edge_keys(tris: np.ndarray, nv: int, keys: np.ndarray) -> None:
    """Fill the (T,3) int64 ``keys`` with each edge use as ``(lo*nv + hi) << 1 | (runs lo -> hi)``.

    A collapsed edge of a repeated-index triangle gets -1.  The triangles go
    ``_CHUNK // 2`` at a time, so the block temporaries of the two threads
    that fill a mesh's halves add up to one ``_CHUNK`` block, and they end
    with the call, before ``validate`` sorts the keys.
    """
    step = max(_CHUNK // 2, 1)
    for start in range(0, len(tris), step):
        t = tris[start : start + step]
        head = t[:, [1, 2, 0]]
        k = keys[start : start + step]
        np.minimum(t, head, out=k)
        k *= nv
        k += np.maximum(t, head)
        k <<= 1
        k |= t < head
        k[t == head] = -1


def _roots(parent: np.ndarray) -> np.ndarray:
    """Jump the pointers of the forest ``parent`` until each vertex points at its root."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent = up


def _components(lo: np.ndarray, hi: np.ndarray, nv: int) -> np.ndarray:
    """The int32 label of each of ``nv`` vertices: the smallest vertex of its component.

    The components are those of the undirected graph of the int32 edges
    ``lo < hi``; ``hi`` is overwritten.  Each round hooks the larger root of
    every edge under the smallest root it meets (``np.minimum.at``), then
    jumps pointers until every vertex points at its root, and keeps only the
    edges whose ends still have different roots (after Shiloach and Vishkin,
    "An O(log n) parallel connectivity algorithm", J. Algorithms 3, 1982).
    A hook only ever points a root at a smaller one, so the roots never form
    a cycle, and every round hooks the larger root of each edge it keeps:
    each round removes at least one root, so there are at most ``nv`` rounds,
    and each pointer jump halves the depth of every tree, so a round makes
    at most ``log2(nv) + 1`` jumps.  In practice the rounds are few: 1 on the
    built default torus, 3 on its read-back and 13 or 14 on a path of 2**20
    vertices in random order.
    """
    parent = np.arange(nv, dtype=np.int32)
    a, b = lo, hi  # every vertex is its own root, and lo < hi
    while len(a):
        np.minimum.at(parent, b, a)
        parent = _roots(parent)
        a, b = parent[a], np.take(parent, b, out=b)
        keep = a != b
        a, b = a[keep], b[keep]
        a, b = np.minimum(a, b), np.maximum(a, b, out=b)
    return parent


def _edge_runs(keys: np.ndarray, forward: np.ndarray, first: np.ndarray) -> list:
    """The runs of one part of the sorted edge-use keys, cut at a run start.

    Fills the int8 direction bit of each use into ``forward`` and the bool
    run flags into ``first``, and shifts ``keys`` right in place.  Returns
    ``[forward, starts, ukeys]``: the direction bits, the start of each
    edge's run and the edge keys.
    """
    np.bitwise_and(keys, 1, out=forward)
    keys >>= 1
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return [forward, starts, keys[starts]]


def _grade_edges(runs: list, nv: int, lo: np.ndarray, hi: np.ndarray, grade: np.ndarray) -> None:
    """Fill one part's ``lo`` and ``hi`` ends and one-byte ``grade`` from its ``_edge_runs``.

    The list is emptied.  The use count and net direction of each edge exist
    only for ``_CHUNK`` edges at a time.  Grades: 0 manifold, 1 balanced but
    not manifold, 2 unbalanced, 3 boundary (count 1).
    """
    forward, starts, ukeys = runs
    runs.clear()
    for at in range(0, len(starts), _CHUNK):
        run = starts[at : at + _CHUNK]
        end = starts[at + _CHUNK] if at + _CHUNK < len(starts) else len(forward)
        count = np.diff(run, append=end)
        net = np.add.reduceat(forward[run[0] : end], run - run[0], dtype=np.int64)
        net *= 2
        net -= count
        block = grade[at : at + _CHUNK]
        np.not_equal(count, 2, out=block.view(bool))
        block[net != 0] = 2
        block[count == 1] = 3
    del forward, starts
    for at in range(0, len(ukeys), _CHUNK):  # in blocks: divmod makes two int64 arrays
        lo[at : at + _CHUNK], hi[at : at + _CHUNK] = np.divmod(ukeys[at : at + _CHUNK], nv)


def _extent(mesh: TriangleMesh, referenced: np.ndarray):
    """The bounding box of the vertices (zeros without triangles); marks the vertices in use.

    The indices are cast to intp ``_CHUNK`` triangles at a time.
    """
    step = max(_CHUNK, 1)
    for at in range(0, mesh.triangle_count, step):
        referenced[mesh.triangles[at : at + step].ravel()] = True
    vertices = mesh.vertices
    return (vertices.min(axis=0), vertices.max(axis=0)) if mesh.triangle_count else np.zeros((2, 3))


def _vertex_face_counts(comp: np.ndarray, ncomp: int, tris: np.ndarray) -> tuple:
    """Vertices and faces per component; ``comp`` is ``ncomp`` at unreferenced vertices.

    A face counts toward the component of its first corner.  The counts are
    added ``_CHUNK`` vertices and faces at a time, so no whole-mesh gather or
    intp cast is made.
    """
    v_per = np.zeros(ncomp + 1, dtype=np.intp)
    f_per = np.zeros(ncomp, dtype=np.intp)
    step = max(_CHUNK, 1)
    for at in range(0, max(len(comp), len(tris)), step):
        np.add.at(v_per, comp[at : at + step], 1)
        np.add.at(f_per, comp[tris[at : at + step, 0]], 1)
    return v_per[:ncomp], f_per


def validate(mesh: TriangleMesh) -> MeshReport:
    """Report connectivity, closedness and quality; never raises on bad geometry.

    Components are computed over shared vertex indices (not spatial
    proximity), so overlapping-but-unwelded components stay separate.  The
    work is shared between the calling thread and a one-worker pool:

    * Each edge use is encoded as ``(lo*nv + hi) << 1 | (runs lo -> hi)``, a
      half of the triangles on each thread in blocks of ``_CHUNK // 2``.
    * The worker counts the degenerate triangles while one sort on the
      calling thread groups the uses of each undirected edge into one run.
    * The sorted keys are cut at the first use of the middle use's edge, and
      each thread finds the runs of its part.  Beside its 8-byte key, an edge
      use costs a byte of direction and a byte of run flag.
    * Once every key is freed, each thread grades the edges of its part into
      one byte each and splits them into int32 ``lo`` and ``hi`` ends, all
      written at the part's offset in shared arrays.  The use count and net
      direction of an edge exist only ``_CHUNK`` edges at a time.
    * ``_components`` labels each vertex with the smallest vertex of its
      component, in numpy alone, while the worker takes the bounding box and
      marks the vertices in use.  Then the worker counts the vertices and
      faces per component while the calling thread counts the edges.

    Components are numbered in the order of their smallest vertex, and each
    edge counts toward the component of its ``lo`` end.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported here to keep CLI start-up short

    mesh.check_indices()
    tris = mesh.triangles
    nv = len(mesh.vertices)
    nt = len(tris)

    keys = np.empty((nt, 3), dtype=np.int64)
    half = nt // 2
    with ThreadPoolExecutor(1) as pool:
        filled = pool.submit(_edge_keys, tris[half:], nv, keys[half:])
        degenerate = pool.submit(_count_degenerate, mesh.vertices, tris)  # beside the sort
        _edge_keys(tris[:half], nv, keys[:half])
        filled.result()
        keys = keys.reshape(-1)
        keys.sort()
        keys = keys[np.searchsorted(keys, 0) :]
        # the first use of the middle use's edge, so that no run is cut
        mid = int(np.searchsorted(keys, keys[len(keys) // 2] & ~1)) if len(keys) else 0
        # the per-use arrays are allocated on this thread and filled a part on each:
        # glibc keeps resident whatever a worker thread's heap once held
        forward = np.empty(len(keys), dtype=np.int8)
        first = np.empty(len(keys), dtype=bool)
        upper = pool.submit(_edge_runs, keys[mid:], forward[mid:], first[mid:])
        lower = _edge_runs(keys[:mid], forward[:mid], first[:mid])
        upper = upper.result()
        del keys, first, forward
        split = len(lower[2])
        edges = split + len(upper[2])
        lo = np.empty(edges, dtype=np.int32)
        hi = np.empty(edges, dtype=np.int32)
        grade = np.empty(edges, dtype=np.uint8)
        graded = pool.submit(_grade_edges, upper, nv, lo[split:], hi[split:], grade[split:])
        _grade_edges(lower, nv, lo[:split], hi[:split], grade[:split])
        graded.result()

        referenced = np.zeros(nv, dtype=bool)
        bbox = pool.submit(_extent, mesh, referenced)
        labels = _components(lo, hi, nv)
        del hi
        bbox = bbox.result()
        # a label is its component's smallest vertex, so numbering the referenced
        # roots in index order keeps the components in the order of that vertex
        root = (labels == np.arange(nv, dtype=np.int32)) & referenced
        ncomp = int(np.count_nonzero(root))
        number = np.cumsum(root, dtype=np.int32) - 1
        number[~root] = ncomp  # an unreferenced vertex is its own label, and not a root
        comp = number[labels]  # each vertex's component, ncomp if unreferenced
        del labels, root, number
        counted = pool.submit(_vertex_face_counts, comp, ncomp, tris)
        edge_comp = comp[lo]  # the component of each edge's lo end
        del lo
        e_per = np.bincount(edge_comp, minlength=ncomp)
        unbalanced_per = np.bincount(edge_comp[grade >= 2], minlength=ncomp)
        nonmanifold_per = np.bincount(edge_comp[grade >= 1], minlength=ncomp)
        boundary_per = np.bincount(edge_comp[grade == 3], minlength=ncomp)
        v_per, f_per = counted.result()

        return MeshReport(
            component_count=ncomp,
            watertight_per_component=unbalanced_per == 0,
            euler_characteristic_per_component=v_per - e_per + f_per,
            edge_manifold_per_component=nonmanifold_per == 0,
            boundary_edges_per_component=boundary_per,
            bbox_min=Vec3(*(float(c) for c in bbox[0])),
            bbox_max=Vec3(*(float(c) for c in bbox[1])),
            triangle_count=len(tris),
            degenerate_count=degenerate.result(),
        )
