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


def _fill_records(records: np.ndarray, v32: np.ndarray, triangles: np.ndarray) -> None:
    """Fill the corners and unit normals of binary records, ``_CHUNK // 2`` at a time."""
    step = max(_CHUNK // 2, 1)
    for start in range(0, len(records), step):
        block = records[start : start + step]
        block["corners"] = v32[triangles[start : start + step]]
        block["normal"] = _unit_normals(block["corners"])


def write_stl(mesh: TriangleMesh, mode: str = "binary") -> bytearray:
    """Serialize to STL bytes, returned as a ``bytearray`` in both modes.

    Binary layout: 80-byte header tagged ``identispace-forge``, little-endian
    uint32 triangle count, then 50 bytes per triangle (normal, three vertices
    as float32, zero attribute); total length is exactly 84 + 50*n.  The
    records are filled in place inside the binary buffer, the first half on
    the calling thread and the second half on a second thread, each in blocks
    of ``_CHUNK // 2`` triangles, so the file is never copied.  ASCII mode
    formats those records ``_CHUNK`` at a time into one growing ``bytearray``,
    emitting the float32-rounded coordinates with 9 significant digits so
    both modes parse back to identical meshes.  A vertex that is not finite
    once rounded to float32 raises ``ValueError``.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported here to keep CLI start-up short

    if mode not in ("binary", "ascii"):
        raise ValueError(f"mode must be 'binary' or 'ascii', got {mode!r}")
    n = mesh.triangle_count
    if n >= STL_TRIANGLE_LIMIT:
        raise ValueError("triangle count exceeds the 32-bit STL limit")
    mesh.check_indices()
    with np.errstate(over="ignore"):
        v32 = mesh.vertices.astype("<f4")
    if not np.isfinite(v32).all():
        raise ValueError("a vertex is not finite in float32, the STL coordinate type")

    binary = bytearray(84 + 50 * n)  # zeroed, so every attribute is 0
    binary[:80] = STL_HEADER_TAG.ljust(80, b"\0")
    struct.pack_into("<I", binary, 80, n)
    records = np.frombuffer(binary, _RECORD, count=n, offset=84)
    half = n // 2
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(_fill_records, records[half:], v32, mesh.triangles[half:])
        _fill_records(records[:half], v32, mesh.triangles[:half])
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


def _weld(tri_verts: np.ndarray) -> TriangleMesh:
    """Index a (T,3,3) float32 coordinate soup, welding bit-identical vertices.

    Identity is the 96-bit pattern, so -0.0 and +0.0 are distinct vertices.
    A NaN or infinite coordinate raises ``StlError``.  ``tri_verts`` may be a
    strided view of the file's records; it is never copied whole.  Each block
    of ``_CHUNK`` triangles is deduplicated on its own, the first half of the
    blocks on the calling thread and the rest on a second thread.  One sort
    of the block-unique rows then ranks them into vertices; on a tessellated
    mesh there is about half a row per corner, and on the default torus a
    sixth.  The only array with an entry per corner is the 4-byte vertex
    index, remapped in place block by block.
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
    sizes = [len(rows) for rows in blocks]
    rank = np.empty(sum(sizes), dtype=np.int32)
    vertices = _unique_rows(blocks, rank).view("<f4")
    if not np.isfinite(vertices).all():
        raise StlError("STL has a non-finite vertex coordinate")

    offset = 0
    for block, size in enumerate(sizes):
        corners = inverse[3 * step * block : 3 * step * (block + 1)]
        corners[:] = rank[offset : offset + size][corners]
        offset += size
    return TriangleMesh(vertices.astype(np.float64), inverse.reshape(-1, 3))


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
    corner plus the block-unique rows; its blocks run on two threads, and its
    sorts are one-word ``np.argsort`` calls.  A file with ``_VERTEX_LIMIT``
    (2**31) or more distinct vertices, past the int32 vertex index, raises
    ``StlError``.
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
    """
    sq_bound = (2.0 * DEGENERATE_AREA) ** 2
    step = max(_CHUNK // 8, 1)
    count = 0
    for start in range(0, len(tris), step):
        t = tris[start : start + step]
        p0 = vertices[t[:, 0]]
        cr = np.cross(vertices[t[:, 1]] - p0, vertices[t[:, 2]] - p0)
        count += int(((cr * cr).sum(axis=1) <= sq_bound).sum())
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


def validate(mesh: TriangleMesh) -> MeshReport:
    """Report connectivity, closedness and quality; never raises on bad geometry.

    Components are computed over shared vertex indices (not spatial
    proximity), so overlapping-but-unwelded components stay separate.  Each
    edge use is encoded as ``(lo*nv + hi) << 1 | (runs lo -> hi)``, the first
    half of the triangles on the calling thread and the second half on a
    second thread, each in blocks of ``_CHUNK // 2``.  The second thread then
    counts the degenerate triangles in blocks of ``_CHUNK // 8``, while a
    single sort on the calling thread groups the uses of each undirected edge
    into one run.  Beside its 8-byte key, an edge use costs a byte of
    direction and a byte of run flag.  Per edge, the use count and the net
    direction are 4-byte integers while ``3 * nt < 2**31``, and 8-byte above;
    only a one-byte grade of the edge outlives them.  The unique edges are
    then split into int32 ``lo`` and ``hi`` ends, and ``_components`` labels
    each vertex with the smallest vertex of its component, in numpy alone.
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
        degenerate = pool.submit(_count_degenerate, mesh.vertices, tris)  # runs after the fill
        _edge_keys(tris[:half], nv, keys[:half])
        filled.result()
        keys = keys.reshape(-1)
        keys.sort()
        keys = keys[np.searchsorted(keys, 0) :]
        forward = np.bitwise_and(keys, 1, out=np.empty(len(keys), dtype=np.int8))
        keys >>= 1
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        ukeys = keys[starts]
        uses = np.int32 if 3 * nt < 2**31 else np.int64  # wide enough for any count of uses
        count = np.empty(len(starts), dtype=uses)
        np.subtract(starts[1:], starts[:-1], out=count[:-1])
        count[-1:] = len(keys) - starts[-1:]
        del keys
        net = np.empty(len(starts), dtype=uses)
        for at in range(0, len(starts), _CHUNK):  # in blocks: reduceat casts its whole input
            run = starts[at : at + _CHUNK]
            end = starts[at + _CHUNK] if at + _CHUNK < len(starts) else len(forward)
            net[at : at + _CHUNK] = np.add.reduceat(forward[run[0] : end], run - run[0], dtype=uses)
        del forward, starts
        net *= 2
        net -= count
        # one byte per edge, held through the component search: 0 manifold,
        # 1 balanced but not manifold, 2 unbalanced, 3 boundary (count 1)
        grade = (count != 2).view(np.uint8)
        grade[net != 0] = 2
        grade[count == 1] = 3
        del net, count

        lo = np.empty(len(ukeys), dtype=np.int32)
        hi = np.empty(len(ukeys), dtype=np.int32)
        for at in range(0, len(ukeys), _CHUNK):  # in blocks: divmod makes two int64 arrays
            lo[at : at + _CHUNK], hi[at : at + _CHUNK] = np.divmod(ukeys[at : at + _CHUNK], nv)
        del ukeys
        labels = _components(lo, hi, nv)
        del hi
        referenced = np.zeros(nv, dtype=bool)
        referenced[tris.ravel()] = True
        # a label is its component's smallest vertex, so numbering the referenced
        # roots in index order keeps the components in the order of that vertex
        root = (labels == np.arange(nv, dtype=np.int32)) & referenced
        ncomp = int(np.count_nonzero(root))
        comp = (np.cumsum(root, dtype=np.int32) - 1)[labels]  # each referenced vertex's component
        del labels, root
        edge_comp = comp[lo]  # the component of each edge's lo end
        del lo

        v_per = np.bincount(comp[referenced], minlength=ncomp)
        e_per = np.bincount(edge_comp, minlength=ncomp)
        f_per = np.bincount(comp[tris[:, 0]], minlength=ncomp)
        unbalanced_per = np.bincount(edge_comp[grade >= 2], minlength=ncomp)
        nonmanifold_per = np.bincount(edge_comp[grade >= 1], minlength=ncomp)
        boundary_per = np.bincount(edge_comp[grade == 3], minlength=ncomp)
        bbox = (mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)) if nt else np.zeros((2, 3))

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
