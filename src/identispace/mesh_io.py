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
_CHUNK = 1 << 16  # triangles (corners in _weld) per block for memory-bounded passes
_FACET = (
    "  facet normal %.9g %.9g %.9g\n    outer loop\n"
    + "      vertex %.9g %.9g %.9g\n" * 3
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
        text += ((_FACET * len(chunk)) % tuple(values.ravel().tolist())).encode("ascii")
    text += f"endsolid {name}\n".encode("ascii")
    return text


def _weld(tri_verts: np.ndarray) -> TriangleMesh:
    """Index a (T,3,3) float32 coordinate soup, welding bit-identical vertices.

    Identity is the 96-bit pattern, so -0.0 and +0.0 are distinct vertices.
    A NaN or infinite coordinate raises ``StlError``.  ``tri_verts`` may be a
    strided view of the file's records; it is never copied whole.  Each
    corner costs a 12-byte key (uint64 ``x << 32 | y`` and uint32 ``z``),
    8 bytes of sort order and a 4-byte vertex index; the sorted keys are
    gathered ``_CHUNK`` corners at a time.
    """
    bits = tri_verts.view("<u4")
    xy = bits[..., 0].astype(np.uint64)
    xy <<= 32
    xy |= bits[..., 1]
    xy, z = xy.reshape(-1), bits[..., 2].astype(np.uint32).reshape(-1)
    order = np.lexsort((z, xy))  # two radix passes instead of three
    inverse = np.empty(len(order), dtype=np.int32)
    firsts = [np.empty(0, dtype=np.intp)]  # the first corner of each run of equal keys
    welded = 0
    for start in range(0, len(order), _CHUNK):
        at = order[start : start + _CHUNK]
        run_xy, run_z = xy[at], z[at]
        first = np.empty(len(at), dtype=bool)
        before = order[start - 1]  # the last corner of the previous block
        first[0] = start == 0 or xy[before] != run_xy[0] or z[before] != run_z[0]
        np.not_equal(run_xy[1:], run_xy[:-1], out=first[1:])
        first[1:] |= run_z[1:] != run_z[:-1]
        index = np.cumsum(first, dtype=np.int32)
        index += welded - 1
        inverse[at] = index
        welded = int(index[-1]) + 1
        firsts.append(at[first])
    del xy, z, order
    corner = np.concatenate(firsts)
    vertices = tri_verts[corner // 3, corner % 3]
    if not np.isfinite(vertices).all():
        raise StlError("STL has a non-finite vertex coordinate")
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
    patterns read as uint32, so 1.0 < 2.0 < -0.0.
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


def validate(mesh: TriangleMesh) -> MeshReport:
    """Report connectivity, closedness and quality; never raises on bad geometry.

    Components are computed over shared vertex indices (not spatial
    proximity), so overlapping-but-unwelded components stay separate.  A
    second thread counts the degenerate triangles in blocks of
    ``_CHUNK // 8``, while the calling thread encodes each edge use as
    ``(lo*nv + hi) << 1 | (runs lo -> hi)`` in ``_CHUNK`` blocks; a single
    sort then groups the uses of each undirected edge into one run.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported here to keep CLI start-up short

    from scipy.sparse import csr_matrix  # imported here: no other CLI command needs scipy
    from scipy.sparse.csgraph import connected_components

    mesh.check_indices()
    tris = mesh.triangles
    nv = len(mesh.vertices)
    nt = len(tris)

    with ThreadPoolExecutor(1) as pool:
        degenerate = pool.submit(_count_degenerate, mesh.vertices, tris)

        keys = np.empty((nt, 3), dtype=np.int64)
        for start in range(0, nt, _CHUNK):
            t = tris[start : start + _CHUNK]
            tail, head = t.astype(np.int64), t[:, [1, 2, 0]]
            k = np.minimum(tail, head) * nv + np.maximum(tail, head)
            k <<= 1
            k |= tail < head
            k[tail == head] = -1  # collapsed edge of a repeated-index triangle
            keys[start : start + _CHUNK] = k

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
        count = np.diff(starts, append=len(keys))
        del keys
        net = 2 * np.add.reduceat(forward, starts, dtype=np.int64) - count
        del forward, starts
        balanced = net == 0
        manifold = (count == 2) & balanced
        boundary = count == 1
        del net, count

        # ulo is sorted, so the edges from vertex r are ukeys[indptr[r]:indptr[r + 1]]
        ulo = ukeys // nv
        indptr = np.searchsorted(ulo, np.arange(nv + 1))
        graph = csr_matrix((np.ones(len(ukeys)), ukeys % nv, indptr), shape=(nv, nv))
        del ukeys, indptr
        _, labels = connected_components(graph, directed=False)
        del graph
        referenced = np.zeros(nv, dtype=bool)
        referenced[tris.ravel()] = True
        comp_labels = np.unique(labels[referenced])
        ncomp = len(comp_labels)
        remap = np.full(labels.max() + 1 if nv else 1, -1, dtype=np.int64)
        remap[comp_labels] = np.arange(ncomp)
        edge_comp = remap[labels[ulo]]
        del ulo

        v_per = np.bincount(remap[labels[referenced]], minlength=ncomp)
        e_per = np.bincount(edge_comp, minlength=ncomp)
        f_per = np.bincount(remap[labels[tris[:, 0]]], minlength=ncomp)
        unbalanced_per = np.bincount(edge_comp[~balanced], minlength=ncomp)
        nonmanifold_per = np.bincount(edge_comp[~manifold], minlength=ncomp)
        boundary_per = np.bincount(edge_comp[boundary], minlength=ncomp)
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
