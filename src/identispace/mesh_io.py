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

import struct
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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
_CHUNK = 1 << 16  # triangles per block for memory-bounded passes
_FACET = (
    "  facet normal %.9g %.9g %.9g\n    outer loop\n"
    + "      vertex %.9g %.9g %.9g\n" * 3
    + "    endloop\n  endfacet\n"
)


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


def write_stl(mesh: TriangleMesh, mode: str = "binary") -> bytes:
    """Serialize to STL bytes.

    Binary layout: 80-byte header tagged ``identispace-forge``, little-endian
    uint32 triangle count, then 50 bytes per triangle (normal, three vertices
    as float32, zero attribute); total length is exactly 84 + 50*n.  ASCII
    mode emits the float32-rounded coordinates with 9 significant digits so
    both modes parse back to identical meshes.  A vertex that is not finite
    once rounded to float32 raises ``ValueError``.
    """
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

    if mode == "binary":
        out = np.zeros(84 + 50 * n, dtype=np.uint8)
        out[:80] = np.frombuffer(STL_HEADER_TAG.ljust(80, b"\0"), dtype=np.uint8)
        out[80:84] = np.frombuffer(struct.pack("<I", n), dtype=np.uint8)
        _fill_records(out[84:].view(_RECORD), v32, mesh.triangles)
        return out.tobytes()

    records = np.zeros(n, dtype=_RECORD)
    _fill_records(records, v32, mesh.triangles)
    name = STL_HEADER_TAG.decode("ascii")
    parts = [f"solid {name}\n".encode("ascii")]
    for start in range(0, n, _CHUNK):
        chunk = records[start : start + _CHUNK]
        values = np.concatenate([chunk["normal"], chunk["corners"].reshape(-1, 9)], axis=1)
        parts.append(((_FACET * len(chunk)) % tuple(values.ravel().tolist())).encode("ascii"))
    parts.append(f"endsolid {name}\n".encode("ascii"))
    return b"".join(parts)


def _fill_records(records: np.ndarray, v32: np.ndarray, triangles: np.ndarray) -> None:
    """Write each triangle's unit normal and float32 corners into ``records``."""
    for start in range(0, len(records), _CHUNK):
        corners = v32[triangles[start : start + _CHUNK]]
        chunk = records[start : start + _CHUNK]
        chunk["normal"] = _unit_normals(corners)
        chunk["corners"] = corners


def _weld(tri_verts: np.ndarray) -> TriangleMesh:
    """Index a (T,3,3) float32 coordinate soup, welding bit-identical vertices.

    Identity is the 96-bit pattern, so -0.0 and +0.0 are distinct vertices.
    A NaN or infinite coordinate raises ``StlError``.
    """
    flat = np.ascontiguousarray(tri_verts.reshape(-1, 3))
    if len(flat) == 0:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int32))
    bits = flat.view("<u4")
    # sort on (x|y as one 64-bit key, then z): two radix passes instead of three
    xy = bits[:, 0].astype(np.uint64) << np.uint64(32)
    xy |= bits[:, 1]
    order = np.lexsort((bits[:, 2], xy))
    del xy
    ranked = bits[order]
    first = np.empty(len(ranked), dtype=bool)
    first[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(flat), dtype=np.int32)
    inverse[order] = np.cumsum(first, dtype=np.int32) - 1
    vertices = ranked[first].view("<f4")
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
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise StlError(f"ASCII STL is not ASCII: {exc}") from None
    facets = 0
    coords: list[float] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("facet normal"):
            facets += 1
        elif line.startswith("vertex"):
            parts = line.split()
            if len(parts) != 4:
                raise StlError(f"malformed vertex line: {line!r}")
            try:
                coords.extend(float(p) for p in parts[1:])
            except ValueError:
                raise StlError(f"unparseable vertex coordinates: {line!r}") from None
    if len(coords) != 9 * facets:
        raise StlError(
            f"vertex count mismatch: {facets} facets but {len(coords) // 3} vertices"
        )
    with np.errstate(over="ignore"):  # out-of-range values become inf, which _weld rejects
        return np.array(coords, dtype=np.float32).reshape(-1, 3, 3)


def read_stl(data: bytes) -> TriangleMesh:
    """Parse STL bytes (binary or ASCII, auto-detected) into a welded mesh.

    Triangle order is preserved; vertex order is the byte-lexicographic order
    of the welded float32 coordinates.
    """
    if data.lstrip()[:5] == b"solid":
        try:
            corners = _parse_ascii(data)
        except StlError:
            pass  # binary files may legally start with "solid"
        else:
            return _weld(corners)
    return _weld(_parse_binary(data))


def _empty_report() -> MeshReport:
    z = np.zeros(0, dtype=np.int64)
    return MeshReport(
        component_count=0,
        watertight_per_component=z.astype(bool),
        euler_characteristic_per_component=z,
        edge_manifold_per_component=z.astype(bool),
        boundary_edges_per_component=z,
        bbox_min=Vec3(0.0, 0.0, 0.0),
        bbox_max=Vec3(0.0, 0.0, 0.0),
        triangle_count=0,
        degenerate_count=0,
    )


def validate(mesh: TriangleMesh) -> MeshReport:
    """Report connectivity, closedness and quality; never raises on bad geometry.

    Components are computed over shared vertex indices (not spatial
    proximity), so overlapping-but-unwelded components stay separate.  One
    chunked pass over the triangles counts degenerate ones and encodes each
    edge use as ``(lo*nv + hi) << 1 | (runs lo -> hi)``; a single sort then
    groups the uses of each undirected edge into one run.
    """
    mesh.check_indices()
    tris = mesh.triangles
    nv = len(mesh.vertices)
    nt = len(tris)
    if nt == 0:
        return _empty_report()

    # degenerate iff area <= threshold, compared in squared form: |cross|^2 <= (2*thr)^2
    degenerate = 0
    sq_bound = (2.0 * DEGENERATE_AREA) ** 2
    keys = np.empty((nt, 3), dtype=np.int64)
    for start in range(0, nt, _CHUNK):
        t = tris[start : start + _CHUNK]
        p0 = mesh.vertices[t[:, 0]]
        cr = np.cross(mesh.vertices[t[:, 1]] - p0, mesh.vertices[t[:, 2]] - p0)
        degenerate += int(((cr * cr).sum(axis=1) <= sq_bound).sum())
        tail, head = t.astype(np.int64), t[:, [1, 2, 0]]
        k = np.minimum(tail, head) * nv + np.maximum(tail, head)
        k <<= 1
        k |= tail < head
        k[tail == head] = -1  # collapsed edge of a repeated-index triangle
        keys[start : start + _CHUNK] = k

    keys = keys.reshape(-1)
    keys.sort()
    keys = keys[np.searchsorted(keys, 0) :]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:] >> 1, keys[:-1] >> 1, out=first[1:])
    starts = np.flatnonzero(first)
    del first
    ne = len(starts)
    count = np.diff(starts, append=len(keys))
    net = 2 * np.add.reduceat(keys & 1, starts) - count
    ukeys = keys[starts] >> 1
    del keys

    balanced = net == 0
    manifold = (count == 2) & balanced
    boundary = count == 1
    ulo = ukeys // nv
    uhi = ukeys % nv

    referenced = np.zeros(nv, dtype=bool)
    referenced[tris.ravel()] = True
    graph = coo_matrix(
        (np.ones(ne, dtype=np.int8), (ulo, uhi)), shape=(nv, nv)
    )
    _, labels = connected_components(graph, directed=False)
    comp_labels = np.unique(labels[referenced])
    ncomp = len(comp_labels)
    remap = np.full(labels.max() + 1 if nv else 1, -1, dtype=np.int64)
    remap[comp_labels] = np.arange(ncomp)

    vert_comp = remap[labels[referenced]]
    edge_comp = remap[labels[ulo]]
    tri_comp = remap[labels[tris[:, 0]]]

    v_per = np.bincount(vert_comp, minlength=ncomp)
    e_per = np.bincount(edge_comp, minlength=ncomp)
    f_per = np.bincount(tri_comp, minlength=ncomp)
    unbalanced_per = np.bincount(edge_comp[~balanced], minlength=ncomp)
    nonmanifold_per = np.bincount(edge_comp[~manifold], minlength=ncomp)
    boundary_per = np.bincount(edge_comp[boundary], minlength=ncomp)

    return MeshReport(
        component_count=ncomp,
        watertight_per_component=unbalanced_per == 0,
        euler_characteristic_per_component=v_per - e_per + f_per,
        edge_manifold_per_component=nonmanifold_per == 0,
        boundary_edges_per_component=boundary_per,
        bbox_min=Vec3(*(float(c) for c in mesh.vertices.min(axis=0))),
        bbox_max=Vec3(*(float(c) for c in mesh.vertices.max(axis=0))),
        triangle_count=len(tris),
        degenerate_count=degenerate,
    )
