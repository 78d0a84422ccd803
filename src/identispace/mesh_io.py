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
from functools import partial

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
_BLOCK = 16 * _CHUNK  # triangles that validate checks at a time, where the mesh can be cut
_VERTEX_LIMIT = 2**31  # welded vertices are indexed by int32
# an ASCII facet's text around its 12 numbers: the normal, then the three corners
_FACET_TEXT = (b"  facet normal ", b" ", b" ", b"\n    outer loop\n      vertex ", b" ", b" ",
               *(b"\n      vertex ", b" ", b" ") * 2, b"\n    endloop\n  endfacet\n")
# The other line breaks of str.splitlines become "\n", so a data line follows a "\n" (the
# first line is "solid"); str.split also splits at \x1f.  A vertex row follows the first token.
_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_NEWLINES = bytes.maketrans(b"".join(_BREAKS), b"\n" * len(_BREAKS))
_LINE_BREAK = re.compile(b"[\n%s]" % b"".join(_BREAKS))
_TEXT_CHUNK = 1 << 20  # bytes of text parsed at a time, up to the next line break
_SOLID = re.compile(rb"[ \t\n\r\x0b\x0c]*solid")  # after the whitespace bytes.lstrip() strips
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


def _cross(a: list, b: list) -> tuple:
    """The columns ``(cx, cy, cz)`` of ``a x b``, given the float64 columns of ``a`` and ``b``.

    The IEEE operations are ``np.cross``'s, in its order, so every bit is the
    one ``np.cross`` gives for the stacked rows, a signed zero's included.
    """
    (ax, ay, az), (bx, by, bz) = a, b
    cx = ay * bz
    cx -= az * by
    cy = az * bx
    cy -= ax * bz
    cz = ax * by
    cz -= ay * bx
    return cx, cy, cz


def _ignore(start: int, stop: int) -> None:
    """A ``done`` or ``release`` callback with nothing to do."""


def _on_both(here, there) -> tuple:
    """``(here(), there())``: ``there`` runs on a one-worker pool while this thread runs ``here``.

    Every two-thread split runs through here.  An array that both threads
    fill is allocated by the caller, on this thread, and each side is given
    its part: glibc keeps resident whatever a worker thread's heap once
    held.  A failure of either side is raised once both have ended, so no
    thread outlives the call.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported here to keep CLI start-up short

    with ThreadPoolExecutor(1) as pool:
        future = pool.submit(there)
        return here(), future.result()


def _fill_records(records: np.ndarray, vertices: np.ndarray, triangles: np.ndarray,
                  start: int, stop: int, release=_ignore) -> None:
    """Fill records [start, stop), ``_CHUNK // 2`` at a time: corners, unit normals, zero attribute.

    The corners go a coordinate at a time from the columns of ``vertices``
    into their float32 slots.  The normal is ``_cross`` of the float64 edges
    of the stored corners over its length, and +0.0 where that length is 0.
    ``release(first, end)`` is told the file bytes of each block once it is
    filled; record k starts at byte ``84 + 50k``.
    """
    columns = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    step = max(_CHUNK // 2, 1)
    for at in range(start, stop, step):
        end = min(at + step, stop)
        block, t = records[at:end], triangles[at:end]
        corners, a, b = block["corners"], [], []
        for axis, column in enumerate(columns):
            for corner in range(3):
                corners[:, corner, axis] = column[t[:, corner]]
            p0 = corners[:, 0, axis].astype(np.float64)
            a.append(corners[:, 1, axis] - p0)
            b.append(corners[:, 2, axis] - p0)
        cx, cy, cz = _cross(a, b)
        length = np.sqrt(cx * cx + cy * cy + cz * cz)
        for axis, c in enumerate((cx, cy, cz)):
            block["normal"][:, axis] = np.divide(c, length, out=np.zeros_like(c), where=length > 0)
        block["attribute"] = 0
        release(84 + 50 * at, 84 + 50 * end)


def _digits(values: np.ndarray) -> tuple:
    """The S16 ``"%.9g"`` text of each distinct float32 of ``values``, and each value's index in it.

    Distinct is by bits, so -0.0 and 0.0 differ; the texts are formatted ``_CHUNK`` at a time.
    """
    order = np.argsort(values.view(np.uint32), axis=None)
    ordered = values.view(np.uint32).take(order)
    first = np.empty(values.size, bool)
    first[:1], first[1:] = True, ordered[1:] != ordered[:-1]
    bits, ids = ordered[first], ordered.view(np.int32)  # the ids take the sorted bits' place
    ids[order] = np.cumsum(first, dtype=np.int32)  # np.unique's inverse, counted in int32
    ids -= 1
    floats, digits = bits.view(np.float32), np.empty(len(bits), "S16")
    step = max(_CHUNK, 1)
    for at in range(0, len(bits), step):
        digits[at : at + step] = [b"%.9g" % v for v in floats[at : at + step].tolist()]
    return digits, ids.reshape(values.shape)


def _normals(mesh: TriangleMesh) -> np.ndarray:
    """The (n,3) float32 normals of ``_fill_records``, ``_CHUNK`` at a time in one reused block."""
    n, step = mesh.triangle_count, max(_CHUNK, 1)
    normals, block = np.empty((n, 3), np.float32), np.empty(min(step, n), _RECORD)
    for at in range(0, n, step):
        t = mesh.triangles[at : at + step]
        fill = partial(_fill_records, block, mesh.vertices, t)
        _on_both(partial(fill, 0, len(t) // 2), partial(fill, len(t) // 2, len(t)))
        normals[at : at + len(t)] = block["normal"][: len(t)]
    return normals


def write_stl(mesh: TriangleMesh, mode: str = "binary", out=None):
    """Serialize to STL bytes, returned as a ``bytearray`` in both modes, or write them to ``out``.

    Binary layout: 80-byte header tagged ``identispace-forge``, little-endian
    uint32 triangle count, then 50 bytes per triangle (normal, three vertices
    as float32, zero attribute); total length is exactly 84 + 50*n.  The
    records are filled in place inside the binary buffer, in blocks of
    ``_CHUNK // 2`` triangles, so the file is never copied, and the corners
    go into them a coordinate at a time, so there is neither a float32 copy
    of the vertices nor a (k,3,3) float64 gather of corners.  ASCII mode
    formats each distinct float32 of the vertices, and of the records'
    normals (``_normals``), once (``_digits``).  It lays out ``_CHUNK // 8``
    facets at a time as fixed-width records and strips their NUL padding.
    The float32-rounded coordinates print with 9 significant digits, so
    both modes parse back to identical meshes.
    A vertex that is not finite once rounded to float32 raises ``ValueError``.

    ``out`` is a file to write from its start.  A regular file opened
    read-write (``"w+b"``) is mapped shared and the mapping returned; its
    ``len()`` is the file size.  Binary records are filled in place in its
    first 84 + 50*n bytes, if they are allocated (``os.posix_fallocate``),
    and each block's whole pages are dropped once filled: they stay in the
    page cache, so the file is not held resident.  ASCII text is written a
    block at a time as it is made.  Anything else (a write-only descriptor,
    a pipe, a device, a file system without shared mappings, fewer bytes
    allocated) is written whole, after the ASCII ``solid`` line, and returned.
    """
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

    if mode == "ascii":
        return _write_text(mesh, out)
    mapping = None if out is None else _map_file(out, 84 + 50 * n)
    binary = bytearray(84 + 50 * n) if mapping is None else mapping
    release = _ignore if mapping is None else _drop_pages(mapping)
    binary[:80] = STL_HEADER_TAG.ljust(80, b"\0")
    struct.pack_into("<I", binary, 80, n)
    records = np.frombuffer(binary, _RECORD, count=n, offset=84)
    fill = partial(_fill_records, records, mesh.vertices, mesh.triangles)
    _on_both(partial(fill, 0, n // 2, release), partial(fill, n // 2, n, release))
    if out is not None and mapping is None:
        out.write(binary)
    return binary


def _write_text(mesh: TriangleMesh, out):
    """``write_stl(mesh, "ascii", out)`` once the mesh is checked."""
    n, name = mesh.triangle_count, STL_HEADER_TAG.decode("ascii")
    head, tail = f"solid {name}\n".encode("ascii"), f"endsolid {name}\n".encode("ascii")
    streamed, text = False, bytearray(head)
    if out is not None:  # the solid line goes first, so that a file shows whether it maps back
        out.write(head)
        out.flush()
        streamed = _map_file(out, len(head)) is not None  # the probe is unmapped as it is freed
    emit = out.write if streamed else text.extend
    xyz_digits, xyz_ids = _digits(mesh.vertices.astype(np.float32))
    normal_digits, normal_ids = _digits(_normals(mesh))
    # _FACET_TEXT in fixed fields, each number NUL-padded in an S16 slot (15 bytes at most);
    # built here, as on import it raised a process's peak RSS by about 0.3 MiB
    facet = np.dtype([field for k, piece in enumerate(_FACET_TEXT)
                      for field in ((f"text{k}", f"S{len(piece)}"), (f"number{k}", "S16"))][:-1])
    step = max(_CHUNK // 8, 1)
    layout = bytearray(min(step, n) * facet.itemsize)
    block = np.frombuffer(layout, facet)
    for k, literal in enumerate(_FACET_TEXT):
        block[f"text{k}"] = literal
    for start in range(0, n, step):
        t = mesh.triangles[start : start + step]
        facets = block[: len(t)]
        for axis in range(3):
            facets[f"number{axis}"] = normal_digits[normal_ids[start : start + len(t), axis]]
            for corner in range(3):
                facets[f"number{3 + 3 * corner + axis}"] = xyz_digits[xyz_ids[t[:, corner], axis]]
        emit((layout if len(t) == len(block) else layout[: facets.nbytes]).translate(None, b"\0"))
    emit(tail)
    if streamed:
        out.flush()
        return _map_file(out, out.tell())
    if out is not None:
        out.write(memoryview(text)[len(head) :])  # the solid line is there already
    return text


def _map_file(fh, size: int):
    """A shared read-write mapping of the first ``size`` bytes of the file ``fh``, or None.

    None means that ``fh`` cannot be mapped so: a write-only descriptor, a
    file system without shared mappings, a file of fewer bytes, or an object
    with no descriptor at all.
    """
    import mmap

    try:
        return mmap.mmap(fh.fileno(), size)
    except (OSError, ValueError):
        return None


def _page_release(data):
    """``release(start, stop)``, dropping the whole pages of bytes [start, stop) of ``data``.

    Only a read-only file mapping has pages to drop: its bytes stay in the
    page cache, and reading them again maps them again.  For any other
    buffer, whose pages might hold its own changes, ``release`` does nothing.
    """
    if not hasattr(data, "madvise") or not memoryview(data).readonly:
        return _ignore
    return _drop_pages(data)


def _drop_pages(mapping):
    """``release(start, stop)``, dropping the whole pages of bytes [start, stop) of ``mapping``.

    Only for a read-only or a shared mapping of a file, whose bytes stay in
    the page cache: a dropped page of a private or an anonymous mapping
    loses what was written to it.
    """
    import mmap

    page = mmap.PAGESIZE

    def release(start: int, stop: int) -> None:
        start, stop = -(-start // page) * page, stop // page * page
        if stop > start:
            mapping.madvise(mmap.MADV_DONTNEED, start, stop - start)

    return release


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


def _dedup_blocks(bits: np.ndarray, inverse: np.ndarray, start: int, stop: int,
                  done=_ignore) -> list:
    """The unique rows of each ``_CHUNK``-triangle block of triangles [start, stop) of ``bits``.

    ``bits`` is (T,3,3) uint32.  Each corner's index among its block's rows
    is written to ``inverse`` (3T int32); the rows come back as a list, one
    (n,3) array per block.  ``done(first, end)`` is told the triangles of
    each block once its rows are found; nothing reads those corners again.
    """
    step = max(_CHUNK, 1)
    blocks = []
    for at in range(start, stop, step):
        end = min(at + step, stop)
        blocks.append(_unique_rows([bits[at:end].reshape(-1, 3)], inverse[3 * at : 3 * end]))
        done(at, end)
    return blocks


def _pivot(blocks: list) -> int:
    """The median x word of a sample of about 4 096 rows of the (n,3) uint32 ``blocks``."""
    stride = max(sum(len(rows) for rows in blocks) // 4096, 1)
    sample = np.concatenate([np.empty(0, dtype=np.uint32), *(rows[::stride, 0] for rows in blocks)])
    return int(np.partition(sample, len(sample) // 2)[len(sample) // 2]) if len(sample) else 0


def _weld(tri_verts: np.ndarray, done=_ignore) -> TriangleMesh:
    """Index a (T,3,3) float32 coordinate soup, welding bit-identical vertices.

    Identity is the 96-bit pattern, so -0.0 and +0.0 are distinct vertices.
    A NaN or infinite coordinate raises ``StlError``.  ``tri_verts`` may be a
    strided view of the file's records; it is never copied whole.  Each block
    of ``_CHUNK`` triangles is deduplicated on its own.  The block-unique
    rows, about half a row per corner on a tessellated mesh and a sixth on
    the default torus, are then ranked into vertices in two parts: each
    block's rows are in (x, y, z) order, so a pivot x word (the median of a
    sample) cuts every block into the rows below it and the rows from it on.
    The upper ranks follow the lower ones, so the vertex order is that of one
    global ranking whatever the pivot.  The only array with an entry per
    corner is the 4-byte vertex index, remapped in place block by block.
    ``done(start, stop)`` is told the triangles of each block once they are
    deduplicated, from either thread.
    """
    bits = tri_verts.view("<u4")
    step = max(_CHUNK, 1)
    first = (-(-len(bits) // step) + 1) // 2  # the first half of the blocks, rounded up
    half = min(first * step, len(bits))
    inverse = np.empty(3 * len(bits), dtype=np.int32)
    lower, upper = _on_both(partial(_dedup_blocks, bits, inverse, 0, half, done),
                            partial(_dedup_blocks, bits, inverse, half, len(bits), done))
    blocks = lower + upper
    pivot = _pivot(blocks)
    cuts = [int(np.searchsorted(rows[:, 0], pivot)) for rows in blocks]
    sizes = [len(rows) for rows in blocks]
    lower = [rows[:cut] for rows, cut in zip(blocks, cuts)]
    upper = [rows[cut:] for rows, cut in zip(blocks, cuts)]
    del blocks
    lower_rank = np.empty(sum(cuts), dtype=np.int32)
    upper_rank = np.empty(sum(sizes) - sum(cuts), dtype=np.int32)
    lower, upper = _on_both(partial(_unique_rows, lower, lower_rank),
                            partial(_unique_rows, upper, upper_rank))
    _check_vertex_count(len(lower) + len(upper))
    upper_rank += len(lower)
    ranks, at_lower, at_upper = [], 0, 0  # each block's ranks below and from the pivot
    for cut, size in zip(cuts, sizes):
        ranks.append((lower_rank[at_lower : at_lower + cut],
                      upper_rank[at_upper : at_upper + size - cut]))
        at_lower += cut
        at_upper += size - cut
    vertices = _vertex_array([lower, upper])
    del lower, upper
    _on_both(partial(_remap, inverse[: 3 * half], ranks[:first]),
             partial(_remap, inverse[3 * half :], ranks[first:]))
    return TriangleMesh(vertices, inverse.reshape(-1, 3))


def _remap(inverse: np.ndarray, ranks: list) -> None:
    """Replace each corner's index among its block's rows by the row's rank, block by block.

    ``ranks`` holds the (lower, upper) rank arrays of each ``_CHUNK``-triangle block.
    """
    step = 3 * max(_CHUNK, 1)
    for block, (lower, upper) in enumerate(ranks):
        corners = inverse[step * block : step * (block + 1)]
        corners[:] = np.concatenate([lower, upper])[corners]


def _vertex_array(rows: list) -> np.ndarray:
    """The float64 vertices of the uint32 float32-bit ``rows`` arrays in turn; the list is emptied.

    A NaN or infinite coordinate raises ``StlError``.
    """
    vertices = np.concatenate([part.view("<f4") for part in rows], dtype=np.float64)
    rows.clear()
    if not np.isfinite(vertices).all():
        raise StlError("STL has a non-finite vertex coordinate")
    return vertices


def _parse_binary(data) -> np.ndarray:
    if len(data) < 84:
        raise StlError(f"truncated STL: {len(data)} bytes, header needs 84")
    (n,) = struct.unpack_from("<I", data, 80)
    expected = 84 + 50 * n
    if len(data) != expected:
        raise StlError(
            f"STL length mismatch: {n} triangles need {expected} bytes, got {len(data)}"
        )
    return np.frombuffer(data, _RECORD, count=n, offset=84)["corners"]


def _parse_ascii(data, release=_ignore) -> np.ndarray:
    """(T,3,3) float32 corners: three ``vertex`` rows per ``facet normal`` line.

    The text goes in line-aligned slices: each ends at the first line break
    (or the end) ``_TEXT_CHUNK`` bytes or more on.  A slice is scanned where
    it lies, or copied to turn other line breaks into line feeds; only its
    float32 corners are kept, and ``release`` is told its bytes from the page
    holding the previous slice's end.  A count error wins over a malformed row.
    """
    import mmap

    text = data if hasattr(data, "find") else bytes(data)  # a memoryview has no find
    parts, facets, rows, blanks, malformed, at = [], 0, 0, 0, None, 0
    while at < len(text):
        brk = _LINE_BREAK.search(text, at + max(_TEXT_CHUNK, 1))
        end = brk.start() if brk else len(text)
        if np.frombuffer(text, np.uint8, end - at, at).max() >= 0x80:
            raise StlError("ASCII STL has non-ASCII bytes")
        piece, lo, hi = text, at, end
        if any(text.find(byte, at, end) >= 0 for byte in _BREAKS):
            piece, lo, hi = text[at:end].translate(_NEWLINES), 0, end - at
        found = _VERTEX_ROW.findall(piece, lo, hi)
        facets += len(_FACET_LINE.findall(piece, lo, hi))
        blanks += found.count(b"")  # loadtxt would skip a blank row; the count error wins
        if found and not blanks and malformed is None:
            try:
                coords = np.loadtxt(found, _XYZ, comments=None)["xyz"].reshape(-1, 3)
                with np.errstate(over="ignore"):  # past float32 becomes inf, which _weld rejects
                    parts.append(coords.astype(np.float32))
            except ValueError as exc:  # its row number counts the rows of the slices before
                malformed = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + rows}",
                                   str(exc).partition(";")[0])
        rows += len(found)
        release(at - at % mmap.PAGESIZE, end)
        at = end
    if rows != 3 * facets or blanks:
        raise StlError(f"{facets} facets need {3 * facets} vertex rows with coordinates; "
                       f"found {rows}, {blanks} of them without")
    if malformed is not None:
        raise StlError(f"malformed vertex row: {malformed}")
    return np.concatenate([np.empty((0, 3), np.float32), *parts]).reshape(-1, 3, 3)


def read_stl(data) -> TriangleMesh:
    """Parse STL bytes (binary or ASCII, auto-detected) into a welded mesh.

    ``data`` is any bytes-like buffer: ``bytes``, ``bytearray``, a
    ``memoryview`` or an ``mmap``.  Triangle order is preserved; vertices
    sort by their (x, y, z) float32 bit patterns read as uint32, so
    1.0 < 2.0 < -0.0.  Beside ``data`` (and the corners ``_parse_ascii``
    decodes from text, a slice at a time), the weld holds 4 bytes per corner
    plus the block-unique rows, and its sorts are one-word ``np.argsort``
    calls.  A file with ``_VERTEX_LIMIT`` (2**31) or more distinct vertices,
    past the int32 vertex index, raises ``StlError``, whether one side of
    the ranking or the two together reach it.

    A read-only mapping of the file (``mmap.ACCESS_READ``) is not held
    resident: the weld drops each block's pages once the block is
    deduplicated, and the ASCII parse drops each slice's pages once it is
    parsed.  The mapping's contents are unchanged, and it may be read again.
    """
    release = _page_release(data)
    if not _SOLID.match(data):
        corners = _parse_binary(data)  # triangle k's record starts at byte 84 + 50k
        return _weld(corners, lambda start, stop: release(84 + 50 * start, 84 + 50 * stop))
    try:
        corners = _parse_ascii(data, release)
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
    ``vertices`` (views, not a transposed copy), and ``_cross`` of the edges
    ``a = p1 - p0`` and ``b = p2 - p0`` is squared and summed in place as
    ``cx*cx + cy*cy + cz*cz``, the order of a row sum of ``np.cross``'s
    result, so the count is exact.
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
        cx, cy, cz = _cross(a, b)
        cx *= cx
        cx += np.multiply(cy, cy, out=cy)
        cx += np.multiply(cz, cz, out=cz)
        count += int(np.count_nonzero(cx <= sq_bound))
    return count


def _band_counts(tris: np.ndarray, bounds: list) -> list:
    """How many edge uses of ``tris`` have their ``lo`` end in each band ``[bounds[i], bounds[i+1])``.

    Every index of ``tris`` lies in ``[bounds[0], bounds[-1])``, so only the
    inner bounds are compared, one compare and count per bound, ``_CHUNK // 2``
    triangles at a time; one band needs no pass at all.
    """
    inner = bounds[1:-1]
    below = [0] * len(inner)  # the uses whose lo end is below each inner bound
    step = max(_CHUNK // 2, 1)
    a, b, c = tris.T
    for start in range(0, len(tris) if inner else 0, step):
        for u, w in ((a, b), (b, c), (c, a)):
            lo = np.minimum(u[start : start + step], w[start : start + step])
            for k, bound in enumerate(inner):
                below[k] += int(np.count_nonzero(lo < bound))
    return np.diff([0, *below, 3 * len(tris)]).tolist()


def _band_keys(tris: np.ndarray, nv: int, v0: int, v1: int, keys: np.ndarray) -> None:
    """Fill the int64 ``keys`` with the edge uses of ``tris`` whose ``lo`` end is in ``[v0, v1)``.

    Each use is ``(lo*nv + hi) << 1 | (runs lo -> hi)``, and ``keys`` holds
    exactly those uses, in no particular order.  A collapsed edge of a
    repeated-index triangle gets -1.  The triangles go ``_CHUNK // 2`` at a
    time and an edge column at a time, so the block temporaries of the two
    threads that fill a band's halves add up to one ``_CHUNK`` block, and
    they end with the call, before ``validate`` sorts the keys.
    """
    step = max(_CHUNK // 2, 1)
    a, b, c = tris.T
    filled = 0
    for start in range(0, len(tris), step):
        for u, w in ((a, b), (b, c), (c, a)):
            u, w = u[start : start + step], w[start : start + step]
            lo = np.minimum(u, w)
            lo -= v0
            inside = lo.view(np.uint32) < v1 - v0  # v0 <= lo < v1 in one unsigned test
            u, w = u[inside], w[inside]
            k = keys[filled : filled + len(u)]
            np.minimum(u, w, out=k)
            k *= nv
            k += np.maximum(u, w)
            k <<= 1
            k |= u < w
            k[u == w] = -1
            filled += len(u)


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

    The roots of the ends are gathered ``_CHUNK`` edges at a time, and the
    edges kept are packed to the front of ``hi`` and of one int32 array that
    the first round allocates for the ``lo`` ends, which are kept.  So beside
    ``lo``, ``hi`` and the labels, the search holds 4 bytes per edge and one
    block's temporaries, and makes no intp copy of an edge array.
    """
    step = max(_CHUNK, 1)
    parent = np.arange(nv, dtype=np.int32)
    a, b = lo, hi  # every vertex is its own root, and lo < hi
    while len(a):
        np.minimum.at(parent, b, a)
        parent = _roots(parent)
        ends, a = a, (np.empty_like(lo) if a is lo else a)  # lo is kept
        kept = 0
        for at in range(0, len(b), step):  # kept <= at, so no block is written before it is read
            ra, rb = parent[ends[at : at + step]], parent[b[at : at + step]]
            keep = ra != rb
            ra, rb = ra[keep], rb[keep]
            np.minimum(ra, rb, out=a[kept : kept + len(ra)])
            np.maximum(ra, rb, out=b[kept : kept + len(ra)])
            kept += len(ra)
        a, b = a[:kept], b[:kept]
    return parent


def _count_edges(keys: np.ndarray) -> int:
    """The edges among one part's sorted edge-use keys, counted ``_CHUNK`` uses at a time.

    Two uses are of one edge when their keys differ at most in the direction bit.
    """
    step = max(_CHUNK, 1)
    edges = int(len(keys) > 0)
    for at in range(0, len(keys) - 1, step):
        k = keys[at : at + step + 1]
        edges += int(np.count_nonzero((k[1:] ^ k[:-1]) > 1))
    return edges


def _grade_edges(keys: np.ndarray, nv: int, lo: np.ndarray, hi: np.ndarray,
                 grade: np.ndarray) -> None:
    """Fill one part's ``lo`` and ``hi`` ends and one-byte ``grade`` from its sorted edge-use keys.

    The keys go in blocks of about ``_CHUNK // 2`` uses, each ending where
    an edge's uses end, so the direction bits, run starts, use counts and net
    directions exist only for one block at a time, and the block temporaries
    of the two threads that grade a mesh's parts add up to about one
    ``_CHUNK`` block.  Grades: 0 manifold, 1 balanced but not manifold, 2
    unbalanced, 3 boundary (count 1).
    """
    step = max(_CHUNK // 2, 1)
    start = edge = 0
    while start < len(keys):
        # the end of the run of the block's last use, whose edge's largest key is key | 1
        stop = int(np.searchsorted(keys, keys[min(start + step, len(keys)) - 1] | 1, side="right"))
        k = keys[start:stop]
        ends = k >> 1
        first = np.empty(len(k), dtype=bool)
        first[0] = True
        np.not_equal(ends[1:], ends[:-1], out=first[1:])
        run = np.flatnonzero(first)
        count = np.diff(run, append=len(k))
        net = np.add.reduceat(k & 1, run)
        net *= 2
        net -= count
        block = grade[edge : edge + len(run)]
        np.not_equal(count, 2, out=block.view(bool))
        block[net != 0] = 2
        block[count == 1] = 3
        lo[edge : edge + len(run)], hi[edge : edge + len(run)] = np.divmod(ends[run], nv)
        start, edge = stop, edge + len(run)


def _extent(mesh: TriangleMesh) -> np.ndarray:
    """The bounding box of all the vertices (zeros without triangles).

    The box is reduced a column at a time, three times faster than across
    the rows of the (N,3) array.  A zero or NaN bound is reduced across the
    rows again, because which zero or which NaN a reduction returns depends
    on its order; any other bound has one bit pattern in either order.
    """
    if not mesh.triangle_count:
        return np.zeros((2, 3))
    columns = mesh.vertices.T
    box = np.array([[column.min() for column in columns], [column.max() for column in columns]])
    if not (np.abs(box) > 0).all():  # a zero or a NaN
        box = np.array([mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)])
    return box


def _cuts(tris: np.ndarray) -> list:
    """Where ``validate`` cuts the triangles into blocks that share no vertex.

    A cut before triangle p is valid when every vertex index of the triangles
    before it is below every index from it on.  Each cut returned is the
    first valid one at least ``_BLOCK`` triangles after the last (or after
    the start), so the blocks are at least ``_BLOCK`` triangles long, all but
    the last.  The smallest and largest index of each ``_CHUNK`` of
    triangles are taken first.  A cut can fall in a chunk only where the
    largest index of the chunks before it is below the smallest of the
    chunks after it.  Only such chunks are scanned row by row, and only from
    the one that holds the next wanted position on.
    """
    step, block = max(_CHUNK, 1), max(_BLOCK, 1)
    if len(tris) <= block:
        return []
    starts = range(0, len(tris), step)
    low = np.array([tris[at : at + step].min() for at in starts], dtype=np.int64)
    high = np.array([tris[at : at + step].max() for at in starts], dtype=np.int64)
    # the largest index of the chunks before each chunk, and the smallest of those after it
    before = np.concatenate([[-1], np.maximum.accumulate(high)[:-1]])
    after = np.concatenate([np.minimum.accumulate(low[::-1])[::-1][1:], [_VERTEX_LIMIT]])
    cuts, wanted = [], block
    for chunk in np.flatnonzero(before < after):
        at = int(starts[chunk])
        if wanted >= len(tris):
            break
        if at + step <= wanted:
            continue
        a, b, c = tris[at : at + step].T  # a column at a time: axis=1 reductions are slow
        # the largest index before each row, and the smallest from it on
        below = np.maximum.accumulate(np.concatenate([before[chunk : chunk + 1],
                                                      np.maximum(np.maximum(a, b), c)]))
        above = np.minimum.accumulate(np.concatenate([np.minimum(np.minimum(a, b), c),
                                                      after[chunk : chunk + 1]])[::-1])[::-1]
        valid = at + np.flatnonzero(below[:-1] < above[:-1])
        k = int(np.searchsorted(valid, wanted))
        while k < len(valid):
            cuts.append(int(valid[k]))
            wanted = cuts[-1] + block
            k = int(np.searchsorted(valid, wanted))
    return cuts


def _mark_referenced(tris: np.ndarray, base: int, referenced: np.ndarray) -> None:
    """Mark in ``referenced``, which starts at vertex ``base``, the vertices of ``tris``.

    The indices are shifted and cast to intp ``_CHUNK`` triangles at a time.
    """
    step = max(_CHUNK, 1)
    for at in range(0, len(tris), step):
        referenced[tris[at : at + step].ravel() - base] = True


def _vertex_face_counts(comp: np.ndarray, ncomp: int, tris: np.ndarray, base: int) -> tuple:
    """Vertices and faces per component; ``comp`` starts at vertex ``base``.

    ``comp`` is ``ncomp`` at unreferenced vertices.  A face counts toward the
    component of its first corner.  The counts are added ``_CHUNK`` vertices
    and faces at a time, so no whole-block gather or intp cast is made.
    """
    v_per = np.zeros(ncomp + 1, dtype=np.intp)
    f_per = np.zeros(ncomp, dtype=np.intp)
    step = max(_CHUNK, 1)
    for at in range(0, max(len(comp), len(tris)), step):
        np.add.at(v_per, comp[at : at + step], 1)
        np.add.at(f_per, comp[tris[at : at + step, 0] - base], 1)
    return v_per[:ncomp], f_per


def _edge_counts(comp: np.ndarray, ncomp: int, lo: np.ndarray, grade: np.ndarray) -> list:
    """Edges, and unbalanced, non-manifold and boundary edges, per component.

    Each edge counts toward the component of its ``lo`` end.  The counts are
    added ``_CHUNK`` edges at a time, so no per-edge component array or intp
    cast of one is made.
    """
    counts = [np.zeros(ncomp, dtype=np.intp) for _ in range(4)]
    every, unbalanced, nonmanifold, boundary = counts
    step = max(_CHUNK, 1)
    for at in range(0, len(lo), step):
        edge_comp = comp[lo[at : at + step]]
        g = grade[at : at + step]
        np.add.at(every, edge_comp, 1)
        np.add.at(unbalanced, edge_comp[g >= 2], 1)
        np.add.at(nonmanifold, edge_comp[g >= 1], 1)
        np.add.at(boundary, edge_comp[g == 3], 1)
    return counts


def _joined(parts: list) -> np.ndarray:
    """The arrays of ``parts`` end to end, without a copy of one alone; the list is emptied."""
    joined = parts[0] if len(parts) == 1 else np.concatenate(parts)
    parts.clear()
    return joined


def _check_block(vertices: np.ndarray, tris: np.ndarray, base: int, size: int) -> tuple:
    """The degenerate triangles and per-component counts of a block that shares no vertex.

    The block's vertices are the ``size`` from vertex ``base`` on.  Returns
    its degenerate count, then the vertices, edges, faces, unbalanced,
    non-manifold and boundary edges of each of its components, in the order
    of their smallest vertex.  The edge keys use the whole mesh's vertex count.

    The edge uses are sorted, counted and graded in bands of their ``lo``
    end, one band per ``2 * _BLOCK`` triangles (at most one per vertex):
    equal-width vertex ranges, in order.  All uses of an edge share its
    ``lo`` end, so each band is exact on its own, and its edges follow those
    of the band before; only one band's keys exist at a time.
    """
    nv = len(vertices)
    bands = max(min(-(-len(tris) // (2 * max(_BLOCK, 1))), size), 1)
    bounds = [base + size * band // bands for band in range(bands + 1)]
    lower, upper = tris[: len(tris) // 2], tris[len(tris) // 2 :]
    lower_counts, upper_counts = _on_both(partial(_band_counts, lower, bounds),
                                          partial(_band_counts, upper, bounds))
    degenerate, los, his, grades = 0, [], [], []
    for band, (v0, v1) in enumerate(zip(bounds, bounds[1:])):
        cut = lower_counts[band]
        keys = np.empty(cut + upper_counts[band], dtype=np.int64)
        _on_both(partial(_band_keys, lower, nv, v0, v1, keys[:cut]),
                 partial(_band_keys, upper, nv, v0, v1, keys[cut:]))
        # beside the sort, a slice of the degenerate count
        _, count = _on_both(keys.sort, partial(_count_degenerate, vertices,
                                               tris[len(tris) * band // bands :
                                                    len(tris) * (band + 1) // bands]))
        degenerate += count
        keys = keys[np.searchsorted(keys, 0) :]
        # the first use of the middle use's edge, so that no run is cut
        mid = int(np.searchsorted(keys, keys[len(keys) // 2] & ~1)) if len(keys) else 0
        split, rest = _on_both(partial(_count_edges, keys[:mid]), partial(_count_edges, keys[mid:]))
        lo = np.empty(split + rest, dtype=np.int32)
        hi = np.empty(split + rest, dtype=np.int32)
        grade = np.empty(split + rest, dtype=np.uint8)
        _on_both(partial(_grade_edges, keys[:mid], nv, lo[:split], hi[:split], grade[:split]),
                 partial(_grade_edges, keys[mid:], nv, lo[split:], hi[split:], grade[split:]))
        del keys
        los.append(lo)
        his.append(hi)
        grades.append(grade)
    lo = _joined(los)  # one kind at a time, each rebinding dropping its last band's part
    hi = _joined(his)
    grade = _joined(grades)

    lo -= base
    hi -= base
    referenced = np.zeros(size, dtype=bool)
    labels, _ = _on_both(partial(_components, lo, hi, size),
                         partial(_mark_referenced, tris, base, referenced))
    del hi
    # a label is its component's smallest vertex, so numbering the referenced
    # roots in index order keeps the components in the order of that vertex
    root = (labels == np.arange(size, dtype=np.int32)) & referenced
    ncomp = int(np.count_nonzero(root))
    number = np.cumsum(root, dtype=np.int32) - 1
    number[~root] = ncomp  # an unreferenced vertex is its own label, and not a root
    comp = number[labels]  # each vertex's component, ncomp if unreferenced
    del labels, root, number
    (e_per, unbalanced_per, nonmanifold_per, boundary_per), (v_per, f_per) = _on_both(
        partial(_edge_counts, comp, ncomp, lo, grade),
        partial(_vertex_face_counts, comp, ncomp, tris, base))
    return degenerate, v_per, e_per, f_per, unbalanced_per, nonmanifold_per, boundary_per


def validate(mesh: TriangleMesh) -> MeshReport:
    """Report connectivity, closedness and quality; never raises on bad geometry.

    Components are computed over shared vertex indices (not spatial
    proximity), so overlapping-but-unwelded components stay separate.

    The triangles are checked in blocks that share no vertex, and so no edge
    and no component.  ``_cuts`` cuts them about ``_BLOCK`` triangles apart,
    wherever every vertex index before the cut is below every index after
    it.  A built mesh, whose capsules each have their own vertex range, can
    be cut at any capsule's end; a read-back mesh, whose vertices are sorted
    by their coordinates, cannot, and is one block.  Within a block the edge
    uses are sorted, counted and graded in bands of their ``lo`` end, one
    band per ``2 * _BLOCK`` triangles: equal-width ranges of the block's
    vertices, taken in order.  Every use of an edge has the same ``lo`` end,
    so a band holds all of its edges' uses.  Only one band's edge keys exist
    at a time, beside the block's edges.  A built block is one band; the
    read-back default torus is four.

    * The uses of each band are counted one compare per band bound,
      ``_CHUNK // 2`` triangles at a time, so each band's keys are allocated
      exactly.
    * Each edge use is encoded as ``(lo*nv + hi) << 1 | (runs lo -> hi)``,
      and one sort groups the uses of each of the band's undirected edges
      into one run.
    * The edges are graded into one byte each and split into int32 ``lo``
      and ``hi`` ends, in blocks of about ``_CHUNK // 2`` uses, each ending
      where an edge's uses end, so the only arrays as long as the band are
      the 8-byte key of each use and the 9 bytes of each edge.  The bands'
      edges, in band order, are joined one array at a time.
    * ``_components`` labels each of the block's vertices with the smallest
      vertex of its component, in numpy alone and ``_CHUNK`` edges at a
      time.

    Components are numbered in the order of their smallest vertex, block
    after block, and each edge counts toward the component of its ``lo`` end.
    """
    mesh.check_indices()
    tris = mesh.triangles
    cuts, bbox = _on_both(partial(_cuts, tris), partial(_extent, mesh))
    bounds = [0, *cuts, len(tris)]
    # a block's vertices run from its smallest index (0 for the first) to the next
    # block's smallest (nv for the last)
    firsts = [0, *(int(tris[start:stop].min()) for start, stop in zip(bounds[1:], bounds[2:])),
              len(mesh.vertices)]
    parts = [_check_block(mesh.vertices, tris[start:stop], first, end - first)
             for start, stop, first, end in zip(bounds, bounds[1:], firsts, firsts[1:])]
    degenerate, *counts = zip(*parts)
    v_per, e_per, f_per, unbalanced_per, nonmanifold_per, boundary_per = map(np.concatenate, counts)
    return MeshReport(
        component_count=len(v_per),
        watertight_per_component=unbalanced_per == 0,
        euler_characteristic_per_component=v_per - e_per + f_per,
        edge_manifold_per_component=nonmanifold_per == 0,
        boundary_edges_per_component=boundary_per,
        bbox_min=Vec3(*(float(c) for c in bbox[0])),
        bbox_max=Vec3(*(float(c) for c in bbox[1])),
        triangle_count=len(tris),
        degenerate_count=sum(degenerate),
    )
