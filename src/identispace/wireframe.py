"""Plan capsule segments along the parameter grid and tessellate them.

The plan walks every grid point (i, j) for i in [0, 2*lat_ribs] and
j in [0, long_ribs] and lays short capsule segments along both grid
directions, subdividing each unit step by the configured densities.  The
doubled i-range is what closes the Klein bottle (its pattern only repeats
after two turns); the torus and Roman surface simply get traced twice, which
is harmless since components may overlap freely.

The plan is a pair of (N, 3) arrays of capsule end centres, evaluated as
whole grids through :func:`surface_point`.  Each capsule is tessellated as an
open cylinder capped by two hemispheres sharing its rings, a closed orientable
mesh with Euler characteristic 2 by construction.  A segment shorter than
``SPHERE_EPS`` becomes a sphere strut: the same capsule ladder, built around
the segment midpoint in the fixed frame x, y, z, with its two equator rings
merged into one.  Tessellation uses
precomputed scalar trig tables and otherwise only IEEE arithmetic, so the
whole build is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .geom import SurfaceParams, cosd, sind, surface_point
from .mesh_io import TriangleMesh, _on_both

__all__ = [
    "WireframeSpec",
    "SegmentPlan",
    "SPHERE_EPS",
    "plan_segments",
    "segment_count",
    "count_degenerate_segments",
    "tessellate_segments",
    "build_wireframe",
]

SPHERE_EPS = 1e-9  # mm; shorter segments degenerate to spheres
_CHUNK = 1 << 16  # capsule triangles per tessellation block


@dataclass(frozen=True)
class WireframeSpec:
    """Densities, strut thickness, resolution and plan bounds for one model.

    ``thickness`` is a radius: that of each capsule (``SegmentPlan.radius``),
    so a strut of the default 1.2 mm is 2.4 mm across.  ``legacy_overshoot``
    reproduces the literal loop bounds of the original modeling script, which
    run one substep past each cell and duplicate a little geometry; the
    default clamps substeps so counts are exact.
    """

    surface: SurfaceParams
    outer_density: int = 8
    inner_density: int = 8
    thickness: float = 1.2
    capsule_resolution: int = 12
    legacy_overshoot: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.thickness) and self.thickness > 0):
            raise ValueError(f"thickness must be finite and > 0, got {self.thickness}")
        if self.outer_density < 1:
            raise ValueError(f"outer_density must be >= 1, got {self.outer_density}")
        if self.inner_density < 1:
            raise ValueError(f"inner_density must be >= 1, got {self.inner_density}")
        if self.capsule_resolution < 4:
            raise ValueError(
                f"capsule_resolution must be >= 4, got {self.capsule_resolution}"
            )


@dataclass(frozen=True)
class SegmentPlan:
    """Capsule placements: segment n runs from ``a[n]`` to ``b[n]``, (N, 3) each.

    Segments are ordered by grid point (i, j), and within a point the outer
    substeps k along i come before the inner substeps k along j, so ``a`` and
    ``b`` reshape to (2*lat_ribs+1, long_ribs+1, outer+inner, 3).  Iterating
    yields one record per segment with fields ``a`` and ``b``.
    """

    a: np.ndarray
    b: np.ndarray
    radius: float

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self):
        return iter(np.rec.fromarrays((self.a, self.b), dtype=[("a", float, 3), ("b", float, 3)]))


def plan_segments(spec: WireframeSpec) -> SegmentPlan:
    """Ordered segment plan; (2*lat_ribs+1)*(long_ribs+1)*(outer+inner) entries,
    or (outer+inner+2) per grid point with ``spec.legacy_overshoot``."""
    p = spec.surface
    extra = 1 if spec.legacy_overshoot else 0
    i = np.arange(2 * p.lat_ribs + 1, dtype=np.float64)[:, None, None]
    j = np.arange(p.long_ribs + 1, dtype=np.float64)[None, :, None]

    def rib(density: int, along_i: bool) -> tuple[np.ndarray, np.ndarray]:
        t = np.arange(density + extra + 1) / density  # substep k/density
        pts = surface_point(i + t, j, p) if along_i else surface_point(i, j + t, p)
        grid = np.stack(np.broadcast_arrays(*pts), axis=-1)
        return grid[:, :, :-1], grid[:, :, 1:]

    outer, inner = rib(spec.outer_density, True), rib(spec.inner_density, False)
    a, b = (np.concatenate(ends, axis=2).reshape(-1, 3) for ends in zip(outer, inner))
    return SegmentPlan(a, b, spec.thickness)


def segment_count(spec: WireframeSpec) -> int:
    """``len(plan_segments(spec))``, without planning."""
    p = spec.surface
    per_point = spec.outer_density + spec.inner_density + (2 if spec.legacy_overshoot else 0)
    return (2 * p.lat_ribs + 1) * (p.long_ribs + 1) * per_point


def _is_sphere(plan: SegmentPlan) -> np.ndarray:
    """Segments shorter than ``SPHERE_EPS``, which tessellate as spheres."""
    d = plan.b - plan.a
    return np.sqrt((d * d).sum(axis=1)) < SPHERE_EPS


def count_degenerate_segments(plan: SegmentPlan) -> int:
    return int(np.count_nonzero(_is_sphere(plan)))


@lru_cache(maxsize=None)
def _tables(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Azimuth and latitude cos/sin tables (exact at quadrant angles)."""
    n = resolution
    m = (resolution + 1) // 2
    azimuth = 360.0 * np.arange(n) / n
    latitude = 90.0 * np.arange(m) / m
    return cosd(azimuth), sind(azimuth), cosd(latitude), sind(latitude)


@lru_cache(maxsize=None)
def _ladder_template(n: int, nrings: int) -> np.ndarray:
    """Triangle index template for a ladder: pole, ``nrings`` rings of n, pole."""
    tris = []
    ring = lambda k, s: 1 + (k - 1) * n + (s % n)
    top = 1 + nrings * n
    for s in range(n):
        tris.append((0, ring(1, s + 1), ring(1, s)))
    for k in range(1, nrings):
        for s in range(n):
            lo, lo1 = ring(k, s), ring(k, s + 1)
            hi, hi1 = ring(k + 1, s), ring(k + 1, s + 1)
            tris.append((lo, lo1, hi1))
            tris.append((lo, hi1, hi))
    for s in range(n):
        tris.append((ring(nrings, s), ring(nrings, s + 1), top))
    return np.array(tris, dtype=np.int32)


def _frames(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed orthonormal frame (u, v, w) per segment, w along b-a.

    The in-plane axes derive from the global axis least aligned with w (ties
    broken x, y, z) so frames vary continuously along a rib.
    """
    d = b - a
    length = np.sqrt((d * d).sum(axis=1))
    w = d / length[:, None]
    pick = np.argmin(np.abs(w), axis=1)
    e = np.zeros_like(w)
    e[np.arange(len(w)), pick] = 1.0
    u = np.cross(w, e)
    u /= np.sqrt((u * u).sum(axis=1))[:, None]
    v = np.cross(w, u)
    return u, v, w


def _capsule_vertices(
    a: np.ndarray, b: np.ndarray, frame: tuple, radius: float, resolution: int
) -> np.ndarray:
    """Vertices (S, 2mn+2, 3) of capsules around a[s]->b[s] in frame (u, v, w)."""
    n = resolution
    m = (resolution + 1) // 2
    caz, saz, clat, slat = _tables(resolution)
    u, v, w = frame
    # unit directions around the axis, one per azimuth slot: (S, n, 3)
    plane = caz[None, :, None] * u[:, None, :] + saz[None, :, None] * v[:, None, :]

    # ladder of 2m rings bottom-to-top: bottom hemisphere descends to the
    # equator at a (latitudes -90(m-k)/m), top hemisphere rises from b
    t_bottom = np.arange(m - 1, -1, -1)
    t_top = np.arange(m)
    cl = np.concatenate([clat[t_bottom], clat[t_top]])
    sl = np.concatenate([-slat[t_bottom], slat[t_top]])
    centers = np.concatenate(
        [np.repeat(a[:, None, :], m, axis=1), np.repeat(b[:, None, :], m, axis=1)],
        axis=1,
    )  # (S, 2m, 3)

    rings = centers[:, :, None, :] + radius * (
        cl[None, :, None, None] * plane[:, None, :, :]
        + sl[None, :, None, None] * w[:, None, None, :]
    )  # (S, 2m, n, 3)

    S = len(a)
    out = np.empty((S, 2 * m * n + 2, 3))
    out[:, 0] = a - radius * w
    out[:, 1:-1] = rings.reshape(S, 2 * m * n, 3)
    out[:, -1] = b + radius * w
    return out


def _ladder_counts(resolution: int, nrings: int) -> tuple[int, int]:
    """(vertex, triangle) counts of a ladder: pole, ``nrings`` rings, pole."""
    return nrings * resolution + 2, 2 * nrings * resolution


def capsule_counts(resolution: int) -> tuple[int, int]:
    """(vertex, triangle) counts of one non-degenerate capsule mesh."""
    return _ladder_counts(resolution, 2 * ((resolution + 1) // 2))


def sphere_counts(resolution: int) -> tuple[int, int]:
    """(vertex, triangle) counts of one degenerate (sphere) capsule mesh."""
    return _ladder_counts(resolution, 2 * ((resolution + 1) // 2) - 1)


def build_wireframe(spec: WireframeSpec) -> TriangleMesh:
    """Tessellate the whole plan; one closed component per segment, in plan order."""
    return tessellate_segments(plan_segments(spec), spec.capsule_resolution)


def _tessellate_blocks(plan: SegmentPlan, res: int, is_sphere: np.ndarray, voff: np.ndarray,
                       foff: np.ndarray, mesh: TriangleMesh, segments: range) -> None:
    """Fill the vertices and triangles of ``segments`` into ``mesh``, a block at a time.

    A block is ``segments.step`` segments, about ``_CHUNK`` triangles.
    """
    m = (res + 1) // 2
    for start in segments:
        stop = min(start + segments.step, segments.stop)
        for sphere in (False, True):
            idx = start + np.flatnonzero(is_sphere[start:stop] == sphere)
            if len(idx) == 0:
                continue
            a, b = plan.a[idx], plan.b[idx]
            if sphere:
                a = b = (a + b) / 2.0
                frame = np.broadcast_to(np.eye(3)[:, None, :], (3, len(idx), 3))
            else:
                frame = _frames(a, b)
            verts = _capsule_vertices(a, b, frame, plan.radius, res)
            if sphere:
                verts = np.delete(verts, np.s_[1 + (m - 1) * res : 1 + m * res], axis=1)
            template = _ladder_template(res, 2 * m - sphere)
            nv, nf = verts.shape[1], len(template)
            vtargets = (voff[idx][:, None] + np.arange(nv)[None, :]).ravel()
            mesh.vertices[vtargets] = verts.reshape(-1, 3)
            tvals = template[None, :, :] + voff[idx][:, None, None].astype(np.int32)
            ftargets = (foff[idx][:, None] + np.arange(nf)[None, :]).ravel()
            mesh.triangles[ftargets] = tvals.reshape(-1, 3)


def tessellate_segments(plan: SegmentPlan, res: int) -> TriangleMesh:
    """One closed ladder mesh per segment, in plan order, from one generator.

    A capsule has 2m rings.  A sphere is the capsule built with both ends at
    the segment midpoint in the fixed frame x, y, z, less its bottom equator
    ring (ring m-1), which repeats the top one: 2m-1 rings.  Every segment's
    vertex and triangle offsets are fixed first, and the segments are then
    filled in place in blocks of about ``_CHUNK`` capsule triangles, so the
    temporaries of a capsule's rings are bounded by the block.
    """
    m = (res + 1) // 2
    is_sphere = _is_sphere(plan)
    vcounts, fcounts = _ladder_counts(res, np.where(is_sphere, 2 * m - 1, 2 * m))
    voff = np.concatenate([[0], np.cumsum(vcounts)])
    foff = np.concatenate([[0], np.cumsum(fcounts)])
    mesh = TriangleMesh(np.empty((int(voff[-1]), 3), dtype=np.float64),
                        np.empty((int(foff[-1]), 3), dtype=np.int32))

    step = max(_CHUNK // capsule_counts(res)[1], 1)
    # the first half of the blocks, rounded up
    half = min((-(-len(plan) // step) + 1) // 2 * step, len(plan))
    fill = partial(_tessellate_blocks, plan, res, is_sphere, voff, foff, mesh)
    _on_both(partial(fill, range(0, half, step)), partial(fill, range(half, len(plan), step)))
    return mesh
