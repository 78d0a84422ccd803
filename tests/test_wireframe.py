import hashlib
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from identispace import wireframe
from identispace.geom import SurfaceKind, SurfaceParams, surface_point
from identispace.mesh_io import validate, write_stl
from identispace.wireframe import (
    SPHERE_EPS,
    SegmentPlan,
    WireframeSpec,
    build_wireframe,
    capsule_counts,
    count_degenerate_segments,
    plan_segments,
    segment_count,
    sphere_counts,
    tessellate_segments,
)

from oracles import (
    mesh_edge_uses,
    mesh_euler_characteristic,
    point_segment_distance,
    sphere_vertices,
)


def small_spec(kind=SurfaceKind.TORUS, **kw):
    surface = SurfaceParams(kind, lat_ribs=3, long_ribs=3)
    defaults = dict(outer_density=1, inner_density=1, thickness=1.0, capsule_resolution=4)
    defaults.update(kw)
    return WireframeSpec(surface, **defaults)


def loop_count_oracle(lat_ribs, long_ribs, outer_density, inner_density, extra=0):
    # direct enumeration of the planning loops
    count = 0
    for _ in range(2 * lat_ribs + 1):
        for _ in range(long_ribs + 1):
            count += (outer_density + extra) + (inner_density + extra)
    return count


def one_capsule(a, b, radius, res):
    """Tessellate a one-segment plan."""
    plan = SegmentPlan(np.array([a], dtype=float), np.array([b], dtype=float), radius)
    return tessellate_segments(plan, res)


def cells(plan, spec):
    """View plan ends as (i, j, [outer k..., inner k...], 3) per the plan order."""
    p = spec.surface
    shape = (2 * p.lat_ribs + 1, p.long_ribs + 1, -1, 3)
    return plan.a.reshape(shape), plan.b.reshape(shape)


# --- planning ---------------------------------------------------------------


def test_plan_count_minimal_grid():
    expect = loop_count_oracle(3, 3, 1, 1)
    assert expect == 56
    assert len(plan_segments(small_spec())) == expect


def test_plan_count_mixed_densities():
    spec = small_spec(outer_density=2, inner_density=3)
    segs = plan_segments(spec)
    assert len(segs) == loop_count_oracle(3, 3, 2, 3) == segment_count(spec)
    a, _ = cells(segs, spec)
    assert a.shape[2] == 5


def test_plan_count_formula_at_defaults():
    p = SurfaceParams(SurfaceKind.TORUS)
    spec = WireframeSpec(p)
    segs = plan_segments(spec)
    assert len(segs) == (2 * p.lat_ribs + 1) * (p.long_ribs + 1) * (
        spec.outer_density + spec.inner_density
    )


def test_plan_keys_ascending_and_unique():
    # cells ascend in (i, j); in each, the outer rib chains from (i, j) to
    # (i+1, j), then the inner rib chains from (i, j) to (i, j+1)
    spec = small_spec(outer_density=2, inner_density=3)
    p = spec.surface
    a, b = cells(plan_segments(spec), spec)
    for i in range(2 * p.lat_ribs + 1):
        for j in range(p.long_ribs + 1):
            assert tuple(a[i, j, 0]) == tuple(a[i, j, 2]) == surface_point(i, j, p)
            assert np.array_equal(a[i, j, [1, 3, 4]], b[i, j, [0, 2, 3]])
            assert tuple(b[i, j, 1]) == surface_point(i + 1, j, p)
            assert tuple(b[i, j, 4]) == surface_point(i, j + 1, p)


def test_plan_endpoints_are_grid_samples():
    spec = small_spec(outer_density=2, inner_density=2)
    p = spec.surface
    plan = plan_segments(spec)
    keys = [
        (i, j, direction, k)
        for i in range(2 * p.lat_ribs + 1)
        for j in range(p.long_ribs + 1)
        for direction in (0, 1)
        for k in range(2)
    ]
    assert len(keys) == len(plan)
    for (i, j, direction, k), a, b in zip(keys, plan.a, plan.b):
        if direction == 0:
            assert tuple(a) == surface_point(i + k / 2, j, p)
            assert tuple(b) == surface_point(i + (k + 1) / 2, j, p)
        else:
            assert tuple(a) == surface_point(i, j + k / 2, p)
            assert tuple(b) == surface_point(i, j + (k + 1) / 2, p)


def test_plan_deterministic():
    first, second = plan_segments(small_spec()), plan_segments(small_spec())
    assert np.array_equal(first.a, second.a) and np.array_equal(first.b, second.b)
    assert first.radius == second.radius


def test_legacy_overshoot_counts():
    spec = small_spec()
    segs = plan_segments(spec, legacy_overshoot=True)
    assert len(segs) == loop_count_oracle(3, 3, 1, 1, extra=1) == 112
    assert segment_count(spec, legacy_overshoot=True) == 112


def test_outer_rib_stays_on_profile_circle():
    p = SurfaceParams(SurfaceKind.TORUS)
    spec = WireframeSpec(p, outer_density=4, inner_density=1)
    a, b = cells(plan_segments(spec), spec)
    i = np.arange(2 * p.lat_ribs + 1)[:, None, None]
    k = np.arange(4)
    for x, pts in ((i + k / 4, a[:, :, :4]), (i + (k + 1) / 4, b[:, :, :4])):
        u = x * 360.0 / p.lat_ribs
        expect = p.outer_radius + p.inner_radius * np.cos(np.radians(u))
        assert np.all(np.abs(np.hypot(pts[..., 0], pts[..., 1]) - np.abs(expect)) < 1e-9)


# --- capsule meshes ----------------------------------------------------------


def test_sphere_fallback_topology():
    mesh = one_capsule((1, 2, 3), (1, 2, 3), 1.0, 8)
    assert mesh.triangle_count == sphere_counts(8)[1]
    assert mesh_euler_characteristic(mesh.vertices, mesh.triangles) == 2


def test_capsule_bounding_box_exact():
    mesh = one_capsule((0, 0, 0), (0, 0, 2), 1.0, 8)
    assert np.array_equal(mesh.vertices.min(axis=0), [-1.0, -1.0, -1.0])
    assert np.array_equal(mesh.vertices.max(axis=0), [1.0, 1.0, 3.0])


def test_capsule_euler_characteristic_sweep():
    rng = random.Random(42)
    for _ in range(50):
        res = rng.randrange(4, 17)
        a = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        mesh = one_capsule(a, b, rng.uniform(0.1, 2.0), res)
        assert mesh_euler_characteristic(mesh.vertices, mesh.triangles) == 2


def test_capsule_edges_manifold_and_oriented():
    mesh = one_capsule((0, 0, 0), (1, 2, 0.5), 0.7, 7)
    for uses in mesh_edge_uses(mesh.triangles).values():
        assert len(uses) == 2
        assert uses[0] == (uses[1][1], uses[1][0])  # opposite traversal


def test_capsule_outward_orientation():
    mesh = one_capsule((0, 0, 0), (0, 0, 2), 1.0, 12)
    v, t = mesh.vertices, mesh.triangles
    volume = np.sum(
        np.einsum("ij,ij->i", v[t[:, 0]], np.cross(v[t[:, 1]], v[t[:, 2]]))
    ) / 6.0
    assert volume > 0
    # inscribed tessellation stays below the smooth capsule volume
    assert volume < math.pi * 1.0**2 * 2.0 + 4.0 / 3.0 * math.pi


def test_capsule_vertices_within_radius_of_segment():
    a, b, r = (1, 0, 0), (2, 3, -1), 0.8
    mesh = one_capsule(a, b, r, 9)
    for v in mesh.vertices:
        assert point_segment_distance(tuple(v), a, b) <= r + 1e-6


def test_capsule_support_function_covers_end_spheres():
    a, b, r = (0, 0, 0), (1, 1, 2), 0.9
    res = 8
    mesh = one_capsule(a, b, r, res)
    bound = 2.0 * r * math.sin(math.pi / res) ** 2
    rng = random.Random(7)
    for _ in range(res):
        d = np.array([rng.gauss(0, 1) for _ in range(3)])
        d /= np.linalg.norm(d)
        h_mesh = float((mesh.vertices @ d).max())
        h_capsule = max(float(np.dot(a, d)), float(np.dot(b, d))) + r
        assert h_mesh >= h_capsule - bound - 1e-12


def test_capsule_rejects_bad_inputs():
    # capsule radius and resolution come from the spec, and its centres are
    # finite because SurfaceParams rejects non-finite values
    surface = SurfaceParams(SurfaceKind.TORUS)
    for bad in (dict(capsule_resolution=3), dict(thickness=0.0),
                dict(thickness=math.nan), dict(thickness=math.inf)):
        with pytest.raises(ValueError):
            WireframeSpec(surface, **bad)


@pytest.mark.parametrize("res", range(4, 17))
def test_sphere_struts_match_oracle_bit_for_bit(res):
    a = np.array([(0.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (1.5, -2.25, 3.0),
                  (-7.1, 0.3, 12.9), (4.0, 5.0, -6.0)])
    b = a.copy()
    b[2] += (1e-11, 0.0, 0.0)
    b[3] += (0.0, -1e-11, 1e-11)
    for radius in (0.6, 1.2, 2.5):
        plan = SegmentPlan(a, b, radius)
        assert count_degenerate_segments(plan) == len(a)
        mesh = tessellate_segments(plan, res)
        expect = sphere_vertices(a, b, radius, res).reshape(-1, 3)
        assert mesh.vertices.tobytes() == expect.tobytes()  # signed zeros too
        assert mesh.triangle_count == len(a) * sphere_counts(res)[1]


def test_nearly_degenerate_segment_becomes_sphere():
    mesh = one_capsule((0, 0, 0), (0, 0, SPHERE_EPS / 2), 1.0, 6)
    assert mesh.triangle_count == sphere_counts(6)[1]
    report = validate(mesh)
    assert report.all_watertight and report.all_edge_manifold


# --- whole wireframes --------------------------------------------------------


def assert_per_capsule_concatenation(whole, segs, res):
    offset_v = 0
    offset_f = 0
    for idx in range(len(segs)):
        single = one_capsule(segs.a[idx], segs.b[idx], segs.radius, res)
        nv, nf = len(single.vertices), len(single.triangles)
        assert whole.vertices[offset_v : offset_v + nv].tobytes() == single.vertices.tobytes()
        assert np.array_equal(
            whole.triangles[offset_f : offset_f + nf] - offset_v, single.triangles
        )
        offset_v += nv
        offset_f += nf
    assert offset_v == len(whole.vertices)
    assert offset_f == len(whole.triangles)


def test_build_matches_per_capsule_concatenation():
    spec = small_spec(outer_density=2, capsule_resolution=6)
    assert_per_capsule_concatenation(build_wireframe(spec), plan_segments(spec), 6)


@pytest.mark.parametrize("per_block", [1, 4, 7])
def test_tessellation_blocks_split_between_threads(monkeypatch, per_block):
    # a Roman draft whose 72 spheres come in pairs of adjacent segments: blocks of
    # 4 segments keep each pair together and blocks of 1 or 7 cut some of them
    spec = WireframeSpec(SurfaceParams(SurfaceKind.ROMAN, lat_ribs=4, long_ribs=8),
                         outer_density=2, inner_density=2, thickness=1.2, capsule_resolution=6)
    segs = plan_segments(spec)
    spheres = np.flatnonzero(wireframe._is_sphere(segs))
    fill, calls = wireframe._tessellate_blocks, []

    def recorded(*args):
        calls.append((threading.current_thread() is threading.main_thread(), args[-1]))
        fill(*args)

    monkeypatch.setattr(wireframe, "_CHUNK", per_block * capsule_counts(6)[1] + 5)
    monkeypatch.setattr(wireframe, "_tessellate_blocks", recorded)
    whole = tessellate_segments(segs, 6)
    blocks = -(-len(segs) // per_block)
    half = (blocks + 1) // 2 * per_block  # the caller's segments
    assert sorted(calls) == [(False, range(half, len(segs), per_block)),
                             (True, range(0, half, per_block))]
    assert len(spheres) == 72 and spheres.min() < half <= spheres.max()
    monkeypatch.setattr(wireframe, "_tessellate_blocks", fill)
    assert_per_capsule_concatenation(whole, segs, 6)


def test_concurrent_tessellations_agree(monkeypatch):
    # four callers with a tessellation worker each: more threads than cores, switching often
    spec = WireframeSpec(SurfaceParams(SurfaceKind.ROMAN, lat_ribs=4, long_ribs=8),
                         outer_density=2, inner_density=2, thickness=1.2, capsule_resolution=6)
    segs = plan_segments(spec)
    expected = tessellate_segments(segs, 6)
    monkeypatch.setattr(wireframe, "_CHUNK", 3 * capsule_counts(6)[1])  # 108 blocks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as callers:
            meshes = list(callers.map(lambda _: tessellate_segments(segs, 6), range(8),
                                      timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for mesh in meshes:
        assert mesh.vertices.tobytes() == expected.vertices.tobytes()
        assert np.array_equal(mesh.triangles, expected.triangles)


def test_build_triangle_count_formula():
    spec = small_spec(capsule_resolution=4)
    mesh = build_wireframe(spec)
    assert mesh.triangle_count == 56 * capsule_counts(4)[1]


def test_build_components_all_closed():
    for kind in SurfaceKind:
        mesh = build_wireframe(small_spec(kind, capsule_resolution=4))
        report = validate(mesh)
        assert report.all_watertight
        assert report.all_edge_manifold
        assert np.all(report.euler_characteristic_per_component == 2)


@pytest.mark.parametrize(
    "kind, grid, density, res, legacy, fmt, digest",
    [
        (SurfaceKind.KLEIN, (6, 8), 2, 8, True, "binary",
         "54f31e77dd90495bd6fbafdbdddbbbc8001a32e1b31330df41d166a4d563d146"),
        # the benchmark's draft-ascii-roman file at seed 0
        (SurfaceKind.ROMAN, (16, 32), 2, 6, False, "ascii",
         "8d50cdf941b7f3dca137341391313bdd78d455e33dfa710acfad113f9eb4edd9"),
        # lat_ribs % 4 == 0 puts grid columns on the pinch circle: spheres
        (SurfaceKind.ROMAN, (4, 4), 1, 4, False, "binary",
         "3cfbb11e7687c0267dbfabf82eb44df3cf13172ba7f3500a047e0a69563a2546"),
    ],
)
def test_draft_stl_golden_hashes(kind, grid, density, res, legacy, fmt, digest):
    surface = SurfaceParams(kind, lat_ribs=grid[0], long_ribs=grid[1])
    thickness = 1.0 if grid == (4, 4) else 1.2
    spec = WireframeSpec(surface, outer_density=density, inner_density=density,
                         thickness=thickness, capsule_resolution=res)
    data = write_stl(build_wireframe(spec, legacy), fmt)
    assert hashlib.sha256(data).hexdigest() == digest


def test_build_deterministic_bytes():
    spec = small_spec(kind=SurfaceKind.KLEIN, capsule_resolution=5)
    data1 = write_stl(build_wireframe(spec), "binary")
    data2 = write_stl(build_wireframe(spec), "binary")
    assert data1 == data2


def test_roman_pinch_columns_degenerate_to_spheres():
    # lat_ribs divisible by 4 samples the pinch circle exactly
    surface = SurfaceParams(SurfaceKind.ROMAN, lat_ribs=4, long_ribs=4)
    spec = WireframeSpec(surface, outer_density=1, inner_density=1,
                         thickness=1.0, capsule_resolution=4)
    segs = plan_segments(spec)
    degenerate = count_degenerate_segments(segs)
    assert degenerate > 0
    mesh = tessellate_segments(segs, 4)
    report = validate(mesh)
    assert report.all_watertight
    assert np.all(report.euler_characteristic_per_component == 2)


def test_spec_validation():
    surface = SurfaceParams(SurfaceKind.TORUS)
    with pytest.raises(ValueError):
        WireframeSpec(surface, thickness=0.0)
    with pytest.raises(ValueError):
        WireframeSpec(surface, outer_density=0)
    with pytest.raises(ValueError):
        WireframeSpec(surface, inner_density=-1)
    with pytest.raises(ValueError):
        WireframeSpec(surface, capsule_resolution=3)


def test_segment_lengths_bounded_by_adjacent_samples():
    spec = small_spec(outer_density=2, inner_density=2)
    segs = plan_segments(spec)
    lengths = [math.dist(a, b) for a, b in zip(segs.a, segs.b)]
    longest = max(lengths)
    for length in lengths:
        assert length <= longest
