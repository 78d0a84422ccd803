import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from identispace.geom import (
    SurfaceKind,
    SurfaceParams,
    Vec3,
    _rot_z,
    cosd,
    half_lemniscate,
    klein_point,
    roman_point,
    sind,
    steiner_map,
    surface_point,
    torus_point,
)

from oracles import axis_angle_matrix, cosd_scalar, mat_apply, sind_scalar

TORUS = SurfaceParams(SurfaceKind.TORUS)
KLEIN = SurfaceParams(SurfaceKind.KLEIN)
ROMAN = SurfaceParams(SurfaceKind.ROMAN)

angles = st.floats(min_value=-1440, max_value=1440, allow_nan=False)


def vec_close(a: Vec3, b, tol=1e-9):
    return max(abs(a[i] - b[i]) for i in range(3)) <= tol


# --- degree trig -----------------------------------------------------------


def test_quadrant_trig_exact():
    assert cosd(0) == 1.0 and sind(0) == 0.0
    assert cosd(90) == 0.0 and sind(90) == 1.0
    assert cosd(180) == -1.0 and sind(180) == 0.0
    assert cosd(270) == 0.0 and sind(270) == -1.0
    assert cosd(360) == 1.0 and sind(720) == 0.0
    assert cosd(-90) == 0.0 and sind(-90) == -1.0


@given(st.integers(min_value=-32 * 360, max_value=32 * 360))
def test_trig_period_bit_exact_on_grid(k):
    # grid angles (multiples of 1/8 degree) shifted by full turns are
    # exactly representable, so the reduction makes laps bit-identical
    a = k / 8.0
    assert cosd(a) == cosd(a + 360.0) == cosd(a + 720.0)
    assert sind(a) == sind(a + 360.0)


@given(angles)
def test_trig_period_close_for_arbitrary_floats(a):
    assert cosd(a) == pytest.approx(cosd(a + 360.0), abs=1e-12)
    assert sind(a) == pytest.approx(sind(a + 360.0), abs=1e-12)


# grid angles as the planner forms them: (i + k/d) * 360 / n, plus both zeros
grid_angles = st.builds(
    lambda i, k, d, n: (i + k / d) * 360.0 / n,
    st.integers(-64, 64), st.integers(0, 9), st.integers(1, 9), st.integers(3, 40),
) | st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 270.0, 360.0, -720.0])


@given(st.lists(grid_angles, min_size=1, max_size=40))
def test_array_trig_matches_scalar_bit_for_bit(values):
    for f in (cosd, sind):
        assert f(np.array(values)).tobytes() == np.array([f(a) for a in values]).tobytes()


# quadrant angles and their laps, both zeros among them
quadrant_angles = st.builds(
    lambda q, lap: q * 90.0 + lap * 360.0, st.integers(-4, 4), st.integers(-8, 8)
) | st.sampled_from([0.0, -0.0])


@given(st.lists(grid_angles | quadrant_angles | st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_trig_matches_scalar_math_oracle_bit_for_bit(values):
    for f, oracle in ((cosd, cosd_scalar), (sind, sind_scalar)):
        expect = np.array([oracle(a) for a in values]).tobytes()
        assert f(np.array(values)).tobytes() == expect
        assert np.array([f(a) for a in values]).tobytes() == expect


@pytest.mark.parametrize(
    "angles, named",
    [
        (np.array([0.0, np.inf]), "inf"),
        (np.array([[0.0, np.nan], [-np.inf, 1.0]]), "nan"),  # array order, not sorted
        (-np.inf, "-inf"),
    ],
)
def test_non_finite_angle_error_names_the_first_one(angles, named):
    for f in (cosd, sind):
        with pytest.raises(ValueError, match=rf"^angle must be finite, got {named} degrees$"):
            f(angles)


# --- rotation about z ---------------------------------------------------------


def test_rotation_identity():
    assert _rot_z(Vec3(1.5, -2.0, 3.0), 0) == Vec3(1.5, -2.0, 3.0)


def test_rotation_half_turn_about_z():
    assert _rot_z(Vec3(1, 0, 0), 180) == Vec3(-1.0, 0.0, 0.0)


@given(angles)
def test_rotation_matches_axis_angle_oracle(a):
    p = (1.5, -2.0, 3.0)
    expect = mat_apply(axis_angle_matrix((0, 0, 1), a), p)
    assert vec_close(_rot_z(Vec3(*p), a), expect, 1e-9)


@given(angles, angles)
def test_rotation_z_composition_additive(a, b):
    p = Vec3(1.5, -2.0, 3.0)
    assert vec_close(_rot_z(_rot_z(p, b), a), _rot_z(p, a + b), 1e-9)


# --- torus -----------------------------------------------------------------


def test_torus_origin_sample():
    assert torus_point(0, 0, TORUS) == Vec3(40.0, 0.0, 0.0)


def test_torus_quarter_profile():
    assert torus_point(TORUS.lat_ribs / 4, 0, TORUS) == Vec3(30.0, 0.0, 10.0)


def test_torus_half_turn():
    got = torus_point(0, TORUS.long_ribs / 2, TORUS)
    assert vec_close(got, (-40.0, 0.0, 0.0), 0.0)


def test_torus_periodicity_full_grid_exact():
    for i in range(TORUS.lat_ribs + 1):
        for j in range(TORUS.long_ribs + 1):
            p = torus_point(i, j, TORUS)
            assert math.dist(p, torus_point(i + TORUS.lat_ribs, j, TORUS)) < 1e-9
            assert math.dist(p, torus_point(i, j + TORUS.long_ribs, TORUS)) < 1e-9


def test_torus_profile_radius_law():
    # points at fixed j stay on the circle of radius R + r*cos(u) about the z axis
    for i in range(0, 4 * TORUS.lat_ribs, 3):
        x = i / 2.0
        u = x * 360.0 / TORUS.lat_ribs
        p = torus_point(x, 5, TORUS)
        expect = TORUS.outer_radius + TORUS.inner_radius * cosd(u)
        assert abs(math.hypot(p.x, p.y) - abs(expect)) < 1e-9


# --- half lemniscate -------------------------------------------------------


def test_half_lemniscate_endpoints_and_middle():
    assert half_lemniscate(0.0, 0.25) == Vec3(0.0, 0.0, -0.25)
    got = half_lemniscate(0.5, 0.25)
    assert vec_close(got, (-1.0, 0.0, 0.0), 0.0)
    got = half_lemniscate(1.0, 0.25)
    assert vec_close(got, (0.0, 0.0, 0.25), 0.0)


@given(st.floats(min_value=0, max_value=1, allow_nan=False))
def test_half_lemniscate_zero_amplitude_is_planar(alpha):
    assert half_lemniscate(alpha, 0.0).z == 0.0


# --- klein -----------------------------------------------------------------


def test_klein_frozen_samples():
    # independent hand evaluation: inner point (30, 0, -2.5) through Rx(90)
    assert vec_close(klein_point(0, 0, KLEIN), (30.0, 2.5, 0.0), 0.0)
    # half_lemniscate(0.5, 0.25) = (-1, 0, 0) scaled by r, shifted by R, x-axis fixed
    assert vec_close(klein_point(0, KLEIN.long_ribs / 2, KLEIN), (20.0, 0.0, 0.0), 0.0)


def test_klein_closure_full_grid():
    for i in range(2 * KLEIN.lat_ribs + 1):
        for j in range(KLEIN.long_ribs + 1):
            gap = math.dist(
                klein_point(i, j, KLEIN), klein_point(i + 2 * KLEIN.lat_ribs, j, KLEIN)
            )
            assert gap < 1e-9


def test_klein_seam_junction_gaps():
    n = KLEIN.long_ribs
    c1 = [klein_point(0, j, KLEIN) for j in range(n + 1)]
    c2 = [klein_point(KLEIN.lat_ribs, j, KLEIN) for j in range(n + 1)]
    parallel = max(math.dist(c1[0], c2[0]), math.dist(c1[-1], c2[-1]))
    crossed = max(math.dist(c1[0], c2[-1]), math.dist(c1[-1], c2[0]))
    assert min(parallel, crossed) < 1e-6


# --- roman -----------------------------------------------------------------


def test_roman_pinch_sample():
    p = SurfaceParams(SurfaceKind.ROMAN, outer_radius=1.0)
    assert roman_point(0, 0, p) == Vec3(0.0, 0.0, 0.0)


def test_roman_diagonal_sample():
    p = SurfaceParams(SurfaceKind.ROMAN, outer_radius=1.0)
    j45 = p.long_ribs / 4  # v = 45 degrees
    got = roman_point(0, j45, p)
    assert vec_close(got, (0.0, 0.0, 0.5), 1e-12)


def test_steiner_symmetric_point():
    s = 1.0 / math.sqrt(3.0)
    got = steiner_map(Vec3(s, s, s))
    assert vec_close(got, (1 / 3, 1 / 3, 1 / 3), 1e-12)


@given(angles, angles)
def test_roman_antipodal_invariance_exact(u, v):
    p = Vec3(cosd(u) * cosd(v), cosd(u) * sind(v), sind(u))
    q = Vec3(-p.x, -p.y, -p.z)
    assert steiner_map(p) == steiner_map(q)


@given(angles, angles)
def test_roman_swap_equivariance(u, v):
    p = Vec3(cosd(u) * cosd(v), cosd(u) * sind(v), sind(u))
    out = steiner_map(p)
    swapped = steiner_map(Vec3(p.y, p.x, p.z))
    assert swapped == Vec3(out.y, out.x, out.z)


# --- dispatch --------------------------------------------------------------


def test_dispatch_matches_direct_calls():
    assert surface_point(0, 0, TORUS) == torus_point(0, 0, TORUS)
    rng = random.Random(20260810)
    for _ in range(100):
        i = rng.uniform(0, 2 * ROMAN.lat_ribs)
        j = rng.uniform(0, ROMAN.long_ribs)
        assert surface_point(i, j, ROMAN) == roman_point(i, j, ROMAN)


def test_dispatch_fractional_continuity():
    for j in range(KLEIN.long_ribs + 1):
        a = surface_point(0.5, j, KLEIN)
        b = surface_point(0.5 - 1e-6, j, KLEIN)
        assert math.dist(a, b) < 1e-3


@given(
    st.sampled_from([TORUS, KLEIN, ROMAN]),
    st.lists(st.tuples(st.floats(0, 40), st.floats(0, 40)), min_size=1, max_size=20),
)
def test_grid_evaluation_matches_pointwise(params, samples):
    i, j = np.array(samples).T
    grid = np.stack(np.broadcast_arrays(*surface_point(i, j, params)), axis=-1)
    pointwise = np.array([surface_point(float(x), float(y), params) for x, y in samples])
    assert grid.tobytes() == pointwise.tobytes()


def test_point_functions_reject_wrong_kind():
    with pytest.raises(ValueError):
        torus_point(0, 0, KLEIN)
    with pytest.raises(ValueError):
        klein_point(0, 0, TORUS)
    with pytest.raises(ValueError):
        roman_point(0, 0, TORUS)


# --- parameter validation ---------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=SurfaceKind.TORUS, lat_ribs=2),
        dict(kind=SurfaceKind.TORUS, long_ribs=1),
        dict(kind=SurfaceKind.TORUS, outer_radius=5.0, inner_radius=10.0),
        dict(kind=SurfaceKind.KLEIN, inner_radius=0.0),
        dict(kind=SurfaceKind.ROMAN, outer_radius=0.0),
        dict(kind=SurfaceKind.KLEIN, amplitude=-0.1),
        dict(kind=SurfaceKind.TORUS, outer_radius=math.inf),
        dict(kind=SurfaceKind.ROMAN, outer_radius=math.nan),
        dict(kind=SurfaceKind.ROMAN, inner_radius=math.inf),
        dict(kind=SurfaceKind.KLEIN, amplitude=math.nan),
        dict(kind=SurfaceKind.KLEIN, phase_offset=-math.inf),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        SurfaceParams(**kwargs)


def test_roman_ignores_inner_radius_ordering():
    # only outer_radius matters for the Roman surface
    SurfaceParams(kind=SurfaceKind.ROMAN, outer_radius=1.0, inner_radius=50.0)
