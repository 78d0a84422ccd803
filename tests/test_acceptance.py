"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and recorded measurements.
"""

import functools
import gc
import hashlib
import math
import random
import time

import numpy as np

from identispace.geom import (
    SurfaceKind,
    SurfaceParams,
    Vec3,
    cosd,
    klein_point,
    sind,
    steiner_map,
    torus_point,
)
from identispace.mesh_io import read_stl, validate, write_stl
from identispace.topology import (
    AbelianGroup,
    SpaceName,
    builtin_complex,
    format_group,
    homology,
    identity_mat,
    intmat,
    smith_normal_form,
    verify_exact,
    zeros_mat,
)
from identispace.wireframe import WireframeSpec, build_wireframe

from oracles import (
    all_minor_gcds,
    det_bareiss,
    mod_p_rank,
    random_delta_complex,
    rational_rank,
)
from test_topology import complex_from_levels, mat_is_zero


def criterion(n, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {n} ({name}): FAIL [{time.perf_counter() - start:.2f}s]")
                raise
            print(f"\nACCEPTANCE {n} ({name}): PASS [{time.perf_counter() - start:.2f}s]")

        return wrapper

    return deco


# --- 1: homology table -------------------------------------------------------


@criterion(1, "homology table")
def test_criterion_1_homology_table():
    start = time.perf_counter()
    expected = {
        SpaceName.CIRCLE: [AbelianGroup(1), AbelianGroup(1)],
        SpaceName.SPHERE: [AbelianGroup(1), AbelianGroup(0), AbelianGroup(1)],
        SpaceName.TORUS: [AbelianGroup(1), AbelianGroup(2), AbelianGroup(1)],
        SpaceName.KLEIN_BOTTLE: [AbelianGroup(1), AbelianGroup(1, (2,)), AbelianGroup(0)],
        SpaceName.PROJECTIVE_PLANE: [AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0)],
    }
    groups = {}
    for name, want in expected.items():
        c = builtin_complex(name)
        got = [homology(c, k) for k in range(c.dimension + 1)]
        assert got == want, f"{name}: {list(map(format_group, got))}"
        groups[name] = got

    # independent oracle for the three identification spaces: Betti numbers
    # over the rationals, torsion structure from mod-2 / mod-3 rank jumps
    for name in (SpaceName.TORUS, SpaceName.KLEIN_BOTTLE, SpaceName.PROJECTIVE_PLANE):
        c = builtin_complex(name)
        for k, g in enumerate(groups[name]):
            betti = (
                c.rank_of_chain_group(k)
                - rational_rank(c.boundary(k))
                - rational_rank(c.boundary(k + 1))
            )
            assert g.rank == betti
            for p in (2, 3):
                dim_p = (
                    c.rank_of_chain_group(k)
                    - mod_p_rank(c.boundary(k), p)
                    - mod_p_rank(c.boundary(k + 1), p)
                )
                t_here = sum(1 for d in g.torsion if d % p == 0)
                t_below = (
                    sum(1 for d in groups[name][k - 1].torsion if d % p == 0) if k else 0
                )
                assert dim_p == betti + t_here + t_below
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"homology table took {elapsed:.2f}s"


# --- 2: SNF property suite ---------------------------------------------------


@criterion(2, "Smith normal form property suite")
def test_criterion_2_snf_properties():
    start = time.perf_counter()
    rng = random.Random(0xD1A6)
    for _ in range(1000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = intmat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        res = smith_normal_form(a)
        assert np.array_equal(res.U @ a @ res.V, res.D)
        assert abs(det_bareiss(res.U)) == 1
        assert abs(det_bareiss(res.V)) == 1
        diag = res.diagonal
        nonzero = [d for d in diag if d != 0]
        assert diag[: len(nonzero)] == nonzero and all(d >= 0 for d in diag)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        gcds = all_minor_gcds(a)
        prod = 1
        for k, d in enumerate(diag, start=1):
            prod *= d
            assert prod == gcds[k - 1], (a.tolist(), diag, gcds)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"SNF suite took {elapsed:.2f}s"


# --- 3: boundary squares to zero ---------------------------------------------


@criterion(3, "boundary-of-boundary vanishes")
def test_criterion_3_boundary_squared_zero():
    for name in SpaceName:
        c = builtin_complex(name)
        for k in range(2, c.dimension + 1):
            assert mat_is_zero(c.boundary(k - 1) @ c.boundary(k))
    rng = random.Random(0xDE17A)
    for _ in range(100):
        levels = random_delta_complex(rng)
        c = complex_from_levels(levels)
        for k in range(2, c.dimension + 1):
            prod = c.boundary(k - 1) @ c.boundary(k)
            assert mat_is_zero(prod)


# --- 4: watertight models at default parameters -------------------------------

# SHA-256 of each default model's binary STL; output bytes are the contract
DEFAULT_STL_SHA256 = {
    SurfaceKind.TORUS: "c5e6183503e36a7308d4616102c6342ce3fe238ebc8d3b561bed5dbe8a98ea97",
    SurfaceKind.KLEIN: "bd45062d9e31c134a49438e70eb90f855ff774bc8802532bfc337129fc6c1feb",
    SurfaceKind.ROMAN: "a8f2ad220a3b5956e8f856d43e2823b826f8e2175c543e8be6bd2193f25d6fd2",
}


@criterion(4, "default models watertight with stable round-trip verdict")
def test_criterion_4_watertight_defaults(tmp_path):
    for kind in SurfaceKind:
        start = time.perf_counter()
        mesh = build_wireframe(WireframeSpec(SurfaceParams(kind)))
        report = validate(mesh)
        assert report.all_edge_manifold, kind
        assert report.all_watertight, kind
        assert np.all(report.euler_characteristic_per_component == 2), kind
        data = write_stl(mesh, "binary")
        assert len(data) == 84 + 50 * mesh.triangle_count
        assert hashlib.sha256(data).hexdigest() == DEFAULT_STL_SHA256[kind], kind
        del mesh
        gc.collect()
        path = tmp_path / f"{kind.value}.stl"
        path.write_bytes(data)
        del data
        gc.collect()
        back = read_stl(path.read_bytes())
        report_back = validate(back)
        assert report_back.all_watertight == report.all_watertight
        del back
        gc.collect()
        path.unlink()
        elapsed = time.perf_counter() - start
        print(f"  {kind.value}: {elapsed:.1f}s")
        assert elapsed < 60.0, f"{kind.value} took {elapsed:.2f}s"


# --- 5: parametrization closure ------------------------------------------------


@criterion(5, "parametrization closure")
def test_criterion_5_closure():
    torus = SurfaceParams(SurfaceKind.TORUS)
    for i in range(torus.lat_ribs + 1):
        for j in range(torus.long_ribs + 1):
            p = torus_point(i, j, torus)
            assert math.dist(p, torus_point(i + torus.lat_ribs, j, torus)) < 1e-9
            assert math.dist(p, torus_point(i, j + torus.long_ribs, torus)) < 1e-9

    klein = SurfaceParams(SurfaceKind.KLEIN)
    for i in range(2 * klein.lat_ribs + 1):
        for j in range(klein.long_ribs + 1):
            gap = math.dist(
                klein_point(i, j, klein), klein_point(i + 2 * klein.lat_ribs, j, klein)
            )
            assert gap < 1e-9

    c1 = [klein_point(0, j, klein) for j in range(klein.long_ribs + 1)]
    c2 = [klein_point(klein.lat_ribs, j, klein) for j in range(klein.long_ribs + 1)]
    parallel = max(math.dist(c1[0], c2[0]), math.dist(c1[-1], c2[-1]))
    crossed = max(math.dist(c1[0], c2[-1]), math.dist(c1[-1], c2[0]))
    assert min(parallel, crossed) < 1e-6

    rng = random.Random(0xA27190DA1)
    for _ in range(1000):
        u = rng.uniform(0, 360)
        v = rng.uniform(0, 360)
        p = Vec3(cosd(u) * cosd(v), cosd(u) * sind(v), sind(u))
        assert steiner_map(p) == steiner_map(Vec3(-p.x, -p.y, -p.z))


# --- 6: oscillation amplitude sensitivity -------------------------------------


def _transversal_curve(params: SurfaceParams, i: int, per_step: int) -> np.ndarray:
    """Samples (long_ribs*per_step+1, 3) of fiber i at j + k/per_step, then long_ribs."""
    steps = np.arange(params.long_ribs)[:, None] + np.arange(per_step) / per_step
    ts = np.append(steps.ravel(), params.long_ribs)
    return np.stack(np.broadcast_arrays(*klein_point(i, ts, params)), axis=-1)


@criterion(6, "oscillation amplitude separates paired fibers")
def test_criterion_6_amplitude_sensitivity():
    spec = WireframeSpec(SurfaceParams(SurfaceKind.KLEIN))
    thickness = spec.thickness
    per_step = spec.inner_density

    def min_interior_distance(amplitude: float) -> float:
        params = SurfaceParams(SurfaceKind.KLEIN, amplitude=amplitude)
        best = math.inf
        for i in (0, 5, 9):
            a = _transversal_curve(params, i, per_step)[1:-1]
            b = _transversal_curve(params, i + params.lat_ribs, per_step)[1:-1]
            diff = a[:, None, :] - b[None, :, :]
            best = min(best, float(np.sqrt((diff * diff).sum(axis=2)).min()))
        return best

    flat = min_interior_distance(0.0)
    assert flat < thickness, f"flat fibers stay {flat:.3f} mm apart"
    dodged = min_interior_distance(0.25)
    assert dodged > 0.0
    print(f"  min interior fiber distance: amplitude 0 -> {flat:.4f} mm, "
          f"amplitude 0.25 -> {dodged:.4f} mm (margin recorded, not asserted)")


# --- 7: exactness checker ------------------------------------------------------


@criterion(7, "exactness checker on the worked sequence")
def test_criterion_7_exactness():
    worked = verify_exact([intmat([[1], [1]]), intmat([[1, -1]])])
    assert worked[0].exact
    counter = verify_exact([intmat([[2]]), intmat([[0]])])
    assert not counter[0].exact
    assert counter[0].composition_zero
    assert format_group(counter[0].quotient) == "Z/2"
    iso = verify_exact([zeros_mat(1, 0), identity_mat(1), zeros_mat(0, 1)])
    assert all(v.exact for v in iso)


# --- 8: determinism -------------------------------------------------------------


@criterion(8, "byte-identical regeneration")
def test_criterion_8_determinism(tmp_path, capsys):
    from identispace.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "surface = klein\nlat-ribs = 6\nlong-ribs = 8\n"
        "outer-density = 2\ninner-density = 2\nresolution = 8\n"
    )
    a = tmp_path / "a.stl"
    b = tmp_path / "b.stl"
    assert main(["generate", "--config", str(cfg), "--output", str(a)]) == 0
    assert main(["generate", "--config", str(cfg), "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
