"""Independent reference computations for pinning expected test values.

Everything here deliberately avoids the code paths under test: ranks come
from Fraction/GF(p) Gaussian elimination rather than Smith normal form,
determinants from Bareiss elimination, degree trig from ``math`` one angle
at a time, rotations from the axis-angle formula, Euler characteristics from
raw vertex/edge/face counting, quotient-square grid complexes from a
union-find over glued grid points, the plan's cell complex from ``np.unique``
over its float32 end bits, sphere struts from their own
latitude/longitude grid, ASCII STL from one line per format call, ASCII STL
corners from one ``float`` call per token, and mesh reports from a
union-find and per-edge use lists.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from identispace.mesh_io import StlError
from identispace.wireframe import plan_segments


def rational_rank(mat) -> int:
    a = np.asarray(mat, dtype=object)
    m, n = a.shape
    rows = [[Fraction(int(a[i, j])) for j in range(n)] for i in range(m)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        base = rows[rank]
        for r in range(rank + 1, m):
            if rows[r][col] != 0:
                f = rows[r][col] / base[col]
                rows[r] = [x - f * y for x, y in zip(rows[r], base)]
        rank += 1
        if rank == m:
            break
    return rank


def mod_p_rank(mat, p: int) -> int:
    a = np.asarray(mat, dtype=object)
    m, n = a.shape
    rows = [[int(a[i, j]) % p for j in range(n)] for i in range(m)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        base = [(x * inv) % p for x in rows[rank]]
        rows[rank] = base
        for r in range(rank + 1, m):
            if rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], base)]
        rank += 1
        if rank == m:
            break
    return rank


def det_bareiss(mat) -> int:
    a0 = np.asarray(mat, dtype=object)
    n = a0.shape[0]
    assert a0.shape == (n, n)
    if n == 0:
        return 1
    a = [[int(a0[i, j]) for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def all_minor_gcds(mat) -> list[int]:
    """[g_1, ..., g_min(m,n)] where g_k = gcd of all k x k minors (0 if none nonzero)."""
    a = np.asarray(mat, dtype=object)
    m, n = a.shape
    memo: dict[tuple, int] = {}

    def minor(rows: tuple, cols: tuple) -> int:
        if len(rows) == 1:
            return int(a[rows[0], cols[0]])
        key = (rows, cols)
        if key in memo:
            return memo[key]
        total = 0
        sign = 1
        rest = rows[1:]
        for idx in range(len(cols)):
            e = int(a[rows[0], cols[idx]])
            if e:
                total += sign * e * minor(rest, cols[:idx] + cols[idx + 1 :])
            sign = -sign
        memo[key] = total
        return total

    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = math.gcd(g, minor(rows, cols))
        out.append(g)
    return out


def axis_angle_matrix(axis: tuple[float, float, float], degrees: float):
    """Rodrigues rotation matrix; independent of the package's z rotation."""
    x, y, z = axis
    norm = math.sqrt(x * x + y * y + z * z)
    x, y, z = x / norm, y / norm, z / norm
    th = math.radians(degrees)
    c, s = math.cos(th), math.sin(th)
    cc = 1.0 - c
    return [
        [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
        [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
        [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
    ]


def _reduce_degrees(a: float) -> float:
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a} degrees")
    r = math.fmod(a, 360.0)
    if r < 0.0:
        r += 360.0
    return r


def cosd_scalar(a: float) -> float:
    """Degree cosine one angle at a time through ``math``, exact at multiples of 90."""
    r = _reduce_degrees(a)
    if r == 0.0:
        return 1.0
    if r == 90.0 or r == 270.0:
        return 0.0
    if r == 180.0:
        return -1.0
    return math.cos(math.radians(r))


def sind_scalar(a: float) -> float:
    """Degree sine one angle at a time through ``math``, exact at multiples of 90."""
    r = _reduce_degrees(a)
    if r == 0.0 or r == 180.0:
        return 0.0
    if r == 90.0:
        return 1.0
    if r == 270.0:
        return -1.0
    return math.sin(math.radians(r))


def mat_apply(mat, v):
    return tuple(sum(mat[i][k] * v[k] for k in range(3)) for i in range(3))


def point_segment_distance(p, a, b) -> float:
    ab = tuple(b[i] - a[i] for i in range(3))
    ap = tuple(p[i] - a[i] for i in range(3))
    denom = sum(c * c for c in ab)
    if denom == 0.0:
        return math.dist(p, a)
    t = max(0.0, min(1.0, sum(ap[i] * ab[i] for i in range(3)) / denom))
    closest = tuple(a[i] + t * ab[i] for i in range(3))
    return math.dist(p, closest)


def mesh_euler_characteristic(vertices, triangles) -> int:
    """V - E + F from raw counts; edges as undirected vertex-index pairs."""
    used = {int(v) for tri in triangles for v in tri}
    edges = set()
    for t in triangles:
        t = [int(v) for v in t]
        for i in range(3):
            edges.add(frozenset((t[i], t[(i + 1) % 3])))
    return len(used) - len(edges) + len(triangles)


def mesh_edge_uses(triangles) -> dict[frozenset, list[tuple[int, int]]]:
    uses: dict[frozenset, list[tuple[int, int]]] = {}
    for t in triangles:
        t = [int(v) for v in t]
        for i in range(3):
            a, b = t[i], t[(i + 1) % 3]
            uses.setdefault(frozenset((a, b)), []).append((a, b))
    return uses


def union_find(vertices, pairs) -> dict:
    """Each of ``vertices`` mapped to one representative of its class.

    The classes are those of the equivalence relation that the ``pairs`` of
    vertices generate, found one pair at a time by a dict union-find.
    """
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        parent[find(a)] = find(b)
    return {v: find(v) for v in parent}


def mesh_report_oracle(vertices, triangles, degenerate_area: float) -> dict:
    """Every ``MeshReport`` field, from Python loops over triangles and edge uses.

    Components are the classes of a union-find over each triangle's vertices,
    ordered by their smallest vertex index.  Collapsed edges (a, a) of
    repeated-index triangles are not edges.  A triangle is degenerate when its
    float64 cross product, taken one Python float at a time, has squared
    length at most (2 * degenerate_area)^2.
    """
    vertices = [tuple(float(c) for c in v) for v in vertices]
    triangles = [tuple(int(i) for i in t) for t in triangles]
    if not triangles:
        return dict(
            component_count=0,
            watertight_per_component=[],
            euler_characteristic_per_component=[],
            edge_manifold_per_component=[],
            boundary_edges_per_component=[],
            bbox_min=(0.0, 0.0, 0.0),
            bbox_max=(0.0, 0.0, 0.0),
            triangle_count=0,
            degenerate_count=0,
        )

    root = union_find({v for t in triangles for v in t},
                      [(a, x) for a, b, c in triangles for x in (b, c)])
    smallest: dict[int, int] = {}  # root -> smallest member, filled in index order
    for v in sorted(root):
        smallest.setdefault(root[v], v)
    comp = {r: k for k, r in enumerate(smallest)}
    ncomp = len(comp)

    verts = [0] * ncomp
    for v in root:
        verts[comp[root[v]]] += 1
    faces = [0] * ncomp
    for t in triangles:
        faces[comp[root[t[0]]]] += 1
    edges = [0] * ncomp
    unbalanced = [0] * ncomp
    nonmanifold = [0] * ncomp
    boundary = [0] * ncomp
    for key, uses in mesh_edge_uses(triangles).items():
        if len(key) == 1:
            continue  # collapsed edge
        k = comp[root[next(iter(key))]]
        lo = min(key)
        forward = sum(1 for a, _ in uses if a == lo)
        balanced = 2 * forward == len(uses)
        edges[k] += 1
        unbalanced[k] += not balanced
        nonmanifold[k] += not (balanced and len(uses) == 2)
        boundary[k] += len(uses) == 1

    bound = (2.0 * degenerate_area) ** 2
    degenerate = 0
    for a, b, c in triangles:
        p0, p1, p2 = vertices[a], vertices[b], vertices[c]
        e1 = [p1[i] - p0[i] for i in range(3)]
        e2 = [p2[i] - p0[i] for i in range(3)]
        cx = e1[1] * e2[2] - e1[2] * e2[1]
        cy = e1[2] * e2[0] - e1[0] * e2[2]
        cz = e1[0] * e2[1] - e1[1] * e2[0]
        degenerate += cx * cx + cy * cy + cz * cz <= bound

    return dict(
        component_count=ncomp,
        watertight_per_component=[u == 0 for u in unbalanced],
        euler_characteristic_per_component=[
            verts[k] - edges[k] + faces[k] for k in range(ncomp)
        ],
        edge_manifold_per_component=[u == 0 for u in nonmanifold],
        boundary_edges_per_component=boundary,
        bbox_min=tuple(min(v[i] for v in vertices) for i in range(3)),
        bbox_max=tuple(max(v[i] for v in vertices) for i in range(3)),
        triangle_count=len(triangles),
        degenerate_count=degenerate,
    )


def random_delta_complex(rng: random.Random, max_dim: int = 3):
    """Degree-indexed cell lists of a random identification complex.

    Top cells are random ordered vertex tuples (repeats allowed, which is
    what creates identifications); every lower degree lists the faces that
    actually occur, in first-appearance order.
    """
    dim = rng.randint(1, max_dim)
    nverts = rng.randint(1, 5)
    ntop = rng.randint(1, 6)
    levels = [
        [tuple(rng.randrange(nverts) for _ in range(dim + 1)) for _ in range(ntop)]
    ]
    for _ in range(dim):
        seen = dict()
        for cell in levels[-1]:
            for j in range(len(cell)):
                seen.setdefault(cell[:j] + cell[j + 1 :], None)
        levels.append(list(seen))
    levels.reverse()
    return levels


def quotient_grid(space: str, width: int, height: int, rng: random.Random | None = None):
    """Vertex, edge and triangle lists of a triangulated quotient square.

    The square [0, width] x [0, height] is cut into unit cells, each split
    along its (i, j)-(i+1, j+1) diagonal, and its sides are glued for
    ``space``: "torus" (i, 0) ~ (i, height) and (0, j) ~ (width, j); "klein"
    flips the second pair to (width, height - j); "rp2" flips both.  Cells are
    sorted tuples of vertex labels, so cells with equal vertex sets after
    gluing coincide.  With ``rng`` the labels are permuted and every list is
    shuffled.
    """
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(p):
        while parent.get(p, p) != p:
            p = parent[p]
        return p

    def glue(p, q):
        p, q = find(p), find(q)
        if p != q:
            parent[max(p, q)] = min(p, q)

    for i in range(width + 1):
        glue((i, 0), (width - i, height) if space == "rp2" else (i, height))
    for j in range(height + 1):
        glue((0, j), (width, j) if space == "torus" else (width, height - j))
    roots = sorted({find((i, j)) for i in range(width + 1) for j in range(height + 1)})
    numbers = list(range(len(roots)))
    if rng is not None:
        rng.shuffle(numbers)
    label = {root: k for root, k in zip(roots, numbers)}
    triangles = set()
    for i in range(width):
        for j in range(height):
            a, b, c, d = (label[find(q)] for q in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)))
            triangles.update(tuple(sorted(t)) for t in ((a, b, c), (a, c, d)) if len(set(t)) == 3)
    edges = {e for t in triangles for e in (t[:2], t[::2], t[1:])}
    cells = [sorted((v,) for v in numbers), sorted(edges), sorted(triangles)]
    if rng is not None:
        for level in cells:
            rng.shuffle(level)
    return cells


def plan_complex(spec):
    """Boundary maps d1, d2 of the cell complex a segment plan traces, each as
    (row count, {row: int} columns), and the number of grid squares dropped as
    repeats.

    Vertices are the distinct float32 bit patterns of the segment ends.  Each
    distinct pair of distinct welded ends is an edge, oriented from its lower
    vertex to its higher; a segment whose ends weld together is no edge.  Each
    grid square (i, j)...(i+1, j+1) is the signed loop of its 2*(outer+inner)
    segments, and a square whose chain is +- that of a square already kept is
    dropped.
    """
    plan = plan_segments(spec)
    ends = np.concatenate([plan.a, plan.b]).astype(np.float32).view(np.uint32)
    _, welded = np.unique(ends, axis=0, return_inverse=True)
    va, vb = welded.ravel().reshape(2, -1)
    sign = np.sign(vb - va)  # 0 for a segment whose ends weld together
    pairs = np.stack([np.minimum(va, vb), np.maximum(va, vb)], axis=1)
    edges, edge_of = np.unique(pairs[sign != 0], axis=0, return_inverse=True)
    segment_edge = np.zeros(len(plan), dtype=np.int64)
    segment_edge[sign != 0] = edge_of.ravel()

    p, od = spec.surface, spec.outer_density
    index = np.arange(len(plan)).reshape(2 * p.lat_ribs + 1, p.long_ribs + 1, -1)
    chains, seen, dropped = [], set(), 0
    for i in range(2 * p.lat_ribs):
        for j in range(p.long_ribs):
            loop = [(index[i, j, :od], 1), (index[i + 1, j, od:], 1),
                    (index[i, j + 1, :od], -1), (index[i, j, od:], -1)]
            chain: dict[int, int] = {}
            for segments, side in loop:
                for s in segments[sign[segments] != 0].tolist():
                    e = int(segment_edge[s])
                    chain[e] = chain.get(e, 0) + side * int(sign[s])
            key = tuple(sorted((e, x) for e, x in chain.items() if x))
            if key in seen:
                dropped += 1
                continue
            seen.update({key, tuple((e, -x) for e, x in key)})
            chains.append(key)

    d1 = (int(welded.max()) + 1, [{lo: -1, hi: 1} for lo, hi in edges.tolist()])
    d2 = (len(edges), [dict(key) for key in chains])
    return d1, d2, dropped


def sphere_vertices(a, b, radius: float, resolution: int) -> np.ndarray:
    """Vertices (S, (2m-1)n+2, 3) of sphere struts about (a+b)/2, axis fixed to z.

    Pole, then 2m-1 rings at latitudes 90*t/m for t in [1-m, m-1], each
    sampled at n azimuths, then the other pole.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = resolution
    m = (resolution + 1) // 2
    azimuth = (360.0 * np.arange(n) / n).tolist()
    latitude = (90.0 * np.arange(m) / m).tolist()
    caz = np.array([cosd_scalar(x) for x in azimuth])
    saz = np.array([sind_scalar(x) for x in azimuth])
    clat = np.array([cosd_scalar(x) for x in latitude])
    slat = np.array([sind_scalar(x) for x in latitude])
    center = (a + b) / 2.0
    t = np.arange(1, 2 * m) - m
    cl = clat[np.abs(t)]
    sl = np.sign(t) * slat[np.abs(t)]
    plane = np.zeros((n, 3))
    plane[:, 0] = caz
    plane[:, 1] = saz
    rings = center[:, None, None, :] + radius * (
        cl[None, :, None, None] * plane[None, None, :, :]
        + sl[None, :, None, None] * np.array([0.0, 0.0, 1.0])[None, None, None, :]
    )
    S = len(a)
    out = np.empty((S, (2 * m - 1) * n + 2, 3))
    out[:, 0] = center - radius * np.array([0.0, 0.0, 1.0])
    out[:, 1:-1] = rings.reshape(S, (2 * m - 1) * n, 3)
    out[:, -1] = center + radius * np.array([0.0, 0.0, 1.0])
    return out


def ascii_stl_per_facet(vertices, triangles, name: str = "identispace-forge") -> bytes:
    """ASCII STL of float32-rounded corners, one facet and one line at a time.

    Normals are the float32-rounded unit cross products of the float32
    corners, zero for zero-area triangles; numbers print with 9 significant
    digits.
    """
    v32 = np.asarray(vertices, dtype=np.float64).astype(np.float32)
    corners = v32[np.asarray(triangles)]
    p0 = corners[:, 0].astype(np.float64)
    cr = np.cross(corners[:, 1] - p0, corners[:, 2] - p0)
    length = np.sqrt((cr * cr).sum(axis=1))
    nz = length > 0.0
    cr[nz] /= length[nz, None]
    cr[~nz] = 0.0
    normals = cr.astype(np.float32)
    lines = [f"solid {name}"]
    for k in range(len(corners)):
        nx, ny, nz_ = (float(c) for c in normals[k])
        lines.append(f"  facet normal {nx:.9g} {ny:.9g} {nz_:.9g}")
        lines.append("    outer loop")
        for corner in corners[k]:
            x, y, z = (float(c) for c in corner)
            lines.append(f"      vertex {x:.9g} {y:.9g} {z:.9g}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}")
    lines.append("")
    return "\n".join(lines).encode("ascii")


def ascii_corners_per_line(data: bytes) -> np.ndarray:
    """(T,3,3) float32 corners of ASCII STL bytes, one stripped line at a time.

    Lines come from ``str.splitlines``; a line that starts with ``vertex``
    must split into exactly four tokens, and the last three go through
    Python's ``float``.  There must be three vertices per ``facet normal``
    line.  Python's ``float`` also accepts ``_`` between digits, which
    numpy's text parser does not.
    """
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
        raise StlError(f"vertex count mismatch: {facets} facets but {len(coords) // 3} vertices")
    with np.errstate(over="ignore"):
        return np.array(coords, dtype=np.float32).reshape(-1, 3, 3)
