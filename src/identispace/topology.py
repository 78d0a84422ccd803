"""Integer chain complexes, Smith normal form, homology and exactness checks.

Matrices are numpy object arrays holding Python ints, so all arithmetic is
arbitrary precision; Smith normal form entries can blow up well past 64 bits
even for small inputs, and a silent wrap would corrupt torsion coefficients.

Conventions: boundary matrices have one column per k-cell and one row per
(k-1)-cell; H_k = ker d_k / im d_{k+1}; ranks are counted over the rationals.

H_k is the failure of exactness at C_k in 0 -> C_dim -> ... -> C_0 -> 0, so
``verify_exact`` is the one engine: it scans each map of a sequence into
sparse columns once, checks on them, in exact integers, that consecutive
maps compose to zero, and reduces each map once.  A reduction eliminates +-1
pivots (each contributes an invariant factor 1 and leaves the Schur
complement), then runs ``smith_normal_form`` on the small non-unit remainder.
A ``ChainComplex`` runs its boundary sequence through ``verify_exact`` when
it is built; its d∘d = 0 check and H_0..H_dim read those verdicts.
``smith_normal_form`` itself still returns the full D, U and V.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "intmat",
    "zeros_mat",
    "identity_mat",
    "boundary_matrix",
    "ChainComplex",
    "SpaceName",
    "builtin_complex",
    "SNFResult",
    "smith_normal_form",
    "AbelianGroup",
    "homology",
    "ExactnessVerdict",
    "verify_exact",
    "format_group",
]


def intmat(rows: Sequence[Sequence[int]], ncols: int | None = None) -> np.ndarray:
    """Build an object-dtype integer matrix; ncols disambiguates empty inputs."""
    if len(rows) == 0:
        return np.zeros((0, 0 if ncols is None else ncols), dtype=object)
    out = np.zeros((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != out.shape[1]:
            raise ValueError("ragged rows")
        for j, x in enumerate(row):
            out[i, j] = _exact_int(x)
    return out


def _exact_int(x) -> int:
    """``int(x)``, for an entry that is exactly an integer; no truncation."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValueError(f"matrix entry {x!r} is not an integer")
    return n


def zeros_mat(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=object)


def identity_mat(n: int) -> np.ndarray:
    out = zeros_mat(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def _sparse_columns(a: np.ndarray) -> list[dict[int, int]]:
    """The nonzeros of each column of ``a`` as {row: Python int}."""
    cols: list[dict[int, int]] = [{} for _ in range(a.shape[1])]
    rows, idx = np.nonzero(a != 0)
    for i, j, x in zip(rows.tolist(), idx.tolist(), a[rows, idx].tolist()):
        cols[j][i] = _exact_int(x)
    return cols


def _composes_to_zero(a_cols: list[dict[int, int]], b_cols: list[dict[int, int]]) -> bool:
    """Exactly whether a @ b == 0, given both as sparse columns; one column of
    b at a time."""
    if not any(a_cols):
        return True
    for col in b_cols:
        acc: dict[int, int] = {}
        for r, x in col.items():
            for i, y in a_cols[r].items():
                acc[i] = acc.get(i, 0) + y * x
        if any(acc.values()):
            return False
    return True


def boundary_matrix(
    simplices: Sequence[tuple], faces: Sequence[tuple]
) -> np.ndarray:
    """Signed incidence matrix of ordered simplices over an ordered face list.

    The j-th face of (s_0, ..., s_k) drops s_j and enters with sign (-1)^j.
    Faces are matched by exact tuple equality, so identified cells (the same
    tuple appearing as several faces of one simplex) accumulate coefficients,
    which is what makes quotient-square complexes work.
    """
    index: dict[tuple, int] = {}
    for r, f in enumerate(faces):
        f = tuple(f)
        if f in index:
            raise ValueError(f"duplicate face generator {f!r}")
        index[f] = r
    mat = zeros_mat(len(faces), len(simplices))
    for c, s in enumerate(simplices):
        s = tuple(s)
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            if face not in index:
                raise ValueError(f"face {face!r} of simplex {s!r} not in face list")
            mat[index[face], c] += (-1) ** j
    return mat


@dataclass(frozen=True)
class ChainComplex:
    """Boundary matrices d_1..d_dim plus generator labels for degrees 0..dim."""

    boundaries: tuple[np.ndarray, ...]
    labels: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.boundaries) + 1:
            raise ValueError("need one label tuple per degree 0..dim")
        for k, mat in enumerate(self.boundaries, start=1):
            expected = (len(self.labels[k - 1]), len(self.labels[k]))
            if mat.shape != expected:
                raise ValueError(
                    f"boundary {k} has shape {mat.shape}, expected {expected}"
                )
        verdicts = self._verdicts  # read in every dimension: a bad entry fails here
        for k in range(2, len(self.labels)):
            if not verdicts[self.dimension + 1 - k].composition_zero:
                raise ValueError(f"d_{k-1} @ d_{k} != 0")

    @property
    def dimension(self) -> int:
        return len(self.labels) - 1

    def rank_of_chain_group(self, k: int) -> int:
        return len(self.labels[k])

    def boundary(self, k: int) -> np.ndarray:
        """d_k for 0 <= k <= dim+1; degree 0 and dim+1 are zero maps."""
        if k == 0:
            return zeros_mat(0, len(self.labels[0]))
        if k == self.dimension + 1:
            return zeros_mat(len(self.labels[self.dimension]), 0)
        if not 1 <= k <= self.dimension:
            raise ValueError(f"no boundary map in degree {k}")
        return self.boundaries[k - 1]

    @cached_property
    def _verdicts(self) -> list[ExactnessVerdict]:
        """Exactness of 0 -> C_dim -> ... -> C_0 -> 0; index dim - k is at C_k."""
        return verify_exact([self.boundary(k) for k in range(self.dimension + 1, -1, -1)])


class SpaceName(Enum):
    CIRCLE = "circle"
    SPHERE = "sphere"
    TORUS = "torus"
    KLEIN_BOTTLE = "klein"
    PROJECTIVE_PLANE = "rp2"


def _octahedron_complex() -> ChainComplex:
    # vertices 0..5 = +x, -x, +y, -y, +z, -z; faces are the eight octants
    vertices = [(i,) for i in range(6)]
    triangles = [
        (0, 2, 4), (1, 2, 4), (1, 3, 4), (0, 3, 4),
        (0, 2, 5), (1, 2, 5), (1, 3, 5), (0, 3, 5),
    ]
    antipodal = {(0, 1), (2, 3), (4, 5)}
    edges = [
        (i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) not in antipodal
    ]
    d1 = boundary_matrix(edges, vertices)
    d2 = boundary_matrix(triangles, edges)
    return ChainComplex(
        (d1, d2),
        (
            tuple(f"v{v[0]}" for v in vertices),
            tuple(f"e{e[0]}{e[1]}" for e in edges),
            tuple(f"t{t[0]}{t[1]}{t[2]}" for t in triangles),
        ),
    )


def builtin_complex(name: SpaceName) -> ChainComplex:
    """Cell structures for the five built-in spaces.

    The torus, Klein bottle and projective plane are the standard
    two-triangle quotient-square structures (one diagonal, identified
    sides); the sphere is an octahedron; the circle is one vertex with one
    loop edge.
    """
    if name is SpaceName.CIRCLE:
        return ChainComplex((intmat([[0]]),), (("v",), ("e",)))
    if name is SpaceName.SPHERE:
        return _octahedron_complex()
    if name is SpaceName.TORUS:
        # one vertex, loops a, b, diagonal c; both triangles bound a + b - c
        d1 = zeros_mat(1, 3)
        d2 = intmat([[1, 1], [1, 1], [-1, -1]])
        return ChainComplex((d1, d2), (("v",), ("a", "b", "c"), ("U", "L")))
    if name is SpaceName.KLEIN_BOTTLE:
        # same but one side pair glued with a flip: a + b - c and a - b + c
        d1 = zeros_mat(1, 3)
        d2 = intmat([[1, 1], [1, -1], [-1, 1]])
        return ChainComplex((d1, d2), (("v",), ("a", "b", "c"), ("U", "L")))
    if name is SpaceName.PROJECTIVE_PLANE:
        # two vertices; a, b run v -> w, c loops at v
        d1 = intmat([[-1, -1, 0], [1, 1, 0]])
        d2 = intmat([[1, -1], [-1, 1], [1, 1]])
        return ChainComplex((d1, d2), (("v", "w"), ("a", "b", "c"), ("U", "L")))
    raise ValueError(f"unknown space {name!r}")


@dataclass(frozen=True)
class SNFResult:
    """U @ A @ V == D with unimodular U, V and a divisibility-chained diagonal."""

    D: np.ndarray
    U: np.ndarray
    V: np.ndarray

    @property
    def diagonal(self) -> list[int]:
        m, n = self.D.shape
        return [int(self.D[i, i]) for i in range(min(m, n))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(a: np.ndarray) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Deterministic pivoting: the entry of smallest nonzero absolute value in
    the working submatrix, ties broken in row-major order.  Runs entirely on
    Python ints.
    """
    m, n = a.shape
    d = [[_exact_int(a[i, j]) for j in range(n)] for i in range(m)]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i1, i2):
        if i1 != i2:
            d[i1], d[i2] = d[i2], d[i1]
            u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            for row in d:
                row[j1], row[j2] = row[j2], row[j1]
            for row in v:
                row[j1], row[j2] = row[j2], row[j1]

    def add_row(dst, src, factor):
        # row[dst] += factor * row[src]
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, factor):
        for row in d:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def find_pivot(t):
        # smallest nonzero |entry|, row-major tie break; nothing beats the
        # first unit, so the scan stops there
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
                    if best[0] == 1:
                        return best
        return best

    t = 0
    while t < min(m, n):
        best = find_pivot(t)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])

        while True:
            restart = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t] != 0:
                        swap_rows(t, i)  # remainder is a smaller pivot
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            break

        # pivot must divide the rest of the submatrix for the chain to hold;
        # a unit divides everything
        pivot = d[t][t]
        if abs(pivot) == 1:
            t += 1
            continue
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)  # pulls the bad entry into row t
            continue
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]

    return SNFResult(D=intmat(d, n), U=intmat(u, m), V=intmat(v, n))


def _invariant_factors(columns: list[dict[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors above 1 of the matrix a with these sparse
    columns, which are left unchanged.

    Unit pivots are eliminated one at a time on per-column dicts: a pivot
    p = +-1 at (i, j) turns every other column k with an entry in row i into
    k - a[i, k] * p * (column j), then row i and column j are dropped.  Columns
    go in ascending fill order and, within a column, the unit whose row has
    the fewest entries is taken, which keeps fill low on boundary matrices.
    The non-unit remainder goes to the dense ``smith_normal_form``.
    """
    cols = [dict(col) for col in columns]
    rows: defaultdict[int, set[int]] = defaultdict(set)
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    units = 0
    progress = True
    while progress:  # fill can create units in columns already passed over
        progress = False
        for j in sorted((j for j, col in enumerate(cols) if col), key=lambda j: len(cols[j])):
            col = cols[j]
            pivots = [i for i, x in col.items() if x == 1 or x == -1]
            if not pivots:
                continue
            i = min(pivots, key=lambda r: len(rows[r]))
            for r in col:
                rows[r].discard(j)
            p = col.pop(i)
            for k in rows[i]:
                ck = cols[k]
                f = ck.pop(i) * p
                for r, x in col.items():
                    y = ck.get(r, 0) - f * x
                    if y:
                        ck[r] = y
                        rows[r].add(k)
                    elif r in ck:
                        del ck[r]
                        rows[r].discard(k)
            cols[j] = {}
            units += 1
            progress = True

    rest = [col for col in cols if col]
    index = {i: t for t, i in enumerate(sorted({i for col in rest for i in col}))}
    remainder = zeros_mat(len(index), len(rest))
    for t, col in enumerate(rest):
        for i, x in col.items():
            remainder[index[i], t] = x
    diag = smith_normal_form(remainder).diagonal
    return units + sum(1 for d in diag if d), tuple(d for d in diag if d > 1)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for x, y in zip(self.torsion, self.torsion[1:]):
            if y % x != 0:
                raise ValueError("torsion must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        return format_group(self)


def format_group(g: AbelianGroup) -> str:
    parts = []
    if g.rank == 1:
        parts.append("Z")
    elif g.rank > 1:
        parts.append(f"Z^{g.rank}")
    parts.extend(f"Z/{d}" for d in g.torsion)
    return " + ".join(parts) if parts else "0"


def homology(c: ChainComplex, k: int) -> AbelianGroup:
    """H_k = ker d_k / im d_{k+1}, with torsion from the invariant factors of d_{k+1}."""
    if not 0 <= k <= c.dimension:
        raise ValueError(f"degree {k} outside 0..{c.dimension}")
    return c._verdicts[c.dimension - k].quotient


@dataclass(frozen=True)
class ExactnessVerdict:
    """Verdict at one interior module of a sequence ... -> X -f_in-> Y -f_out-> ..."""

    position: int
    composition_zero: bool
    quotient: AbelianGroup | None  # ker f_out / im f_in, when defined
    exact: bool


def verify_exact(fs: Sequence[np.ndarray]) -> list[ExactnessVerdict]:
    """Check exactness at each interior position of a composable sequence.

    ``fs`` lists the maps left to right: X_0 -fs[0]-> X_1 -fs[1]-> ...
    Position p sits between fs[p-1] (incoming) and fs[p] (outgoing).  Beyond
    the rational rank condition, the quotient ker/im comes from the invariant
    factors of the incoming map, so purely torsion-level failures are caught
    too.
    """
    mats = [np.asarray(f, dtype=object) for f in fs]
    for prev, nxt in zip(mats, mats[1:]):
        if nxt.shape[1] != prev.shape[0]:
            raise ValueError(
                f"shapes do not compose: {prev.shape} then {nxt.shape}"
            )
    cols = [_sparse_columns(m) for m in mats]
    factors = [_invariant_factors(c) for c in cols]
    verdicts = []
    for p in range(1, len(mats)):
        if not _composes_to_zero(cols[p], cols[p - 1]):
            verdicts.append(ExactnessVerdict(p, False, None, False))
            continue
        rank_in, torsion = factors[p - 1]
        rank_out, _ = factors[p]
        quotient = AbelianGroup(mats[p].shape[1] - rank_out - rank_in, torsion)
        verdicts.append(ExactnessVerdict(p, True, quotient, quotient.is_trivial))
    return verdicts
