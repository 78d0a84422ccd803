"""Triangulated quotient-square grids of the torus, Klein bottle and RP^2.

The square [0, W] x [0, H] is cut into W*H unit cells, each split along its
(i, j)-(i+1, j+1) diagonal.  Grid points on glued sides are merged with a
union-find:

* torus: (i, 0) ~ (i, H) and (0, j) ~ (W, j);
* klein: (i, 0) ~ (i, H) and (0, j) ~ (W, H - j);
* rp2:   (i, 0) ~ (W - i, H) and (0, j) ~ (W, H - j).

Simplices are sorted tuples of merged vertex labels, so cells that the gluing
makes share a vertex set coincide (RP^2 at 8 x 12 loses one edge and one
triangle that way: 97/287/191 cells).  The complexes are built only through
the public ``boundary_matrix`` and ``ChainComplex``.
"""

from __future__ import annotations

import random

SPACES = ("torus", "klein", "rp2")

# (rank, torsion) of H_0, H_1, H_2
EXPECTED_GROUPS = {
    "torus": ((1, ()), (2, ()), (1, ())),
    "klein": ((1, ()), (1, (2,)), (0, ())),
    "rp2": ((1, ()), (0, (2,)), (0, ())),
}


def _gluing(space: str, width: int, height: int):
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(p):
        parent.setdefault(p, p)
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[max(rp, rq)] = min(rp, rq)

    for i in range(width + 1):
        union((i, 0), (width - i, height) if space == "rp2" else (i, height))
    for j in range(height + 1):
        union((0, j), (width, j) if space == "torus" else (width, height - j))
    return find


def simplex_lists(space: str, width: int, height: int, rng: random.Random | None):
    """Vertex, edge and triangle lists of one grid complex.

    With ``rng`` None the vertices are numbered in grid order and every list
    is sorted; otherwise the vertex labels are permuted and each list is
    shuffled, which changes matrices but not the groups.
    """
    find = _gluing(space, width, height)
    roots = sorted({find((i, j)) for i in range(width + 1) for j in range(height + 1)})
    numbers = list(range(len(roots)))
    if rng is not None:
        rng.shuffle(numbers)
    label = {r: numbers[k] for k, r in enumerate(roots)}

    def lab(i, j):
        return label[find((i, j))]

    triangles = set()
    for i in range(width):
        for j in range(height):
            a, b, c, d = lab(i, j), lab(i + 1, j), lab(i + 1, j + 1), lab(i, j + 1)
            for t in ((a, b, c), (a, c, d)):
                if len(set(t)) == 3:
                    triangles.add(tuple(sorted(t)))
    edges = {(t[p], t[q]) for t in triangles for p, q in ((0, 1), (0, 2), (1, 2))}
    lists = [sorted((v,) for v in numbers), sorted(edges), sorted(triangles)]
    if rng is not None:
        for cells in lists:
            rng.shuffle(cells)
    return lists


def workload_inputs(width: int, height: int, rng: random.Random | None) -> dict:
    """Simplex lists for every space, drawn in a fixed order from ``rng``."""
    return {space: simplex_lists(space, width, height, rng) for space in SPACES}


def build_complex(topology, vertices, edges, triangles):
    """ChainComplex through the public API; its constructor checks d1 @ d2 == 0."""
    d1 = topology.boundary_matrix(edges, vertices)
    d2 = topology.boundary_matrix(triangles, edges)
    labels = tuple(tuple(repr(c) for c in cells) for cells in (vertices, edges, triangles))
    return topology.ChainComplex((d1, d2), labels)


def group_key(group) -> tuple[int, tuple[int, ...]]:
    return group.rank, tuple(group.torsion)
