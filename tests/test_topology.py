import ast
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from identispace import topology
from identispace.topology import (
    AbelianGroup,
    ChainComplex,
    SpaceName,
    boundary_matrix,
    builtin_complex,
    format_group,
    homology,
    identity_mat,
    intmat,
    smith_normal_form,
    verify_exact,
    zeros_mat,
)

from oracles import (
    all_minor_gcds,
    det_bareiss,
    mod_p_rank,
    quotient_grid,
    random_delta_complex,
    rational_rank,
)

EXPECTED_HOMOLOGY = {
    SpaceName.CIRCLE: [AbelianGroup(1), AbelianGroup(1)],
    SpaceName.SPHERE: [AbelianGroup(1), AbelianGroup(0), AbelianGroup(1)],
    SpaceName.TORUS: [AbelianGroup(1), AbelianGroup(2), AbelianGroup(1)],
    SpaceName.KLEIN_BOTTLE: [AbelianGroup(1), AbelianGroup(1, (2,)), AbelianGroup(0)],
    SpaceName.PROJECTIVE_PLANE: [AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0)],
}


def mat_is_zero(a):
    return a.size == 0 or not np.any(a != 0)


def complex_from_levels(levels) -> ChainComplex:
    boundaries = tuple(
        boundary_matrix(levels[k], levels[k - 1]) for k in range(1, len(levels))
    )
    labels = tuple(tuple(str(c) for c in level) for level in levels)
    return ChainComplex(boundaries, labels)


def as_columns(a):
    """A dense matrix as the pair (row count, {row: int} columns), read entry by entry."""
    m, n = a.shape
    return m, [{i: int(a[i, j]) for i in range(m) if a[i, j]} for j in range(n)]


def columns_complex(c: ChainComplex) -> ChainComplex:
    """``c`` with every boundary map given as columns."""
    return ChainComplex(tuple(as_columns(c.boundary(k)) for k in range(1, c.dimension + 1)), c.labels)


# --- boundary_matrix ---------------------------------------------------------


def test_edge_boundary_column():
    mat = boundary_matrix([("s", "t")], [("s",), ("t",)])
    assert mat.tolist() == [[-1], [1]]


def test_path_boundary_telescopes():
    mat = boundary_matrix([("s", "t"), ("t", "u")], [("s",), ("t",), ("u",)])
    chain = mat @ intmat([[1], [1]])  # [s,t] + [t,u]
    assert chain.tolist() == [[-1], [0], [1]]  # u - s


def test_triangle_boundary_formula():
    mat = boundary_matrix([(0, 1, 2)], [(1, 2), (0, 2), (0, 1)])
    assert mat.tolist() == [[1], [-1], [1]]


def test_loop_edge_has_zero_boundary():
    mat = boundary_matrix([("v", "v")], [("v",)])
    assert mat.tolist() == [[0]]


def test_missing_face_rejected():
    with pytest.raises(ValueError):
        boundary_matrix([(0, 1, 2)], [(1, 2), (0, 2)])


def test_duplicate_generator_rejected():
    with pytest.raises(ValueError):
        boundary_matrix([(0, 1)], [(0,), (1,), (0,)])


def test_boundary_matrix_is_int64():
    mat = boundary_matrix([(0, 1, 2)], [(1, 2), (0, 2), (0, 1)])
    assert mat.dtype == np.int64


BOUNDARY_CASES = {
    "edge": ([("s", "t")], [("s",), ("t",)]),
    "loop": ([("v", "v")], [("v",)]),
    "triangle": ([(0, 1, 2)], [(1, 2), (0, 2), (0, 1)]),
    "none": ([], [(0,), (1,)]),
    # a quotient-square cell whose two faces coincide: their signs add to 0 and 2
    "folded": ([(0, 1, 0), (0, 0, 1)], [(1, 0), (0, 0), (0, 1)]),
}


@pytest.mark.parametrize("simplices,faces", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES)
def test_boundary_columns_agree_with_boundary_matrix(simplices, faces):
    cols = topology.boundary_columns(simplices, faces)
    assert (len(faces), cols) == as_columns(boundary_matrix(simplices, faces))
    assert all(type(x) is int for col in cols for x in col.values())


def test_boundary_columns_of_a_loop_edge_is_a_zero_column():
    assert topology.boundary_columns([("v", "v")], [("v",)]) == [{}]


@pytest.mark.parametrize("call", [boundary_matrix, topology.boundary_columns])
def test_boundary_columns_reject_what_boundary_matrix_rejects(call):
    with pytest.raises(ValueError, match=r"^face \(0, 2\) of simplex \(0, 1, 2\) not in face list$"):
        call([(0, 1, 2)], [(1, 2), (0, 1)])
    with pytest.raises(ValueError, match=r"^duplicate face generator \(0,\)$"):
        call([(0, 1)], [(0,), (1,), (0,)])


# --- builtin complexes -------------------------------------------------------


@pytest.mark.parametrize("name", list(SpaceName))
def test_builtin_boundary_squares_to_zero(name):
    c = builtin_complex(name)
    for k in range(2, c.dimension + 1):
        assert mat_is_zero(c.boundary(k - 1) @ c.boundary(k))


def test_circle_structure():
    c = builtin_complex(SpaceName.CIRCLE)
    assert c.boundary(1).tolist() == [[0]]
    assert c.dimension == 1


def test_torus_triangle_boundaries_equal():
    c = builtin_complex(SpaceName.TORUS)
    d2 = c.boundary(2)
    assert d2[:, 0].tolist() == d2[:, 1].tolist()
    # both columns are cycles: the boundary word cancels to zero
    assert mat_is_zero(c.boundary(1) @ d2)


def test_sphere_cell_counts_and_ranks():
    c = builtin_complex(SpaceName.SPHERE)
    assert [len(lbl) for lbl in c.labels] == [6, 12, 8]
    assert rational_rank(c.boundary(1)) == 5
    assert rational_rank(c.boundary(2)) == 7


@pytest.mark.parametrize("name,expected", EXPECTED_HOMOLOGY.items())
def test_homology_table(name, expected):
    c = builtin_complex(name)
    got = [homology(c, k) for k in range(c.dimension + 1)]
    assert got == expected


@pytest.mark.parametrize(
    "name",
    [SpaceName.TORUS, SpaceName.KLEIN_BOTTLE, SpaceName.PROJECTIVE_PLANE],
)
def test_homology_against_rank_oracles(name):
    """Betti numbers from rational ranks; torsion from mod-p rank jumps."""
    c = builtin_complex(name)
    groups = [homology(c, k) for k in range(c.dimension + 1)]
    for k, g in enumerate(groups):
        nullity = c.rank_of_chain_group(k) - rational_rank(c.boundary(k))
        betti = nullity - rational_rank(c.boundary(k + 1))
        assert g.rank == betti
        for p in (2, 3):
            nullity_p = c.rank_of_chain_group(k) - mod_p_rank(c.boundary(k), p)
            dim_p = nullity_p - mod_p_rank(c.boundary(k + 1), p)
            t_here = sum(1 for d in g.torsion if d % p == 0)
            t_below = sum(1 for d in groups[k - 1].torsion if d % p == 0) if k else 0
            assert dim_p == betti + t_here + t_below


@pytest.mark.parametrize("name", list(SpaceName))
def test_euler_characteristic_consistency(name):
    c = builtin_complex(name)
    chain_sum = sum(
        (-1) ** k * c.rank_of_chain_group(k) for k in range(c.dimension + 1)
    )
    betti_sum = sum(
        (-1) ** k * homology(c, k).rank for k in range(c.dimension + 1)
    )
    assert chain_sum == betti_sum


@pytest.mark.parametrize("name", list(SpaceName))
def test_homology_invariant_under_relabeling(name):
    rng = random.Random(hash(name.value) & 0xFFFF)
    c = builtin_complex(name)
    perms = [list(range(len(lbl))) for lbl in c.labels]
    for p in perms:
        rng.shuffle(p)
    boundaries = []
    for k in range(1, c.dimension + 1):
        mat = c.boundary(k)
        permuted = mat[np.ix_(perms[k - 1], perms[k])]
        boundaries.append(permuted)
    labels = tuple(
        tuple(c.labels[k][i] for i in perms[k]) for k in range(c.dimension + 1)
    )
    shuffled = ChainComplex(tuple(boundaries), labels)
    for k in range(c.dimension + 1):
        assert homology(shuffled, k) == homology(c, k)


@pytest.mark.parametrize("shuffled", [False, True], ids=["plain", "shuffled"])
@pytest.mark.parametrize("space", ["torus", "klein", "rp2"])
def test_homology_of_18x36_quotient_grid(space, shuffled):
    # the planner's default 18 x 36 parameter grid, as a quotient square
    expected = {
        "torus": [AbelianGroup(1), AbelianGroup(2), AbelianGroup(1)],
        "klein": [AbelianGroup(1), AbelianGroup(1, (2,)), AbelianGroup(0)],
        "rp2": [AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0)],
    }[space]
    c = complex_from_levels(quotient_grid(space, 18, 36, random.Random(space) if shuffled else None))
    assert [homology(c, k) for k in range(3)] == expected


def test_homology_hands_a_unit_free_remainder_to_snf(monkeypatch):
    # column 0 has no unit until the pivot at (0, 1) turns its 3 into 3 - 2 = 1
    seen = []

    def recording_snf(a):
        seen.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(topology, "smith_normal_form", recording_snf)
    c = ChainComplex((intmat([[2, 1], [3, 1], [0, 5]]),), (("u", "v", "w"), ("a", "b")))
    assert [homology(c, k) for k in range(2)] == [AbelianGroup(1), AbelianGroup(0)]
    assert seen and all(abs(x) != 1 for a in seen for x in a.flat)


def recorded_calls(monkeypatch, name):
    """Wrap ``topology.<name>`` so that each call appends its argument to the
    returned list."""
    calls = []
    original = getattr(topology, name)

    def recording(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(topology, name, recording)
    return calls


def columns_key(cols):
    return tuple(tuple(sorted(col.items())) for col in cols)


def dense_key(a):
    return tuple(
        tuple((i, int(x)) for i, x in enumerate(a[:, j]) if x) for j in range(a.shape[1])
    )


@pytest.mark.parametrize("name", list(SpaceName))
def test_homology_reduces_each_boundary_map_once(monkeypatch, name):
    # building the complex and H_0..H_dim, asked twice, scan each dense map
    # once and columns never, and reduce d_0..d_{dim+1} once each
    scanned = recorded_calls(monkeypatch, "_sparse_columns")
    reduced = recorded_calls(monkeypatch, "_invariant_factors")
    for given in (builtin_complex(name), columns_complex(builtin_complex(name))):
        scanned.clear()
        reduced.clear()
        c = ChainComplex(given.boundaries, given.labels)
        groups = [homology(c, k) for k in range(c.dimension + 1)]
        assert [homology(c, k) for k in range(c.dimension + 1)] == groups
        dense = [f for f in given.boundaries if isinstance(f, np.ndarray)]
        assert [dense_key(a) for a in scanned] == [dense_key(a) for a in dense]
        maps = sorted(dense_key(c.boundary(k)) for k in range(c.dimension + 2))
        assert sorted(columns_key(cols) for cols in reduced) == maps
    assert not dense  # the second complex was given columns only


def test_only_sparse_columns_scans_a_dense_matrix():
    # a second search for the nonzeros of a dense matrix would scan a map twice,
    # or skip _exact_int on a float or object dtype
    tree = ast.parse(pathlib.Path(topology.__file__).read_text(encoding="utf-8"))
    readers = {"nonzero", "flatnonzero", "argwhere", "count_nonzero", "flat", "nditer"}
    scanning = {function.name for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef)
                and any(isinstance(node, ast.Attribute) and node.attr in readers
                        for node in ast.walk(function))}
    assert scanning == {"_sparse_columns"}


def test_homology_degree_out_of_range():
    c = builtin_complex(SpaceName.CIRCLE)
    with pytest.raises(ValueError):
        homology(c, 2)
    with pytest.raises(ValueError):
        homology(c, -1)


def test_chain_complex_rejects_nonzero_square():
    d1 = intmat([[-1, 0], [1, 0]])
    d2 = intmat([[1], [1]])
    with pytest.raises(ValueError):
        ChainComplex((d1, d2), (("v", "w"), ("a", "b"), ("T",)))


def test_chain_complex_square_checked_past_64_bits():
    # the one product entry is 2**65, which wraps to 0 in 64-bit arithmetic
    labels = (("v",), ("a", "b"), ("T",))
    with pytest.raises(ValueError):
        ChainComplex((intmat([[2**33, -1]]), intmat([[2**32], [0]])), labels)
    # here the two terms cancel exactly
    ChainComplex((intmat([[2**33, -1]]), intmat([[2**32], [2**65]])), labels)


@pytest.mark.parametrize(
    "maps,message",
    [
        (([[0]], [[1]], [[1]]), "d_2 @ d_3 != 0"),
        (([[1]], [[1]], [[0]]), "d_1 @ d_2 != 0"),
        (([[1]], [[1]], [[1]]), "d_1 @ d_2 != 0"),
    ],
)
def test_chain_complex_names_the_lowest_nonzero_square(maps, message):
    labels = (("v",), ("e",), ("f",), ("t",))
    with pytest.raises(ValueError, match=f"^{message}$"):
        ChainComplex(tuple(intmat(m) for m in maps), labels)


# --- complexes given as columns ---------------------------------------------


def complex_pairs():
    """The same complexes built from dense matrices and from columns."""
    levels = [quotient_grid(space, 4, 6) for space in ("torus", "klein", "rp2")]
    rng = random.Random(20261022)
    levels += [random_delta_complex(rng) for _ in range(20)]
    for level in levels:
        labels = tuple(tuple(str(c) for c in cells) for cells in level)
        columns = tuple((len(level[k - 1]), topology.boundary_columns(level[k], level[k - 1]))
                        for k in range(1, len(level)))
        yield complex_from_levels(level), ChainComplex(columns, labels)
    for name in SpaceName:
        yield builtin_complex(name), columns_complex(builtin_complex(name))


def test_columns_and_dense_matrices_give_the_same_complex():
    for dense, sparse in complex_pairs():
        assert sparse._verdicts == dense._verdicts
        for k in range(dense.dimension + 2):
            a, b = dense.boundary(k), sparse.boundary(k)
            assert a.dtype == b.dtype == object
            assert a.shape == b.shape and a.tolist() == b.tolist()


def test_boundary_is_a_new_matrix_each_time():
    c = builtin_complex(SpaceName.PROJECTIVE_PLANE)
    c.boundary(1)[0, 0] = 7
    assert c.boundary(1).tolist() == [[-1, -1, 0], [1, 1, 0]]


def test_zero_entries_of_given_columns_are_dropped():
    (verdict,) = verify_exact([(1, [{0: 2}, {0: 0}]), (0, [{}])])
    assert verdict.quotient == AbelianGroup(0, (2,))
    c = ChainComplex(((2, [{0: -1, 1: 1}, {0: 0}]),), (("v", "w"), ("a", "b")))
    assert [homology(c, k) for k in range(2)] == [AbelianGroup(1), AbelianGroup(1)]


LABELS_2_1 = (("v", "w"), ("e",))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ChainComplex(((2, [{2: 1}]),), LABELS_2_1), r"row 2 of a column is outside 0\.\.1"),
        (lambda: ChainComplex(((2, [{-1: 1}]),), LABELS_2_1), r"row -1 of a column is outside 0\.\.1"),
        (lambda: ChainComplex(((2, [{0.0: 1}]),), LABELS_2_1), r"row 0\.0 of a column is outside 0\.\.1"),
        (lambda: verify_exact([(1, [{1: 1}])]), r"row 1 of a column is outside 0\.\.0"),
        (lambda: ChainComplex(((2, [{0: 0.5}]),), LABELS_2_1), r"matrix entry 0\.5 is not an integer"),
        (lambda: verify_exact([(1, [{0: 0.5}])]), r"matrix entry 0\.5 is not an integer"),
        (lambda: ChainComplex(((3, [{0: 1}]),), LABELS_2_1),
         r"boundary 1 has shape \(3, 1\), expected \(2, 1\)"),
        (lambda: ChainComplex(((2, [{0: 1}, {1: 1}]),), LABELS_2_1),
         r"boundary 1 has shape \(2, 2\), expected \(2, 1\)"),
        (lambda: verify_exact([(3, [{0: 1}]), (1, [{0: 1}, {0: 1}])]),
         r"shapes do not compose: \(3, 1\) then \(1, 2\)"),
    ],
    ids=["complex-row-past-end", "complex-row-negative", "complex-row-float", "verify-row-past-end",
         "complex-half", "verify-half", "complex-row-count", "complex-column-count",
         "verify-row-count"],
)
def test_bad_columns_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# --- integer entries ---------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_exact([np.array([[0.5]]), np.array([[0]])]),
        lambda: verify_exact([np.array([[np.nan]]), np.array([[0]])]),
        lambda: homology(ChainComplex((np.array([[0.5]], dtype=object),), (("v",), ("e",))), 0),
        lambda: smith_normal_form(np.array([[1.5, 0], [0, 2.9]])),
        lambda: smith_normal_form(np.array([[np.inf]])),
        lambda: intmat([[1.7, 2.2]]),
        lambda: intmat([["3"]]),
        lambda: intmat([[float("inf")]]),
        lambda: intmat([[float("nan")]]),
        lambda: ChainComplex((np.array([[0.5]], dtype=object),), (("v",), ("e",))),
        lambda: ChainComplex((np.array([[0.5]]),), (("v",), ("e",))),
    ],
    ids=[
        "verify_exact-half", "verify_exact-nan", "homology-half", "snf-fractions",
        "snf-inf", "intmat-fractions", "intmat-string", "intmat-inf", "intmat-nan",
        "complex-half", "complex-float-half",
    ],
)
def test_non_integer_entries_rejected(call):
    # int() would truncate 0.5 to 0, 1.7 to 1 and read "3" as 3
    with pytest.raises(ValueError, match=r"^matrix entry .* is not an integer$"):
        call()


def test_integral_entries_accepted():
    assert smith_normal_form(np.eye(2)).diagonal == [1, 1]
    assert intmat([[2**100, 3.0]]).tolist() == [[2**100, 3]]
    verdicts = verify_exact([np.array([[2.0]]), np.array([[0.0]])])
    assert [v.quotient for v in verdicts] == [AbelianGroup(0, (2,))]
    c = ChainComplex((np.array([[True, False]]),), (("v",), ("a", "b")))
    assert [homology(c, k) for k in range(2)] == [AbelianGroup(0), AbelianGroup(1)]
    assert c.boundary(1).tolist() == [[1, 0]]


# --- random identification complexes ----------------------------------------


def test_random_delta_complexes_square_to_zero():
    rng = random.Random(20260810)
    for _ in range(100):
        levels = random_delta_complex(rng)
        c = complex_from_levels(levels)  # constructor asserts d.d == 0
        for k in range(2, c.dimension + 1):
            prod = c.boundary(k - 1) @ c.boundary(k)
            assert mat_is_zero(prod)


# --- Smith normal form -------------------------------------------------------


def snf_checks(a):
    res = smith_normal_form(a)
    m, n = a.shape
    assert res.D.shape == (m, n)
    assert np.array_equal(res.U @ a @ res.V, res.D)
    assert abs(det_bareiss(res.U)) == 1
    assert abs(det_bareiss(res.V)) == 1
    diag = res.diagonal
    for i in range(m):
        for j in range(n):
            if i != j:
                assert res.D[i, j] == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d != 0]
    assert diag[: len(nonzero)] == nonzero  # zeros trail
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return res


def test_snf_identity():
    res = snf_checks(identity_mat(4))
    assert res.diagonal == [1, 1, 1, 1]


def test_snf_zero_matrix():
    res = snf_checks(zeros_mat(2, 3))
    assert res.diagonal == [0, 0]


def test_snf_diag_2_3():
    a = intmat([[2, 0], [0, 3]])
    gcds = all_minor_gcds(a)
    assert gcds == [1, 6]  # oracle: gcd of 1x1 minors, gcd of 2x2 minors
    res = snf_checks(a)
    assert res.diagonal == [1, 6]
    prod = 1
    for k, d in enumerate(res.diagonal, start=1):
        prod *= d
        assert prod == gcds[k - 1]


def test_snf_deterministic():
    a = intmat([[6, 4, 2], [4, 4, 8], [2, 8, 6]])
    r1 = smith_normal_form(a)
    r2 = smith_normal_form(a)
    assert np.array_equal(r1.U, r2.U)
    assert np.array_equal(r1.V, r2.V)
    assert np.array_equal(r1.D, r2.D)


def test_snf_pinned_on_mixed_matrix():
    # units and larger entries mixed; D, U and V are pinned, so any change to
    # the pivot order or the reduction steps shows up here
    res = snf_checks(intmat([[4, 6, -2, 0, 3], [2, -1, 8, 5, 0], [0, 9, 6, -3, 12],
                             [6, 3, 1, 4, -2]]))
    assert res.D.tolist() == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                              [0, 0, 0, 6, 0]]
    assert res.U.tolist() == [[0, -1, 0, 0], [-1, -12, 0, -2], [-82, -24, 31, 63],
                              [-3108, -909, 1175, 2388]]
    assert res.V.tolist() == [[0, 0, -19, -13, 104], [1, 0, -33, 18, -83],
                              [0, 0, 0, -2, 13], [0, 0, 1, 12, -79],
                              [0, 1, -692, 104, 36]]


def test_snf_large_entries_exact():
    rng = random.Random(99)
    a = intmat([[rng.randrange(-10**6, 10**6) for _ in range(6)] for _ in range(6)])
    snf_checks(a)


@settings(max_examples=150)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_snf_properties_random(m, n, seed):
    rng = random.Random(seed)
    a = intmat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    res = snf_checks(a)
    gcds = all_minor_gcds(a)
    prod = 1
    for k, d in enumerate(res.diagonal, start=1):
        prod *= d
        assert prod == gcds[k - 1]


def test_snf_empty_shapes():
    assert smith_normal_form(zeros_mat(0, 3)).D.shape == (0, 3)
    assert smith_normal_form(zeros_mat(3, 0)).D.shape == (3, 0)


# --- homology and exactness against the dense SNF --------------------------

_ENTRY = st.one_of(
    st.sampled_from([1, -1, 2, -2, 3, -4, 6]),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -(2**64)),
)


@st.composite
def sparse_int_matrices(draw, m=None, n=None, max_side=6):
    """Mostly-zero integer matrices, empty shapes and entries past 2**64 included."""
    m = draw(st.integers(0, max_side)) if m is None else m
    n = draw(st.integers(0, max_side)) if n is None else n
    a = zeros_mat(m, n)
    if m and n:
        cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), _ENTRY)
        for i, j, x in draw(st.lists(cells, max_size=m * n)):
            a[i, j] = x
    return a


def snf_oracle(a) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors above 1 from the full dense SNF."""
    diag = smith_normal_form(a).diagonal
    return sum(1 for d in diag if d), tuple(d for d in diag if d > 1)


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices(), sparse_int_matrices(), st.randoms(use_true_random=False))
def test_homology_matches_dense_snf_oracle(a, b, rnd):
    # d2 = [a; 0] and d1 = [0, b] with the middle basis shuffled, so d1 @ d2 = 0,
    # H_0 = coker b, H_1 = coker a + ker b and H_2 = ker a
    (m1, n), (p, m2) = a.shape, b.shape
    perm = list(range(m1 + m2))
    rnd.shuffle(perm)
    d2 = np.vstack([a, zeros_mat(m2, n)])[perm]
    d1 = np.hstack([zeros_mat(p, m1), b])[:, perm]
    c = ChainComplex((d1, d2), tuple(tuple(map(str, range(k))) for k in (p, m1 + m2, n)))
    rank_a, torsion_a = snf_oracle(a)
    rank_b, torsion_b = snf_oracle(b)
    expected = [
        AbelianGroup(p - rank_b, torsion_b),
        AbelianGroup(m1 + m2 - rank_b - rank_a, torsion_a),
        AbelianGroup(n - rank_a),
    ]
    assert [homology(c, k) for k in range(3)] == expected
    (verdict,) = verify_exact([d2, d1])
    assert verdict.composition_zero
    assert verdict.quotient == expected[1]
    assert verdict.exact == expected[1].is_trivial


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_exact_matches_dense_snf_oracle(data):
    f_in = data.draw(sparse_int_matrices())
    f_out = data.draw(sparse_int_matrices(n=f_in.shape[0]))
    (verdict,) = verify_exact([f_in, f_out])
    assert verdict.composition_zero == mat_is_zero(f_out @ f_in)
    if not verdict.composition_zero:
        assert verdict.quotient is None and not verdict.exact
        return
    rank_in, torsion_in = snf_oracle(f_in)
    rank_out, _ = snf_oracle(f_out)
    quotient = AbelianGroup(f_in.shape[0] - rank_out - rank_in, torsion_in)
    assert verdict.quotient == quotient
    assert verdict.exact == quotient.is_trivial


def signed_graph(n, lines):
    """The incidence matrix on n ends with these lines as its columns."""
    a = zeros_mat(n, len(lines))
    for j, ends in enumerate(lines):
        for i, x in ends:
            a[i, j] = x
    return a


@st.composite
def signed_graphs(draw):
    """Dense incidence matrices of signed graphs on up to 7 ends: each line has
    two +-1 entries, one (a mark) or none, and the lines are the columns or
    the rows."""
    n = draw(st.integers(0, 7))
    end = st.tuples(st.integers(0, max(n - 1, 0)), st.sampled_from([1, -1]))
    line = st.lists(end, max_size=2 if n else 0, unique_by=lambda e: e[0])
    a = signed_graph(n, draw(st.lists(line, max_size=10)))
    return a if draw(st.booleans()) else a.T.copy()


ODD_TRIANGLE = [[(0, 1), (1, 1)], [(1, 1), (2, 1)], [(0, -1), (2, -1)]]
SIGNED_GRAPHS = {
    "odd-triangle": (signed_graph(3, ODD_TRIANGLE), (3, (2,))),
    "even-triangle": (signed_graph(3, [[(0, 1), (1, -1)], [(1, 1), (2, -1)], [(0, -1), (2, 1)]]),
                      (2, ())),
    "two-lines-odd": (signed_graph(2, [[(0, 1), (1, 1)], [(0, 1), (1, -1)]]), (2, (2,))),
    "two-lines-even": (signed_graph(2, [[(0, 1), (1, -1)], [(0, -1), (1, 1)]]), (1, ())),
    "marked-odd-triangle": (signed_graph(3, ODD_TRIANGLE + [[(2, -1)]]), (3, ())),
    "marked-path": (signed_graph(3, [[(0, 1), (1, -1)], [(1, 1), (2, 1)], [(2, 1)]]), (3, ())),
    "components": (signed_graph(9, ODD_TRIANGLE + [[(3, 1), (4, -1)], [], [(5, 1), (6, 1)],
                                                   [(5, -1), (6, 1)], [(7, -1)]]),
                   (7, (2, 2))),
    "zero-lines": (zeros_mat(3, 4), (0, ())),
}


@pytest.mark.parametrize("layout", ["columns", "rows"])
@pytest.mark.parametrize("a,expected", SIGNED_GRAPHS.values(), ids=SIGNED_GRAPHS)
def test_signed_graphs_reduce_without_elimination(monkeypatch, a, expected, layout):
    a = a if layout == "columns" else a.T.copy()
    assert snf_oracle(a) == expected
    _, cols = as_columns(a)

    def no_elimination(columns):
        raise AssertionError("a signed graph went to the elimination")

    monkeypatch.setattr(topology, "_eliminated_factors", no_elimination)
    assert topology._invariant_factors(cols) == expected


@settings(max_examples=300, deadline=None)
@given(signed_graphs())
def test_union_find_matches_elimination_and_dense_snf_oracle(a):
    _, cols = as_columns(a)
    graph = topology._signed_graph_factors(cols)
    assert graph is not None
    assert graph == topology._eliminated_factors(cols) == snf_oracle(a)


NOT_SIGNED_GRAPHS = {
    # an entry 2 where a line would have a sign
    "two": signed_graph(3, [[(0, 1), (1, 2)], [(1, 1), (2, -1)]]),
    # a line with three entries in each layout
    "three": intmat([[1, 1, 1], [1, 1, -1], [1, -1, 1]]),
    # rows of at most two entries, but not one of them a unit
    "minus-two": intmat([[-2, 0], [0, 1]]),
}


@pytest.mark.parametrize("a", NOT_SIGNED_GRAPHS.values(), ids=NOT_SIGNED_GRAPHS)
def test_other_matrices_fall_back_to_elimination(a):
    _, cols = as_columns(a)
    assert topology._signed_graph_factors(cols) is None
    assert topology._invariant_factors(cols) == topology._eliminated_factors(cols) == snf_oracle(a)


# --- exactness ---------------------------------------------------------------


def test_isomorphism_sequence_exact_everywhere():
    verdicts = verify_exact([zeros_mat(1, 0), identity_mat(1), zeros_mat(0, 1)])
    assert [v.exact for v in verdicts] == [True, True]


def test_diagonal_then_difference_is_exact():
    # Z -> Z^2 by x -> (x, x); Z^2 -> Z by (x, y) -> x - y
    verdicts = verify_exact([intmat([[1], [1]]), intmat([[1, -1]])])
    assert verdicts[0].exact
    assert verdicts[0].quotient == AbelianGroup(0)


def test_times_two_then_zero_not_exact():
    verdicts = verify_exact([intmat([[2]]), intmat([[0]])])
    v = verdicts[0]
    assert v.composition_zero
    assert not v.exact
    assert v.quotient == AbelianGroup(0, (2,))
    assert format_group(v.quotient) == "Z/2"


def test_nonzero_composition_reported():
    verdicts = verify_exact([identity_mat(1), identity_mat(1)])
    assert not verdicts[0].composition_zero
    assert not verdicts[0].exact


@pytest.mark.parametrize("name", list(SpaceName))
def test_verify_exact_scans_and_reduces_each_map_once(monkeypatch, name):
    # the chain complex as a sequence 0 -> C_dim -> ... -> C_0 -> 0: each
    # interior map is incoming at one position and outgoing at the next;
    # dense maps are scanned once each, columns never
    c = builtin_complex(name)
    maps = [c.boundary(k) for k in range(c.dimension + 1, -1, -1)]
    scanned = recorded_calls(monkeypatch, "_sparse_columns")
    reduced = recorded_calls(monkeypatch, "_invariant_factors")
    for given in (maps, [as_columns(a) for a in maps]):
        scanned.clear()
        reduced.clear()
        verdicts = verify_exact(given)
        assert [v.quotient for v in verdicts] == EXPECTED_HOMOLOGY[name][::-1]
        assert [dense_key(a) for a in scanned] == [dense_key(a) for a in given if isinstance(a, np.ndarray)]
        assert sorted(columns_key(cols) for cols in reduced) == sorted(dense_key(a) for a in maps)
    assert scanned == []


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        verify_exact([intmat([[1], [1]]), intmat([[1]])])


# --- formatting --------------------------------------------------------------


@pytest.mark.parametrize(
    "group,text",
    [
        (AbelianGroup(0), "0"),
        (AbelianGroup(1), "Z"),
        (AbelianGroup(2), "Z^2"),
        (AbelianGroup(1, (2,)), "Z + Z/2"),
        (AbelianGroup(0, (2, 4)), "Z/2 + Z/4"),
    ],
)
def test_format_group(group, text):
    assert format_group(group) == text
    assert str(group) == text


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
