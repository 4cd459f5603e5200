from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutation_reference as ref
from surface_reference import is_isomorphic
from sl3shear.seeds import (
    FrozenIndexMutation,
    Sl3IndexSet,
    exchange_matrix,
    flip_plan,
    flip_quiver,
    m_matrix,
    matrix_entries,
    mutate_matrix,
    side_pair,
    triangle_quiver,
)
from sl3shear.surface import FlipCreatesSelfFolded, MarkedSurfaceSpec, build
from sl3shear.tropical import TropicalPoint, dynkin_cluster_by_mutation, mutate_a, mutate_x

F = Fraction


def small_matrix(entries, n=3, frozen=()):
    return ref.exchange(range(1, n + 1), entries, frozen)


def triangle_labels(tri):
    """The paper's labels on a triangle: face 0 and the side pairs
    (5,6), (1,2), (3,4) counterclockwise."""
    t = tri.triangles[0]
    pairs = [side_pair(tri, (t, a)) for a in range(3)]
    return {
        0: ("tri", t),
        5: pairs[0][0], 6: pairs[0][1],
        1: pairs[1][0], 2: pairs[1][1],
        3: pairs[2][0], 4: pairs[2][1],
    }


def test_index_set_counts(polygon4, torus):
    for tri in (polygon4, torus):
        iset = Sl3IndexSet(tri)
        chi = tri.euler_char_punctured()
        mb = tri.n_special()
        assert len(iset.all) == -8 * chi + 5 * mb
        assert len(iset.unfrozen) == -8 * chi + 3 * mb


def test_triangle_extended_rows(triangle):
    lab = triangle_labels(triangle)
    ext = ref.extended_matrix(triangle)
    rows = {
        0: [0, -1, 1, -1, 1, -1, 1],
        1: [1, -1, 0, 0, 0, 0, -1],
        2: [-1, 1, -1, 1, 0, 0, 0],
        3: [1, 0, -1, -1, 0, 0, 0],
        4: [-1, 0, 0, 1, -1, 1, 0],
        5: [1, 0, 0, 0, -1, -1, 0],
        6: [-1, 1, 0, 0, 0, 1, -1],
    }
    for i, want in rows.items():
        got = [ext.get((lab[i], lab[j]), 0) for j in range(7)]
        assert got == [F(v) for v in want], f"row {i}"


def test_triangle_dashed_entry(triangle):
    lab = triangle_labels(triangle)
    _, eps = exchange_matrix(triangle)
    assert eps[lab[2], lab[1]] == F(1, 2)
    assert eps[lab[0], lab[1]] == F(-1)


def test_skew_symmetry_and_range(polygon5, torus):
    for tri in (polygon5, torus):
        _, eps = exchange_matrix(tri)
        assert ref.check(eps) == []


def test_m_matrix_entries(triangle, torus):
    mm = matrix_entries(m_matrix(triangle))
    e = triangle.boundary_intervals[0]
    p, q = ("edge", e, 1), ("edge", e, 2)
    assert mm[p, p] == F(-1) and mm[q, q] == F(-1)
    assert mm[p, q] == F(1, 2) and mm[q, p] == F(1, 2)
    iset, _ = exchange_matrix(triangle)
    for i in iset.unfrozen:
        assert all(mm.get((i, j), 0) == 0 for j in iset.all)
    assert m_matrix(torus) == {}


def test_mutate_2x2_sign_flip():
    eps = small_matrix({(1, 2): F(1)}, n=2)
    out = mutate_matrix(eps, 1)
    assert out[1, 2] == F(-1)


def test_mutate_3x3_hand_example():
    eps = small_matrix({(1, 2): F(1), (2, 3): F(1)})
    out = mutate_matrix(eps, 2)
    assert out[1, 3] == F(1)
    assert out[1, 2] == F(-1)
    assert out[2, 3] == F(-1)


def test_mutate_frozen_rejected():
    eps = small_matrix({(1, 2): F(1)}, n=2, frozen={2})
    with pytest.raises(FrozenIndexMutation):
        mutate_matrix(eps, 2)


@pytest.mark.parametrize("k", [("tri", "nope"), ("edge", "zz", 1)])
def test_mutate_unknown_index_rejected(polygon4, k):
    # an index the matrix lacks is refused, not read as an isolated one
    iset, eps = exchange_matrix(polygon4)
    coords = {i: F(n + 1) for n, i in enumerate(iset.all)}
    for mutate in (
        lambda: mutate_matrix(eps, k),
        lambda: mutate_x(TropicalPoint("X", coords, tri=polygon4), eps, k),
        lambda: mutate_a(TropicalPoint("A", coords, tri=polygon4), eps, k),
    ):
        with pytest.raises(KeyError) as err:
            mutate()
        assert err.value.args == (k,)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda ij: ij[0] < ij[1]),
        st.integers(-3, 3),
        max_size=6,
    ),
    st.integers(1, 4),
)
def test_mutation_involution(entries, k):
    eps = small_matrix({ij: F(v) for ij, v in entries.items()}, n=4)
    assert mutate_matrix(mutate_matrix(eps, k), k) == eps


@st.composite
def seed_and_coords(draw):
    """A small skew-symmetric matrix with integral entries at every
    unfrozen index and half-integral frozen x frozen ones, an unfrozen
    index and rational coordinates."""
    n = draw(st.integers(2, 6))
    indices = list(range(1, n + 1))
    frozen = draw(st.sets(st.sampled_from(indices), max_size=n - 1))
    upper = {}
    for i in indices:
        for j in indices[i:]:
            both_frozen = i in frozen and j in frozen
            upper[i, j] = F(draw(st.integers(-4, 4)), 2) if both_frozen else F(draw(st.integers(-3, 3)))
    k = draw(st.sampled_from([i for i in indices if i not in frozen]))
    fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    coords = draw(st.dictionaries(st.sampled_from(indices), fractions))
    return indices, upper, frozen, k, coords


@settings(max_examples=200, deadline=None)
@given(seed_and_coords())
def test_mutations_equal_the_dense_reference(case):
    indices, upper, frozen, k, coords = case
    eps = ref.exchange(indices, upper, frozen)
    dense = {ij: v for (i, j), v in upper.items() for ij, v in (((i, j), v), ((j, i), -v)) if v}
    out = mutate_matrix(eps, k)
    assert matrix_entries(out.columns) == ref.mutate_matrix(indices, dense, k)
    assert all(out.columns.values())
    x = TropicalPoint("X", coords)
    assert mutate_x(x, eps, k).coords == ref.mutate_x(indices, dense, frozen, x.coords, k)
    xr = TropicalPoint("X", {i: v for i, v in coords.items() if i not in frozen}, restricted=True)
    assert mutate_x(xr, eps, k).coords == ref.mutate_x(indices, dense, frozen, xr.coords, k, restricted=True)
    a = TropicalPoint("A", coords)
    assert mutate_a(a, eps, k).coords == ref.mutate_a(indices, dense, a.coords, k)


def test_mutation_shares_every_column_outside_k_and_its_neighbours():
    # mutation at k reads column k alone: every column of an index that
    # is neither k nor in k's column is the same object after it
    tri = build(MarkedSurfaceSpec.punctured_polygon(5, 2))
    iset, eps = exchange_matrix(tri)
    for k in iset.unfrozen:
        out = mutate_matrix(eps, k)
        touched = {k} | set(eps.columns[k])
        for j, col in eps.columns.items():
            if j not in touched:
                assert out.columns[j] is col
        assert out.columns.keys() == eps.columns.keys()
    assert eps == exchange_matrix(tri)[1]


@pytest.mark.parametrize(
    "maker",
    [
        lambda: build(MarkedSurfaceSpec.polygon(4)),
        lambda: build(MarkedSurfaceSpec.polygon(5)),
        lambda: build(MarkedSurfaceSpec.annulus(1, 1)),
        lambda: build(MarkedSurfaceSpec.once_punctured_torus()),
        lambda: build(MarkedSurfaceSpec.punctured_polygon(3, 3)),
        lambda: build(MarkedSurfaceSpec.punctured_polygon(8, 2)),
        lambda: build(MarkedSurfaceSpec.annulus(3, 3)),
    ],
)
def test_flip_sequence_matches_fresh_matrix(maker):
    # the paper's flip sequence takes the exchange matrix to the flipped
    # triangulation's, and its relabeling is the flip's correspondence
    tri = maker()
    for e in tri.interior_edges:
        try:
            t2, corr = tri.flip_edge(e)
        except FlipCreatesSelfFolded:
            continue
        seq = ref.flip_sequence(tri, e)
        _, eps = exchange_matrix(tri)
        _, eps2 = exchange_matrix(t2)
        assert ref.apply_matrix_steps(eps, seq) == eps2
        assert all(corr[i] == seq[1].get(i, i) for i in Sl3IndexSet(tri).all)


def test_flip_sequence_then_reverse_is_identity(polygon4):
    e = polygon4.interior_edges[0]
    t2, _ = polygon4.flip_edge(e)
    t3, _ = t2.flip_edge(e)
    _, eps = exchange_matrix(polygon4)
    _, eps3 = exchange_matrix(t3)
    eps2 = ref.apply_matrix_steps(eps, ref.flip_sequence(polygon4, e))
    assert ref.apply_matrix_steps(eps2, ref.flip_sequence(t2, e)) == eps3
    assert is_isomorphic(polygon4, t3)


@pytest.mark.parametrize("name", ["polygon4", "polygon5", "annulus11", "torus"])
def test_flip_plan_mutates_in_paper_order(name, request):
    # mu_1 mu_3 mu_4 mu_2 at every interior edge of the criterion-1 fixtures
    tri = request.getfixturevalue(name)
    for e in tri.interior_edges:
        assert [k for k, _ in flip_plan(tri, e).columns] == ref.flip_sequence(tri, e)[0]


def test_amalgamation_locality(polygon5):
    # per-triangle blocks add: deleting one triangle leaves the rest
    _, eps = exchange_matrix(polygon5)
    t0 = polygon5.triangles[0]
    rest = matrix_entries(eps.columns)
    for i, j, w2 in triangle_quiver(polygon5, t0):
        rest[i, j] = rest.get((i, j), 0) - F(w2, 2)
        rest[j, i] = rest.get((j, i), 0) + F(w2, 2)
    for (i, j), v in rest.items():
        if v:
            assert ("tri", t0) not in (i, j)


@pytest.mark.parametrize(
    "spec",
    [
        MarkedSurfaceSpec.polygon(5),
        MarkedSurfaceSpec.punctured_polygon(3, 3),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.once_punctured_torus(),
    ],
    ids=["polygon5", "punctured3_3", "annulus1_1", "torus"],
)
def test_flip_quiver_complete_at_mutated_indices(spec):
    # the two triangles of an edge carry every entry touching the four
    # indices its flip mutates, also with identified outer sides
    tri = build(spec)
    _, eps = exchange_matrix(tri)
    for e in tri.interior_edges:
        local = flip_quiver(tri, e)
        (tl, _), (tr, _) = tri.slots(e)
        mutated = {("edge", e, 1), ("edge", e, 2), ("tri", tl), ("tri", tr)}
        for (i, j), v in matrix_entries(eps.columns).items():
            if i in mutated or j in mutated:
                assert local[i, j] == v
        for (i, j), v in matrix_entries(local.columns).items():
            if i in mutated or j in mutated:
                assert eps[i, j] == v
        assert local.frozen == eps.frozen & set(local.indices)


def test_dynkin_sequence_triangle(triangle):
    # the library's composite mutates the face, then swaps the two points
    # of every edge: on each unit vector it is the dense reference's
    seq = ref.dynkin_sequence(triangle)
    for i in Sl3IndexSet(triangle).all:
        want = ref.apply_steps(triangle, "X", {i: F(1)}, seq)
        got = dynkin_cluster_by_mutation(TropicalPoint("X", {i: F(1)}, tri=triangle), triangle)
        assert got.coords == want


def test_dynkin_sequence_is_matrix_involution(polygon4, torus):
    for tri in (polygon4, torus):
        seq = ref.dynkin_sequence(tri)
        _, eps = exchange_matrix(tri)
        assert ref.apply_matrix_steps(ref.apply_matrix_steps(eps, seq), seq) == eps
