import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutation_reference as ref
from sl3shear import tropical
from sl3shear.seeds import (
    Sl3IndexSet,
    exchange_matrix,
    flip_plan,
    side_pair,
)
from sl3shear.surface import FlipCreatesSelfFolded, MarkedSurfaceSpec, NotInteriorEdge, build
from sl3shear.tropical import (
    TropicalPoint,
    apply_flip,
    dynkin_cluster,
    dynkin_cluster_by_mutation,
    ensemble,
    flip_local_labels,
    flip_x_closed_form,
    mutate_a,
    mutate_x,
    principal_embed,
)

F = Fraction


def eps2(frozen=()):
    return ref.exchange([1, 2], {(1, 2): F(1)}, frozen)


def test_mutate_x_example():
    p = TropicalPoint("X", {1: F(1)})
    q = mutate_x(p, eps2(), 1)
    assert q[1] == F(-1) and q[2] == F(1)


def test_mutate_x_zero_pivot():
    p = TropicalPoint("X", {2: F(5)})
    q = mutate_x(p, eps2(), 1)
    assert q == p


def test_mutate_a_example():
    p = TropicalPoint("A", {2: F(1)})
    q = mutate_a(p, eps2(), 1)
    assert q[1] == F(1) and q[2] == F(1)


def test_mutate_a_zero():
    p = TropicalPoint("A", {})
    assert mutate_a(p, eps2(), 1) == p


@settings(max_examples=50, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9))
def test_mutations_involutive(a, b):
    # the return trip uses the mutated exchange matrix
    from sl3shear.seeds import mutate_matrix

    eps = eps2()
    eps_after = mutate_matrix(eps, 1)
    px = TropicalPoint("X", {1: F(a), 2: F(b)})
    assert mutate_x(mutate_x(px, eps, 1), eps_after, 1) == px
    pa = TropicalPoint("A", {1: F(a), 2: F(b)})
    assert mutate_a(mutate_a(pa, eps, 1), eps_after, 1) == pa


def _local_points(tri, e, values):
    lab = flip_local_labels(tri, e)
    return TropicalPoint("X", {lab[n]: F(v) for n, v in values.items()}, tri=tri)


def _read_local(q, tri, e):
    # after the flip the labels keep their geometric positions
    t2, corr = tri.flip_edge(e)
    lab = flip_local_labels(tri, e)
    return {n: q[corr[lab[n]]] for n in range(1, 13)}


@pytest.mark.parametrize("e", ["zz", "b0"])
def test_flip_refuses_unknown_and_boundary_edges(e):
    # an edge the triangulation lacks is refused as a boundary interval is,
    # by every way into a flip, and no refusal is memoized
    tri = build(MarkedSurfaceSpec.polygon(4))
    p = TropicalPoint("X", {i: F(1) for i in Sl3IndexSet(tri).all}, tri=tri)
    for flip in (
        lambda: tri.flip_edge(e),
        lambda: apply_flip(p, tri, e),
        lambda: flip_x_closed_form(p, tri, e),
        lambda: flip_plan(tri, e),
    ):
        with pytest.raises(NotInteriorEdge):
            flip()
    assert tri.memo == {}


def test_closed_form_zero(polygon4):
    e = polygon4.interior_edges[0]
    p = TropicalPoint("X", {}, tri=polygon4)
    q = flip_x_closed_form(p, polygon4, e)
    assert q.coords == {}


def test_closed_form_e1(polygon4):
    e = polygon4.interior_edges[0]
    p = _local_points(polygon4, e, {1: 1})
    out = _read_local(flip_x_closed_form(p, polygon4, e), polygon4, e)
    want = {n: F(0) for n in range(1, 13)}
    want.update({4: F(-1), 5: F(1), 10: F(1)})
    assert out == want


def test_closed_form_e3(polygon4):
    e = polygon4.interior_edges[0]
    p = _local_points(polygon4, e, {3: 1})
    out = _read_local(flip_x_closed_form(p, polygon4, e), polygon4, e)
    want = {n: F(0) for n in range(1, 13)}
    want.update({2: F(-1), 6: F(1), 9: F(1)})
    assert out == want


@pytest.mark.parametrize("name", ["torus", "annulus11"])
def test_closed_form_folds_identified_sides(name, request):
    """Where outer sides of the quadrilateral are identified, the closed
    form still equals the mutation sequence, at every interior edge."""
    tri = request.getfixturevalue(name)
    rng = random.Random(3)
    iset = Sl3IndexSet(tri)
    for e in tri.interior_edges:
        assert len(set(flip_local_labels(tri, e).values())) < 12
        for _ in range(40):
            coords = {i: F(rng.randint(-20, 20), rng.randint(1, 8)) for i in iset.all}
            p = TropicalPoint("X", coords, tri=tri)
            assert apply_flip(p, tri, e) == flip_x_closed_form(p, tri, e)


def test_apply_flip_matches_closed_form(polygon4):
    rng = random.Random(0)
    iset = Sl3IndexSet(polygon4)
    e = polygon4.interior_edges[0]
    for _ in range(150):
        coords = {i: F(rng.randint(-20, 20), rng.randint(1, 8)) for i in iset.all}
        p = TropicalPoint("X", coords, tri=polygon4)
        assert apply_flip(p, polygon4, e) == flip_x_closed_form(p, polygon4, e)


def test_apply_flip_identity_outside(polygon5):
    rng = random.Random(1)
    iset = Sl3IndexSet(polygon5)
    for e in polygon5.interior_edges:
        lab = set(flip_local_labels(polygon5, e).values())
        for _ in range(30):
            coords = {i: F(rng.randint(-9, 9)) for i in iset.all}
            p = TropicalPoint("X", coords, tri=polygon5)
            q = apply_flip(p, polygon5, e)
            for i in iset.all:
                if i not in lab:
                    assert q[i] == p[i]


def test_restricted_flip_keeps_no_frozen_coordinates(polygon5):
    iset = Sl3IndexSet(polygon5)
    e = polygon5.interior_edges[0]
    p = TropicalPoint("X", {i: F(1) for i in iset.unfrozen}, tri=polygon5, restricted=True)
    t2, _ = polygon5.flip_edge(e)
    dense = ref.apply_steps(polygon5, "X", p.coords, ref.flip_sequence(polygon5, e), restricted=True)
    flipped = [
        apply_flip(p, polygon5, e),
        TropicalPoint("X", dense, tri=t2, restricted=True),
        flip_x_closed_form(p, polygon5, e),
    ]
    unfrozen = set(Sl3IndexSet(t2).unfrozen)
    for q in flipped:
        assert q.restricted
        assert q.coords and set(q.coords) <= unfrozen
        assert q == flipped[0]


def test_restricted_points_are_checked(polygon5):
    """A restricted point is an X-point without frozen coordinates: the
    polygon(5) point with x(b0, 1) = 3, which mutate_x and apply_flip
    used to treat differently, is refused where it is built."""
    iset = Sl3IndexSet(polygon5)
    k = iset.unfrozen[0]
    coords = {("edge", "b0", 1): F(3), k: F(1)}
    with pytest.raises(ValueError, match="frozen coordinates"):
        TropicalPoint("X", coords, tri=polygon5, restricted=True)
    with pytest.raises(ValueError, match="X-point"):
        TropicalPoint("A", {k: F(1)}, tri=polygon5, restricted=True)
    # a zero frozen coordinate is no coordinate
    p = TropicalPoint("X", {("edge", "b0", 1): 0, k: F(1)}, tri=polygon5, restricted=True)
    full = TropicalPoint("X", coords, tri=polygon5)
    _, eps = exchange_matrix(polygon5)
    q = mutate_x(p, eps, k)
    assert q.restricted
    assert q.coords == {i: v for i, v in mutate_x(full, eps, k).coords.items() if i not in iset.frozen}


def test_restricted_dynkin_keeps_no_frozen_coordinates(polygon5):
    iset = Sl3IndexSet(polygon5)
    p = TropicalPoint("X", {i: F(n + 1) for n, i in enumerate(iset.unfrozen)}, tri=polygon5,
                      restricted=True)
    full = dynkin_cluster(TropicalPoint("X", p.coords, tri=polygon5), polygon5)
    q = dynkin_cluster(p, polygon5)
    assert q.restricted
    assert q.coords == {i: v for i, v in full.coords.items() if i not in iset.frozen}
    assert q == dynkin_cluster_by_mutation(p, polygon5)
    assert dynkin_cluster(q, polygon5) == p


def test_double_flip_returns_point(polygon4):
    rng = random.Random(2)
    iset = Sl3IndexSet(polygon4)
    e = polygon4.interior_edges[0]
    t2, c1 = polygon4.flip_edge(e)
    _, c2 = t2.flip_edge(e)
    comp = {i: c2[c1[i]] for i in iset.all}
    for _ in range(100):
        coords = {i: F(rng.randint(-9, 9), rng.randint(1, 4)) for i in iset.all}
        p = TropicalPoint("X", coords, tri=polygon4)
        r = apply_flip(apply_flip(p, polygon4, e), t2, e)
        assert all(r[comp[i]] == p[i] for i in comp)


def scale(p, u):
    """The point ``u p``, for a positive rational ``u``."""
    return TropicalPoint(p.kind, {i: u * v for i, v in p.coords.items()}, tri=p.tri, restricted=p.restricted)


def test_scaling_equivariance(polygon4):
    rng = random.Random(3)
    iset = Sl3IndexSet(polygon4)
    e = polygon4.interior_edges[0]
    for _ in range(50):
        coords = {i: F(rng.randint(-9, 9), rng.randint(1, 4)) for i in iset.all}
        p = TropicalPoint("X", coords, tri=polygon4)
        u = F(rng.randint(1, 7), rng.randint(1, 5))
        assert apply_flip(scale(p, u), polygon4, e) == scale(apply_flip(p, polygon4, e), u)
        assert dynkin_cluster(scale(p, u), polygon4) == scale(dynkin_cluster(p, polygon4), u)


def test_ensemble_triangle_alpha_row(triangle):
    # a(alpha) from the component tables, fed through the linear map
    t = triangle.triangles[0]
    pairs = [side_pair(triangle, (t, a)) for a in range(3)]
    order = [("tri", t), *pairs[1], *pairs[2], *pairs[0]]
    a_vals = [F(2, 3), F(1, 3), F(2, 3), F(0), F(0), F(2, 3), F(1, 3)]
    a = TropicalPoint("A", dict(zip(order, a_vals)), tri=triangle)
    x = ensemble(a, triangle)
    assert [x[i] for i in order] == [F(0), F(0), F(-1), F(0), F(0), F(0), F(0)]


def test_ensemble_triangle_tau_row(triangle):
    t = triangle.triangles[0]
    pairs = [side_pair(triangle, (t, a)) for a in range(3)]
    order = [("tri", t), *pairs[1], *pairs[2], *pairs[0]]
    a_vals = [F(1), F(1, 3), F(2, 3), F(1, 3), F(2, 3), F(1, 3), F(2, 3)]
    a = TropicalPoint("A", dict(zip(order, a_vals)), tri=triangle)
    x = ensemble(a, triangle)
    assert [x[i] for i in order] == [F(1), F(0), F(-1), F(0), F(-1), F(0), F(-1)]


def test_ensemble_linear_zero(polygon4):
    a = TropicalPoint("A", {}, tri=polygon4)
    assert ensemble(a, polygon4).coords == {}


def test_dynkin_zero_and_example(polygon4):
    assert dynkin_cluster(TropicalPoint("X", {}, tri=polygon4), polygon4).coords == {}
    e = polygon4.interior_edges[0]
    (tl, _), (tr, _) = polygon4.slots(e)
    p = TropicalPoint("X", {("tri", tl): F(1)}, tri=polygon4)
    q = dynkin_cluster(p, polygon4)
    unfrozen = Sl3IndexSet(polygon4).unfrozen
    assert q[("tri", tl)] == F(-1)
    assert q[("edge", e, 1)] == F(1)
    for i in unfrozen:
        if i not in (("tri", tl), ("edge", e, 1)):
            assert q[i] == 0


@pytest.mark.parametrize("name", ["triangle", "polygon4", "annulus11", "torus"])
def test_dynkin_closed_form_equals_sequence(name, request):
    tri = request.getfixturevalue(name)
    rng = random.Random(5)
    iset = Sl3IndexSet(tri)
    for _ in range(120):
        coords = {i: F(rng.randint(-12, 12), rng.randint(1, 6)) for i in iset.all}
        p = TropicalPoint("X", coords, tri=tri)
        q = dynkin_cluster(p, tri)
        assert q == dynkin_cluster_by_mutation(p, tri)
        assert dynkin_cluster(q, tri) == p


def test_principal_embed_basics(polygon4):
    assert principal_embed({}, polygon4).coords == {}
    e = polygon4.edges[0]
    p = principal_embed({e: F(1)}, polygon4)
    assert p[("edge", e, 1)] == F(1) and p[("edge", e, 2)] == F(1)
    assert sum(1 for v in p.coords.values() if v) == 2
    assert dynkin_cluster(p, polygon4) == p


def test_principal_locus_preserved_by_flips(polygon5):
    rng = random.Random(6)
    for _ in range(60):
        sl2 = {e: F(rng.randint(-8, 8), rng.randint(1, 4)) for e in polygon5.edges}
        p = principal_embed(sl2, polygon5)
        for e in polygon5.interior_edges:
            q = apply_flip(p, polygon5, e)
            for t in q.tri.triangles:
                assert q[("tri", t)] == 0
            for e2 in q.tri.edges:
                assert q[("edge", e2, 1)] == q[("edge", e2, 2)]


def classical_sl2_flip(y, tri, e):
    """The textbook tropical flip of rank-1 shear coordinates on the
    quadrilateral at ``e``: the diagonal negates, the two sides meeting
    it at one pair of opposite corners gain [y_e]_+, the other two lose
    [-y_e]_+."""
    from sl3shear.tropical import pos

    lab = flip_local_labels(tri, e)
    edge_of = {n: lab[n][1] for n in (5, 7, 9, 11)}
    ye = y[e]
    out = dict(y)
    out[e] = -ye
    for n in (5, 9):
        out[edge_of[n]] = y[edge_of[n]] + pos(ye)
    for n in (7, 11):
        out[edge_of[n]] = y[edge_of[n]] - pos(-ye)
    return out


def test_flip_agrees_with_classical_rank1_rule(polygon4, polygon5):
    rng = random.Random(41)
    for tri in (polygon4, polygon5):
        for e in tri.interior_edges:
            lab = flip_local_labels(tri, e)
            outer = {lab[n][1] for n in (5, 7, 9, 11)}
            if len(outer) < 4:
                continue
            for _ in range(60):
                y = {e2: F(rng.randint(-8, 8), rng.randint(1, 4)) for e2 in tri.edges}
                p = principal_embed(y, tri)
                q = apply_flip(p, tri, e)
                want = classical_sl2_flip(y, tri, e)
                for e2 in q.tri.edges:
                    assert q[("edge", e2, 1)] == want[e2]
                    assert q[("edge", e2, 2)] == want[e2]


def test_apply_flip_matches_closed_form_every_edge(polygon5):
    rng = random.Random(43)
    iset = Sl3IndexSet(polygon5)
    for e in polygon5.interior_edges:
        for _ in range(80):
            coords = {i: F(rng.randint(-20, 20), rng.randint(1, 8)) for i in iset.all}
            p = TropicalPoint("X", coords, tri=polygon5)
            assert apply_flip(p, polygon5, e) == flip_x_closed_form(p, polygon5, e)


def test_points_equal_across_forms(polygon4):
    """A point from ints equals the same point from Fractions over any
    common denominator, minimal or not, whichever forms each side has
    read; kind and restriction still tell points apart."""
    i, j, k = Sl3IndexSet(polygon4).unfrozen[:3]
    for d in (6, 12, 30):
        nums = {i: 3 * d // 2, j: -d // 3}
        p = TropicalPoint("X", {i: F(3, 2), j: F(-1, 3), k: 0}, tri=polygon4)
        q = TropicalPoint.from_ints("X", d, nums, polygon4)
        assert q == p and p == q
        assert q == TropicalPoint.from_ints("X", 6, {i: 9, j: -2}, polygon4)
        assert q.coords and q == p  # both hold Fractions now
        q = TropicalPoint.from_ints("X", d, dict(nums), polygon4)
        assert q != TropicalPoint.from_ints("X", d, {i: 3 * d // 2, j: -d // 3 + 1}, polygon4)
        assert q != TropicalPoint.from_ints("X", 2 * d, {i: 3 * d}, polygon4)
        assert q != TropicalPoint.from_ints("X", 2 * d, {i: 3 * d, j: -2 * d // 3, k: 1}, polygon4)
        assert q != TropicalPoint.from_ints("A", d, nums, polygon4)
        assert q != TropicalPoint.from_ints("X", d, nums, polygon4, restricted=True)
        assert q != TropicalPoint("A", p.coords, tri=polygon4)
        assert q != TropicalPoint("X", p.coords, tri=polygon4, restricted=True)
        assert q != p.coords


def test_int_built_coords_are_reduced_fractions(polygon4):
    i, j, k, m = Sl3IndexSet(polygon4).unfrozen[:4]
    q = TropicalPoint.from_ints("X", 12, {i: 18, j: -4, k: 12}, polygon4)
    assert {n: (v.numerator, v.denominator) for n, v in q.coords.items()} == {
        i: (3, 2), j: (-1, 3), k: (1, 1)
    }
    assert q[i] == F(3, 2) and q[m] == 0
    # a coordinate that a map sends to zero is dropped: x'_2 = x_2 + x_1
    p = mutate_x(TropicalPoint("X", {1: F(1, 2), 2: F(-1, 2)}), eps2(), 1)
    assert p.coords == {1: F(-1, 2)}


WALK_SURFACES = {
    "polygon6": MarkedSurfaceSpec.polygon(6),
    "annulus21": MarkedSurfaceSpec.annulus(2, 1),
    "torus": MarkedSurfaceSpec.once_punctured_torus(),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(WALK_SURFACES)), st.integers(0, 2**32), st.integers(1, 4))
def test_int_maps_match_dense_reference_along_walks(name, seed, length):
    """Along a walk of flips, each point a map returns is fed to the next
    map as it is, so its ints and denominator are carried across steps;
    every map agrees with the dense Fraction reference at every step."""
    rng = random.Random(seed)
    tri = build(WALK_SURFACES[name])
    iset = Sl3IndexSet(tri)
    xs = {i: F(rng.randint(-12, 12), rng.randint(1, 6)) for i in iset.all}
    as_ = {i: F(rng.randint(-12, 12), rng.randint(1, 6)) for i in iset.all}
    x, a = TropicalPoint("X", xs, tri=tri), TropicalPoint("A", as_, tri=tri)
    for _ in range(length):
        assert ensemble(a, tri) == TropicalPoint("X", ref.ensemble(ref.extended_matrix(tri), as_))
        dynkin = ref.apply_steps(tri, "X", xs, ref.dynkin_sequence(tri))
        assert dynkin_cluster(x, tri) == TropicalPoint("X", dynkin)
        e = rng.choice(tri.interior_edges)
        try:
            tri.flip_edge(e)
        except FlipCreatesSelfFolded:
            continue
        seq = ref.flip_sequence(tri, e)
        xs, as_ = ref.apply_steps(tri, "X", xs, seq), ref.apply_steps(tri, "A", as_, seq)
        x2 = apply_flip(x, tri, e)
        assert x2 == TropicalPoint("X", xs)
        assert flip_x_closed_form(x, tri, e) == x2
        a = apply_flip(a, tri, e)
        assert a == TropicalPoint("A", as_)
        x, tri = x2, x2.tri


def test_int_built_points_build_no_fraction(monkeypatch):
    """Flips, the closed form, the ensemble map and the Dynkin action run
    on an int-built point, and on the points they return, without
    building a single Fraction."""
    tri = build(MarkedSurfaceSpec.polygon(8))
    rng = random.Random("ints:polygon8")
    iset = Sl3IndexSet(tri)
    e = tri.interior_edges[2]
    d = 12
    xn = {i: rng.choice([-1, 1]) * rng.randint(1, 40) for i in iset.all}
    an = {i: rng.choice([-1, 1]) * rng.randint(1, 40) for i in iset.all}

    def run(x, a):
        x2, a2 = apply_flip(x, tri, e), apply_flip(a, tri, e)
        t2 = x2.tri
        return (
            x2, flip_x_closed_form(x, tri, e), a2, ensemble(a, tri), dynkin_cluster(x, tri),
            apply_flip(x2, t2, e), ensemble(a2, t2), dynkin_cluster(x2, t2),
        )

    want = run(
        TropicalPoint("X", {i: F(n, d) for i, n in xn.items()}, tri=tri),
        TropicalPoint("A", {i: F(n, d) for i, n in an.items()}, tri=tri),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    with monkeypatch.context() as m:
        m.setattr(tropical, "Fraction", refuse)
        got = run(TropicalPoint.from_ints("X", d, xn, tri), TropicalPoint.from_ints("A", d, an, tri))
    assert got == want
