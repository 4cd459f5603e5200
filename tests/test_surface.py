import random

import pytest

from sl3shear.seeds import Sl3IndexSet
from sl3shear.surface import (
    FlipCreatesSelfFolded,
    IdealTriangulation,
    MarkedSurfaceSpec,
    NotInteriorEdge,
    ResultViolatesSurfaceConditions,
    SameEdge,
    SpecViolatesSurfaceConditions,
    build,
)
from surface_reference import is_isomorphic


def euler_counts(tri):
    chi = tri.euler_char_punctured()
    mb = tri.n_special()
    return (-3 * chi + 2 * mb, -3 * chi + mb, -2 * chi + mb)


def test_polygon4_counts(polygon4):
    assert len(polygon4.triangles) == 2
    assert len(polygon4.edges) == 5
    assert len(polygon4.interior_edges) == 1
    assert len(polygon4.boundary_intervals) == 4
    assert euler_counts(polygon4) == (5, 1, 2)


def test_once_punctured_torus_counts(torus):
    assert len(torus.triangles) == 2
    assert len(torus.edges) == 3
    assert torus.boundary_intervals == []
    assert sorted(v for v, c in torus.vertices.items() if c == "puncture") == ["v0"]
    assert euler_counts(torus) == (3, 3, 2)


def test_biangle_rejected():
    with pytest.raises(SpecViolatesSurfaceConditions) as exc:
        build(MarkedSurfaceSpec.polygon(2))
    assert exc.value.condition == "S3"


def test_once_punctured_monogon_rejected():
    with pytest.raises(SpecViolatesSurfaceConditions) as exc:
        build(MarkedSurfaceSpec.punctured_polygon(1, 1))
    assert exc.value.condition == "S4"


@pytest.mark.parametrize(
    "spec",
    [
        MarkedSurfaceSpec.polygon(3),
        MarkedSurfaceSpec.polygon(6),
        MarkedSurfaceSpec.punctured_polygon(3, 1),
        MarkedSurfaceSpec.punctured_polygon(2, 2),
        MarkedSurfaceSpec.annulus(1, 1),
        MarkedSurfaceSpec.annulus(2, 3),
        MarkedSurfaceSpec.once_punctured_torus(),
    ],
)
def test_build_validates_clean(spec):
    tri = build(spec)
    assert tri.validate() == []
    n_e, n_int, n_t = euler_counts(tri)
    assert len(tri.edges) == n_e
    assert len(tri.interior_edges) == n_int
    assert len(tri.triangles) == n_t


def test_self_folded_diagnostic():
    tri = IdealTriangulation({"T0": ("a", "a", "b")})
    assert any("self-folded" in d for d in tri.validate())


def test_corrupted_slot_table_diagnostic(polygon4):
    tri = build(MarkedSurfaceSpec.polygon(4))
    # white-box corruption: drop an edge record to break the count identity
    del tri._slots["b0"]
    diags = tri.validate()
    assert any("edge-count identity" in d for d in diags)


@pytest.mark.parametrize("tri_sides, slot_l, message", [
    ({"T0": ("a", "b")}, None, "triangle T0 does not have 3 sides"),
    ({"T0": ("a", "b", "c"), "T1": ("a", "d", "e"), "T2": ("a", "f", "g")}, None,
     "edge a occurs in more than two side slots"),
    ({"T0": ("a", "b", "c"), "T1": ("a", "d", "e")}, {"a": ("T0", 1)},
     "designated left slot of a not found"),
], ids=["two-sides", "three-slots", "foreign-left-slot"])
def test_malformed_tables_are_refused(tri_sides, slot_l, message):
    with pytest.raises(ValueError) as info:
        IdealTriangulation(tri_sides, slot_l=slot_l)
    assert type(info.value) is ValueError and str(info.value) == message


def test_annulus_vertex_classes(annulus11):
    classes = set(annulus11.vertices.values())
    assert classes == {"special"}
    assert len(annulus11.vertices) == 2


def test_flip_square_involution(polygon4):
    e = polygon4.interior_edges[0]
    t1, c1 = polygon4.flip_edge(e)
    assert t1.validate() == []
    assert not is_isomorphic(polygon4, t1) or True  # same underlying surface
    t2, c2 = t1.flip_edge(e)
    assert t2.validate() == []
    assert is_isomorphic(polygon4, t2)
    # composite index correspondence swaps the diagonal labels and faces
    comp = {i: c2[c1[i]] for i in Sl3IndexSet(polygon4).all}
    nontrivial = {i: j for i, j in comp.items() if i != j}
    assert set(nontrivial) == {
        ("edge", e, 1),
        ("edge", e, 2),
        ("tri", "T1"),
        ("tri", "T2"),
    }


def test_flip_boundary_rejected(polygon4):
    with pytest.raises(NotInteriorEdge):
        polygon4.flip_edge("b0")


def test_flip_torus_all_edges(torus):
    for e in torus.interior_edges:
        t2, _ = torus.flip_edge(e)
        assert t2.validate() == []


def test_flip_self_folded_rejected():
    tri = build(MarkedSurfaceSpec.punctured_polygon(2, 1))
    with pytest.raises(FlipCreatesSelfFolded):
        tri.flip_edge("r0")


def test_flip_preserves_euler_counts(polygon5):
    for e in polygon5.interior_edges:
        t2, _ = polygon5.flip_edge(e)
        assert euler_counts(t2) == euler_counts(polygon5)
        assert len(t2.edges) == len(polygon5.edges)
        assert len(t2.triangles) == len(polygon5.triangles)


def test_glue_two_triangles(two_triangles, polygon4):
    glued, _ = two_triangles.glue_boundary("a2", "b0")
    assert glued.validate() == []
    assert is_isomorphic(glued, polygon4)
    # the merged edge keeps the left interval's id and is interior
    assert glued.is_interior("a2") and not glued.has_edge("b0")


def test_glue_polygon4_to_annulus(polygon4, annulus11):
    glued, _ = polygon4.glue_boundary("b0", "b2")
    assert glued.validate() == []
    assert len(glued.edges) == 4
    assert euler_counts(glued) == (4, 2, 2)
    assert is_isomorphic(glued, annulus11)


def test_glue_same_edge_rejected(polygon4):
    with pytest.raises(SameEdge):
        polygon4.glue_boundary("b0", "b0")


def test_glue_triangle_sides_rejected(triangle):
    # gluing two sides of one triangle would self-fold it
    with pytest.raises(ResultViolatesSurfaceConditions):
        triangle.glue_boundary("b0", "b1")


def test_glue_creates_puncture(polygon4):
    glued, _ = polygon4.glue_boundary("b1", "b2")
    assert glued.validate() == []
    assert "puncture" in glued.vertices.values()


def test_canonical_form_stable_under_relabeling(polygon5):
    relabeled = IdealTriangulation(
        {f"X{t}": tuple(f"Y{e}" for e in polygon5.tri_sides[t]) for t in polygon5.triangles},
        slot_l={
            f"Y{e}": (f"X{polygon5.slots(e)[0][0]}", polygon5.slots(e)[0][1])
            for e in polygon5.edges
        },
    )
    assert is_isomorphic(polygon5, relabeled)
    assert not is_isomorphic(polygon5, build(MarkedSurfaceSpec.polygon(6)))
    # one surface, two triangulations: after the flip at d3 one triangle
    # of polygon(6) has three diagonals as its sides, and none did before
    hexagon = build(MarkedSurfaceSpec.polygon(6))
    flipped, _ = hexagon.flip_edge("d3")
    assert sorted(flipped.tri_sides["T2"]) == ["d2", "d3", "d4"]
    assert not is_isomorphic(hexagon, flipped)


def test_self_folded_table_rejected_by_build():
    from sl3shear.surface import SelfFoldedUnavoidable

    spec = MarkedSurfaceSpec.table([("T0", ("a", "a", "b"))])
    with pytest.raises(SelfFoldedUnavoidable):
        build(spec)


def _vertex_data(tri):
    """Everything a reader sees of a triangulation's vertices."""
    return (
        list(tri.vertices.items()),
        {v: tri.corners_at_vertex(v) for v in tri.vertices},
        {e: tri.edge_endpoints(e) for e in tri.edges},
        tri.n_special(),
    )


@pytest.mark.parametrize("spec", [
    MarkedSurfaceSpec.once_punctured_torus(),
    MarkedSurfaceSpec.polygon(6),
    MarkedSurfaceSpec.annulus(2, 2),
    MarkedSurfaceSpec.punctured_polygon(3, 2),
    MarkedSurfaceSpec.punctured_polygon(4, 1),
], ids=["torus", "polygon6", "annulus22", "punctured32", "punctured41"])
def test_flipped_vertices_equal_a_fresh_build(spec):
    """Along a random flip walk, the vertex names (in order), classes,
    corner lists, edge orientations and special count of each flipped
    triangulation equal those of a fresh build of its table; and every
    corner outside the two flipped triangles keeps its vertex key, so
    the keys follow the marked points."""
    tri = build(spec)
    rng = random.Random(str(spec))
    flips = 0
    for _ in range(200):
        e = rng.choice(tri.interior_edges)
        try:
            t2, _ = tri.flip_edge(e)
        except FlipCreatesSelfFolded:
            continue
        fresh = IdealTriangulation(t2.tri_sides, slot_l={f: t2.slots(f)[0] for f in t2.edges})
        assert _vertex_data(t2) == _vertex_data(fresh), e
        flipped = {t for t, _ in tri.slots(e)}
        assert {c: k for c, k in t2._corner_key.items() if c[0] not in flipped} == {
            c: k for c, k in tri._corner_key.items() if c[0] not in flipped
        }
        tri = t2
        flips += 1
        if flips == 54:
            break
    assert flips == 54
